#include "core/fcat.h"

#include "estimate/zero_estimator.h"

namespace anc::core {
namespace {

CollisionAwareConfig EngineConfig(const FcatOptions& o) {
  CollisionAwareConfig c;
  c.lambda = o.lambda;
  c.frame_size = o.frame_size;
  c.omega = o.omega;
  c.l_bits = o.l_bits;
  c.per_slot_advert = false;
  c.ack_with_slot_index = true;
  c.knows_true_n = false;
  c.initial_estimate = o.initial_estimate;
  c.estimator_window = o.estimator_window;
  c.hash_mode = o.hash_mode;
  c.empty_probe_threshold = o.empty_probe_threshold;
  c.oracle_termination = o.oracle_termination;
  c.fault = o.fault;
  c.timing = o.timing;
  return c;
}

CollisionAwareConfig EngineConfig(const ScatOptions& o) {
  CollisionAwareConfig c;
  c.lambda = o.lambda;
  c.frame_size = 1;
  c.omega = o.omega;
  c.l_bits = o.l_bits;
  c.per_slot_advert = true;
  c.ack_with_slot_index = false;  // SCAT acknowledges with full IDs
  c.knows_true_n = true;          // Section IV-C's pre-step estimate
  c.hash_mode = o.hash_mode;
  c.empty_probe_threshold = o.empty_probe_threshold;
  c.oracle_termination = o.oracle_termination;
  c.fault = o.fault;
  c.timing = o.timing;
  return c;
}

// Checkpoint blob shared by Fcat and Scat: the IdealPhy and engine blobs,
// length-prefixed, then the blob format. Blobs from checkpoint v1 end
// after the engine blob; they restore as ser::BlobFormat::kV1.
void SaveIdealEngine(const phy::IdealPhy& phy,
                     const CollisionAwareEngine& engine, std::string* out) {
  std::string blob;
  phy.SaveState(&blob);
  ser::PutBytes(*out, blob);
  blob.clear();
  engine.SaveEngineState(&blob);
  ser::PutBytes(*out, blob);
  ser::PutVarint(*out, static_cast<std::uint64_t>(ser::BlobFormat::kV2));
}

bool RestoreIdealEngine(std::string_view bytes, phy::IdealPhy& phy,
                        CollisionAwareEngine& engine) {
  ser::Reader r{bytes};
  ser::Reader phy_r{r.Bytes()};
  ser::Reader eng_r{r.Bytes()};
  const std::uint64_t version =
      r.AtEnd() ? static_cast<std::uint64_t>(ser::BlobFormat::kV1)
                : r.Varint();
  if (!r.ok || !r.AtEnd() ||
      (version != static_cast<std::uint64_t>(ser::BlobFormat::kV1) &&
       version != static_cast<std::uint64_t>(ser::BlobFormat::kV2))) {
    return false;
  }
  const auto format = static_cast<ser::BlobFormat>(version);
  if (!phy.RestoreState(phy_r, format) || !phy_r.AtEnd() ||
      !engine.RestoreEngineState(eng_r, format) || !eng_r.AtEnd()) {
    return false;
  }
  // The tracker and ledger only hold handles the phy has issued, so their
  // windows end at or below the phy's next handle. A blob whose windows
  // run past it would have the next collision's handle land below their
  // base.
  const std::uint32_t phy_end = phy.window_end().index();
  const fault::RecordLedger* ledger = engine.ledger();
  return engine.tracker().window_end().index() <= phy_end &&
         (ledger == nullptr || ledger->window_end().index() <= phy_end);
}

CollisionAwareConfig EngineConfig(const FcatSignalOptions& o) {
  CollisionAwareConfig c;
  c.lambda = o.lambda;
  c.frame_size = o.frame_size;
  c.omega = o.omega;
  c.l_bits = o.l_bits;
  c.per_slot_advert = false;
  c.ack_with_slot_index = true;
  c.knows_true_n = false;
  c.hash_mode = false;
  c.empty_probe_threshold = o.empty_probe_threshold;
  c.oracle_termination = o.oracle_termination;
  c.fault = o.fault;
  c.timing = o.timing;
  return c;
}

std::string FcatName(unsigned lambda) {
  return "FCAT-" + std::to_string(lambda);
}

// "@label" marks a faulted run in the protocol name; trace_inspect's
// replay factory parses the suffix back into the matching fault profile.
std::string FaultSuffix(const fault::FaultConfig& f) {
  return f.label.empty() ? std::string() : "@" + f.label;
}

}  // namespace

Fcat::Fcat(std::span<const TagId> population, anc::Pcg32 rng,
           const FcatOptions& options)
    : phy_(population,
           phy::IdealPhyConfig{options.lambda,
                               options.resolution_success_prob,
                               options.singleton_corrupt_prob},
           rng.Split()),
      engine_(FcatName(options.lambda) + FaultSuffix(options.fault),
              population, phy_, EngineConfig(options), rng) {}

void Fcat::SaveState(std::string* out) const {
  SaveIdealEngine(phy_, engine_, out);
}

bool Fcat::RestoreState(std::string_view bytes) {
  return RestoreIdealEngine(bytes, phy_, engine_);
}

CollisionAwareConfig Scat::BuildConfig(std::span<const TagId> population,
                                       anc::Pcg32& rng,
                                       const ScatOptions& options,
                                       sim::RunMetrics* prestep_metrics,
                                       double* assumed_total) {
  CollisionAwareConfig config = EngineConfig(options);
  if (!options.estimation_prestep) return config;

  estimate::ZeroEstimatorConfig est;
  est.rounds = options.prestep_rounds;
  anc::Pcg32 est_rng = rng.Split();
  const auto run =
      estimate::RunZeroEstimator(population.size(), est, est_rng);
  config.assumed_total = std::max(run.estimate, 1.0);
  *assumed_total = config.assumed_total;

  prestep_metrics->empty_slots = run.empty_slots;
  prestep_metrics->singleton_slots = run.singleton_slots;
  prestep_metrics->collision_slots = run.collision_slots;
  // Estimation slots only need an empty/non-empty decision, but we charge
  // full report-segment air time: tags transmit their IDs as usual.
  prestep_metrics->elapsed_seconds =
      static_cast<double>(run.TotalSlots()) * options.timing.SlotSeconds();
  return config;
}

Scat::Scat(std::span<const TagId> population, anc::Pcg32 rng,
           const ScatOptions& options)
    : phy_(population,
           phy::IdealPhyConfig{options.lambda,
                               options.resolution_success_prob,
                               options.singleton_corrupt_prob},
           rng.Split()),
      engine_("SCAT-" + std::to_string(options.lambda) +
                  FaultSuffix(options.fault),
              population, phy_,
              BuildConfig(population, rng, options, &prestep_metrics_,
                          &assumed_total_),
              rng) {}

const sim::RunMetrics& Scat::metrics() const {
  merged_metrics_ = engine_.metrics();
  merged_metrics_.empty_slots += prestep_metrics_.empty_slots;
  merged_metrics_.singleton_slots += prestep_metrics_.singleton_slots;
  merged_metrics_.collision_slots += prestep_metrics_.collision_slots;
  merged_metrics_.elapsed_seconds += prestep_metrics_.elapsed_seconds;
  return merged_metrics_;
}

void Scat::SaveState(std::string* out) const {
  SaveIdealEngine(phy_, engine_, out);
}

bool Scat::RestoreState(std::string_view bytes) {
  return RestoreIdealEngine(bytes, phy_, engine_);
}

FcatOnSignal::FcatOnSignal(std::span<const TagId> population, anc::Pcg32 rng,
                           const FcatSignalOptions& options)
    : phy_(population,
           [&] {
             phy::SignalPhyConfig cfg = options.signal;
             if (cfg.max_mixture == 0) cfg.max_mixture = options.lambda;
             return cfg;
           }(),
           rng.Split()),
      engine_(FcatName(options.lambda) + "-signal" +
                  FaultSuffix(options.fault),
              population, phy_, EngineConfig(options), rng) {}

}  // namespace anc::core

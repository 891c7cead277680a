// FCAT — Framed Collision-Aware Tag identification (Section V), the
// paper's main protocol — and SCAT (Section IV), its per-slot-advertised
// precursor. Both bundle the shared engine with a phy:
//
//   Fcat / Scat        — run over IdealPhy (the paper's simulation model).
//   FcatOnSignal       — the identical protocol logic over full MSK
//                        waveform simulation (SignalPhy).
//
// FCAT-lambda in the paper's tables is Fcat with options.lambda = lambda.
// FCAT removes SCAT's three inefficiencies (Section V-A): it advertises
// the report probability once per frame instead of per slot, acknowledges
// IDs resolved from collision records by their 23-bit slot index instead
// of the full 96-bit ID, and replaces the estimation pre-step with the
// Eq. 12 embedded estimator fed by each frame's collision count. The
// probability rides the advertisement as an l_bits-quantized threshold
// (tags compare H(ID|i) <= floor(p_i 2^l), Section IV-B); omega = 0 in
// the options selects the optimal (lambda!)^{1/lambda} of Section IV-D.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "common/serialize.h"
#include "core/config.h"
#include "core/engine.h"
#include "phy/ideal_phy.h"
#include "phy/signal_phy.h"

namespace anc::core {

struct FcatOptions {
  unsigned lambda = 2;
  std::uint64_t frame_size = 30;
  double omega = 0.0;  // 0 => (lambda!)^{1/lambda}
  int l_bits = 24;
  bool hash_mode = false;
  bool oracle_termination = false;
  int empty_probe_threshold = 8;
  double initial_estimate = 0.0;
  std::size_t estimator_window = 48;  // 0 = all-frame average
  // Channel imperfections (Section IV-E ablations). Acknowledgement loss
  // is modeled by fault.ack_loss (Gilbert-Elliott; error_good = p with
  // p_good_to_bad = 0 reproduces flat Bernoulli loss).
  double resolution_success_prob = 1.0;
  double singleton_corrupt_prob = 0.0;
  // Fault injection (src/fault). Default-constructed = everything off; a
  // labelled config suffixes the protocol name ("FCAT-2@chaos") so trace
  // replay can rebuild the fault schedule from the run header.
  fault::FaultConfig fault{};
  phy::TimingModel timing{};
};

class Fcat final : public sim::Protocol {
 public:
  Fcat(std::span<const TagId> population, anc::Pcg32 rng,
       const FcatOptions& options);

  void Step() override { engine_.Step(); }
  bool Finished() const override { return engine_.Finished(); }
  std::string_view name() const override { return engine_.name(); }
  const sim::RunMetrics& metrics() const override {
    return engine_.metrics();
  }
  std::span<const TagId> LearnedThisStep() const override {
    return engine_.LearnedThisStep();
  }
  std::span<const TagId> InjectKnownId(const TagId& id) override {
    return engine_.InjectKnownId(id);
  }
  void AttachTrace(const trace::TraceContext& context) override {
    engine_.AttachTrace(context);
  }
  std::size_t OpenPhyRecords() const override {
    return engine_.OpenPhyRecords();
  }
  void Shutdown() override { engine_.Shutdown(); }
  bool SupportsChurn() const override { return true; }
  bool ArriveTag(const TagId& id) override { return engine_.ArriveTag(id); }
  bool DepartTag(const TagId& id) override { return engine_.DepartTag(id); }
  bool BeginInventoryRound(bool refresh) override {
    return engine_.BeginInventoryRound(refresh);
  }
  const CollisionAwareEngine& engine() const { return engine_; }
  const phy::IdealPhy& ideal_phy() const { return phy_; }

  // Checkpoint hooks (sim::Protocol): the phy record store and the engine
  // state as two length-prefixed blobs, then the blob format (absent in
  // checkpoint-v1 blobs); the options (and the whole construction path)
  // are rederived by the factory before restore.
  bool SupportsCheckpoint() const override { return true; }
  void SaveState(std::string* out) const override;
  bool RestoreState(std::string_view bytes) override;

 private:
  phy::IdealPhy phy_;
  CollisionAwareEngine engine_;
};

struct ScatOptions {
  unsigned lambda = 2;
  double omega = 0.0;
  int l_bits = 24;
  bool hash_mode = false;
  bool oracle_termination = false;
  int empty_probe_threshold = 8;
  double resolution_success_prob = 1.0;
  double singleton_corrupt_prob = 0.0;
  fault::FaultConfig fault{};
  // Run the Section IV-C estimation pre-step explicitly (Kodialam-style
  // zero estimator) instead of assuming a free, perfect estimate of N.
  // Its air time and slot counts are merged into the protocol metrics.
  bool estimation_prestep = false;
  int prestep_rounds = 16;
  phy::TimingModel timing{};
};

class Scat final : public sim::Protocol {
 public:
  Scat(std::span<const TagId> population, anc::Pcg32 rng,
       const ScatOptions& options);

  void Step() override { engine_.Step(); }
  bool Finished() const override { return engine_.Finished(); }
  std::string_view name() const override { return engine_.name(); }
  const sim::RunMetrics& metrics() const override;
  std::span<const TagId> LearnedThisStep() const override {
    return engine_.LearnedThisStep();
  }
  std::span<const TagId> InjectKnownId(const TagId& id) override {
    return engine_.InjectKnownId(id);
  }
  void AttachTrace(const trace::TraceContext& context) override {
    engine_.AttachTrace(context);
  }
  std::size_t OpenPhyRecords() const override {
    return engine_.OpenPhyRecords();
  }
  void Shutdown() override { engine_.Shutdown(); }
  bool SupportsChurn() const override { return true; }
  bool ArriveTag(const TagId& id) override { return engine_.ArriveTag(id); }
  bool DepartTag(const TagId& id) override { return engine_.DepartTag(id); }
  bool BeginInventoryRound(bool refresh) override {
    return engine_.BeginInventoryRound(refresh);
  }
  const CollisionAwareEngine& engine() const { return engine_; }
  // The pre-step's estimate of N (population size when disabled).
  double assumed_total() const { return assumed_total_; }

  // Checkpoint hooks: same blob layout as Fcat. The estimation pre-step
  // runs at construction from the same seed, so its metrics and
  // assumed_total are rederived, not serialized.
  bool SupportsCheckpoint() const override { return true; }
  void SaveState(std::string* out) const override;
  bool RestoreState(std::string_view bytes) override;

 private:
  static CollisionAwareConfig BuildConfig(std::span<const TagId> population,
                                          anc::Pcg32& rng,
                                          const ScatOptions& options,
                                          sim::RunMetrics* prestep_metrics,
                                          double* assumed_total);

  sim::RunMetrics prestep_metrics_;
  double assumed_total_ = 0.0;
  phy::IdealPhy phy_;
  CollisionAwareEngine engine_;
  mutable sim::RunMetrics merged_metrics_;
};

struct FcatSignalOptions {
  unsigned lambda = 2;  // planning parameter (omega) and decoder cap
  std::uint64_t frame_size = 30;
  double omega = 0.0;
  int l_bits = 24;
  bool oracle_termination = false;
  int empty_probe_threshold = 8;
  fault::FaultConfig fault{};
  phy::SignalPhyConfig signal{};
  phy::TimingModel timing{};
};

class FcatOnSignal final : public sim::Protocol {
 public:
  FcatOnSignal(std::span<const TagId> population, anc::Pcg32 rng,
               const FcatSignalOptions& options);

  void Step() override { engine_.Step(); }
  bool Finished() const override { return engine_.Finished(); }
  std::string_view name() const override { return engine_.name(); }
  const sim::RunMetrics& metrics() const override {
    return engine_.metrics();
  }
  std::span<const TagId> LearnedThisStep() const override {
    return engine_.LearnedThisStep();
  }
  std::span<const TagId> InjectKnownId(const TagId& id) override {
    return engine_.InjectKnownId(id);
  }
  void AttachTrace(const trace::TraceContext& context) override {
    engine_.AttachTrace(context);
  }
  std::size_t OpenPhyRecords() const override {
    return engine_.OpenPhyRecords();
  }
  void Shutdown() override { engine_.Shutdown(); }
  bool SupportsChurn() const override { return true; }
  bool ArriveTag(const TagId& id) override { return engine_.ArriveTag(id); }
  bool DepartTag(const TagId& id) override { return engine_.DepartTag(id); }
  bool BeginInventoryRound(bool refresh) override {
    return engine_.BeginInventoryRound(refresh);
  }
  const phy::SignalPhy& signal_phy() const { return phy_; }

 private:
  phy::SignalPhy phy_;
  CollisionAwareEngine engine_;
};

}  // namespace anc::core

#include "timed.h"

#include <algorithm>

#include "phy/ideal_phy.h"
#include "phy/signal_phy.h"

namespace perfbench {

using anc::sim::Protocol;

// ---- TimedSink -------------------------------------------------------------

TimedSink::TimedSink(anc::trace::TraceSink* inner, Tracer* tracer,
                     LayerCounters* counters)
    : inner_(inner),
      tracer_(tracer),
      counters_(counters),
      span_(tracer->Intern("store.add")) {}

void TimedSink::BeginRun(const anc::trace::RunHeader& header) {
  Scope s(tracer_, span_);
  inner_->BeginRun(header);
}

void TimedSink::OnEvent(const anc::trace::TraceEvent& event) {
  Scope s(tracer_, span_);
  ++counters_->sink_events;
  inner_->OnEvent(event);
}

void TimedSink::EndRun() {
  Scope s(tracer_, span_);
  inner_->EndRun();
}

// ---- TimedPhy --------------------------------------------------------------

TimedPhy::TimedPhy(anc::phy::PhyInterface& inner, Tracer* tracer,
                   LayerCounters* counters)
    : inner_(inner),
      tracer_(tracer),
      counters_(counters),
      observe_span_(tracer->Intern("phy.observe")),
      resolve_span_(tracer->Intern("phy.resolve")),
      release_span_(tracer->Intern("phy.release")) {}

void TimedPhy::ObserveBatch(const anc::phy::SlotBatch& batch,
                            std::span<anc::phy::SlotObservation> out) {
  {
    Scope s(tracer_, observe_span_);
    inner_.ObserveBatch(batch, out);
  }
  counters_->observed_slots += batch.slots();
  counters_->open_records_peak =
      std::max<std::uint64_t>(counters_->open_records_peak,
                              inner_.OpenRecords());
}

void TimedPhy::TryResolveBatch(
    std::span<const anc::phy::ResolveRequest> requests,
    std::span<std::optional<anc::TagId>> out) {
  {
    Scope s(tracer_, resolve_span_);
    inner_.TryResolveBatch(requests, out);
  }
  counters_->resolve_requests += requests.size();
  for (const auto& id : out) counters_->resolve_successes += id.has_value();
}

void TimedPhy::ReleaseRecord(anc::phy::RecordHandle record) {
  Scope s(tracer_, release_span_);
  inner_.ReleaseRecord(record);
}

// ---- TimedProtocol ---------------------------------------------------------

TimedProtocol::TimedProtocol(std::unique_ptr<Protocol> inner, Tracer* tracer,
                             LayerCounters* counters,
                             const TimedProtocolSpans& spans)
    : inner_(std::move(inner)),
      tracer_(tracer),
      counters_(counters),
      time_sink_(spans.time_sink),
      step_span_(tracer->Intern(spans.step)),
      churn_span_(tracer->Intern("protocol.churn")),
      rearm_span_(tracer->Intern("protocol.rearm")),
      save_span_(tracer->Intern("checkpoint.save")) {}

void TimedProtocol::Step() {
  tracer_->CloseWindow();
  Scope s(tracer_, step_span_);
  inner_->Step();
}

void TimedProtocol::AttachTrace(const anc::trace::TraceContext& context) {
  if (time_sink_ && context.sink != nullptr) {
    sink_ = std::make_unique<TimedSink>(context.sink, tracer_, counters_);
    inner_->AttachTrace(anc::trace::TraceContext{sink_.get(), context.reader});
    return;
  }
  inner_->AttachTrace(context);
}

std::span<const anc::TagId> TimedProtocol::InjectKnownId(
    const anc::TagId& id) {
  tracer_->CloseWindow();
  Scope s(tracer_, step_span_);
  return inner_->InjectKnownId(id);
}

bool TimedProtocol::ArriveTag(const anc::TagId& id) {
  tracer_->CloseWindow();
  Scope s(tracer_, churn_span_);
  ++counters_->churn_calls;
  return inner_->ArriveTag(id);
}

bool TimedProtocol::DepartTag(const anc::TagId& id) {
  tracer_->CloseWindow();
  Scope s(tracer_, churn_span_);
  ++counters_->churn_calls;
  return inner_->DepartTag(id);
}

bool TimedProtocol::BeginInventoryRound(bool refresh) {
  tracer_->CloseWindow();
  Scope s(tracer_, rearm_span_);
  ++counters_->rearm_calls;
  return inner_->BeginInventoryRound(refresh);
}

void TimedProtocol::Shutdown() {
  tracer_->CloseWindow();
  Scope s(tracer_, step_span_);
  inner_->Shutdown();
}

void TimedProtocol::SaveState(std::string* out) const {
  const std::size_t before = out->size();
  {
    Scope s(tracer_, save_span_);
    inner_->SaveState(out);
  }
  ++counters_->saves;
  counters_->save_bytes_max = std::max<std::uint64_t>(
      counters_->save_bytes_max, out->size() - before);
}

// ---- BenchFcat -------------------------------------------------------------
//
// The engine configs below mirror core/fcat.cpp's EngineConfig overloads
// field for field; the self-test fails if they ever drift apart.

namespace {

anc::core::CollisionAwareConfig EngineConfigFor(
    const anc::core::FcatOptions& o) {
  anc::core::CollisionAwareConfig c;
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

anc::core::CollisionAwareConfig EngineConfigFor(
    const anc::core::FcatSignalOptions& o) {
  anc::core::CollisionAwareConfig c;
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

std::string FaultSuffix(const anc::fault::FaultConfig& f) {
  return f.label.empty() ? std::string() : "@" + f.label;
}

}  // namespace

BenchFcat::BenchFcat(std::span<const anc::TagId> population, anc::Pcg32 rng,
                     const anc::core::FcatOptions& options, Tracer* tracer,
                     LayerCounters* counters) {
  phy_ = std::make_unique<anc::phy::IdealPhy>(
      population,
      anc::phy::IdealPhyConfig{options.lambda,
                               options.resolution_success_prob,
                               options.singleton_corrupt_prob},
      rng.Split());
  anc::phy::PhyInterface* phy = phy_.get();
  if (tracer != nullptr) {
    timed_phy_ = std::make_unique<TimedPhy>(*phy_, tracer, counters);
    phy = timed_phy_.get();
  }
  engine_ = std::make_unique<anc::core::CollisionAwareEngine>(
      "FCAT-" + std::to_string(options.lambda) + FaultSuffix(options.fault),
      population, *phy, EngineConfigFor(options), rng);
}

BenchFcat::BenchFcat(std::span<const anc::TagId> population, anc::Pcg32 rng,
                     const anc::core::FcatSignalOptions& options,
                     Tracer* tracer, LayerCounters* counters) {
  anc::phy::SignalPhyConfig cfg = options.signal;
  if (cfg.max_mixture == 0) cfg.max_mixture = options.lambda;
  phy_ = std::make_unique<anc::phy::SignalPhy>(population, cfg, rng.Split());
  anc::phy::PhyInterface* phy = phy_.get();
  if (tracer != nullptr) {
    timed_phy_ = std::make_unique<TimedPhy>(*phy_, tracer, counters);
    phy = timed_phy_.get();
  }
  engine_ = std::make_unique<anc::core::CollisionAwareEngine>(
      "FCAT-" + std::to_string(options.lambda) + "-signal" +
          FaultSuffix(options.fault),
      population, *phy, EngineConfigFor(options), rng);
}

anc::sim::ProtocolFactory MakeBenchFcatFactory(anc::core::FcatOptions options,
                                               Tracer* tracer,
                                               LayerCounters* counters) {
  return [options, tracer, counters](std::span<const anc::TagId> population,
                                     anc::Pcg32 rng) {
    return std::make_unique<BenchFcat>(population, rng, options, tracer,
                                       counters);
  };
}

anc::sim::ProtocolFactory MakeBenchFcatSignalFactory(
    anc::core::FcatSignalOptions options, Tracer* tracer,
    LayerCounters* counters) {
  return [options, tracer, counters](std::span<const anc::TagId> population,
                                     anc::Pcg32 rng) {
    return std::make_unique<BenchFcat>(population, rng, options, tracer,
                                       counters);
  };
}

anc::sim::ProtocolFactory MakeTimedFactory(anc::sim::ProtocolFactory inner,
                                           Tracer* tracer,
                                           LayerCounters* counters,
                                           TimedProtocolSpans spans) {
  return [inner = std::move(inner), tracer, counters, spans](
             std::span<const anc::TagId> population, anc::Pcg32 rng)
             -> std::unique_ptr<Protocol> {
    return std::make_unique<TimedProtocol>(inner(population, rng), tracer,
                                           counters, spans);
  };
}

}  // namespace perfbench

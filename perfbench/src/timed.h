// Transparent timing decorators for the traced run.
//
// Each decorator forwards every virtual of the interface it wraps, in the
// same order and with the same arguments, and adds only clock reads and
// counters. The benchmark's self-test proves transparency: identical
// RunMetrics and identical trace bytes with and without the decorators.
//
//   TimedProtocol — wraps any sim::Protocol (a factory output).
//   TimedPhy      — wraps a phy::PhyInterface (IdealPhy or SignalPhy).
//   TimedSink     — wraps a trace::TraceSink (the store's file sink).
//
// TimedPhy can only sit under an engine the benchmark assembles itself
// (BenchFcat), because core::Fcat owns its phy privately. BenchFcat builds
// the same engine config, name and RNG split order as core::Fcat /
// core::FcatOnSignal; the self-test proves the two metric-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/engine.h"
#include "core/fcat.h"
#include "phy/phy.h"
#include "sim/protocol.h"
#include "sim/runner.h"
#include "span.h"
#include "trace/sink.h"

namespace perfbench {

// Counts gathered by the decorators (shared by every decorated instance of
// one traced run).
struct LayerCounters {
  std::uint64_t churn_calls = 0;     // ArriveTag + DepartTag
  std::uint64_t rearm_calls = 0;     // BeginInventoryRound
  std::uint64_t saves = 0;           // protocol SaveState (checkpoint cuts)
  std::uint64_t save_bytes_max = 0;  // largest protocol checkpoint blob
  std::uint64_t observed_slots = 0;  // slots through TimedPhy::ObserveBatch
  std::uint64_t resolve_requests = 0;
  std::uint64_t resolve_successes = 0;
  std::uint64_t open_records_peak = 0;
  std::uint64_t sink_events = 0;     // events through TimedSink
};

class TimedSink final : public anc::trace::TraceSink {
 public:
  TimedSink(anc::trace::TraceSink* inner, Tracer* tracer,
            LayerCounters* counters);
  void BeginRun(const anc::trace::RunHeader& header) override;
  void OnEvent(const anc::trace::TraceEvent& event) override;
  void EndRun() override;

 private:
  anc::trace::TraceSink* inner_;
  Tracer* tracer_;
  LayerCounters* counters_;
  int span_;
};

class TimedPhy final : public anc::phy::PhyInterface {
 public:
  TimedPhy(anc::phy::PhyInterface& inner, Tracer* tracer,
           LayerCounters* counters);
  void ObserveBatch(const anc::phy::SlotBatch& batch,
                    std::span<anc::phy::SlotObservation> out) override;
  void TryResolveBatch(std::span<const anc::phy::ResolveRequest> requests,
                       std::span<std::optional<anc::TagId>> out) override;
  void ReleaseRecord(anc::phy::RecordHandle record) override;
  std::size_t OpenRecords() const override { return inner_.OpenRecords(); }

 private:
  anc::phy::PhyInterface& inner_;
  Tracer* tracer_;
  LayerCounters* counters_;
  int observe_span_, resolve_span_, release_span_;
};

// Options for TimedProtocol's hook spans.
struct TimedProtocolSpans {
  std::string step;  // span for Step() and InjectKnownId()
  // When set, AttachTrace interposes a TimedSink on the context's sink.
  bool time_sink = false;
};

class TimedProtocol final : public anc::sim::Protocol {
 public:
  TimedProtocol(std::unique_ptr<anc::sim::Protocol> inner, Tracer* tracer,
                LayerCounters* counters, const TimedProtocolSpans& spans);

  std::string_view name() const override { return inner_->name(); }
  void Step() override;
  bool Finished() const override { return inner_->Finished(); }
  const anc::sim::RunMetrics& metrics() const override {
    return inner_->metrics();
  }
  void AttachTrace(const anc::trace::TraceContext& context) override;
  std::span<const anc::TagId> LearnedThisStep() const override {
    return inner_->LearnedThisStep();
  }
  std::span<const anc::TagId> InjectKnownId(const anc::TagId& id) override;
  bool SupportsChurn() const override { return inner_->SupportsChurn(); }
  bool ArriveTag(const anc::TagId& id) override;
  bool DepartTag(const anc::TagId& id) override;
  bool BeginInventoryRound(bool refresh) override;
  std::size_t OpenPhyRecords() const override {
    return inner_->OpenPhyRecords();
  }
  void Shutdown() override;
  bool SupportsCheckpoint() const override {
    return inner_->SupportsCheckpoint();
  }
  void SaveState(std::string* out) const override;
  bool RestoreState(std::string_view bytes) override {
    return inner_->RestoreState(bytes);
  }

 private:
  std::unique_ptr<anc::sim::Protocol> inner_;
  Tracer* tracer_;
  LayerCounters* counters_;
  bool time_sink_;
  std::unique_ptr<TimedSink> sink_;
  int step_span_, churn_span_, rearm_span_, save_span_;
};

// FCAT's engine over a caller-chosen phy: the IdealPhy or SignalPhy is
// built exactly as core::Fcat / core::FcatOnSignal build theirs, then
// (optionally) wrapped in TimedPhy before the engine sees it.
class BenchFcat final : public anc::sim::Protocol {
 public:
  BenchFcat(std::span<const anc::TagId> population, anc::Pcg32 rng,
            const anc::core::FcatOptions& options, Tracer* tracer,
            LayerCounters* counters);
  BenchFcat(std::span<const anc::TagId> population, anc::Pcg32 rng,
            const anc::core::FcatSignalOptions& options, Tracer* tracer,
            LayerCounters* counters);

  std::string_view name() const override { return engine_->name(); }
  void Step() override { engine_->Step(); }
  bool Finished() const override { return engine_->Finished(); }
  const anc::sim::RunMetrics& metrics() const override {
    return engine_->metrics();
  }
  void AttachTrace(const anc::trace::TraceContext& context) override {
    engine_->AttachTrace(context);
  }
  std::span<const anc::TagId> LearnedThisStep() const override {
    return engine_->LearnedThisStep();
  }
  std::span<const anc::TagId> InjectKnownId(const anc::TagId& id) override {
    return engine_->InjectKnownId(id);
  }
  std::size_t OpenPhyRecords() const override {
    return engine_->OpenPhyRecords();
  }
  void Shutdown() override { engine_->Shutdown(); }
  bool SupportsChurn() const override { return true; }
  bool ArriveTag(const anc::TagId& id) override {
    return engine_->ArriveTag(id);
  }
  bool DepartTag(const anc::TagId& id) override {
    return engine_->DepartTag(id);
  }
  bool BeginInventoryRound(bool refresh) override {
    return engine_->BeginInventoryRound(refresh);
  }

 private:
  std::unique_ptr<anc::phy::PhyInterface> phy_;
  std::unique_ptr<TimedPhy> timed_phy_;
  std::unique_ptr<anc::core::CollisionAwareEngine> engine_;
};

// Factories for the decorated variants.
anc::sim::ProtocolFactory MakeBenchFcatFactory(anc::core::FcatOptions options,
                                               Tracer* tracer,
                                               LayerCounters* counters);
anc::sim::ProtocolFactory MakeBenchFcatSignalFactory(
    anc::core::FcatSignalOptions options, Tracer* tracer,
    LayerCounters* counters);
anc::sim::ProtocolFactory MakeTimedFactory(anc::sim::ProtocolFactory inner,
                                           Tracer* tracer,
                                           LayerCounters* counters,
                                           TimedProtocolSpans spans);

}  // namespace perfbench

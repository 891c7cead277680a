// Shared plumbing for the baseline anti-collision protocols the paper
// compares against (Section VI). Baselines are charged pure slot time —
// the paper's reported baseline throughputs equal
// N / (slot_count * 2.8 ms) exactly, confirming that accounting.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/tag_id.h"
#include "phy/timing.h"
#include "sim/metrics.h"
#include "sim/protocol.h"

namespace anc::protocols {

class BaselineBase : public sim::Protocol {
 public:
  BaselineBase(std::string_view name, std::span<const TagId> population,
               anc::Pcg32 rng, phy::TimingModel timing)
      : name_(name), population_(population), rng_(rng), timing_(timing) {}

  std::string_view name() const override { return name_; }
  const sim::RunMetrics& metrics() const override { return metrics_; }
  void AttachTrace(const trace::TraceContext& context) override {
    trace_ = context;
  }

 protected:
  // Each Charge* helper accounts one air slot and, when a trace sink is
  // attached, emits the corresponding kSlot event (responders = how many
  // tags transmitted, where the protocol knows it).
  void ChargeEmptySlot() {
    ++metrics_.empty_slots;
    metrics_.elapsed_seconds += timing_.SlotSeconds();
    EmitSlot(trace::SlotOutcome::kEmpty, 0);
  }
  void ChargeSingletonSlot() {
    ++metrics_.singleton_slots;
    ++metrics_.tags_read;
    ++metrics_.ids_from_singletons;
    metrics_.elapsed_seconds += timing_.SlotSeconds();
    EmitSlot(trace::SlotOutcome::kSingleton, 1);
  }
  void ChargeCollisionSlot(std::uint64_t responders = 2) {
    ++metrics_.collision_slots;
    metrics_.elapsed_seconds += timing_.SlotSeconds();
    EmitSlot(trace::SlotOutcome::kCollision, responders);
  }
  // Whole-frame SIC protocols (CRDSA, IRSA, seeded ALOHA) book their
  // reads when the buffered frame is decoded, so as the frame plays out a
  // slot only charges its air time and kSlot event.
  void ChargeBufferedSlot(std::size_t occupancy) {
    if (occupancy == 0) {
      ChargeEmptySlot();
    } else if (occupancy == 1) {
      ++metrics_.singleton_slots;
      metrics_.elapsed_seconds += timing_.SlotSeconds();
      EmitSlot(trace::SlotOutcome::kSingleton, 1);
    } else {
      ChargeCollisionSlot(occupancy);
    }
  }
  // Checkpoint plumbing shared by the checkpointable baselines: the
  // mutable base state is the RNG stream, the metrics and the global slot
  // counter (name/population/timing are construction-time).
  void SaveBaseState(std::string* out) const {
    anc::PutPcg32(*out, rng_);
    sim::PutRunMetrics(*out, metrics_);
    anc::ser::PutVarint(*out, slot_index_);
  }
  bool RestoreBaseState(anc::ser::Reader& r) {
    if (!anc::ReadPcg32(r, rng_)) return false;
    if (!sim::ReadRunMetrics(r, metrics_)) return false;
    slot_index_ = r.Varint();
    return r.ok;
  }

  void EmitSlot(trace::SlotOutcome outcome, std::uint64_t responders) {
    if (trace_) {
      trace::TraceEvent e;
      e.kind = trace::EventKind::kSlot;
      e.slot = slot_index_;
      e.frame = metrics_.frames;
      e.outcome = outcome;
      e.responders = responders;
      trace_.Emit(e);
    }
    ++slot_index_;
  }

  std::string_view name_;
  std::span<const TagId> population_;
  anc::Pcg32 rng_;
  phy::TimingModel timing_;
  sim::RunMetrics metrics_;
  trace::TraceContext trace_;
  std::uint64_t slot_index_ = 0;  // global slot counter across frames
};

}  // namespace anc::protocols

// Reader-to-reader interference scheduling for dense deployments (the
// regime of IE-RAP and Colorwave/DCS in PAPERS.md): two readers whose
// coverage disks overlap must not run the same slot, so the deployment
// advances on a global TDMA clock and a Scheduler picks, per slot, an
// independent set of the interference graph to activate.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "deploy/geometry.h"

namespace anc::deploy {

enum class SchedulerPolicy {
  kSequential,  // round-robin, one reader per slot (the trivially safe plan)
  kColoring,    // greedy graph-coloring TDMA: one color class per slot
  kColorwave,   // Colorwave/DCS-style randomized distributed coloring
};

std::string_view SchedulerPolicyName(SchedulerPolicy policy);

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string_view name() const = 0;

  // Advances the global TDMA clock by one slot: given which readers still
  // have work (`pending[r]`), returns the readers transmitting this slot.
  // The result is always an independent set of the interference graph —
  // scheduling correctness, asserted by tests for every policy. It views
  // scheduler-owned scratch, valid until the next NextSlot call, so a
  // steady-state slot allocates nothing.
  virtual std::span<const std::uint32_t> NextSlot(
      const std::vector<bool>& pending) = 0;

  // Checkpoint hooks (common/serialize.h wire format): the mutable
  // schedule cursor/frame state; the interference graph and policy are
  // reconstructed by the caller before restore. Pure so every policy
  // stays resumable by construction.
  virtual void SaveState(std::string* out) const = 0;
  virtual bool RestoreState(anc::ser::Reader& r) = 0;

 protected:
  std::vector<std::uint32_t> active_;  // NextSlot's result
};

// Greedy largest-degree-first proper coloring of the interference graph.
// Uses at most MaxDegree()+1 colors; exposed for the TDMA scheduler and
// for the property tests that assert the coloring is proper.
std::vector<std::uint32_t> GreedyColoring(const InterferenceGraph& graph);

std::unique_ptr<Scheduler> MakeScheduler(SchedulerPolicy policy,
                                         const InterferenceGraph& graph,
                                         anc::Pcg32 rng);

}  // namespace anc::deploy

// Contention Resolution Diversity Slotted ALOHA (Casini, De Gaudenzi &
// Herrero, IEEE Trans. Wireless Comm. 2007) — the satellite-access
// collision-resolution scheme the paper's Section III-C points to as the
// other published use of signal cancellation for random access.
//
// Each unread tag transmits its ID *twice*, in two distinct random slots
// of the frame; each copy points at its twin. The reader decodes
// singleton slots, then iteratively cancels decoded tags' twin copies
// from the stored slot signals, which can expose further singletons —
// interference cancellation instead of ANC's last-constituent recovery.
// Peak throughput ~0.55 IDs/slot at channel load ~0.65, versus 1/e for
// plain framed ALOHA; the price is every tag transmitting twice
// (double energy — relevant for battery-powered tags).
//
// Included as a baseline to position FCAT against the nearest published
// cancellation-based protocol under identical timing.
#pragma once

#include <vector>

#include "protocols/baseline_base.h"
#include "protocols/sic.h"

namespace anc::protocols {

struct CrdsaConfig {
  // Copies per tag per frame (2 = classic CRDSA; 3 = CRDSA-3).
  int copies = 2;
  // Frame sizing: slots = backlog / target_load.
  double target_load = 0.65;
  std::uint64_t min_frame_size = 8;
  std::uint64_t max_frame_size = 1u << 15;
  // Cap on interference-cancellation sweeps per frame (the stopping-set
  // escape hatch; practical receivers bound iterations similarly).
  int max_ic_iterations = 50;
};

class Crdsa final : public BaselineBase {
 public:
  Crdsa(std::span<const TagId> population, anc::Pcg32 rng,
        phy::TimingModel timing, CrdsaConfig config = {});

  void Step() override;
  bool Finished() const override { return finished_; }

 private:
  void StartFrame();
  void RunInterferenceCancellation();

  CrdsaConfig config_;
  std::vector<std::uint32_t> unread_;
  std::vector<bool> read_;

  // Current frame.
  std::uint64_t frame_size_ = 0;
  std::uint64_t slot_cursor_ = 0;
  std::uint64_t frame_transmissions_ = 0;
  std::vector<std::vector<std::uint32_t>> slot_tags_;  // on-air occupancy
  PeelingDecoder sic_;
  bool finished_ = false;
};

}  // namespace anc::protocols

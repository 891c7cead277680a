#include "protocols/irsa.h"

#include <algorithm>

namespace anc::protocols {

Irsa::Irsa(std::span<const TagId> population, anc::Pcg32 rng,
           phy::TimingModel timing, IrsaConfig config)
    : CodedFrameProtocol("IRSA", population, rng, timing, config),
      config_(config) {}

void Irsa::PlaceReplicas(std::uint32_t tag) {
  // Sample the replica degree from Λ, then pick that many distinct slots
  // (rejection sampling; degrees are tiny against the frame).
  const int degree =
      std::min<int>(config_.degrees.Sample(rng_),
                    static_cast<int>(std::min<std::uint64_t>(frame_size_, 16)));
  std::uint32_t chosen[16];
  int picked = 0;
  while (picked < degree) {
    const std::uint32_t slot =
        rng_.UniformBelow(static_cast<std::uint32_t>(frame_size_));
    bool duplicate = false;
    for (int i = 0; i < picked; ++i) duplicate |= chosen[i] == slot;
    if (duplicate) continue;
    chosen[picked++] = slot;
    Place(tag, slot);
  }
}

}  // namespace anc::protocols

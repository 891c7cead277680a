// Irregular Repetition Slotted ALOHA (Liva, IEEE Trans. Comm. 2011) —
// the modern generalization of CRDSA the coded-slotted-ALOHA literature
// is built on.
//
// Each unread tag samples a replica degree d from a distribution Λ(x)
// (see protocols/degree_dist.h for the math and the density-evolution
// threshold G*) and transmits d copies of its report in d distinct slots
// of the frame, each copy carrying pointers to its twins. The reader
// buffers the whole frame and runs iterative successive interference
// cancellation: decode singletons, cancel their twin copies from the
// stored slot signals, repeat until a stopping set survives. With the
// optimized Λ(x) = 0.5x^2 + 0.28x^3 + 0.22x^8 the asymptotic threshold is
// G* ≈ 0.938 tags/slot — within 7% of the G = 1 packing bound and far
// beyond both CRDSA-2 (finite-frame peak ~0.55) and the 1/e ≈ 0.368
// ALOHA wall the source paper's Section III frames FCAT against.
//
// Relation to the engine machinery: IRSA's SIC sweep is the same
// last-constituent recovery the CollisionAwareEngine's ANC cascade
// performs (a slot with one un-cancelled constituent yields that
// constituent), but applied frame-at-a-time over an idealized
// cancellation channel with no mixture-order cap — the λ ≤ 4 bound that
// applies to FCAT's analog subtraction is assumed away, exactly as in
// the CRDSA baseline (protocols/crdsa.h).
#pragma once

#include "protocols/coded_frame.h"
#include "protocols/degree_dist.h"

namespace anc::protocols {

struct IrsaConfig : FrameRule {
  // Replica-degree distribution Λ(x); FrameRule's default offered load
  // sits at this default's density-evolution threshold.
  DegreeDistribution degrees = DegreeDistribution::IrsaOptimal();
};

// Frame lifecycle, churn and checkpoint hooks: CodedFrameProtocol.
class Irsa final : public CodedFrameProtocol {
 public:
  Irsa(std::span<const TagId> population, anc::Pcg32 rng,
       phy::TimingModel timing, IrsaConfig config = {});

 private:
  void PlaceReplicas(std::uint32_t tag) override;

  IrsaConfig config_;
};

}  // namespace anc::protocols

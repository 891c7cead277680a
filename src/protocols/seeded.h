// Seeded pseudo-random ALOHA with cross-frame ANC recovery — the
// Ricciato & Castiglione trick ("Pseudo-random Aloha for Enhanced
// Collision-recovery in RFID", IEEE Wireless Comm. Letters 2013) hybridized
// with the source paper's collision-record cascade.
//
// In IRSA the reader only learns a collision slot's constituents when
// replica pointers are recovered by cancellation. Here every tag derives
// its whole replica pattern (degree + slot choices) from a *seed* carried
// in a short, robustly-coded header of each burst: the reader decodes the
// headers even in collisions, regenerates each seed's pattern, and
// therefore knows **every record's constituents at open time** — the ANC
// cascade starts warm. Two consequences this implementation models:
//
//   1. Within a frame, SIC needs no pointer recovery (same decode set as
//      IRSA, reached in fewer real-world iterations — not modelled).
//   2. Unresolved collision slots stay *open across frames* as collision
//      records, exactly like the source paper's FCAT store: when a
//      constituent is finally read in a later frame, it is cancelled out
//      of every stored record it touches, and records reaching one
//      unknown constituent yield that tag by subtraction — IDs recovered
//      without any retransmission. This is what puts the hybrid at or
//      above plain IRSA at every load (asserted by tests and
//      bench_coded).
//
// Tag-side draws and reader-side regeneration share one pure function,
// DeriveSeededPattern() — a SplitMix64 counter chain over
// (tag digest, run salt, frame index) — so determinism is structural:
// the pattern depends only on those inputs, never on RNG consumption
// order or thread scheduling (test: SeededPattern.RegenerationMatches).
//
// Like CRDSA/IRSA, cancellation is idealized (no mixture-order cap λ,
// no subtraction noise); see protocols/crdsa.h for the rationale.
#pragma once

#include <cstdint>
#include <vector>

#include "protocols/coded_frame.h"
#include "protocols/degree_dist.h"

namespace anc::protocols {

// Replica pattern of one tag in one frame, derived from the seed both
// sides share. `slots` holds `degree` distinct slot indices.
struct SeededPattern {
  static constexpr int kMaxDegree = 16;
  int degree = 0;
  std::uint32_t slots[kMaxDegree] = {};
};

// The shared tag/reader pattern derivation: pure in its arguments.
SeededPattern DeriveSeededPattern(std::uint64_t tag_digest,
                                  std::uint64_t run_salt,
                                  std::uint64_t frame_index,
                                  std::uint64_t frame_size,
                                  const DegreeDistribution& degrees);

struct SeededConfig : FrameRule {
  DegreeDistribution degrees = DegreeDistribution::IrsaOptimal();
  // Cap on collision records kept open across frames (0 = unbounded).
  // Overflow drops the oldest record (counted in records_evicted).
  std::size_t store_capacity = 0;
};

// Frame lifecycle, churn and checkpoint hooks: CodedFrameProtocol. A
// departed tag's contributions to *stored* cross-frame records survive,
// so a record can still resolve to a tag that already left the field —
// the ghost-read path the service layer measures. A checkpoint appends
// the record store to the frame state; run_salt_ is rederived at
// construction (drawn before any other use of the stream) and then
// confirmed by the restored RNG state.
class SeededAloha final : public CodedFrameProtocol {
 public:
  SeededAloha(std::span<const TagId> population, anc::Pcg32 rng,
              phy::TimingModel timing, SeededConfig config = {});

  // Stored cross-frame collision records; 0 after every completed run
  // (cleared at termination, counted into unresolved_records).
  std::size_t OpenPhyRecords() const override { return records_.size(); }
  void Shutdown() override { records_.clear(); }

 private:
  struct StoredRecord {
    std::uint64_t id = 0;  // monotonically increasing, for trace events
    std::vector<std::uint32_t> constituents;  // still-unread tags only
  };

  void PlaceReplicas(std::uint32_t tag) override;
  void AddStoredLists() override;
  void EmitStoredRead(std::uint32_t tag, std::size_t index) override;
  void AfterDecode() override;
  void SaveStore(std::string* out) const override;
  void RestoreStore(anc::ser::Reader& r) override;

  SeededConfig config_;
  std::uint64_t run_salt_ = 0;
  std::vector<StoredRecord> records_;  // open cross-frame records (FIFO)
  std::uint64_t next_record_id_ = 0;
};

}  // namespace anc::protocols

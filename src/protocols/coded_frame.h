// The frame machinery IRSA and seeded ALOHA share: each frame, every
// unread tag places replicas in the buffered frame; at the frame boundary
// the reader peels the whole frame with the shared PeelingDecoder
// (protocols/sic.h), books the reads and re-targets the next frame to
// backlog / target_load. Subclasses choose where replicas go and may add
// stored lists (seeded ALOHA's cross-frame records) to the decode.
//
// Churn and checkpoint hooks live here too. A tag arriving mid-frame
// missed the frame advertisement and joins at the next frame; a tag
// departing mid-frame keeps the replicas it already transmitted (the
// reader buffered those signals) but its not-yet-transmitted replicas
// vanish. A checkpoint carries the base state plus the whole current
// frame (occupancy per slot included), so a mid-frame cut resumes with
// the buffered signals intact.
#pragma once

#include <vector>

#include "common/digest_index.h"
#include "protocols/baseline_base.h"
#include "protocols/sic.h"

namespace anc::protocols {

struct FrameRule {
  // Frame sizing: slots = backlog / target_load (offered load G in
  // tags/slot), clamped.
  double target_load = 0.9;
  std::uint64_t min_frame_size = 8;
  std::uint64_t max_frame_size = 1u << 15;
  // Cap on SIC sweeps per frame (stopping-set escape hatch).
  int max_ic_iterations = 50;
};

class CodedFrameProtocol : public BaselineBase {
 public:
  CodedFrameProtocol(std::string_view name,
                     std::span<const TagId> population, anc::Pcg32 rng,
                     phy::TimingModel timing, FrameRule rule);

  void Step() override;
  bool Finished() const override { return finished_; }

  bool SupportsChurn() const override { return true; }
  bool ArriveTag(const TagId& id) override;
  bool DepartTag(const TagId& id) override;
  bool BeginInventoryRound(bool refresh) override;
  std::span<const TagId> LearnedThisStep() const override {
    return learned_this_step_;
  }

  bool SupportsCheckpoint() const override { return true; }
  void SaveState(std::string* out) const override;
  bool RestoreState(std::string_view bytes) override;

 protected:
  // Adds `tag`'s replicas for the current frame (metrics_.frames is
  // already its index) to slot_tags_, counting each transmission.
  virtual void PlaceReplicas(std::uint32_t tag) = 0;
  // Stored lists decoded with the frame, appended after its slots.
  virtual void AddStoredLists() {}
  // A tag read from stored list `index`; called only when tracing.
  virtual void EmitStoredRead(std::uint32_t /*tag*/,
                              std::size_t /*index*/) {}
  // Runs after the reads are booked, with sic_ still holding the residuals.
  virtual void AfterDecode() {}
  // Subclass state appended to / read after the frame state.
  virtual void SaveStore(std::string* /*out*/) const {}
  virtual void RestoreStore(anc::ser::Reader& /*r*/) {}

  void Place(std::uint32_t tag, std::uint32_t slot) {
    slot_tags_[slot].push_back(tag);
    ++metrics_.tag_transmissions;
  }

  std::uint64_t frame_size_ = 0;
  std::uint64_t slot_cursor_ = 0;
  std::vector<std::vector<std::uint32_t>> slot_tags_;  // on-air occupancy
  PeelingDecoder sic_;  // decode scratch, reused across frames

 private:
  void StartFrame();
  void DecodeFrame();  // SIC over the buffered frame, at the frame boundary
  // Recomputes unread_ = {present && !read} in index order — identical to
  // the erase-based maintenance for a closed population, so RNG draw
  // order (and golden traces) are unchanged.
  void RebuildUnread();

  FrameRule rule_;
  std::vector<std::uint32_t> unread_;
  std::vector<bool> read_;
  std::vector<bool> present_;
  DigestIndex digest_to_index_;

  // The first Step() of each frame builds it (deferred from the previous
  // boundary so churn applied between frames lands before the tags
  // commit their replica patterns).
  std::uint64_t frame_transmissions_ = 0;
  bool needs_frame_ = true;
  bool finished_ = false;
  std::vector<TagId> learned_this_step_;
};

}  // namespace anc::protocols

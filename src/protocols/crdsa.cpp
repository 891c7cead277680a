#include "protocols/crdsa.h"

#include <algorithm>
#include <cmath>

namespace anc::protocols {

Crdsa::Crdsa(std::span<const TagId> population, anc::Pcg32 rng,
             phy::TimingModel timing, CrdsaConfig config)
    : BaselineBase("CRDSA", population, rng, timing),
      config_(config),
      read_(population.size(), false) {
  unread_.resize(population.size());
  for (std::uint32_t i = 0; i < population.size(); ++i) unread_[i] = i;
  StartFrame();
}

void Crdsa::StartFrame() {
  ++metrics_.frames;
  const auto backlog = static_cast<double>(unread_.size());
  frame_size_ = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::llround(backlog / config_.target_load)),
      config_.min_frame_size, config_.max_frame_size);

  slot_cursor_ = 0;
  frame_transmissions_ = 0;
  slot_tags_.assign(frame_size_, {});
  for (std::uint32_t tag : unread_) {
    // `copies` distinct slots per tag (rejection sampling; copies is tiny
    // against the frame).
    std::uint32_t chosen[8];
    int picked = 0;
    while (picked < config_.copies &&
           picked < static_cast<int>(frame_size_)) {
      const std::uint32_t slot =
          rng_.UniformBelow(static_cast<std::uint32_t>(frame_size_));
      bool duplicate = false;
      for (int i = 0; i < picked; ++i) duplicate |= chosen[i] == slot;
      if (duplicate) continue;
      chosen[picked++] = slot;
      slot_tags_[slot].push_back(tag);
      ++metrics_.tag_transmissions;
    }
    ++frame_transmissions_;
  }

  RunInterferenceCancellation();
}

void Crdsa::RunInterferenceCancellation() {
  // The receiver stores the whole frame, decodes clean singletons, then
  // cancels each decoded tag's twin copies, possibly exposing new
  // singletons, until only a stopping set survives.
  sic_.Reset(read_.size());
  for (const auto& tags : slot_tags_) sic_.AddList(tags);
  // Book the reads now; Step() charges slot time as the frame plays out.
  for (const auto& [tag, slot] : sic_.Decode(
           static_cast<std::int64_t>(config_.max_ic_iterations) *
           static_cast<std::int64_t>(frame_size_))) {
    read_[tag] = true;
    ++metrics_.tags_read;
    if (slot_tags_[slot].size() == 1) {
      ++metrics_.ids_from_singletons;
    } else {
      ++metrics_.ids_from_collisions;
    }
  }
}

void Crdsa::Step() {
  if (finished_) return;

  ChargeBufferedSlot(slot_tags_[slot_cursor_].size());
  ++slot_cursor_;

  if (slot_cursor_ < frame_size_) return;

  if (frame_transmissions_ == 0) {
    finished_ = true;
    return;
  }
  unread_.erase(std::remove_if(unread_.begin(), unread_.end(),
                               [&](std::uint32_t t) { return read_[t]; }),
                unread_.end());
  StartFrame();
}

}  // namespace anc::protocols

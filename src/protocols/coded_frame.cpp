#include "protocols/coded_frame.h"

#include <algorithm>
#include <cmath>

namespace anc::protocols {

CodedFrameProtocol::CodedFrameProtocol(std::string_view name,
                                       std::span<const TagId> population,
                                       anc::Pcg32 rng,
                                       phy::TimingModel timing,
                                       FrameRule rule)
    : BaselineBase(name, population, rng, timing),
      rule_(rule),
      read_(population.size(), false),
      present_(population.size(), true) {
  digest_to_index_.Reserve(population.size());
  for (std::uint32_t i = 0; i < population.size(); ++i) {
    digest_to_index_.Insert(population[i].Digest(), i);
  }
}

void CodedFrameProtocol::RebuildUnread() {
  unread_.clear();
  for (std::uint32_t i = 0;
       i < static_cast<std::uint32_t>(population_.size()); ++i) {
    if (present_[i] && !read_[i]) unread_.push_back(i);
  }
}

bool CodedFrameProtocol::ArriveTag(const TagId& id) {
  const std::uint32_t tag = digest_to_index_.Find(id.Digest());
  if (tag == DigestIndex::kNone) return false;
  present_[tag] = true;
  return true;
}

bool CodedFrameProtocol::DepartTag(const TagId& id) {
  const std::uint32_t tag = digest_to_index_.Find(id.Digest());
  if (tag == DigestIndex::kNone) return false;
  present_[tag] = false;
  // Replicas already on the air stay buffered at the reader; the ones the
  // tag would have transmitted in the remainder of the frame vanish.
  for (std::uint64_t s = slot_cursor_; s < frame_size_; ++s) {
    auto& tags = slot_tags_[s];
    tags.erase(std::remove(tags.begin(), tags.end(), tag), tags.end());
  }
  return true;
}

bool CodedFrameProtocol::BeginInventoryRound(bool refresh) {
  finished_ = false;
  if (refresh) {
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(population_.size()); ++i) {
      if (present_[i]) read_[i] = false;
    }
  }
  needs_frame_ = true;
  return true;
}

void CodedFrameProtocol::StartFrame() {
  ++metrics_.frames;
  const auto backlog = static_cast<double>(unread_.size());
  frame_size_ = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::llround(backlog / rule_.target_load)),
      rule_.min_frame_size, rule_.max_frame_size);

  slot_cursor_ = 0;
  frame_transmissions_ = 0;
  slot_tags_.assign(frame_size_, {});
  for (std::uint32_t tag : unread_) {
    PlaceReplicas(tag);
    ++frame_transmissions_;
  }
}

void CodedFrameProtocol::DecodeFrame() {
  // Whole-frame SIC: decode singletons, cancel every copy of a decoded
  // tag from the buffered lists, repeat until a stopping set survives. A
  // read whose slot was a singleton on air is attributed to singletons,
  // the rest to collision recovery (as CRDSA attributes them).
  sic_.Reset(read_.size());
  for (const auto& tags : slot_tags_) sic_.AddList(tags);
  AddStoredLists();
  for (const auto& [tag, list] :
       sic_.Decode(static_cast<std::int64_t>(rule_.max_ic_iterations) *
                   static_cast<std::int64_t>(sic_.lists()))) {
    const bool stored = list >= frame_size_;
    const bool from_singleton = !stored && slot_tags_[list].size() == 1;
    read_[tag] = true;
    learned_this_step_.push_back(population_[tag]);
    ++metrics_.tags_read;
    if (from_singleton) {
      ++metrics_.ids_from_singletons;
    } else {
      ++metrics_.ids_from_collisions;
    }
    if (trace_) {
      if (stored) EmitStoredRead(tag, list - frame_size_);
      trace::TraceEvent e;
      e.kind = trace::EventKind::kAck;
      e.slot = slot_index_;
      e.frame = metrics_.frames;
      e.ack = from_singleton ? trace::AckKind::kSingletonId
                             : trace::AckKind::kSlotIndex;
      e.id_digest = population_[tag].Digest();
      trace_.Emit(e);
    }
  }
  AfterDecode();
}

void CodedFrameProtocol::Step() {
  if (finished_) return;
  learned_this_step_.clear();
  if (needs_frame_) {
    RebuildUnread();
    StartFrame();
    needs_frame_ = false;
  }

  ChargeBufferedSlot(slot_tags_[slot_cursor_].size());
  ++slot_cursor_;

  if (slot_cursor_ < frame_size_) return;

  // Frame boundary: the reader has the whole frame buffered — decode.
  if (frame_transmissions_ > 0) DecodeFrame();
  if (trace_) {
    std::uint64_t n_c = 0;
    for (const auto& tags : slot_tags_) n_c += tags.size() >= 2 ? 1 : 0;
    trace::TraceEvent e;
    e.kind = trace::EventKind::kFrame;
    e.slot = slot_index_;
    e.frame = metrics_.frames;
    e.n_c = n_c;
    e.record = OpenPhyRecords();  // stored-record occupancy
    e.estimate_q8 =
        trace::QuantizeEstimate(static_cast<double>(unread_.size()));
    e.elapsed_us = trace::QuantizeSeconds(metrics_.elapsed_seconds);
    trace_.Emit(e);
  }
  if (frame_transmissions_ == 0) {
    // Stored records only hold unread constituents, so a drained
    // population has already emptied them; anything left (livelock-capped
    // run) is released and reported as unresolved.
    metrics_.unresolved_records += OpenPhyRecords();
    Shutdown();
    finished_ = true;
    return;
  }
  // The next frame is built on that frame's first Step() so churn applied
  // at the boundary is visible to it (RebuildUnread + StartFrame there).
  needs_frame_ = true;
}

void CodedFrameProtocol::SaveState(std::string* out) const {
  SaveBaseState(out);
  ser::PutVarint(*out, unread_.size());
  for (std::uint32_t tag : unread_) ser::PutVarint(*out, tag);
  ser::PutVarint(*out, read_.size());
  for (bool b : read_) ser::PutBool(*out, b);
  for (bool b : present_) ser::PutBool(*out, b);
  ser::PutVarint(*out, frame_size_);
  ser::PutVarint(*out, slot_cursor_);
  ser::PutVarint(*out, frame_transmissions_);
  ser::PutVarint(*out, slot_tags_.size());
  for (const auto& slot : slot_tags_) {
    ser::PutVarint(*out, slot.size());
    for (std::uint32_t tag : slot) ser::PutVarint(*out, tag);
  }
  ser::PutBool(*out, needs_frame_);
  ser::PutBool(*out, finished_);
  SaveStore(out);
}

bool CodedFrameProtocol::RestoreState(std::string_view bytes) {
  ser::Reader r{bytes};
  if (!RestoreBaseState(r)) return false;
  unread_.assign(static_cast<std::size_t>(r.Varint()), 0);
  for (std::uint32_t& tag : unread_) {
    tag = static_cast<std::uint32_t>(r.Varint());
  }
  if (static_cast<std::size_t>(r.Varint()) != read_.size()) return false;
  for (std::size_t i = 0; i < read_.size(); ++i) read_[i] = r.Bool();
  for (std::size_t i = 0; i < present_.size(); ++i) present_[i] = r.Bool();
  frame_size_ = r.Varint();
  slot_cursor_ = r.Varint();
  frame_transmissions_ = r.Varint();
  slot_tags_.assign(static_cast<std::size_t>(r.Varint()), {});
  for (auto& slot : slot_tags_) {
    slot.assign(static_cast<std::size_t>(r.Varint()), 0);
    for (std::uint32_t& tag : slot) {
      tag = static_cast<std::uint32_t>(r.Varint());
    }
  }
  needs_frame_ = r.Bool();
  finished_ = r.Bool();
  RestoreStore(r);
  learned_this_step_.clear();
  return r.ok && r.AtEnd();
}

}  // namespace anc::protocols

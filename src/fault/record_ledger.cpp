#include "fault/record_ledger.h"

#include <algorithm>

namespace anc::fault {

void RecordLedger::Tick(std::uint64_t slot, std::uint64_t frame) {
  slot_ = slot;
  frame_ = frame;
  counters_->max_open_records =
      std::max<std::uint64_t>(counters_->max_open_records, open_.size());
}

phy::RecordHandle RecordLedger::Open(phy::RecordHandle handle,
                                     std::size_t k) {
  Meta& m = metas_.Ensure(handle);
  m = Meta{};
  m.open = true;
  m.opened_slot = slot_;
  m.opened_frame = frame_;
  m.last_progress_slot = slot_;
  m.k = static_cast<std::uint32_t>(k);
  open_.push_back(handle);
  ++counters_->records_opened;
  if (policy_.capacity == 0 || open_.size() <= policy_.capacity) {
    return phy::kInvalidRecord;
  }
  return PickVictim();
}

phy::RecordHandle RecordLedger::PickVictim() {
  if (open_.empty()) return phy::kInvalidRecord;
  switch (policy_.eviction) {
    case EvictionPolicy::kRandom:
      return open_[rng_->UniformBelow(
          static_cast<std::uint32_t>(open_.size()))];
    case EvictionPolicy::kOldestFirst:
      // open_ is kept in insertion order, so FIFO is the front.
      return open_.front();
    case EvictionPolicy::kLruProgress:
    case EvictionPolicy::kLargestK:
      break;
  }
  phy::RecordHandle victim = open_.front();
  for (phy::RecordHandle h : open_) {
    const Meta& m = *metas_.Find(h);
    const Meta& best = *metas_.Find(victim);
    if (policy_.eviction == EvictionPolicy::kLruProgress) {
      // Least-recently-progressed; older record breaks ties (both
      // deterministic: one record opens per slot, so opened_slot is
      // unique among open records).
      if (m.last_progress_slot < best.last_progress_slot ||
          (m.last_progress_slot == best.last_progress_slot &&
           m.opened_slot < best.opened_slot)) {
        victim = h;
      }
    } else {  // kLargestK
      if (m.k > best.k ||
          (m.k == best.k && m.opened_slot < best.opened_slot)) {
        victim = h;
      }
    }
  }
  return victim;
}

void RecordLedger::OnProgress(phy::RecordHandle handle) {
  Meta* m = metas_.Find(handle);
  if (m != nullptr && m->open) m->last_progress_slot = slot_;
}

bool RecordLedger::OnResolveFailed(phy::RecordHandle handle) {
  Meta* m = metas_.Find(handle);
  if (m == nullptr || !m->open) return false;
  ++m->resolve_failures;
  return policy_.max_resolve_failures > 0 &&
         m->resolve_failures > policy_.max_resolve_failures;
}

phy::RecordHandle RecordLedger::CorruptOldest() {
  for (phy::RecordHandle h : open_) {
    Meta& m = *metas_.Find(h);
    if (m.corrupt) continue;
    m.corrupt = true;
    ++counters_->records_corrupted;
    return h;
  }
  return phy::kInvalidRecord;
}

bool RecordLedger::IsCorrupt(phy::RecordHandle handle) const {
  const Meta* m = metas_.Find(handle);
  return m != nullptr && m->open && m->corrupt;
}

void RecordLedger::Close(phy::RecordHandle handle, CloseReason reason) {
  Meta* m = metas_.Find(handle);
  if (m == nullptr || !m->open) return;
  m->open = false;
  open_.erase(std::find(open_.begin(), open_.end(), handle));
  if (open_.empty()) metas_.Compact();
  switch (reason) {
    case CloseReason::kResolved: ++counters_->records_resolved; break;
    case CloseReason::kEvicted: ++counters_->records_evicted; break;
    case CloseReason::kAbandonedRetry:
      ++counters_->records_abandoned_retry;
      break;
    case CloseReason::kAbandonedTtl:
      ++counters_->records_abandoned_ttl;
      break;
    case CloseReason::kCrashDropped:
      ++counters_->records_dropped_on_crash;
      break;
    case CloseReason::kReleasedAtEnd:
      ++counters_->records_released_at_end;
      break;
  }
}

void RecordLedger::ExpireTtl(
    std::vector<phy::RecordHandle>* expired) const {
  if (policy_.max_open_frames == 0) return;
  for (phy::RecordHandle h : open_) {
    if (frame_ - metas_.Find(h)->opened_frame > policy_.max_open_frames) {
      expired->push_back(h);
    }
  }
}

void RecordLedger::SaveState(std::string* out) const {
  ser::PutVarint(*out, slot_);
  ser::PutVarint(*out, frame_);
  metas_.Save(out, [](std::string& o, const Meta& m) {
    ser::PutVarint(o, m.opened_slot);
    ser::PutVarint(o, m.opened_frame);
    ser::PutVarint(o, m.last_progress_slot);
    ser::PutVarint(o, m.k);
    ser::PutVarint(o, m.resolve_failures);
    ser::PutBool(o, m.open);
    ser::PutBool(o, m.corrupt);
  });
  ser::PutVarint(*out, open_.size());
  for (phy::RecordHandle h : open_) ser::PutVarint(*out, h.index());
}

bool RecordLedger::RestoreState(ser::Reader& r, ser::BlobFormat format) {
  slot_ = r.Varint();
  frame_ = r.Varint();
  const bool window_ok =
      metas_.Restore(r, format, [](ser::Reader& in, Meta& m) {
        m.opened_slot = in.Varint();
        m.opened_frame = in.Varint();
        m.last_progress_slot = in.Varint();
        m.k = static_cast<std::uint32_t>(in.Varint());
        m.resolve_failures = static_cast<std::uint32_t>(in.Varint());
        m.open = in.Bool();
        m.corrupt = in.Bool();
      });
  if (!window_ok) return false;
  const std::uint64_t n_open = r.Varint();
  if (!r.ok || n_open > metas_.size()) return false;
  open_.assign(static_cast<std::size_t>(n_open), phy::RecordHandle{});
  for (phy::RecordHandle& h : open_) {
    h = phy::RecordHandle(static_cast<std::uint32_t>(r.Varint()));
    const Meta* m = metas_.Find(h);
    if (m == nullptr || !m->open) return false;
  }
  // The FIFO list must hold one entry per open record, each naming an
  // open one.
  std::size_t open = 0;
  for (const Meta& m : metas_.entries()) open += m.open ? 1 : 0;
  return r.ok && open == open_.size();
}

}  // namespace anc::fault

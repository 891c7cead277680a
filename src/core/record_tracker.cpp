#include "core/record_tracker.h"

#include <algorithm>
#include <utility>

namespace anc::core {

RecordTracker::RecordTracker(std::size_t n_tags)
    : chain_head_(n_tags, kNil), chain_tail_(n_tags, kNil) {}

void RecordTracker::PushKnown(RecordState& state, std::uint32_t tag) {
  // The capacity bound keeps a duplicate feed (a tag re-learned through
  // two paths) from spilling into the next record's arena slice; a record
  // saturated with duplicates simply never satisfies the phy's
  // knowns == constituents - 1 resolve condition, exactly as the
  // unbounded per-record vector behaved.
  if (state.knowns_len < state.knowns_cap) {
    knowns_arena_[state.knowns_offset + state.knowns_len] = tag;
    ++state.knowns_len;
  }
}

phy::RecordHandle RecordTracker::Register(
    phy::RecordHandle handle, std::span<const std::uint32_t> participants) {
  RecordState& state = records_.Ensure(handle);
  state.open = true;
  state.knowns_offset = static_cast<std::uint32_t>(knowns_arena_.size());
  state.knowns_len = 0;
  state.knowns_cap = static_cast<std::uint32_t>(participants.size());
  knowns_arena_.resize(knowns_arena_.size() + participants.size());
  ++open_records_;
  // OnIdKnown's scratch (and its output) holds at most one entry per open
  // record. Sizing it here, when the open count sets a new peak, keeps the
  // cascade from growing it at the extreme of one tag's chain length.
  if (open_records_ > pending_scratch_.capacity()) {
    const std::size_t capacity = 2 * open_records_;
    pending_scratch_.reserve(capacity);
    requests_scratch_.reserve(capacity);
    results_scratch_.reserve(capacity);
  }
  for (std::uint32_t tag : participants) {
    const auto node = static_cast<std::uint32_t>(chain_nodes_.size());
    chain_nodes_.push_back({handle, kNil});
    if (chain_head_[tag] == kNil) {
      chain_head_[tag] = node;
    } else {
      chain_nodes_[chain_tail_[tag]].next = node;
    }
    chain_tail_[tag] = node;
  }
  if (ledger_ == nullptr) return phy::kInvalidRecord;
  return ledger_->Open(handle, participants.size());
}

void RecordTracker::CloseResolved(phy::RecordHandle handle,
                                  RecordState& state,
                                  phy::PhyInterface& phy) {
  state.open = false;
  --open_records_;
  phy.ReleaseRecord(handle);
  if (ledger_ != nullptr) {
    ledger_->Close(handle, fault::RecordLedger::CloseReason::kResolved);
  }
}

void RecordTracker::OnResolveMiss(phy::RecordHandle handle,
                                  RecordState& state,
                                  phy::PhyInterface& phy) {
  if (ledger_ == nullptr) return;
  if (ledger_->OnResolveFailed(handle)) {
    // Retry budget spent: drop the record here and now. The engine picks
    // the handle up through TakeRetryAbandoned() for tracing/metrics.
    state.open = false;
    --open_records_;
    phy.ReleaseRecord(handle);
    ledger_->Close(handle, fault::RecordLedger::CloseReason::kAbandonedRetry);
    retry_abandoned_.push_back(handle);
  }
}

std::optional<RecordTracker::Resolution> RecordTracker::AddKnownParticipant(
    phy::RecordHandle handle, std::uint32_t tag, phy::PhyInterface& phy) {
  RecordState* found = records_.Find(handle);
  if (found == nullptr || !found->open) return std::nullopt;
  RecordState& state = *found;
  PushKnown(state, tag);
  if (ledger_ != nullptr) ledger_->OnProgress(handle);
  std::optional<TagId> id;
  if (ledger_ == nullptr || !ledger_->IsCorrupt(handle)) {
    // A bit-rotted record fails its CRC check at resolve time regardless
    // of how many constituents are known, so it never reaches the phy.
    const phy::ResolveRequest request{handle, KnownsOf(state)};
    std::optional<TagId> result;
    phy.TryResolveBatch({&request, 1}, {&result, 1});
    id = result;
  }
  if (id) {
    CloseResolved(handle, state, phy);
    return Resolution{*id, handle};
  }
  OnResolveMiss(handle, state, phy);
  return std::nullopt;
}

void RecordTracker::OnIdKnown(std::uint32_t tag, phy::PhyInterface& phy,
                              std::vector<Resolution>* out) {
  out->clear();
  out->reserve(pending_scratch_.capacity());  // grows only with Register's
  requests_scratch_.clear();
  pending_scratch_.clear();
  // Pass 1: feed the known into every open record the tag transmitted in
  // and collect the resolve attempts. Records the ledger marked corrupt
  // still count the miss against their retry budget but never reach the
  // phy. The known slices live in knowns_arena_, which cannot reallocate
  // here (every record's capacity was reserved at Register), so the
  // request spans stay valid across the batch call.
  for (std::uint32_t node = chain_head_[tag]; node != kNil;
       node = chain_nodes_[node].next) {
    const phy::RecordHandle handle = chain_nodes_[node].record;
    RecordState& state = *records_.Find(handle);
    if (!state.open) continue;
    PushKnown(state, tag);
    if (ledger_ != nullptr) ledger_->OnProgress(handle);
    const bool corrupt = ledger_ != nullptr && ledger_->IsCorrupt(handle);
    pending_scratch_.push_back({handle, corrupt});
    if (!corrupt) {
      requests_scratch_.push_back({handle, KnownsOf(state)});
    }
  }
  if (!requests_scratch_.empty()) {
    results_scratch_.resize(requests_scratch_.size());
    phy.TryResolveBatch(requests_scratch_, results_scratch_);
  }
  // Pass 2: fold the results back in record order. Batching is
  // equivalent to the old record-at-a-time loop because resolving one
  // record never changes another's known set — the tag being learned
  // here is the only new information, and it was fed to all of them
  // before any attempt.
  std::size_t ri = 0;
  for (const Pending& pending : pending_scratch_) {
    std::optional<TagId> id;
    if (!pending.corrupt) id = results_scratch_[ri++];
    RecordState& state = *records_.Find(pending.handle);
    if (id) {
      CloseResolved(pending.handle, state, phy);
      out->push_back({*id, pending.handle});
    } else {
      OnResolveMiss(pending.handle, state, phy);
    }
  }
}

void RecordTracker::Abandon(phy::RecordHandle handle, phy::PhyInterface& phy,
                            fault::RecordLedger::CloseReason reason) {
  RecordState* state = records_.Find(handle);
  if (state == nullptr || !state->open) return;
  state->open = false;
  --open_records_;
  phy.ReleaseRecord(handle);
  if (ledger_ != nullptr) ledger_->Close(handle, reason);
}

std::size_t RecordTracker::ReleaseAll(
    phy::PhyInterface& phy, fault::RecordLedger::CloseReason reason) {
  std::size_t released = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (!records_.entries()[i].open) continue;
    Abandon(records_.HandleAt(i), phy, reason);
    ++released;
  }
  // Nothing is open now, so no chain can lead to a live record: drop the
  // window, the known slices and the chains wholesale.
  records_.Compact();
  knowns_arena_.clear();
  chain_nodes_.clear();
  std::fill(chain_head_.begin(), chain_head_.end(), kNil);
  std::fill(chain_tail_.begin(), chain_tail_.end(), kNil);
  return released;
}

std::vector<phy::RecordHandle> RecordTracker::TakeRetryAbandoned() {
  return std::exchange(retry_abandoned_, {});
}

void RecordTracker::SaveState(std::string* out) const {
  records_.Save(out, [](std::string& o, const RecordState& state) {
    ser::PutVarint(o, state.knowns_offset);
    ser::PutVarint(o, state.knowns_len);
    ser::PutVarint(o, state.knowns_cap);
    ser::PutBool(o, state.open);
  });
  ser::PutVarint(*out, knowns_arena_.size());
  for (std::uint32_t tag : knowns_arena_) ser::PutVarint(*out, tag);
  ser::PutVarint(*out, chain_nodes_.size());
  for (const ChainNode& node : chain_nodes_) {
    ser::PutVarint(*out, node.record.index());
    ser::PutVarint(*out, node.next);
  }
  ser::PutVarint(*out, chain_head_.size());
  for (std::uint32_t head : chain_head_) ser::PutVarint(*out, head);
  for (std::uint32_t tail : chain_tail_) ser::PutVarint(*out, tail);
  ser::PutVarint(*out, open_records_);
  ser::PutVarint(*out, retry_abandoned_.size());
  for (phy::RecordHandle h : retry_abandoned_) {
    ser::PutVarint(*out, h.index());
  }
}

bool RecordTracker::RestoreState(anc::ser::Reader& r,
                                 ser::BlobFormat format) {
  const bool window_ok =
      records_.Restore(r, format, [](ser::Reader& in, RecordState& state) {
        state.knowns_offset = static_cast<std::uint32_t>(in.Varint());
        state.knowns_len = static_cast<std::uint32_t>(in.Varint());
        state.knowns_cap = static_cast<std::uint32_t>(in.Varint());
        state.open = in.Bool();
      });
  const std::uint64_t n_knowns = r.Varint();
  if (!window_ok || !r.CanHold(n_knowns)) return false;
  knowns_arena_.assign(static_cast<std::size_t>(n_knowns), 0);
  for (std::uint32_t& tag : knowns_arena_) {
    tag = static_cast<std::uint32_t>(r.Varint());
  }
  const std::uint64_t n_nodes = r.Varint();
  if (!r.CanHold(n_nodes)) return false;
  chain_nodes_.assign(static_cast<std::size_t>(n_nodes), ChainNode{});
  for (ChainNode& node : chain_nodes_) {
    node.record = phy::RecordHandle(static_cast<std::uint32_t>(r.Varint()));
    node.next = static_cast<std::uint32_t>(r.Varint());
  }
  const auto n_tags = static_cast<std::size_t>(r.Varint());
  if (n_tags != chain_head_.size()) return false;  // population mismatch
  for (std::uint32_t& head : chain_head_) {
    head = static_cast<std::uint32_t>(r.Varint());
  }
  for (std::uint32_t& tail : chain_tail_) {
    tail = static_cast<std::uint32_t>(r.Varint());
  }
  open_records_ = static_cast<std::size_t>(r.Varint());
  const std::uint64_t n_retry = r.Varint();
  if (!r.CanHold(n_retry)) return false;
  retry_abandoned_.assign(static_cast<std::size_t>(n_retry),
                          phy::RecordHandle{});
  for (phy::RecordHandle& h : retry_abandoned_) {
    h = phy::RecordHandle(static_cast<std::uint32_t>(r.Varint()));
  }
  if (!r.ok) return false;

  // Every index must land inside its arena: chains link forward through
  // the node pool (nodes are appended, so a valid chain never points
  // back — which also rules out cycles), nodes name records of the
  // window, known slices sit inside the known arena and hold tags of the
  // population, and the open count agrees with the flags.
  const auto node_ok = [this](std::uint32_t node) {
    return node == kNil || node < chain_nodes_.size();
  };
  for (std::size_t i = 0; i < chain_nodes_.size(); ++i) {
    const ChainNode& node = chain_nodes_[i];
    const bool forward = node.next == kNil || node.next > i;
    if (!forward || !node_ok(node.next) ||
        records_.Find(node.record) == nullptr) {
      return false;
    }
  }
  for (std::size_t t = 0; t < chain_head_.size(); ++t) {
    if (!node_ok(chain_head_[t]) || !node_ok(chain_tail_[t])) return false;
  }
  for (std::uint32_t tag : knowns_arena_) {
    if (tag >= chain_head_.size()) return false;
  }
  std::size_t open = 0;
  for (const RecordState& state : records_.entries()) {
    if (state.knowns_len > state.knowns_cap ||
        std::uint64_t{state.knowns_offset} + state.knowns_cap >
            knowns_arena_.size()) {
      return false;
    }
    open += state.open ? 1 : 0;
  }
  return open == open_records_;
}

}  // namespace anc::core

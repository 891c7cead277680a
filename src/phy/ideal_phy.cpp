#include "phy/ideal_phy.h"

#include <algorithm>

namespace anc::phy {

IdealPhy::IdealPhy(std::span<const TagId> population, IdealPhyConfig config,
                   anc::Pcg32 rng)
    : population_(population), config_(config), rng_(rng) {}

void IdealPhy::ObserveBatch(const SlotBatch& batch,
                            std::span<SlotObservation> out) {
  for (std::size_t i = 0; i < batch.slots(); ++i) {
    const auto participants = batch.ParticipantsOf(i);
    SlotObservation& obs = out[i];
    obs = SlotObservation{};
    if (participants.empty()) {
      obs.type = SlotType::kEmpty;
      continue;
    }

    if (participants.size() == 1 &&
        rng_.UniformDouble() >= config_.singleton_corrupt_prob) {
      obs.type = SlotType::kSingleton;
      obs.singleton_id = population_[participants[0]];
      continue;
    }

    // Collision, or a singleton whose CRC failed: the reader can only
    // store the received signal as a collision record.
    obs.type = participants.size() == 1 ? SlotType::kSingleton
                                        : SlotType::kCollision;
    Record record;
    record.offset = static_cast<std::uint32_t>(participants_arena_.size());
    record.count = static_cast<std::uint32_t>(participants.size());
    record.open = true;
    // A corrupted singleton's stored signal is garbage: it can never be
    // resolved, only superseded when the tag retries.
    record.doomed = participants.size() == 1;
    participants_arena_.insert(participants_arena_.end(),
                               participants.begin(), participants.end());
    ++open_records_;
    obs.record = records_.Push(record);
  }
}

std::optional<TagId> IdealPhy::ResolveOne(const ResolveRequest& request) {
  Record* found = records_.Find(request.record);
  if (found == nullptr) return std::nullopt;
  Record& record = *found;
  if (!record.open || record.doomed) return std::nullopt;
  const std::size_t k = record.count;
  if (k > config_.lambda) return std::nullopt;
  if (request.known_participants.size() + 1 != k) return std::nullopt;

  if (rng_.UniformDouble() >= config_.resolution_success_prob) {
    // A noise-corrupted record never becomes resolvable (Section IV-E):
    // the slot is wasted, but the missing tag keeps transmitting and will
    // be learned elsewhere.
    record.doomed = true;
    return std::nullopt;
  }

  const auto participants = std::span<const std::uint32_t>(
      participants_arena_.data() + record.offset, record.count);
  const auto& knowns = request.known_participants;
  for (std::uint32_t tag : participants) {
    if (std::find(knowns.begin(), knowns.end(), tag) == knowns.end()) {
      return population_[tag];
    }
  }
  return std::nullopt;  // all constituents already known; nothing to gain
}

void IdealPhy::TryResolveBatch(std::span<const ResolveRequest> requests,
                               std::span<std::optional<TagId>> out) {
  // Sequential on purpose: the success-probability draws must consume the
  // RNG stream in request order for trace reproducibility.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    out[i] = ResolveOne(requests[i]);
  }
}

void IdealPhy::ReleaseRecord(RecordHandle handle) {
  Record* record = records_.Find(handle);
  if (record == nullptr || !record->open) return;
  record->open = false;
  if (--open_records_ == 0) {
    records_.Compact();
    participants_arena_.clear();
  }
}

void IdealPhy::SaveState(std::string* out) const {
  PutPcg32(*out, rng_);
  records_.Save(out, [](std::string& o, const Record& record) {
    ser::PutVarint(o, record.offset);
    ser::PutVarint(o, record.count);
    ser::PutBool(o, record.open);
    ser::PutBool(o, record.doomed);
  });
  ser::PutVarint(*out, participants_arena_.size());
  for (std::uint32_t tag : participants_arena_) ser::PutVarint(*out, tag);
  ser::PutVarint(*out, open_records_);
}

bool IdealPhy::RestoreState(anc::ser::Reader& r, ser::BlobFormat format) {
  if (!ReadPcg32(r, rng_)) return false;
  const bool window_ok =
      records_.Restore(r, format, [](ser::Reader& in, Record& record) {
        record.offset = static_cast<std::uint32_t>(in.Varint());
        record.count = static_cast<std::uint32_t>(in.Varint());
        record.open = in.Bool();
        record.doomed = in.Bool();
      });
  if (!window_ok) return false;
  const std::uint64_t arena_size = r.Varint();
  if (!r.CanHold(arena_size)) return false;
  participants_arena_.assign(static_cast<std::size_t>(arena_size), 0);
  for (std::uint32_t& tag : participants_arena_) {
    tag = static_cast<std::uint32_t>(r.Varint());
    if (tag >= population_.size()) return false;
  }
  open_records_ = static_cast<std::size_t>(r.Varint());
  // Every record must address its own participants, and the open count
  // must agree with the flags: a blob that fails either is malformed.
  std::size_t open = 0;
  for (const Record& record : records_.entries()) {
    if (std::uint64_t{record.offset} + record.count > arena_size) {
      return false;
    }
    open += record.open ? 1 : 0;
  }
  return r.ok && open == open_records_;
}

}  // namespace anc::phy

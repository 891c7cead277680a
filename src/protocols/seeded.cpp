#include "protocols/seeded.h"

#include <algorithm>

#include "common/hash.h"

namespace anc::protocols {

SeededPattern DeriveSeededPattern(std::uint64_t tag_digest,
                                  std::uint64_t run_salt,
                                  std::uint64_t frame_index,
                                  std::uint64_t frame_size,
                                  const DegreeDistribution& degrees) {
  SeededPattern p;
  if (frame_size == 0) return p;
  // The per-(tag, frame) seed the tag announces in its burst headers; the
  // whole pattern is a pure SplitMix64 counter chain over it.
  const std::uint64_t seed =
      SplitMix64(SplitMix64(tag_digest ^ run_salt) ^ frame_index);
  const int max_degree = static_cast<int>(std::min<std::uint64_t>(
      frame_size, static_cast<std::uint64_t>(SeededPattern::kMaxDegree)));
  p.degree =
      std::min(degrees.SampleFromUniform(SplitMix64(seed)), max_degree);
  std::uint64_t counter = seed;
  int picked = 0;
  while (picked < p.degree) {
    const auto slot = static_cast<std::uint32_t>(
        SplitMix64(++counter) % frame_size);  // 64-bit hash: bias < 2^-49
    bool duplicate = false;
    for (int i = 0; i < picked; ++i) duplicate |= p.slots[i] == slot;
    if (duplicate) continue;
    p.slots[picked++] = slot;
  }
  return p;
}

SeededAloha::SeededAloha(std::span<const TagId> population, anc::Pcg32 rng,
                         phy::TimingModel timing, SeededConfig config)
    : CodedFrameProtocol("SEEDED", population, rng, timing, config),
      config_(config) {
  // One salt per run, announced with the reader's frame advertisement;
  // drawn before any other use of the stream so the pattern inputs are a
  // fixed function of the run seed.
  const std::uint64_t hi = rng_();
  const std::uint64_t lo = rng_();
  run_salt_ = hi << 32 | lo;
}

void SeededAloha::PlaceReplicas(std::uint32_t tag) {
  const SeededPattern p =
      DeriveSeededPattern(population_[tag].Digest(), run_salt_,
                          metrics_.frames, frame_size_, config_.degrees);
  for (int i = 0; i < p.degree; ++i) Place(tag, p.slots[i]);
}

// Unified SIC over the current frame *and* the open cross-frame records.
// Every list's constituents are known up front (regenerated from the
// announced seeds), so a list reaching one unknown constituent yields
// that tag by subtraction — whether the list is a slot of this frame or a
// record stored many frames ago. Stored records enter each frame with
// >= 2 unknown constituents (the storage invariant below), so none start
// ready.
void SeededAloha::AddStoredLists() {
  for (const StoredRecord& record : records_) {
    sic_.AddList(record.constituents);
  }
}

void SeededAloha::EmitStoredRead(std::uint32_t tag, std::size_t index) {
  trace::TraceEvent r;
  r.kind = trace::EventKind::kRecordResolve;
  r.slot = slot_index_;
  r.frame = metrics_.frames;
  r.record = records_[index].id;
  r.id_digest = population_[tag].Digest();
  r.cascade = true;  // resolved by cross-frame cancellation
  trace_.Emit(r);
}

void SeededAloha::AfterDecode() {
  // Carry the cancellations into the store, then drop records that
  // resolved or emptied out (storage invariant: an open record keeps
  // >= 2 unknown constituents).
  for (std::size_t j = 0; j < records_.size(); ++j) {
    auto& constituents = records_[j].constituents;
    if (sic_.ResidualSize(frame_size_ + j) != constituents.size()) {
      sic_.CopyResidual(frame_size_ + j, &constituents);
    }
  }
  records_.erase(std::remove_if(records_.begin(), records_.end(),
                                [](const StoredRecord& r) {
                                  return r.constituents.size() < 2;
                                }),
                 records_.end());

  // This frame's surviving collision slots become open records: their
  // constituents are known (seed headers), so they may resolve later.
  for (std::uint64_t s = 0; s < frame_size_; ++s) {
    if (sic_.ResidualSize(s) < 2) continue;
    if (trace_) {
      trace::TraceEvent e;
      e.kind = trace::EventKind::kRecordOpen;
      e.slot = slot_index_ - frame_size_ + s;
      e.frame = metrics_.frames;
      e.record = next_record_id_;
      // No responders field: the wire format carries only the handle for
      // record_open; the slot's own kSlot event has the occupancy.
      trace_.Emit(e);
    }
    StoredRecord& record = records_.emplace_back();
    record.id = next_record_id_++;
    sic_.CopyResidual(s, &record.constituents);
  }
  if (config_.store_capacity > 0 &&
      records_.size() > config_.store_capacity) {
    // Oldest first: records_ is in opening order.
    const std::size_t excess = records_.size() - config_.store_capacity;
    records_.erase(records_.begin(),
                   records_.begin() + static_cast<std::ptrdiff_t>(excess));
    metrics_.records_evicted += excess;
  }
}

void SeededAloha::SaveStore(std::string* out) const {
  ser::PutVarint(*out, records_.size());
  for (const StoredRecord& record : records_) {
    ser::PutVarint(*out, record.id);
    ser::PutVarint(*out, record.constituents.size());
    for (std::uint32_t tag : record.constituents) {
      ser::PutVarint(*out, tag);
    }
  }
  ser::PutVarint(*out, next_record_id_);
}

void SeededAloha::RestoreStore(ser::Reader& r) {
  records_.assign(static_cast<std::size_t>(r.Varint()), StoredRecord{});
  for (StoredRecord& record : records_) {
    record.id = r.Varint();
    record.constituents.assign(static_cast<std::size_t>(r.Varint()), 0);
    for (std::uint32_t& tag : record.constituents) {
      tag = static_cast<std::uint32_t>(r.Varint());
    }
  }
  next_record_id_ = r.Varint();
}

}  // namespace anc::protocols

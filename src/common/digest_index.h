// DigestIndex: the one digest -> population-index table behind every tag-ID
// lookup (engine, deployment, coded frames, service, population builder).
//
// Every learned ID — read over the air, recovered from a collision record,
// or broadcast by a neighbouring reader — is mapped to its tag index before
// any record can be touched, so this lookup sits on the slot loop. A
// node-based hash map spends that lookup chasing pointers; this
// table is one flat vector of {digest, index + 1} slots at load factor
// <= 1/2, probed linearly from `digest & mask`. TagId::Digest() is
// SplitMix64 output, so its low bits are already uniform and need no
// further mixing.
//
// Semantics match the std::unordered_map::emplace/find pair it replaces:
// when two entries share a digest the first index inserted wins (Insert
// returns false and keeps the existing entry, as emplace does), and Find
// of an absent digest returns kNone. In practice a population's digests
// are unique: sim::MakePopulation draws until it has n distinct digests,
// rejecting any repeat. A default-constructed index is empty and
// allocates nothing until the first Insert or Reserve.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace anc {

class DigestIndex {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  DigestIndex() = default;

  // Sizes the table for `n` entries, so that many Inserts never rehash.
  void Reserve(std::size_t n) {
    std::size_t capacity = 16;
    while (capacity < 2 * n) capacity *= 2;
    if (capacity > slots_.size()) Rehash(capacity);
  }

  // Maps `digest` to `index` unless the digest is already present (then
  // the first index stays and this returns false).
  bool Insert(std::uint64_t digest, std::uint32_t index) {
    if (2 * (size_ + 1) > slots_.size()) Reserve(size_ + 1);
    Slot& slot = slots_[Probe(digest)];
    if (slot.index_plus_one != 0) return false;
    slot = {static_cast<std::uint32_t>(digest),
            static_cast<std::uint32_t>(digest >> 32), index + 1};
    ++size_;
    return true;
  }

  // The index inserted for `digest`, or kNone.
  std::uint32_t Find(std::uint64_t digest) const {
    if (slots_.empty()) return kNone;
    return slots_[Probe(digest)].index_plus_one - 1;  // empty: 0 - 1 == kNone
  }

  std::size_t size() const { return size_; }

 private:
  // Three 32-bit words, not a 64-bit digest beside a 32-bit index: 12
  // bytes a slot instead of 16 with padding.
  struct Slot {
    std::uint32_t digest_lo = 0;
    std::uint32_t digest_hi = 0;
    std::uint32_t index_plus_one = 0;  // 0 marks an empty slot
    std::uint64_t digest() const {
      return digest_lo | std::uint64_t{digest_hi} << 32;
    }
  };

  // Position of the slot holding `digest`, or of the empty slot that ends
  // its probe run. The load factor keeps slots empty, so the walk ends.
  std::size_t Probe(std::uint64_t digest) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(digest) & mask;
    while (slots_[i].index_plus_one != 0 && slots_[i].digest() != digest) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Rehash(std::size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.index_plus_one != 0) slots_[Probe(slot.digest())] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace anc

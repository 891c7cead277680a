// Slot taxonomy (Section III-A): empty, singleton, or k-collision.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/tag_id.h"

namespace anc::phy {

enum class SlotType { kEmpty, kSingleton, kCollision };

// Handle of a stored collision record (mixed signal + slot index).
//
// A strong opaque type: handles index arena-backed record stores, and an
// accidental integer conversion (handle used as a tag index, arithmetic on
// handles, comparing handles from different stores) is exactly the kind of
// bug an open-coded uint32 invites. The only escape hatch is index(),
// which trace serialization and the stores themselves use; the invalid
// handle's index is 0xFFFFFFFF, matching the historical wire encoding.
class RecordHandle {
 public:
  constexpr RecordHandle() = default;
  explicit constexpr RecordHandle(std::uint32_t index) : value_(index) {}

  [[nodiscard]] constexpr std::uint32_t index() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != kInvalid; }

  friend constexpr bool operator==(RecordHandle, RecordHandle) = default;

 private:
  static constexpr std::uint32_t kInvalid = ~std::uint32_t{0};
  std::uint32_t value_ = kInvalid;
};

inline constexpr RecordHandle kInvalidRecord{};

// A per-handle record arena that holds only the records issued since it
// last became empty. Handles are never reused: entry i belongs to handle
// base + i, and Compact() moves the base past every entry it drops. The
// owning store compacts only when none of its records is open, so a
// handle below the base always names a closed record, and callers treat
// Find()'s null exactly like a closed entry. Compact() keeps the
// entry capacity, so a store that cycles through compactions stops
// allocating once it has seen its peak window.
template <typename T>
class HandleWindow {
 public:
  // The entry for `handle`, or null outside the window (below the base, or
  // never issued). One unsigned compare covers both sides: handles never
  // reach base + size past 2^32 - 1, so a handle below the base wraps to
  // an offset >= size.
  [[nodiscard]] T* Find(RecordHandle handle) {
    const std::uint32_t i = handle.index() - base_;
    return i < entries_.size() ? &entries_[i] : nullptr;
  }
  [[nodiscard]] const T* Find(RecordHandle handle) const {
    const std::uint32_t i = handle.index() - base_;
    return i < entries_.size() ? &entries_[i] : nullptr;
  }

  // Appends the entry for the next handle, base + size, and returns it.
  RecordHandle Push(const T& entry) {
    entries_.push_back(entry);
    return HandleAt(entries_.size() - 1);
  }

  // The entry for `handle`, default-filling any gap before it. An empty
  // window first rebases to `handle`; otherwise `handle` must not be below
  // the base (stores see handles in issue order), and one that is throws
  // std::out_of_range instead of wrapping onto a live entry.
  T& Ensure(RecordHandle handle) {
    if (entries_.empty()) base_ = handle.index();
    if (handle.index() < base_) {
      throw std::out_of_range("HandleWindow::Ensure: handle below the base");
    }
    const std::size_t i = handle.index() - base_;
    if (i >= entries_.size()) entries_.resize(i + 1);
    return entries_[i];
  }

  // Drops every entry; the base moves past them.
  void Compact() {
    base_ += static_cast<std::uint32_t>(entries_.size());
    entries_.clear();
  }

  [[nodiscard]] RecordHandle HandleAt(std::size_t i) const {
    return RecordHandle(base_ + static_cast<std::uint32_t>(i));
  }
  // One past the last handle in the window.
  [[nodiscard]] RecordHandle End() const { return HandleAt(entries_.size()); }
  [[nodiscard]] std::span<T> entries() { return entries_; }
  [[nodiscard]] std::span<const T> entries() const { return entries_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  // Wire form: base, entry count, then `put(out, entry)` per entry.
  template <typename PutEntry>
  void Save(std::string* out, PutEntry put) const {
    ser::PutVarint(*out, base_);
    ser::PutVarint(*out, entries_.size());
    for (const T& entry : entries_) put(*out, entry);
  }

  // Inverse of Save, calling `read(r, entry)` per entry. A kV1 blob
  // predates windows: it stored the arena from handle 0 with no base,
  // which is exactly a window whose base is 0. Fails closed, before
  // allocating, on a window that would run into the invalid handle or
  // claims more entries than bytes remain.
  template <typename ReadEntry>
  bool Restore(ser::Reader& r, ser::BlobFormat format, ReadEntry read) {
    const std::uint64_t base =
        format == ser::BlobFormat::kV1 ? 0 : r.Varint();
    const std::uint64_t n = r.Varint();
    constexpr std::uint64_t kEnd = RecordHandle{}.index();
    if (!r.CanHold(n) || base > kEnd || n > kEnd - base) return false;
    base_ = static_cast<std::uint32_t>(base);
    entries_.assign(static_cast<std::size_t>(n), T{});
    for (T& entry : entries_) read(r, entry);
    return r.ok;
  }

 private:
  std::uint32_t base_ = 0;
  std::vector<T> entries_;
};

// What the reader observes in one report segment.
struct SlotObservation {
  SlotType type = SlotType::kEmpty;
  // Present when a singleton decoded cleanly (CRC verified).
  std::optional<TagId> singleton_id;
  // Present when a mixed/undecodable signal was recorded for later
  // resolution.
  RecordHandle record = kInvalidRecord;
};

}  // namespace anc::phy

// The peeling (iterative SIC) decoder CRDSA, IRSA and seeded ALOHA share:
// the source paper's collision-record idea run frame-at-a-time. A list
// holding one unknown constituent yields that tag, which is then
// subtracted from every other list it sits in.
//
// Lists are identified by insertion order: a frame's slots as [0, L),
// then (seeded ALOHA) stored records as L + j. Decode() indexes each
// tag's lists once, so cancelling a tag visits only its own lists:
// O(tags + lists + edges) per decode, an edge being one (tag, list)
// membership. The decode order is that of a scan-every-list loop: the
// FIFO ready queue starts with the singleton lists ascending, a decoded
// tag leaves its lists in ascending id order, removal keeps the order of
// the remaining constituents, and at most `max_iterations` queue pops are
// made. Precondition: a tag appears at most once in any one list.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace anc::protocols {

class PeelingDecoder {
 public:
  struct Read {
    std::uint32_t tag = 0;
    std::uint32_t list = 0;  // the list whose last unknown it was
  };

  // Starts a decode over tags [0, n_tags); scratch is reused.
  void Reset(std::size_t n_tags);
  void AddList(std::span<const std::uint32_t> tags);
  // Reads in decode order; valid until the next Reset().
  std::span<const Read> Decode(std::int64_t max_iterations);

  std::size_t lists() const { return list_offsets_.size() - 1; }
  std::size_t edges() const { return list_tags_.size(); }
  // A list's constituents still unknown after Decode(), in added order.
  std::size_t ResidualSize(std::size_t list) const { return live_[list]; }
  void CopyResidual(std::size_t list, std::vector<std::uint32_t>* out) const;
  // Memberships visited by cancellations since construction: never more
  // than the edges of the decodes run.
  std::uint64_t list_visits() const { return list_visits_; }

 private:
  struct Edge {
    std::uint32_t list = 0;
    std::uint32_t pos = 0;  // index into list_tags_
  };

  std::size_t n_tags_ = 0;
  // List l is list_tags_[list_offsets_[l], list_offsets_[l + 1]);
  // cancelled entries are overwritten with a tombstone.
  std::vector<std::uint32_t> list_offsets_{0};
  std::vector<std::uint32_t> list_tags_;
  std::vector<std::uint32_t> live_;      // per list: unknowns left
  std::vector<std::uint32_t> live_xor_;  // per list: XOR of those tags
  // Tag t's memberships, ascending list id:
  // edges_[tag_offsets_[t], tag_offsets_[t + 1]).
  std::vector<std::uint32_t> tag_offsets_;
  std::vector<Edge> edges_;
  std::vector<std::uint8_t> decoded_;
  std::vector<std::uint32_t> ready_;
  std::vector<Read> reads_;
  std::uint64_t list_visits_ = 0;
};

}  // namespace anc::protocols

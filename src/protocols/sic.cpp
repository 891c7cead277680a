#include "protocols/sic.h"

namespace anc::protocols {

namespace {
constexpr std::uint32_t kGone = ~std::uint32_t{0};
}  // namespace

void PeelingDecoder::Reset(std::size_t n_tags) {
  n_tags_ = n_tags;
  list_offsets_.assign(1, 0);
  list_tags_.clear();
  reads_.clear();
}

void PeelingDecoder::AddList(std::span<const std::uint32_t> tags) {
  list_tags_.insert(list_tags_.end(), tags.begin(), tags.end());
  list_offsets_.push_back(static_cast<std::uint32_t>(list_tags_.size()));
}

std::span<const PeelingDecoder::Read> PeelingDecoder::Decode(
    std::int64_t max_iterations) {
  // Counting sort of the memberships by tag; scanning lists in id order
  // leaves each tag's edges in ascending list id.
  tag_offsets_.assign(n_tags_ + 2, 0);
  for (std::uint32_t tag : list_tags_) ++tag_offsets_[tag + 2];
  for (std::size_t t = 2; t < tag_offsets_.size(); ++t) {
    tag_offsets_[t] += tag_offsets_[t - 1];
  }
  edges_.resize(list_tags_.size());
  live_.assign(lists(), 0);
  live_xor_.assign(lists(), 0);
  ready_.clear();
  for (std::uint32_t l = 0; l < lists(); ++l) {
    for (std::uint32_t pos = list_offsets_[l]; pos < list_offsets_[l + 1];
         ++pos) {
      const std::uint32_t tag = list_tags_[pos];
      edges_[tag_offsets_[tag + 1]++] = {l, pos};
      ++live_[l];
      live_xor_[l] ^= tag;
    }
    if (live_[l] == 1) ready_.push_back(l);
  }

  decoded_.assign(n_tags_, 0);
  std::int64_t iterations = 0;
  for (std::size_t head = 0;
       head < ready_.size() && iterations < max_iterations; ++head) {
    const std::uint32_t list = ready_[head];
    ++iterations;
    if (live_[list] != 1) continue;
    const std::uint32_t tag = live_xor_[list];  // the one left
    if (decoded_[tag]) continue;
    decoded_[tag] = 1;
    reads_.push_back({tag, list});
    for (std::uint32_t e = tag_offsets_[tag]; e < tag_offsets_[tag + 1];
         ++e) {
      const Edge edge = edges_[e];
      ++list_visits_;
      list_tags_[edge.pos] = kGone;
      live_xor_[edge.list] ^= tag;
      if (--live_[edge.list] == 1) ready_.push_back(edge.list);
    }
  }
  return reads_;
}

void PeelingDecoder::CopyResidual(std::size_t list,
                                  std::vector<std::uint32_t>* out) const {
  out->clear();
  for (std::uint32_t pos = list_offsets_[list]; pos < list_offsets_[list + 1];
       ++pos) {
    if (list_tags_[pos] != kGone) out->push_back(list_tags_[pos]);
  }
}

}  // namespace anc::protocols

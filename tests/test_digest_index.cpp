#include "common/digest_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"

namespace anc {
namespace {

TEST(DigestIndex, EmptyIndexFindsNothing) {
  const DigestIndex index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(0), DigestIndex::kNone);
  EXPECT_EQ(index.Find(SplitMix64(1)), DigestIndex::kNone);
}

TEST(DigestIndex, AbsentDigestIsNone) {
  DigestIndex index;
  index.Reserve(8);
  for (std::uint32_t i = 0; i < 8; ++i) index.Insert(SplitMix64(i), i);
  EXPECT_EQ(index.Find(SplitMix64(8)), DigestIndex::kNone);
  EXPECT_EQ(index.Find(0), DigestIndex::kNone);
  EXPECT_EQ(index.Find(SplitMix64(3)), 3u);
}

// A repeated digest keeps the first index, as unordered_map::emplace
// does, and Insert reports the repeat.
TEST(DigestIndex, FirstInsertWinsAndRepeatReturnsFalse) {
  DigestIndex index;
  EXPECT_TRUE(index.Insert(42, 7));
  EXPECT_FALSE(index.Insert(42, 9));
  EXPECT_FALSE(index.Insert(42, 7));
  EXPECT_EQ(index.Find(42), 7u);
  EXPECT_EQ(index.size(), 1u);
  // Digest 0 is an ordinary key, not an empty-slot marker.
  EXPECT_TRUE(index.Insert(0, 3));
  EXPECT_FALSE(index.Insert(0, 4));
  EXPECT_EQ(index.Find(0), 3u);
}

// Randomized cross-check against the unordered_map::emplace/find pair
// the index replaced: uniform digests, digests forced to share their low
// bits (long probe chains), digests whose home slot is the last one (the
// chain wraps past the table end), and repeats throughout. Growth from
// an empty index and a pre-reserved one must agree.
TEST(DigestIndex, MatchesUnorderedMapOnCollidingDigests) {
  anc::Pcg32 rng(2024);
  std::vector<std::uint64_t> digests;
  for (int i = 0; i < 12000; ++i) {
    const std::uint64_t uniform = SplitMix64(rng() | (std::uint64_t{rng()} << 32));
    switch (rng.UniformBelow(4)) {
      case 0:
        digests.push_back(uniform);
        break;
      case 1:  // same low 16 bits: one long run
        digests.push_back((uniform << 16) | 0x5A5A);
        break;
      case 2:  // home slot at the very end of any table up to 2^20
        digests.push_back((uniform << 20) | 0xFFFFF);
        break;
      default:  // a repeat of an earlier digest
        digests.push_back(digests.empty()
                              ? uniform
                              : digests[rng.UniformBelow(
                                    static_cast<std::uint32_t>(digests.size()))]);
    }
  }
  std::unordered_map<std::uint64_t, std::uint32_t> reference;
  DigestIndex grown;
  DigestIndex reserved;
  reserved.Reserve(digests.size());
  for (std::uint32_t i = 0; i < digests.size(); ++i) {
    const bool fresh = reference.emplace(digests[i], i).second;
    EXPECT_EQ(grown.Insert(digests[i], i), fresh) << "insert " << i;
    EXPECT_EQ(reserved.Insert(digests[i], i), fresh) << "insert " << i;
  }
  EXPECT_EQ(grown.size(), reference.size());
  EXPECT_EQ(reserved.size(), reference.size());
  EXPECT_GE(digests.size() - reference.size(), 2000u);  // repeats exercised
  for (std::uint64_t d : digests) {
    const std::uint32_t expected = reference.at(d);
    EXPECT_EQ(grown.Find(d), expected);
    EXPECT_EQ(reserved.Find(d), expected);
  }
  for (int i = 0; i < 12000; ++i) {
    const std::uint64_t probe = rng() | (std::uint64_t{rng()} << 32);
    for (std::uint64_t d : {probe, (probe << 16) | 0x5A5A,
                            (probe << 20) | 0xFFFFF}) {
      const auto it = reference.find(d);
      const std::uint32_t expected =
          it == reference.end() ? DigestIndex::kNone : it->second;
      EXPECT_EQ(grown.Find(d), expected);
      EXPECT_EQ(reserved.Find(d), expected);
    }
  }
}

}  // namespace
}  // namespace anc

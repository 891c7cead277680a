#include "sim/population.h"

#include <gtest/gtest.h>

#include <unordered_set>

namespace anc::sim {
namespace {

TEST(Population, RequestedSize) {
  anc::Pcg32 rng(1);
  EXPECT_EQ(MakePopulation(0, rng).size(), 0u);
  EXPECT_EQ(MakePopulation(1, rng).size(), 1u);
  EXPECT_EQ(MakePopulation(5000, rng).size(), 5000u);
}

TEST(Population, AllUnique) {
  anc::Pcg32 rng(2);
  const auto pop = MakePopulation(20000, rng);
  std::unordered_set<TagId> seen(pop.begin(), pop.end());
  EXPECT_EQ(seen.size(), pop.size());
}

TEST(Population, ValidCrcs) {
  anc::Pcg32 rng(3);
  for (const TagId& id : MakePopulation(100, rng)) {
    TagId decoded;
    EXPECT_TRUE(TagId::FromBits(id.ToBits(), &decoded));
    EXPECT_EQ(decoded, id);
  }
}

// Pins the generator's draw-and-reject sequence: an FNV-1a digest over
// every ID of a 10^5 population and the RNG's next draw afterwards, both
// recorded before the duplicate filter moved from std::unordered_set to
// DigestIndex.
TEST(Population, PinnedDrawsAtScale) {
  anc::Pcg32 rng(1);
  const auto pop = MakePopulation(100000, rng);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  auto mix = [&digest](std::uint64_t value, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      digest = (digest ^ ((value >> (8 * b)) & 0xFF)) * 0x100000001b3ULL;
    }
  };
  for (const TagId& id : pop) {
    mix(id.payload_hi(), 2);
    mix(id.payload_lo(), 8);
    mix(id.crc(), 2);
  }
  ASSERT_EQ(pop.size(), 100000u);
  EXPECT_EQ(digest, 0x0773fe7d63d33ab1ULL);
  EXPECT_EQ(rng(), 4233893423u);
}

TEST(Population, SeedDeterminism) {
  anc::Pcg32 a(7), b(7), c(8);
  const auto pa = MakePopulation(100, a);
  const auto pb = MakePopulation(100, b);
  const auto pc = MakePopulation(100, c);
  EXPECT_EQ(pa, pb);
  EXPECT_NE(pa, pc);
}

TEST(Population, PayloadBitsUniform) {
  // The query-tree baseline depends on uniform IDs: check the first
  // payload bit splits the population roughly in half.
  anc::Pcg32 rng(4);
  const auto pop = MakePopulation(10000, rng);
  int ones = 0;
  for (const TagId& id : pop) {
    ones += (id.payload_hi() >> 15) & 1;
  }
  EXPECT_NEAR(ones / 10000.0, 0.5, 0.02);
}

}  // namespace
}  // namespace anc::sim

#include "phy/ideal_phy.h"

#include <stdexcept>

#include <gtest/gtest.h>

#include "phy_test_util.h"
#include "sim/population.h"

namespace anc::phy {
namespace {

std::vector<TagId> Pop(std::size_t n, std::uint64_t seed = 1) {
  anc::Pcg32 rng(seed);
  return anc::sim::MakePopulation(n, rng);
}

TEST(IdealPhy, SlotClassification) {
  const auto pop = Pop(10);
  IdealPhy phy(pop, {2, 1.0, 0.0}, anc::Pcg32(1));

  const std::uint32_t none[] = {0};
  EXPECT_EQ(phy_test::Observe(phy, 0, {none, 0}).type, SlotType::kEmpty);

  const std::uint32_t one[] = {3};
  const auto singleton = phy_test::Observe(phy, 1, one);
  EXPECT_EQ(singleton.type, SlotType::kSingleton);
  ASSERT_TRUE(singleton.singleton_id.has_value());
  EXPECT_EQ(*singleton.singleton_id, pop[3]);
  EXPECT_EQ(singleton.record, kInvalidRecord);

  const std::uint32_t two[] = {1, 2};
  const auto collision = phy_test::Observe(phy, 2, two);
  EXPECT_EQ(collision.type, SlotType::kCollision);
  EXPECT_FALSE(collision.singleton_id.has_value());
  EXPECT_NE(collision.record, kInvalidRecord);
  EXPECT_EQ(phy.OpenRecords(), 1u);
}

TEST(IdealPhy, TwoCollisionResolvesWithOneKnown) {
  const auto pop = Pop(10);
  IdealPhy phy(pop, {2, 1.0, 0.0}, anc::Pcg32(1));
  const std::uint32_t two[] = {4, 7};
  const auto obs = phy_test::Observe(phy, 0, two);

  const std::uint32_t known[] = {4};
  const auto resolved = phy_test::Resolve(phy, obs.record, known);
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(*resolved, pop[7]);
}

TEST(IdealPhy, ResolutionNeedsAllButOne) {
  const auto pop = Pop(10);
  IdealPhy phy(pop, {3, 1.0, 0.0}, anc::Pcg32(1));
  const std::uint32_t three[] = {1, 2, 3};
  const auto obs = phy_test::Observe(phy, 0, three);

  const std::uint32_t one_known[] = {1};
  EXPECT_FALSE(phy_test::Resolve(phy, obs.record, one_known).has_value());

  const std::uint32_t two_known[] = {1, 3};
  const auto resolved = phy_test::Resolve(phy, obs.record, two_known);
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(*resolved, pop[2]);
}

TEST(IdealPhy, LambdaCapsMixtureOrder) {
  const auto pop = Pop(10);
  IdealPhy phy(pop, {2, 1.0, 0.0}, anc::Pcg32(1));
  const std::uint32_t three[] = {1, 2, 3};
  const auto obs = phy_test::Observe(phy, 0, three);
  const std::uint32_t two_known[] = {1, 2};
  // 3-collision with lambda = 2: never resolvable.
  EXPECT_FALSE(phy_test::Resolve(phy, obs.record, two_known).has_value());
}

TEST(IdealPhy, ReleaseClosesRecord) {
  const auto pop = Pop(10);
  IdealPhy phy(pop, {2, 1.0, 0.0}, anc::Pcg32(1));
  const std::uint32_t two[] = {4, 7};
  const auto obs = phy_test::Observe(phy, 0, two);
  phy.ReleaseRecord(obs.record);
  EXPECT_EQ(phy.OpenRecords(), 0u);
  const std::uint32_t known[] = {4};
  EXPECT_FALSE(phy_test::Resolve(phy, obs.record, known).has_value());
  phy.ReleaseRecord(obs.record);  // double release is harmless
  EXPECT_EQ(phy.OpenRecords(), 0u);
}

TEST(IdealPhy, ResolutionFailureIsSticky) {
  // Section IV-E: a noise-corrupted record never resolves, even on retry.
  const auto pop = Pop(10);
  IdealPhy phy(pop, {2, 0.0, 0.0}, anc::Pcg32(1));  // always fails
  const std::uint32_t two[] = {4, 7};
  const auto obs = phy_test::Observe(phy, 0, two);
  const std::uint32_t known[] = {4};
  EXPECT_FALSE(phy_test::Resolve(phy, obs.record, known).has_value());
  EXPECT_FALSE(phy_test::Resolve(phy, obs.record, known).has_value());
}

TEST(IdealPhy, ResolutionSuccessRateMatchesConfig) {
  const auto pop = Pop(2000);
  IdealPhy phy(pop, {2, 0.7, 0.0}, anc::Pcg32(5));
  int resolved = 0;
  for (std::uint32_t i = 0; i + 1 < 2000; i += 2) {
    const std::uint32_t pair[] = {i, i + 1};
    const auto obs = phy_test::Observe(phy, i, pair);
    const std::uint32_t known[] = {i};
    if (phy_test::Resolve(phy, obs.record, known)) ++resolved;
  }
  EXPECT_NEAR(resolved / 1000.0, 0.7, 0.05);
}

TEST(IdealPhy, CorruptedSingletonBecomesDeadRecord) {
  const auto pop = Pop(10);
  IdealPhy phy(pop, {2, 1.0, 1.0}, anc::Pcg32(1));  // always corrupt
  const std::uint32_t one[] = {5};
  const auto obs = phy_test::Observe(phy, 0, one);
  EXPECT_EQ(obs.type, SlotType::kSingleton);
  EXPECT_FALSE(obs.singleton_id.has_value());
  ASSERT_NE(obs.record, kInvalidRecord);
  // A garbage record can never be "resolved", even with zero unknowns.
  EXPECT_FALSE(phy_test::Resolve(phy, obs.record, {}).has_value());
}

// The record window compacts the moment the store empties, yet handles
// keep counting up, and a handle from before the compaction behaves like
// a closed record: no resolve (and no RNG draw), release is a no-op.
TEST(IdealPhy, WindowCompactsWhenEmptyAndNeverReusesHandles) {
  const auto pop = Pop(10);
  IdealPhy phy(pop, {2, 0.5, 0.0}, anc::Pcg32(1));
  IdealPhy control(pop, {2, 0.5, 0.0}, anc::Pcg32(1));
  const std::uint32_t a[] = {1, 2};
  const std::uint32_t b[] = {3, 4};
  const auto first = phy_test::Observe(phy, 0, a);
  const auto second = phy_test::Observe(phy, 1, b);
  phy.ReleaseRecord(first.record);
  EXPECT_EQ(phy.window_size(), 2u);  // `second` still open
  phy.ReleaseRecord(second.record);
  EXPECT_EQ(phy.window_size(), 0u);

  const auto third = phy_test::Observe(phy, 2, a);
  EXPECT_EQ(third.record.index(), second.record.index() + 1);
  EXPECT_EQ(phy.window_size(), 1u);
  const std::uint32_t known[] = {1};
  EXPECT_FALSE(phy_test::Resolve(phy, first.record, known).has_value());
  phy.ReleaseRecord(first.record);
  EXPECT_EQ(phy.OpenRecords(), 1u);

  // The stale resolve drew nothing: both phys agree on every later draw.
  for (std::uint64_t slot = 0; slot < 3; ++slot) {
    (void)phy_test::Observe(control, slot, slot == 1 ? b : a);
  }
  for (std::uint32_t i = 0; i < 20; ++i) {
    const std::uint32_t pair[] = {5, 6};
    const auto x = phy_test::Observe(phy, 3 + i, pair);
    const auto y = phy_test::Observe(control, 3 + i, pair);
    const std::uint32_t k[] = {5};
    EXPECT_EQ(phy_test::Resolve(phy, x.record, k).has_value(),
              phy_test::Resolve(control, y.record, k).has_value());
  }
}

TEST(HandleWindow, FindCoversOnlyTheWindow) {
  HandleWindow<int> window;
  EXPECT_EQ(window.Push(10), RecordHandle{0});
  EXPECT_EQ(window.Push(11), RecordHandle{1});
  window.Compact();
  EXPECT_EQ(window.Find(RecordHandle{1}), nullptr);
  EXPECT_EQ(window.Push(12), RecordHandle{2});
  ASSERT_NE(window.Find(RecordHandle{2}), nullptr);
  EXPECT_EQ(*window.Find(RecordHandle{2}), 12);
  EXPECT_EQ(window.Find(RecordHandle{3}), nullptr);
  EXPECT_EQ(window.Find(kInvalidRecord), nullptr);

  // Ensure rebases an empty window and default-fills gaps.
  HandleWindow<int> sparse;
  sparse.Ensure(RecordHandle{40}) = 1;
  sparse.Ensure(RecordHandle{42}) = 3;
  EXPECT_EQ(sparse.size(), 3u);
  EXPECT_EQ(sparse.HandleAt(0), RecordHandle{40});
  EXPECT_EQ(*sparse.Find(RecordHandle{41}), 0);
  EXPECT_EQ(sparse.Find(RecordHandle{39}), nullptr);
  EXPECT_EQ(sparse.End(), RecordHandle{43});

  // A handle below the base of a non-empty window is a checked failure,
  // not an offset that wraps onto (or far past) the live entries.
  EXPECT_THROW(sparse.Ensure(RecordHandle{39}), std::out_of_range);
  EXPECT_THROW(sparse.Ensure(RecordHandle{0}), std::out_of_range);
  EXPECT_EQ(sparse.size(), 3u);
  EXPECT_EQ(*sparse.Find(RecordHandle{40}), 1);
}

TEST(HandleWindow, RestoresBothFormatsAndRejectsMalformedSizes) {
  const auto put = [](std::string& o, const int& v) {
    ser::PutVarint(o, static_cast<std::uint64_t>(v));
  };
  const auto read = [](ser::Reader& r, int& v) {
    v = static_cast<int>(r.Varint());
  };
  HandleWindow<int> window;
  window.Ensure(RecordHandle{7}) = 70;
  window.Push(80);
  std::string v2;
  window.Save(&v2, put);

  HandleWindow<int> got;
  ser::Reader r2{v2};
  ASSERT_TRUE(got.Restore(r2, ser::BlobFormat::kV2, read));
  EXPECT_TRUE(r2.AtEnd());
  EXPECT_EQ(got.HandleAt(0), RecordHandle{7});
  EXPECT_EQ(*got.Find(RecordHandle{8}), 80);

  // A v1 arena is the same entries with no base: a window from handle 0.
  std::string v1;
  ser::PutVarint(v1, 2);
  put(v1, 70);
  put(v1, 80);
  ser::Reader r1{v1};
  ASSERT_TRUE(got.Restore(r1, ser::BlobFormat::kV1, read));
  EXPECT_EQ(*got.Find(RecordHandle{1}), 80);

  std::string too_many;  // claims more entries than bytes remain
  ser::PutVarint(too_many, 0);
  ser::PutVarint(too_many, 1000);
  ser::Reader rm{too_many};
  EXPECT_FALSE(got.Restore(rm, ser::BlobFormat::kV2, read));

  std::string past_end;  // would run into the invalid handle
  ser::PutVarint(past_end, 0xFFFFFFFFu);
  ser::PutVarint(past_end, 1);
  put(past_end, 1);
  ser::Reader rp{past_end};
  EXPECT_FALSE(got.Restore(rp, ser::BlobFormat::kV2, read));
}

}  // namespace
}  // namespace anc::phy

#include "core/record_tracker.h"

#include <gtest/gtest.h>

#include "phy_test_util.h"
#include "phy/ideal_phy.h"
#include "sim/population.h"

namespace anc::core {
namespace {

struct Fixture {
  std::vector<TagId> pop;
  phy::IdealPhy phy;
  RecordTracker tracker;

  explicit Fixture(unsigned lambda = 2, std::size_t n = 16)
      : pop([n] {
          anc::Pcg32 rng(1);
          return anc::sim::MakePopulation(n, rng);
        }()),
        phy(pop, {lambda, 1.0, 0.0}, anc::Pcg32(2)),
        tracker(pop.size()) {}

  phy::RecordHandle Collide(std::uint64_t slot,
                            std::initializer_list<std::uint32_t> tags) {
    std::vector<std::uint32_t> participants(tags);
    const auto obs = phy_test::Observe(phy, slot, participants);
    tracker.Register(obs.record, participants);
    return obs.record;
  }

  std::vector<RecordTracker::Resolution> OnIdKnown(std::uint32_t tag) {
    std::vector<RecordTracker::Resolution> out;
    tracker.OnIdKnown(tag, phy, &out);
    return out;
  }
};

TEST(RecordTracker, SimpleTwoCollision) {
  Fixture f;
  f.Collide(0, {3, 5});
  const auto resolved = f.OnIdKnown(3);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].id, f.pop[5]);
  EXPECT_EQ(f.tracker.open_records(), 0u);
  EXPECT_EQ(f.phy.OpenRecords(), 0u);
}

TEST(RecordTracker, Figure1Walkthrough) {
  // The paper's Fig. 1: mixed(t1, t4) in slot 1, singleton t1 in slot 3
  // resolves t4; mixed(t2, t3) in slot 4, singleton t3 in slot 6 resolves
  // t2. Tag indices 1..4 stand in for t1..t4.
  Fixture f;
  f.Collide(1, {1, 4});
  f.Collide(4, {2, 3});

  auto r1 = f.OnIdKnown(1);  // singleton t1
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r1[0].id, f.pop[4]);

  auto r2 = f.OnIdKnown(3);  // singleton t3
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_EQ(r2[0].id, f.pop[2]);
}

TEST(RecordTracker, ThreeCollisionNeedsTwoKnowns) {
  Fixture f(3);
  f.Collide(0, {1, 2, 3});
  EXPECT_TRUE(f.OnIdKnown(1).empty());
  const auto resolved = f.OnIdKnown(2);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].id, f.pop[3]);
}

TEST(RecordTracker, LambdaCapBlocksResolution) {
  Fixture f(2);
  f.Collide(0, {1, 2, 3});
  EXPECT_TRUE(f.OnIdKnown(1).empty());
  EXPECT_TRUE(f.OnIdKnown(2).empty());
  EXPECT_EQ(f.tracker.open_records(), 1u);  // stays unresolved
}

TEST(RecordTracker, OneKnownIdUnlocksMultipleRecords) {
  Fixture f;
  f.Collide(0, {1, 2});
  f.Collide(1, {1, 3});
  f.Collide(2, {1, 4});
  const auto resolved = f.OnIdKnown(1);
  ASSERT_EQ(resolved.size(), 3u);
}

TEST(RecordTracker, ResolvedRecordNotReprocessed) {
  Fixture f;
  f.Collide(0, {1, 2});
  ASSERT_EQ(f.OnIdKnown(1).size(), 1u);
  // Tag 2 (resolved) also participated in the record; feeding it back
  // must not re-resolve anything.
  EXPECT_TRUE(f.OnIdKnown(2).empty());
}

TEST(RecordTracker, TagWithNoRecords) {
  Fixture f;
  EXPECT_TRUE(f.OnIdKnown(7).empty());
}

TEST(RecordTracker, DuplicatePairRecordsOnlyOneUseful) {
  Fixture f;
  f.Collide(0, {1, 2});
  f.Collide(1, {1, 2});
  const auto resolved = f.OnIdKnown(1);
  // Both records resolve to tag 2; the engine deduplicates learned IDs.
  EXPECT_EQ(resolved.size(), 2u);
  EXPECT_EQ(resolved[0].id, f.pop[2]);
  EXPECT_EQ(resolved[1].id, f.pop[2]);
}

// ReleaseAll empties every arena: later rounds walk only their own
// records, and handles from before the compaction are inert.
TEST(RecordTracker, ReleaseAllCompactsTheWindow) {
  Fixture f;
  const auto old_record = f.Collide(0, {3, 5});
  f.Collide(1, {3, 7});
  EXPECT_EQ(f.tracker.window_size(), 2u);
  EXPECT_EQ(f.tracker.ReleaseAll(
                f.phy, fault::RecordLedger::CloseReason::kReleasedAtEnd),
            2u);
  EXPECT_EQ(f.tracker.window_size(), 0u);
  EXPECT_EQ(f.phy.window_size(), 0u);

  const auto fresh = f.Collide(2, {3, 9});
  EXPECT_EQ(fresh.index(), old_record.index() + 2);
  f.tracker.Abandon(old_record, f.phy,
                    fault::RecordLedger::CloseReason::kEvicted);
  EXPECT_EQ(f.tracker.open_records(), 1u);
  const auto resolved = f.OnIdKnown(3);
  ASSERT_EQ(resolved.size(), 1u);  // only this round's record
  EXPECT_EQ(resolved[0].id, f.pop[9]);
  EXPECT_EQ(resolved[0].record, fresh);
}

}  // namespace
}  // namespace anc::core

#include "stats/group_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace spear {
namespace {

TEST(GroupStatsTrackerTest, TracksFrequenciesAndMoments) {
  GroupStatsTracker tracker;
  tracker.Update("a", 1.0);
  tracker.Update("a", 3.0);
  tracker.Update("b", 10.0);
  EXPECT_EQ(tracker.num_groups(), 2u);
  EXPECT_EQ(tracker.total_count(), 3u);
  EXPECT_EQ(tracker.FrequencyOf("a"), 2u);
  EXPECT_EQ(tracker.FrequencyOf("b"), 1u);
  EXPECT_EQ(tracker.FrequencyOf("missing"), 0u);
  EXPECT_DOUBLE_EQ(tracker.Find("a")->mean(), 2.0);
}

TEST(GroupStatsTrackerTest, UnlimitedByDefault) {
  GroupStatsTracker tracker;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(
        tracker.Update(std::string("g").append(std::to_string(i)), 1.0));
  }
  EXPECT_FALSE(tracker.overflowed());
  EXPECT_EQ(tracker.num_groups(), 10000u);
}

TEST(GroupStatsTrackerTest, OverflowOnCapacity) {
  GroupStatsTracker tracker(2);
  EXPECT_TRUE(tracker.Update("a", 1.0));
  EXPECT_TRUE(tracker.Update("b", 1.0));
  EXPECT_FALSE(tracker.Update("c", 1.0));  // third distinct group
  EXPECT_TRUE(tracker.overflowed());
  EXPECT_EQ(tracker.num_groups(), 2u);
}

TEST(GroupStatsTrackerTest, ExistingGroupsUpdateAfterOverflow) {
  GroupStatsTracker tracker(1);
  EXPECT_TRUE(tracker.Update("a", 1.0));
  EXPECT_FALSE(tracker.Update("b", 1.0));
  EXPECT_TRUE(tracker.Update("a", 5.0));  // existing group still tracked
  EXPECT_EQ(tracker.FrequencyOf("a"), 2u);
  EXPECT_TRUE(tracker.overflowed());  // overflow state is sticky
}

TEST(GroupStatsTrackerTest, ResetClearsEverything) {
  GroupStatsTracker tracker(1);
  tracker.Update("a", 1.0);
  tracker.Update("b", 1.0);  // overflows
  tracker.Reset();
  EXPECT_FALSE(tracker.overflowed());
  EXPECT_EQ(tracker.num_groups(), 0u);
  EXPECT_EQ(tracker.total_count(), 0u);
  EXPECT_TRUE(tracker.Update("b", 1.0));
}

TEST(GroupStatsTrackerTest, EstimatedBytesGrowWithGroups) {
  GroupStatsTracker tracker;
  tracker.Update("key-1", 1.0);
  const std::size_t one = tracker.EstimatedBytes();
  tracker.Update("key-2", 1.0);
  EXPECT_GT(tracker.EstimatedBytes(), one);
}

TEST(KeyDictionaryTest, ReleasedIdsAreReusedAndLookupsFollowLiveKeys) {
  KeyDictionary keys;
  const std::uint32_t a = keys.Intern("a");
  const std::uint32_t b = keys.Intern("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(keys.Intern("a"), a);  // second reference, same id
  EXPECT_EQ(keys.live(), 2u);
  keys.Unref(a);
  EXPECT_EQ(keys.Find("a"), a);  // one reference left
  keys.Unref(a);
  EXPECT_EQ(keys.Find("a"), KeyDictionary::kNoId);
  EXPECT_EQ(keys.live(), 1u);
  // A new key takes the freed id; the id space does not grow.
  const std::uint32_t c = keys.Intern("c");
  EXPECT_EQ(c, a);
  EXPECT_EQ(keys.KeyOf(c), "c");
  EXPECT_EQ(keys.KeyOf(b), "b");
  EXPECT_EQ(keys.id_bound(), 2u);
}

TEST(GroupStatsTrackerTest, SharedDictionarySlotsHoldTheirIds) {
  KeyDictionary keys;
  const std::uint32_t a = keys.Intern("a");
  {
    GroupStatsTracker tracker(0, &keys);
    EXPECT_EQ(tracker.Observe(a, 1.0), 0u);
    EXPECT_EQ(tracker.Observe(a, 3.0), 0u);
    EXPECT_TRUE(tracker.Update("b", 2.0));  // interned by the tracker
    EXPECT_EQ(tracker.SlotOf(keys.Find("b")), 1u);
    EXPECT_EQ(tracker.key_at(1), "b");
    keys.Unref(a);  // the tracker's slot keeps "a" alive
    EXPECT_EQ(keys.live(), 2u);
    EXPECT_EQ(tracker.FrequencyOf("a"), 2u);
  }
  // Destroying the tracker releases its slots' ids.
  EXPECT_EQ(keys.live(), 0u);
}

TEST(GroupStatsTrackerTest, SlotsByKeyOrdersLikeStringCompare) {
  GroupStatsTracker tracker;
  // Short and long keys, an empty key and an embedded NUL (prefix ties).
  const std::vector<std::string> keys{
      "r10", "r9", "a-long-key-2", "a-long-key-10", "", "r1",
      std::string("a\0b", 3), "a"};
  for (const std::string& key : keys) tracker.Update(key, 1.0);
  std::vector<std::string> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::string> by_slot;
  for (const std::uint32_t slot : tracker.SlotsByKey()) {
    by_slot.push_back(tracker.key_at(slot));
  }
  EXPECT_EQ(by_slot, sorted);
}

}  // namespace
}  // namespace spear

#include "sketch/space_saving.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace spear {
namespace {

TEST(SpaceSavingTest, MakeValidates) {
  EXPECT_TRUE(SpaceSaving::Make(0).status().IsInvalid());
  EXPECT_TRUE(SpaceSaving::Make(10).ok());
}

TEST(SpaceSavingTest, ExactWhenUnderCapacity) {
  auto ss = SpaceSaving::Make(10);
  for (int i = 0; i < 5; ++i) {
    ss->Add("a");
  }
  ss->Add("b");
  EXPECT_EQ(ss->EstimateCount("a"), 5u);
  EXPECT_EQ(ss->EstimateCount("b"), 1u);
  EXPECT_EQ(ss->EstimateCount("c"), 0u);
  EXPECT_EQ(ss->total(), 6u);
  EXPECT_EQ(ss->monitored(), 2u);
}

TEST(SpaceSavingTest, NeverUnderestimatesMonitored) {
  auto ss = SpaceSaving::Make(8);
  Rng rng(2);
  std::unordered_map<std::string, std::uint64_t> truth;
  for (int i = 0; i < 20000; ++i) {
    // Zipf-ish mix over 50 keys.
    const std::string key =
        std::string("k").append(
            std::to_string(rng.NextBounded(rng.NextBounded(50) + 1)));
    ss->Add(key);
    ++truth[key];
  }
  for (const auto& item : ss->TopK()) {
    EXPECT_GE(item.count, truth[item.key]) << item.key;
    EXPECT_LE(item.count - item.error, truth[item.key]) << item.key;
  }
}

TEST(SpaceSavingTest, HeavyHitterGuarantee) {
  // Any key with frequency > n/k must be monitored.
  constexpr std::size_t kCapacity = 10;
  auto ss = SpaceSaving::Make(kCapacity);
  Rng rng(5);
  // "hot" gets ~30% of 10000 appearances; noise spread over 1000 keys.
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextDouble() < 0.3) {
      ss->Add("hot");
    } else {
      ss->Add(
          std::string("noise").append(std::to_string(rng.NextBounded(1000))));
    }
  }
  EXPECT_GT(ss->EstimateCount("hot"), 10000u / kCapacity);
  const auto top = ss->TopK();
  EXPECT_EQ(top.front().key, "hot");
}

TEST(SpaceSavingTest, CapacityBoundsMonitoredSet) {
  auto ss = SpaceSaving::Make(4);
  for (int i = 0; i < 100; ++i) {
    ss->Add(std::string("k").append(std::to_string(i)));
  }
  EXPECT_EQ(ss->monitored(), 4u);
  EXPECT_EQ(ss->total(), 100u);
}

TEST(SpaceSavingTest, TopKSortedDescending) {
  auto ss = SpaceSaving::Make(10);
  for (int i = 0; i < 9; ++i) ss->Add("big");
  for (int i = 0; i < 5; ++i) ss->Add("mid");
  ss->Add("small");
  const auto top = ss->TopK();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, "big");
  EXPECT_EQ(top[1].key, "mid");
  EXPECT_EQ(top[2].key, "small");
}

}  // namespace
}  // namespace spear

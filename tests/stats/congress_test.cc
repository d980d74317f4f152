#include "stats/congress.h"

#include <gtest/gtest.h>

#include <numeric>

namespace spear {
namespace {

using Frequencies = std::unordered_map<std::string, std::uint64_t>;

TEST(CongressTest, InvalidArgs) {
  EXPECT_TRUE(CongressAllocate({}, 10).status().IsInvalid());
  EXPECT_TRUE(CongressAllocate({{"a", 5}}, 0).status().IsInvalid());
  EXPECT_TRUE(CongressAllocate({{"a", 0}}, 10).status().IsInvalid());
}

TEST(CongressTest, SingleGroupGetsEverythingUpToItsSize) {
  auto allocs = CongressAllocate({{"a", 50}}, 100);
  ASSERT_TRUE(allocs.ok());
  ASSERT_EQ(allocs->size(), 1u);
  EXPECT_EQ((*allocs)[0].sample_size, 50u);  // capped at frequency
}

TEST(CongressTest, OutputSortedByKey) {
  auto allocs = CongressAllocate({{"c", 10}, {"a", 10}, {"b", 10}}, 30);
  ASSERT_TRUE(allocs.ok());
  EXPECT_EQ((*allocs)[0].key, "a");
  EXPECT_EQ((*allocs)[1].key, "b");
  EXPECT_EQ((*allocs)[2].key, "c");
}

TEST(CongressTest, EqualGroupsSplitEqually) {
  auto allocs = CongressAllocate({{"a", 1000}, {"b", 1000}}, 200);
  ASSERT_TRUE(allocs.ok());
  EXPECT_EQ((*allocs)[0].sample_size, 100u);
  EXPECT_EQ((*allocs)[1].sample_size, 100u);
}

TEST(CongressTest, EveryGroupGetsAtLeastOne) {
  Frequencies f;
  for (int i = 0; i < 50; ++i) {
    f[std::string("g").append(std::to_string(i))] = 1 + i;
  }
  auto allocs = CongressAllocate(f, 60);
  ASSERT_TRUE(allocs.ok());
  for (const auto& a : *allocs) EXPECT_GE(a.sample_size, 1u);
}

TEST(CongressTest, SampleNeverExceedsGroupSize) {
  auto allocs = CongressAllocate({{"tiny", 2}, {"big", 100000}}, 5000);
  ASSERT_TRUE(allocs.ok());
  for (const auto& a : *allocs) EXPECT_LE(a.sample_size, a.frequency);
}

TEST(CongressTest, SenateProtectsSmallGroups) {
  // Proportional share of "small" in a 10000:10 split with budget 100 is
  // ~0.1 elements; congress should give it much more (senate share).
  Frequencies f{{"big", 10000}, {"small", 10}};
  auto congress = CongressAllocate(f, 100);
  auto proportional = ProportionalAllocate(f, 100);
  ASSERT_TRUE(congress.ok());
  ASSERT_TRUE(proportional.ok());
  std::uint64_t congress_small = 0, proportional_small = 0;
  for (const auto& a : *congress) {
    if (a.key == "small") congress_small = a.sample_size;
  }
  for (const auto& a : *proportional) {
    if (a.key == "small") proportional_small = a.sample_size;
  }
  EXPECT_GT(congress_small, proportional_small);
  EXPECT_GE(congress_small, 10u);  // senate: full coverage of a tiny group
}

TEST(ProportionalTest, FollowsFrequencies) {
  auto allocs = ProportionalAllocate({{"a", 300}, {"b", 100}}, 100);
  ASSERT_TRUE(allocs.ok());
  std::uint64_t a_n = 0, b_n = 0;
  for (const auto& al : *allocs) (al.key == "a" ? a_n : b_n) = al.sample_size;
  EXPECT_NEAR(static_cast<double>(a_n) / static_cast<double>(b_n), 3.0, 0.5);
}

TEST(CongressTest, TotalAllocationNearBudget) {
  Frequencies f;
  for (int i = 0; i < 20; ++i) {
    f[std::string("g").append(std::to_string(i))] =
        100 * static_cast<std::uint64_t>(i + 1);
  }
  auto allocs = CongressAllocate(f, 1000);
  ASSERT_TRUE(allocs.ok());
  std::uint64_t total = 0;
  for (const auto& a : *allocs) total += a.sample_size;
  // Flooring and the >=1 guarantee allow small deviations only.
  EXPECT_GE(total, 900u);
  EXPECT_LE(total, 1100u);
}

/// Property sweep over group-count/skew combinations.
class CongressSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(CongressSweep, InvariantsHold) {
  const int groups = std::get<0>(GetParam());
  const std::uint64_t budget = std::get<1>(GetParam());
  Frequencies f;
  for (int i = 0; i < groups; ++i) {
    // Zipf-ish: group i has frequency ~ 10000 / (i+1).
    f[std::string("g").append(std::to_string(i))] =
        std::max<std::uint64_t>(10000 / static_cast<std::uint64_t>(i + 1), 1);
  }
  auto allocs = CongressAllocate(f, budget);
  ASSERT_TRUE(allocs.ok());
  EXPECT_EQ(allocs->size(), f.size());
  for (const auto& a : *allocs) {
    EXPECT_GE(a.sample_size, 1u);
    EXPECT_LE(a.sample_size, a.frequency);
    EXPECT_EQ(a.frequency, f.at(a.key));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CongressSweep,
    ::testing::Combine(::testing::Values(1, 2, 5, 20, 100),
                       ::testing::Values<std::uint64_t>(100, 1000, 10000)));

}  // namespace
}  // namespace spear

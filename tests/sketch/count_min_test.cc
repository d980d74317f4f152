#include "sketch/count_min.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace spear {
namespace {

TEST(CountMinTest, MakeValidatesArgs) {
  EXPECT_TRUE(CountMinSketch::Make(0.0, 0.05).status().IsInvalid());
  EXPECT_TRUE(CountMinSketch::Make(1.0, 0.05).status().IsInvalid());
  EXPECT_TRUE(CountMinSketch::Make(0.1, 0.0).status().IsInvalid());
  EXPECT_TRUE(CountMinSketch::Make(0.1, 1.0).status().IsInvalid());
}

TEST(CountMinTest, GeometryFromEpsilonDelta) {
  auto sketch = CountMinSketch::Make(0.01, 0.05);
  ASSERT_TRUE(sketch.ok());
  EXPECT_EQ(sketch->width(), static_cast<std::size_t>(
                                 std::ceil(std::exp(1.0) / 0.01)));
  EXPECT_EQ(sketch->depth(),
            static_cast<std::size_t>(std::ceil(std::log(1.0 / 0.05))));
}

TEST(CountMinTest, NeverUnderestimates) {
  auto sketch = CountMinSketch::Make(0.01, 0.01);
  ASSERT_TRUE(sketch.ok());
  Rng rng(4);
  std::unordered_map<std::string, double> truth;
  for (int i = 0; i < 20000; ++i) {
    const std::string key =
        std::string("k").append(std::to_string(rng.NextBounded(500)));
    sketch->Update(key, 1.0);
    truth[key] += 1.0;
  }
  for (const auto& [key, count] : truth) {
    EXPECT_GE(sketch->Estimate(key), count) << key;
  }
}

TEST(CountMinTest, ErrorWithinEpsilonOfL1Mass) {
  auto sketch = CountMinSketch::Make(0.005, 0.01);
  ASSERT_TRUE(sketch.ok());
  Rng rng(9);
  std::unordered_map<std::string, double> truth;
  for (int i = 0; i < 50000; ++i) {
    const std::string key =
        std::string("k").append(std::to_string(rng.NextBounded(2000)));
    sketch->Update(key, 1.0);
    truth[key] += 1.0;
  }
  const double bound = 0.005 * sketch->total_mass();
  int violations = 0;
  for (const auto& [key, count] : truth) {
    if (sketch->Estimate(key) - count > bound) ++violations;
  }
  // delta = 1%: allow a small number of violations.
  EXPECT_LE(violations, static_cast<int>(truth.size() / 50));
}

TEST(CountMinTest, UnseenKeySmall) {
  auto sketch = CountMinSketch::Make(0.01, 0.01);
  ASSERT_TRUE(sketch.ok());
  for (int i = 0; i < 100; ++i) {
    sketch->Update(std::string("seen").append(std::to_string(i)), 1.0);
  }
  EXPECT_LE(sketch->Estimate("never-seen"), 0.01 * sketch->total_mass() * 4);
}

TEST(CountMinTest, WeightedUpdates) {
  CountMinSketch sketch(1000, 5, 1);
  sketch.Update("a", 2.5);
  sketch.Update("a", 2.5);
  EXPECT_GE(sketch.Estimate("a"), 5.0);
  EXPECT_DOUBLE_EQ(sketch.total_mass(), 5.0);
}

TEST(CountMinTest, ResetZeroes) {
  CountMinSketch sketch(100, 3, 1);
  sketch.Update("a", 10.0);
  sketch.Reset();
  EXPECT_DOUBLE_EQ(sketch.Estimate("a"), 0.0);
  EXPECT_DOUBLE_EQ(sketch.total_mass(), 0.0);
}

TEST(CountMinTest, MemoryBytesMatchesGeometry) {
  CountMinSketch sketch(100, 3, 1);
  EXPECT_EQ(sketch.MemoryBytes(), 300 * sizeof(double));
}

TEST(CountMinGroupedTest, MeanReconstruction) {
  auto agg = CountMinGroupedAggregator::Make(0.001, 0.01);
  ASSERT_TRUE(agg.ok());
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) {
    agg->Update("hot", 10.0 + rng.NextGaussian());
  }
  for (int i = 0; i < 5000; ++i) {
    agg->Update("warm", 50.0 + rng.NextGaussian());
  }
  EXPECT_NEAR(agg->EstimateMean("hot"), 10.0, 1.5);
  EXPECT_NEAR(agg->EstimateMean("warm"), 50.0, 3.0);
}

TEST(CountMinGroupedTest, TracksDistinctKeysSorted) {
  auto agg = CountMinGroupedAggregator::Make(0.01, 0.05);
  ASSERT_TRUE(agg.ok());
  agg->Update("c", 1.0);
  agg->Update("a", 1.0);
  agg->Update("b", 1.0);
  agg->Update("a", 1.0);  // duplicate
  const auto keys = agg->Keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[2], "c");
}

TEST(CountMinGroupedTest, UnseenKeyMeanIsZero) {
  auto agg = CountMinGroupedAggregator::Make(0.01, 0.05);
  ASSERT_TRUE(agg.ok());
  EXPECT_DOUBLE_EQ(agg->EstimateMean("ghost"), 0.0);
}

TEST(CountMinGroupedTest, MemoryIncludesKeySet) {
  auto agg = CountMinGroupedAggregator::Make(0.01, 0.05);
  ASSERT_TRUE(agg.ok());
  const std::size_t before = agg->MemoryBytes();
  for (int i = 0; i < 1000; ++i) {
    agg->Update(
        std::string("group-with-a-long-name-").append(std::to_string(i)), 1.0);
  }
  EXPECT_GT(agg->MemoryBytes(), before + 1000 * 10);
}

TEST(CountMinGroupedTest, ResetClearsKeysAndCounts) {
  auto agg = CountMinGroupedAggregator::Make(0.01, 0.05);
  ASSERT_TRUE(agg.ok());
  agg->Update("a", 5.0);
  agg->Reset();
  EXPECT_TRUE(agg->Keys().empty());
  EXPECT_DOUBLE_EQ(agg->EstimateMean("a"), 0.0);
}

}  // namespace
}  // namespace spear

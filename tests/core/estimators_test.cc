#include "core/estimators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/spear_window_manager.h"
#include "stats/confidence.h"
#include "stats/quantile.h"
#include "stats/reservoir_sampler.h"
#include "stats/stratified_sample.h"

namespace spear {
namespace {

constexpr AccuracySpec kTenPercent{0.10, 0.95};

/// Builds (sample, window_stats, window) from a generator callable.
struct ScalarFixture {
  std::vector<double> window;
  std::vector<double> sample;
  RunningStats stats;

  template <typename Gen>
  ScalarFixture(std::size_t n, std::size_t budget, Gen gen) {
    ReservoirSampler<double> sampler(budget, 42);
    for (std::size_t i = 0; i < n; ++i) {
      const double v = gen(i);
      window.push_back(v);
      stats.Update(v);
      sampler.Offer(v);
    }
    sample = sampler.sample();
  }
};

TEST(EstimateScalarTest, RejectsHolistic) {
  RunningStats stats;
  stats.Update(1.0);
  EXPECT_TRUE(EstimateScalar(AggregateSpec::Median(), {1.0}, stats, 1,
                             kTenPercent)
                  .status()
                  .IsFailedPrecondition());
}

TEST(EstimateScalarTest, ValidatesInput) {
  RunningStats stats;
  EXPECT_TRUE(EstimateScalar(AggregateSpec::Mean(), {}, stats, 0, kTenPercent)
                  .status()
                  .IsInvalid());
  EXPECT_TRUE(EstimateScalar(AggregateSpec::Mean(), {1.0, 2.0}, stats, 1,
                             kTenPercent)
                  .status()
                  .IsInvalid())
      << "window smaller than sample";
}

TEST(EstimateScalarTest, CountIsAlwaysExact) {
  ScalarFixture f(10000, 100, [](std::size_t i) { return double(i); });
  auto est = EstimateScalar(AggregateSpec::Count(), f.sample, f.stats, 10000,
                            kTenPercent);
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est->accepted);
  EXPECT_DOUBLE_EQ(est->estimate, 10000.0);
  EXPECT_DOUBLE_EQ(est->epsilon_hat, 0.0);
}

TEST(EstimateScalarTest, MeanAcceptsLowVarianceData) {
  Rng rng(1);
  ScalarFixture f(50000, 1000,
                  [&](std::size_t) { return 100.0 + rng.NextGaussian(); });
  auto est = EstimateScalar(AggregateSpec::Mean(), f.sample, f.stats, 50000,
                            kTenPercent);
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est->accepted);
  EXPECT_NEAR(est->estimate, 100.0, 1.0);
  EXPECT_LT(est->epsilon_hat, 0.01);
}

TEST(EstimateScalarTest, MeanRejectsTinyBudgetOnNoisyData) {
  Rng rng(2);
  // Relative noise is huge: cv ~ 10.
  ScalarFixture f(50000, 5,
                  [&](std::size_t) { return 1.0 + 10.0 * rng.NextGaussian(); });
  auto est = EstimateScalar(AggregateSpec::Mean(), f.sample, f.stats, 50000,
                            kTenPercent);
  ASSERT_TRUE(est.ok());
  EXPECT_FALSE(est->accepted);
  EXPECT_GT(est->epsilon_hat, 0.10);
}

TEST(EstimateScalarTest, FullSampleIsExact) {
  Rng rng(3);
  ScalarFixture f(500, 500, [&](std::size_t) { return rng.NextDouble(); });
  auto est = EstimateScalar(AggregateSpec::Mean(), f.sample, f.stats, 500,
                            kTenPercent);
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est->accepted);
  EXPECT_DOUBLE_EQ(est->epsilon_hat, 0.0);
  EXPECT_NEAR(est->estimate, f.stats.mean(), 1e-9);
}

TEST(EstimateScalarTest, SumScalesMeanByWindowSize) {
  Rng rng(4);
  ScalarFixture f(10000, 500,
                  [&](std::size_t) { return 5.0 + 0.1 * rng.NextGaussian(); });
  auto mean_est = EstimateScalar(AggregateSpec::Mean(), f.sample, f.stats,
                                 10000, kTenPercent);
  auto sum_est = EstimateScalar(AggregateSpec::Sum(), f.sample, f.stats,
                                10000, kTenPercent);
  ASSERT_TRUE(mean_est.ok());
  ASSERT_TRUE(sum_est.ok());
  EXPECT_NEAR(sum_est->estimate, mean_est->estimate * 10000, 1e-6);
  EXPECT_NEAR(sum_est->epsilon_hat, mean_est->epsilon_hat, 1e-12);
}

TEST(EstimateScalarTest, VarianceAndStdDevRelation) {
  Rng rng(5);
  ScalarFixture f(20000, 2000,
                  [&](std::size_t) { return 3.0 * rng.NextGaussian(); });
  auto var_est = EstimateScalar(AggregateSpec::Variance(), f.sample, f.stats,
                                20000, kTenPercent);
  auto sd_est = EstimateScalar(AggregateSpec::StdDev(), f.sample, f.stats,
                               20000, kTenPercent);
  ASSERT_TRUE(var_est.ok());
  ASSERT_TRUE(sd_est.ok());
  EXPECT_TRUE(var_est->accepted);
  EXPECT_NEAR(var_est->estimate, 9.0, 1.0);
  EXPECT_NEAR(sd_est->estimate, 3.0, 0.2);
  EXPECT_NEAR(sd_est->epsilon_hat, var_est->epsilon_hat / 2.0, 1e-12);
}

TEST(EstimateScalarTest, MinMaxNeverAcceptedOnPartialSample) {
  Rng rng(6);
  ScalarFixture f(1000, 100, [&](std::size_t) { return rng.NextDouble(); });
  for (auto spec : {AggregateSpec::Min(), AggregateSpec::Max()}) {
    auto est = EstimateScalar(spec, f.sample, f.stats, 1000, kTenPercent);
    ASSERT_TRUE(est.ok());
    EXPECT_FALSE(est->accepted) << spec.ToString();
    EXPECT_TRUE(std::isinf(est->epsilon_hat));
  }
}

TEST(EstimateScalarTest, ZeroMeanGivesInfiniteRelativeError) {
  Rng rng(7);
  std::vector<double> sample;
  RunningStats stats;
  // Symmetric around zero: mean ~ 0, relative error undefined.
  for (int i = 0; i < 1000; ++i) {
    const double v = (i % 2 == 0) ? 1.0 : -1.0;
    sample.push_back(v);
    stats.Update(v);
  }
  auto est = EstimateScalar(AggregateSpec::Mean(), sample, stats, 100000,
                            kTenPercent);
  ASSERT_TRUE(est.ok());
  EXPECT_FALSE(est->accepted);
}

// ---------------------------------------------------------------------------
// Quantile estimation
// ---------------------------------------------------------------------------

TEST(EstimateQuantileTest, AcceptsWhenBudgetSufficient) {
  // Hoeffding for eps=0.1 @95% needs 185; give 1000 of 47000.
  Rng rng(8);
  std::vector<double> sample;
  for (int i = 0; i < 1000; ++i) sample.push_back(rng.NextDouble() * 100.0);
  auto est = EstimateScalarQuantile(0.5, sample, 47000, kTenPercent);
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est->accepted);
  EXPECT_NEAR(est->estimate, 50.0, 10.0);
  EXPECT_LT(est->epsilon_hat, 0.10);
}

TEST(EstimateQuantileTest, RejectsWhenBudgetTooSmall) {
  Rng rng(9);
  std::vector<double> sample;
  for (int i = 0; i < 50; ++i) sample.push_back(rng.NextDouble());
  auto est = EstimateScalarQuantile(0.5, sample, 47000, kTenPercent);
  ASSERT_TRUE(est.ok());
  EXPECT_FALSE(est->accepted);
  EXPECT_GT(est->epsilon_hat, 0.10);
}

TEST(EstimateQuantileTest, FullWindowSampleIsExact) {
  std::vector<double> sample{3.0, 1.0, 2.0};
  auto est = EstimateScalarQuantile(0.5, sample, 3, kTenPercent);
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est->accepted);
  EXPECT_DOUBLE_EQ(est->epsilon_hat, 0.0);
  EXPECT_DOUBLE_EQ(est->estimate, 2.0);
}

TEST(EstimateQuantileTest, NormalRankBoundAcceptsSmallerSamples) {
  Rng rng(10);
  std::vector<double> sample;
  for (int i = 0; i < 120; ++i) sample.push_back(rng.NextDouble());
  // 120 < 185 (Hoeffding) but >= ~96 (normal rank) for eps=0.1 @ 95%.
  auto hoeffding = EstimateScalarQuantile(0.5, sample, 100000, kTenPercent,
                                          QuantileBound::kHoeffding);
  auto normal = EstimateScalarQuantile(0.5, sample, 100000, kTenPercent,
                                       QuantileBound::kNormalRank);
  EXPECT_FALSE(hoeffding->accepted);
  EXPECT_TRUE(normal->accepted);
}

TEST(AchievedQuantileErrorTest, ShrinksWithSampleSize) {
  double prev = 1.0;
  for (std::uint64_t n : {10u, 100u, 1000u, 10000u}) {
    auto e = AchievedQuantileError(n, 1'000'000, 0.5, 0.95,
                                   QuantileBound::kHoeffding);
    ASSERT_TRUE(e.ok());
    EXPECT_LT(*e, prev);
    prev = *e;
  }
}

/// Empirical guarantee: when the estimator accepts, the sample quantile's
/// *rank error* should be within epsilon for ~confidence of trials.
class QuantileGuaranteeSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantileGuaranteeSweep, RankErrorWithinEpsilonMostOfTheTime) {
  const double phi = GetParam();
  constexpr double kEps = 0.05;
  const AccuracySpec spec{kEps, 0.95};
  constexpr int kTrials = 200;
  constexpr std::uint64_t kWindow = 20000;

  // Skewed population.
  Rng pop_rng(77);
  std::vector<double> population;
  for (std::uint64_t i = 0; i < kWindow; ++i) {
    population.push_back(std::exp(pop_rng.NextGaussian()));
  }
  std::vector<double> sorted = population;
  std::sort(sorted.begin(), sorted.end());

  int violations = 0, accepted = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    ReservoirSampler<double> sampler(1200,
                                     static_cast<std::uint64_t>(trial) + 1);
    for (double v : population) sampler.Offer(v);
    auto est = EstimateScalarQuantile(phi, sampler.sample(), kWindow, spec);
    ASSERT_TRUE(est.ok());
    if (!est->accepted) continue;
    ++accepted;
    const double rank = RankOf(sorted, est->estimate);
    if (std::fabs(rank - phi) > kEps) ++violations;
  }
  ASSERT_GT(accepted, kTrials / 2);  // budget should be big enough
  EXPECT_LE(violations, accepted / 10);  // ~95% guarantee with slack
}

INSTANTIATE_TEST_SUITE_P(Phis, QuantileGuaranteeSweep,
                         ::testing::Values(0.25, 0.5, 0.75, 0.95));

// ---------------------------------------------------------------------------
// Grouped estimation
// ---------------------------------------------------------------------------

GroupStatsTracker MakeTracker(
    const std::vector<std::tuple<std::string, std::size_t, double, double>>&
        groups,
    std::size_t max_groups = 0) {
  // (key, count, mean, spread): values mean +- spread alternating.
  GroupStatsTracker tracker(max_groups);
  for (const auto& [key, count, mean, spread] : groups) {
    for (std::size_t i = 0; i < count; ++i) {
      tracker.Update(key, mean + ((i % 2 == 0) ? spread : -spread));
    }
  }
  return tracker;
}

/// The slot-indexed allocation of an estimate as (key, N_g, n_g) records
/// sorted by key — CongressAllocate's output shape.
std::vector<GroupAllocation> AllocationsByKey(const GroupStatsTracker& tracker,
                                              const GroupedEstimate& est) {
  std::vector<GroupAllocation> out;
  for (const std::uint32_t slot : tracker.SlotsByKey()) {
    out.push_back(GroupAllocation{tracker.key_at(slot),
                                  tracker.stats_at(slot).count(),
                                  est.sample_sizes[slot]});
  }
  return out;
}

TEST(EstimateGroupedTest, OverflowForcesExact) {
  GroupStatsTracker tracker(1);
  tracker.Update("a", 1.0);
  tracker.Update("b", 1.0);  // overflow
  auto est = EstimateGrouped(AggregateSpec::Mean(), tracker, 100,
                             kTenPercent);
  ASSERT_TRUE(est.ok());
  EXPECT_FALSE(est->accepted);
  EXPECT_TRUE(std::isinf(est->epsilon_hat));
}

TEST(EstimateGroupedTest, MoreGroupsThanBudgetForcesExact) {
  GroupStatsTracker tracker;
  for (int i = 0; i < 50; ++i) {
    tracker.Update(std::string("g").append(std::to_string(i)), 1.0);
  }
  auto est = EstimateGrouped(AggregateSpec::Mean(), tracker, 10, kTenPercent);
  ASSERT_TRUE(est.ok());
  EXPECT_FALSE(est->accepted);
}

TEST(EstimateGroupedTest, EmptyTrackerForcesExact) {
  GroupStatsTracker tracker;
  auto est = EstimateGrouped(AggregateSpec::Mean(), tracker, 10, kTenPercent);
  ASSERT_TRUE(est.ok());
  EXPECT_FALSE(est->accepted);
}

TEST(EstimateGroupedTest, TightGroupsAccepted) {
  auto tracker = MakeTracker({{"a", 5000, 100.0, 1.0},
                              {"b", 3000, 50.0, 0.5},
                              {"c", 2000, 200.0, 2.0}});
  auto est = EstimateGrouped(AggregateSpec::Mean(), tracker, 500,
                             kTenPercent);
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est->accepted);
  EXPECT_LT(est->epsilon_hat, 0.10);
  EXPECT_EQ(est->sample_sizes.size(), 3u);
  EXPECT_EQ(est->group_errors.size(), 3u);
}

TEST(EstimateGroupedTest, NoisyGroupsRejected) {
  // cv per group ~ 20 with a budget of 10 per group: hopeless.
  auto tracker = MakeTracker({{"a", 5000, 1.0, 20.0},
                              {"b", 5000, 1.0, 20.0}});
  auto est = EstimateGrouped(AggregateSpec::Mean(), tracker, 20, kTenPercent);
  ASSERT_TRUE(est.ok());
  EXPECT_FALSE(est->accepted);
}

TEST(EstimateGroupedTest, CountAggregateAlwaysAcceptedWithinCapacity) {
  auto tracker = MakeTracker({{"a", 100, 1.0, 1.0}, {"b", 5, 1.0, 1.0}});
  auto est = EstimateGrouped(AggregateSpec::Count(), tracker, 50,
                             kTenPercent);
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est->accepted);
  EXPECT_DOUBLE_EQ(est->epsilon_hat, 0.0);
}

TEST(EstimateGroupedTest, L1VsLInfDecisionsDiffer) {
  // One mediocre group among many good ones: with ~40 samples per group
  // the bad group's error is ~0.5 (z*1.6/sqrt(40)/1), so L1 over 10
  // groups is ~0.05 (accept at 10%) while LInf is ~0.5 (reject).
  auto tracker = MakeTracker({{"good1", 4000, 100.0, 0.1},
                              {"good2", 4000, 100.0, 0.1},
                              {"good3", 4000, 100.0, 0.1},
                              {"good4", 4000, 100.0, 0.1},
                              {"good5", 4000, 100.0, 0.1},
                              {"good6", 4000, 100.0, 0.1},
                              {"good7", 4000, 100.0, 0.1},
                              {"good8", 4000, 100.0, 0.1},
                              {"good9", 4000, 100.0, 0.1},
                              {"bad", 4000, 1.0, 1.6}});
  auto l1 = EstimateGrouped(AggregateSpec::Mean(), tracker, 400, kTenPercent,
                            GroupErrorNorm::kL1);
  auto linf = EstimateGrouped(AggregateSpec::Mean(), tracker, 400,
                              kTenPercent, GroupErrorNorm::kLInf);
  ASSERT_TRUE(l1.ok());
  ASSERT_TRUE(linf.ok());
  EXPECT_TRUE(l1->accepted);
  EXPECT_FALSE(linf->accepted);
}

TEST(EstimateGroupedWithAllocationsTest, KnownGroupReservoirSizes) {
  auto tracker = MakeTracker({{"a", 1000, 10.0, 0.1}, {"b", 500, 5.0, 0.1}});
  const std::vector<std::uint64_t> sizes{200, 200};  // slots "a", "b"
  auto est = EstimateGroupedWithAllocations(AggregateSpec::Mean(), tracker,
                                            sizes, kTenPercent);
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est->accepted);
}

TEST(EstimateGroupedWithAllocationsTest, EmptyAllocationsInvalid) {
  GroupStatsTracker tracker;
  EXPECT_TRUE(EstimateGroupedWithAllocations(AggregateSpec::Mean(), tracker,
                                             {}, kTenPercent)
                  .status()
                  .IsInvalid());
}

TEST(EstimateGroupedTest, InlineAllocationMatchesCongressAllocate) {
  // EstimateGrouped computes basic-congress allocations straight off the
  // tracker (hot path); the result must be identical to the reference
  // CongressAllocate implementation.
  Rng rng(47);
  GroupStatsTracker tracker;
  std::unordered_map<std::string, std::uint64_t> frequencies;
  for (int g = 0; g < 200; ++g) {
    const std::string key = std::string("g").append(std::to_string(g));
    const std::uint64_t freq = 1 + rng.NextBounded(500);
    for (std::uint64_t i = 0; i < freq; ++i) tracker.Update(key, 1.0);
    frequencies[key] = freq;
  }
  for (std::uint64_t budget : {200u, 1000u, 5000u}) {
    auto est = EstimateGrouped(AggregateSpec::Mean(), tracker, budget,
                               kTenPercent);
    auto reference = CongressAllocate(frequencies, budget);
    ASSERT_TRUE(est.ok());
    ASSERT_TRUE(reference.ok());
    const std::vector<GroupAllocation> allocations =
        AllocationsByKey(tracker, *est);
    ASSERT_EQ(allocations.size(), reference->size());
    for (std::size_t i = 0; i < reference->size(); ++i) {
      EXPECT_EQ(allocations[i].key, (*reference)[i].key);
      EXPECT_EQ(allocations[i].frequency, (*reference)[i].frequency);
      EXPECT_EQ(allocations[i].sample_size, (*reference)[i].sample_size)
          << (*reference)[i].key << " @ budget " << budget;
    }
  }
}

TEST(EstimateGroupedTest, GroupedQuantileUsesRankBound) {
  auto tracker = MakeTracker({{"a", 10000, 10.0, 3.0},
                              {"b", 10000, 20.0, 5.0}});
  // 250 per group >= 185 (Hoeffding, eps=0.1): accept.
  auto big = EstimateGrouped(AggregateSpec::Percentile(0.9), tracker, 500,
                             kTenPercent);
  ASSERT_TRUE(big.ok());
  EXPECT_TRUE(big->accepted);
  // 10 per group: reject.
  auto small = EstimateGrouped(AggregateSpec::Percentile(0.9), tracker, 20,
                               kTenPercent);
  ASSERT_TRUE(small.ok());
  EXPECT_FALSE(small->accepted);
}

// ---------------------------------------------------------------------------
// Differential: id-keyed grouped estimation against string-keyed references
// ---------------------------------------------------------------------------

/// A DEBS-like sparse grouping: `sparse` routes with 1-3 rides each (fare
/// fixed per route, ~5% ride noise) plus `dense` wide-spread groups of a
/// few hundred rides, in shuffled arrival order so that tracker slots are
/// not in key order.
std::vector<std::pair<std::string, double>> SparseGrouping(std::uint64_t seed,
                                                           int sparse,
                                                           int dense) {
  Rng rng(seed);
  std::vector<std::pair<std::string, double>> out;
  for (int g = 0; g < sparse; ++g) {
    const std::string key = std::string("r").append(std::to_string(g));
    const double fare = 5.0 + 20.0 * rng.NextDouble();
    const int rides = 1 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < rides; ++i) {
      out.emplace_back(key, fare * (1.0 + 0.05 * rng.NextGaussian()));
    }
  }
  for (int g = 0; g < dense; ++g) {
    const std::string key = std::string("dense").append(std::to_string(g));
    const int rides = 200 + static_cast<int>(rng.NextBounded(300));
    for (int i = 0; i < rides; ++i) {
      out.emplace_back(key, 50.0 * (0.7 + 0.6 * rng.NextDouble()));
    }
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.NextBounded(i)]);
  }
  return out;
}

TEST(EstimateGroupedDifferentialTest, SparseGroupingsMatchStringKeyedOracle) {
  const auto z = NormalDeviate(kTenPercent.confidence);
  ASSERT_TRUE(z.ok());
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto tuples = SparseGrouping(seed, seed % 2 == 0 ? 2000 : 5000, 4);
    GroupStatsTracker tracker;
    std::unordered_map<std::string, std::uint64_t> frequencies;
    std::map<std::string, RunningStats> moments;
    for (const auto& [key, value] : tuples) {
      tracker.Update(key, value);
      ++frequencies[key];
      moments[key].Update(value);
    }
    const std::uint64_t groups = frequencies.size();
    for (const std::uint64_t budget :
         {groups, groups + groups / 3, 2 * groups, tuples.size() / 2}) {
      if (budget < groups) continue;
      auto est = EstimateGrouped(AggregateSpec::Mean(), tracker, budget,
                                 kTenPercent);
      auto reference = CongressAllocate(frequencies, budget);
      ASSERT_TRUE(est.ok());
      ASSERT_TRUE(reference.ok());
      const std::vector<GroupAllocation> allocations =
          AllocationsByKey(tracker, *est);
      ASSERT_EQ(allocations.size(), reference->size());
      // ε̂ recomputed from string-keyed moments: per-group relative CI
      // half-width under the reference allocation, averaged (L1).
      double l1 = 0.0;
      for (std::size_t i = 0; i < reference->size(); ++i) {
        const GroupAllocation& want = (*reference)[i];
        ASSERT_EQ(allocations[i].key, want.key);
        ASSERT_EQ(allocations[i].frequency, want.frequency) << want.key;
        ASSERT_EQ(allocations[i].sample_size, want.sample_size)
            << want.key << " @ budget " << budget << ", seed " << seed;
        const RunningStats& m = moments.at(want.key);
        const double n = static_cast<double>(want.sample_size);
        const double fpc =
            want.sample_size >= want.frequency
                ? 0.0
                : std::sqrt(1.0 - n / static_cast<double>(want.frequency));
        const double half = *z * m.PopulationStdDev() / std::sqrt(n) * fpc;
        l1 += half == 0.0 ? 0.0 : half / std::fabs(m.mean());
      }
      l1 /= static_cast<double>(reference->size());
      EXPECT_NEAR(est->epsilon_hat, l1, 1e-12)
          << "budget " << budget << ", seed " << seed;
    }
  }
}

// The flat single-pass stratified sample keeps exactly min(n_g, N_g)
// values per group, every one drawn from that group's own tuples, each
// tuple at most once.
TEST(StratifiedSampleTest, KeepsMinOfAllocationAndGroupSizeFromOwnGroup) {
  Rng rng(11);
  const std::size_t groups = 3000;
  std::vector<std::uint64_t> frequency(groups);
  std::vector<std::uint64_t> sizes(groups);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> arrivals;
  for (std::uint32_t g = 0; g < groups; ++g) {
    frequency[g] = g < 5 ? 200 + rng.NextBounded(300) : 1 + rng.NextBounded(3);
    // Allocations at, below and (as a boundary case) above N_g.
    sizes[g] = 1 + rng.NextBounded(frequency[g] + 2);
    for (std::uint64_t i = 0; i < frequency[g]; ++i) {
      arrivals.emplace_back(g, i);
    }
  }
  for (std::size_t i = arrivals.size(); i > 1; --i) {
    std::swap(arrivals[i - 1], arrivals[rng.NextBounded(i)]);
  }
  // A tuple's value encodes (group, index within group).
  constexpr double kStride = 1e4;
  StratifiedSample sample(sizes, 99);
  std::uint64_t extracted = 0;
  for (const auto& [g, i] : arrivals) {
    sample.Offer(g, [&, g = g, i = i] {
      ++extracted;
      return static_cast<double>(g) * kStride + static_cast<double>(i);
    });
  }
  std::uint64_t kept = 0;
  for (std::uint32_t g = 0; g < groups; ++g) {
    EXPECT_EQ(sample.seen(g), frequency[g]);
    const auto values = sample.sample(g);
    ASSERT_EQ(values.size(), std::min(sizes[g], frequency[g])) << "group " << g;
    std::set<double> distinct;
    for (const double v : values) {
      EXPECT_EQ(static_cast<std::uint32_t>(v / kStride), g);
      EXPECT_LT(std::fmod(v, kStride), static_cast<double>(frequency[g]));
      distinct.insert(v);
    }
    EXPECT_EQ(distinct.size(), values.size()) << "group " << g;
    kept += values.size();
  }
  // Values are extracted only for kept tuples (plus replaced ones), never
  // for every tuple of a large group.
  EXPECT_LT(extracted, arrivals.size());
  EXPECT_GE(extracted, kept);
}

// Algorithm R inline: every tuple of a group is equally likely to end up
// in its group's sample (inclusion probability n_g / N_g).
TEST(StratifiedSampleTest, InclusionIsUniformWithinAGroup) {
  const std::vector<std::uint64_t> sizes{3, 1};
  constexpr int kTrials = 20000;
  std::vector<int> hits(10, 0);
  for (int t = 0; t < kTrials; ++t) {
    StratifiedSample sample(sizes, 1000 + t);
    for (int i = 0; i < 10; ++i) {
      sample.Offer(0, [i] { return static_cast<double>(i); });
      sample.Offer(1, [] { return -1.0; });
    }
    for (const double v : sample.sample(0)) ++hits[static_cast<int>(v)];
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(hits[i] / static_cast<double>(kTrials), 0.3, 0.02)
        << "tuple " << i;
  }
}

// The accepted-window scan through the manager: with sliding windows the
// buffer also holds the next window's tuples, which must never enter the
// closing window's sample. Values are constant per group inside the
// window and huge outside it, so any leak shows in the group's sum; the
// sample size is the reference allocation's Σ min(n_g, N_g).
TEST(StratifiedSampleTest, ManagerScanSamplesOnlyItsWindow) {
  SpearOperatorConfig config;
  config.window = WindowSpec::SlidingTime(1000, 500);
  config.aggregate = AggregateSpec::Sum();
  config.accuracy = kTenPercent;
  config.budget = Budget::Tuples(800);
  SpearWindowManager manager(config, NumericField(1), KeyField(0));

  Rng rng(5);
  const auto fare = [](const std::string& key) {
    return 10.0 + static_cast<double>(std::hash<std::string>{}(key) % 90);
  };
  std::map<std::int64_t, std::map<std::string, std::uint64_t>> truth;
  for (std::int64_t c = 0; c < 1500; ++c) {
    const std::string key =
        rng.NextDouble() < 0.3
            ? std::string("dense").append(std::to_string(rng.NextBounded(4)))
            : std::string("r").append(std::to_string(rng.NextBounded(3000)));
    const double value = c < 1000 ? fare(key) : 1e6;
    manager.OnTuple(c, Tuple(c, {Value(key), Value(value)}));
    for (const std::int64_t start : {c - c % 500 - 500, c - c % 500}) {
      if (start + 1000 <= 1000) ++truth[start][key];
    }
  }
  auto results = manager.OnWatermark(1000);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), truth.size());
  for (const WindowResult& r : *results) {
    const auto& groups = truth.at(r.bounds.start);
    ASSERT_TRUE(r.approximate && !r.degraded) << "window must expedite";
    ASSERT_EQ(r.groups.size(), groups.size());
    std::unordered_map<std::string, std::uint64_t> frequencies(groups.begin(),
                                                               groups.end());
    auto reference = CongressAllocate(frequencies, 800);
    ASSERT_TRUE(reference.ok());
    std::uint64_t expected_sample = 0;
    for (const GroupAllocation& a : *reference) {
      expected_sample += std::min(a.sample_size, a.frequency);
    }
    EXPECT_EQ(r.tuples_processed, expected_sample);
    auto want = groups.begin();
    for (const auto& [key, sum] : r.groups) {
      ASSERT_EQ(key, want->first);
      EXPECT_DOUBLE_EQ(sum, fare(key) * static_cast<double>(want->second))
          << key;
      ++want;
    }
  }
}

}  // namespace
}  // namespace spear

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/rng.h"
#include "core/spear_window_manager.h"
#include "ops/exact_operator.h"
#include "stats/error_metrics.h"
#include "stats/quantile.h"
#include "window/single_buffer_manager.h"

/// \file consistency_test.cc
/// The repo's central property suite: for every supported aggregate, in
/// scalar and grouped form, SPEAr's output must satisfy the model's
/// requirements against a ground-truth exact run over the same stream:
///   R1 — expedited results within the accuracy spec (rank error for
///        percentiles, relative error otherwise), allowing the
///        (1 - confidence) violation mass;
///   R2 — grouped results contain exactly the distinct groups;
///   exactness — non-expedited windows equal the exact engine's output.

namespace spear {
namespace {

constexpr double kEpsilon = 0.10;
constexpr double kConfidence = 0.95;

struct Case {
  AggregateSpec aggregate;
  bool grouped;
  std::uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os, const Case& c) {
    return os << c.aggregate.ToString() << (c.grouped ? "/grouped" : "/scalar")
              << "/seed" << c.seed;
  }
};

class SpearConsistency : public ::testing::TestWithParam<Case> {};

/// Generates a stream with a few dense groups and positive, moderately
/// skewed values (so relative-error checks are meaningful for every
/// aggregate).
std::vector<Tuple> MakeStream(std::uint64_t seed, int tuples) {
  Rng rng(seed);
  std::vector<Tuple> out;
  out.reserve(static_cast<std::size_t>(tuples));
  for (int i = 0; i < tuples; ++i) {
    const std::int64_t group = static_cast<std::int64_t>(rng.NextBounded(5));
    // Group-dependent location plus mild noise keeps every aggregate's
    // value bounded away from zero.
    const double v = 50.0 * static_cast<double>(group + 1) *
                     std::exp(0.3 * rng.NextGaussian());
    out.emplace_back(
        i % 2000,
        std::vector<Value>{
            Value(std::string("g").append(std::to_string(group))), Value(v)});
  }
  return out;
}

TEST_P(SpearConsistency, MeetsModelRequirements) {
  const Case c = GetParam();

  SpearOperatorConfig config;
  config.window = WindowSpec::TumblingTime(500);
  config.aggregate = c.aggregate;
  config.accuracy = AccuracySpec{kEpsilon, kConfidence};
  config.budget = Budget::Tuples(800);
  config.seed = c.seed;

  const KeyExtractor key = c.grouped ? KeyField(0) : KeyExtractor(nullptr);
  SpearWindowManager spear(config, NumericField(1), key);
  SingleBufferWindowManager exact_buffer(config.window);
  ExactWindowOperator exact_op(c.aggregate, NumericField(1), key);

  const auto stream = MakeStream(c.seed, 30000);
  for (const Tuple& t : stream) {
    spear.OnTuple(t.event_time(), t);
    exact_buffer.OnTuple(t.event_time(), t);
  }

  auto spear_results = spear.OnWatermark(2000);
  auto staged = exact_buffer.OnWatermark(2000);
  ASSERT_TRUE(spear_results.ok());
  ASSERT_TRUE(staged.ok());
  ASSERT_EQ(spear_results->size(), staged->size());
  ASSERT_GT(spear_results->size(), 2u);

  // For percentile accuracy we need each window's sorted values per group.
  std::size_t violations = 0, comparisons = 0;
  for (std::size_t w = 0; w < staged->size(); ++w) {
    const WindowResult& approx = (*spear_results)[w];
    auto exact_result = exact_op.Process((*staged)[w]);
    ASSERT_TRUE(exact_result.ok());
    ASSERT_EQ(approx.bounds, exact_result->bounds);

    if (!approx.approximate) {
      // Exact path: bitwise-comparable output.
      if (c.grouped) {
        ASSERT_EQ(approx.groups.size(), exact_result->groups.size());
        for (std::size_t g = 0; g < approx.groups.size(); ++g) {
          EXPECT_EQ(approx.groups[g].first, exact_result->groups[g].first);
          EXPECT_NEAR(approx.groups[g].second, exact_result->groups[g].second,
                      1e-9 * std::fabs(exact_result->groups[g].second));
        }
      } else {
        EXPECT_NEAR(approx.scalar, exact_result->scalar,
                    1e-9 * std::fabs(exact_result->scalar) + 1e-12);
      }
      continue;
    }

    // Expedited path: accuracy audit.
    if (c.grouped) {
      // R2: identical group sets.
      ASSERT_EQ(approx.groups.size(), exact_result->groups.size())
          << approx.bounds.ToString();
      for (std::size_t g = 0; g < approx.groups.size(); ++g) {
        ASSERT_EQ(approx.groups[g].first, exact_result->groups[g].first);
      }
    }

    auto check_value = [&](double approx_value, double exact_value,
                           const std::vector<double>& sorted_group) {
      ++comparisons;
      if (c.aggregate.IsHolistic()) {
        // Rank error for quantiles.
        const double rank = RankOf(sorted_group, approx_value);
        if (std::fabs(rank - c.aggregate.phi) > kEpsilon) ++violations;
      } else {
        if (RelativeError(approx_value, exact_value) > kEpsilon) {
          ++violations;
        }
      }
    };

    if (c.grouped) {
      std::map<std::string, std::vector<double>> partitions;
      for (const Tuple& t : (*staged)[w].tuples) {
        partitions[t.field(0).AsString()].push_back(t.field(1).AsNumeric());
      }
      for (auto& [group, values] : partitions) std::sort(values.begin(),
                                                         values.end());
      for (std::size_t g = 0; g < approx.groups.size(); ++g) {
        check_value(approx.groups[g].second, exact_result->groups[g].second,
                    partitions.at(approx.groups[g].first));
      }
    } else {
      std::vector<double> values;
      for (const Tuple& t : (*staged)[w].tuples) {
        values.push_back(t.field(1).AsNumeric());
      }
      std::sort(values.begin(), values.end());
      check_value(approx.scalar, exact_result->scalar, values);
    }
  }

  // R1: the violation mass must respect the confidence level (with slack
  // for the finite number of comparisons).
  if (comparisons > 0) {
    const double violation_rate =
        static_cast<double>(violations) / static_cast<double>(comparisons);
    EXPECT_LE(violation_rate, (1.0 - kConfidence) + 0.05)
        << violations << " of " << comparisons;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregates, SpearConsistency,
    ::testing::Values(
        Case{AggregateSpec::Count(), false, 1},
        Case{AggregateSpec::Sum(), false, 2},
        Case{AggregateSpec::Mean(), false, 3},
        Case{AggregateSpec::Variance(), false, 4},
        Case{AggregateSpec::StdDev(), false, 5},
        Case{AggregateSpec::Median(), false, 6},
        Case{AggregateSpec::Percentile(0.95), false, 7},
        Case{AggregateSpec::Count(), true, 8},
        Case{AggregateSpec::Sum(), true, 9},
        Case{AggregateSpec::Mean(), true, 10},
        Case{AggregateSpec::Variance(), true, 11},
        Case{AggregateSpec::StdDev(), true, 12},
        Case{AggregateSpec::Median(), true, 13},
        Case{AggregateSpec::Percentile(0.95), true, 14}),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name = AggregateKindName(info.param.aggregate.kind);
      if (info.param.aggregate.kind == AggregateKind::kPercentile) {
        name += info.param.aggregate.phi == 0.5 ? "50" : "95";
      }
      name += info.param.grouped ? "Grouped" : "Scalar";
      return name;
    });

/// Same stream, sampled-mean mode (incremental optimization off): the
/// generic Alg. 1/2 path must also meet the spec.
TEST(SpearConsistencyExtra, SampledMeanPathMeetsSpec) {
  SpearOperatorConfig config;
  config.window = WindowSpec::TumblingTime(500);
  config.aggregate = AggregateSpec::Mean();
  config.accuracy = AccuracySpec{kEpsilon, kConfidence};
  config.budget = Budget::Tuples(600);
  config.incremental_optimization = false;

  SpearWindowManager spear(config, NumericField(1));
  SingleBufferWindowManager exact_buffer(config.window);
  ExactWindowOperator exact_op(AggregateSpec::Mean(), NumericField(1));

  for (const Tuple& t : MakeStream(42, 30000)) {
    spear.OnTuple(t.event_time(), t);
    exact_buffer.OnTuple(t.event_time(), t);
  }
  auto approx = spear.OnWatermark(2000);
  auto staged = exact_buffer.OnWatermark(2000);
  ASSERT_TRUE(approx.ok());
  ASSERT_TRUE(staged.ok());
  ASSERT_EQ(approx->size(), staged->size());
  std::size_t violations = 0;
  for (std::size_t w = 0; w < staged->size(); ++w) {
    auto exact_result = exact_op.Process((*staged)[w]);
    ASSERT_TRUE(exact_result.ok());
    if (RelativeError((*approx)[w].scalar, exact_result->scalar) > kEpsilon) {
      ++violations;
    }
  }
  EXPECT_LE(violations, staged->size() / 10 + 1);
}

}  // namespace
}  // namespace spear

#include "core/spear_window_manager.h"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <functional>
#include <unordered_map>

#include "common/fault.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ops/exact_operator.h"
#include "runtime/metrics.h"
#include "stats/error_metrics.h"
#include "window/single_buffer_manager.h"
#include "window/window_assigner.h"

namespace spear {
namespace {

Tuple ScalarTuple(Timestamp t, double v) { return Tuple(t, {Value(v)}); }
Tuple GroupTuple(Timestamp t, const std::string& k, double v) {
  return Tuple(t, {Value(k), Value(v)});
}

SpearOperatorConfig BaseConfig() {
  SpearOperatorConfig config;
  config.window = WindowSpec::TumblingTime(1000);
  config.accuracy = AccuracySpec{0.10, 0.95};
  config.budget = Budget::Tuples(200);
  return config;
}

TEST(SpearManagerTest, ModeDerivation) {
  {
    auto c = BaseConfig();
    c.aggregate = AggregateSpec::Mean();
    SpearWindowManager m(c, NumericField(0));
    EXPECT_EQ(m.mode(), SpearMode::kScalarIncremental);
  }
  {
    auto c = BaseConfig();
    c.aggregate = AggregateSpec::Mean();
    c.incremental_optimization = false;
    SpearWindowManager m(c, NumericField(0));
    EXPECT_EQ(m.mode(), SpearMode::kScalarSampled);
  }
  {
    auto c = BaseConfig();
    c.aggregate = AggregateSpec::Median();
    SpearWindowManager m(c, NumericField(0));
    EXPECT_EQ(m.mode(), SpearMode::kScalarQuantile);
  }
  {
    auto c = BaseConfig();
    SpearWindowManager m(c, NumericField(1), KeyField(0));
    EXPECT_EQ(m.mode(), SpearMode::kGroupedUnknown);
  }
  {
    auto c = BaseConfig();
    c.known_num_groups = 8;
    SpearWindowManager m(c, NumericField(1), KeyField(0));
    EXPECT_EQ(m.mode(), SpearMode::kGroupedKnown);
  }
}

TEST(SpearManagerTest, IncrementalScalarIsExact) {
  auto config = BaseConfig();
  config.aggregate = AggregateSpec::Mean();
  SpearWindowManager mgr(config, NumericField(0));
  double sum = 0.0;
  for (int i = 0; i < 500; ++i) {
    mgr.OnTuple(i, ScalarTuple(i, i * 0.5));
    sum += i * 0.5;
  }
  auto results = mgr.OnWatermark(1000);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_FALSE((*results)[0].approximate);
  EXPECT_DOUBLE_EQ((*results)[0].scalar, sum / 500.0);
  EXPECT_EQ(mgr.decision_stats().windows_expedited, 1u);
  EXPECT_EQ(mgr.decision_stats().windows_exact, 0u);
}

TEST(SpearManagerTest, QuantileExpeditedWithAmpleBudget) {
  auto config = BaseConfig();
  config.aggregate = AggregateSpec::Median();
  config.budget = Budget::Tuples(500);  // >> 185 required
  SpearWindowManager mgr(config, NumericField(0));

  Rng rng(1);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.NextDouble() * 100.0;
    values.push_back(v);
    mgr.OnTuple(i % 1000, ScalarTuple(i % 1000, v));
  }
  auto results = mgr.OnWatermark(1000);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_TRUE((*results)[0].approximate);
  EXPECT_EQ((*results)[0].tuples_processed, 500u);
  EXPECT_NEAR((*results)[0].scalar, 50.0, 8.0);
  EXPECT_EQ(mgr.decision_stats().windows_expedited, 1u);
}

TEST(SpearManagerTest, QuantileFallsBackOnTinyBudget) {
  auto config = BaseConfig();
  config.aggregate = AggregateSpec::Median();
  config.budget = Budget::Tuples(20);  // < 185 required
  SpearWindowManager mgr(config, NumericField(0));
  Rng rng(2);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.NextDouble();
    values.push_back(v);
    mgr.OnTuple(i % 1000, ScalarTuple(i % 1000, v));
  }
  auto results = mgr.OnWatermark(1000);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_FALSE((*results)[0].approximate);
  EXPECT_EQ((*results)[0].tuples_processed, 5000u);  // full window
  // Exact fallback must equal the true median.
  std::sort(values.begin(), values.end());
  EXPECT_NEAR((*results)[0].scalar,
              (values[2499] + values[2500]) / 2.0, 1e-9);
  EXPECT_EQ(mgr.decision_stats().windows_exact, 1u);
}

TEST(SpearManagerTest, SampledMeanRespectsAccuracySpec) {
  auto config = BaseConfig();
  config.aggregate = AggregateSpec::Mean();
  config.incremental_optimization = false;
  config.budget = Budget::Tuples(1000);
  SpearWindowManager mgr(config, NumericField(0));

  Rng rng(3);
  RunningStats truth;
  for (int i = 0; i < 47000; ++i) {
    const double v = 700.0 + 300.0 * rng.NextGaussian();
    truth.Update(v);
    mgr.OnTuple(i % 1000, ScalarTuple(i % 1000, v));
  }
  auto results = mgr.OnWatermark(1000);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  const WindowResult& r = (*results)[0];
  EXPECT_TRUE(r.approximate);
  EXPECT_LE(r.estimated_error, 0.10);
  EXPECT_LE(RelativeError(r.scalar, truth.mean()), 0.10);
}

TEST(SpearManagerTest, SlidingWindowsEachDecideIndependently) {
  auto config = BaseConfig();
  config.window = WindowSpec::SlidingTime(300, 100);
  config.aggregate = AggregateSpec::Mean();
  SpearWindowManager mgr(config, NumericField(0));
  for (int t = 0; t < 1000; ++t) {
    mgr.OnTuple(t, ScalarTuple(t, 1.0));
  }
  auto results = mgr.OnWatermark(1000);
  ASSERT_TRUE(results.ok());
  EXPECT_GT(results->size(), 5u);
  for (const auto& r : *results) EXPECT_DOUBLE_EQ(r.scalar, 1.0);
}

TEST(SpearManagerTest, GroupedUnknownExpeditesDenseGroups) {
  auto config = BaseConfig();
  config.aggregate = AggregateSpec::Mean();
  config.budget = Budget::Tuples(400);
  SpearWindowManager mgr(config, NumericField(1), KeyField(0));

  Rng rng(4);
  std::unordered_map<std::string, RunningStats> truth;
  for (int i = 0; i < 30000; ++i) {
    const std::string key =
        std::string("g").append(std::to_string(rng.NextBounded(4)));
    const double v = 100.0 * (key[1] - '0' + 1) + rng.NextGaussian();
    truth[key].Update(v);
    mgr.OnTuple(i % 1000, GroupTuple(i % 1000, key, v));
  }
  auto results = mgr.OnWatermark(1000);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  const WindowResult& r = (*results)[0];
  EXPECT_TRUE(r.approximate);
  ASSERT_EQ(r.groups.size(), truth.size());
  for (const auto& [key, value] : r.groups) {
    EXPECT_LE(RelativeError(value, truth.at(key).mean()), 0.10) << key;
  }
}

TEST(SpearManagerTest, GroupedUnknownFallsBackOnSparseGroups) {
  auto config = BaseConfig();
  config.aggregate = AggregateSpec::Mean();
  config.budget = Budget::Tuples(50);
  SpearWindowManager mgr(config, NumericField(1), KeyField(0));
  // 500 distinct groups >> budget of 50 group slots: tracker overflows.
  for (int i = 0; i < 500; ++i) {
    mgr.OnTuple(
        i, GroupTuple(i, std::string("g").append(std::to_string(i)), 1.0));
  }
  auto results = mgr.OnWatermark(1000);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_FALSE((*results)[0].approximate);
  EXPECT_EQ((*results)[0].groups.size(), 500u);  // exact: all groups
  EXPECT_EQ(mgr.decision_stats().windows_exact, 1u);
}

TEST(SpearManagerTest, GroupedKnownSamplesAtTupleArrival) {
  auto config = BaseConfig();
  config.aggregate = AggregateSpec::Mean();
  config.budget = Budget::Tuples(800);
  config.known_num_groups = 8;
  SpearWindowManager mgr(config, NumericField(1), KeyField(0));

  Rng rng(5);
  std::unordered_map<std::string, RunningStats> truth;
  for (int i = 0; i < 50000; ++i) {
    const std::string key =
        std::string("c").append(std::to_string(rng.NextBounded(8)));
    const double v = 10.0 * (key[1] - '0' + 1) + 0.5 * rng.NextGaussian();
    truth[key].Update(v);
    mgr.OnTuple(i % 1000, GroupTuple(i % 1000, key, v));
  }
  auto results = mgr.OnWatermark(1000);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  const WindowResult& r = (*results)[0];
  EXPECT_TRUE(r.approximate);
  ASSERT_EQ(r.groups.size(), 8u);
  // Expedited from per-group reservoirs: ~100 samples per group.
  EXPECT_LE(r.tuples_processed, 810u);
  for (const auto& [key, value] : r.groups) {
    EXPECT_LE(RelativeError(value, truth.at(key).mean()), 0.10) << key;
  }
}

TEST(SpearManagerTest, GroupedKnownFallsBackWhenMoreGroupsAppear) {
  auto config = BaseConfig();
  config.aggregate = AggregateSpec::Mean();
  config.budget = Budget::Tuples(100);
  config.known_num_groups = 2;  // wrong declaration
  SpearWindowManager mgr(config, NumericField(1), KeyField(0));
  for (int i = 0; i < 100; ++i) {
    mgr.OnTuple(
        i, GroupTuple(i, std::string("g").append(std::to_string(i % 5)), 1.0));
  }
  auto results = mgr.OnWatermark(1000);
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE((*results)[0].approximate);
}

TEST(SpearManagerTest, CustomEstimatorDrivesDecision) {
  auto config = BaseConfig();
  config.aggregate = AggregateSpec::Mean();
  int calls = 0;
  config.custom_estimator =
      [&calls](const std::vector<double>& sample, const RunningStats&,
               std::uint64_t, const AccuracySpec&) -> Result<ScalarEstimate> {
    ++calls;
    ScalarEstimate est;
    est.estimate = sample.empty() ? 0.0 : sample.front();
    est.epsilon_hat = 0.05;
    est.accepted = true;
    return est;
  };
  SpearWindowManager mgr(config, NumericField(0));
  EXPECT_EQ(mgr.mode(), SpearMode::kScalarSampled);
  for (int i = 0; i < 100; ++i) mgr.OnTuple(i, ScalarTuple(i, 7.0));
  auto results = mgr.OnWatermark(1000);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE((*results)[0].approximate);
  EXPECT_DOUBLE_EQ((*results)[0].scalar, 7.0);
  EXPECT_DOUBLE_EQ((*results)[0].estimated_error, 0.05);
}

TEST(SpearManagerTest, LateTuplesCounted) {
  auto config = BaseConfig();
  config.aggregate = AggregateSpec::Mean();
  SpearWindowManager mgr(config, NumericField(0));
  mgr.OnTuple(500, ScalarTuple(500, 1.0));
  (void)mgr.OnWatermark(1000);
  mgr.OnTuple(900, ScalarTuple(900, 1.0));
  EXPECT_EQ(mgr.decision_stats().late_tuples, 1u);
}

TEST(SpearManagerTest, SpillAndExactFallbackRoundTrip) {
  SecondaryStorage storage;
  auto config = BaseConfig();
  config.aggregate = AggregateSpec::Median();
  config.budget = Budget::Tuples(10);       // forces exact fallback
  config.buffer_memory_capacity = 100;      // forces spill
  SpearWindowManager mgr(config, NumericField(0), nullptr, &storage, "t");

  std::vector<double> values;
  for (int i = 0; i < 500; ++i) {
    const double v = static_cast<double>(i);
    values.push_back(v);
    mgr.OnTuple(i, ScalarTuple(i, v));
  }
  EXPECT_GT(storage.TotalTuples(), 0u);
  auto results = mgr.OnWatermark(1000);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_FALSE((*results)[0].approximate);
  EXPECT_DOUBLE_EQ((*results)[0].scalar, 249.5);
  EXPECT_EQ(storage.TotalTuples(), 0u);  // unspilled and erased
}

TEST(SpearManagerTest, SpillExpeditedPathNeverTouchesStorage) {
  SecondaryStorage storage;
  auto config = BaseConfig();
  config.aggregate = AggregateSpec::Median();
  config.budget = Budget::Tuples(400);
  config.buffer_memory_capacity = 100;
  SpearWindowManager mgr(config, NumericField(0), nullptr, &storage, "t");

  Rng rng(6);
  for (int i = 0; i < 5000; ++i) {
    mgr.OnTuple(i % 1000, ScalarTuple(i % 1000, rng.NextDouble()));
  }
  const std::uint64_t gets_before = storage.get_calls();
  auto results = mgr.OnWatermark(1000);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE((*results)[0].approximate);
  EXPECT_EQ(storage.get_calls(), gets_before);  // no S reads when expedited
  EXPECT_EQ(storage.TotalTuples(), 0u);         // expired run discarded
}

TEST(SpearManagerTest, BudgetMemoryStaysBounded) {
  auto config = BaseConfig();
  config.aggregate = AggregateSpec::Median();
  config.budget = Budget::Tuples(100);
  SpearWindowManager mgr(config, NumericField(0));
  for (int i = 0; i < 50000; ++i) {
    mgr.OnTuple(i % 1000, ScalarTuple(i % 1000, 1.0));
  }
  // One active window holding a 100-element sample + bookkeeping.
  EXPECT_LE(mgr.BudgetMemoryBytes(), 100 * sizeof(double) + 512);
  EXPECT_GT(mgr.BufferMemoryBytes(), 50000u);  // raw custody is separate
}

TEST(SpearManagerTest, DecisionStatsTallyAcrossWindows) {
  auto config = BaseConfig();
  config.window = WindowSpec::TumblingTime(100);
  config.aggregate = AggregateSpec::Median();
  config.budget = Budget::Tuples(250);
  SpearWindowManager mgr(config, NumericField(0));
  Rng rng(7);
  // Windows alternate between large (expedite) and tiny (sample==window,
  // exact-equivalent but still within epsilon -> expedited).
  for (int w = 0; w < 10; ++w) {
    const int n = (w % 2 == 0) ? 2000 : 50;
    for (int i = 0; i < n; ++i) {
      const Timestamp t = w * 100 + (i % 100);
      mgr.OnTuple(t, ScalarTuple(t, rng.NextDouble()));
    }
  }
  auto results = mgr.OnWatermark(10 * 100);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 10u);
  const DecisionStats& stats = mgr.decision_stats();
  EXPECT_EQ(stats.windows_total, 10u);
  EXPECT_EQ(stats.windows_expedited + stats.windows_exact, 10u);
  EXPECT_EQ(stats.tuples_seen, 10250u);
  EXPECT_GT(stats.ExpediteRate(), 0.0);
}

TEST(SpearManagerTest, InvalidConfigAborts) {
  auto config = BaseConfig();
  config.accuracy.epsilon = 0.0;
  EXPECT_DEATH(SpearWindowManager(config, NumericField(0)), "Check failed");
}

TEST(SpearManagerTest, AdaptiveBudgetGrowsAfterFallbacks) {
  auto config = BaseConfig();
  config.window = WindowSpec::TumblingTime(100);
  config.aggregate = AggregateSpec::Median();
  config.budget = Budget::Tuples(40);  // below the ~96 the rank bound needs
  config.adaptive_budget = true;
  config.adaptive_options.max_budget = 4096;
  SpearWindowManager mgr(config, NumericField(0));

  Rng rng(11);
  // Several consecutive windows of 2000 noisy tuples: the first windows
  // fall back, the controller doubles the budget, and later windows
  // expedite.
  for (int w = 0; w < 8; ++w) {
    for (int i = 0; i < 2000; ++i) {
      const Timestamp t = w * 100 + (i % 100);
      mgr.OnTuple(t, ScalarTuple(t, rng.NextDouble()));
    }
    auto results = mgr.OnWatermark((w + 1) * 100);
    ASSERT_TRUE(results.ok());
  }
  const DecisionStats& stats = mgr.decision_stats();
  EXPECT_GT(stats.windows_exact, 0u) << "small initial budget must fall back";
  EXPECT_GT(stats.windows_expedited, 0u) << "grown budget must expedite";
  ASSERT_NE(mgr.budget_controller(), nullptr);
  EXPECT_GT(mgr.budget_controller()->grows(), 0u);
  EXPECT_GT(mgr.budget_elements(), 40u);
}

TEST(SpearManagerTest, LateTupleDemotesIncrementalToSampleEstimate) {
  auto config = BaseConfig();
  config.window = WindowSpec::SlidingTime(1000, 500);
  config.aggregate = AggregateSpec::Mean();
  config.budget = Budget::Tuples(500);
  SpearWindowManager mgr(config, NumericField(0));

  Rng rng(13);
  // Fill [0, 1500): windows [0,1000), [500,1500), ... are active.
  for (int t = 0; t < 1500; ++t) {
    mgr.OnTuple(t, ScalarTuple(t, 50.0 + rng.NextGaussian()));
  }
  // Watermark 1000 emits [-500,500) and [0,1000) — exact incremental,
  // no anomaly yet.
  auto first = mgr.OnWatermark(1000);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 2u);
  EXPECT_FALSE((*first)[0].approximate);
  EXPECT_FALSE((*first)[1].approximate);

  // A late tuple at 900 lands inside the still-active window [500,1500):
  // its incremental accumulator can no longer be trusted.
  mgr.OnTuple(900, ScalarTuple(900, 50.0));
  EXPECT_EQ(mgr.decision_stats().late_tuples, 1u);

  auto second = mgr.OnWatermark(1500);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->size(), 1u);
  // Anomalous window: produced from the sample with an accuracy estimate
  // (the data is tight enough for the CI to accept).
  EXPECT_TRUE((*second)[0].approximate);
  EXPECT_LE((*second)[0].estimated_error, 0.10);
  EXPECT_NEAR((*second)[0].scalar, 50.0, 2.0);
}

TEST(SpearManagerTest, ExplicitAnomalyFallsBackToExactWhenSampleTooSmall) {
  auto config = BaseConfig();
  config.aggregate = AggregateSpec::Mean();
  config.budget = Budget::Tuples(35);  // tiny: CI too wide on noisy data
  SpearWindowManager mgr(config, NumericField(0));
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    // cv ~ 3: a 35-element sample cannot certify 10%.
    mgr.OnTuple(i % 1000, ScalarTuple(i % 1000,
                                      1.0 + 3.0 * rng.NextGaussian()));
  }
  mgr.NotifyDeliveryAnomaly();
  auto results = mgr.OnWatermark(1000);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_FALSE((*results)[0].approximate);  // rescanned exactly
  EXPECT_EQ(mgr.decision_stats().windows_exact, 1u);
}

TEST(SpearManagerTest, QuantileBoundConfigChangesDecision) {
  // b=120 sits between the normal-rank requirement (~96) and Hoeffding's
  // (~185) for eps=10% @ 95%: the configured bound decides.
  auto make = [](QuantileBound bound) {
    auto config = BaseConfig();
    config.aggregate = AggregateSpec::Median();
    config.budget = Budget::Tuples(120);
    config.quantile_bound = bound;
    return config;
  };
  Rng rng(23);
  std::vector<Tuple> stream;
  for (int i = 0; i < 20000; ++i) {
    stream.push_back(ScalarTuple(i % 1000, rng.NextDouble()));
  }

  SpearWindowManager normal(make(QuantileBound::kNormalRank),
                            NumericField(0));
  SpearWindowManager hoeffding(make(QuantileBound::kHoeffding),
                               NumericField(0));
  for (const Tuple& t : stream) {
    normal.OnTuple(t.event_time(), t);
    hoeffding.OnTuple(t.event_time(), t);
  }
  auto normal_results = normal.OnWatermark(1000);
  auto hoeffding_results = hoeffding.OnWatermark(1000);
  ASSERT_TRUE(normal_results.ok());
  ASSERT_TRUE(hoeffding_results.ok());
  EXPECT_TRUE((*normal_results)[0].approximate);
  EXPECT_FALSE((*hoeffding_results)[0].approximate);
}

TEST(SpearManagerTest, SlidingCountWindows) {
  auto config = BaseConfig();
  config.window = WindowSpec::SlidingCount(1000, 500);
  config.aggregate = AggregateSpec::Median();
  config.budget = Budget::Tuples(200);
  SpearWindowManager mgr(config, NumericField(0));
  Rng rng(29);
  // Coordinates are sequence numbers for count windows; the driver (bolt)
  // assigns them — emulate it here.
  std::int64_t seq = 0;
  std::vector<WindowResult> all;
  for (int i = 0; i < 5000; ++i) {
    mgr.OnTuple(seq, ScalarTuple(i, rng.NextDouble() * 10.0));
    ++seq;
    auto results = mgr.OnWatermark(seq);
    ASSERT_TRUE(results.ok());
    for (auto& r : *results) all.push_back(std::move(r));
  }
  // 5000 tuples, range 1000, slide 500 -> windows ending at 1000, 1500,
  // ..., 5000 (plus the partial lead-in window [-500, 500)).
  EXPECT_GE(all.size(), 9u);
  for (const WindowResult& r : all) {
    if (r.bounds.start < 0) continue;  // lead-in partial window
    EXPECT_EQ(r.window_size, 1000u);
    EXPECT_TRUE(r.approximate);
    EXPECT_NEAR(r.scalar, 5.0, 1.5);
  }
}

TEST(SpearManagerTest, FixedBudgetHasNoController) {
  auto config = BaseConfig();
  SpearWindowManager mgr(config, NumericField(0));
  EXPECT_EQ(mgr.budget_controller(), nullptr);
  EXPECT_EQ(mgr.budget_elements(), 200u);
}

TEST(SpearManagerTest, ProcessingNsPopulated) {
  auto config = BaseConfig();
  config.aggregate = AggregateSpec::Median();
  SpearWindowManager mgr(config, NumericField(0));
  for (int i = 0; i < 1000; ++i) mgr.OnTuple(i, ScalarTuple(i, 1.0));
  auto results = mgr.OnWatermark(1000);
  ASSERT_TRUE(results.ok());
  EXPECT_GT((*results)[0].processing_ns, 0);
}

// ---- group-key dictionary lifetime ---------------------------------------

/// Distinct keys among the tuples fed with coordinate >= a moving floor.
class LiveKeyModel {
 public:
  void Add(std::int64_t coord, const std::string& key) {
    fed_.emplace_back(coord, key);
    ++count_[key];
  }
  /// Forgets tuples below `floor` (floors only grow).
  void DropBelow(std::int64_t floor) {
    while (!fed_.empty() && fed_.front().first < floor) {
      if (--count_[fed_.front().second] == 0) {
        count_.erase(fed_.front().second);
      }
      fed_.pop_front();
    }
  }
  std::size_t distinct() const { return count_.size(); }

 private:
  std::deque<std::pair<std::int64_t, std::string>> fed_;
  std::unordered_map<std::string, std::uint64_t> count_;
};

// Six hours of DEBS rides with routes rotating every 30 minutes: the ids
// live after each watermark are exactly the distinct routes among the
// tuples still buffered (which cover every open window), the id space
// never outgrows the keys live at once, and everything is released at the
// end of the stream — while the run as a whole sees many times more
// distinct routes than ids.
TEST(SpearManagerTest, KeyDictionaryStaysBoundedByLiveKeys) {
  DebsGenerator::Config debs;
  debs.seed = 7;
  debs.duration = Hours(6);
  const std::vector<Tuple> stream = DebsGenerator::Generate(debs);

  SpearOperatorConfig config;
  config.window = WindowSpec::SlidingTime(Minutes(30), Minutes(15));
  config.aggregate = AggregateSpec::Mean();
  config.accuracy = AccuracySpec{0.10, 0.95};
  config.budget = Budget::Tuples(4000);
  SpearWindowManager mgr(config, NumericField(DebsGenerator::kFareField),
                         KeyField(DebsGenerator::kRouteField));

  LiveKeyModel model;
  std::unordered_map<std::string, int> all_keys;
  std::size_t peak_live = 0;
  std::int64_t next_watermark = Minutes(1);
  std::size_t watermarks = 0;
  for (const Tuple& t : stream) {
    while (t.event_time() >= next_watermark) {
      peak_live = std::max(peak_live, model.distinct());
      ASSERT_TRUE(mgr.OnWatermark(next_watermark).ok());
      model.DropBelow(
          FirstIncompleteWindowStart(config.window, next_watermark));
      ASSERT_EQ(mgr.key_dictionary().live(), model.distinct())
          << "after watermark " << next_watermark;
      ++watermarks;
      next_watermark += Minutes(1);
    }
    const std::string& key = t.field(DebsGenerator::kRouteField).AsString();
    model.Add(t.event_time(), key);
    ++all_keys[key];
    mgr.OnTuple(t.event_time(), t);
  }
  ASSERT_GE(watermarks, 300u);
  EXPECT_LE(mgr.key_dictionary().id_bound(),
            std::max(peak_live, model.distinct()));
  EXPECT_GT(all_keys.size(), 3 * mgr.key_dictionary().id_bound())
      << "routes did not rotate: the bound shows nothing";

  ASSERT_TRUE(mgr.OnWatermark(kMaxTimestamp).ok());
  EXPECT_EQ(mgr.key_dictionary().live(), 0u);
  EXPECT_EQ(mgr.BufferedTuples(), 0u);
}

// Tuples spilled to S give their id back and are re-interned when the
// grouped scan fetches them: the stratified sample must still find every
// group in the window's tracker, and (with a budget that samples every
// tuple) match a manager that never spilled.
TEST(SpearManagerTest, SpilledGroupedTuplesReinternOnFetch) {
  auto config = BaseConfig();
  config.aggregate = AggregateSpec::Mean();
  config.budget = Budget::Tuples(5000);  // n_g = N_g for every group
  SecondaryStorage storage;
  auto spilling_config = config;
  spilling_config.buffer_memory_capacity = 64;
  SpearWindowManager spilling(spilling_config, NumericField(1), KeyField(0),
                              &storage, "keys");
  SpearWindowManager in_memory(config, NumericField(1), KeyField(0));

  Rng rng(21);
  std::map<std::string, RunningStats> exact;
  for (int i = 0; i < 1500; ++i) {
    const std::int64_t coord = i % 1000;
    const std::string key =
        std::string("g").append(std::to_string(rng.NextBounded(150)));
    const double value = 10.0 + rng.NextDouble();
    const Tuple t(coord, {Value(key), Value(value)});
    spilling.OnTuple(coord, t);
    in_memory.OnTuple(coord, t);
    exact[key].Update(value);
  }
  ASSERT_GT(storage.TotalTuples(), 0u);
  // Spilled tuples hold no id: only the in-memory buffer and the window's
  // groups do.
  EXPECT_EQ(spilling.key_dictionary().live(),
            in_memory.key_dictionary().live());

  auto spilled = spilling.OnWatermark(1000);
  auto reference = in_memory.OnWatermark(1000);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(spilled->size(), 1u);
  ASSERT_EQ(reference->size(), 1u);
  const WindowResult& r = (*spilled)[0];
  EXPECT_TRUE(r.approximate);  // the scan ran, not the exact fallback
  EXPECT_FALSE(r.degraded);
  ASSERT_EQ(r.groups.size(), exact.size());
  ASSERT_EQ((*reference)[0].groups.size(), exact.size());
  auto want = exact.begin();
  for (std::size_t g = 0; g < r.groups.size(); ++g, ++want) {
    EXPECT_EQ(r.groups[g].first, want->first);
    EXPECT_NEAR(r.groups[g].second, want->second.mean(), 1e-9);
    EXPECT_EQ((*reference)[0].groups[g].first, want->first);
    EXPECT_NEAR(r.groups[g].second, (*reference)[0].groups[g].second, 1e-9);
  }
  EXPECT_EQ(spilling.key_dictionary().live(), 0u);
  EXPECT_EQ(storage.TotalTuples(), 0u);
}

// ---- Verdict paths ---------------------------------------------------------
//
// Each scenario closes exactly one window along one path of the decision
// (accept, exact, fallback, and every way a window degrades), with the
// manager wired to every consumer of its outcomes. Every consumer must
// agree on the verdict and the flags: DecisionStats, the obs counters and
// histogram, the trace span and the WorkerMetrics fault/overload counters.

using Verdict = obs::TraceSpan::Verdict;

/// A manager wired to every consumer of its window outcomes.
struct Probe {
  MetricsRegistry registry;
  WorkerMetrics* metrics = registry.Register("stateful", 0);
  obs::WindowTracer tracer{obs::TraceOptions{}};
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<SecondaryStorage> storage;  ///< the spill target, if any
  std::unique_ptr<SpearWindowManager> mgr;

  SpearWindowManager& Wire(std::unique_ptr<SpearWindowManager> manager) {
    mgr = std::move(manager);
    mgr->SetMetrics(metrics);
    mgr->SetObservability(metrics->shard(), &tracer, "stateful", 0);
    return *mgr;
  }
};

/// One closed window and the budget the manager held before closing it.
struct Closed {
  std::unique_ptr<Probe> probe = std::make_unique<Probe>();
  std::vector<WindowResult> results;
  std::size_t budget_before = 0;
};

/// What every consumer must have recorded for the window.
struct Expected {
  Verdict verdict = Verdict::kExpedited;
  bool approximate = false;
  bool recovered = false;
  bool truncated = false;
  bool shed = false;
  bool spilled = false;
  bool deadline_abort = false;
};

/// How the adaptive controller must move after the window.
enum class BudgetMove { kGrow, kSame, kShrink };

struct VerdictCase {
  const char* name;
  std::function<void(bool adaptive, Closed*)> run;
  Expected want;
  BudgetMove controller;
};

RetryPolicy FastRetry() {
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_ns = 10'000;
  policy.max_backoff_ns = 100'000;
  return policy;
}

/// Closes every window up to `watermark`, noting the budget beforehand.
void CloseAt(std::int64_t watermark, Closed* closed) {
  closed->budget_before = closed->probe->mgr->budget_elements();
  auto results = closed->probe->mgr->OnWatermark(watermark);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  closed->results = std::move(*results);
}

/// Noisy values: a small sample cannot certify a tight ε on them.
double Noisy(Rng* rng) { return 1.0 + 3.0 * rng->NextGaussian(); }

std::vector<VerdictCase> VerdictCases() {
  std::vector<VerdictCase> cases;

  cases.push_back(
      {"expedited from a sample",
       [](bool adaptive, Closed* c) {
         auto config = BaseConfig();
         config.aggregate = AggregateSpec::Median();
         config.budget = Budget::Tuples(500);
         config.adaptive_budget = adaptive;
         auto& mgr = c->probe->Wire(
             std::make_unique<SpearWindowManager>(config, NumericField(0)));
         Rng rng(1);
         for (int i = 0; i < 20000; ++i) {
           mgr.OnTuple(i % 1000, ScalarTuple(i % 1000, rng.NextDouble()));
         }
         CloseAt(1000, c);
       },
       {Verdict::kExpedited, /*approximate=*/true},
       BudgetMove::kShrink});

  cases.push_back(
      {"exact from the incremental accumulator",
       [](bool adaptive, Closed* c) {
         auto config = BaseConfig();
         config.aggregate = AggregateSpec::Mean();
         config.adaptive_budget = adaptive;
         auto& mgr = c->probe->Wire(
             std::make_unique<SpearWindowManager>(config, NumericField(0)));
         for (int i = 0; i < 500; ++i) mgr.OnTuple(i, ScalarTuple(i, i * 0.5));
         CloseAt(1000, c);
       },
       {Verdict::kExpedited, /*approximate=*/false},
       BudgetMove::kSame});

  cases.push_back(
      {"exact fallback",
       [](bool adaptive, Closed* c) {
         auto config = BaseConfig();
         config.aggregate = AggregateSpec::Median();
         config.budget = Budget::Tuples(20);
         config.adaptive_budget = adaptive;
         auto& mgr = c->probe->Wire(
             std::make_unique<SpearWindowManager>(config, NumericField(0)));
         Rng rng(2);
         for (int i = 0; i < 5000; ++i) {
           mgr.OnTuple(i % 1000, ScalarTuple(i % 1000, rng.NextDouble()));
         }
         CloseAt(1000, c);
       },
       {Verdict::kExact, /*approximate=*/false},
       BudgetMove::kGrow});

  cases.push_back(
      {"degraded by truncation",
       [](bool adaptive, Closed* c) {
         auto config = BaseConfig();
         config.aggregate = AggregateSpec::Median();
         config.budget = Budget::Tuples(20);
         config.adaptive_budget = adaptive;
         auto& mgr = c->probe->Wire(
             std::make_unique<SpearWindowManager>(config, NumericField(0)));
         Rng rng(3);
         for (int i = 0; i < 500; ++i) {
           mgr.OnTuple(i, ScalarTuple(i, rng.NextDouble()));
         }
         mgr.NoteStreamTruncation();
         CloseAt(1000, c);
       },
       {Verdict::kDegraded, /*approximate=*/true, /*recovered=*/false,
        /*truncated=*/true},
       BudgetMove::kSame});

  cases.push_back(
      {"degraded as a recovered grouped-unknown window",
       [](bool adaptive, Closed* c) {
         auto config = BaseConfig();
         config.aggregate = AggregateSpec::Mean();
         config.adaptive_budget = adaptive;
         SpearWindowManager primary(config, NumericField(1), KeyField(0));
         Rng rng(4);
         for (int i = 0; i < 300; ++i) {
           const std::string key =
               std::string("g").append(std::to_string(i % 5));
           primary.OnTuple(i, GroupTuple(i, key, 10.0 + rng.NextDouble()));
         }
         Result<std::string> payload = primary.SnapshotState();
         ASSERT_TRUE(payload.ok()) << payload.status().ToString();
         auto& restored = c->probe->Wire(std::make_unique<SpearWindowManager>(
             config, NumericField(1), KeyField(0)));
         ASSERT_TRUE(restored.RestoreState(*payload).ok());
         CloseAt(1000, c);
       },
       {Verdict::kDegraded, /*approximate=*/true, /*recovered=*/true},
       BudgetMove::kSame});

  cases.push_back(
      {"degraded by shedding plus fallback",
       [](bool adaptive, Closed* c) {
         auto config = BaseConfig();
         config.aggregate = AggregateSpec::Mean();
         config.incremental_optimization = false;
         config.budget = Budget::Tuples(8);
         config.adaptive_budget = adaptive;
         auto& mgr = c->probe->Wire(
             std::make_unique<SpearWindowManager>(config, NumericField(0)));
         Rng rng(5);
         for (int i = 0; i < 500; ++i) {
           if (i % 50 == 0) {
             mgr.OnTupleShed(i);
           } else {
             mgr.OnTuple(i, ScalarTuple(i, Noisy(&rng)));
           }
         }
         CloseAt(1000, c);
       },
       {Verdict::kDegraded, /*approximate=*/true, /*recovered=*/false,
        /*truncated=*/false, /*shed=*/true},
       BudgetMove::kGrow});

  cases.push_back(
      {"degraded because storage stays unavailable",
       [](bool adaptive, Closed* c) {
         FaultPlan plan;
         FaultRule get_fault;
         get_fault.site = FaultSite::kStorageGet;
         get_fault.probability = 1.0;  // S is down for reads
         plan.Add(get_fault);
         c->probe->injector = std::make_unique<FaultInjector>(plan);
         c->probe->storage = std::make_unique<SecondaryStorage>();
         c->probe->storage->InjectFaults(c->probe->injector.get());
         auto config = BaseConfig();
         config.aggregate = AggregateSpec::Median();
         config.budget = Budget::Tuples(16);
         config.accuracy = AccuracySpec{0.0001, 0.95};  // always falls back
         config.buffer_memory_capacity = 16;
         config.storage_retry = FastRetry();
         config.adaptive_budget = adaptive;
         auto& mgr = c->probe->Wire(std::make_unique<SpearWindowManager>(
             config, NumericField(0), nullptr, c->probe->storage.get(),
             "down"));
         Rng rng(6);
         for (int i = 0; i < 200; ++i) {
           mgr.OnTuple(i, ScalarTuple(i, rng.NextDouble()));
         }
         CloseAt(1000, c);
       },
       {Verdict::kDegraded, /*approximate=*/true, /*recovered=*/false,
        /*truncated=*/false, /*shed=*/false, /*spilled=*/true},
       BudgetMove::kGrow});

  cases.push_back(
      {"degraded by a deadline abort",
       [](bool adaptive, Closed* c) {
         // Every call to S costs 2 ms against a 1 ms deadline, so the
         // fallback's unspill alone blows it.
         c->probe->storage = std::make_unique<SecondaryStorage>(
             StorageLatencyModel{2'000'000, 0});
         auto config = BaseConfig();
         config.aggregate = AggregateSpec::Mean();
         config.incremental_optimization = false;
         config.budget = Budget::Tuples(4);
         config.accuracy = AccuracySpec{0.05, 0.95};
         config.buffer_memory_capacity = 64;
         config.exact_deadline_ms = 1;
         config.adaptive_budget = adaptive;
         auto& mgr = c->probe->Wire(std::make_unique<SpearWindowManager>(
             config, NumericField(0), nullptr, c->probe->storage.get(),
             "slow"));
         Rng rng(7);
         for (int i = 0; i < 80; ++i) {
           mgr.OnTuple(i, ScalarTuple(i, Noisy(&rng)));
         }
         CloseAt(1000, c);
       },
       {Verdict::kDegraded, /*approximate=*/true, /*recovered=*/false,
        /*truncated=*/false, /*shed=*/false, /*spilled=*/true,
        /*deadline_abort=*/true},
       BudgetMove::kGrow});

  return cases;
}

std::uint64_t One(bool flag) { return flag ? 1u : 0u; }

TEST(SpearManagerVerdictTest, EveryConsumerRecordsTheSameVerdictAndFlags) {
  for (const VerdictCase& vc : VerdictCases()) {
    SCOPED_TRACE(vc.name);
    Closed c;
    vc.run(/*adaptive=*/false, &c);
    if (HasFatalFailure()) return;
    ASSERT_EQ(c.results.size(), 1u);
    const WindowResult& r = c.results[0];
    const Expected& want = vc.want;
    const bool degraded = want.verdict == Verdict::kDegraded;

    EXPECT_EQ(r.approximate, want.approximate);
    EXPECT_EQ(r.degraded, degraded);
    EXPECT_EQ(r.recovered, want.recovered);

    const DecisionStats& d = c.probe->mgr->decision_stats();
    EXPECT_EQ(d.windows_total, 1u);
    EXPECT_EQ(d.windows_expedited, One(want.verdict == Verdict::kExpedited));
    EXPECT_EQ(d.windows_exact, One(want.verdict == Verdict::kExact));
    EXPECT_EQ(d.windows_degraded, One(degraded));
    EXPECT_EQ(d.windows_recovered, One(want.recovered));
    EXPECT_EQ(d.windows_shed, One(want.shed));
    EXPECT_EQ(d.deadline_aborts, One(want.deadline_abort));
    EXPECT_EQ(d.tuples_processed, r.tuples_processed);

    // One shard holds every counter: WorkerMetrics' and the manager's.
    const MetricsRegistry& reg = c.probe->registry;
    EXPECT_EQ(reg.CounterTotal("windows_expedited"),
              One(want.verdict == Verdict::kExpedited));
    EXPECT_EQ(reg.CounterTotal("windows_exact"),
              One(want.verdict == Verdict::kExact));
    EXPECT_EQ(reg.CounterTotal("windows_degraded"), One(degraded));
    EXPECT_EQ(reg.CounterTotal("windows_recovered"), One(want.recovered));
    EXPECT_EQ(reg.CounterTotal("windows_shed_loss"), One(want.shed));
    EXPECT_EQ(reg.CounterTotal("deadline_aborts"), One(want.deadline_abort));
    EXPECT_EQ(c.probe->registry.GetShard("stateful", 0)
                  ->GetHistogram("window_processing_ns",
                                 obs::HistogramBuckets::LatencyNs())
                  ->count(),
              1u);

    const WorkerMetrics& m = *c.probe->metrics;
    EXPECT_EQ(m.faults().degraded_windows, One(degraded));
    EXPECT_EQ(m.overload().windows_shed_loss, One(want.shed));
    EXPECT_EQ(m.overload().deadline_aborts, One(want.deadline_abort));

    const std::vector<obs::TraceSpan> spans = c.probe->tracer.Snapshot();
    ASSERT_EQ(spans.size(), 1u);
    const obs::TraceSpan& s = spans[0];
    EXPECT_EQ(s.verdict, want.verdict);
    EXPECT_EQ(s.approximate, want.approximate);
    EXPECT_EQ(s.recovered, want.recovered);
    EXPECT_EQ(s.truncated, want.truncated);
    EXPECT_EQ(s.shed > 0, want.shed);
    EXPECT_EQ(s.spilled, want.spilled);
    EXPECT_EQ(s.deadline_abort, want.deadline_abort);
    EXPECT_EQ(s.window_start, r.bounds.start);
    EXPECT_EQ(s.window_end, r.bounds.end);
    EXPECT_EQ(s.arrivals, r.window_size);
    EXPECT_EQ(s.processed, r.tuples_processed);
    EXPECT_EQ(s.epsilon_hat, r.approximate ? r.estimated_error : 0.0);
  }
}

// Budget feedback: the controller grows exactly when the decision fell
// back to exact, even when the fallback then ended degraded; truncated
// and recovered grouped-unknown windows (degraded without a fallback) and
// exact incremental answers leave it unchanged; only an accepted sample
// estimate with ε̂_w below the shrink headroom shrinks it.
TEST(SpearManagerVerdictTest, AdaptiveBudgetGrowsExactlyOnFallbacks) {
  for (const VerdictCase& vc : VerdictCases()) {
    SCOPED_TRACE(vc.name);
    Closed c;
    vc.run(/*adaptive=*/true, &c);
    if (HasFatalFailure()) return;
    ASSERT_EQ(c.results.size(), 1u);
    const BudgetController* controller = c.probe->mgr->budget_controller();
    ASSERT_NE(controller, nullptr);
    const std::size_t after = c.probe->mgr->budget_elements();
    switch (vc.controller) {
      case BudgetMove::kGrow:
        EXPECT_EQ(after, 2 * c.budget_before);
        EXPECT_EQ(controller->grows(), 1u);
        EXPECT_EQ(controller->shrinks(), 0u);
        break;
      case BudgetMove::kSame:
        EXPECT_EQ(after, c.budget_before);
        EXPECT_EQ(controller->grows(), 0u);
        EXPECT_EQ(controller->shrinks(), 0u);
        break;
      case BudgetMove::kShrink:
        EXPECT_LT(c.results[0].estimated_error,
                  c.probe->mgr->config().adaptive_options.shrink_headroom *
                      c.probe->mgr->config().accuracy.epsilon);
        EXPECT_LT(after, c.budget_before);
        EXPECT_EQ(controller->grows(), 0u);
        EXPECT_EQ(controller->shrinks(), 1u);
        break;
    }
  }
}

}  // namespace
}  // namespace spear

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/spear_window_manager.h"
#include "ops/exact_operator.h"
#include "ops/incremental_operator.h"
#include "ops/paned_incremental.h"
#include "window/window_assigner.h"

/// Golden differential tests: every optimized execution path must agree
/// with the exact operator on identical input. Incremental accumulators
/// and pane-sharing are algebraic rewrites, so they must match to
/// floating-point accumulation tolerance on every window and every
/// aggregate; SPEAr's estimator path must match *bit-for-bit semantics*
/// (exact value, approximate=false is not required — the estimate from a
/// full sample is the exact statistic) whenever the budget covers the
/// whole window.

namespace spear {
namespace {

Tuple ScalarTuple(Timestamp t, double v) { return Tuple(t, {Value(v)}); }
Tuple GroupTuple(Timestamp t, const std::string& k, double v) {
  return Tuple(t, {Value(k), Value(v)});
}

struct Event {
  std::int64_t coord;
  double value;
  std::string key;
};

std::vector<Event> RandomStream(std::uint64_t seed, int n,
                                std::int64_t horizon, int num_keys = 4) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(n);
  for (int i = 0; i < n; ++i) {
    Event e;
    e.coord = static_cast<std::int64_t>(rng.NextDouble() * horizon);
    e.value = rng.NextDouble() * 200.0 - 50.0;
    e.key = std::string("k").append(
        std::to_string(static_cast<int>(rng.NextDouble() * num_keys)));
    events.push_back(e);
  }
  // Deliver in coordinate order so no tuple is late for any operator.
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.coord < b.coord; });
  return events;
}

/// Exact per-window scalar reference via ExactWindowOperator.
std::map<std::int64_t, double> ExactScalarByWindow(
    const AggregateSpec& spec, const WindowSpec& window,
    const std::vector<Event>& events) {
  std::map<std::int64_t, std::vector<Tuple>> windows;
  for (const Event& e : events) {
    for (const WindowBounds& w : AssignWindows(window, e.coord)) {
      windows[w.start].push_back(ScalarTuple(e.coord, e.value));
    }
  }
  ExactWindowOperator exact(spec, NumericField(0));
  std::map<std::int64_t, double> out;
  for (auto& [start, tuples] : windows) {
    CompleteWindow cw;
    cw.bounds = WindowBounds{start, start + window.range};
    cw.tuples = std::move(tuples);
    auto result = exact.Process(cw);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    out[start] = result->scalar;
  }
  return out;
}

std::vector<AggregateSpec> IncrementalAggregates() {
  return {AggregateSpec::Count(), AggregateSpec::Sum(), AggregateSpec::Mean(),
          AggregateSpec::Variance(), AggregateSpec::StdDev(),
          AggregateSpec::Min(), AggregateSpec::Max()};
}

TEST(GoldenDifferentialTest, IncrementalMatchesExactOnTumblingWindows) {
  const WindowSpec window = WindowSpec::TumblingTime(500);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto events = RandomStream(seed, 2000, 5000);
    for (const AggregateSpec& spec : IncrementalAggregates()) {
      const auto golden = ExactScalarByWindow(spec, window, events);
      IncrementalOperator inc(spec, window, NumericField(0));
      for (const Event& e : events) {
        inc.OnTuple(e.coord, ScalarTuple(e.coord, e.value));
      }
      auto results = inc.OnWatermark(10'000);
      ASSERT_TRUE(results.ok());
      ASSERT_EQ(results->size(), golden.size())
          << "seed " << seed << " agg " << static_cast<int>(spec.kind);
      for (const WindowResult& r : *results) {
        const auto it = golden.find(r.bounds.start);
        ASSERT_NE(it, golden.end());
        EXPECT_NEAR(r.scalar, it->second,
                    1e-6 * std::max(1.0, std::abs(it->second)))
            << "seed " << seed << " window " << r.bounds.start << " agg "
            << static_cast<int>(spec.kind);
      }
    }
  }
}

TEST(GoldenDifferentialTest, PanedMatchesExactOnSlidingWindows) {
  const WindowSpec window = WindowSpec::SlidingTime(600, 200);
  for (std::uint64_t seed = 11; seed <= 15; ++seed) {
    const auto events = RandomStream(seed, 2000, 4000);
    for (const AggregateSpec& spec : IncrementalAggregates()) {
      const auto golden = ExactScalarByWindow(spec, window, events);
      PanedIncrementalOperator paned(spec, window, NumericField(0));
      for (const Event& e : events) {
        paned.OnTuple(e.coord, ScalarTuple(e.coord, e.value));
      }
      auto results = paned.OnWatermark(10'000);
      ASSERT_TRUE(results.ok());
      for (const WindowResult& r : *results) {
        const auto it = golden.find(r.bounds.start);
        if (it == golden.end()) continue;  // empty-window emission policy
        EXPECT_NEAR(r.scalar, it->second,
                    1e-6 * std::max(1.0, std::abs(it->second)))
            << "seed " << seed << " window " << r.bounds.start << " agg "
            << static_cast<int>(spec.kind);
      }
    }
  }
}

TEST(GoldenDifferentialTest, PanedMatchesIncrementalOnGroupedWindows) {
  const WindowSpec window = WindowSpec::SlidingTime(400, 100);
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    const auto events = RandomStream(seed, 1500, 3000);
    IncrementalOperator inc(AggregateSpec::Sum(), window, NumericField(1),
                            KeyField(0));
    PanedIncrementalOperator paned(AggregateSpec::Sum(), window,
                                   NumericField(1), KeyField(0));
    for (const Event& e : events) {
      inc.OnTuple(e.coord, GroupTuple(e.coord, e.key, e.value));
      paned.OnTuple(e.coord, GroupTuple(e.coord, e.key, e.value));
    }
    auto a = inc.OnWatermark(10'000);
    auto b = paned.OnWatermark(10'000);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    std::map<std::int64_t, std::vector<std::pair<std::string, double>>> lhs;
    for (const WindowResult& r : *a) lhs[r.bounds.start] = r.groups;
    for (const WindowResult& r : *b) {
      const auto it = lhs.find(r.bounds.start);
      if (it == lhs.end()) {
        EXPECT_TRUE(r.groups.empty());
        continue;
      }
      ASSERT_EQ(r.groups.size(), it->second.size());
      for (std::size_t i = 0; i < r.groups.size(); ++i) {
        EXPECT_EQ(r.groups[i].first, it->second[i].first);
        EXPECT_NEAR(r.groups[i].second, it->second[i].second, 1e-6);
      }
    }
  }
}

// SPEAr's estimator path with budget b >= |S_w|: the "sample" is the
// whole window, so the estimate IS the exact statistic — the expedite
// decision may keep approximate=true, but the value must match exactly.
TEST(GoldenDifferentialTest, SpearEstimatorEqualsExactWhenBudgetCoversWindow) {
  const WindowSpec window = WindowSpec::TumblingTime(500);
  for (const AggregateSpec& spec :
       {AggregateSpec::Sum(), AggregateSpec::Mean(), AggregateSpec::Count(),
        AggregateSpec::Median()}) {
    for (std::uint64_t seed = 31; seed <= 33; ++seed) {
      const auto events = RandomStream(seed, 1200, 2500);
      const auto golden = ExactScalarByWindow(spec, window, events);

      SpearOperatorConfig config;
      config.window = window;
      config.aggregate = spec;
      config.accuracy = AccuracySpec{0.10, 0.95};
      config.budget = Budget::Tuples(5000);  // >> any window's size
      config.incremental_optimization = false;  // force the sampled path
      SpearWindowManager manager(config, NumericField(0));
      for (const Event& e : events) {
        manager.OnTuple(e.coord, ScalarTuple(e.coord, e.value));
      }
      auto results = manager.OnWatermark(10'000);
      ASSERT_TRUE(results.ok());
      ASSERT_EQ(results->size(), golden.size());
      for (const WindowResult& r : *results) {
        const auto it = golden.find(r.bounds.start);
        ASSERT_NE(it, golden.end());
        EXPECT_NEAR(r.scalar, it->second,
                    1e-9 * std::max(1.0, std::abs(it->second)))
            << "seed " << seed << " window " << r.bounds.start << " agg "
            << static_cast<int>(spec.kind);
      }
    }
  }
}

}  // namespace
}  // namespace spear

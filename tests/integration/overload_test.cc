#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <utility>
#include <memory>
#include <string>
#include <vector>

#include "core/spear_topology_builder.h"
#include "runtime/executor.h"
#include "runtime/spouts.h"
#include "runtime/windowed_bolt.h"
#include "storage/secondary_storage.h"

/// \file overload_test.cc
/// The overload-control acceptance scenarios:
///   - accuracy-aware shedding keeps exact tuple accounting and every
///     non-degraded window's claim verifies against an offline exact
///     recompute of the *full* (pre-shed) stream;
///   - under genuine 2x over-capacity ingest the subsystem keeps the run
///     flowing by shedding, while the same plan without it backpressures;
///   - the watermark watchdog converts an injected indefinite kSpoutStall
///     into a degraded emission instead of a hung DAG;
///   - a deadline-bounded exact fallback aborts cooperatively and emits
///     the window approximate + degraded, never losing it.

namespace spear {
namespace {

std::vector<Tuple> OverloadStream(int n) {
  std::vector<Tuple> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double v = 50.0 + static_cast<double>((i * 37) % 101);
    out.emplace_back(i, std::vector<Value>{Value(v)});
  }
  return out;
}

/// Offline exact per-window means of the full stream (what the engine
/// would answer with no shedding, no sampling, no loss).
std::map<std::int64_t, double> ExactWindowMeans(int n, std::int64_t range) {
  std::map<std::int64_t, std::pair<double, std::int64_t>> acc;
  for (int i = 0; i < n; ++i) {
    const double v = 50.0 + static_cast<double>((i * 37) % 101);
    auto& [sum, count] = acc[(i / range) * range];
    sum += v;
    ++count;
  }
  std::map<std::int64_t, double> means;
  for (const auto& [start, sc] : acc) {
    means[start] = sc.first / static_cast<double>(sc.second);
  }
  return means;
}

using WindowKey = std::pair<std::int64_t, std::int64_t>;

std::map<WindowKey, std::vector<double>> WindowValues(
    const std::vector<Tuple>& output) {
  std::map<WindowKey, std::vector<double>> by_window;
  for (const Tuple& t : output) {
    const WindowKey key{t.field(ResultTupleLayout::kStart).AsInt64(),
                        t.field(ResultTupleLayout::kEnd).AsInt64()};
    by_window[key].push_back(
        t.field(ResultTupleLayout::kScalarValue).AsDouble());
  }
  return by_window;
}

ShedPolicy AlwaysTrippedPolicy(double p) {
  // queue_high_watermark 0 trips on every queue observation, and
  // step == max pins the shed probability at `p` whenever tripped.
  ShedPolicy policy;
  policy.queue_high_watermark = 0.0;
  policy.shed_step = p;
  policy.max_shed_probability = p;
  return policy;
}

// Shedding with accounting: every admitted-or-shed tuple is counted
// exactly once, the shed loss surfaces in ε̂_w, and every window the
// engine does NOT flag as degraded really is within its widened bound of
// the exact answer over the full stream — sheds and all.
TEST(OverloadTest, ShedAccountingUpholdsAccuracyClaims) {
  const int n = 40000;
  const std::int64_t range = 1000;
  DecisionStatsCollector collector;

  SpearTopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(OverloadStream(n)),
                 /*watermark_interval=*/50)
      .TumblingWindowOf(range)
      .Mean(NumericField(0))
      .SetBudget(Budget::Tuples(256))
      .Error(0.25, 0.95)
      .Parallelism(1)
      .LatencySlo(50)
      .Shed(AlwaysTrippedPolicy(0.15))
      .CollectDecisions(&collector);
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Exact accounting: each input tuple was either ingested or shed.
  const DecisionStats total = collector.Total();
  EXPECT_EQ(total.tuples_seen + total.tuples_shed,
            static_cast<std::uint64_t>(n));
  EXPECT_GT(total.tuples_shed, 0u);
  EXPECT_EQ(report->overload.tuples_shed, total.tuples_shed);
  EXPECT_EQ(report->overload.windows_shed_loss, total.windows_shed);
  EXPECT_GT(report->overload.windows_shed_loss, 0u);

  // Accuracy claims against the offline exact recompute. The 0.05 slack
  // absorbs the sampling estimator's own confidence level (ε̂ holds with
  // probability α, not always).
  const auto exact = ExactWindowMeans(n, range);
  ASSERT_EQ(report->output.size(), exact.size());
  for (const Tuple& t : report->output) {
    const std::int64_t start = t.field(ResultTupleLayout::kStart).AsInt64();
    const double est = t.field(ResultTupleLayout::kScalarValue).AsDouble();
    const double eps_hat =
        t.field(ResultTupleLayout::kScalarError).AsDouble();
    const bool degraded =
        t.field(ResultTupleLayout::kScalarDegraded).AsInt64() == 1;
    if (degraded) continue;
    EXPECT_LE(eps_hat, 0.25 + 1e-9);
    const double truth = exact.at(start);
    EXPECT_LE(std::abs(est - truth) / std::abs(truth), eps_hat + 0.05)
        << "window " << start;
  }
}

void ConfigureOverCapacityQuery(SpearTopologyBuilder& builder, int n,
                                SecondaryStorage* storage) {
  builder.Source(std::make_shared<VectorSpout>(OverloadStream(n)),
                 /*watermark_interval=*/50)
      .TumblingWindowOf(500)
      .Mean(NumericField(0))
      .SetBudget(Budget::Tuples(128))
      .Error(0.25, 0.95)
      .Parallelism(1)
      .QueueCapacity(64)
      .SpillOver(48, storage);
}

// Genuine sustained over-capacity ingest: the stateful stage pays
// simulated storage latency per spill, the source does not. With overload
// control the run sheds its way back to capacity; without it the only
// relief valve is backpressure, which the blocked-push metric must show.
TEST(OverloadTest, OverCapacityIngestShedsWithControlAndBlocksWithout) {
  const int n = 10000;

  SecondaryStorage slow_on(StorageLatencyModel{100'000, 2'000});
  SpearTopologyBuilder on;
  ConfigureOverCapacityQuery(on, n, &slow_on);
  on.LatencySlo(1).Shed(ShedPolicy{/*queue_high_watermark=*/0.5,
                                   /*shed_step=*/0.3,
                                   /*shed_decay=*/0.9,
                                   /*max_shed_probability=*/0.9});
  auto on_report = Executor(std::move(*on.Build())).Run();
  ASSERT_TRUE(on_report.ok()) << on_report.status().ToString();
  EXPECT_GT(on_report->overload.tuples_shed, 0u);

  SecondaryStorage slow_off(StorageLatencyModel{100'000, 2'000});
  SpearTopologyBuilder off;
  ConfigureOverCapacityQuery(off, n, &slow_off);
  auto off_report = Executor(std::move(*off.Build())).Run();
  ASSERT_TRUE(off_report.ok()) << off_report.status().ToString();
  EXPECT_EQ(off_report->overload.tuples_shed, 0u);
  EXPECT_GT(off_report->overload.backpressure_wait_ns, 0);

  // Shedding drops tuples, never windows: both runs answer the same set.
  EXPECT_EQ(WindowValues(on_report->output).size(),
            WindowValues(off_report->output).size());
}

// The default policy's queue signal must still see a saturated input
// queue as saturated. Only that signal can trip here: the window-latency
// SLO and the watermark-lag bound it derives are far beyond anything this
// run reaches. A parked source resumes once a quarter of the queue is
// free, so the stage's pop-time occupancy stays near or above the default
// 0.75 high watermark while the slow stage lags, and it sheds over a
// quarter of the stream. A source resuming at half capacity (or only once
// the queue is empty) leaves most pops reading healthy and sheds under a
// fifth.
TEST(OverloadTest, DefaultPolicyShedsBehindSlowStatefulStage) {
  const int n = 20000;
  SecondaryStorage slow(StorageLatencyModel{100'000, 2'000});
  SpearTopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(OverloadStream(n)),
                 /*watermark_interval=*/50)
      .TumblingWindowOf(500)
      .Mean(NumericField(0))
      .SetBudget(Budget::Tuples(128))
      .Error(0.25, 0.95)
      .Parallelism(1)
      .SpillOver(48, &slow)
      .LatencySlo(600'000)
      .Shed(ShedPolicy{});
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->overload.tuples_shed, static_cast<std::uint64_t>(n / 4));
  EXPECT_LT(report->overload.tuples_shed, static_cast<std::uint64_t>(n));
}

FaultPlan StallPlan(std::int64_t stall_bound_ns) {
  FaultPlan plan;
  plan.seed = 11;
  FaultRule stall;
  stall.site = FaultSite::kSpoutStall;
  stall.every_nth = 7000;
  stall.max_fires = 1;
  stall.extra_latency_ns = stall_bound_ns;  // 0 = stalled until cancelled
  plan.Add(stall);
  return plan;
}

// An indefinitely stalled source would hang the DAG forever; the
// watchdog declares it stalled after the idle timeout, closes the stream
// abnormally, and the open windows emit degraded instead of never.
TEST(OverloadTest, WatchdogClosesStalledSourceWithDegradedEmission) {
  const int n = 10000;

  SpearTopologyBuilder clean;
  clean.Source(std::make_shared<VectorSpout>(OverloadStream(n)),
               /*watermark_interval=*/50)
      .TumblingWindowOf(1000)
      .Mean(NumericField(0))
      .SetBudget(Budget::Tuples(64))
      .Error(0.20, 0.95);
  auto clean_report = Executor(std::move(*clean.Build())).Run();
  ASSERT_TRUE(clean_report.ok()) << clean_report.status().ToString();

  FaultPlan plan = StallPlan(/*stall_bound_ns=*/0);
  ASSERT_TRUE(plan.Validate().ok());
  FaultInjector injector(plan);
  SpearTopologyBuilder stalled;
  stalled.Source(std::make_shared<VectorSpout>(OverloadStream(n)),
                 /*watermark_interval=*/50)
      .TumblingWindowOf(1000)
      .Mean(NumericField(0))
      .SetBudget(Budget::Tuples(64))
      .Error(0.20, 0.95)
      .InjectFaults(&injector)
      .WatermarkWatchdog(100);
  auto report = Executor(std::move(*stalled.Build())).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(injector.fired(FaultSite::kSpoutStall), 1u);
  EXPECT_EQ(report->overload.watchdog_advances, 1u);

  // The truncated stream answers fewer windows than the clean run, and
  // the windows open at the stall are flagged, not silently wrong.
  const auto stalled_windows = WindowValues(report->output);
  const auto clean_windows = WindowValues(clean_report->output);
  EXPECT_LT(stalled_windows.size(), clean_windows.size());
  EXPECT_GE(stalled_windows.size(), 1u);
  std::uint64_t degraded = 0;
  for (const Tuple& t : report->output) {
    degraded += static_cast<std::uint64_t>(
        t.field(ResultTupleLayout::kScalarDegraded).AsInt64());
  }
  EXPECT_GE(degraded, 1u);
}

// The negative: a *bounded* stall is just latency. Without a watchdog the
// run rides it out and answers every window.
TEST(OverloadTest, BoundedStallWithoutWatchdogCompletesIntact) {
  const int n = 10000;
  FaultPlan plan = StallPlan(/*stall_bound_ns=*/300'000'000);
  FaultInjector injector(plan);

  SpearTopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(OverloadStream(n)),
                 /*watermark_interval=*/50)
      .TumblingWindowOf(1000)
      .Mean(NumericField(0))
      .SetBudget(Budget::Tuples(64))
      .Error(0.20, 0.95)
      .InjectFaults(&injector);
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(injector.fired(FaultSite::kSpoutStall), 1u);
  EXPECT_EQ(report->overload.watchdog_advances, 0u);
  EXPECT_EQ(WindowValues(report->output).size(),
            static_cast<std::size_t>(n / 1000));
}

// Deadline-bounded exact fallback: a tiny budget at a tight ε forces the
// exact path for every window (sampled mode — the incremental fast path
// would answer exactly without ever touching storage), and slow storage
// makes each fallback blow the deadline on its unspill. The abort is
// cooperative — the window is emitted from its budget state, approximate
// and degraded, never dropped.
TEST(OverloadTest, DeadlineAbortEmitsApproximateDegradedWindows) {
  const int n = 900;
  const std::int64_t range = 300;

  SecondaryStorage slow(StorageLatencyModel{2'000'000, 0});
  SpearTopologyBuilder bounded;
  bounded.Source(std::make_shared<VectorSpout>(OverloadStream(n)),
                 /*watermark_interval=*/50)
      .TumblingWindowOf(range)
      .Mean(NumericField(0))
      .DisableIncrementalOptimization()
      .SetBudget(Budget::Tuples(4))
      .Error(0.05, 0.95)
      .SpillOver(64, &slow)
      .ExactDeadline(1);
  auto report = Executor(std::move(*bounded.Build())).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->overload.deadline_aborts, 1u);

  const auto windows = WindowValues(report->output);
  EXPECT_EQ(windows.size(), static_cast<std::size_t>(n / range));
  std::uint64_t degraded_approx = 0;
  for (const Tuple& t : report->output) {
    const bool approx =
        t.field(ResultTupleLayout::kScalarApprox).AsInt64() == 1;
    const bool degraded =
        t.field(ResultTupleLayout::kScalarDegraded).AsInt64() == 1;
    if (approx && degraded) ++degraded_approx;
  }
  EXPECT_GE(degraded_approx, report->overload.deadline_aborts);

  // Without the deadline the same plan runs every fallback to completion:
  // exact answers, zero aborts. (The tolerance is summation order — the
  // unspilled run is appended behind the in-memory suffix.)
  SecondaryStorage slow_unbounded(StorageLatencyModel{2'000'000, 0});
  SpearTopologyBuilder unbounded;
  unbounded.Source(std::make_shared<VectorSpout>(OverloadStream(n)),
                   /*watermark_interval=*/50)
      .TumblingWindowOf(range)
      .Mean(NumericField(0))
      .DisableIncrementalOptimization()
      .SetBudget(Budget::Tuples(4))
      .Error(0.05, 0.95)
      .SpillOver(64, &slow_unbounded);
  auto exact_report = Executor(std::move(*unbounded.Build())).Run();
  ASSERT_TRUE(exact_report.ok()) << exact_report.status().ToString();
  EXPECT_EQ(exact_report->overload.deadline_aborts, 0u);

  const auto exact = ExactWindowMeans(n, range);
  for (const Tuple& t : exact_report->output) {
    EXPECT_EQ(t.field(ResultTupleLayout::kScalarApprox).AsInt64(), 0);
    const std::int64_t start = t.field(ResultTupleLayout::kStart).AsInt64();
    EXPECT_NEAR(t.field(ResultTupleLayout::kScalarValue).AsDouble(),
                exact.at(start), 1e-6);
  }
}

}  // namespace
}  // namespace spear

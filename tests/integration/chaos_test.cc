#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/spear_topology_builder.h"
#include "core/spear_window_manager.h"
#include "runtime/executor.h"
#include "runtime/spouts.h"
#include "storage/secondary_storage.h"

namespace spear {
namespace {

/// A deterministic numeric stream: event_time = i ms, one double field.
std::vector<Tuple> ChaosStream(int n) {
  std::vector<Tuple> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double v = static_cast<double>((i * 37) % 101);
    out.emplace_back(i, std::vector<Value>{Value(v)});
  }
  return out;
}

RetryPolicy FastRetry(int max_attempts) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.initial_backoff_ns = 10'000;  // 10 us — keep tests fast
  policy.max_backoff_ns = 100'000;
  return policy;
}

void ConfigureQuery(SpearTopologyBuilder& builder, int n,
                    SecondaryStorage* storage) {
  builder.Source(std::make_shared<VectorSpout>(ChaosStream(n)),
                 /*watermark_interval=*/50)
      .TumblingWindowOf(100)
      .Mean(NumericField(0))
      .SetBudget(Budget::Tuples(32))
      .Error(0.20, 0.95)
      .ValidateTuples(RequireNumericFields({0}))
      .SpillOver(/*memory_capacity=*/24, storage)
      .StorageRetry(FastRetry(4))
      .StageRetry(FastRetry(4))
      .Parallelism(1);
}

// The PR's acceptance scenario: a seeded chaos run — transient storage
// faults plus one poison tuple — must complete, quarantine the poison,
// recover every retried store, and produce byte-identical results to the
// fault-free run of the same query (injection only perturbs delivery,
// never the data the windows see).
TEST(ChaosTest, SeededChaosRunMatchesFaultFreeByteForByte) {
  const int n = 2000;

  SecondaryStorage clean_storage;
  SpearTopologyBuilder clean;
  ConfigureQuery(clean, n, &clean_storage);
  auto clean_report = Executor(std::move(*clean.Build())).Run();
  ASSERT_TRUE(clean_report.ok()) << clean_report.status().ToString();
  ASSERT_FALSE(clean_report->output.empty());

  FaultPlan plan;
  plan.seed = 7;
  FaultRule store_fault;
  store_fault.site = FaultSite::kStorageStore;
  store_fault.every_nth = 7;
  plan.Add(store_fault);
  FaultRule poison;
  poison.site = FaultSite::kSpoutMalformed;
  poison.every_nth = 997;
  poison.max_fires = 1;
  plan.Add(poison);
  ASSERT_TRUE(plan.Validate().ok());
  FaultInjector injector(plan);

  SecondaryStorage chaos_storage;
  chaos_storage.InjectFaults(&injector);
  SpearTopologyBuilder chaos;
  ConfigureQuery(chaos, n, &chaos_storage);
  chaos.InjectFaults(&injector);
  auto chaos_report = Executor(std::move(*chaos.Build())).Run();
  ASSERT_TRUE(chaos_report.ok()) << chaos_report.status().ToString();

  // The poison tuple is quarantined, not lost in the window results.
  ASSERT_EQ(chaos_report->dead_letters.size(), 1u);
  const DeadLetter& dl = chaos_report->dead_letters[0];
  EXPECT_EQ(dl.stage, "stateful");
  EXPECT_TRUE(dl.error.IsInvalid());
  ASSERT_EQ(dl.tuple.num_fields(), 1u);
  ASSERT_TRUE(dl.tuple.field(0).is_string());
  EXPECT_EQ(dl.tuple.field(0).AsString(), "__poison__");

  EXPECT_GT(chaos_report->faults.injected, 0u);
  EXPECT_GT(chaos_report->faults.retries, 0u);
  EXPECT_GT(chaos_report->faults.recovered, 0u);
  EXPECT_EQ(chaos_report->faults.quarantined, 1u);
  EXPECT_EQ(chaos_report->faults.degraded_windows, 0u);

  // Every retried store eventually succeeded, so both runs spilled the
  // same tuples and computed the same windows: identical output, tuple for
  // tuple, every field value equal.
  EXPECT_EQ(chaos_report->output, clean_report->output);
}

// When the exact fallback is blocked (spilled state unavailable after
// retries), the window degrades to the budget-state estimate instead of
// failing the run, and the result is flagged.
TEST(ChaosTest, UnavailableSpillStateDegradesToApproximate) {
  FaultPlan plan;
  FaultRule get_fault;
  get_fault.site = FaultSite::kStorageGet;
  get_fault.probability = 1.0;  // S is down for reads, permanently
  plan.Add(get_fault);
  FaultInjector injector(plan);

  SecondaryStorage storage;
  storage.InjectFaults(&injector);

  SpearTopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(ChaosStream(1000)),
                 /*watermark_interval=*/50)
      .TumblingWindowOf(100)
      .Median(NumericField(0))
      .SetBudget(Budget::Tuples(16))
      .Error(0.0001, 0.95)  // unmeetable: every window wants exact fallback
      .SpillOver(/*memory_capacity=*/16, &storage)
      .StorageRetry(FastRetry(2))
      .Parallelism(1);
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->output.empty());
  EXPECT_TRUE(report->dead_letters.empty());
  EXPECT_GT(report->faults.degraded_windows, 0u);

  for (const Tuple& t : report->output) {
    EXPECT_EQ(t.field(ResultTupleLayout::kScalarApprox).AsInt64(), 1);
    EXPECT_EQ(t.field(ResultTupleLayout::kScalarDegraded).AsInt64(), 1);
    // ε̂_w documents the (unmet) accuracy of the degraded estimate.
    const double value = t.field(ResultTupleLayout::kScalarValue).AsDouble();
    EXPECT_TRUE(std::isfinite(value));
  }
}

// The converse degradation: when the budget state is corrupted, the
// window falls back to exact execution from the raw buffer.
TEST(ChaosTest, CorruptedBudgetStateFallsBackToExact) {
  SpearOperatorConfig config;
  config.window = WindowSpec::TumblingTime(100);
  config.aggregate = AggregateSpec::Median();
  config.budget = Budget::Tuples(8);
  config.accuracy = AccuracySpec{0.90, 0.95};  // would normally expedite

  SpearWindowManager manager(config, NumericField(0));
  for (int i = 0; i < 100; ++i) {
    manager.OnTuple(i, Tuple(i, {Value(static_cast<double>(i))}));
  }
  manager.CorruptBudgetForTesting();
  auto results = manager.OnWatermark(200);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 1u);
  const WindowResult& result = (*results)[0];
  EXPECT_FALSE(result.approximate);
  EXPECT_FALSE(result.degraded);
  EXPECT_DOUBLE_EQ(result.scalar, 49.5);  // exact (interpolated) median of 0..99
  EXPECT_EQ(manager.decision_stats().windows_exact, 1u);
}

// Duplicate and late tuples from the spout stress the window path but
// must never wedge or fail the run.
TEST(ChaosTest, DuplicateAndLateTuplesDoNotFailTheRun) {
  FaultPlan plan;
  FaultRule dup;
  dup.site = FaultSite::kSpoutDuplicate;
  dup.every_nth = 50;
  plan.Add(dup);
  FaultRule late;
  late.site = FaultSite::kSpoutLate;
  late.every_nth = 75;
  late.lateness_ms = 200;
  plan.Add(late);
  FaultInjector injector(plan);

  SpearTopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(ChaosStream(1000)),
                 /*watermark_interval=*/50, /*max_lateness=*/250)
      .TumblingWindowOf(100)
      .Mean(NumericField(0))
      .SetBudget(Budget::Tuples(32))
      .Error(0.20, 0.95)
      .InjectFaults(&injector)
      .Parallelism(1);
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->output.empty());
  EXPECT_GT(report->faults.injected, 0u);
  EXPECT_EQ(injector.total_fired(),
            injector.fired(FaultSite::kSpoutDuplicate) +
                injector.fired(FaultSite::kSpoutLate));
}

}  // namespace
}  // namespace spear

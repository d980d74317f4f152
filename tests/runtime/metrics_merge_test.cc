#include "runtime/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/fault.h"
#include "common/retry_policy.h"
#include "core/spear_topology_builder.h"
#include "core/spear_window_manager.h"
#include "runtime/executor.h"
#include "runtime/spouts.h"
#include "storage/secondary_storage.h"

/// One counter per event: every FaultStats / OverloadStats field a worker
/// counts lives in exactly one shard series, and RunReport's totals are
/// sums of those series. A field whose adder wrote a series the summing
/// table does not name would silently vanish from RunReport (exactly how
/// spill_failures once went missing); this suite catches that per field.

namespace spear {
namespace {

/// One counted field: how a worker adds to it and how to read its total.
struct CountedField {
  const char* name;
  std::function<void(WorkerMetrics*, std::uint64_t)> add;
  std::function<std::uint64_t(const FaultStats&, const OverloadStats&)> total;
};

std::vector<CountedField> CountedFields() {
  using F = const FaultStats&;
  using O = const OverloadStats&;
  return {
      {"retries", [](WorkerMetrics* m, std::uint64_t n) { m->AddRetries(n); },
       [](F f, O) { return f.retries; }},
      {"recovered",
       [](WorkerMetrics* m, std::uint64_t n) { m->AddRecovered(n); },
       [](F f, O) { return f.recovered; }},
      {"quarantined",
       [](WorkerMetrics* m, std::uint64_t n) { m->AddQuarantined(n); },
       [](F f, O) { return f.quarantined; }},
      {"degraded_windows",
       [](WorkerMetrics* m, std::uint64_t n) { m->AddDegradedWindows(n); },
       [](F f, O) { return f.degraded_windows; }},
      {"worker_restarts",
       [](WorkerMetrics* m, std::uint64_t n) { m->AddWorkerRestarts(n); },
       [](F f, O) { return f.worker_restarts; }},
      {"snapshots",
       [](WorkerMetrics* m, std::uint64_t n) { m->AddSnapshots(n); },
       [](F f, O) { return f.snapshots; }},
      {"spill_failures",
       [](WorkerMetrics* m, std::uint64_t n) { m->AddSpillFailures(n); },
       [](F f, O) { return f.spill_failures; }},
      {"tuples_shed",
       [](WorkerMetrics* m, std::uint64_t n) { m->AddTuplesShed(n); },
       [](F, O o) { return o.tuples_shed; }},
      {"windows_shed_loss",
       [](WorkerMetrics* m, std::uint64_t n) { m->AddWindowsShedLoss(n); },
       [](F, O o) { return o.windows_shed_loss; }},
      {"deadline_aborts",
       [](WorkerMetrics* m, std::uint64_t n) { m->AddDeadlineAborts(n); },
       [](F, O o) { return o.deadline_aborts; }},
      {"backpressure_wait_ns",
       [](WorkerMetrics* m, std::uint64_t n) {
         m->AddBackpressureNs(static_cast<std::int64_t>(n));
       },
       [](F, O o) {
         return static_cast<std::uint64_t>(o.backpressure_wait_ns);
       }},
  };
}

using SeriesKey = std::tuple<std::string, std::string, int>;

std::map<SeriesKey, double> Counters(const MetricsRegistry& registry) {
  std::map<SeriesKey, double> out;
  for (const obs::MetricSample& s : registry.Collect()) {
    if (s.kind == obs::MetricSample::Kind::kCounter) {
      out[{s.name, s.stage, s.task}] = s.value;
    }
  }
  return out;
}

RetryPolicy FastRetry(int max_attempts) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.initial_backoff_ns = 10'000;
  policy.max_backoff_ns = 100'000;
  return policy;
}

/// A `.Metrics()` run that retries, quarantines, snapshots and restarts
/// a worker, with two stateful workers behind a two-slot queue.
Result<RunReport> ChaosRunWithMetrics() {
  std::vector<Tuple> stream;
  for (int i = 0; i < 3000; ++i) {
    stream.emplace_back(
        i, std::vector<Value>{Value(static_cast<double>((i * 37) % 101))});
  }
  FaultPlan plan;
  plan.seed = 11;
  FaultRule store_fault;  // transient: retried, then recovered
  store_fault.site = FaultSite::kStorageStore;
  store_fault.every_nth = 7;
  plan.Add(store_fault);
  FaultRule poison;  // quarantined
  poison.site = FaultSite::kSpoutMalformed;
  poison.every_nth = 997;
  plan.Add(poison);
  FaultRule crash;  // restarted from a snapshot
  crash.site = FaultSite::kWorkerCrash;
  crash.every_nth = 1100;
  crash.max_fires = 1;
  plan.Add(crash);
  FaultInjector injector(plan);
  SecondaryStorage storage;
  storage.InjectFaults(&injector);

  CheckpointConfig ckpt;
  ckpt.interval = 200;
  SpearTopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(std::move(stream)), 50)
      .TumblingWindowOf(100)
      .Mean(NumericField(0))
      .SetBudget(Budget::Tuples(32))
      .Error(0.20, 0.95)
      .ValidateTuples(RequireNumericFields({0}))
      .SpillOver(/*memory_capacity=*/24, &storage)
      .StorageRetry(FastRetry(4))
      .StageRetry(FastRetry(4))
      .Parallelism(2)
      .QueueCapacity(2)
      .InjectFaults(&injector)
      .Checkpoint(ckpt)
      .Metrics();
  return Executor(std::move(*builder.Build())).Run();
}

// Table-driven over every counted field. With two workers plus the source
// counting one field at a time, the field's adder moves exactly one series
// name (in each shard, by what it added), and the summing table carries
// the sum into that field's total only. In a `.Metrics()` run, each
// RunReport field equals the sum of its series over every shard.
TEST(MetricsMergeTest, EveryWorkerAdderReachesTheTotals) {
  for (const CountedField& field : CountedFields()) {
    SCOPED_TRACE(field.name);
    MetricsRegistry registry;
    WorkerMetrics* w0 = registry.Register("stateful", 0);
    WorkerMetrics* w1 = registry.Register("stateful", 1);
    WorkerMetrics* source = registry.Register("source", 0);
    const std::map<SeriesKey, double> before = Counters(registry);

    field.add(w0, 3);
    field.add(w1, 4);
    field.add(source, 5);
    const std::map<SeriesKey, double> after = Counters(registry);

    ASSERT_EQ(after.size(), before.size());  // no series created lazily
    std::map<std::string, double> moved;  // series name -> total delta
    for (const auto& [key, value] : after) {
      const double delta = value - before.at(key);
      if (delta != 0.0) moved[std::get<0>(key)] += delta;
    }
    ASSERT_EQ(moved.size(), 1u);
    EXPECT_EQ(moved.begin()->second, 12.0);

    FaultStats faults;
    OverloadStats overload;
    SumCountedSeries(registry.Collect(), &faults, &overload);
    for (const CountedField& other : CountedFields()) {
      EXPECT_EQ(other.total(faults, overload),
                std::string(other.name) == field.name ? 12u : 0u)
          << other.name;
    }
    // A worker's own view reads the same counter.
    EXPECT_EQ(field.total(w0->faults(), w0->overload()), 3u);
  }

  Result<RunReport> report = ChaosRunWithMetrics();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->faults.retries, 0u);
  EXPECT_GT(report->faults.quarantined, 0u);
  EXPECT_GT(report->faults.snapshots, 0u);
  EXPECT_EQ(report->faults.worker_restarts, 1u);

  FaultStats faults;
  OverloadStats overload;
  WorkerMetrics::ForEachCountedField(
      faults, overload, [&](WorkerMetrics::Event event, auto& field) {
        for (const obs::MetricSample& s : report->observability.metrics) {
          if (s.kind == obs::MetricSample::Kind::kCounter &&
              s.name == WorkerMetrics::kSeries[event]) {
            field += static_cast<std::decay_t<decltype(field)>>(s.value);
          }
        }
      });
  for (const CountedField& field : CountedFields()) {
    EXPECT_EQ(field.total(report->faults, report->overload),
              field.total(faults, overload))
        << field.name;
  }
}

// The field that used to be dropped: a SpearWindowManager spill failure
// (S unavailable past its retries) must reach WorkerMetrics and thus the
// run's scrape, not just the manager's private counter.
TEST(MetricsMergeTest, ManagerSpillFailuresReachWorkerMetrics) {
  SecondaryStorage storage;
  FaultPlan plan;
  FaultRule rule;
  rule.site = FaultSite::kStorageStore;
  rule.probability = 1.0;  // every spill attempt fails
  plan.Add(rule);
  FaultInjector injector(plan);
  storage.InjectFaults(&injector);

  SpearOperatorConfig config;
  config.window = WindowSpec::TumblingTime(1000);
  config.aggregate = AggregateSpec::Mean();
  config.accuracy = AccuracySpec{0.10, 0.95};
  config.budget = Budget::Tuples(16);
  config.buffer_memory_capacity = 8;  // force spilling almost immediately
  config.storage_retry = RetryPolicy::None();

  SpearWindowManager manager(config, NumericField(0), nullptr, &storage,
                             "merge-test");
  MetricsRegistry registry;
  WorkerMetrics* worker = registry.Register("stateful", 0);
  manager.SetMetrics(worker);

  for (int i = 0; i < 64; ++i) {
    manager.OnTuple(i, Tuple(i, {Value(i * 1.0)}));
  }

  EXPECT_GT(worker->faults().spill_failures, 0u);
  FaultStats faults;
  OverloadStats overload;
  SumCountedSeries(registry.Collect(), &faults, &overload);
  EXPECT_EQ(faults.spill_failures, worker->faults().spill_failures);
}

}  // namespace
}  // namespace spear

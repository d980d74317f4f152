#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "core/spear_topology_builder.h"
#include "data/datasets.h"
#include "runtime/executor.h"
#include "runtime/replay_log.h"
#include "runtime/spouts.h"
#include "runtime/topology.h"
#include "runtime/windowed_bolt.h"

/// \file recovery_test.cc
/// The PR's acceptance scenario: seeded crash-chaos. kWorkerCrash kills
/// stateful workers mid-run; with checkpointing enabled the run completes,
/// every window is answered exactly once, recovered windows either meet
/// ε or are flagged, and the recovery count matches the injected crashes.
/// With checkpointing disabled, the same plan fails the run — the
/// subsystem is load-bearing.
///
/// scripts/check_recovery.sh sweeps SPEAR_RECOVERY_SEED to vary the crash
/// points across runs.

namespace spear {
namespace {

std::uint64_t RecoverySeed() {
  const char* env = std::getenv("SPEAR_RECOVERY_SEED");
  if (env == nullptr) return 7;
  return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
}

std::vector<Tuple> RecoveryStream(int n) {
  std::vector<Tuple> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double v = static_cast<double>((i * 37) % 101);
    out.emplace_back(i, std::vector<Value>{Value(v)});
  }
  return out;
}

void ConfigureRecoveryQuery(SpearTopologyBuilder& builder, int n,
                            DurationMs max_lateness = 0) {
  builder.Source(std::make_shared<VectorSpout>(RecoveryStream(n)),
                 /*watermark_interval=*/50, max_lateness)
      .TumblingWindowOf(100)
      .Mean(NumericField(0))
      .SetBudget(Budget::Tuples(32))
      .Error(0.20, 0.95)
      .Parallelism(2);
}

FaultPlan CrashPlan(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  FaultRule crash;
  crash.site = FaultSite::kWorkerCrash;
  // Deterministic fire count at seed-dependent crash points, always well
  // past the first snapshot (first windows close around tuple ~150).
  crash.every_nth = 700 + seed % 211;
  crash.max_fires = 3;
  plan.Add(crash);
  return plan;
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
  for (auto& [key, values] : by_window) std::sort(values.begin(), values.end());
  return by_window;
}

TEST(RecoveryTest, CrashChaosRunMatchesCleanRunWithExactlyOnceWindows) {
  const int n = 4000;
  const std::uint64_t seed = RecoverySeed();
  // Watermarks trail the stream by one window. Snapshots are taken at
  // window boundaries (interval 100 from the first watermark), so each
  // holds the open window on both workers, and that window stays open
  // until the next snapshot: whichever worker a crash hits restores it.
  // (With watermarks right behind the stream, tuple t = W, last before
  // watermark W, always goes to task 0, so task 1's snapshots never held
  // an open window.)
  const DurationMs lateness = 100;

  SpearTopologyBuilder clean;
  ConfigureRecoveryQuery(clean, n, lateness);
  auto clean_report = Executor(std::move(*clean.Build())).Run();
  ASSERT_TRUE(clean_report.ok()) << clean_report.status().ToString();
  ASSERT_FALSE(clean_report->output.empty());

  FaultPlan plan = CrashPlan(seed);
  ASSERT_TRUE(plan.Validate().ok());
  FaultInjector injector(plan);

  CheckpointConfig ckpt;
  ckpt.interval = 100;
  SpearTopologyBuilder chaos;
  ConfigureRecoveryQuery(chaos, n, lateness);
  chaos.InjectFaults(&injector).Checkpoint(ckpt);
  auto chaos_report = Executor(std::move(*chaos.Build())).Run();
  ASSERT_TRUE(chaos_report.ok()) << chaos_report.status().ToString();

  // Every injected crash was recovered, and ≥ 2 workers died mid-run.
  const std::uint64_t crashes = injector.fired(FaultSite::kWorkerCrash);
  EXPECT_GE(crashes, 2u);
  EXPECT_EQ(chaos_report->recoveries, crashes);
  EXPECT_EQ(chaos_report->faults.worker_restarts, crashes);
  EXPECT_GT(chaos_report->faults.snapshots, 0u);

  // Exactly-once window delivery: each window appears once per stateful
  // worker (parallelism 2, shuffle round-robin feeds both), crash or not.
  const auto clean_windows = WindowValues(clean_report->output);
  const auto chaos_windows = WindowValues(chaos_report->output);
  ASSERT_EQ(chaos_windows.size(), clean_windows.size());
  for (const auto& [key, clean_values] : clean_windows) {
    ASSERT_EQ(clean_values.size(), 2u)
        << "window [" << key.first << "," << key.second << ")";
    auto it = chaos_windows.find(key);
    ASSERT_NE(it, chaos_windows.end())
        << "window [" << key.first << "," << key.second << ") missing";
    ASSERT_EQ(it->second.size(), 2u)
        << "window [" << key.first << "," << key.second
        << ") not answered exactly once per worker";
    // Full replay (no log overflow) rebuilds the incremental accumulators
    // tuple for tuple: recovered means still equal the clean run.
    for (std::size_t w = 0; w < 2; ++w) {
      EXPECT_DOUBLE_EQ(it->second[w], clean_values[w])
          << "window [" << key.first << "," << key.second << ")";
    }
  }

  // Accuracy accounting: every window either meets ε or is flagged.
  for (const Tuple& t : chaos_report->output) {
    const double eps_hat =
        t.field(ResultTupleLayout::kScalarError).AsDouble();
    const bool degraded =
        t.field(ResultTupleLayout::kScalarDegraded).AsInt64() == 1;
    if (!degraded) {
      EXPECT_LE(eps_hat, 0.20 + 1e-9);
    }
  }
  // Every restarted worker restored an open window, so it emits at least
  // one result carrying the recovered flag. Sink outputs are merged in
  // task order, each worker contributing its tuples_out results.
  std::size_t offset = 0;
  for (const WorkerMetrics* worker :
       chaos_report->metrics.ForStage("stateful")) {
    std::uint64_t recovered_flags = 0;
    for (std::size_t k = 0; k < worker->tuples_out(); ++k) {
      recovered_flags += static_cast<std::uint64_t>(
          chaos_report->output[offset + k]
              .field(ResultTupleLayout::kScalarRecovered)
              .AsInt64());
    }
    offset += worker->tuples_out();
    if (worker->faults().worker_restarts > 0) {
      EXPECT_GE(recovered_flags, 1u) << "task " << worker->task_id();
    }
  }
  ASSERT_EQ(offset, chaos_report->output.size());
}

/// A counter's value summed over every worker's series in a scrape.
std::uint64_t CounterSum(const std::vector<obs::MetricSample>& scrape,
                         const std::string& name) {
  std::uint64_t total = 0;
  for (const obs::MetricSample& sample : scrape) {
    if (sample.name == name) total += static_cast<std::uint64_t>(sample.value);
  }
  return total;
}

// Recovery's catch-up re-closes windows that were delivered before the
// crash; their results are discarded, and so must be their records
// outside the operator. Every delivered window has exactly one trace
// span, one window-time sample and one obs window count, crash or not.
TEST(RecoveryTest, CatchUpChaosRecordsEachDeliveredWindowOnce) {
  FaultPlan plan = CrashPlan(RecoverySeed());
  FaultInjector injector(plan);
  CheckpointConfig ckpt;
  ckpt.interval = 300;
  SpearTopologyBuilder builder;
  ConfigureRecoveryQuery(builder, 4000, 0);
  builder.InjectFaults(&injector).Checkpoint(ckpt).Metrics().Trace();
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->recoveries, 2u);

  // Scalar mean: one result tuple per delivered window.
  const std::size_t windows = report->output.size();
  ASSERT_GT(windows, 0u);
  const obs::ObservabilityReport& observed = report->observability;
  EXPECT_EQ(observed.spans_sampled_out + observed.spans_dropped, 0u);
  EXPECT_EQ(observed.spans.size(), windows);
  std::size_t window_ns_samples = 0;
  for (const WorkerMetrics* worker : report->metrics.ForStage("stateful")) {
    window_ns_samples += worker->window_ns().size();
  }
  EXPECT_EQ(window_ns_samples, windows);
  std::uint64_t counted = 0;
  for (const char* verdict :
       {"windows_expedited", "windows_exact", "windows_degraded"}) {
    counted += CounterSum(observed.metrics, verdict);
  }
  EXPECT_EQ(counted, windows);
  // Replayed tuples were counted on first delivery: ingest counts every
  // input tuple once.
  EXPECT_EQ(CounterSum(observed.metrics, "tuples_seen"), 4000u);
}

// The load-bearing negative: the same crash plan without checkpointing
// must fail the run — recovery is doing real work above, not the fault
// being cosmetic.
TEST(RecoveryTest, SameCrashPlanWithoutCheckpointingFailsTheRun) {
  const int n = 4000;
  FaultPlan plan = CrashPlan(RecoverySeed());
  FaultInjector injector(plan);

  SpearTopologyBuilder builder;
  ConfigureRecoveryQuery(builder, n);
  builder.InjectFaults(&injector);  // no .Checkpoint(...)
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInternal());
  EXPECT_NE(report.status().message().find("worker crash"),
            std::string::npos);
}

// A worker whose recovery budget is exhausted stops recovering and fails
// the run with a diagnosable error.
TEST(RecoveryTest, RecoveryBudgetExhaustionCancelsTheRun) {
  const int n = 4000;
  FaultPlan plan;
  plan.seed = 1;
  FaultRule crash;
  crash.site = FaultSite::kWorkerCrash;
  crash.every_nth = 200;  // crashes keep coming
  plan.Add(crash);
  FaultInjector injector(plan);

  CheckpointConfig ckpt;
  ckpt.interval = 100;
  ckpt.max_recoveries_per_worker = 2;
  SpearTopologyBuilder builder;
  ConfigureRecoveryQuery(builder, n);
  builder.InjectFaults(&injector).Checkpoint(ckpt);
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("recovery budget exhausted"),
            std::string::npos);
}

// A crushed replay log forces lossy recovery: the run still completes
// and the loss surfaces as flagged windows with inflated ε̂, not as
// silently wrong results. The snapshot interval is effectively infinite
// (one snapshot at the first watermark, never again), so wherever a
// crash lands — thread interleaving moves the exact tick a worker dies
// at — the gap back to the snapshot dwarfs the 4-tuple replay log and
// loss is guaranteed.
TEST(RecoveryTest, LossyRecoveryFlagsWindowsInsteadOfLyingAboutThem) {
  const int n = 4000;
  FaultPlan plan = CrashPlan(3);
  FaultInjector injector(plan);

  CheckpointConfig ckpt;
  ckpt.interval = 1'000'000'000;
  ckpt.max_replay_tuples = 4;  // nearly everything since the snapshot is lost
  SpearTopologyBuilder builder;
  ConfigureRecoveryQuery(builder, n);
  builder.InjectFaults(&injector).Checkpoint(ckpt);
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->recoveries, injector.fired(FaultSite::kWorkerCrash));

  std::uint64_t flagged = 0;
  for (const Tuple& t : report->output) {
    if (t.field(ResultTupleLayout::kScalarRecovered).AsInt64() == 1) {
      ++flagged;
      const bool degraded =
          t.field(ResultTupleLayout::kScalarDegraded).AsInt64() == 1;
      const double eps_hat =
          t.field(ResultTupleLayout::kScalarError).AsDouble();
      EXPECT_TRUE(degraded || eps_hat <= 0.20 + 1e-9);
    }
  }
  EXPECT_GE(flagged, 1u);
  EXPECT_GT(report->faults.degraded_windows, 0u);
}

// Checkpoint builder validation: count-based windows and non-replayable
// sources are rejected up front.
TEST(RecoveryTest, BuilderRejectsUncheckpointablePlans) {
  CheckpointConfig ckpt;
  SpearTopologyBuilder count_based;
  count_based.Source(std::make_shared<VectorSpout>(RecoveryStream(100)))
      .TumblingCountWindowOf(10)
      .Mean(NumericField(0))
      .Checkpoint(ckpt);
  EXPECT_FALSE(count_based.Build().ok());

  auto opaque = std::make_shared<GeneratorSpout>([](Tuple*) { return false; });
  SpearTopologyBuilder unreplayable;
  unreplayable.Source(opaque, 50)
      .TumblingWindowOf(100)
      .Mean(NumericField(0))
      .Checkpoint(ckpt);
  EXPECT_FALSE(unreplayable.Build().ok());
}

// A grouped holistic aggregate over unknown groups cannot be checkpointed:
// a snapshot holds only the budget state, and a restored window of such a
// query has neither an exact answer nor a degraded estimate, so it would
// restore again and again. Without .Checkpoint() the same query builds.
TEST(RecoveryTest, BuilderRejectsCheckpointedGroupedHolisticUnknownGroups) {
  auto grouped_median = [](SpearTopologyBuilder& builder) {
    builder.Source(std::make_shared<VectorSpout>(RecoveryStream(100)), 50)
        .TumblingWindowOf(100)
        .Median(NumericField(0))
        .GroupBy(KeyField(0));
  };
  SpearTopologyBuilder checkpointed;
  grouped_median(checkpointed);
  checkpointed.Checkpoint(CheckpointConfig{});
  EXPECT_TRUE(checkpointed.Build().status().IsInvalid());

  SpearTopologyBuilder known_groups;
  grouped_median(known_groups);
  known_groups.KnownGroups(4).Checkpoint(CheckpointConfig{});
  EXPECT_TRUE(known_groups.Build().ok());

  SpearTopologyBuilder plain;
  grouped_median(plain);
  EXPECT_TRUE(plain.Build().ok());
}

// Satellite: the dead-letter channel is bounded. A run with more poison
// tuples than the cap retains exactly `cap` of them, counts the overflow,
// and still quarantines (rather than fails) every one.
TEST(RecoveryTest, DeadLetterChannelIsBounded) {
  const int n = 2000;
  FaultPlan plan;
  plan.seed = 5;
  FaultRule poison;
  poison.site = FaultSite::kSpoutMalformed;
  poison.every_nth = 100;  // 20 poison tuples
  plan.Add(poison);
  FaultInjector injector(plan);

  SpearTopologyBuilder builder;
  ConfigureRecoveryQuery(builder, n);
  builder.ValidateTuples(RequireNumericFields({0}))
      .InjectFaults(&injector)
      .DeadLetterCap(4);
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const std::uint64_t poisoned = injector.fired(FaultSite::kSpoutMalformed);
  ASSERT_GT(poisoned, 4u);
  EXPECT_EQ(report->dead_letters.size(), 4u);
  EXPECT_EQ(report->dead_letters_dropped, poisoned - 4);
  EXPECT_EQ(report->faults.quarantined, poisoned);
}

// Supervision must be free when nothing crashes: a checkpointed run with
// no faults produces byte-identical per-window values to the plain run.
TEST(RecoveryTest, CheckpointingAloneDoesNotChangeResults) {
  const int n = 2000;
  SpearTopologyBuilder plain;
  ConfigureRecoveryQuery(plain, n);
  auto plain_report = Executor(std::move(*plain.Build())).Run();
  ASSERT_TRUE(plain_report.ok());

  CheckpointConfig ckpt;
  ckpt.interval = 100;
  SpearTopologyBuilder checkpointed;
  ConfigureRecoveryQuery(checkpointed, n);
  checkpointed.Checkpoint(ckpt);
  auto ckpt_report = Executor(std::move(*checkpointed.Build())).Run();
  ASSERT_TRUE(ckpt_report.ok());

  EXPECT_EQ(ckpt_report->recoveries, 0u);
  EXPECT_GT(ckpt_report->faults.snapshots, 0u);
  const auto plain_windows = WindowValues(plain_report->output);
  const auto ckpt_windows = WindowValues(ckpt_report->output);
  EXPECT_EQ(plain_windows, ckpt_windows);
}

// Snapshots can land in a file-backed store and drive recovery from disk.
TEST(RecoveryTest, FileBackedStoreSupportsRecovery) {
  const int n = 4000;
  const std::string dir = ::testing::TempDir() + "/recovery_file_store";
  FileCheckpointStore store(dir);

  FaultPlan plan = CrashPlan(9);
  FaultInjector injector(plan);
  CheckpointConfig ckpt;
  ckpt.interval = 100;
  ckpt.store = &store;

  SpearTopologyBuilder builder;
  ConfigureRecoveryQuery(builder, n);
  builder.InjectFaults(&injector).Checkpoint(ckpt);
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->recoveries, injector.fired(FaultSite::kWorkerCrash));
  EXPECT_GE(report->recoveries, 2u);
  // The stateful workers' snapshot files exist on disk.
  Result<CheckpointSnapshot> latest = store.Latest("stateful", 0);
  EXPECT_TRUE(latest.ok()) << latest.status().ToString();
}

// ---- crash and failure placement ------------------------------------------
//
// The tests below run one stateful worker, so fault ticks are a function of
// the stream: tuple i (event time i) is the (i+1)-th kWorkerCrash tick,
// and watermarks 0, 50, 100, ... follow tuples 0, 50, 100, ... A rule
// with every_nth = k and max_fires = 1 fires exactly at tick k.

FaultRule FireOnceAt(FaultSite site, std::uint64_t tick) {
  FaultRule rule;
  rule.site = site;
  rule.every_nth = tick;
  rule.max_fires = 1;
  return rule;
}

// Runs the recovery query on one worker; checkpointing when `ckpt` is set.
RunReport RunSingleWorker(int n, FaultInjector* injector,
                          const CheckpointConfig* ckpt) {
  SpearTopologyBuilder builder;
  ConfigureRecoveryQuery(builder, n);
  builder.Parallelism(1);
  if (injector != nullptr) builder.InjectFaults(injector);
  if (ckpt != nullptr) builder.Checkpoint(*ckpt);
  auto report = Executor(std::move(*builder.Build())).Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? std::move(*report) : RunReport{};
}

void ExpectEveryWindowOnceWithCleanValue(const RunReport& clean,
                                         const RunReport& chaos) {
  const auto clean_windows = WindowValues(clean.output);
  const auto chaos_windows = WindowValues(chaos.output);
  ASSERT_FALSE(clean_windows.empty());
  ASSERT_EQ(chaos_windows.size(), clean_windows.size());
  for (const auto& [key, clean_values] : clean_windows) {
    ASSERT_EQ(clean_values.size(), 1u);
    auto it = chaos_windows.find(key);
    ASSERT_NE(it, chaos_windows.end())
        << "window [" << key.first << "," << key.second << ") missing";
    ASSERT_EQ(it->second.size(), 1u)
        << "window [" << key.first << "," << key.second
        << ") not delivered exactly once";
    EXPECT_DOUBLE_EQ(it->second[0], clean_values[0])
        << "window [" << key.first << "," << key.second << ")";
  }
}

// Crashes on the first tuple after a snapshot watermark: the replay is
// empty, and the catch-up re-closes nothing that was not already closed.
// Snapshots are taken at watermarks 0, 100, 200, ... (interval 100), so
// tuples 501, 1201 and 2001 are the first after one.
TEST(RecoveryTest, CrashRightAfterSnapshotWatermarkChaosMatchesCleanRun) {
  const int n = 4000;
  const RunReport clean = RunSingleWorker(n, nullptr, nullptr);

  FaultPlan plan;
  for (const std::uint64_t tuple : {501u, 1201u, 2001u}) {
    plan.Add(FireOnceAt(FaultSite::kWorkerCrash, tuple + 1));
  }
  FaultInjector injector(plan);
  CheckpointConfig ckpt;
  ckpt.interval = 100;
  const RunReport chaos = RunSingleWorker(n, &injector, &ckpt);

  EXPECT_EQ(injector.fired(FaultSite::kWorkerCrash), 3u);
  EXPECT_EQ(chaos.recoveries, 3u);
  ExpectEveryWindowOnceWithCleanValue(clean, chaos);
}

// A kBoltWatermark failure on a closing watermark: the window it closes
// was never delivered, so the catch-up must deliver it, while the windows
// closed since the snapshot (delivered before the failure) must not go
// out again. Snapshots at watermarks 0, 300, 600, ..., 3900 (interval
// 300); the failures hit watermarks 500, 800 and 1100, each after a
// window ([300,400), [600,700), [900,1000)) was delivered since the
// snapshot, and the final watermark, after which nothing else would
// close window [3900,4000). OnWatermark ticks: watermark 50(k-1) is tick
// k until the first failure at tick 11 (watermark 500); each recovery
// adds two calls (the delivered watermark, then the failed one), so
// watermarks 800 and 1100 are ticks 19 and 27, and the final watermark,
// the 81st, is tick 87.
TEST(RecoveryTest, WatermarkFaultChaosDeliversEveryWindowExactlyOnce) {
  const int n = 4000;
  const RunReport clean = RunSingleWorker(n, nullptr, nullptr);

  FaultPlan plan;
  for (const std::uint64_t tick : {11u, 19u, 27u, 87u}) {
    plan.Add(FireOnceAt(FaultSite::kBoltWatermark, tick));
  }
  FaultInjector injector(plan);
  CheckpointConfig ckpt;
  ckpt.interval = 300;
  const RunReport chaos = RunSingleWorker(n, &injector, &ckpt);

  EXPECT_EQ(injector.fired(FaultSite::kBoltWatermark), 4u);
  EXPECT_EQ(chaos.recoveries, 4u);
  ExpectEveryWindowOnceWithCleanValue(clean, chaos);
}

/// What a ReplayCountingBolt saw across its instances (one worker).
struct ReplayAudit {
  /// Tuples executed by the live instance since the stream began
  /// (restored count plus everything executed after the restore).
  std::uint64_t executed = 0;
  /// `executed` at the last snapshot.
  std::uint64_t at_snapshot = 0;
  /// `executed` of the instance that crashed last.
  std::uint64_t at_crash = 0;
  struct Loss {
    std::uint64_t noted;
    std::uint64_t consumed_since_snapshot;
    std::uint64_t replayed;
  };
  std::vector<Loss> losses;
};

/// A checkpointable pass-through bolt whose whole state is the number of
/// tuples it executed, so the test can see exactly how many were replayed
/// and how many were reported lost.
class ReplayCountingBolt : public Bolt, public Checkpointable {
 public:
  explicit ReplayCountingBolt(ReplayAudit* audit) : audit_(audit) {}

  Status Prepare(const BoltContext&) override {
    audit_->at_crash = audit_->executed;
    return Status::OK();
  }
  Status Execute(const Tuple& tuple, Emitter* out) override {
    audit_->executed = ++executed_;
    out->Emit(tuple);
    return Status::OK();
  }
  Status OnWatermark(Timestamp, Emitter*) override { return Status::OK(); }
  Status Finish(Emitter*) override { return Status::OK(); }

  Checkpointable* checkpointable() override { return this; }
  Result<std::string> SnapshotState() override {
    audit_->at_snapshot = executed_;
    return std::to_string(executed_);
  }
  Status RestoreState(const std::string& payload) override {
    executed_ = std::stoull(payload);
    audit_->executed = executed_;
    return Status::OK();
  }
  void NoteRecoveryLoss(std::uint64_t lost_tuples) override {
    audit_->losses.push_back({lost_tuples,
                              audit_->at_crash - audit_->at_snapshot,
                              executed_ - audit_->at_snapshot});
  }

 private:
  ReplayAudit* audit_;
  std::uint64_t executed_ = 0;
};

// max_replay_tuples far below one popped batch (5 against 64): the log
// keeps exactly the newest 5 consumed tuples, trimming inside a batch,
// and the rest of what was consumed since the snapshot is reported lost.
// What the replay re-emits is discarded: every tuple passes through once.
// Watermarks (and snapshots) every 500 tuples, so data batches are full.
TEST(RecoveryTest, ReplayCapBelowOneBatchChaosReportsExactLoss) {
  const int n = 4000;
  FaultPlan plan;
  for (const std::uint64_t tick : {777u, 1554u, 2331u}) {
    plan.Add(FireOnceAt(FaultSite::kWorkerCrash, tick));
  }
  FaultInjector injector(plan);
  CheckpointConfig ckpt;
  ckpt.interval = 500;
  ckpt.max_replay_tuples = 5;
  ReplayAudit audit;
  TopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(RecoveryStream(n)), 500)
      .Stage("stateful", 1, Partitioner::Shuffle(),
             [&audit](int) {
               return std::make_unique<ReplayCountingBolt>(&audit);
             })
      .BatchMaxTuples(64)
      .InjectFaults(&injector)
      .Checkpoint(ckpt);
  Result<Topology> topology = builder.Build();
  ASSERT_TRUE(topology.ok()) << topology.status().ToString();
  auto report = Executor(std::move(*topology)).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->recoveries, 3u);

  // Crashes at tuples 776, 1553 and 2330; the snapshots before them were
  // taken at watermarks 500, 1500 and 2000, right after tuples 500, 1500
  // and 2000.
  ASSERT_EQ(audit.losses.size(), 3u);
  const std::uint64_t expected_consumed[] = {776 - 501, 1553 - 1501,
                                             2330 - 2001};
  for (std::size_t c = 0; c < audit.losses.size(); ++c) {
    const ReplayAudit::Loss& loss = audit.losses[c];
    EXPECT_EQ(loss.consumed_since_snapshot, expected_consumed[c]) << c;
    EXPECT_EQ(loss.replayed, 5u) << c;
    EXPECT_EQ(loss.noted, loss.consumed_since_snapshot - 5) << c;
  }
  EXPECT_EQ(audit.executed, static_cast<std::uint64_t>(n) -
                                (audit.losses[0].noted +
                                 audit.losses[1].noted +
                                 audit.losses[2].noted));
  std::vector<Timestamp> passed;
  for (const Tuple& t : report->output) passed.push_back(t.event_time());
  std::sort(passed.begin(), passed.end());
  ASSERT_EQ(passed.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ASSERT_EQ(passed[i], i);
}

// Grouped crash chaos on DEBS-like sparse routes, two workers fed by route:
// every (window, route) result of the clean run is delivered exactly
// once, and nothing else is. Snapshots every third slide, so a crash
// usually follows windows delivered since the snapshot, which the
// restored state closes again.
TEST(RecoveryTest, GroupedCrashChaosDeliversEveryWindowGroupExactlyOnce) {
  DebsGenerator::Config data;
  data.duration = Hours(3);
  const std::vector<Tuple> rides = DebsGenerator::Generate(data);
  auto configure = [&](SpearTopologyBuilder& b) {
    b.Source(std::make_shared<VectorSpout>(rides), Seconds(60))
        .SlidingWindowOf(Minutes(30), Minutes(15))
        .Mean(NumericField(DebsGenerator::kFareField))
        .GroupBy(KeyField(DebsGenerator::kRouteField))
        .SetBudget(Budget::Tuples(4000))
        .Error(0.10, 0.95)
        .Parallelism(2);
  };
  using GroupKey = std::tuple<std::int64_t, std::int64_t, std::string>;
  auto results = [](const RunReport& report) {
    std::map<GroupKey, int> count;
    for (const Tuple& t : report.output) {
      ++count[{t.field(ResultTupleLayout::kStart).AsInt64(),
               t.field(ResultTupleLayout::kEnd).AsInt64(),
               t.field(ResultTupleLayout::kGroupKey).AsString()}];
    }
    return count;
  };

  SpearTopologyBuilder clean;
  configure(clean);
  auto clean_report = Executor(std::move(*clean.Build())).Run();
  ASSERT_TRUE(clean_report.ok()) << clean_report.status().ToString();

  const std::uint64_t seed = RecoverySeed();
  FaultPlan plan;
  plan.seed = seed;
  FaultRule crash;
  crash.site = FaultSite::kWorkerCrash;
  crash.every_nth = 9000 + seed % 997;  // ~60 K rides: three crashes
  crash.max_fires = 3;
  plan.Add(crash);
  FaultInjector injector(plan);
  CheckpointConfig ckpt;
  ckpt.interval = Minutes(45);
  SpearTopologyBuilder chaos;
  configure(chaos);
  chaos.InjectFaults(&injector).Checkpoint(ckpt);
  auto chaos_report = Executor(std::move(*chaos.Build())).Run();
  ASSERT_TRUE(chaos_report.ok()) << chaos_report.status().ToString();
  EXPECT_EQ(injector.fired(FaultSite::kWorkerCrash), 3u);
  EXPECT_EQ(chaos_report->recoveries, 3u);

  const auto clean_results = results(*clean_report);
  const auto chaos_results = results(*chaos_report);
  ASSERT_GT(clean_results.size(), 1000u);
  for (const auto& [key, count] : clean_results) ASSERT_EQ(count, 1);
  EXPECT_EQ(chaos_results, clean_results);
}

// ---- ReplayLog --------------------------------------------------------------

struct LogElement {
  enum class Kind { kTuple, kWatermark };
  Kind kind = Kind::kTuple;
  int tuple = 0;
};

std::vector<int> ReplayAll(const ReplayLog<LogElement>& log,
                           const std::vector<LogElement>& batch,
                           std::size_t end, std::uint64_t* lost) {
  std::vector<int> out;
  *lost = log.Replay(batch, end, [&](int t) { out.push_back(t); });
  return out;
}

// The executor's channels hand control elements over in their own popped
// batches, so this case is driven directly: a snapshot watermark inside a
// batch, then a failure later in the same batch.
TEST(ReplayLogTest, SnapshotInsideABatchReplaysOnlyWhatFollowsIt) {
  using K = LogElement::Kind;
  ReplayLog<LogElement> log(100);
  log.BeginBatch();
  log.Keep({{K::kTuple, 1}, {K::kWatermark, 0}, {K::kTuple, 2}});
  const std::vector<LogElement> batch = {{K::kTuple, 3},
                                         {K::kWatermark, 0},
                                         {K::kTuple, 4},
                                         {K::kTuple, 5},
                                         {K::kWatermark, 0},
                                         {K::kTuple, 6}};
  log.BeginBatch();
  std::uint64_t lost = 0;
  // Before the snapshot: everything since the log began.
  EXPECT_EQ(ReplayAll(log, batch, 1, &lost), (std::vector<int>{1, 2, 3}));
  log.SnapshotAt(1);
  // A crash at element 5 (tuple 6 not yet consumed), an Execute failure
  // on it (consumed), and a watermark failure at element 4.
  EXPECT_EQ(ReplayAll(log, batch, 5, &lost), (std::vector<int>{4, 5}));
  EXPECT_EQ(lost, 0u);
  EXPECT_EQ(ReplayAll(log, batch, 6, &lost), (std::vector<int>{4, 5, 6}));
  EXPECT_EQ(ReplayAll(log, batch, 4, &lost), (std::vector<int>{4, 5}));
  // The batch ran through: the next one replays after it.
  log.Keep(std::vector<LogElement>(batch));
  log.BeginBatch();
  const std::vector<LogElement> next = {{K::kTuple, 7}};
  EXPECT_EQ(ReplayAll(log, next, 1, &lost), (std::vector<int>{4, 5, 6, 7}));
  // A snapshot on a batch's last element leaves nothing of it to log.
  log.SnapshotAt(0);
  log.Keep(std::vector<LogElement>(next));
  log.BeginBatch();
  EXPECT_TRUE(ReplayAll(log, {}, 0, &lost).empty());
  EXPECT_EQ(lost, 0u);
}

// Differential against a plain list of the tuples consumed since the
// snapshot: whatever the batch shapes, snapshot points, failure points and
// cap, the log replays exactly the newest `cap` of them, in order, and
// reports the rest lost.
TEST(ReplayLogTest, ReplaysExactlyTheNewestTuplesUnderAnyCap) {
  using K = LogElement::Kind;
  for (const std::size_t cap : {0u, 1u, 5u, 64u, 300u}) {
    std::mt19937_64 rng(cap * 31 + 7);
    ReplayLog<LogElement> log(cap);
    std::vector<int> model;  // consumed since the snapshot
    int next_tuple = 0;
    for (int round = 0; round < 400; ++round) {
      std::vector<LogElement> batch(1 + rng() % 64);
      for (LogElement& e : batch) {
        e.kind = rng() % 8 == 0 ? K::kWatermark : K::kTuple;
        e.tuple = e.kind == K::kTuple ? next_tuple++ : -1;
      }
      log.BeginBatch();
      for (std::size_t k = 0; k < batch.size(); ++k) {
        if (batch[k].kind == K::kWatermark && rng() % 3 == 0) {
          log.SnapshotAt(k);
          model.clear();
          continue;
        }
        if (rng() % 50 == 0) {
          // A failure here; tuples through k are consumed.
          const std::size_t end = k + (rng() % 2);
          std::vector<int> consumed = model;
          for (std::size_t j = k; j < end; ++j) {
            if (batch[j].kind == K::kTuple) consumed.push_back(batch[j].tuple);
          }
          const std::size_t keep = std::min(cap, consumed.size());
          std::uint64_t lost = 0;
          const std::vector<int> replayed = ReplayAll(log, batch, end, &lost);
          ASSERT_EQ(replayed, std::vector<int>(consumed.end() - keep,
                                               consumed.end()))
              << "cap " << cap << " round " << round;
          ASSERT_EQ(lost, consumed.size() - keep);
        }
        if (batch[k].kind == K::kTuple) model.push_back(batch[k].tuple);
      }
      log.Keep(std::move(batch));
    }
  }
}

}  // namespace
}  // namespace spear

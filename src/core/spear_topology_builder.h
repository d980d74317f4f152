#pragma once

#include <memory>
#include <string>

#include "core/spear_bolt.h"
#include "core/spear_config.h"
#include "runtime/countmin_bolt.h"
#include "runtime/topology.h"
#include "runtime/windowed_bolt.h"

/// \file spear_topology_builder.h
/// The user-facing CQ API of the paper's Fig. 5, in C++:
///
///   auto cq = SpearTopologyBuilder()
///                 .Source(rides)
///                 .Time(0)                                // x -> x.time
///                 .SlidingWindowOf(Minutes(15), Minutes(5))
///                 .Percentile(NumericField(2), 0.95)      // x -> x.fare
///                 .Budget(Budget::Bytes(1 * kMiB))
///                 .Error(0.10, 0.95)
///                 .Build();
///
/// The same CQ can be compiled to different engines (SPEAr, exact Storm
/// baseline, incremental, CountMin) via Engine(), which is how the
/// benchmark harness runs identical queries across systems.

namespace spear {

/// Which execution engine materializes the stateful operation.
enum class ExecutionEngine {
  kSpear,        ///< SPEAr (default): approximate with accuracy guarantees
  kExact,        ///< Storm baseline: exact, single-buffer design
  kExactMulti,   ///< exact with the multiple-buffers (Flink) design
  kIncremental,  ///< Inc-Storm: incremental accumulators (non-holistic)
  kCountMin,     ///< Storm + CountMin sketch (grouped mean only)
  kGkQuantile,   ///< Greenwald-Khanna summary (scalar percentile only)
};

const char* ExecutionEngineName(ExecutionEngine engine);

/// \brief Fluent CQ definition with SPEAr's budget/error extensions.
class SpearTopologyBuilder {
 public:
  /// Sets the input stream and its watermarking policy.
  SpearTopologyBuilder& Source(std::shared_ptr<Spout> spout,
                               DurationMs watermark_interval = 0,
                               DurationMs max_lateness = 0);

  /// Adds the `time(x -> x.field)` annotation stage.
  SpearTopologyBuilder& Time(std::size_t time_field);

  SpearTopologyBuilder& SlidingWindowOf(DurationMs range, DurationMs slide);
  SpearTopologyBuilder& TumblingWindowOf(DurationMs range);
  SpearTopologyBuilder& SlidingCountWindowOf(std::int64_t range,
                                             std::int64_t slide);
  SpearTopologyBuilder& TumblingCountWindowOf(std::int64_t range);

  // ---- stateful operation (exactly one) --------------------------------
  SpearTopologyBuilder& Count();
  SpearTopologyBuilder& Sum(ValueExtractor value);
  SpearTopologyBuilder& Mean(ValueExtractor value);
  SpearTopologyBuilder& Variance(ValueExtractor value);
  SpearTopologyBuilder& StdDev(ValueExtractor value);
  SpearTopologyBuilder& Percentile(ValueExtractor value, double phi);
  SpearTopologyBuilder& Median(ValueExtractor value);

  /// Turns the operation into a grouped one (a result per distinct group).
  SpearTopologyBuilder& GroupBy(KeyExtractor key);

  // ---- SPEAr extensions (Fig. 5) ----------------------------------------
  SpearTopologyBuilder& SetBudget(Budget budget);
  /// `.error(10%, 95%)`: relative error bound and confidence.
  SpearTopologyBuilder& Error(double epsilon, double confidence);

  /// Declares the number of distinct groups at submission time (enables
  /// tuple-arrival stratified sampling, the GCM configuration).
  SpearTopologyBuilder& KnownGroups(std::size_t num_groups);

  /// Disables the non-holistic incremental fast path (Figs. 11-12).
  SpearTopologyBuilder& DisableIncrementalOptimization();

  /// Enables online budget adaptation (the paper's future-work extension):
  /// the configured budget seeds an AIMD controller that grows on
  /// fallbacks and shrinks on comfortable accepts.
  SpearTopologyBuilder& AdaptiveBudget(
      BudgetController::Options options = BudgetController::Options{});

  /// Installs a user-defined accuracy estimator (custom approximate
  /// stateful operations).
  SpearTopologyBuilder& CustomEstimator(CustomScalarEstimator estimator);

  /// Collects each SPEAr worker's DecisionStats at end of stream (SPEAr
  /// engine only; the harness for Figs. 10-12 uses this).
  SpearTopologyBuilder& CollectDecisions(DecisionStatsCollector* sink);

  // ---- robustness ---------------------------------------------------------
  /// Admission check run before each tuple is ingested into window state;
  /// rejected tuples become quarantined dead letters (see
  /// RequireNumericFields).
  SpearTopologyBuilder& ValidateTuples(TupleValidator validator);

  /// Retry policy for transient secondary-storage failures inside the
  /// stateful operator (spill/unspill).
  SpearTopologyBuilder& StorageRetry(RetryPolicy policy);

  /// Retry policy for transient Execute failures at the stateful stage
  /// (executor-level supervision).
  SpearTopologyBuilder& StageRetry(RetryPolicy policy);

  /// Chaos testing: wires `injector` into the compiled plan — the spout
  /// and stateful bolts are wrapped with the fault-injecting decorators
  /// for whichever sites the plan arms, and the storage (when registered
  /// via SpillOver) should be given the same injector by the caller.
  SpearTopologyBuilder& InjectFaults(FaultInjector* injector);

  /// Enables checkpoint/restore and crash recovery (Topology::checkpoint):
  /// stateful workers snapshot their O(b) budget state every
  /// `config.interval` ms of watermark progress and are restarted from the
  /// latest snapshot on a crash, with replay-gap loss folded into ε̂_w.
  /// Requires a time-based window (count-based coordinates are assigned
  /// from a per-worker sequence that does not survive a restart), a
  /// replayable source spout, and KnownGroups for a grouped holistic
  /// aggregate (a restored window over unknown groups has no answer).
  SpearTopologyBuilder& Checkpoint(CheckpointConfig config);

  /// Caps retained dead-letter/suppressed-error entries (see
  /// Topology::max_dead_letters; default 1024).
  SpearTopologyBuilder& DeadLetterCap(std::size_t cap);

  // ---- overload control ---------------------------------------------------
  /// Arms accuracy-aware load shedding against a per-window latency SLO
  /// (ms): every stage gets an OverloadDetector and the SPEAr bolts shed
  /// admissions while tripped, folding the shed ratio into ε̂_w exactly
  /// like recovery loss (windows past ε emit degraded).
  SpearTopologyBuilder& LatencySlo(DurationMs slo_ms);

  /// Replaces the shed policy (only effective with LatencySlo).
  SpearTopologyBuilder& Shed(ShedPolicy policy);

  /// Deadline budget (ms) for one window's exact fallback: past it the
  /// fallback is aborted cooperatively and the window is emitted from its
  /// budget state with degraded=true (0 = unbounded, the default).
  SpearTopologyBuilder& ExactDeadline(DurationMs deadline_ms);

  /// Arms the watermark watchdog: a source idle for `idle_ms` with empty
  /// stage-0 queues is declared stalled and the stream is closed
  /// abnormally (open windows emit degraded instead of hanging the DAG).
  SpearTopologyBuilder& WatermarkWatchdog(DurationMs idle_ms);

  // ---- observability ------------------------------------------------------
  /// Enables exported metrics (the final scrape of every worker's shard
  /// in RunReport::observability, per-tuple ingest counters; optional
  /// periodic sampler via `options`). Off by default.
  SpearTopologyBuilder& Metrics(obs::MetricsOptions options = {});

  /// Enables per-window TraceSpan recording of the full SPEAr decision
  /// lineage (arrivals, budget, ε̂_w terms, verdict; see obs/trace.h).
  /// Off by default; `options` controls sampling and the per-worker cap.
  SpearTopologyBuilder& Trace(obs::TraceOptions options = {});

  // ---- execution configuration ------------------------------------------
  SpearTopologyBuilder& Engine(ExecutionEngine engine);
  SpearTopologyBuilder& Parallelism(int workers);
  /// Worker raw-buffer capacity in tuples before spilling to `storage`.
  SpearTopologyBuilder& SpillOver(std::size_t memory_capacity,
                                  SecondaryStorage* storage);
  SpearTopologyBuilder& QueueCapacity(std::size_t capacity);

  /// Name of the stateful stage in metrics ("stateful").
  static const char* StatefulStageName() { return "stateful"; }

  /// Validates the CQ and compiles it to an executable topology.
  Result<Topology> Build() const;

 private:
  std::shared_ptr<Spout> spout_;
  DurationMs watermark_interval_ = 0;
  DurationMs max_lateness_ = 0;
  bool has_time_stage_ = false;
  std::size_t time_field_ = 0;

  bool has_window_ = false;
  bool has_aggregate_ = false;
  SpearOperatorConfig config_;
  ValueExtractor value_extractor_;
  KeyExtractor key_extractor_;

  ExecutionEngine engine_ = ExecutionEngine::kSpear;
  int parallelism_ = 1;
  SecondaryStorage* storage_ = nullptr;
  std::size_t queue_capacity_ = 1024;
  DecisionStatsCollector* decision_sink_ = nullptr;
  RetryPolicy stage_retry_ = RetryPolicy::None();
  FaultInjector* fault_injector_ = nullptr;
  CheckpointConfig checkpoint_;
  std::size_t max_dead_letters_ = 1024;
  OverloadConfig overload_;
  obs::ObsConfig obs_;
};

}  // namespace spear

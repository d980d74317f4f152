#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

/// \file metrics.h
/// Runtime telemetry, modeled on Storm's metrics API (which the paper uses
/// to measure per-window processing time). Each worker thread owns a
/// WorkerMetrics counting into its obs::MetricsShard: one counter per
/// event, which export, the periodic sampler and RunReport's fault and
/// overload totals all read through the run's MetricsRegistry.

namespace spear {

/// \brief Percentile/mean summary of a sample of int64 measurements.
struct MetricSummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  std::int64_t min = 0;
  std::int64_t p50 = 0;
  std::int64_t p95 = 0;
  std::int64_t p99 = 0;
  std::int64_t max = 0;

  static MetricSummary FromSamples(std::vector<std::int64_t> samples);
};

/// \brief Fault-handling counters of one run (or one worker). Every field
/// but `injected` is a worker series (WorkerMetrics::ForEachCountedField).
struct FaultStats {
  /// Faults fired by the run's FaultInjector (0 without one).
  std::uint64_t injected = 0;
  /// Retry attempts performed (storage-level + tuple-level).
  std::uint64_t retries = 0;
  /// Operations that succeeded on a retry after a transient failure.
  std::uint64_t recovered = 0;
  /// Tuples quarantined to the dead-letter channel.
  std::uint64_t quarantined = 0;
  /// Windows emitted with degraded accuracy (SpearBolt's AF-Stream trade).
  std::uint64_t degraded_windows = 0;
  /// Workers restarted from a checkpoint after a crash (supervisor loop).
  std::uint64_t worker_restarts = 0;
  /// Checkpoint snapshots taken at watermark boundaries.
  std::uint64_t snapshots = 0;
  /// Spill attempts that exhausted their storage retries (the window is
  /// later emitted degraded or exact-from-partial-state).
  std::uint64_t spill_failures = 0;
};

/// \brief Overload-control counters of one run (or one worker). Every
/// field but `watchdog_advances` is a worker series (as FaultStats).
struct OverloadStats {
  /// Tuples dropped at stage admission by accuracy-aware load shedding.
  std::uint64_t tuples_shed = 0;
  /// Windows emitted whose ε̂_w includes shed-loss inflation.
  std::uint64_t windows_shed_loss = 0;
  /// Exact fallbacks aborted at their deadline (window emitted degraded).
  std::uint64_t deadline_aborts = 0;
  /// Watermark-watchdog interventions (stalled source closed/advanced).
  std::uint64_t watchdog_advances = 0;
  /// Time producers spent blocked on full inter-stage queues.
  std::int64_t backpressure_wait_ns = 0;
};

/// \brief One worker thread's counters: a typed view over its shard.
/// Written by exactly one thread; each adder is one relaxed atomic add,
/// so callers batch (per popped batch, per window) rather than count per
/// tuple.
class WorkerMetrics {
 public:
  /// The counted events, each one shard series (kSeries).
  enum Event : std::size_t {
    kTuplesIn, kTuplesOut, kBusyNs, kBatchesPopped, kRetries, kRecovered,
    kQuarantined, kDegradedWindows, kWorkerRestarts, kSnapshots,
    kSnapshotBytes, kSpillFailures, kTuplesShed, kWindowsShedLoss,
    kDeadlineAborts, kBackpressureNs, kNumEvents
  };
  static constexpr std::array<const char*, kNumEvents> kSeries = {
      "tuples_in",           "tuples_out",           "busy_ns",
      "batches_popped",      "retries",              "recovered",
      "quarantined",         "windows_degraded",     "checkpoint_restores",
      "checkpoint_snapshots", "checkpoint_bytes",    "spill_failures",
      "tuples_shed",         "windows_shed_loss",    "deadline_aborts",
      "backpressure_wait_ns"};

  /// The one field-to-series table: calls `fn(event, field)` for every
  /// FaultStats and OverloadStats field a worker counts.
  template <typename Fn>
  static void ForEachCountedField(FaultStats& faults, OverloadStats& overload,
                                  Fn&& fn) {
    fn(kRetries, faults.retries);
    fn(kRecovered, faults.recovered);
    fn(kQuarantined, faults.quarantined);
    fn(kDegradedWindows, faults.degraded_windows);
    fn(kWorkerRestarts, faults.worker_restarts);
    fn(kSnapshots, faults.snapshots);
    fn(kSpillFailures, faults.spill_failures);
    fn(kTuplesShed, overload.tuples_shed);
    fn(kWindowsShedLoss, overload.windows_shed_loss);
    fn(kDeadlineAborts, overload.deadline_aborts);
    fn(kBackpressureNs, overload.backpressure_wait_ns);
  }

  /// Counts into a private shard (a bolt driven outside an executor).
  WorkerMetrics(std::string stage, int task_id);
  /// Counts into `shard`, owned by a MetricsRegistry.
  explicit WorkerMetrics(obs::MetricsShard* shard);

  /// One closed window's processing time: a window_ns() sample and a
  /// `window_processing_ns` observation.
  void RecordWindowNs(std::int64_t ns) {
    window_ns_.push_back(ns);
    window_hist_->Observe(ns);
  }
  void RecordMemoryBytes(std::size_t bytes) {
    memory_bytes_.push_back(static_cast<std::int64_t>(bytes));
  }
  void AddTuplesIn(std::uint64_t n) { Add(kTuplesIn, n); }
  void AddTuplesOut(std::uint64_t n) { Add(kTuplesOut, n); }
  void AddBusyNs(std::int64_t ns) { Add(kBusyNs, ns); }
  void AddBatchesPopped(std::uint64_t n) { Add(kBatchesPopped, n); }
  void AddRetries(std::uint64_t n) { Add(kRetries, n); }
  void AddRecovered(std::uint64_t n) { Add(kRecovered, n); }
  void AddQuarantined(std::uint64_t n) { Add(kQuarantined, n); }
  void AddDegradedWindows(std::uint64_t n) { Add(kDegradedWindows, n); }
  void AddWorkerRestarts(std::uint64_t n) { Add(kWorkerRestarts, n); }
  void AddSnapshots(std::uint64_t n) { Add(kSnapshots, n); }
  void AddSnapshotBytes(std::uint64_t n) { Add(kSnapshotBytes, n); }
  void AddSpillFailures(std::uint64_t n) { Add(kSpillFailures, n); }
  void AddTuplesShed(std::uint64_t n) { Add(kTuplesShed, n); }
  void AddWindowsShedLoss(std::uint64_t n) { Add(kWindowsShedLoss, n); }
  void AddDeadlineAborts(std::uint64_t n) { Add(kDeadlineAborts, n); }
  void AddBackpressureNs(std::int64_t ns) { Add(kBackpressureNs, ns); }

  const std::string& stage() const { return shard_->stage(); }
  int task_id() const { return shard_->task(); }
  /// The shard every counter above lives in.
  obs::MetricsShard* shard() const { return shard_; }
  std::uint64_t tuples_in() const { return counters_[kTuplesIn]->value(); }
  std::uint64_t tuples_out() const { return counters_[kTuplesOut]->value(); }
  std::int64_t busy_ns() const {
    return static_cast<std::int64_t>(counters_[kBusyNs]->value());
  }
  /// Read from the shard's counters (injected stays 0).
  FaultStats faults() const { return Totals().first; }
  /// Read from the shard's counters (watchdog_advances stays 0).
  OverloadStats overload() const { return Totals().second; }
  const std::vector<std::int64_t>& window_ns() const { return window_ns_; }

  MetricSummary WindowSummary() const {
    return MetricSummary::FromSamples(window_ns_);
  }
  MetricSummary MemorySummary() const {
    return MetricSummary::FromSamples(memory_bytes_);
  }

 private:
  void Wire(obs::MetricsShard* shard);
  std::pair<FaultStats, OverloadStats> Totals() const;
  // Durations arrive as non-negative int64 nanoseconds.
  void Add(Event event, std::uint64_t n) { counters_[event]->Add(n); }

  std::unique_ptr<obs::MetricsShard> owned_shard_;  // null in a registry
  obs::MetricsShard* shard_ = nullptr;
  std::array<obs::Counter*, kNumEvents> counters_{};
  obs::Histogram* window_hist_ = nullptr;
  std::vector<std::int64_t> window_ns_;
  std::vector<std::int64_t> memory_bytes_;
};

/// Adds every counted series of `scrape`, summed over its shards, to the
/// matching FaultStats / OverloadStats field.
void SumCountedSeries(const std::vector<obs::MetricSample>& scrape,
                      FaultStats* faults, OverloadStats* overload);

/// \brief A run's one metrics registry: every worker's shard, keyed by
/// (stage, task), and the WorkerMetrics counting into them. Shard
/// creation and Collect() serialize on a mutex; instrument updates never
/// take it. Workers are registered at wiring time only.
class MetricsRegistry {
 public:
  /// Creates (or returns the existing) shard for (stage, task). Stable
  /// pointer for the registry's lifetime.
  obs::MetricsShard* GetShard(const std::string& stage, int task);

  /// Creates (and owns) the metrics of one worker, over its shard. Called
  /// at wiring time, before the worker's thread starts.
  WorkerMetrics* Register(const std::string& stage, int task_id);

  /// Scrapes every shard: one sample per (name, stage, task) series.
  std::vector<obs::MetricSample> Collect() const;

  /// Sum of a counter series across all shards (tests, quick checks).
  std::uint64_t CounterTotal(const std::string& name) const;

  /// All registered workers of a stage.
  std::vector<const WorkerMetrics*> ForStage(const std::string& stage) const;

  /// Pooled per-window processing times across a stage's workers.
  MetricSummary StageWindowSummary(const std::string& stage) const;

  /// Mean of per-worker *average* memory samples across a stage — the
  /// "mean memory usage per worker" of Fig. 7.
  double StageMeanMemoryPerWorker(const std::string& stage) const;

 private:
  // Heap-held so the registry moves (with RunReport) and every shard and
  // worker keeps its address; a moved-from registry is not used again.
  std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
  std::deque<obs::MetricsShard> shards_;
  std::vector<std::unique_ptr<WorkerMetrics>> workers_;
};

}  // namespace spear

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// \file obs/metrics.h
/// Lock-free runtime metrics: counters, gauges, and fixed-bucket
/// histograms, organized into per-worker *shards* so the hot path never
/// contends on a shared line. Instrument registration (rare: wiring time
/// or Prepare) takes the shard mutex; updates are single relaxed atomic
/// RMWs on instrument memory owned by one worker; a scrape reads the
/// atomics into one sample per (name, stage, task) series.
///
/// A run keeps its shards in one registry, `spear::MetricsRegistry`
/// (runtime/metrics.h). Each worker's `WorkerMetrics` counts into its
/// shard, so Prometheus/JSON export, the periodic sampler and RunReport's
/// fault and overload totals all read the same counters.

namespace spear::obs {

/// Monotonic event count. Single-writer hot path, any-thread scrape.
class Counter {
 public:
  void Add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, shed probability).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Upper bucket bounds for a Histogram (exclusive of the implicit +Inf
/// overflow bucket). Must be strictly increasing.
struct HistogramBuckets {
  std::vector<std::int64_t> bounds;

  /// Nanosecond latency buckets: 1us .. 10s, roughly 1-2-5 per decade.
  static HistogramBuckets LatencyNs();
  /// Generic small-count buckets: 1 .. 1e6, powers of ten with 1-2-5.
  static HistogramBuckets Counts();
};

/// Fixed-bucket histogram. Observe() is a bucket scan (bounds are small)
/// plus three relaxed fetch_adds; no allocation, no locks.
class Histogram {
 public:
  explicit Histogram(HistogramBuckets buckets);

  void Observe(std::int64_t v);

  const std::vector<std::int64_t>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; index bounds_.size() is +Inf.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<std::int64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
};

/// One exported time-series sample (scrape output).
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  std::string stage;
  int task = 0;
  Kind kind = Kind::kCounter;
  /// Counter/gauge value (counters are integral but exported as double).
  double value = 0.0;
  /// Histogram payload (empty for counters/gauges). bucket_counts has one
  /// more entry than bucket_bounds (the +Inf overflow bucket) and is
  /// non-cumulative; exporters cumulate per format.
  std::vector<std::int64_t> bucket_bounds;
  std::vector<std::uint64_t> bucket_counts;
  std::uint64_t hist_count = 0;
  double hist_sum = 0.0;
};

/// \brief One worker's instrument set, labelled (stage, task).
///
/// Instrument creation is mutex-guarded and idempotent per name (same
/// name returns the same instrument); the returned pointers stay valid
/// for the shard's lifetime, so workers resolve them once at Prepare and
/// update lock-free afterwards.
class MetricsShard {
 public:
  MetricsShard(std::string stage, int task)
      : stage_(std::move(stage)), task_(task) {}

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          const HistogramBuckets& buckets);

  const std::string& stage() const { return stage_; }
  int task() const { return task_; }

  /// Snapshot every instrument into samples (scrape path).
  void Collect(std::vector<MetricSample>* out) const;

 private:
  template <typename T>
  struct Named {
    std::string name;
    std::unique_ptr<T> instrument;
  };

  std::string stage_;
  int task_ = 0;
  mutable std::mutex mu_;  // guards the instrument lists, not their values
  std::deque<Named<Counter>> counters_;
  std::deque<Named<Gauge>> gauges_;
  std::deque<Named<Histogram>> histograms_;
};

}  // namespace spear::obs

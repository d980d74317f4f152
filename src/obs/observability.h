#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

/// \file obs/observability.h
/// Topology-level observability configuration and the end-of-run report.
/// Off by default: without `.Metrics()` / `.Trace()` a run still counts
/// its RunReport totals, but exports and traces nothing.

namespace spear::obs {

/// Knobs for `.Metrics(...)`.
struct MetricsOptions {
  /// Period of the background sampler thread; 0 disables it (metrics are
  /// still collected into RunReport::observability at end of run).
  DurationMs scrape_period_ms = 0;
  /// Receives one JSON-lines scrape per sampler period. Called from the
  /// sampler thread; must be thread-safe. Required for the sampler to
  /// start (a period without a sink is a validation error).
  std::function<void(const std::string&)> sink;
};

/// Topology observability config (Topology::obs). Both layers default
/// off; `.Metrics()`/`.Trace()` flip them on.
struct ObsConfig {
  bool metrics_enabled = false;
  bool trace_enabled = false;
  MetricsOptions metrics;
  TraceOptions trace;

  Status Validate() const;
};

/// \brief Final scrape, embedded in RunReport::observability.
struct ObservabilityReport {
  bool metrics_enabled = false;
  bool trace_enabled = false;
  std::vector<MetricSample> metrics;
  std::vector<TraceSpan> spans;
  /// Spans skipped by the `sample_every` knob (still counted per worker).
  std::uint64_t spans_sampled_out = 0;
  /// Spans dropped at the per-worker `max_spans` cap.
  std::uint64_t spans_dropped = 0;
  /// Scrapes performed by the periodic sampler thread.
  std::uint64_t scrapes = 0;

  std::string PrometheusText() const { return obs::PrometheusText(metrics); }
  std::string MetricsJsonLines() const {
    return obs::MetricsJsonLines(metrics);
  }
  std::string SpansJsonLines() const { return obs::SpansJsonLines(spans); }
};

/// \brief Background scrape thread: renders `scrape()` as JSON lines into
/// `options.sink` every `options.scrape_period_ms`. Start/Stop are
/// idempotent; the thread holds no lock while rendering or invoking the
/// sink.
class PeriodicSampler {
 public:
  PeriodicSampler(std::function<std::vector<MetricSample>()> scrape,
                  MetricsOptions options)
      : scrape_(std::move(scrape)), options_(std::move(options)) {}
  ~PeriodicSampler() { Stop(); }

  PeriodicSampler(const PeriodicSampler&) = delete;
  PeriodicSampler& operator=(const PeriodicSampler&) = delete;

  /// No-op unless the config names both a period and a sink.
  void Start();
  /// Performs one final scrape before joining (so short runs still
  /// observe at least one sample through the sink).
  void Stop();

  std::uint64_t scrapes() const {
    return scrapes_.load(std::memory_order_relaxed);
  }

 private:
  void ScrapeOnce();

  std::function<std::vector<MetricSample>()> scrape_;
  MetricsOptions options_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool running_ = false;
  std::atomic<std::uint64_t> scrapes_{0};
};

}  // namespace spear::obs

#include "obs/observability.h"

#include <chrono>

namespace spear::obs {

Status ObsConfig::Validate() const {
  if (metrics.scrape_period_ms < 0) {
    return Status::Invalid("obs scrape period must be >= 0");
  }
  if (metrics.scrape_period_ms > 0 && !metrics.sink) {
    return Status::Invalid("obs scrape period requires a sink");
  }
  if (trace_enabled && trace.sample_every == 0) {
    return Status::Invalid("obs trace sample_every must be >= 1");
  }
  if (trace_enabled && trace.max_spans == 0) {
    return Status::Invalid("obs trace max_spans must be >= 1");
  }
  return Status::OK();
}

void PeriodicSampler::Start() {
  if (!scrape_ || options_.scrape_period_ms <= 0 || !options_.sink) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  running_ = true;
  stop_ = false;
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      const auto period =
          std::chrono::milliseconds(options_.scrape_period_ms);
      if (cv_.wait_for(lock, period, [this] { return stop_; })) break;
      lock.unlock();
      ScrapeOnce();
      lock.lock();
    }
  });
}

void PeriodicSampler::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
    running_ = false;
    to_join = std::move(thread_);
  }
  cv_.notify_all();
  if (to_join.joinable()) to_join.join();
  // Final scrape so even sub-period runs deliver one sample to the sink.
  ScrapeOnce();
}

void PeriodicSampler::ScrapeOnce() {
  if (!scrape_ || !options_.sink) return;
  options_.sink(MetricsJsonLines(scrape_()));
  scrapes_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace spear::obs

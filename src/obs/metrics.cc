#include "obs/metrics.h"

namespace spear::obs {

HistogramBuckets HistogramBuckets::LatencyNs() {
  return HistogramBuckets{{1'000,
                           2'000,
                           5'000,
                           10'000,
                           20'000,
                           50'000,
                           100'000,
                           200'000,
                           500'000,
                           1'000'000,
                           5'000'000,
                           10'000'000,
                           50'000'000,
                           100'000'000,
                           1'000'000'000,
                           10'000'000'000}};
}

HistogramBuckets HistogramBuckets::Counts() {
  return HistogramBuckets{
      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1'000, 10'000, 100'000, 1'000'000}};
}

Histogram::Histogram(HistogramBuckets buckets)
    : bounds_(std::move(buckets.bounds)),
      counts_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(std::int64_t v) {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

Counter* MetricsShard::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& n : counters_) {
    if (n.name == name) return n.instrument.get();
  }
  counters_.push_back(Named<Counter>{name, std::make_unique<Counter>()});
  return counters_.back().instrument.get();
}

Gauge* MetricsShard::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& n : gauges_) {
    if (n.name == name) return n.instrument.get();
  }
  gauges_.push_back(Named<Gauge>{name, std::make_unique<Gauge>()});
  return gauges_.back().instrument.get();
}

Histogram* MetricsShard::GetHistogram(const std::string& name,
                                      const HistogramBuckets& buckets) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& n : histograms_) {
    if (n.name == name) return n.instrument.get();
  }
  histograms_.push_back(
      Named<Histogram>{name, std::make_unique<Histogram>(buckets)});
  return histograms_.back().instrument.get();
}

void MetricsShard::Collect(std::vector<MetricSample>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto add = [&](const std::string& name, MetricSample::Kind kind) {
    MetricSample& s = out->emplace_back();
    s.name = name;
    s.stage = stage_;
    s.task = task_;
    s.kind = kind;
    return &s;
  };
  for (const auto& n : counters_) {
    add(n.name, MetricSample::Kind::kCounter)->value =
        static_cast<double>(n.instrument->value());
  }
  for (const auto& n : gauges_) {
    add(n.name, MetricSample::Kind::kGauge)->value = n.instrument->value();
  }
  for (const auto& n : histograms_) {
    MetricSample* s = add(n.name, MetricSample::Kind::kHistogram);
    s->bucket_bounds = n.instrument->bounds();
    s->bucket_counts = n.instrument->bucket_counts();
    s->hist_count = n.instrument->count();
    s->hist_sum = static_cast<double>(n.instrument->sum());
  }
}

}  // namespace spear::obs

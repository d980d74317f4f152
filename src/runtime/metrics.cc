#include "runtime/metrics.h"

#include <algorithm>
#include <type_traits>
#include <utility>

namespace spear {

namespace {

std::int64_t PercentileOfSorted(const std::vector<std::int64_t>& sorted,
                                double p) {
  if (sorted.empty()) return 0;
  const double pos = p * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(pos + 0.5)];
}

}  // namespace

MetricSummary MetricSummary::FromSamples(std::vector<std::int64_t> samples) {
  MetricSummary out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.count = samples.size();
  double sum = 0.0;
  for (std::int64_t s : samples) sum += static_cast<double>(s);
  out.mean = sum / static_cast<double>(samples.size());
  out.min = samples.front();
  out.max = samples.back();
  out.p50 = PercentileOfSorted(samples, 0.50);
  out.p95 = PercentileOfSorted(samples, 0.95);
  out.p99 = PercentileOfSorted(samples, 0.99);
  return out;
}

void SumCountedSeries(const std::vector<obs::MetricSample>& scrape,
                      FaultStats* faults, OverloadStats* overload) {
  for (const obs::MetricSample& sample : scrape) {
    if (sample.kind != obs::MetricSample::Kind::kCounter) continue;
    WorkerMetrics::ForEachCountedField(
        *faults, *overload, [&](WorkerMetrics::Event event, auto& field) {
          if (sample.name == WorkerMetrics::kSeries[event]) {
            field += static_cast<std::decay_t<decltype(field)>>(sample.value);
          }
        });
  }
}

WorkerMetrics::WorkerMetrics(std::string stage, int task_id)
    : owned_shard_(
          std::make_unique<obs::MetricsShard>(std::move(stage), task_id)) {
  Wire(owned_shard_.get());
}

WorkerMetrics::WorkerMetrics(obs::MetricsShard* shard) { Wire(shard); }

void WorkerMetrics::Wire(obs::MetricsShard* shard) {
  shard_ = shard;
  for (std::size_t e = 0; e < kNumEvents; ++e) {
    counters_[e] = shard->GetCounter(kSeries[e]);
  }
  window_hist_ = shard->GetHistogram("window_processing_ns",
                                     obs::HistogramBuckets::LatencyNs());
}

std::pair<FaultStats, OverloadStats> WorkerMetrics::Totals() const {
  std::vector<obs::MetricSample> scrape;
  shard_->Collect(&scrape);
  std::pair<FaultStats, OverloadStats> totals;
  SumCountedSeries(scrape, &totals.first, &totals.second);
  return totals;
}

obs::MetricsShard* MetricsRegistry::GetShard(const std::string& stage,
                                             int task) {
  std::lock_guard<std::mutex> lock(*mu_);
  for (auto& shard : shards_) {
    if (shard.stage() == stage && shard.task() == task) return &shard;
  }
  shards_.emplace_back(stage, task);
  return &shards_.back();
}

WorkerMetrics* MetricsRegistry::Register(const std::string& stage,
                                         int task_id) {
  obs::MetricsShard* shard = GetShard(stage, task_id);
  workers_.push_back(std::make_unique<WorkerMetrics>(shard));
  return workers_.back().get();
}

std::vector<obs::MetricSample> MetricsRegistry::Collect() const {
  std::vector<obs::MetricSample> out;
  std::lock_guard<std::mutex> lock(*mu_);
  for (const auto& shard : shards_) shard.Collect(&out);
  return out;
}

std::uint64_t MetricsRegistry::CounterTotal(const std::string& name) const {
  std::uint64_t total = 0;
  for (const obs::MetricSample& s : Collect()) {
    if (s.kind == obs::MetricSample::Kind::kCounter && s.name == name) {
      total += static_cast<std::uint64_t>(s.value);
    }
  }
  return total;
}

std::vector<const WorkerMetrics*> MetricsRegistry::ForStage(
    const std::string& stage) const {
  std::vector<const WorkerMetrics*> out;
  for (const auto& w : workers_) {
    if (w->stage() == stage) out.push_back(w.get());
  }
  return out;
}

MetricSummary MetricsRegistry::StageWindowSummary(
    const std::string& stage) const {
  std::vector<std::int64_t> pooled;
  for (const WorkerMetrics* w : ForStage(stage)) {
    pooled.insert(pooled.end(), w->window_ns().begin(), w->window_ns().end());
  }
  return MetricSummary::FromSamples(std::move(pooled));
}

double MetricsRegistry::StageMeanMemoryPerWorker(
    const std::string& stage) const {
  double sum = 0.0;
  int workers = 0;
  for (const WorkerMetrics* w : ForStage(stage)) {
    const MetricSummary s = w->MemorySummary();
    if (s.count == 0) continue;
    sum += s.mean;
    ++workers;
  }
  return workers == 0 ? 0.0 : sum / workers;
}

}  // namespace spear

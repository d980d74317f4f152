/// \file bench_ablation_sampling.cc
/// Ablation B (google-benchmark micro-suite) for the design choices inside
/// SPEAr's budget machinery:
///   * reservoir Algorithm R vs Algorithm L offer cost (L's geometric
///     skips should win at large window/budget ratios);
///   * congress vs proportional-only stratified allocation (quality is
///     covered by tests; here we measure allocation cost);
///   * CountMin per-tuple update vs a reservoir offer + moment update —
///     the per-tuple overhead gap behind Table 2;
///   * the accuracy estimator's watermark-time cost (the "constant number
///     of operations" claim of Sec. 4.2).

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/estimators.h"
#include "sketch/count_min.h"
#include "sketch/gk_quantile.h"
#include "stats/congress.h"
#include "stats/reservoir_sampler.h"
#include "stats/running_stats.h"

namespace spear {
namespace {

void BM_ReservoirAlgorithmR(benchmark::State& state) {
  const auto budget = static_cast<std::size_t>(state.range(0));
  ReservoirSampler<double> sampler(budget, 1,
                                   ReservoirAlgorithm::kAlgorithmR);
  double x = 0.0;
  for (auto _ : state) {
    sampler.Offer(x);
    x += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReservoirAlgorithmR)->Arg(150)->Arg(1000)->Arg(4000);

void BM_ReservoirAlgorithmL(benchmark::State& state) {
  const auto budget = static_cast<std::size_t>(state.range(0));
  ReservoirSampler<double> sampler(budget, 1,
                                   ReservoirAlgorithm::kAlgorithmL);
  double x = 0.0;
  for (auto _ : state) {
    sampler.Offer(x);
    x += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReservoirAlgorithmL)->Arg(150)->Arg(1000)->Arg(4000);

void BM_RunningStatsUpdate(benchmark::State& state) {
  RunningStats stats;
  double x = 0.0;
  for (auto _ : state) {
    stats.Update(x);
    x += 0.5;
  }
  benchmark::DoNotOptimize(stats.mean());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunningStatsUpdate);

void BM_CountMinUpdate(benchmark::State& state) {
  // Sized for eps=10% / conf=95%, the Table 2 configuration.
  auto sketch = CountMinSketch::Make(0.10, 0.05);
  Rng rng(3);
  std::vector<std::string> keys;
  for (int i = 0; i < 1024; ++i) {
    keys.push_back(std::string("g").append(std::to_string(i)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    sketch->Update(keys[i++ & 1023], 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinUpdate);

void BM_CongressAllocate(benchmark::State& state) {
  const auto groups = static_cast<std::size_t>(state.range(0));
  std::unordered_map<std::string, std::uint64_t> freq;
  for (std::size_t g = 0; g < groups; ++g) {
    freq[std::string("g").append(std::to_string(g))] = 1 + 10000 / (g + 1);
  }
  for (auto _ : state) {
    auto allocs = CongressAllocate(freq, 4000);
    benchmark::DoNotOptimize(allocs);
  }
}
BENCHMARK(BM_CongressAllocate)->Arg(8)->Arg(128)->Arg(2048);

void BM_ProportionalAllocate(benchmark::State& state) {
  const auto groups = static_cast<std::size_t>(state.range(0));
  std::unordered_map<std::string, std::uint64_t> freq;
  for (std::size_t g = 0; g < groups; ++g) {
    freq[std::string("g").append(std::to_string(g))] = 1 + 10000 / (g + 1);
  }
  for (auto _ : state) {
    auto allocs = ProportionalAllocate(freq, 4000);
    benchmark::DoNotOptimize(allocs);
  }
}
BENCHMARK(BM_ProportionalAllocate)->Arg(8)->Arg(128)->Arg(2048);

void BM_GkQuantileAdd(benchmark::State& state) {
  // The deterministic bounded-memory alternative for holistic ops: one
  // ordered insert + periodic compress per tuple, vs the reservoir's O(1).
  auto gk = GkQuantileSketch::Make(0.01);
  Rng rng(7);
  for (auto _ : state) {
    gk->Add(rng.NextDouble());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GkQuantileAdd);

void BM_GkQuantileQuery(benchmark::State& state) {
  auto gk = GkQuantileSketch::Make(0.01);
  Rng rng(8);
  for (int i = 0; i < 100000; ++i) gk->Add(rng.NextDouble());
  for (auto _ : state) {
    auto q = gk->Quantile(0.95);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_GkQuantileQuery);

void BM_ScalarMeanEstimate(benchmark::State& state) {
  // Watermark-time estimation cost over a b=1000 sample.
  Rng rng(5);
  std::vector<double> sample;
  RunningStats stats;
  for (int i = 0; i < 1000; ++i) {
    const double v = 10.0 + rng.NextGaussian();
    sample.push_back(v);
    stats.Update(v);
  }
  const AccuracySpec spec{0.10, 0.95};
  for (auto _ : state) {
    auto est = EstimateScalar(AggregateSpec::Mean(), sample, stats, 47000,
                              spec);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_ScalarMeanEstimate);

void BM_QuantileEstimate(benchmark::State& state) {
  Rng rng(6);
  std::vector<double> sample;
  for (int i = 0; i < 150; ++i) sample.push_back(rng.NextDouble());
  const AccuracySpec spec{0.10, 0.99};
  for (auto _ : state) {
    auto est = EstimateScalarQuantile(0.5, sample, 47000, spec);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_QuantileEstimate);

}  // namespace
}  // namespace spear

BENCHMARK_MAIN();

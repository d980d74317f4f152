#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/harness.h"
#include "runtime/executor.h"
#include "runtime/spouts.h"

/// \file bench_channel_throughput.cc
/// Measures raw inter-stage channel throughput (tuples/sec) on a 2-stage
/// shuffle topology with near-free bolts, across worker counts 1-8 and
/// channel batch sizes 1/16/64/256. Batch size 1 reproduces the historical
/// per-tuple Push/Pop channel and is the baseline every other row is
/// normalized against, so the micro-batching win is measured, not asserted.
///
///   bench_channel_throughput [--tuples N] [--json FILE] [--metrics]
///
/// Every configuration runs kReps times, the sweeps interleaved; each row
/// reports the median and interquartile range of tuples/sec, and the
/// medians of process CPU ns/tuple and of voluntary context switches per
/// run (the cross-thread handoff's sleep/wake cost).
///
/// --json writes the full result grid as JSON, with the core count, build
/// type and repetition count (BENCH_channel.json keeps the committed
/// baseline for the perf trajectory across PRs). --metrics runs the same
/// grid with `.Metrics().Trace()` enabled, so the observability overhead
/// on the hot channel path can be compared against the committed baseline
/// (it must stay within run-to-run noise).

namespace spear::bench {
namespace {

/// Forwards every tuple downstream: all measured cost is the channel.
struct ForwardBolt : Bolt {
  Status Execute(const Tuple& tuple, Emitter* out) override {
    out->Emit(tuple);
    return Status::OK();
  }
};

/// Consumes tuples without emitting, so sink collection stays off the
/// measured path.
struct DrainBolt : Bolt {
  Status Execute(const Tuple&, Emitter*) override { return Status::OK(); }
};

#ifndef SPEAR_BUILD_TYPE
#define SPEAR_BUILD_TYPE "unknown"
#endif

constexpr int kReps = 7;

struct Measurement {
  double tuples_per_sec = 0.0;
  double cpu_ns_per_tuple = 0.0;
  double voluntary_switches = 0.0;
};

/// One configuration's repetitions, summarized.
struct Row {
  int workers = 0;
  std::size_t batch = 0;
  std::vector<Measurement> reps;
};

std::int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Voluntary context switches of the whole process so far (the run's
/// threads have exited by the time it is read, and their counts are kept).
long VoluntarySwitches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nvcsw;
}

/// Linearly interpolated quantile of `values` (copied, then sorted).
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::vector<double> Field(const Row& row, double Measurement::*field) {
  std::vector<double> out;
  for (const Measurement& m : row.reps) out.push_back(m.*field);
  return out;
}

Measurement RunOnce(const std::vector<Tuple>& tuples, int workers,
                    std::size_t batch, bool metrics) {
  TopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(tuples));
  builder.BatchMaxTuples(batch);
  if (metrics) builder.Metrics().Trace();
  builder.Stage("forward", workers, Partitioner::Shuffle(),
                [](int) { return std::make_unique<ForwardBolt>(); });
  builder.Stage("drain", workers, Partitioner::Shuffle(),
                [](int) { return std::make_unique<DrainBolt>(); });
  auto topology = builder.Build();
  if (!topology.ok()) {
    std::cerr << "topology: " << topology.status().ToString() << "\n";
    std::abort();
  }
  const long switches0 = VoluntarySwitches();
  const std::int64_t cpu0 = ProcessCpuNs();
  const std::int64_t start = NowNs();
  auto report = Executor(std::move(*topology)).Run();
  const std::int64_t wall = NowNs() - start;
  const std::int64_t cpu = ProcessCpuNs() - cpu0;
  const long switches = VoluntarySwitches() - switches0;
  if (!report.ok()) {
    std::cerr << "run: " << report.status().ToString() << "\n";
    std::abort();
  }
  const auto n = static_cast<double>(tuples.size());
  Measurement m;
  m.tuples_per_sec = n / (static_cast<double>(wall) * 1e-9);
  m.cpu_ns_per_tuple = static_cast<double>(cpu) / n;
  m.voluntary_switches = static_cast<double>(switches);
  return m;
}

int Main(int argc, char** argv) {
  std::size_t num_tuples = 300'000;
  std::string json_path;
  bool metrics = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--tuples") == 0 && a + 1 < argc) {
      num_tuples = static_cast<std::size_t>(std::stoull(argv[++a]));
    } else if (std::strcmp(argv[a], "--json") == 0 && a + 1 < argc) {
      json_path = argv[++a];
    } else if (std::strcmp(argv[a], "--metrics") == 0) {
      metrics = true;
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--tuples N] [--json FILE] [--metrics]\n";
      return 2;
    }
  }

  // Payload-free tuples: copying one is allocation-free, so the measured
  // cost is the channel machinery rather than tuple duplication.
  std::vector<Tuple> tuples;
  tuples.reserve(num_tuples);
  for (std::size_t i = 0; i < num_tuples; ++i) {
    tuples.emplace_back(static_cast<Timestamp>(i), std::vector<Value>{});
  }

  const int worker_counts[] = {1, 2, 4, 8};
  const std::size_t batch_sizes[] = {1, 16, 64, 256};

  const unsigned cores = std::thread::hardware_concurrency();
  PrintTitle("Channel throughput",
             "2-stage shuffle (source -> forward -> drain), " +
                 FmtCount(num_tuples) + " tuples, " + std::to_string(kReps) +
                 " reps, " + std::to_string(cores) + " cores, " +
                 SPEAR_BUILD_TYPE + "; batch=1 is the historical "
                 "per-tuple channel baseline" +
                 (metrics ? "; observability ON (.Metrics().Trace())" : ""));
  PrintRow({"workers/stage", "batch", "tuples/s median", "tuples/s IQR",
            "cpu ns/tuple", "vol. switches", "vs batch=1"});

  // Warm-up (thread creation, allocator), then kReps per config with the
  // sweeps interleaved: scheduler-noise windows on a shared box last
  // seconds, so consecutive reps of one config would all land in the same
  // window, while whole-grid sweeps decorrelate them.
  RunOnce(tuples, worker_counts[0], batch_sizes[0], metrics);
  std::vector<Row> rows;
  for (int workers : worker_counts) {
    for (std::size_t batch : batch_sizes) rows.push_back({workers, batch, {}});
  }
  for (int rep = 0; rep < kReps; ++rep) {
    for (Row& row : rows) {
      row.reps.push_back(RunOnce(tuples, row.workers, row.batch, metrics));
    }
  }

  struct Summary {
    double tps_median, tps_p25, tps_p75, cpu_median, switches_median;
  };
  std::vector<Summary> summaries;
  double baseline = 0.0;
  for (const Row& row : rows) {
    const std::vector<double> tps = Field(row, &Measurement::tuples_per_sec);
    const Summary sum{
        Quantile(tps, 0.5), Quantile(tps, 0.25), Quantile(tps, 0.75),
        Quantile(Field(row, &Measurement::cpu_ns_per_tuple), 0.5),
        Quantile(Field(row, &Measurement::voluntary_switches), 0.5)};
    summaries.push_back(sum);
    if (row.batch == 1) baseline = sum.tps_median;
    char cpu[32];
    char speedup[32];
    std::snprintf(cpu, sizeof(cpu), "%.1f", sum.cpu_median);
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  sum.tps_median / baseline);
    PrintRow({std::to_string(row.workers), std::to_string(row.batch),
              FmtCount(static_cast<std::uint64_t>(sum.tps_median)),
              FmtCount(static_cast<std::uint64_t>(sum.tps_p75 - sum.tps_p25)),
              cpu,
              FmtCount(static_cast<std::uint64_t>(sum.switches_median)),
              speedup});
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"channel_throughput\",\n"
        << "  \"command\": \"bench_channel_throughput --json "
           "BENCH_channel.json\",\n"
        << "  \"topology\": \"source -> forward -> drain (shuffle)\",\n"
        << "  \"observability\": " << (metrics ? "true" : "false") << ",\n"
        << "  \"cores\": " << cores << ",\n"
        << "  \"build_type\": \"" << SPEAR_BUILD_TYPE << "\",\n"
        << "  \"repetitions\": " << kReps << ",\n"
        << "  \"tuples\": " << num_tuples << ",\n  \"results\": [\n";
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const Summary& sum = summaries[k];
      char line[512];
      std::snprintf(
          line, sizeof(line),
          "    {\"workers_per_stage\": %d, \"batch_max_tuples\": %zu, "
          "\"tuples_per_sec_median\": %.0f, \"tuples_per_sec_p25\": %.0f, "
          "\"tuples_per_sec_p75\": %.0f, \"tuples_per_sec_iqr\": %.0f, "
          "\"cpu_ns_per_tuple_median\": %.1f, "
          "\"voluntary_switches_median\": %.0f}%s\n",
          rows[k].workers, rows[k].batch, sum.tps_median, sum.tps_p25,
          sum.tps_p75, sum.tps_p75 - sum.tps_p25, sum.cpu_median,
          sum.switches_median, k + 1 < rows.size() ? "," : "");
      out << line;
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace spear::bench

int main(int argc, char** argv) { return spear::bench::Main(argc, argv); }

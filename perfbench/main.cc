// spear_bench: the SPEAr repository benchmark.
//
//   spear_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   spear_bench --selftest
//
// Untraced (--trace 0): generates the workload's input, compiles it into a
// topology, and runs Executor::Run over the whole input in rounds for
// --seconds, checking every round against the benchmark's own answers.
// Prints the end-to-end metrics. Traced (--trace 1): the same threaded
// rounds with operational features toggled, then a single-thread replay
// through each layer's public functions with spans; prints the per-layer
// metrics and writes the spans to .bench_build/perfbench/spans-<name>.jsonl
// under the working directory. The last line of standard output is one JSON
// object.

#include <malloc.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"
#include "common/time.h"

namespace {

using namespace perfbench;

// Set before main() runs: set-up time is measured from process start.
const auto kProcessStart = std::chrono::steady_clock::now();

constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
};

int Usage() {
  std::cerr << "usage: spear_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n"
               "       spear_bench --selftest\nworkloads:";
  for (const Workload& w : AllWorkloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds >= 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return args->selftest || !args->workload.empty();
}

std::int64_t HeapInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<std::int64_t>(mi.uordblks + mi.hblkhd);
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const LayerMetrics& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
}

/// A series whose first run failed measured nothing to report.
bool AllPlansRan(const ThreadedResult& r) {
  for (const PlanRounds& p : r.per_plan) {
    if (p.rounds.empty()) {
      std::cerr << "no run completed\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) return Usage();
  if (args.selftest) return RunCheckerSelfTest() ? 0 : 1;
  const Workload* found = FindWorkload(args.workload);
  if (found == nullptr) return Usage();
  const Workload& w = *found;

  // Untraced: the workload as configured. Traced: operational features
  // off, checkpointing only, observability only.
  const std::vector<Features> features =
      args.trace ? std::vector<Features>{{false, false}, {true, false},
                                         {false, true}}
                 : std::vector<Features>{w.features};

  // --- Set-up: input generation + topology build (cold) --------------------
  const std::int64_t heap0 = HeapInUse();
  const std::int64_t gen0 = spear::NowNs();
  RoundInput first;
  first.spout =
      std::make_shared<spear::VectorSpout>(GenerateInput(w, args.seed, 0));
  const std::int64_t gen1 = spear::NowNs();
  const std::int64_t heap1 = HeapInUse();
  spear::Result<std::vector<Plan>> plans = MakePlans(w, first.spout, features);
  if (!plans.ok()) {
    std::cerr << "topology build failed: " << plans.status().ToString()
              << "\n";
    return 1;
  }
  const double setup_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - kProcessStart)
                             .count();
  first.plans = std::move(*plans);
  const std::shared_ptr<spear::VectorSpout> spout = first.spout;
  const double n = static_cast<double>(spout->size());
  first.checker = std::make_unique<Checker>(w, spout.get());
  std::cerr << w.name << " seed " << args.seed << ": " << spout->size()
            << " tuples, " << first.checker->expected_results()
            << " expected results, set-up " << setup_s << " s\n";
  const std::size_t queue_capacity = first.plans.front().topology.queue_capacity;

  LayerMetrics out;
  if (!args.trace) {
    const ThreadedResult r = RunThreaded(w, args.seed, features,
                                         std::move(first), args.seconds, false);
    if (!AllPlansRan(r)) return 1;
    const PlanRounds& measured = r.per_plan.front();
    std::vector<double> cpu;
    std::vector<double> wall;
    std::vector<double> rss;
    for (const RoundStats& s : measured.rounds) {
      cpu.push_back(s.cpu_ns_per_tuple);
      wall.push_back(s.wall_ns_per_tuple);
      rss.push_back(s.rss_growth_bytes);
    }
    // Wall-clock throughput and the window p95 scatter too much between
    // runs on a shared host to gate on; they are logged for reference.
    const auto window_us = [&](double q) {
      return static_cast<double>(Percentile(measured.window_ns, q)) / 1e3;
    };
    std::cerr << measured.rounds.size() << " rounds, "
              << measured.window_ns.size() << " window samples, wall "
              << 1e9 / Median(wall) << " tuples/s, window p95 "
              << window_us(0.95) << " us (reference only)\n";
    out["cpu_ns_per_tuple"] = {Median(cpu), "ns/tuple"};
    out["window_p50_us"] = {window_us(0.50), "us"};
    // The cold first run: later runs in this process reuse heap that the
    // earlier runs' worker arenas kept, so their growth understates (and
    // scatters).
    out["run_rss_mib"] = {rss.front() / kMiB, "MiB"};
    out["mean_spec_error"] = {r.mean_spec_error, "ratio"};
    out["setup_s"] = {setup_s, "s"};
    PrintResult(r.correct, r.attempted, r.failed, out);
    return 0;
  }

  // --- Traced: threaded rounds with features toggled, then the replay ------
  const ThreadedResult r = RunThreaded(w, args.seed, features,
                                       std::move(first), args.seconds, true);
  if (!AllPlansRan(r)) return 1;
  // Feature overheads pair the runs of one round (same input, adjacent in
  // time) before taking the median.
  const auto median_cpu_minus_off = [&](std::size_t p) {
    const std::vector<RoundStats>& on = r.per_plan[p].rounds;
    const std::vector<RoundStats>& off = r.per_plan[0].rounds;
    std::vector<double> v;
    for (std::size_t i = 0; i < std::min(on.size(), off.size()); ++i) {
      v.push_back(on[i].cpu_ns_per_tuple -
                  (p == 0 ? 0.0 : off[i].cpu_ns_per_tuple));
    }
    return Median(v);
  };
  const double cpu_off = median_cpu_minus_off(0);

  const double hop = ChannelHopNsPerTuple(spout, queue_capacity);
  SpanRecorder spans;
  spans.Add("data.generate", gen0, gen1, -1);
  std::vector<Tuple> replay_output;
  out = ReplayLayers(w, spout, &spans, &replay_output);
  const bool replay_matches = replay_output == r.first_output;
  std::cerr << "replay reproduces the threaded results: "
            << (replay_matches ? "yes" : "NO") << " (" << replay_output.size()
            << " results)\n";

  const double single_thread =
      out["runtime.single_thread_ns_per_tuple"].value + hop;
  out["runtime.single_thread_ns_per_tuple"].value = single_thread;
  out["data.generate_ns_per_tuple"] = {static_cast<double>(gen1 - gen0) / n,
                                       "ns/tuple"};
  out["tuple.heap_bytes_per_tuple"] = {static_cast<double>(heap1 - heap0) / n,
                                       "bytes/tuple"};
  out["channel.hop_ns_per_tuple"] = {hop, "ns/tuple"};
  out["runtime.threaded_overhead_ns_per_tuple"] = {cpu_off - single_thread,
                                                   "ns/tuple"};
  out["checkpoint.overhead_ns_per_tuple"] = {median_cpu_minus_off(1),
                                             "ns/tuple"};
  out["obs.overhead_ns_per_tuple"] = {median_cpu_minus_off(2), "ns/tuple"};
  std::cerr << "threaded CPU " << cpu_off << " ns/tuple vs single-thread "
            << single_thread << " ns/tuple (x" << cpu_off / single_thread
            << ")\n"
            << spans.SelfTimeTable();
  const std::string spans_out =
      ".bench_build/perfbench/spans-" + w.name + ".jsonl";
  if (!spans.WriteJsonLines(spans_out)) {
    std::cerr << "cannot write spans to " << spans_out << "\n";
  }
  const bool selftest = RunCheckerSelfTest();
  PrintResult(r.correct && replay_matches && selftest, r.attempted, r.failed,
              out);
  return 0;
}

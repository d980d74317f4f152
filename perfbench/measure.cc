#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/blocking_queue.h"
#include "runtime/executor.h"
#include "runtime/windowed_bolt.h"

namespace perfbench {

using namespace spear;

std::int64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1'000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

std::int64_t ResidentBytesFrom(int fd) {
  char buf[128] = {};
  const ssize_t n = pread(fd, buf, sizeof(buf) - 1, 0);
  if (n <= 0) return 0;
  long long size = 0;
  long long resident = 0;
  if (std::sscanf(buf, "%lld %lld", &size, &resident) != 2) return 0;
  return static_cast<std::int64_t>(resident) * sysconf(_SC_PAGESIZE);
}

/// Samples resident memory every millisecond from one mostly-sleeping
/// thread, keeping the peak since the last Arm(). Fast enough to catch a
/// window materialized for the exact fallback.
class RssSampler {
 public:
  RssSampler()
      : fd_(open("/proc/self/statm", O_RDONLY)), thread_([this] { Loop(); }) {}
  ~RssSampler() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    if (fd_ >= 0) close(fd_);
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  std::int64_t Now() const { return ResidentBytesFrom(fd_); }

  void Arm(std::int64_t baseline) {
    peak_.store(baseline, std::memory_order_relaxed);
    armed_.store(true, std::memory_order_release);
  }

  std::int64_t Disarm() {
    Observe(Now());
    armed_.store(false, std::memory_order_release);
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(1), [this] { return stop_; });
      if (armed_.load(std::memory_order_acquire)) Observe(Now());
    }
  }

  void Observe(std::int64_t rss) {
    std::int64_t cur = peak_.load(std::memory_order_relaxed);
    while (rss > cur &&
           !peak_.compare_exchange_weak(cur, rss, std::memory_order_relaxed)) {
    }
  }

  const int fd_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<bool> armed_{false};
  std::atomic<std::int64_t> peak_{0};
  std::thread thread_;
};

struct RunOutput {
  std::vector<Tuple> output;
  std::uint64_t tuples_seen = 0;
  std::vector<obs::TraceSpan> spans;
  bool traced = false;
  std::vector<std::int64_t> window_ns;
  std::int64_t cpu_ns = 0;
  std::int64_t wall_ns = 0;
  std::int64_t rss_growth = 0;
};

Result<RunOutput> RunOnce(const Plan& plan, VectorSpout* spout,
                          RssSampler* sampler) {
  spout->Rewind();
  plan.decisions->Reset();
  // Hand freed heap back to the kernel so every run starts from the same
  // resident baseline.
  malloc_trim(0);
  Executor executor(plan.topology);
  RunOutput out;
  const std::int64_t rss0 = sampler->Now();
  sampler->Arm(rss0);
  const std::int64_t cpu0 = ProcessCpuNs();
  const auto wall0 = std::chrono::steady_clock::now();
  Result<RunReport> report = executor.Run();
  out.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - wall0)
                    .count();
  out.cpu_ns = ProcessCpuNs() - cpu0;
  out.rss_growth = sampler->Disarm() - rss0;
  if (!report.ok()) return report.status();
  out.output = std::move(report->output);
  out.tuples_seen = plan.decisions->Total().tuples_seen;
  out.traced = report->observability.trace_enabled;
  out.spans = std::move(report->observability.spans);
  for (const WorkerMetrics* m : report->metrics.ForStage("stateful")) {
    out.window_ns.insert(out.window_ns.end(), m->window_ns().begin(),
                         m->window_ns().end());
  }
  return out;
}

}  // namespace

Result<std::vector<Plan>> MakePlans(const Workload& w,
                                    const std::shared_ptr<VectorSpout>& spout,
                                    const std::vector<Features>& features) {
  std::vector<Plan> plans;
  for (const Features& f : features) {
    Plan plan;
    plan.decisions = std::make_shared<DecisionStatsCollector>();
    SPEAR_ASSIGN_OR_RETURN(plan.topology,
                           BuildTopology(w, spout, f, plan.decisions.get()));
    plans.push_back(std::move(plan));
  }
  return plans;
}

ThreadedResult RunThreaded(const Workload& w, std::uint64_t seed,
                           const std::vector<Features>& features,
                           RoundInput first, double seconds,
                           bool keep_first_output) {
  ThreadedResult result;
  result.per_plan.resize(features.size());
  RssSampler sampler;
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  std::uint64_t results = 0;
  double error_sum = 0.0;
  bool broken = false;
  RoundInput in = std::move(first);
  for (int round = 0;
       !broken && (round < 2 || elapsed() < seconds);
       ++round) {
    if (round > 0) {
      in = RoundInput{};  // free the previous input first
      in.spout = std::make_shared<VectorSpout>(GenerateInput(w, seed, round));
      Result<std::vector<Plan>> plans = MakePlans(w, in.spout, features);
      SPEAR_CHECK(plans.ok());
      in.plans = std::move(*plans);
      in.checker = std::make_unique<Checker>(w, in.spout.get());
    }
    const Checker& checker = *in.checker;
    const double tuples = static_cast<double>(checker.input_tuples());
    // Feature sets take turns, so slow drifts of the machine hit all.
    for (std::size_t p = 0; p < in.plans.size(); ++p) {
      result.attempted += checker.expected_results();
      Result<RunOutput> run = RunOnce(in.plans[p], in.spout.get(), &sampler);
      if (!run.ok()) {
        std::cerr << "run failed: " << run.status().ToString() << "\n";
        result.failed += checker.expected_results();
        result.correct = false;
        broken = true;  // the remaining feature sets still finish the round
        continue;
      }
      const RoundStats stats{static_cast<double>(run->cpu_ns) / tuples,
                             static_cast<double>(run->wall_ns) / tuples,
                             static_cast<double>(run->rss_growth)};
      std::fprintf(stderr,
                   "round %d plan %zu: cpu %.1f ns/tuple, wall %.1f ns/tuple, "
                   "rss +%.2f MiB, %zu windows\n",
                   round, p, stats.cpu_ns_per_tuple, stats.wall_ns_per_tuple,
                   stats.rss_growth_bytes / (1024.0 * 1024.0),
                   run->window_ns.size());
      PlanRounds& measured = result.per_plan[p];
      measured.rounds.push_back(stats);
      measured.window_ns.insert(measured.window_ns.end(),
                                run->window_ns.begin(), run->window_ns.end());
      const CheckOutcome c = checker.Check(
          run->output, run->tuples_seen, run->traced ? &run->spans : nullptr);
      result.failed += c.failed;
      result.correct = result.correct && c.correct();
      results += c.results;
      error_sum += c.error_sum;
      for (const std::string& problem : c.problems) {
        std::cerr << "check: " << problem << "\n";
      }
      if (keep_first_output && round == 0 && p == 0) {
        result.first_output = std::move(run->output);
        SortResults(&result.first_output);
      }
    }
  }
  result.mean_spec_error =
      results == 0 ? 0.0 : error_sum / static_cast<double>(results);
  return result;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::int64_t Percentile(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void SortResults(std::vector<Tuple>* results) {
  using L = ResultTupleLayout;
  const auto key = [](const Tuple& t) {
    return std::make_tuple(
        t.field(L::kStart).AsInt64(), t.field(L::kEnd).AsInt64(),
        t.num_fields() > L::kGroupRecovered ? t.field(L::kGroupKey).AsString()
                                            : std::string());
  };
  std::sort(results->begin(), results->end(),
            [&](const Tuple& a, const Tuple& b) { return key(a) < key(b); });
}

double ChannelHopNsPerTuple(const std::shared_ptr<VectorSpout>& spout,
                            std::size_t queue_capacity) {
  constexpr std::size_t kBatch = 64;
  const std::size_t n = std::min<std::size_t>(spout->size(), 1 << 18);
  std::vector<Tuple> items;
  items.reserve(n);
  spout->Rewind();
  spout->NextBatch(&items, n);

  BlockingQueue<Tuple> queue(queue_capacity);
  std::int64_t consumer_cpu = 0;
  std::thread consumer([&] {
    const std::int64_t c0 = ThreadCpuNs();
    std::vector<Tuple> sink;
    sink.reserve(n);
    std::vector<Tuple> got;
    while (queue.PopAll(&got, kBatch) > 0) {
      for (Tuple& t : got) sink.push_back(std::move(t));
      got.clear();
    }
    consumer_cpu = ThreadCpuNs() - c0;
  });
  const std::int64_t p0 = ThreadCpuNs();
  for (std::size_t i = 0; i < n; i += kBatch) {
    const auto first = items.begin() + static_cast<std::ptrdiff_t>(i);
    const auto last =
        items.begin() + static_cast<std::ptrdiff_t>(std::min(n, i + kBatch));
    std::vector<Tuple> batch(std::make_move_iterator(first),
                             std::make_move_iterator(last));
    queue.PushAll(std::move(batch));
  }
  queue.Close();
  const std::int64_t producer_cpu = ThreadCpuNs() - p0;
  consumer.join();
  return static_cast<double>(producer_cpu + consumer_cpu) /
         static_cast<double>(n);
}

}  // namespace perfbench

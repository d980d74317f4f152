#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/spear_config.h"
#include "obs/trace.h"
#include "runtime/spouts.h"
#include "runtime/topology.h"
#include "tuple/tuple.h"

/// \file bench.h
/// The SPEAr repository benchmark: workload definitions, the independent
/// output checker, the threaded end-to-end measurement and the traced
/// single-thread replay. Everything here drives the library through its
/// public API only.

namespace perfbench {

using spear::Tuple;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Which operational features a threaded run turns on.
struct Features {
  bool checkpoint = false;
  bool observability = false;
};

/// One benchmark workload: how its input is generated and the continuous
/// query that runs over it.
struct Workload {
  std::string name;
  /// Operator configuration shared by the topology and the traced replay
  /// (aggregate, window, accuracy spec, budget, known group count).
  spear::SpearOperatorConfig config;
  std::size_t value_field = 0;
  /// Group-by field; unset for scalar queries.
  std::optional<std::size_t> key_field;
  int workers = 1;
  spear::DurationMs watermark_interval = 0;
  /// Operational features the workload runs with (production topology).
  Features features;
  /// One of the src/data generators: (generator seed, stream duration).
  std::function<std::vector<Tuple>(std::uint64_t, spear::DurationMs)> generate;
  /// Stream duration of the generated input.
  spear::DurationMs duration = 0;
  /// Generator seed offset, so workloads never share an input stream.
  std::uint64_t seed_salt = 0;
};

const std::vector<Workload>& AllWorkloads();
const Workload* FindWorkload(const std::string& name);

/// Generates input number `round` of a run seeded with `seed` (time
/// ordered, event times set). Every round of a run gets a fresh stream;
/// round 0 is the one the run's set-up generates.
std::vector<Tuple> GenerateInput(const Workload& w, std::uint64_t seed,
                                 int round);

spear::ValueExtractor ValueOf(const Workload& w);
spear::KeyExtractor KeyOf(const Workload& w);  ///< null when scalar

/// Compiles the workload into a topology: source -> stateful SPEAr stage.
spear::Result<spear::Topology> BuildTopology(
    const Workload& w, std::shared_ptr<spear::VectorSpout> spout,
    Features features, spear::DecisionStatsCollector* decisions);

// ---------------------------------------------------------------------------
// Output checker
// ---------------------------------------------------------------------------

/// Verdict of one checked result set.
struct CheckOutcome {
  std::uint64_t expected = 0;     ///< (window, group) results expected
  std::uint64_t failed = 0;       ///< missing, duplicated, flagged, unexpected
  std::uint64_t results = 0;      ///< results that did not fail
  std::uint64_t exact_mismatch = 0;
  std::uint64_t expedited = 0;
  std::uint64_t within_epsilon = 0;
  double error_sum = 0.0;         ///< spec-unit error summed over `results`
  bool coverage_ok = true;
  bool conservation_ok = true;
  std::vector<std::string> problems;  ///< first few, for the log

  /// True when every result that did not fail is right and the run's
  /// properties (coverage, tuple conservation) hold.
  bool correct() const {
    return exact_mismatch == 0 && coverage_ok && conservation_ok;
  }
  /// Passes only when nothing failed either.
  bool passed() const { return correct() && failed == 0; }
};

/// Computes every true per-window (per-group) answer straight from the
/// input — sorting for percentiles, sums for means — with code of its own,
/// then judges result sets against it.
class Checker {
 public:
  /// Reads the whole input from `input` (rewound before and after).
  Checker(const Workload& w, spear::VectorSpout* input);

  /// `tuples_seen`: the program's summed DecisionStats::tuples_seen.
  /// `spans`: the run's window trace spans, or null when it traced none.
  CheckOutcome Check(const std::vector<Tuple>& results,
                     std::uint64_t tuples_seen,
                     const std::vector<spear::obs::TraceSpan>* spans) const;

  std::uint64_t expected_results() const { return entries_.size(); }
  std::uint64_t input_tuples() const { return input_tuples_; }

 private:
  struct Entry {
    double truth = 0.0;
    /// Sorted window values (percentile queries only): rank error.
    std::shared_ptr<const std::vector<double>> sorted;
  };

  double SpecError(const Entry& e, double value) const;

  bool percentile_ = false;
  double phi_ = 0.5;
  double epsilon_ = 0.1;
  double alpha_ = 0.95;
  std::uint64_t input_tuples_ = 0;
  std::vector<Entry> entries_;
  std::unordered_map<std::string, std::size_t> index_;  ///< "start|key"
  std::map<std::int64_t, std::uint64_t> window_counts_;
};

/// Runs the checker against perturbed copies of real result sets and
/// reports whether each perturbation was rejected. Returns true when all
/// were.
bool RunCheckerSelfTest();

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

std::int64_t ProcessCpuNs();   ///< user + system, all threads (getrusage)
std::int64_t ThreadCpuNs();

/// One Executor::Run.
struct RoundStats {
  double cpu_ns_per_tuple = 0.0;
  double wall_ns_per_tuple = 0.0;
  double rss_growth_bytes = 0.0;
};

/// A compiled topology plus the collector its SPEAr bolts report to.
struct Plan {
  spear::Topology topology;
  std::shared_ptr<spear::DecisionStatsCollector> decisions;
};

/// One plan per feature set, all reading `spout`.
spear::Result<std::vector<Plan>> MakePlans(
    const Workload& w, const std::shared_ptr<spear::VectorSpout>& spout,
    const std::vector<Features>& features);

/// One round's input and everything built over it.
struct RoundInput {
  std::shared_ptr<spear::VectorSpout> spout;
  std::vector<Plan> plans;  ///< one per feature set
  std::unique_ptr<Checker> checker;
};

/// What the rounds of one plan measured.
struct PlanRounds {
  std::vector<RoundStats> rounds;
  std::vector<std::int64_t> window_ns;  ///< pooled over rounds
};

/// Everything a series of threaded rounds measured and checked.
struct ThreadedResult {
  std::vector<PlanRounds> per_plan;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  double mean_spec_error = 0.0;
  /// Output of the first round, sorted (the replay compares against it).
  std::vector<Tuple> first_output;
};

/// Runs rounds until `seconds` have passed, at least two. A round runs
/// `Executor::Run` over one whole input once per feature set, in turn, and
/// checks every output. Round 0 runs on `first`; every later round
/// generates a fresh input (GenerateInput). A failed run makes the result
/// incorrect and ends the series after its round.
ThreadedResult RunThreaded(const Workload& w, std::uint64_t seed,
                           const std::vector<Features>& features,
                           RoundInput first, double seconds,
                           bool keep_first_output);

double Median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
std::int64_t Percentile(std::vector<std::int64_t> v, double q);

/// Sorts result tuples into a canonical order for comparison.
void SortResults(std::vector<Tuple>* results);

// ---------------------------------------------------------------------------
// Traced replay
// ---------------------------------------------------------------------------

struct Span {
  int name = 0;  ///< index into the recorder's name table
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at the root
};

/// In-memory span store; written as JSON lines when the benchmark ends.
class SpanRecorder {
 public:
  int Begin(const std::string& name, int parent);
  void End(int span);
  /// Records an already-timed span.
  int Add(const std::string& name, std::int64_t start_ns,
          std::int64_t end_ns, int parent);

  std::int64_t Total(const std::string& name) const;
  /// Per name: count, total and self time (duration minus the part covered
  /// by child spans).
  std::string SelfTimeTable() const;
  bool WriteJsonLines(const std::string& path) const;

 private:
  int NameId(const std::string& name);
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Reported metrics by name: value and unit.
struct LayerMetric {
  double value = 0.0;
  std::string unit;
};
using LayerMetrics = std::map<std::string, LayerMetric>;

/// Replays the input through each layer's public functions on this thread,
/// recording spans. `replay_output` receives the SpearBolt results (sorted)
/// so the caller can compare them with the threaded run's.
LayerMetrics ReplayLayers(const Workload& w,
                          const std::shared_ptr<spear::VectorSpout>& spout,
                          SpanRecorder* spans,
                          std::vector<Tuple>* replay_output);

/// BlockingQueue hop of 64-tuple batches between one producer and one
/// consumer thread: CPU ns per tuple of both threads together.
double ChannelHopNsPerTuple(const std::shared_ptr<spear::VectorSpout>& spout,
                            std::size_t queue_capacity);

}  // namespace perfbench

#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench.h"
#include "runtime/executor.h"
#include "runtime/windowed_bolt.h"

namespace perfbench {

using namespace spear;

namespace {

using L = ResultTupleLayout;

std::int64_t FloorDiv(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

std::string GroupKeyOf(const Value& v) {
  if (v.is_string()) return v.AsString();
  if (v.is_int64()) return std::to_string(v.AsInt64());
  return std::to_string(v.AsDouble());
}

std::string EntryKey(std::int64_t start, const std::string& group) {
  std::string k = std::to_string(start);
  k.push_back('\x1f');
  k += group;
  return k;
}

/// Linear interpolation between closest ranks at phi * (n - 1).
double SortedPercentile(const std::vector<double>& sorted, double phi) {
  const double pos = phi * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

void Note(CheckOutcome* o, const std::string& problem) {
  if (o->problems.size() < 5) o->problems.push_back(problem);
}

}  // namespace

Checker::Checker(const Workload& w, VectorSpout* input)
    : percentile_(w.config.aggregate.kind == AggregateKind::kPercentile),
      phi_(w.config.aggregate.phi),
      epsilon_(w.config.accuracy.epsilon),
      alpha_(w.config.accuracy.confidence),
      input_tuples_(input->size()) {
  const std::int64_t range = w.config.window.range;
  const std::int64_t slide = w.config.window.slide;
  struct Acc {
    double sum = 0.0;
    std::uint64_t count = 0;
    std::vector<double> values;
  };
  std::map<std::int64_t, std::unordered_map<std::string, Acc>> open;

  const auto close_window = [&](std::int64_t start,
                                std::unordered_map<std::string, Acc>& groups) {
    std::vector<std::string> keys;
    keys.reserve(groups.size());
    for (const auto& [key, acc] : groups) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (const std::string& key : keys) {
      Acc& acc = groups[key];
      Entry e;
      if (percentile_) {
        std::sort(acc.values.begin(), acc.values.end());
        e.truth = SortedPercentile(acc.values, phi_);
        e.sorted = std::make_shared<const std::vector<double>>(
            std::move(acc.values));
      } else {
        e.truth = acc.sum / static_cast<double>(acc.count);
      }
      window_counts_[start] += acc.count;
      index_.emplace(EntryKey(start, key), entries_.size());
      entries_.push_back(std::move(e));
    }
  };

  input->Rewind();
  std::vector<Tuple> batch;
  bool more = true;
  while (more) {
    batch.clear();
    more = input->NextBatch(&batch, 4096);
    for (const Tuple& t : batch) {
      const std::int64_t coord = t.event_time();
      // The input is time ordered: windows ending at or before this tuple
      // are final.
      while (!open.empty() && open.begin()->first + range <= coord) {
        close_window(open.begin()->first, open.begin()->second);
        open.erase(open.begin());
      }
      const std::string key = w.key_field
                                  ? GroupKeyOf(t.field(*w.key_field))
                                  : std::string();
      const double v = t.field(w.value_field).AsNumeric();
      for (std::int64_t s = FloorDiv(coord, slide) * slide; s > coord - range;
           s -= slide) {
        Acc& acc = open[s][key];
        acc.sum += v;
        ++acc.count;
        if (percentile_) acc.values.push_back(v);
      }
    }
  }
  input->Rewind();
  for (auto& [start, groups] : open) close_window(start, groups);
}

double Checker::SpecError(const Entry& e, double value) const {
  if (!percentile_) {
    return std::fabs(value - e.truth) /
           std::max(std::fabs(e.truth), 1e-300);
  }
  // Rank error: distance from phi to the rank interval the value occupies.
  const std::vector<double>& s = *e.sorted;
  const double n = static_cast<double>(s.size());
  const double lo =
      static_cast<double>(std::lower_bound(s.begin(), s.end(), value) -
                          s.begin()) / n;
  const double hi =
      static_cast<double>(std::upper_bound(s.begin(), s.end(), value) -
                          s.begin()) / n;
  return std::max({0.0, lo - phi_, phi_ - hi});
}

CheckOutcome Checker::Check(
    const std::vector<Tuple>& results, std::uint64_t tuples_seen,
    const std::vector<obs::TraceSpan>* spans) const {
  CheckOutcome o;
  o.expected = entries_.size();
  std::vector<std::uint8_t> seen(entries_.size(), 0);
  for (const Tuple& r : results) {
    const bool grouped = r.num_fields() == L::kGroupRecovered + 1;
    if (!grouped && r.num_fields() != L::kScalarRecovered + 1) {
      ++o.failed;
      Note(&o, "malformed result " + r.ToString());
      continue;
    }
    const std::int64_t start = r.field(L::kStart).AsInt64();
    const std::string key =
        grouped ? r.field(L::kGroupKey).AsString() : std::string();
    const double value =
        r.field(grouped ? L::kGroupValue : L::kScalarValue).AsDouble();
    const bool approx =
        r.field(grouped ? L::kGroupApprox : L::kScalarApprox).AsInt64() != 0;
    const bool degraded =
        r.field(grouped ? L::kGroupDegraded : L::kScalarDegraded).AsInt64() !=
        0;
    const bool recovered =
        r.field(grouped ? L::kGroupRecovered : L::kScalarRecovered)
            .AsInt64() != 0;

    const auto it = index_.find(EntryKey(start, key));
    if (it == index_.end()) {
      ++o.failed;
      Note(&o, "unexpected result " + r.ToString());
      continue;
    }
    if (seen[it->second]++ != 0) {
      ++o.failed;
      Note(&o, "duplicate result " + r.ToString());
      continue;
    }
    if (degraded || recovered) {
      ++o.failed;
      Note(&o, "flagged result " + r.ToString());
      continue;
    }
    const Entry& e = entries_[it->second];
    const double err = SpecError(e, value);
    ++o.results;
    o.error_sum += err;
    if (approx) {
      ++o.expedited;
      if (err <= epsilon_ + 1e-12) ++o.within_epsilon;
    } else if (std::fabs(value - e.truth) >
               1e-9 * std::max(1.0, std::fabs(e.truth))) {
      ++o.exact_mismatch;
      Note(&o, "exact result " + r.ToString() + " != truth " +
                   std::to_string(e.truth));
    }
  }
  const auto missing = static_cast<std::uint64_t>(
      std::count(seen.begin(), seen.end(), std::uint8_t{0}));
  if (missing > 0) {
    o.failed += missing;
    Note(&o, std::to_string(missing) + " expected results missing");
  }

  if (o.expedited > 0) {
    const double n = static_cast<double>(o.expedited);
    const double bound = alpha_ - 3.0 * std::sqrt(alpha_ * (1.0 - alpha_) / n);
    const double coverage = static_cast<double>(o.within_epsilon) / n;
    o.coverage_ok = coverage >= bound;
    if (!o.coverage_ok) {
      Note(&o, "coverage " + std::to_string(coverage) + " < " +
                   std::to_string(bound));
    }
  }

  if (tuples_seen != input_tuples_) {
    o.conservation_ok = false;
    Note(&o, "tuples_seen " + std::to_string(tuples_seen) + " != generated " +
                 std::to_string(input_tuples_));
  }
  if (spans != nullptr) {
    std::map<std::int64_t, std::uint64_t> arrivals;
    for (const obs::TraceSpan& s : *spans) arrivals[s.window_start] += s.arrivals;
    if (arrivals != window_counts_) {
      o.conservation_ok = false;
      Note(&o, "span arrivals disagree with generated per-window counts");
    }
  }
  return o;
}

// ---------------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------------

namespace {

struct Reference {
  std::vector<Tuple> output;
  std::uint64_t tuples_seen = 0;
  std::vector<obs::TraceSpan> spans;
};

Reference RunSmall(const Workload& w,
                   const std::shared_ptr<VectorSpout>& spout) {
  spout->Rewind();
  DecisionStatsCollector decisions;
  // Traced, so the span-arrival check has real spans to judge.
  Result<Topology> topology = BuildTopology(
      w, spout, Features{.observability = true}, &decisions);
  SPEAR_CHECK(topology.ok());
  Executor executor(std::move(*topology));
  Result<RunReport> report = executor.Run();
  SPEAR_CHECK(report.ok() && !report->observability.spans.empty());
  return Reference{std::move(report->output), decisions.Total().tuples_seen,
                   std::move(report->observability.spans)};
}

bool Expect(const std::string& name, const CheckOutcome& o, bool want_pass) {
  const bool ok = o.passed() == want_pass;
  std::cerr << "checker self-test: " << name << ": "
            << (o.passed() ? "accepted" : "rejected") << " ("
            << (ok ? "ok" : "WRONG") << ")";
  if (!o.problems.empty()) std::cerr << " - " << o.problems.front();
  std::cerr << "\n";
  return ok;
}

}  // namespace

bool RunCheckerSelfTest() {
  bool all_ok = true;
  for (const char* name : {"dec-median-expedite", "gcm-grouped-fallback"}) {
    Workload w = *FindWorkload(name);
    // Short inputs keep the self-test to about a second.
    w.duration = w.config.window.range * 8;
    const auto spout = std::make_shared<VectorSpout>(GenerateInput(w, 7, 0));
    const Checker checker(w, spout.get());
    const Reference ref = RunSmall(w, spout);
    const std::string tag = std::string(name) + " ";
    all_ok &= Expect(tag + "unperturbed",
                     checker.Check(ref.output, ref.tuples_seen, &ref.spans),
                     true);

    std::vector<Tuple> dropped = ref.output;
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(dropped.size() / 2));
    all_ok &= Expect(tag + "one result dropped",
                     checker.Check(dropped, ref.tuples_seen, nullptr), false);

    std::vector<Tuple> duplicated = ref.output;
    duplicated.push_back(duplicated.front());
    all_ok &= Expect(tag + "one result duplicated",
                     checker.Check(duplicated, ref.tuples_seen, nullptr), false);

    const bool grouped = w.key_field.has_value();
    const std::size_t value_at = grouped ? L::kGroupValue : L::kScalarValue;
    const std::size_t approx_at = grouped ? L::kGroupApprox : L::kScalarApprox;

    std::vector<Tuple> nudged = ref.output;
    bool has_exact = false;
    for (Tuple& t : nudged) {
      if (t.field(approx_at).AsInt64() == 0) {
        t.field(value_at) = Value(t.field(value_at).AsDouble() * (1 + 1e-6));
        has_exact = true;
        break;
      }
    }
    if (has_exact) {
      all_ok &= Expect(tag + "one exact value nudged",
                       checker.Check(nudged, ref.tuples_seen, nullptr), false);
    }

    std::vector<Tuple> pushed = ref.output;
    for (Tuple& t : pushed) {
      if (t.field(approx_at).AsInt64() == 0) continue;
      const double v = t.field(value_at).AsDouble();
      // Means move by 3 epsilon; a percentile moves above every value.
      t.field(value_at) = Value(grouped ? v * 1.3 : v + 1e9);
    }
    all_ok &= Expect(tag + "expedited values pushed past epsilon",
                     checker.Check(pushed, ref.tuples_seen, nullptr), false);

    all_ok &= Expect(tag + "one tuple not counted",
                     checker.Check(ref.output, ref.tuples_seen - 1, nullptr),
                     false);

    std::vector<obs::TraceSpan> miscounted = ref.spans;
    miscounted[miscounted.size() / 2].arrivals += 1;
    all_ok &= Expect(tag + "one window's span arrivals off by one",
                     checker.Check(ref.output, ref.tuples_seen, &miscounted),
                     false);
  }
  return all_ok;
}

}  // namespace perfbench

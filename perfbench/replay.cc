#include <algorithm>
#include <cstdio>
#include <deque>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "common/time.h"
#include "core/spear_bolt.h"
#include "core/spear_window_manager.h"
#include "ops/exact_operator.h"
#include "runtime/partitioner.h"
#include "runtime/windowed_bolt.h"
#include "stats/group_stats.h"
#include "stats/reservoir_sampler.h"
#include "stats/running_stats.h"
#include "window/watermark.h"
#include "window/window_assigner.h"

namespace perfbench {

using namespace spear;

// ---------------------------------------------------------------------------
// SpanRecorder
// ---------------------------------------------------------------------------

int SpanRecorder::NameId(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<int>(it - names_.begin());
  names_.push_back(name);
  return static_cast<int>(names_.size()) - 1;
}

int SpanRecorder::Begin(const std::string& name, int parent) {
  // Store first, then stamp: a reallocation of spans_ must not be charged
  // to the span being opened.
  spans_.push_back(Span{NameId(name), 0, 0, parent});
  spans_.back().start_ns = NowNs();
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int span) { spans_[span].end_ns = NowNs(); }

int SpanRecorder::Add(const std::string& name, std::int64_t start_ns,
                      std::int64_t end_ns, int parent) {
  spans_.push_back(Span{NameId(name), start_ns, end_ns, parent});
  return static_cast<int>(spans_.size()) - 1;
}

std::int64_t SpanRecorder::Total(const std::string& name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return 0;
  const int id = static_cast<int>(it - names_.begin());
  std::int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.name == id) total += s.end_ns - s.start_ns;
  }
  return total;
}

std::string SpanRecorder::SelfTimeTable() const {
  // Spans come from one thread, so children never overlap each other.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<std::uint64_t> count(names_.size(), 0);
  std::vector<std::int64_t> total(names_.size(), 0);
  std::vector<std::int64_t> self(names_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    ++count[s.name];
    total[s.name] += s.end_ns - s.start_ns;
    self[s.name] += s.end_ns - s.start_ns - child_ns[i];
  }
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-28s %10s %12s %12s\n", "span", "count",
                "total_ms", "self_ms");
  out << line;
  for (std::size_t n = 0; n < names_.size(); ++n) {
    std::snprintf(line, sizeof(line), "%-28s %10llu %12.3f %12.3f\n",
                  names_[n].c_str(), static_cast<unsigned long long>(count[n]),
                  static_cast<double>(total[n]) / 1e6,
                  static_cast<double>(self[n]) / 1e6);
    out << line;
  }
  return out.str();
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\":" << i << ",\"name\":\"" << names_[s.name]
      << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
      << ",\"parent\":" << s.parent << "}\n";
  }
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

namespace {

class CollectingEmitter : public Emitter {
 public:
  void Emit(Tuple tuple) override { out.push_back(std::move(tuple)); }
  std::vector<Tuple> out;
};

/// One segment of the input: the tuples between two watermarks within a
/// 64-tuple source batch, with their target worker and group key.
struct Segment {
  std::vector<const Tuple*> tuples;
  std::vector<int> targets;
  std::vector<std::string> keys;
  void Clear() {
    tuples.clear();
    targets.clear();
    keys.clear();
  }
};

/// Feeds the whole input the way the executor's source loop does: 64-tuple
/// batches, the same fields partitioning, and a watermark right after the
/// tuple that advances it (then the final watermark). Each layer is
/// replayed in its own pass, so the allocator work one layer leaves behind
/// (deferred consolidation of freed chunks) is not charged to another.
template <typename OnSegment, typename OnWatermark>
void Drive(const Workload& w, VectorSpout* spout, SpanRecorder* spans,
           int parent, bool time_spout, OnSegment on_segment,
           OnWatermark on_watermark) {
  const KeyExtractor key = KeyOf(w);
  const Partitioner partitioner =
      key ? Partitioner::Fields(key) : Partitioner::Shuffle();
  std::uint64_t rr = 0;
  WatermarkGenerator generator(std::max<DurationMs>(w.watermark_interval, 1));
  Segment seg;
  std::vector<Tuple> batch;
  spout->Rewind();
  bool more = true;
  while (more) {
    batch.clear();
    const int s = time_spout ? spans->Begin("runtime.spout_next_batch", parent)
                             : -1;
    more = spout->NextBatch(&batch, 64);
    if (s >= 0) spans->End(s);
    for (const Tuple& t : batch) {
      seg.tuples.push_back(&t);
      seg.targets.push_back(partitioner.TargetTask(t, w.workers, &rr));
      seg.keys.push_back(key ? key(t) : std::string());
      if (w.watermark_interval > 0 && generator.Observe(t.event_time())) {
        if (!seg.tuples.empty()) on_segment(seg);
        seg.Clear();
        on_watermark(generator.current());
      }
    }
    if (!seg.tuples.empty()) on_segment(seg);
    seg.Clear();
  }
  on_watermark(WatermarkGenerator::FinalWatermark());
}

/// Stand-alone replicas of the budget state one window keeps, so each
/// stats operation can be timed on its own with this workload's values.
struct StatsReplica {
  explicit StatsReplica(std::size_t max_groups) : groups(max_groups) {}
  RunningStats moments;
  GroupStatsTracker groups;
  std::unordered_map<std::string, ReservoirSampler<double>> reservoirs;
};

double PerUnit(std::int64_t ns, std::uint64_t units) {
  return units == 0 ? 0.0
                    : static_cast<double>(ns) / static_cast<double>(units);
}

}  // namespace

LayerMetrics ReplayLayers(const Workload& w,
                          const std::shared_ptr<VectorSpout>& spout,
                          SpanRecorder* spans,
                          std::vector<Tuple>* replay_output) {
  const SpearOperatorConfig& cfg = w.config;
  const ValueExtractor value = ValueOf(w);
  const KeyExtractor key = KeyOf(w);
  const int workers = w.workers;
  const std::uint64_t tuples = spout->size();
  const int root = spans->Begin("replay", -1);

  // --- Pass 1: SpearBolts, as the executor's workers run them -------------
  {
    const int pass = spans->Begin("pass.bolts", root);
    std::vector<std::unique_ptr<WorkerMetrics>> worker_metrics;
    std::vector<std::unique_ptr<SpearBolt>> bolts;
    for (int p = 0; p < workers; ++p) {
      worker_metrics.push_back(std::make_unique<WorkerMetrics>("stateful", p));
      bolts.push_back(std::make_unique<SpearBolt>(cfg, value, key));
      BoltContext ctx;
      ctx.task_id = p;
      ctx.parallelism = workers;
      ctx.metrics = worker_metrics.back().get();
      SPEAR_CHECK(bolts.back()->Prepare(ctx).ok());
    }
    CollectingEmitter out;
    Drive(
        w, spout.get(), spans, pass, true,
        [&](const Segment& seg) {
          const int s = spans->Begin("core.bolt_execute", pass);
          for (std::size_t i = 0; i < seg.tuples.size(); ++i) {
            SPEAR_CHECK(bolts[seg.targets[i]]->Execute(*seg.tuples[i], &out).ok());
          }
          spans->End(s);
        },
        [&](Timestamp wm) {
          for (int p = 0; p < workers; ++p) {
            const int s = spans->Begin("core.bolt_on_watermark", pass);
            SPEAR_CHECK(bolts[p]->OnWatermark(wm, &out).ok());
            spans->End(s);
          }
        });
    for (auto& bolt : bolts) SPEAR_CHECK(bolt->Finish(&out).ok());
    spans->End(pass);
    *replay_output = std::move(out.out);
    SortResults(replay_output);
  }

  // --- Pass 2: bare window managers, snapshots and emission ---------------
  std::uint64_t windows = 0;
  std::int64_t decide_ns = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t emitted = 0;
  std::size_t buffered_peak = 0;
  std::size_t budget_bytes_peak = 0;
  DecisionStats decisions;
  SpearMode mode = SpearMode::kScalarQuantile;
  // Windows each watermark closed, per worker, for the exact-operator pass.
  std::vector<std::vector<std::pair<int, WindowBounds>>> closed;
  {
    const int pass = spans->Begin("pass.managers", root);
    std::vector<std::unique_ptr<SpearWindowManager>> managers;
    for (int p = 0; p < workers; ++p) {
      managers.push_back(std::make_unique<SpearWindowManager>(
          cfg, value, key, nullptr, "replay-" + std::to_string(p)));
    }
    mode = managers.front()->mode();
    std::vector<Tuple> sink;
    Drive(
        w, spout.get(), spans, pass, false,
        [&](const Segment& seg) {
          const int s = spans->Begin("core.on_tuple", pass);
          for (std::size_t i = 0; i < seg.tuples.size(); ++i) {
            managers[seg.targets[i]]->OnTuple(seg.tuples[i]->event_time(),
                                              *seg.tuples[i]);
          }
          spans->End(s);
        },
        [&](Timestamp wm) {
          closed.emplace_back();
          for (int p = 0; p < workers; ++p) {
            SpearWindowManager& m = *managers[p];
            buffered_peak = std::max(buffered_peak, m.BufferedTuples());
            budget_bytes_peak =
                std::max(budget_bytes_peak, m.BudgetMemoryBytes());
            int s = spans->Begin("core.on_watermark", pass);
            Result<std::vector<WindowResult>> results = m.OnWatermark(wm);
            spans->End(s);
            SPEAR_CHECK(results.ok());
            if (results->empty()) continue;
            windows += results->size();
            for (const WindowResult& r : *results) {
              decide_ns += r.processing_ns;
              closed.back().emplace_back(p, r.bounds);
            }
            s = spans->Begin("checkpoint.snapshot", pass);
            Result<std::string> snapshot = m.SnapshotState();
            spans->End(s);
            SPEAR_CHECK(snapshot.ok());
            ++snapshots;
            snapshot_bytes += snapshot->size();

            s = spans->Begin("ops.emit", pass);
            for (const WindowResult& r : *results) {
              for (Tuple& t : WindowResultToTuples(r)) sink.push_back(std::move(t));
            }
            spans->End(s);
            emitted += sink.size();
            sink.clear();
          }
        });
    for (const auto& m : managers) decisions.Accumulate(m->decision_stats());
    spans->End(pass);
  }

  // --- Pass 3: window assignment and the stats operations -----------------
  std::uint64_t stat_ops = 0;
  {
    const int pass = spans->Begin("pass.stats", root);
    const std::size_t budget = cfg.budget.ElementsFor(sizeof(double));
    const std::size_t reservoir_cap =
        cfg.known_num_groups > 0
            ? std::max<std::size_t>(budget / cfg.known_num_groups, 1)
            : budget;
    std::map<std::pair<int, std::int64_t>, StatsReplica> replicas;
    std::vector<std::vector<WindowBounds>> assigned;
    std::vector<RunningStats*> mom;
    std::vector<GroupStatsTracker*> grp;
    std::vector<ReservoirSampler<double>*> res;
    std::vector<double> vals;
    std::vector<const std::string*> op_keys;
    Drive(
        w, spout.get(), spans, pass, false,
        [&](const Segment& seg) {
          const std::size_t n = seg.tuples.size();
          assigned.resize(n);
          int s = spans->Begin("window.assign", pass);
          for (std::size_t i = 0; i < n; ++i) {
            assigned[i] = AssignWindows(cfg.window, seg.tuples[i]->event_time());
          }
          spans->End(s);
          // Resolve every (tuple, window) operation outside the timed loops.
          mom.clear();
          grp.clear();
          res.clear();
          vals.clear();
          op_keys.clear();
          for (std::size_t i = 0; i < n; ++i) {
            const double v = value(*seg.tuples[i]);
            for (const WindowBounds& b : assigned[i]) {
              StatsReplica& r =
                  replicas.try_emplace({seg.targets[i], b.start}, budget)
                      .first->second;
              const std::string rkey =
                  cfg.known_num_groups > 0 ? seg.keys[i] : std::string();
              auto it = r.reservoirs.find(rkey);
              if (it == r.reservoirs.end()) {
                it = r.reservoirs
                         .emplace(rkey, ReservoirSampler<double>(
                                            reservoir_cap, cfg.seed + stat_ops))
                         .first;
              }
              mom.push_back(&r.moments);
              grp.push_back(&r.groups);
              res.push_back(&it->second);
              vals.push_back(v);
              op_keys.push_back(&seg.keys[i]);
            }
          }
          stat_ops += vals.size();
          s = spans->Begin("stats.moments_update", pass);
          for (std::size_t j = 0; j < vals.size(); ++j) mom[j]->Update(vals[j]);
          spans->End(s);
          s = spans->Begin("stats.reservoir_offer", pass);
          for (std::size_t j = 0; j < vals.size(); ++j) res[j]->Offer(vals[j]);
          spans->End(s);
          s = spans->Begin("stats.group_update", pass);
          for (std::size_t j = 0; j < vals.size(); ++j) {
            grp[j]->Update(*op_keys[j], vals[j]);
          }
          spans->End(s);
        },
        [&](Timestamp wm) {
          const std::int64_t keep_from = FirstIncompleteWindowStart(
              cfg.window, ClampWatermark(cfg.window, wm));
          for (auto it = replicas.begin(); it != replicas.end();) {
            it = it->first.second < keep_from ? replicas.erase(it)
                                              : std::next(it);
          }
        });
    spans->End(pass);
  }

  // --- Pass 4: the exact operator on every window the managers closed -----
  std::uint64_t exact_windows = 0;
  {
    const int pass = spans->Begin("pass.exact", root);
    const ExactWindowOperator exact(cfg.aggregate, value, key);
    std::deque<std::pair<int, Tuple>> recent;
    std::size_t wm_index = 0;
    Drive(
        w, spout.get(), spans, pass, false,
        [&](const Segment& seg) {
          for (std::size_t i = 0; i < seg.tuples.size(); ++i) {
            recent.emplace_back(seg.targets[i], *seg.tuples[i]);
          }
        },
        [&](Timestamp wm) {
          for (const auto& [worker, bounds] : closed[wm_index]) {
            CompleteWindow window;
            window.bounds = bounds;
            for (const auto& [target, t] : recent) {
              if (target == worker && bounds.Contains(t.event_time())) {
                window.tuples.push_back(t);
              }
            }
            const int s = spans->Begin("ops.exact", pass);
            SPEAR_CHECK(exact.Process(window).ok());
            spans->End(s);
            ++exact_windows;
          }
          ++wm_index;
          const std::int64_t keep_from = FirstIncompleteWindowStart(
              cfg.window, ClampWatermark(cfg.window, wm));
          while (!recent.empty() &&
                 recent.front().second.event_time() < keep_from) {
            recent.pop_front();
          }
        });
    spans->End(pass);
  }
  spans->End(root);

  const auto total = [&](const char* name) { return spans->Total(name); };
  LayerMetrics lm;
  const auto put = [&](const std::string& name, double v, const char* unit) {
    lm[name] = LayerMetric{v, unit};
  };
  put("runtime.spout_ns_per_tuple",
      PerUnit(total("runtime.spout_next_batch"), tuples), "ns/tuple");
  put("window.assign_ns_per_tuple", PerUnit(total("window.assign"), tuples),
      "ns/tuple");
  put("stats.reservoir_offer_ns",
      PerUnit(total("stats.reservoir_offer"), stat_ops), "ns");
  put("stats.moments_update_ns",
      PerUnit(total("stats.moments_update"), stat_ops), "ns");
  put("stats.group_update_ns", PerUnit(total("stats.group_update"), stat_ops),
      "ns");
  const double on_tuple = PerUnit(total("core.on_tuple"), tuples);
  put("core.on_tuple_ns_per_tuple", on_tuple, "ns/tuple");
  put("core.bolt_execute_ns_per_tuple",
      PerUnit(total("core.bolt_execute"), tuples), "ns/tuple");
  // The budget updates OnTuple performs in this workload's mode.
  std::int64_t stats_ns = 0;
  switch (mode) {
    case SpearMode::kScalarIncremental:
    case SpearMode::kScalarSampled:
    case SpearMode::kScalarQuantile:
      stats_ns = total("stats.moments_update") + total("stats.reservoir_offer");
      break;
    case SpearMode::kGroupedKnown:
      stats_ns = total("stats.group_update") + total("stats.reservoir_offer");
      break;
    case SpearMode::kGroupedUnknown:
      stats_ns = total("stats.group_update");
      break;
  }
  put("core.custody_ns_per_tuple",
      on_tuple - PerUnit(stats_ns + total("window.assign"), tuples),
      "ns/tuple");
  const std::int64_t on_wm = total("core.on_watermark");
  put("core.on_watermark_us_per_window", PerUnit(on_wm, windows) / 1e3,
      "us/window");
  put("core.decide_us_per_window", PerUnit(decide_ns, windows) / 1e3,
      "us/window");
  put("core.evict_us_per_window", PerUnit(on_wm - decide_ns, windows) / 1e3,
      "us/window");
  put("core.expedite_ratio",
      decisions.windows_total == 0
          ? 0.0
          : static_cast<double>(decisions.windows_expedited) /
                static_cast<double>(decisions.windows_total),
      "ratio");
  put("core.sample_fraction",
      decisions.tuples_seen == 0
          ? 0.0
          : static_cast<double>(decisions.tuples_processed) /
                static_cast<double>(decisions.tuples_seen),
      "ratio");
  put("core.buffered_tuples_peak", static_cast<double>(buffered_peak),
      "tuples");
  put("core.budget_bytes_peak", static_cast<double>(budget_bytes_peak),
      "bytes");
  put("ops.exact_us_per_window",
      PerUnit(total("ops.exact"), exact_windows) / 1e3, "us/window");
  put("ops.emit_ns_per_result", PerUnit(total("ops.emit"), emitted),
      "ns/result");
  put("checkpoint.snapshot_us",
      PerUnit(total("checkpoint.snapshot"), snapshots) / 1e3, "us");
  put("checkpoint.snapshot_bytes",
      snapshots == 0 ? 0.0
                     : static_cast<double>(snapshot_bytes) /
                           static_cast<double>(snapshots),
      "bytes");
  // What the threaded run does, on one thread (the caller adds the
  // channel hop).
  put("runtime.single_thread_ns_per_tuple",
      PerUnit(total("runtime.spout_next_batch") + total("core.bolt_execute") +
                  total("core.bolt_on_watermark"),
              tuples),
      "ns/tuple");
  return lm;
}

}  // namespace perfbench

#include <utility>

#include "bench.h"
#include "core/spear_topology_builder.h"
#include "data/datasets.h"

namespace perfbench {

using namespace spear;

namespace {

// All workloads share the paper's accuracy spec: epsilon = 10 %,
// alpha = 95 %.
SpearOperatorConfig Query(AggregateSpec aggregate, WindowSpec window,
                          std::size_t budget_tuples) {
  SpearOperatorConfig c;
  c.aggregate = aggregate;
  c.window = window;
  c.accuracy.epsilon = 0.10;
  c.accuracy.confidence = 0.95;
  c.budget = Budget::Tuples(budget_tuples);
  return c;
}

template <typename Generator>
std::vector<Tuple> Generate(std::uint64_t seed, DurationMs duration) {
  typename Generator::Config c;
  c.seed = seed;
  c.duration = duration;
  return Generator::Generate(c);
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;

  // Every window is expedited from b = 150: the per-tuple ingest path
  // (spout copy, channel hop, sampler + moments for three overlapping
  // windows, custody push) and eviction dominate.
  Workload dec;
  dec.name = "dec-median-expedite";
  dec.config = Query(AggregateSpec::Median(),
                     WindowSpec::SlidingTime(Seconds(45), Seconds(15)), 150);
  dec.value_field = DecGenerator::kSizeField;
  dec.workers = 1;
  dec.watermark_interval = Seconds(1);
  dec.generate = Generate<DecGenerator>;
  dec.duration = Minutes(20);
  dec.seed_salt = 1995;
  out.push_back(dec);

  // Known group count (8 scheduling classes) with bursty CPU times: the
  // burst windows fail the accuracy test and take the exact fallback, the
  // only workload that reads custody back.
  Workload gcm;
  gcm.name = "gcm-grouped-fallback";
  gcm.config = Query(AggregateSpec::Mean(),
                     WindowSpec::SlidingTime(Seconds(900), Seconds(450)),
                     4000);
  gcm.config.known_num_groups = 8;
  gcm.value_field = GcmGenerator::kCpuField;
  gcm.key_field = GcmGenerator::kClassField;
  gcm.workers = 2;
  gcm.watermark_interval = Seconds(10);
  gcm.generate = Generate<GcmGenerator>;
  gcm.duration = Hours(4);
  gcm.seed_salt = 2011;
  out.push_back(gcm);

  // ~5 K sparse routes per window, group count unknown (stratified scan,
  // congress allocation), string-key partitioning, ~1.2 results per input
  // tuple, and the operational features of a production topology.
  Workload debs;
  debs.name = "debs-sparse-ops";
  debs.config = Query(AggregateSpec::Mean(),
                      WindowSpec::SlidingTime(Minutes(30), Minutes(15)),
                      4000);
  debs.value_field = DebsGenerator::kFareField;
  debs.key_field = DebsGenerator::kRouteField;
  debs.workers = 2;
  debs.watermark_interval = Seconds(60);
  debs.features = {.checkpoint = true, .observability = true};
  debs.generate = Generate<DebsGenerator>;
  debs.duration = Hours(26);
  debs.seed_salt = 2015;
  out.push_back(debs);
  return out;
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> workloads = MakeWorkloads();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<Tuple> GenerateInput(const Workload& w, std::uint64_t seed,
                                 int round) {
  return w.generate(seed * 1000003ULL +
                        static_cast<std::uint64_t>(round) * 7919ULL +
                        w.seed_salt,
                    w.duration);
}

ValueExtractor ValueOf(const Workload& w) { return NumericField(w.value_field); }

KeyExtractor KeyOf(const Workload& w) {
  return w.key_field ? KeyField(*w.key_field) : KeyExtractor();
}

Result<Topology> BuildTopology(const Workload& w,
                               std::shared_ptr<VectorSpout> spout,
                               Features features,
                               DecisionStatsCollector* decisions) {
  const SpearOperatorConfig& c = w.config;
  SpearTopologyBuilder b;
  b.Source(std::move(spout), w.watermark_interval)
      .SlidingWindowOf(c.window.range, c.window.slide)
      .SetBudget(c.budget)
      .Error(c.accuracy.epsilon, c.accuracy.confidence)
      .Parallelism(w.workers)
      .CollectDecisions(decisions);
  if (c.aggregate.kind == AggregateKind::kPercentile) {
    b.Percentile(ValueOf(w), c.aggregate.phi);
  } else {
    b.Mean(ValueOf(w));
  }
  if (w.key_field) b.GroupBy(KeyOf(w));
  if (c.known_num_groups > 0) b.KnownGroups(c.known_num_groups);
  if (features.checkpoint) {
    CheckpointConfig ckpt;
    ckpt.interval = c.window.slide;
    b.Checkpoint(ckpt);
  }
  if (features.observability) b.Metrics().Trace();
  return b.Build();
}

}  // namespace perfbench

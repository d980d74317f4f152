#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/observability.h"
#include "obs/trace.h"
#include "runtime/metrics.h"

namespace spear::obs {
namespace {

TEST(ObsMetricsTest, CounterGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge g;
  g.Set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.Set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(ObsMetricsTest, HistogramBucketPlacement) {
  Histogram h(HistogramBuckets{{10, 100, 1000}});
  h.Observe(5);     // bucket 0 (<= 10)
  h.Observe(10);    // bucket 0 (inclusive upper bound)
  h.Observe(11);    // bucket 1
  h.Observe(1000);  // bucket 2
  h.Observe(5000);  // +Inf overflow
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 5 + 10 + 11 + 1000 + 5000);
}

TEST(ObsMetricsTest, CannedBucketsAreStrictlyIncreasing) {
  for (const HistogramBuckets& b :
       {HistogramBuckets::LatencyNs(), HistogramBuckets::Counts()}) {
    ASSERT_FALSE(b.bounds.empty());
    for (std::size_t i = 1; i < b.bounds.size(); ++i) {
      EXPECT_LT(b.bounds[i - 1], b.bounds[i]);
    }
  }
}

TEST(ObsMetricsTest, ShardInstrumentsAreIdempotent) {
  MetricsShard shard("stage", 3);
  Counter* c1 = shard.GetCounter("tuples");
  Counter* c2 = shard.GetCounter("tuples");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, shard.GetCounter("other"));
  Gauge* g1 = shard.GetGauge("depth");
  EXPECT_EQ(g1, shard.GetGauge("depth"));
  Histogram* h1 = shard.GetHistogram("lat", HistogramBuckets::LatencyNs());
  EXPECT_EQ(h1, shard.GetHistogram("lat", HistogramBuckets::LatencyNs()));
}

TEST(ObsMetricsTest, RegistryShardIsStableAndLabelled) {
  MetricsRegistry registry;
  MetricsShard* a0 = registry.GetShard("a", 0);
  MetricsShard* a1 = registry.GetShard("a", 1);
  EXPECT_NE(a0, a1);
  EXPECT_EQ(a0, registry.GetShard("a", 0));
  EXPECT_EQ(a0->stage(), "a");
  EXPECT_EQ(a1->task(), 1);
}

TEST(ObsMetricsTest, CollectMergesEveryShardSeries) {
  MetricsRegistry registry;
  registry.GetShard("a", 0)->GetCounter("tuples")->Add(10);
  registry.GetShard("a", 1)->GetCounter("tuples")->Add(7);
  registry.GetShard("b", 0)->GetCounter("tuples")->Add(5);
  registry.GetShard("b", 0)->GetGauge("depth")->Set(3.0);

  const std::vector<MetricSample> samples = registry.Collect();
  // One sample per (name, stage, task) series.
  ASSERT_EQ(samples.size(), 4u);
  std::uint64_t sum = 0;
  for (const MetricSample& s : samples) {
    if (s.name == "tuples") sum += static_cast<std::uint64_t>(s.value);
  }
  EXPECT_EQ(sum, 22u);
  EXPECT_EQ(registry.CounterTotal("tuples"), 22u);
  EXPECT_EQ(registry.CounterTotal("missing"), 0u);
}

// The scrape-side merge invariant: no shard's series is dropped or
// double-counted — CounterTotal equals the sum over collected samples,
// for every counter name present.
TEST(ObsMetricsTest, MergeInvariantHoldsAcrossShards) {
  MetricsRegistry registry;
  const char* names[] = {"x", "y", "z"};
  std::map<std::string, std::uint64_t> expected;
  for (int stage = 0; stage < 3; ++stage) {
    for (int task = 0; task < 4; ++task) {
      MetricsShard* shard =
          registry.GetShard(
              std::string("s").append(std::to_string(stage)), task);
      for (const char* name : names) {
        const std::uint64_t n = stage * 100 + task * 10 + (name[0] - 'x');
        shard->GetCounter(name)->Add(n);
        expected[name] += n;
      }
    }
  }
  std::map<std::string, std::uint64_t> collected;
  for (const MetricSample& s : registry.Collect()) {
    collected[s.name] += static_cast<std::uint64_t>(s.value);
  }
  for (const auto& [name, total] : expected) {
    EXPECT_EQ(collected[name], total) << name;
    EXPECT_EQ(registry.CounterTotal(name), total) << name;
  }
}

TEST(ObsMetricsTest, ConcurrentWritersAndScrapesRace) {
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, t] {
      Counter* c = registry.GetShard("w", t)->GetCounter("ops");
      Histogram* h = registry.GetShard("w", t)->GetHistogram(
          "lat", HistogramBuckets::Counts());
      for (int i = 0; i < kIncrements; ++i) {
        c->Increment();
        h->Observe(i % 100);
      }
    });
  }
  // Scrape concurrently with the writers.
  for (int i = 0; i < 50; ++i) registry.Collect();
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(registry.CounterTotal("ops"),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

// ---- exporters -----------------------------------------------------------

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST(ObsExportTest, PrometheusSchemaRoundTrip) {
  MetricsRegistry registry;
  registry.GetShard("stateful", 0)->GetCounter("tuples_seen")->Add(123);
  registry.GetShard("stateful", 1)->GetCounter("tuples_seen")->Add(7);
  registry.GetShard("stateful", 0)->GetGauge("queue_depth")->Set(5.0);
  Histogram* h = registry.GetShard("stateful", 0)->GetHistogram(
      "window_processing_ns", HistogramBuckets{{10, 100}});
  h->Observe(5);
  h->Observe(50);
  h->Observe(500);

  const std::string text = PrometheusText(registry.Collect());

  // Every name gets HELP/TYPE exactly once, with the spear_ prefix.
  EXPECT_NE(text.find("# TYPE spear_tuples_seen counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE spear_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE spear_window_processing_ns histogram"),
            std::string::npos);
  EXPECT_EQ(text.find("# TYPE spear_tuples_seen counter"),
            text.rfind("# TYPE spear_tuples_seen counter"));

  // Series carry {stage, task} labels.
  EXPECT_NE(text.find("spear_tuples_seen{stage=\"stateful\",task=\"0\"} 123"),
            std::string::npos);
  EXPECT_NE(text.find("spear_tuples_seen{stage=\"stateful\",task=\"1\"} 7"),
            std::string::npos);

  // Histogram buckets are cumulative and end in le="+Inf" == _count.
  std::map<std::string, std::uint64_t> buckets;
  std::uint64_t total = 0;
  for (const std::string& line : Lines(text)) {
    if (line.rfind("spear_window_processing_ns_bucket", 0) == 0) {
      const auto le = line.find("le=\"");
      const auto end = line.find('"', le + 4);
      buckets[line.substr(le + 4, end - le - 4)] =
          std::stoull(line.substr(line.rfind(' ') + 1));
    }
    if (line.rfind("spear_window_processing_ns_count", 0) == 0) {
      total = std::stoull(line.substr(line.rfind(' ') + 1));
    }
  }
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets["10"], 1u);
  EXPECT_EQ(buckets["100"], 2u);  // cumulative
  EXPECT_EQ(buckets["+Inf"], 3u);
  EXPECT_EQ(total, 3u);
}

TEST(ObsExportTest, CountersAreMonotonicAcrossScrapes) {
  MetricsRegistry registry;
  Counter* c = registry.GetShard("s", 0)->GetCounter("events");
  c->Add(5);
  const auto first = registry.Collect();
  c->Add(3);
  const auto second = registry.Collect();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (first[i].kind != MetricSample::Kind::kCounter) continue;
    EXPECT_GE(second[i].value, first[i].value) << first[i].name;
  }
}

TEST(ObsExportTest, JsonLinesAreOneObjectPerSample) {
  MetricsRegistry registry;
  registry.GetShard("a", 0)->GetCounter("n")->Add(2);
  registry.GetShard("a", 0)->GetGauge("g")->Set(1.5);
  registry.GetShard("a", 0)
      ->GetHistogram("h", HistogramBuckets{{1}})
      ->Observe(9);
  const auto samples = registry.Collect();
  const auto lines = Lines(MetricsJsonLines(samples));
  ASSERT_EQ(lines.size(), samples.size());
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"name\":"), std::string::npos);
    EXPECT_NE(line.find("\"stage\":\"a\""), std::string::npos);
  }
}

TEST(ObsExportTest, JsonEscapeHandlesControlAndQuotes) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
}

// ---- tracer --------------------------------------------------------------

TraceSpan SpanAt(std::int64_t start) {
  TraceSpan s;
  s.stage = "stateful";
  s.window_start = start;
  s.window_end = start + 100;
  return s;
}

TEST(ObsTraceTest, RecordsEverySpanByDefault) {
  WindowTracer tracer(TraceOptions{});
  for (int i = 0; i < 10; ++i) tracer.Record(SpanAt(i * 100));
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.sampled_out(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  const auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 10u);
  EXPECT_EQ(spans[3].window_start, 300);
}

TEST(ObsTraceTest, SamplingKeepsEveryNthAndCounts) {
  TraceOptions options;
  options.sample_every = 3;
  WindowTracer tracer(options);
  for (int i = 0; i < 9; ++i) tracer.Record(SpanAt(i));
  EXPECT_EQ(tracer.recorded(), 3u);  // spans 0, 3, 6
  EXPECT_EQ(tracer.sampled_out(), 6u);
}

TEST(ObsTraceTest, CapCountsDroppedSpans) {
  TraceOptions options;
  options.max_spans = 4;
  WindowTracer tracer(options);
  for (int i = 0; i < 10; ++i) tracer.Record(SpanAt(i));
  EXPECT_EQ(tracer.recorded(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
}

TEST(ObsTraceTest, SpansJsonLinesCarryTheDecisionLineage) {
  TraceSpan s = SpanAt(500);
  s.task = 2;
  s.verdict = TraceSpan::Verdict::kExpedited;
  s.approximate = true;
  s.arrivals = 1000;
  s.processed = 150;
  s.shed = 30;
  s.lost = 5;
  s.budget = 150;
  s.epsilon_spec = 0.10;
  s.epsilon_hat = 0.07;
  s.loss_inflation = 0.03;
  s.epsilon_sampling = 0.04;
  s.spilled = true;
  const std::string line = SpansJsonLines({s});
  EXPECT_NE(line.find("\"verdict\":\"expedited\""), std::string::npos);
  EXPECT_NE(line.find("\"arrivals\":1000"), std::string::npos);
  EXPECT_NE(line.find("\"shed\":30"), std::string::npos);
  EXPECT_NE(line.find("\"epsilon_hat\":"), std::string::npos);
  EXPECT_NE(line.find("\"spilled\":true"), std::string::npos);
  EXPECT_STREQ(VerdictName(TraceSpan::Verdict::kExact), "exact");
  EXPECT_STREQ(VerdictName(TraceSpan::Verdict::kDegraded), "degraded");
}

// ---- config + sampler ----------------------------------------------------

TEST(ObsConfigTest, ValidatesSamplerAndTraceKnobs) {
  ObsConfig ok;
  EXPECT_TRUE(ok.Validate().ok());

  ObsConfig needs_sink;
  needs_sink.metrics_enabled = true;
  needs_sink.metrics.scrape_period_ms = 10;
  EXPECT_FALSE(needs_sink.Validate().ok());
  needs_sink.metrics.sink = [](const std::string&) {};
  EXPECT_TRUE(needs_sink.Validate().ok());

  ObsConfig bad_trace;
  bad_trace.trace_enabled = true;
  bad_trace.trace.sample_every = 0;
  EXPECT_FALSE(bad_trace.Validate().ok());
}

// The sampler scrapes the run's registry while its workers count into
// their shards (a race detector's target: run under TSan).
TEST(ObsSamplerTest, PeriodicSamplerScrapesAndStops) {
  MetricsRegistry registry;
  registry.GetShard("s", 0)->GetCounter("n")->Add(9);
  WorkerMetrics* worker = registry.Register("w", 0);

  std::mutex mu;
  std::vector<std::string> scrapes;
  MetricsOptions options;
  options.scrape_period_ms = 1;
  options.sink = [&](const std::string& text) {
    std::lock_guard<std::mutex> lock(mu);
    scrapes.push_back(text);
  };
  PeriodicSampler sampler([&registry] { return registry.Collect(); },
                          options);
  sampler.Start();
  std::thread writer([worker] {
    for (int i = 0; i < 2000; ++i) {
      worker->AddTuplesIn(1);
      worker->AddBackpressureNs(3);
      worker->RecordWindowNs(i);
    }
  });
  writer.join();
  sampler.Stop();  // performs one final scrape even if the period never hit
  EXPECT_GE(sampler.scrapes(), 1u);
  EXPECT_EQ(worker->tuples_in(), 2000u);
  EXPECT_EQ(worker->overload().backpressure_wait_ns, 6000);
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_FALSE(scrapes.empty());
  EXPECT_NE(scrapes.back().find("\"name\":\"n\""), std::string::npos);
}

TEST(ObsSamplerTest, DisabledSamplerIsANoOp) {
  MetricsRegistry registry;
  PeriodicSampler sampler([&registry] { return registry.Collect(); },
                          MetricsOptions{});
  sampler.Start();
  sampler.Stop();
  EXPECT_EQ(sampler.scrapes(), 0u);
}

}  // namespace
}  // namespace spear::obs

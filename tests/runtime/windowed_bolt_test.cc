#include "runtime/windowed_bolt.h"

#include <gtest/gtest.h>

#include "runtime/countmin_bolt.h"

namespace spear {
namespace {

/// Captures emissions for direct bolt-level tests.
class CollectingEmitter : public Emitter {
 public:
  void Emit(Tuple tuple) override { tuples.push_back(std::move(tuple)); }
  std::vector<Tuple> tuples;
};

Tuple VT(Timestamp t, double v) { return Tuple(t, {Value(v)}); }
Tuple KT(Timestamp t, const std::string& k, double v) {
  return Tuple(t, {Value(k), Value(v)});
}

ExactWindowedBoltConfig MeanConfig(WindowSpec window) {
  ExactWindowedBoltConfig config;
  config.window = window;
  config.aggregate = AggregateSpec::Mean();
  config.value_extractor = NumericField(0);
  return config;
}

TEST(WindowResultToTuplesTest, ScalarLayout) {
  WindowResult r;
  r.bounds = WindowBounds{10, 20};
  r.scalar = 3.5;
  r.approximate = true;
  r.estimated_error = 0.07;
  const auto tuples = WindowResultToTuples(r);
  ASSERT_EQ(tuples.size(), 1u);
  const Tuple& t = tuples[0];
  EXPECT_EQ(t.event_time(), 20);
  EXPECT_EQ(t.field(ResultTupleLayout::kStart).AsInt64(), 10);
  EXPECT_EQ(t.field(ResultTupleLayout::kEnd).AsInt64(), 20);
  EXPECT_DOUBLE_EQ(t.field(ResultTupleLayout::kScalarValue).AsDouble(), 3.5);
  EXPECT_EQ(t.field(ResultTupleLayout::kScalarApprox).AsInt64(), 1);
  EXPECT_DOUBLE_EQ(t.field(ResultTupleLayout::kScalarError).AsDouble(), 0.07);
}

TEST(WindowResultToTuplesTest, GroupedLayout) {
  WindowResult r;
  r.bounds = WindowBounds{0, 10};
  r.is_grouped = true;
  r.groups = {{"a", 1.0}, {"b", 2.0}};
  const auto tuples = WindowResultToTuples(r);
  ASSERT_EQ(tuples.size(), 2u);
  EXPECT_EQ(tuples[0].field(ResultTupleLayout::kGroupKey).AsString(), "a");
  EXPECT_DOUBLE_EQ(tuples[1].field(ResultTupleLayout::kGroupValue).AsDouble(),
                   2.0);
  EXPECT_EQ(tuples[0].field(ResultTupleLayout::kGroupApprox).AsInt64(), 0);
}

TEST(ExactWindowedBoltTest, TimeWindowsEmitOnWatermark) {
  ExactWindowedBolt bolt(MeanConfig(WindowSpec::TumblingTime(10)));
  ASSERT_TRUE(bolt.Prepare(BoltContext{}).ok());
  CollectingEmitter out;
  ASSERT_TRUE(bolt.Execute(VT(1, 2.0), &out).ok());
  ASSERT_TRUE(bolt.Execute(VT(5, 4.0), &out).ok());
  EXPECT_TRUE(out.tuples.empty());
  ASSERT_TRUE(bolt.OnWatermark(10, &out).ok());
  ASSERT_EQ(out.tuples.size(), 1u);
  EXPECT_DOUBLE_EQ(
      out.tuples[0].field(ResultTupleLayout::kScalarValue).AsDouble(), 3.0);
}

TEST(ExactWindowedBoltTest, CountWindowsEmitByCardinality) {
  ExactWindowedBoltConfig config = MeanConfig(WindowSpec::TumblingCount(5));
  ExactWindowedBolt bolt(std::move(config));
  ASSERT_TRUE(bolt.Prepare(BoltContext{}).ok());
  CollectingEmitter out;
  for (int i = 0; i < 14; ++i) {
    ASSERT_TRUE(bolt.Execute(VT(i * 1000, i), &out).ok());
  }
  // 14 tuples -> two complete count-5 windows.
  ASSERT_EQ(out.tuples.size(), 2u);
  EXPECT_DOUBLE_EQ(
      out.tuples[0].field(ResultTupleLayout::kScalarValue).AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(
      out.tuples[1].field(ResultTupleLayout::kScalarValue).AsDouble(), 7.0);
}

TEST(ExactWindowedBoltTest, MultiBufferAgreesWithSingle) {
  ExactWindowedBoltConfig single_cfg =
      MeanConfig(WindowSpec::SlidingTime(20, 10));
  ExactWindowedBoltConfig multi_cfg =
      MeanConfig(WindowSpec::SlidingTime(20, 10));
  multi_cfg.use_multi_buffer = true;

  ExactWindowedBolt single(std::move(single_cfg));
  ExactWindowedBolt multi(std::move(multi_cfg));
  ASSERT_TRUE(single.Prepare(BoltContext{}).ok());
  ASSERT_TRUE(multi.Prepare(BoltContext{}).ok());
  CollectingEmitter s_out, m_out;
  for (int t = 0; t < 100; ++t) {
    ASSERT_TRUE(single.Execute(VT(t, t * 1.5), &s_out).ok());
    ASSERT_TRUE(multi.Execute(VT(t, t * 1.5), &m_out).ok());
  }
  ASSERT_TRUE(single.OnWatermark(90, &s_out).ok());
  ASSERT_TRUE(multi.OnWatermark(90, &m_out).ok());
  ASSERT_EQ(s_out.tuples.size(), m_out.tuples.size());
  for (std::size_t i = 0; i < s_out.tuples.size(); ++i) {
    EXPECT_DOUBLE_EQ(
        s_out.tuples[i].field(ResultTupleLayout::kScalarValue).AsDouble(),
        m_out.tuples[i].field(ResultTupleLayout::kScalarValue).AsDouble());
  }
}

TEST(ExactWindowedBoltTest, MetricsRecorded) {
  WorkerMetrics metrics("stateful", 0);
  BoltContext ctx;
  ctx.metrics = &metrics;
  ExactWindowedBolt bolt(MeanConfig(WindowSpec::TumblingTime(10)));
  ASSERT_TRUE(bolt.Prepare(ctx).ok());
  CollectingEmitter out;
  for (int t = 0; t < 30; ++t) ASSERT_TRUE(bolt.Execute(VT(t, 1.0), &out).ok());
  ASSERT_TRUE(bolt.OnWatermark(30, &out).ok());
  EXPECT_EQ(metrics.WindowSummary().count, 3u);
  EXPECT_EQ(metrics.MemorySummary().count, 3u);
  EXPECT_GT(metrics.MemorySummary().mean, 0.0);
}

TEST(ExactWindowedBoltTest, MultiBufferRejectsSpill) {
  ExactWindowedBoltConfig config = MeanConfig(WindowSpec::TumblingTime(10));
  config.use_multi_buffer = true;
  config.memory_capacity = 10;
  ExactWindowedBolt bolt(std::move(config));
  EXPECT_TRUE(bolt.Prepare(BoltContext{}).IsInvalid());
}

TEST(IncrementalWindowedBoltTest, MatchesExactMean) {
  ExactWindowedBolt exact(MeanConfig(WindowSpec::TumblingTime(10)));
  IncrementalWindowedBolt inc(WindowSpec::TumblingTime(10),
                              AggregateSpec::Mean(), NumericField(0));
  ASSERT_TRUE(exact.Prepare(BoltContext{}).ok());
  ASSERT_TRUE(inc.Prepare(BoltContext{}).ok());
  CollectingEmitter e_out, i_out;
  for (int t = 0; t < 50; ++t) {
    ASSERT_TRUE(exact.Execute(VT(t, t * 0.25), &e_out).ok());
    ASSERT_TRUE(inc.Execute(VT(t, t * 0.25), &i_out).ok());
  }
  ASSERT_TRUE(exact.OnWatermark(50, &e_out).ok());
  ASSERT_TRUE(inc.OnWatermark(50, &i_out).ok());
  ASSERT_EQ(e_out.tuples.size(), i_out.tuples.size());
  for (std::size_t i = 0; i < e_out.tuples.size(); ++i) {
    EXPECT_NEAR(
        e_out.tuples[i].field(ResultTupleLayout::kScalarValue).AsDouble(),
        i_out.tuples[i].field(ResultTupleLayout::kScalarValue).AsDouble(),
        1e-9);
  }
}

TEST(IncrementalWindowedBoltTest, GroupedCountWindows) {
  IncrementalWindowedBolt bolt(WindowSpec::TumblingCount(4),
                               AggregateSpec::Sum(), NumericField(1),
                               KeyField(0));
  ASSERT_TRUE(bolt.Prepare(BoltContext{}).ok());
  CollectingEmitter out;
  ASSERT_TRUE(bolt.Execute(KT(0, "a", 1.0), &out).ok());
  ASSERT_TRUE(bolt.Execute(KT(1, "b", 2.0), &out).ok());
  ASSERT_TRUE(bolt.Execute(KT(2, "a", 3.0), &out).ok());
  ASSERT_TRUE(bolt.Execute(KT(3, "b", 4.0), &out).ok());
  // One complete window with groups a: 4.0, b: 6.0.
  ASSERT_EQ(out.tuples.size(), 2u);
  EXPECT_DOUBLE_EQ(out.tuples[0].field(ResultTupleLayout::kGroupValue).AsDouble(),
                   4.0);
  EXPECT_DOUBLE_EQ(out.tuples[1].field(ResultTupleLayout::kGroupValue).AsDouble(),
                   6.0);
}

TEST(CountMinBoltTest, GroupedMeanApproximation) {
  CountMinWindowedBolt bolt(WindowSpec::TumblingTime(100), NumericField(1),
                            KeyField(0), /*epsilon=*/0.01,
                            /*confidence=*/0.95);
  ASSERT_TRUE(bolt.Prepare(BoltContext{}).ok());
  CollectingEmitter out;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        bolt.Execute(KT(i % 100, std::string("g").append(std::to_string(i % 3)),
                        10.0 * (i % 3)),
                     &out)
            .ok());
  }
  ASSERT_TRUE(bolt.OnWatermark(100, &out).ok());
  ASSERT_EQ(out.tuples.size(), 3u);
  for (const Tuple& t : out.tuples) {
    const std::string key = t.field(ResultTupleLayout::kGroupKey).AsString();
    const double mean = t.field(ResultTupleLayout::kGroupValue).AsDouble();
    const double expected = 10.0 * (key[1] - '0');
    EXPECT_NEAR(mean, expected, 1.0 + expected * 0.05) << key;
    EXPECT_EQ(t.field(ResultTupleLayout::kGroupApprox).AsInt64(), 1);
  }
}

}  // namespace
}  // namespace spear

#include "runtime/window_join_bolt.h"

#include <gtest/gtest.h>

#include <set>

namespace spear {
namespace {

class CollectingEmitter : public Emitter {
 public:
  void Emit(Tuple tuple) override { tuples.push_back(std::move(tuple)); }
  std::vector<Tuple> tuples;
};

/// Left: [key, amount]; Right: [key, label].
Tuple Left(Timestamp t, const std::string& key, double amount) {
  return Tuple(t, {Value(key), Value(amount)});
}
Tuple Right(Timestamp t, const std::string& key, const std::string& label) {
  return Tuple(t, {Value(key), Value(label)});
}

WindowJoinConfig Config() {
  WindowJoinConfig config;
  config.window = WindowSpec::TumblingTime(100);
  config.tag_field = 0;
  // MergeStreams prepends the tag, shifting original fields by one.
  config.left_key = KeyField(1);
  config.right_key = KeyField(1);
  return config;
}

TEST(MergeStreamsTest, TagsAndInterleavesByTime) {
  const auto merged = MergeStreams({Left(1, "a", 1.0), Left(5, "b", 2.0)},
                                   {Right(3, "a", "x")});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].field(0).AsInt64(), 0);
  EXPECT_EQ(merged[1].field(0).AsInt64(), 1);  // right tuple at t=3
  EXPECT_EQ(merged[2].field(0).AsInt64(), 0);
  EXPECT_EQ(merged[0].event_time(), 1);
  EXPECT_EQ(merged[1].event_time(), 3);
  EXPECT_EQ(merged[2].event_time(), 5);
}

TEST(WindowJoinTest, MatchesWithinWindow) {
  WindowJoinBolt bolt(Config());
  ASSERT_TRUE(bolt.Prepare(BoltContext{}).ok());
  CollectingEmitter out;
  for (Tuple& t : MergeStreams({Left(10, "a", 1.5), Left(20, "b", 2.5)},
                               {Right(30, "a", "ride"),
                                Right(40, "c", "ghost")})) {
    ASSERT_TRUE(bolt.Execute(t, &out).ok());
  }
  ASSERT_TRUE(bolt.OnWatermark(100, &out).ok());
  // Only key "a" matches.
  ASSERT_EQ(out.tuples.size(), 1u);
  const Tuple& joined = out.tuples[0];
  EXPECT_EQ(joined.field(0).AsInt64(), 0);    // window start
  EXPECT_EQ(joined.field(1).AsInt64(), 100);  // window end
  EXPECT_EQ(joined.field(2).AsString(), "a");
  EXPECT_EQ(joined.field(3).AsString(), "a");       // left key field
  EXPECT_DOUBLE_EQ(joined.field(4).AsDouble(), 1.5);  // left amount
  EXPECT_EQ(joined.field(5).AsString(), "a");       // right key field
  EXPECT_EQ(joined.field(6).AsString(), "ride");    // right label
}

TEST(WindowJoinTest, NoCrossWindowMatches) {
  WindowJoinBolt bolt(Config());
  ASSERT_TRUE(bolt.Prepare(BoltContext{}).ok());
  CollectingEmitter out;
  for (Tuple& t : MergeStreams({Left(10, "a", 1.0)},
                               {Right(150, "a", "late")})) {
    ASSERT_TRUE(bolt.Execute(t, &out).ok());
  }
  ASSERT_TRUE(bolt.OnWatermark(200, &out).ok());
  EXPECT_TRUE(out.tuples.empty());
}

TEST(WindowJoinTest, ManyToManyProducesCrossProduct) {
  WindowJoinBolt bolt(Config());
  ASSERT_TRUE(bolt.Prepare(BoltContext{}).ok());
  CollectingEmitter out;
  for (Tuple& t : MergeStreams(
           {Left(1, "k", 1.0), Left(2, "k", 2.0), Left(3, "k", 3.0)},
           {Right(4, "k", "x"), Right(5, "k", "y")})) {
    ASSERT_TRUE(bolt.Execute(t, &out).ok());
  }
  ASSERT_TRUE(bolt.OnWatermark(100, &out).ok());
  EXPECT_EQ(out.tuples.size(), 6u);  // 3 x 2
}

TEST(WindowJoinTest, SlidingWindowJoinsPerWindow) {
  WindowJoinConfig config = Config();
  config.window = WindowSpec::SlidingTime(100, 50);
  WindowJoinBolt bolt(std::move(config));
  ASSERT_TRUE(bolt.Prepare(BoltContext{}).ok());
  CollectingEmitter out;
  // Both tuples at t=60..70: participate in windows [0,100) and [50,150).
  for (Tuple& t : MergeStreams({Left(60, "a", 1.0)},
                               {Right(70, "a", "m")})) {
    ASSERT_TRUE(bolt.Execute(t, &out).ok());
  }
  ASSERT_TRUE(bolt.OnWatermark(200, &out).ok());
  ASSERT_EQ(out.tuples.size(), 2u);
  std::set<std::int64_t> starts;
  for (const Tuple& t : out.tuples) starts.insert(t.field(0).AsInt64());
  EXPECT_EQ(starts, (std::set<std::int64_t>{0, 50}));
}

TEST(WindowJoinTest, MetricsRecorded) {
  WorkerMetrics metrics("join", 0);
  BoltContext ctx;
  ctx.metrics = &metrics;
  WindowJoinBolt bolt(Config());
  ASSERT_TRUE(bolt.Prepare(ctx).ok());
  CollectingEmitter out;
  for (Tuple& t : MergeStreams({Left(1, "a", 1.0)}, {Right(2, "a", "x")})) {
    ASSERT_TRUE(bolt.Execute(t, &out).ok());
  }
  ASSERT_TRUE(bolt.OnWatermark(100, &out).ok());
  EXPECT_EQ(metrics.WindowSummary().count, 1u);
  ASSERT_EQ(out.tuples.size(), 1u);
  // Emissions are counted once, by the executor that delivers them.
  EXPECT_EQ(metrics.tuples_out(), 0u);
}

}  // namespace
}  // namespace spear

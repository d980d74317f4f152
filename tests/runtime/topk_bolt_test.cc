#include "runtime/topk_bolt.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "runtime/windowed_bolt.h"

namespace spear {
namespace {

class CollectingEmitter : public Emitter {
 public:
  void Emit(Tuple tuple) override { tuples.push_back(std::move(tuple)); }
  std::vector<Tuple> tuples;
};

Tuple KT(Timestamp t, const std::string& k) { return Tuple(t, {Value(k)}); }

TEST(TopKBoltTest, HeavyHitterAlwaysSurfaced) {
  TopKBolt bolt(WindowSpec::TumblingTime(1000), KeyField(0), 5);
  ASSERT_TRUE(bolt.Prepare(BoltContext{}).ok());
  CollectingEmitter out;
  Rng rng(1);
  int hot_count = 0;
  for (int i = 0; i < 5000; ++i) {
    std::string key;
    if (rng.NextDouble() < 0.4) {
      key = "hot";
      ++hot_count;
    } else {
      key = std::string("cold").append(std::to_string(rng.NextBounded(500)));
    }
    ASSERT_TRUE(bolt.Execute(KT(i % 1000, key), &out).ok());
  }
  ASSERT_TRUE(bolt.OnWatermark(1000, &out).ok());
  ASSERT_EQ(out.tuples.size(), 5u);
  // TopK() sorts descending: the heavy hitter leads.
  EXPECT_EQ(out.tuples[0].field(ResultTupleLayout::kGroupKey).AsString(),
            "hot");
  // SpaceSaving never underestimates a monitored key.
  EXPECT_GE(out.tuples[0].field(ResultTupleLayout::kGroupValue).AsDouble(),
            static_cast<double>(hot_count));
}

TEST(TopKBoltTest, EmitsAtMostKItems) {
  TopKBolt bolt(WindowSpec::TumblingTime(100), KeyField(0), 3);
  ASSERT_TRUE(bolt.Prepare(BoltContext{}).ok());
  CollectingEmitter out;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        bolt.Execute(KT(i, std::string("k").append(std::to_string(i % 20))),
                     &out)
            .ok());
  }
  ASSERT_TRUE(bolt.OnWatermark(100, &out).ok());
  EXPECT_EQ(out.tuples.size(), 3u);
}

TEST(TopKBoltTest, PerWindowIsolation) {
  TopKBolt bolt(WindowSpec::TumblingTime(100), KeyField(0), 2);
  ASSERT_TRUE(bolt.Prepare(BoltContext{}).ok());
  CollectingEmitter out;
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(bolt.Execute(KT(10, "a"), &out).ok());
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(bolt.Execute(KT(110, "b"), &out).ok());
  ASSERT_TRUE(bolt.OnWatermark(200, &out).ok());
  ASSERT_EQ(out.tuples.size(), 2u);
  EXPECT_EQ(out.tuples[0].field(ResultTupleLayout::kGroupKey).AsString(), "a");
  EXPECT_EQ(out.tuples[0].field(ResultTupleLayout::kStart).AsInt64(), 0);
  EXPECT_EQ(out.tuples[1].field(ResultTupleLayout::kGroupKey).AsString(), "b");
  EXPECT_EQ(out.tuples[1].field(ResultTupleLayout::kStart).AsInt64(), 100);
}

TEST(TopKBoltTest, SlidingWindowsCountOverlaps) {
  TopKBolt bolt(WindowSpec::SlidingTime(200, 100), KeyField(0), 1);
  ASSERT_TRUE(bolt.Prepare(BoltContext{}).ok());
  CollectingEmitter out;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(bolt.Execute(KT(150, "x"), &out).ok());
  ASSERT_TRUE(bolt.OnWatermark(400, &out).ok());
  // 150 participates in [0,200) and [100,300): two windows emit "x".
  ASSERT_EQ(out.tuples.size(), 2u);
  for (const Tuple& t : out.tuples) {
    EXPECT_DOUBLE_EQ(t.field(ResultTupleLayout::kGroupValue).AsDouble(),
                     10.0);
  }
}

}  // namespace
}  // namespace spear

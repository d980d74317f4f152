#include "window/single_buffer_manager.h"

#include <gtest/gtest.h>

namespace spear {
namespace {

Tuple T(Timestamp t, double v = 0.0) { return Tuple(t, {Value(v)}); }

TEST(SingleBufferTest, TumblingWindowCompletesAtWatermark) {
  SingleBufferWindowManager mgr(WindowSpec::TumblingTime(10));
  mgr.OnTuple(1, T(1, 1.0));
  mgr.OnTuple(5, T(5, 2.0));
  mgr.OnTuple(12, T(12, 3.0));

  auto windows = mgr.OnWatermark(10);
  ASSERT_TRUE(windows.ok());
  ASSERT_EQ(windows->size(), 1u);
  EXPECT_EQ((*windows)[0].bounds, (WindowBounds{0, 10}));
  EXPECT_EQ((*windows)[0].tuples.size(), 2u);
}

TEST(SingleBufferTest, NothingBeforeWatermark) {
  SingleBufferWindowManager mgr(WindowSpec::TumblingTime(10));
  mgr.OnTuple(1, T(1));
  auto windows = mgr.OnWatermark(9);
  ASSERT_TRUE(windows.ok());
  EXPECT_TRUE(windows->empty());
  EXPECT_EQ(mgr.BufferedTuples(), 1u);
}

TEST(SingleBufferTest, SlidingTuplesAppearInMultipleWindows) {
  SingleBufferWindowManager mgr(WindowSpec::SlidingTime(15, 5));
  mgr.OnTuple(61, T(61));
  auto windows = mgr.OnWatermark(80);
  ASSERT_TRUE(windows.ok());
  // 61 participates in [50,65), [55,70), [60,75) — all complete at 80.
  ASSERT_EQ(windows->size(), 3u);
  for (const auto& w : *windows) {
    EXPECT_EQ(w.tuples.size(), 1u);
    EXPECT_TRUE(w.bounds.Contains(61));
  }
}

TEST(SingleBufferTest, EvictionAfterProcessing) {
  SingleBufferWindowManager mgr(WindowSpec::TumblingTime(10));
  mgr.OnTuple(1, T(1));
  mgr.OnTuple(15, T(15));
  (void)mgr.OnWatermark(10);
  EXPECT_EQ(mgr.evicted_tuples(), 1u);  // tuple 1 expired
  EXPECT_EQ(mgr.BufferedTuples(), 1u);  // tuple 15 retained
}

TEST(SingleBufferTest, SlidingEvictsOnlyFullyExpired) {
  SingleBufferWindowManager mgr(WindowSpec::SlidingTime(15, 5));
  mgr.OnTuple(61, T(61));
  (void)mgr.OnWatermark(70);  // [50,65) and [55,70) emitted; [60,75) pending
  EXPECT_EQ(mgr.BufferedTuples(), 1u);  // 61 still needed by [60,75)
  (void)mgr.OnWatermark(75);
  EXPECT_EQ(mgr.BufferedTuples(), 0u);
}

TEST(SingleBufferTest, LateTuplesDropped) {
  SingleBufferWindowManager mgr(WindowSpec::TumblingTime(10));
  mgr.OnTuple(5, T(5));
  (void)mgr.OnWatermark(10);
  mgr.OnTuple(8, T(8));  // behind the watermark
  EXPECT_EQ(mgr.late_tuples(), 1u);
  EXPECT_EQ(mgr.BufferedTuples(), 0u);
}

TEST(SingleBufferTest, TupleAtWatermarkBoundaryAccepted) {
  SingleBufferWindowManager mgr(WindowSpec::TumblingTime(10));
  mgr.OnTuple(5, T(5));
  (void)mgr.OnWatermark(10);
  mgr.OnTuple(10, T(10));  // exactly at the (exclusive) watermark: fine
  EXPECT_EQ(mgr.late_tuples(), 0u);
  auto windows = mgr.OnWatermark(20);
  ASSERT_TRUE(windows.ok());
  ASSERT_EQ(windows->size(), 1u);
  EXPECT_EQ((*windows)[0].bounds, (WindowBounds{10, 20}));
}

TEST(SingleBufferTest, OutOfOrderWithinWatermarkHandled) {
  SingleBufferWindowManager mgr(WindowSpec::TumblingTime(10));
  mgr.OnTuple(8, T(8));
  mgr.OnTuple(3, T(3));  // out of order but ahead of watermark
  mgr.OnTuple(6, T(6));
  auto windows = mgr.OnWatermark(10);
  ASSERT_TRUE(windows.ok());
  ASSERT_EQ(windows->size(), 1u);
  EXPECT_EQ((*windows)[0].tuples.size(), 3u);
}

TEST(SingleBufferTest, DuplicateWatermarkIgnored) {
  SingleBufferWindowManager mgr(WindowSpec::TumblingTime(10));
  mgr.OnTuple(5, T(5));
  auto first = mgr.OnWatermark(10);
  ASSERT_EQ(first->size(), 1u);
  auto second = mgr.OnWatermark(10);
  EXPECT_TRUE(second->empty());
  auto regression = mgr.OnWatermark(5);
  EXPECT_TRUE(regression->empty());
}

TEST(SingleBufferTest, EmptyWindowsNotEmitted) {
  SingleBufferWindowManager mgr(WindowSpec::TumblingTime(10));
  mgr.OnTuple(5, T(5));
  mgr.OnTuple(95, T(95));
  auto windows = mgr.OnWatermark(100);
  ASSERT_TRUE(windows.ok());
  // Only [0,10) and [90,100) have data.
  ASSERT_EQ(windows->size(), 2u);
  EXPECT_EQ((*windows)[0].bounds, (WindowBounds{0, 10}));
  EXPECT_EQ((*windows)[1].bounds, (WindowBounds{90, 100}));
}

TEST(SingleBufferTest, FinalWatermarkFlushesEverything) {
  SingleBufferWindowManager mgr(WindowSpec::SlidingTime(15, 5));
  mgr.OnTuple(61, T(61));
  auto windows = mgr.OnWatermark(kMaxTimestamp);
  ASSERT_TRUE(windows.ok());
  EXPECT_EQ(windows->size(), 3u);
  EXPECT_EQ(mgr.BufferedTuples(), 0u);
}

TEST(SingleBufferTest, SpillBeyondMemoryCapacity) {
  SecondaryStorage storage;
  SingleBufferWindowManager mgr(WindowSpec::TumblingTime(100), 5, &storage,
                                "t");
  for (int i = 0; i < 20; ++i) mgr.OnTuple(i, T(i, i));
  EXPECT_TRUE(mgr.HasSpilled());
  EXPECT_EQ(mgr.BufferedTuples(), 20u);
  EXPECT_GT(storage.TotalTuples(), 0u);

  auto windows = mgr.OnWatermark(100);
  ASSERT_TRUE(windows.ok());
  ASSERT_EQ(windows->size(), 1u);
  EXPECT_EQ((*windows)[0].tuples.size(), 20u);
  EXPECT_FALSE(mgr.HasSpilled());
  EXPECT_EQ(storage.TotalTuples(), 0u);  // run erased after unspill
}

TEST(SingleBufferTest, SpilledTuplesSurviveRoundTripIntact) {
  SecondaryStorage storage;
  SingleBufferWindowManager mgr(WindowSpec::TumblingTime(100), 2, &storage,
                                "t");
  for (int i = 0; i < 6; ++i) mgr.OnTuple(i, T(i, i * 1.5));
  auto windows = mgr.OnWatermark(100);
  ASSERT_TRUE(windows.ok());
  double sum = 0.0;
  for (const Tuple& t : (*windows)[0].tuples) sum += t.field(0).AsDouble();
  EXPECT_DOUBLE_EQ(sum, 1.5 * (0 + 1 + 2 + 3 + 4 + 5));
}

// Count windows: the coord is the sequence number, not the event time. A
// tuple that went through S must come back with its own event time, like
// the ones that stayed in memory.
TEST(SingleBufferTest, SpilledTuplesKeepTheirEventTime) {
  SecondaryStorage storage;
  SingleBufferWindowManager mgr(WindowSpec::TumblingCount(5), 2, &storage,
                                "t");
  for (int seq = 0; seq < 10; ++seq) mgr.OnTuple(seq, T(1000 + seq, seq));
  EXPECT_TRUE(mgr.HasSpilled());
  auto windows = mgr.OnWatermark(10);
  ASSERT_TRUE(windows.ok());
  ASSERT_EQ(windows->size(), 2u);
  for (const CompleteWindow& w : *windows) {
    ASSERT_EQ(w.tuples.size(), 5u);
    for (const Tuple& t : w.tuples) {
      const auto seq = static_cast<Timestamp>(t.field(0).AsDouble());
      EXPECT_EQ(t.event_time(), 1000 + seq) << "tuple " << seq;
    }
  }
}

TEST(SingleBufferTest, MemoryBytesTracksBuffer) {
  SingleBufferWindowManager mgr(WindowSpec::TumblingTime(10));
  EXPECT_EQ(mgr.MemoryBytes(), 0u);
  mgr.OnTuple(1, T(1));
  const std::size_t one = mgr.MemoryBytes();
  EXPECT_GT(one, 0u);
  mgr.OnTuple(2, T(2));
  EXPECT_GT(mgr.MemoryBytes(), one);
}

TEST(SingleBufferTest, CountCoordinatesWork) {
  // Count windows: coordinates are sequence numbers.
  SingleBufferWindowManager mgr(WindowSpec::TumblingCount(5));
  for (int i = 0; i < 5; ++i) mgr.OnTuple(i, T(1000 + i));
  auto windows = mgr.OnWatermark(5);
  ASSERT_TRUE(windows.ok());
  ASSERT_EQ(windows->size(), 1u);
  EXPECT_EQ((*windows)[0].tuples.size(), 5u);
}

TEST(SingleBufferTest, GapFastForwardSkipsEmptyWindows) {
  SingleBufferWindowManager mgr(WindowSpec::TumblingTime(10));
  mgr.OnTuple(5, T(5));
  (void)mgr.OnWatermark(10);
  // Jump far ahead with no data in between.
  mgr.OnTuple(1'000'005, T(1'000'005));
  auto windows = mgr.OnWatermark(1'000'010);
  ASSERT_TRUE(windows.ok());
  ASSERT_EQ(windows->size(), 1u);
  EXPECT_EQ((*windows)[0].bounds, (WindowBounds{1'000'000, 1'000'010}));
}

}  // namespace
}  // namespace spear

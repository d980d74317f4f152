#include "common/blocking_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace spear {
namespace {

TEST(BlockingQueueTest, PushPopSingleThread) {
  BlockingQueue<int> q(4);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
}

TEST(BlockingQueueTest, TryPushFailsWhenFull) {
  BlockingQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
}

TEST(BlockingQueueTest, TryPopFailsWhenEmpty) {
  BlockingQueue<int> q(2);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BlockingQueueTest, CloseUnblocksConsumer) {
  BlockingQueue<int> q(2);
  std::thread consumer([&] {
    EXPECT_FALSE(q.Pop().has_value());
  });
  q.Close();
  consumer.join();
}

TEST(BlockingQueueTest, CloseDrainsRemainingItems) {
  BlockingQueue<int> q(4);
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueueTest, PushFailsAfterClose) {
  BlockingQueue<int> q(2);
  q.Close();
  EXPECT_FALSE(q.Push(1));
  EXPECT_FALSE(q.TryPush(1));
}

// Control elements get reserved headroom: a full data queue must not make
// a watermark wait behind the very tuples it would release.
TEST(BlockingQueueTest, PushControlBypassesCapacity) {
  BlockingQueue<int> q(2);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.PushControl(3));  // would deadlock if it waited for room
  EXPECT_EQ(q.size(), 3u);       // transient overshoot is allowed
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_EQ(q.Pop().value(), 3);
}

TEST(BlockingQueueTest, PushControlFailsAfterClose) {
  BlockingQueue<int> q(2);
  q.Close();
  EXPECT_FALSE(q.PushControl(1));
}

// Data producers keep blocking while control overshoot is outstanding —
// the headroom is reserved for control elements, not free capacity.
TEST(BlockingQueueTest, ControlOvershootStillBackpressuresData) {
  BlockingQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.PushControl(2));
  EXPECT_FALSE(q.TryPush(3));
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_FALSE(q.TryPush(3));  // still at capacity from the overshoot
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_TRUE(q.TryPush(3));
}

TEST(BlockingQueueTest, BlockedPushRecordsBackpressureWait) {
  BlockingQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::int64_t blocked_ns = 0;
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.Pop();
  });
  EXPECT_TRUE(q.Push(2, &blocked_ns));
  consumer.join();
  EXPECT_GT(blocked_ns, 0);
}

TEST(BlockingQueueTest, UnblockedPushRecordsNoWait) {
  BlockingQueue<int> q(4);
  std::int64_t blocked_ns = 0;
  EXPECT_TRUE(q.Push(1, &blocked_ns));
  std::vector<int> batch{2, 3};
  EXPECT_TRUE(q.PushAll(std::move(batch), &blocked_ns));
  EXPECT_EQ(blocked_ns, 0);
}

TEST(BlockingQueueTest, BlockedPushAllRecordsBackpressureWait) {
  BlockingQueue<int> q(2);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  std::int64_t blocked_ns = 0;
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    while (q.Pop().has_value()) {
    }
  });
  std::vector<int> batch{3, 4, 5};
  EXPECT_TRUE(q.PushAll(std::move(batch), &blocked_ns));
  q.Close();
  consumer.join();
  EXPECT_GT(blocked_ns, 0);
}

TEST(BlockingQueueTest, BoundedPushBlocksUntilDrained) {
  BlockingQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.Push(2);  // blocks until consumer pops
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.Pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.Pop().value(), 2);
}

TEST(BlockingQueueTest, PushAllPopAllRoundTrip) {
  BlockingQueue<int> q(8);
  EXPECT_TRUE(q.PushAll({1, 2, 3, 4, 5}));
  std::vector<int> out;
  EXPECT_EQ(q.PopAll(&out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.PopAll(&out, 100), 2u);  // appends, does not clear
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(BlockingQueueTest, PushAllLeavesSourceEmpty) {
  BlockingQueue<int> q(8);
  std::vector<int> batch{1, 2, 3};
  EXPECT_TRUE(q.PushAll(std::move(batch)));
  EXPECT_TRUE(batch.empty());  // storage handed to the queue; no spare yet
  EXPECT_EQ(q.size(), 3u);
}

TEST(BlockingQueueTest, PushAllEmptyBatchIsANoOp) {
  BlockingQueue<int> q(2);
  EXPECT_TRUE(q.PushAll({}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(BlockingQueueTest, TryPopAllEmptyReturnsZero) {
  BlockingQueue<int> q(4);
  std::vector<int> out;
  EXPECT_EQ(q.TryPopAll(&out, 16), 0u);
  q.Push(7);
  EXPECT_EQ(q.TryPopAll(&out, 16), 1u);
  EXPECT_EQ(out, (std::vector<int>{7}));
}

TEST(BlockingQueueTest, PushAllFailsAfterClose) {
  BlockingQueue<int> q(4);
  q.Close();
  EXPECT_FALSE(q.PushAll({1, 2}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(BlockingQueueTest, PopAllDrainsThenStopsAfterClose) {
  BlockingQueue<int> q(8);
  ASSERT_TRUE(q.PushAll({1, 2, 3, 4}));
  q.Close();
  std::vector<int> out;
  EXPECT_EQ(q.PopAll(&out, 3), 3u);  // drain-then-stop: items survive Close
  EXPECT_EQ(q.PopAll(&out, 3), 1u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.PopAll(&out, 3), 0u);  // drained and closed
}

TEST(BlockingQueueTest, PushAllBiggerThanCapacityBackPressures) {
  // A 10-element batch through a 2-slot queue must block for room and
  // arrive chunked, in order, with back-pressure intact throughout.
  BlockingQueue<int> q(2);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    std::vector<int> batch{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    EXPECT_TRUE(q.PushAll(std::move(batch)));
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // blocked: batch exceeds remaining capacity
  std::vector<int> received;
  while (received.size() < 10) {
    std::vector<int> chunk;
    const std::size_t n = q.PopAll(&chunk, 4);
    ASSERT_GT(n, 0u);
    EXPECT_LE(q.size(), 2u);  // capacity never exceeded mid-batch
    received.insert(received.end(), chunk.begin(), chunk.end());
  }
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(BlockingQueueTest, CloseUnblocksPendingPushAll) {
  BlockingQueue<int> q(1);
  ASSERT_TRUE(q.Push(42));
  std::thread producer([&] {
    EXPECT_FALSE(q.PushAll({1, 2, 3}));  // no room, then closed
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  producer.join();
  // Drain-then-stop still applies to what made it in before the close.
  EXPECT_EQ(q.Pop().value(), 42);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueueTest, PopAllBlocksUntilBatchArrives) {
  BlockingQueue<int> q(16);
  std::vector<int> out;
  std::thread consumer([&] {
    EXPECT_EQ(q.PopAll(&out, 16), 5u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(q.PushAll({1, 2, 3, 4, 5}));
  consumer.join();
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
}

// Runs at the smallest capacities (resume mark 0..2), below one batch
// (forced chunking) and above it (whole-node handoff with circulating
// spares).
TEST(BlockingQueueTest, BatchedMpmcDeliversEverythingExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kBatches = 50;
  constexpr int kBatchSize = 20;
  for (std::size_t capacity : {1u, 2u, 3u, 16u, 64u}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    BlockingQueue<int> q(capacity);
    std::atomic<long> sum{0};
    std::atomic<int> popped{0};

    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        std::vector<int> batch;
        for (int b = 0; b < kBatches; ++b) {
          batch.reserve(kBatchSize);
          for (int i = 0; i < kBatchSize; ++i) {
            batch.push_back(p * kBatches * kBatchSize + b * kBatchSize + i);
          }
          ASSERT_TRUE(q.PushAll(std::move(batch)));
          ASSERT_TRUE(batch.empty());
        }
      });
    }
    for (int c = 0; c < 3; ++c) {
      // One consumer drains element-wise, two take whole nodes.
      const std::size_t max = c == 0 ? 7 : 21;
      threads.emplace_back([&, max] {
        std::vector<int> chunk;
        for (;;) {
          chunk.clear();
          const std::size_t n = q.PopAll(&chunk, max);
          if (n == 0) break;
          for (int v : chunk) sum += v;
          popped += static_cast<int>(n);
        }
      });
    }
    for (int p = 0; p < kProducers; ++p) threads[p].join();
    q.Close();
    for (std::size_t c = kProducers; c < threads.size(); ++c) {
      threads[c].join();
    }

    const long n = kProducers * kBatches * kBatchSize;
    EXPECT_EQ(popped.load(), n);
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
  }
}

TEST(BlockingQueueTest, MpmcDeliversEverythingExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 1000;
  BlockingQueue<int> q(16);
  std::atomic<long> sum{0};
  std::atomic<int> popped{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(p * kPerProducer + i);
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.Pop()) {
        sum += *v;
        ++popped;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.Close();
  for (std::size_t c = kProducers; c < threads.size(); ++c) threads[c].join();

  const long n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

/// Spins (yielding) until `q` has `n` parked producers.
void AwaitParked(const BlockingQueue<int>& q, std::size_t n) {
  while (q.parked_producers() != n) std::this_thread::yield();
}

/// Joins a producer that the last pop should have resumed. One still
/// parked after 5 s missed its wake-up: closing `q` makes its push return
/// false, so the test fails instead of hanging.
void JoinResumedProducer(BlockingQueue<int>& q, std::thread& producer) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (q.parked_producers() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  if (q.parked_producers() > 0) q.Close();
  producer.join();
}

TEST(BlockingQueueTest, ResumeMarkLeavesAQuarterFree) {
  EXPECT_EQ(BlockingQueue<int>(1).resume_mark(), 0u);
  EXPECT_EQ(BlockingQueue<int>(2).resume_mark(), 1u);
  EXPECT_EQ(BlockingQueue<int>(3).resume_mark(), 2u);
  EXPECT_EQ(BlockingQueue<int>(4).resume_mark(), 3u);
  EXPECT_EQ(BlockingQueue<int>(8).resume_mark(), 6u);
  EXPECT_EQ(BlockingQueue<int>(1024).resume_mark(), 768u);
}

// A producer parked on a full queue sleeps through pops that leave the
// queue above the resume mark and wakes on the pop that reaches it.
TEST(BlockingQueueTest, ParkedProducerResumesOnlyAtResumeMark) {
  BlockingQueue<int> q(8);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(q.Push(i));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(8));
    pushed.store(true);
  });
  AwaitParked(q, 1);
  EXPECT_EQ(q.Pop().value(), 0);  // 7 queued: above the mark of 6
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.parked_producers(), 1u);
  EXPECT_EQ(q.size(), 7u);
  std::vector<int> out;
  EXPECT_EQ(q.TryPopAll(&out, 1), 1u);  // 6 queued: resumes
  JoinResumedProducer(q, producer);
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.parked_producers(), 0u);
  EXPECT_EQ(q.size(), 7u);
}

// Every pop path signals the crossing: a producer parked on a full queue
// is released by whichever of Pop, TryPop, PopAll or TryPopAll reaches
// the mark.
TEST(BlockingQueueTest, EveryPopPathWakesAParkedProducer) {
  enum class PopPath { kPop, kTryPop, kPopAll, kTryPopAll };
  for (PopPath path : {PopPath::kPop, PopPath::kTryPop, PopPath::kPopAll,
                       PopPath::kTryPopAll}) {
    SCOPED_TRACE(static_cast<int>(path));
    BlockingQueue<int> q(4);  // resume mark 3
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.Push(i));
    std::thread producer([&] { EXPECT_TRUE(q.Push(4)); });
    AwaitParked(q, 1);
    std::vector<int> out;
    switch (path) {
      case PopPath::kPop: EXPECT_TRUE(q.Pop().has_value()); break;
      case PopPath::kTryPop: EXPECT_TRUE(q.TryPop().has_value()); break;
      case PopPath::kPopAll: EXPECT_EQ(q.PopAll(&out, 1), 1u); break;
      case PopPath::kTryPopAll: EXPECT_EQ(q.TryPopAll(&out, 1), 1u); break;
    }
    JoinResumedProducer(q, producer);
    EXPECT_EQ(q.size(), 4u);
  }
}

// Capacities whose quarter rounds to zero still leave one free slot
// before a parked producer resumes; mixed single and batch traffic with
// every pop path completes in order.
TEST(BlockingQueueTest, SmallCapacitiesNeitherSpinNorDeadlock) {
  constexpr int kItems = 3000;
  for (std::size_t capacity = 1; capacity <= 4; ++capacity) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    BlockingQueue<int> q(capacity);
    EXPECT_LT(q.resume_mark(), q.capacity());
    std::thread producer([&] {
      std::vector<int> batch;
      for (int i = 0; i < kItems;) {
        if (i % 3 == 0) {
          ASSERT_TRUE(q.Push(i++));
          continue;
        }
        batch.reserve(5);
        for (int k = 0; k < 5 && i < kItems; ++k) batch.push_back(i++);
        ASSERT_TRUE(q.PushAll(std::move(batch)));
      }
      q.Close();
    });
    std::vector<int> received;
    std::vector<int> out;
    for (int round = 0;; ++round) {
      out.clear();
      switch (round % 4) {
        case 0:
          if (auto v = q.Pop()) out.push_back(*v);
          break;
        case 1:
          if (auto v = q.TryPop()) out.push_back(*v);
          break;
        case 2:
          q.PopAll(&out, 4);
          break;
        default:
          q.TryPopAll(&out, 2);
          break;
      }
      received.insert(received.end(), out.begin(), out.end());
      if (out.empty() && q.closed() && q.size() == 0) break;
    }
    producer.join();
    ASSERT_EQ(received.size(), static_cast<std::size_t>(kItems));
    for (int i = 0; i < kItems; ++i) ASSERT_EQ(received[i], i);
  }
}

// Batch storage circulates: the vector a consumer drained in a whole-node
// PopAll comes back to the next producer, cleared but with its capacity.
TEST(BlockingQueueTest, PushAllReturnsSpareFromWholeNodePopAll) {
  BlockingQueue<int> q(8);
  ASSERT_TRUE(q.PushAll({1, 2, 3}));
  std::vector<int> out;
  out.reserve(16);
  ASSERT_EQ(q.PopAll(&out, 8), 3u);  // whole node; `out`'s storage is kept
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  std::vector<int> batch{4, 5};
  ASSERT_TRUE(q.PushAll(std::move(batch)));
  EXPECT_TRUE(batch.empty());
  EXPECT_GE(batch.capacity(), 16u);
  // No spare left: the next producer gets nothing back.
  std::vector<int> next{6};
  ASSERT_TRUE(q.PushAll(std::move(next)));
  EXPECT_TRUE(next.empty());
  EXPECT_EQ(next.capacity(), 0u);
}

// A consumer that moves its batches elsewhere (a replay log) drains with a
// storage-less vector, which is not kept as a spare.
TEST(BlockingQueueTest, StoragelessDrainLeavesNoSpare) {
  BlockingQueue<int> q(8);
  ASSERT_TRUE(q.PushAll({1, 2, 3}));
  std::vector<int> out;
  ASSERT_EQ(q.PopAll(&out, 8), 3u);
  std::vector<int> batch{4};
  ASSERT_TRUE(q.PushAll(std::move(batch)));
  EXPECT_EQ(batch.capacity(), 0u);
}

// Control overshoot counts toward the resume mark: a parked data producer
// stays parked until the overshoot and a quarter of the capacity drain.
TEST(BlockingQueueTest, ControlOvershootDelaysParkedProducer) {
  BlockingQueue<int> q(4);  // resume mark 3
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.Push(i));
  ASSERT_TRUE(q.PushControl(4));
  ASSERT_TRUE(q.PushControl(5));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(6));
    pushed.store(true);
  });
  AwaitParked(q, 1);
  EXPECT_EQ(q.Pop().value(), 0);  // 5 queued
  EXPECT_EQ(q.Pop().value(), 1);  // 4 queued: at capacity, still parked
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.Pop().value(), 2);  // 3 queued: the mark
  JoinResumedProducer(q, producer);
  EXPECT_TRUE(pushed.load());
  std::vector<int> rest;
  EXPECT_EQ(q.TryPopAll(&rest, 16), 4u);
  EXPECT_EQ(rest, (std::vector<int>{3, 4, 5, 6}));
}

}  // namespace
}  // namespace spear

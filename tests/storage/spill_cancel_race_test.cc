#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "storage/secondary_storage.h"
#include "window/tuple_buffer.h"

namespace spear {
namespace {

Tuple NumTuple(std::int64_t t, double v) {
  return Tuple(t, std::vector<Value>{Value(v)});
}

// Deterministic baseline: with storage permanently down, every
// past-budget append falls back to memory — nothing is lost and nothing
// is half-stored.
TEST(SpillCancelRaceTest, PermanentSpillFailureKeepsEverythingInMemory) {
  FaultPlan plan;
  FaultRule rule;
  rule.site = FaultSite::kStorageStore;
  rule.probability = 1.0;
  plan.Add(rule);
  FaultInjector injector(plan);

  SecondaryStorage storage;
  storage.InjectFaults(&injector);
  TupleBuffer buffer(/*memory_capacity=*/8, &storage, "down-key");

  const int n = 100;
  for (int i = 0; i < n; ++i) buffer.Append(i, NumTuple(i, i));

  EXPECT_EQ(buffer.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(buffer.memory_size(), static_cast<std::size_t>(n));
  EXPECT_EQ(buffer.spilled_size(), 0u);
  EXPECT_EQ(buffer.spill_failures(), static_cast<std::size_t>(n - 8));
  EXPECT_EQ(storage.TotalTuples(), 0u);  // no partial stores
}

// The satellite scenario: spills fail intermittently while another thread
// flips the run-cancellation latency switch underneath the worker. The
// keep-in-memory fallback must account for every tuple exactly once —
// memory + spilled == appended, the storage run matches the spilled
// count, and Clear leaves nothing behind.
TEST(SpillCancelRaceTest, IntermittentFailureUnderConcurrentCancel) {
  FaultPlan plan;
  plan.seed = 11;
  FaultRule rule;
  rule.site = FaultSite::kStorageStore;
  rule.every_nth = 3;  // every third spill attempt fails
  plan.Add(rule);
  FaultInjector injector(plan);

  // Nonzero simulated latency widens the window the cancel switch races
  // against (the busy-wait checks the flag continuously).
  SecondaryStorage storage(StorageLatencyModel{2'000, 50});
  storage.InjectFaults(&injector);
  TupleBuffer buffer(/*memory_capacity=*/16, &storage, "race-key");

  std::atomic<bool> done{false};
  std::thread canceller([&storage, &done]() {
    while (!done.load(std::memory_order_relaxed)) {
      storage.CancelSimulatedLatency();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      storage.ResetSimulatedLatency();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  const int n = 3000;
  double expected_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    buffer.Append(i, NumTuple(i, i));
    expected_sum += i;
  }
  done.store(true);
  canceller.join();

  // Exactly-once accounting across the fallback boundary.
  EXPECT_EQ(buffer.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(buffer.memory_size() + buffer.spilled_size(),
            static_cast<std::size_t>(n));
  EXPECT_GT(buffer.spilled_size(), 0u);
  EXPECT_GT(buffer.spill_failures(), 0u);
  EXPECT_EQ(storage.CountFor("race-key/0"), buffer.spilled_size());

  // Reading the buffer back returns each appended tuple exactly once (a
  // duplicate or a loss shifts the checksum).
  storage.ResetSimulatedLatency();
  ASSERT_TRUE(buffer.Unspill().ok());
  std::size_t count = 0;
  double sum = 0.0;
  buffer.ForEachIn(WindowBounds{0, n}, [&](const Tuple& t, std::uint32_t) {
    ++count;
    sum += t.field(0).AsDouble();
    return true;
  });
  ASSERT_EQ(count, static_cast<std::size_t>(n));
  EXPECT_DOUBLE_EQ(sum, expected_sum);
  EXPECT_EQ(storage.CountFor("race-key/0"), 0u);  // erased once fetched

  // No leak: clearing the buffer drops it, and no run is left behind.
  buffer.Clear();
  EXPECT_EQ(storage.TotalTuples(), 0u);
  EXPECT_EQ(buffer.size(), 0u);
}

}  // namespace
}  // namespace spear

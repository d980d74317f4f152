#include "storage/secondary_storage.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/time.h"

namespace spear {
namespace {

Tuple T(Timestamp t, double v) { return Tuple(t, {Value(v)}); }

TEST(SecondaryStorageTest, StoreAndGet) {
  SecondaryStorage s;
  s.Store("w1", T(1, 1.0));
  s.Store("w1", T(2, 2.0));
  auto run = s.Get("w1");
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->size(), 2u);
  EXPECT_EQ((*run)[0].event_time(), 1);
  EXPECT_EQ((*run)[1].event_time(), 2);
}

TEST(SecondaryStorageTest, GetMissingKeyIsNotFound) {
  SecondaryStorage s;
  EXPECT_TRUE(s.Get("nope").status().IsNotFound());
}

TEST(SecondaryStorageTest, KeysAreIndependent) {
  SecondaryStorage s;
  s.Store("a", T(1, 1.0));
  s.Store("b", T(2, 2.0));
  EXPECT_EQ(s.CountFor("a"), 1u);
  EXPECT_EQ(s.CountFor("b"), 1u);
  EXPECT_EQ(s.TotalTuples(), 2u);
}

TEST(SecondaryStorageTest, EraseRemovesRun) {
  SecondaryStorage s;
  s.Store("a", T(1, 1.0));
  s.Erase("a");
  EXPECT_EQ(s.CountFor("a"), 0u);
  EXPECT_TRUE(s.Get("a").status().IsNotFound());
}

TEST(SecondaryStorageTest, CallCounters) {
  SecondaryStorage s;
  s.Store("a", T(1, 1.0));
  s.Store("a", T(2, 2.0));
  (void)s.Get("a");
  (void)s.Get("missing");
  EXPECT_EQ(s.store_calls(), 2u);
  EXPECT_EQ(s.get_calls(), 2u);
}

TEST(SecondaryStorageTest, LatencyModelCostsTime) {
  SecondaryStorage slow(StorageLatencyModel{2'000'000, 0});  // 2 ms per call
  const std::int64_t start = NowNs();
  slow.Store("a", T(1, 1.0));
  const std::int64_t elapsed = NowNs() - start;
  EXPECT_GE(elapsed, 2'000'000);
}

TEST(SecondaryStorageTest, PerTupleLatencyScalesWithBatch) {
  SecondaryStorage slow(StorageLatencyModel{0, 10'000});  // 10 us per tuple
  for (int i = 0; i < 100; ++i) slow.Store("a", T(i, 0.0));
  const std::int64_t start = NowNs();
  ASSERT_TRUE(slow.Get("a").ok());  // one call fetching a 100-tuple run
  EXPECT_GE(NowNs() - start, 1'000'000);  // >= 1 ms for 100 tuples
}

TEST(SecondaryStorageTest, InjectedStoreFaultFailsWithoutStoring) {
  FaultPlan plan;
  FaultRule rule;
  rule.site = FaultSite::kStorageStore;
  rule.every_nth = 2;
  plan.Add(rule);
  FaultInjector injector(plan);

  SecondaryStorage s;
  s.InjectFaults(&injector);
  EXPECT_TRUE(s.Store("a", T(1, 1.0)).ok());
  const Status second = s.Store("a", T(2, 2.0));
  EXPECT_TRUE(second.IsUnavailable());
  // The failed call stored nothing and doesn't count as performed work.
  EXPECT_EQ(s.CountFor("a"), 1u);
  EXPECT_EQ(s.store_calls(), 1u);
}

TEST(SecondaryStorageTest, InjectedGetFaultIsUnavailableNotNotFound) {
  FaultPlan plan;
  FaultRule rule;
  rule.site = FaultSite::kStorageGet;
  rule.every_nth = 1;
  rule.max_fires = 1;
  plan.Add(rule);
  FaultInjector injector(plan);

  SecondaryStorage s;
  s.Store("a", T(1, 1.0));
  s.InjectFaults(&injector);
  EXPECT_TRUE(s.Get("a").status().IsUnavailable());
  EXPECT_EQ(s.get_calls(), 0u);
  // The fault budget is spent: the retry sees the data.
  auto run = s.Get("a");
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->size(), 1u);
  EXPECT_EQ(s.get_calls(), 1u);
}

TEST(SecondaryStorageTest, CancellationCutsSimulatedLatencyShort) {
  // 200 ms of simulated per-call latency, cancelled up front: the call
  // must return almost immediately instead of spinning out the wait.
  SecondaryStorage slow(StorageLatencyModel{200'000'000, 0});
  slow.CancelSimulatedLatency();
  const std::int64_t start = NowNs();
  EXPECT_TRUE(slow.Store("a", T(1, 1.0)).ok());
  EXPECT_LT(NowNs() - start, 100'000'000);
  EXPECT_EQ(slow.CountFor("a"), 1u);

  // Re-arming restores the cost model.
  SecondaryStorage slow2(StorageLatencyModel{5'000'000, 0});  // 5 ms
  const std::int64_t start2 = NowNs();
  EXPECT_TRUE(slow2.Store("a", T(1, 1.0)).ok());
  EXPECT_GE(NowNs() - start2, 5'000'000);
}

TEST(SecondaryStorageTest, ConcurrentStoresAllLand) {
  SecondaryStorage s;
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&s, w] {
      for (int i = 0; i < 500; ++i) {
        s.Store(std::string("k").append(std::to_string(w)), T(i, 0.0));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(s.TotalTuples(), 2000u);
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(s.CountFor(std::string("k").append(std::to_string(w))), 500u);
  }
}

}  // namespace
}  // namespace spear

#include "runtime/partitioner.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace spear {
namespace {

Tuple KT(const std::string& k) { return Tuple(0, {Value(k)}); }

TEST(PartitionerTest, ShuffleRoundRobins) {
  const Partitioner p = Partitioner::Shuffle();
  std::uint64_t rr = 0;
  std::vector<int> targets;
  for (int i = 0; i < 8; ++i) targets.push_back(p.TargetTask(KT("x"), 4, &rr));
  EXPECT_EQ(targets, (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(PartitionerTest, GlobalAlwaysZero) {
  const Partitioner p = Partitioner::Global();
  std::uint64_t rr = 0;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(p.TargetTask(KT("x"), 7, &rr), 0);
}

TEST(PartitionerTest, FieldsIsDeterministicPerKey) {
  const Partitioner p = Partitioner::Fields(KeyField(0));
  std::uint64_t rr = 0;
  const int first = p.TargetTask(KT("route-42"), 8, &rr);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(p.TargetTask(KT("route-42"), 8, &rr), first);
  }
}

TEST(PartitionerTest, FieldsSpreadsKeys) {
  const Partitioner p = Partitioner::Fields(KeyField(0));
  std::uint64_t rr = 0;
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(
        p.TargetTask(KT(std::string("k").append(std::to_string(i))), 8, &rr));
  }
  EXPECT_EQ(seen.size(), 8u);  // all tasks hit with 200 keys
}

TEST(PartitionerTest, SingleTaskShortCircuits) {
  std::uint64_t rr = 0;
  EXPECT_EQ(Partitioner::Shuffle().TargetTask(KT("x"), 1, &rr), 0);
  EXPECT_EQ(Partitioner::Fields(KeyField(0)).TargetTask(KT("x"), 1, &rr), 0);
  EXPECT_EQ(rr, 0u);  // round-robin state untouched
}

TEST(PartitionerTest, TargetsAlwaysInRange) {
  const Partitioner p = Partitioner::Fields(KeyField(0));
  std::uint64_t rr = 0;
  for (int parallelism : {2, 3, 5, 16}) {
    for (int i = 0; i < 100; ++i) {
      const int t = p.TargetTask(
          KT(std::string("key").append(std::to_string(i))), parallelism, &rr);
      EXPECT_GE(t, 0);
      EXPECT_LT(t, parallelism);
    }
  }
}

}  // namespace
}  // namespace spear

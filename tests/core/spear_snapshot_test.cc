#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/spear_window_manager.h"
#include "storage/secondary_storage.h"
#include "tuple/field_extractor.h"

namespace spear {
namespace {

Tuple NumTuple(std::int64_t t, double v) {
  return Tuple(t, std::vector<Value>{Value(v)});
}

SpearOperatorConfig MeanConfig() {
  SpearOperatorConfig config;
  config.window = WindowSpec::TumblingTime(100);
  config.aggregate = AggregateSpec::Mean();
  config.budget = Budget::Tuples(32);
  config.accuracy = AccuracySpec{0.20, 0.95};
  return config;
}

// Snapshot mid-window, restore into a fresh manager, feed both the same
// remaining tuples: the recovered manager must produce the same value
// (incremental accumulators survive the round trip exactly) and flag the
// window as recovered.
TEST(SpearSnapshotTest, RoundTripContinuesExactlyForIncrementalMean) {
  const SpearOperatorConfig config = MeanConfig();
  SpearWindowManager primary(config, NumericField(0));
  for (int i = 0; i < 50; ++i) {
    primary.OnTuple(i, NumTuple(i, static_cast<double>((i * 37) % 101)));
  }
  Result<std::string> payload = primary.SnapshotState();
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();

  SpearWindowManager restored(config, NumericField(0));
  ASSERT_TRUE(restored.RestoreState(*payload).ok());

  for (int i = 50; i < 100; ++i) {
    const Tuple t = NumTuple(i, static_cast<double>((i * 37) % 101));
    primary.OnTuple(i, t);
    restored.OnTuple(i, t);
  }
  auto primary_results = primary.OnWatermark(200);
  auto restored_results = restored.OnWatermark(200);
  ASSERT_TRUE(primary_results.ok());
  ASSERT_TRUE(restored_results.ok());
  ASSERT_EQ(primary_results->size(), 1u);
  ASSERT_EQ(restored_results->size(), 1u);

  const WindowResult& clean = (*primary_results)[0];
  const WindowResult& recovered = (*restored_results)[0];
  EXPECT_FALSE(clean.recovered);
  EXPECT_TRUE(recovered.recovered);
  // No replay gap: full state, exact same mean.
  EXPECT_DOUBLE_EQ(recovered.scalar, clean.scalar);
  EXPECT_EQ(recovered.window_size, clean.window_size);
  EXPECT_EQ(restored.decision_stats().windows_recovered, 1u);
  EXPECT_EQ(primary.decision_stats().windows_recovered, 0u);
}

// Grouped state survives the round trip: the restored manager still knows
// every group and answers each one. A recovered grouped window cannot be
// exact (the raw buffer did not survive), so it is a flagged estimate from
// the restored stratified reservoirs — group *membership* is preserved
// bit for bit, group *values* are sample estimates in the data's range.
TEST(SpearSnapshotTest, RoundTripPreservesGroupedState) {
  SpearOperatorConfig config = MeanConfig();
  config.known_num_groups = 4;
  auto key = [](const Tuple& t) {
    return std::to_string(t.event_time() % 4);
  };

  SpearWindowManager primary(config, NumericField(0), key);
  for (int i = 0; i < 80; ++i) {
    primary.OnTuple(i, NumTuple(i, static_cast<double>(i % 13)));
  }
  Result<std::string> payload = primary.SnapshotState();
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();

  SpearWindowManager restored(config, NumericField(0), key);
  ASSERT_TRUE(restored.RestoreState(*payload).ok());
  for (int i = 80; i < 100; ++i) {
    const Tuple t = NumTuple(i, static_cast<double>(i % 13));
    primary.OnTuple(i, t);
    restored.OnTuple(i, t);
  }
  auto primary_results = primary.OnWatermark(200);
  auto restored_results = restored.OnWatermark(200);
  ASSERT_TRUE(primary_results.ok());
  ASSERT_TRUE(restored_results.ok()) << restored_results.status().ToString();
  ASSERT_EQ(restored_results->size(), 1u);
  const WindowResult& clean = (*primary_results)[0];
  const WindowResult& recovered = (*restored_results)[0];
  ASSERT_TRUE(recovered.is_grouped);
  ASSERT_EQ(recovered.groups.size(), clean.groups.size());
  for (std::size_t g = 0; g < clean.groups.size(); ++g) {
    EXPECT_EQ(recovered.groups[g].first, clean.groups[g].first);
    // Values 0..12: any estimate from restored per-group reservoirs lands
    // in-range; a lost or zeroed sampler would not.
    EXPECT_GE(recovered.groups[g].second, 0.0);
    EXPECT_LE(recovered.groups[g].second, 12.0);
  }
  EXPECT_TRUE(recovered.recovered);
  EXPECT_TRUE(recovered.approximate);
  EXPECT_FALSE(clean.recovered);
  EXPECT_EQ(restored.decision_stats().windows_recovered, 1u);
}

// The snapshot is O(b) in the budget, not O(|S_w|) in the window: feeding
// 50x more tuples must not grow the payload materially.
TEST(SpearSnapshotTest, SnapshotSizeIsBudgetBoundNotWindowBound) {
  SpearOperatorConfig config = MeanConfig();
  config.window = WindowSpec::TumblingTime(100000);
  config.aggregate = AggregateSpec::Median();  // holistic: keeps a sample

  SpearWindowManager small(config, NumericField(0));
  for (int i = 0; i < 200; ++i) small.OnTuple(i, NumTuple(i, i));
  SpearWindowManager large(config, NumericField(0));
  for (int i = 0; i < 10000; ++i) large.OnTuple(i, NumTuple(i, i));

  Result<std::string> small_payload = small.SnapshotState();
  Result<std::string> large_payload = large.SnapshotState();
  ASSERT_TRUE(small_payload.ok());
  ASSERT_TRUE(large_payload.ok());
  // Identical open-window structure and a full reservoir on both sides:
  // the serialized states are the same size despite the 50x window.
  EXPECT_EQ(large_payload->size(), small_payload->size());
}

// Replay-gap loss inflates ε̂_w AF-Stream style: the recovered window is
// flagged and its error estimate charges lost/(count+lost).
TEST(SpearSnapshotTest, NoteRecoveryLossInflatesErrorEstimate) {
  const SpearOperatorConfig config = MeanConfig();
  SpearWindowManager manager(config, NumericField(0));
  for (int i = 0; i < 60; ++i) {
    manager.OnTuple(i, NumTuple(i, static_cast<double>(i % 7)));
  }
  manager.NoteRecoveryLoss(40);
  auto results = manager.OnWatermark(200);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 1u);
  const WindowResult& result = (*results)[0];
  EXPECT_TRUE(result.recovered);
  EXPECT_TRUE(result.approximate);  // a lossy window can never be exact
  EXPECT_EQ(result.window_size, 100u);  // 60 seen + 40 lost
  // ε̂ includes the loss ratio 40/100; with ε = 0.20 the window cannot
  // meet the spec, so it is emitted degraded.
  EXPECT_GE(result.estimated_error, 0.40);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(manager.decision_stats().windows_recovered, 1u);
}

// A loss reported while no window is open is charged to the next window
// (the tuples belonged to the stream, not to nothing).
TEST(SpearSnapshotTest, PendingLossChargesNextWindow) {
  const SpearOperatorConfig config = MeanConfig();
  SpearWindowManager manager(config, NumericField(0));
  manager.NoteRecoveryLoss(10);
  for (int i = 0; i < 90; ++i) {
    manager.OnTuple(i, NumTuple(i, 1.0));
  }
  auto results = manager.OnWatermark(200);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_TRUE((*results)[0].recovered);
  EXPECT_EQ((*results)[0].window_size, 100u);
}

// Small losses keep the accuracy guarantee: ε̂ + ρ <= ε still expedites,
// with the inflation visible in the reported estimate.
TEST(SpearSnapshotTest, SmallLossStillMeetsAccuracySpec) {
  SpearOperatorConfig config = MeanConfig();
  config.accuracy = AccuracySpec{0.50, 0.95};
  SpearWindowManager manager(config, NumericField(0));
  for (int i = 0; i < 99; ++i) {
    manager.OnTuple(i, NumTuple(i, static_cast<double>(i % 5) + 10.0));
  }
  manager.NoteRecoveryLoss(1);  // ρ = 0.01
  auto results = manager.OnWatermark(200);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  const WindowResult& result = (*results)[0];
  EXPECT_TRUE(result.recovered);
  EXPECT_FALSE(result.degraded);
  EXPECT_GE(result.estimated_error, 0.01);
  EXPECT_LE(result.estimated_error, 0.50);
}

TEST(SpearSnapshotTest, RestoreRejectsGarbageAndWrongMode) {
  const SpearOperatorConfig config = MeanConfig();
  SpearWindowManager manager(config, NumericField(0));
  EXPECT_FALSE(manager.RestoreState("").ok());
  EXPECT_FALSE(manager.RestoreState("not a snapshot payload").ok());

  // A scalar manager must refuse a grouped manager's payload.
  SpearOperatorConfig grouped_config = MeanConfig();
  SpearWindowManager grouped(grouped_config, NumericField(0),
                             [](const Tuple&) { return std::string("g"); });
  grouped.OnTuple(0, NumTuple(0, 1.0));
  Result<std::string> grouped_payload = grouped.SnapshotState();
  ASSERT_TRUE(grouped_payload.ok());
  EXPECT_FALSE(manager.RestoreState(*grouped_payload).ok());
}

// Restore discards the snapshot's spill run and starts a fresh one, so
// the replayed tuples that spill again are stored once, not on top of the
// pre-crash run: S ends up holding as many tuples as before the crash.
TEST(SpearSnapshotTest, RestoreReadoptsSpillManifestWithoutDuplication) {
  SecondaryStorage storage;
  SpearOperatorConfig config = MeanConfig();
  config.aggregate = AggregateSpec::Median();  // holistic: buffer matters
  config.accuracy = AccuracySpec{0.0001, 0.95};  // wants the exact path
  config.buffer_memory_capacity = 16;

  SpearWindowManager primary(config, NumericField(0), nullptr, &storage,
                             "snap-test");
  for (int i = 0; i < 64; ++i) primary.OnTuple(i, NumTuple(i, i));
  const std::size_t spilled_before = storage.TotalTuples();
  ASSERT_GT(spilled_before, 0u);

  Result<std::string> payload = primary.SnapshotState();
  ASSERT_TRUE(payload.ok());
  SpearWindowManager restored(config, NumericField(0), nullptr, &storage,
                              "snap-test");
  ASSERT_TRUE(restored.RestoreState(*payload).ok());
  // Replay the same tuples: the ones that spill again go to the fresh
  // run, not on top of the discarded one.
  for (int i = 0; i < 64; ++i) restored.OnTuple(i, NumTuple(i, i));
  EXPECT_EQ(storage.TotalTuples(), spilled_before);

  auto results = restored.OnWatermark(200);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 1u);
  // The recovered window cannot prove the exact fallback is complete, so
  // it is emitted as a flagged approximation.
  EXPECT_TRUE((*results)[0].recovered);
  EXPECT_TRUE((*results)[0].approximate);
}

// Keys in a grouped snapshot are strings; restore interns them afresh and
// replayed tuples must land on the restored groups' slots (same id), not
// on duplicates. Counts make that exact: the recovered window answers
// from its tracker, so every group's count must equal the clean run's.
// The payload keeps its format and version byte (2).
TEST(SpearSnapshotTest, GroupedKeysReinternAfterRestoreAndReplay) {
  SpearOperatorConfig config = MeanConfig();
  config.aggregate = AggregateSpec::Count();
  config.budget = Budget::Tuples(64);
  const auto key_of = [](int i) {
    return std::string("k").append(std::to_string((i * 7) % 11));
  };
  const auto tuple = [&](int i) {
    return Tuple(i, std::vector<Value>{Value(key_of(i)), Value(1.0)});
  };

  SpearWindowManager primary(config, NumericField(1), KeyField(0));
  for (int i = 0; i < 60; ++i) primary.OnTuple(i, tuple(i));
  Result<std::string> payload = primary.SnapshotState();
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  ASSERT_FALSE(payload->empty());
  EXPECT_EQ(static_cast<std::uint8_t>((*payload)[0]), 2u);

  SpearWindowManager restored(config, NumericField(1), KeyField(0));
  ASSERT_TRUE(restored.RestoreState(*payload).ok());
  // The restored window's groups hold their ids; nothing is buffered yet.
  EXPECT_EQ(restored.key_dictionary().live(), 11u);
  for (int i = 60; i < 150; ++i) {
    primary.OnTuple(i, tuple(i));
    restored.OnTuple(i, tuple(i));
  }
  EXPECT_EQ(restored.key_dictionary().live(),
            primary.key_dictionary().live());

  auto clean = primary.OnWatermark(200);
  auto recovered = restored.OnWatermark(200);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(clean->size(), 2u);
  ASSERT_EQ(recovered->size(), 2u);
  EXPECT_TRUE((*recovered)[0].recovered);
  EXPECT_FALSE((*recovered)[1].recovered);  // opened after the restore
  for (std::size_t w = 0; w < 2; ++w) {
    const WindowResult& want = (*clean)[w];
    const WindowResult& got = (*recovered)[w];
    EXPECT_EQ(got.window_size, want.window_size);
    ASSERT_EQ(got.groups.size(), want.groups.size()) << "window " << w;
    for (std::size_t g = 0; g < want.groups.size(); ++g) {
      EXPECT_EQ(got.groups[g].first, want.groups[g].first);
      EXPECT_DOUBLE_EQ(got.groups[g].second, want.groups[g].second)
          << want.groups[g].first << " in window " << w;
    }
  }
  EXPECT_EQ(restored.key_dictionary().live(), 0u);
  EXPECT_EQ(primary.key_dictionary().live(), 0u);

  // A second round trip through the restored manager decodes too.
  restored.OnTuple(250, tuple(250));
  Result<std::string> again = restored.SnapshotState();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(static_cast<std::uint8_t>((*again)[0]), 2u);
  SpearWindowManager third(config, NumericField(1), KeyField(0));
  EXPECT_TRUE(third.RestoreState(*again).ok());
  EXPECT_EQ(third.key_dictionary().live(), 1u);
}

}  // namespace
}  // namespace spear

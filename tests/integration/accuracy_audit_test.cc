#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "core/spear_topology_builder.h"
#include "core/spear_window_manager.h"
#include "runtime/executor.h"
#include "runtime/spouts.h"
#include "runtime/windowed_bolt.h"
#include "sketch/count_min.h"

/// \file accuracy_audit_test.cc
/// Statistical audit of the (ε, α) guarantee: over hundreds of seeded
/// runs, the fraction of *expedited* windows whose TRUE error (recomputed
/// offline from the raw stream) stays within ε must be at least α, up to
/// binomial sampling slack. The audit runs per aggregate (sum / mean /
/// quantile / count-min, and grouped windows with an unknown group count),
/// and again under load shedding and under crash-recovery loss — the paths
/// that widen ε̂_w. Guard tests break the loss accounting on purpose
/// (IgnoreLossAccountingForTesting) and assert the audit DETECTS it: a
/// test suite that cannot fail proves nothing.

namespace spear {
namespace {

constexpr double kEpsilon = 0.10;
constexpr double kAlpha = 0.95;
constexpr int kSeeds = 200;

/// Lower confidence bound for an empirical coverage estimate: α minus
/// three binomial standard errors. A correct implementation dips below
/// this with probability ~1e-3; a broken one (coverage << α) lands far
/// under it.
double CoverageBound(double alpha, std::uint64_t n) {
  EXPECT_GT(n, 0u);
  return alpha - 3.0 * std::sqrt(alpha * (1.0 - alpha) /
                                 static_cast<double>(std::max<std::uint64_t>(
                                     n, 1)));
}

struct AuditTally {
  std::uint64_t expedited = 0;
  std::uint64_t within_epsilon = 0;
  std::uint64_t windows = 0;

  double coverage() const {
    return expedited == 0
               ? 0.0
               : static_cast<double>(within_epsilon) /
                     static_cast<double>(expedited);
  }
};

Tuple ScalarTuple(Timestamp t, double v) { return Tuple(t, {Value(v)}); }

/// One window's worth of positive values (relative error is well-defined
/// and scale-free), uniform in [50, 150).
std::vector<double> WindowValues(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(n);
  for (int i = 0; i < n; ++i) values.push_back(50.0 + rng.NextDouble() * 100.0);
  return values;
}

double TrueAggregate(const AggregateSpec& spec,
                     const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  switch (spec.kind) {
    case AggregateKind::kSum:
      return sum;
    case AggregateKind::kMean:
      return sum / static_cast<double>(values.size());
    case AggregateKind::kCount:
      return static_cast<double>(values.size());
    default:
      ADD_FAILURE() << "unsupported aggregate in TrueAggregate";
      return 0.0;
  }
}

SpearOperatorConfig AuditConfig(const AggregateSpec& spec,
                                std::size_t budget, std::uint64_t seed) {
  SpearOperatorConfig config;
  config.window = WindowSpec::TumblingTime(1000);
  config.aggregate = spec;
  config.accuracy = AccuracySpec{kEpsilon, kAlpha};
  config.budget = Budget::Tuples(budget);
  config.incremental_optimization = false;  // exercise the sampled path
  config.seed = seed;
  return config;
}

/// Audits one closed window: counts it, and if it was expedited (genuine
/// estimate, no degradation) scores the TRUE relative error against ε.
void ScoreScalarWindow(const WindowResult& result, double truth,
                       AuditTally* tally) {
  ++tally->windows;
  if (!result.approximate || result.degraded) return;
  ++tally->expedited;
  const double rel_err = std::abs(result.scalar - truth) / std::abs(truth);
  if (rel_err <= kEpsilon) ++tally->within_epsilon;
}

// ---- plain expedited path: sum / mean ------------------------------------

void RunScalarAudit(const AggregateSpec& spec, AuditTally* tally) {
  const int n = 2000;
  const std::size_t budget = 400;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    const auto values = WindowValues(seed, n);
    SpearWindowManager manager(AuditConfig(spec, budget, seed),
                               NumericField(0));
    for (int i = 0; i < n; ++i) {
      manager.OnTuple(i % 1000, ScalarTuple(i % 1000, values[i]));
    }
    auto results = manager.OnWatermark(1000);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_EQ(results->size(), 1u);
    ScoreScalarWindow((*results)[0], TrueAggregate(spec, values), tally);
  }
}

TEST(AccuracyAuditTest, SumMeetsEpsilonAlphaOverSeededRuns) {
  AuditTally tally;
  RunScalarAudit(AggregateSpec::Sum(), &tally);
  ASSERT_GE(tally.expedited, static_cast<std::uint64_t>(kSeeds) / 2)
      << "audit has no power: too few expedited windows";
  EXPECT_GE(tally.coverage(), CoverageBound(kAlpha, tally.expedited))
      << tally.within_epsilon << "/" << tally.expedited << " within ε";
}

TEST(AccuracyAuditTest, MeanMeetsEpsilonAlphaOverSeededRuns) {
  AuditTally tally;
  RunScalarAudit(AggregateSpec::Mean(), &tally);
  ASSERT_GE(tally.expedited, static_cast<std::uint64_t>(kSeeds) / 2);
  EXPECT_GE(tally.coverage(), CoverageBound(kAlpha, tally.expedited))
      << tally.within_epsilon << "/" << tally.expedited << " within ε";
}

// ---- quantile: rank-error audit ------------------------------------------

TEST(AccuracyAuditTest, MedianMeetsRankEpsilonOverSeededRuns) {
  const int n = 2000;
  const std::size_t budget = 300;  // > the ~185 the rank bound needs
  AuditTally tally;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    auto values = WindowValues(seed * 31 + 7, n);
    SpearWindowManager manager(
        AuditConfig(AggregateSpec::Median(), budget, seed), NumericField(0));
    for (int i = 0; i < n; ++i) {
      manager.OnTuple(i % 1000, ScalarTuple(i % 1000, values[i]));
    }
    auto results = manager.OnWatermark(1000);
    ASSERT_TRUE(results.ok());
    ASSERT_EQ(results->size(), 1u);
    const WindowResult& r = (*results)[0];
    ++tally.windows;
    if (!r.approximate || r.degraded) continue;
    ++tally.expedited;
    // Quantile accuracy is rank error: the estimate's rank interval in
    // the true window must intersect [φ - ε, φ + ε].
    std::sort(values.begin(), values.end());
    const auto lo = std::lower_bound(values.begin(), values.end(), r.scalar);
    const auto hi = std::upper_bound(values.begin(), values.end(), r.scalar);
    const double rank_lo =
        static_cast<double>(lo - values.begin()) / values.size();
    const double rank_hi =
        static_cast<double>(hi - values.begin()) / values.size();
    if (rank_hi >= 0.5 - kEpsilon && rank_lo <= 0.5 + kEpsilon) {
      ++tally.within_epsilon;
    }
  }
  ASSERT_GE(tally.expedited, static_cast<std::uint64_t>(kSeeds) / 2);
  EXPECT_GE(tally.coverage(), CoverageBound(kAlpha, tally.expedited))
      << tally.within_epsilon << "/" << tally.expedited << " within rank ε";
}

// ---- count-min: additive (ε, δ) audit ------------------------------------

TEST(AccuracyAuditTest, CountMinMeetsAdditiveEpsilonDeltaOverSeededRuns) {
  const double cm_epsilon = 0.01;
  const double cm_delta = 0.05;
  std::uint64_t queries = 0;
  std::uint64_t within = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    auto sketch = CountMinSketch::Make(cm_epsilon, cm_delta, seed);
    ASSERT_TRUE(sketch.ok());
    Rng rng(seed * 17 + 3);
    std::map<std::string, double> truth;
    double l1 = 0.0;
    for (int i = 0; i < 3000; ++i) {
      // Skewed key popularity, the regime count-min is built for.
      const int k = static_cast<int>(std::pow(rng.NextDouble(), 2.0) * 50);
      const std::string key = std::string("k").append(std::to_string(k));
      sketch->Update(key);
      truth[key] += 1.0;
      l1 += 1.0;
    }
    for (const auto& [key, count] : truth) {
      ++queries;
      const double est = sketch->Estimate(key);
      EXPECT_GE(est, count - 1e-9) << "count-min must never underestimate";
      if (est - count <= cm_epsilon * l1 + 1e-9) ++within;
    }
  }
  const double coverage = static_cast<double>(within) / queries;
  EXPECT_GE(coverage, CoverageBound(1.0 - cm_delta, queries))
      << within << "/" << queries << " within εL1";
}

// ---- under load shedding --------------------------------------------------

/// Sheds every `shed_every`-th tuple at admission (deterministic, value-
/// independent — the uniform-drop regime the ε̂_w shed inflation models).
void RunShedAudit(const AggregateSpec& spec, int shed_every,
                  bool break_accounting, AuditTally* tally) {
  const int n = 2000;
  const std::size_t budget = 600;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    const auto values = WindowValues(seed * 13 + 1, n);
    SpearWindowManager manager(AuditConfig(spec, budget, seed),
                               NumericField(0));
    if (break_accounting) manager.IgnoreLossAccountingForTesting();
    for (int i = 0; i < n; ++i) {
      const std::int64_t coord = i % 1000;
      if (i % shed_every == 0) {
        manager.OnTupleShed(coord);
      } else {
        manager.OnTuple(coord, ScalarTuple(coord, values[i]));
      }
    }
    auto results = manager.OnWatermark(1000);
    ASSERT_TRUE(results.ok());
    ASSERT_EQ(results->size(), 1u);
    // Truth covers the WHOLE window, shed tuples included: the guarantee
    // the user sees is about the stream, not the surviving subset.
    ScoreScalarWindow((*results)[0], TrueAggregate(spec, values), tally);
  }
}

TEST(AccuracyAuditTest, SumUnderSheddingMeetsEpsilonAlpha) {
  AuditTally tally;
  RunShedAudit(AggregateSpec::Sum(), /*shed_every=*/25,
               /*break_accounting=*/false, &tally);
  ASSERT_GE(tally.expedited, static_cast<std::uint64_t>(kSeeds) / 2)
      << "shed inflation pushed every window to the exact path";
  EXPECT_GE(tally.coverage(), CoverageBound(kAlpha, tally.expedited))
      << tally.within_epsilon << "/" << tally.expedited << " within ε";
}

TEST(AccuracyAuditTest, MeanUnderSheddingMeetsEpsilonAlpha) {
  AuditTally tally;
  RunShedAudit(AggregateSpec::Mean(), /*shed_every=*/25,
               /*break_accounting=*/false, &tally);
  ASSERT_GE(tally.expedited, static_cast<std::uint64_t>(kSeeds) / 2);
  EXPECT_GE(tally.coverage(), CoverageBound(kAlpha, tally.expedited));
}

// The guard: with the loss accounting disabled, heavy shedding makes Sum
// estimates stand for the admitted subset only (~half the stream), so
// expedited windows overshoot ε wildly — and this audit MUST see it.
// If this test ever fails, the audit has lost its power to detect broken
// ε̂_w accounting.
TEST(AccuracyAuditTest, GuardBrokenLossAccountingIsDetected) {
  AuditTally tally;
  RunShedAudit(AggregateSpec::Sum(), /*shed_every=*/2,
               /*break_accounting=*/true, &tally);
  // Without inflation the windows still expedite (sampling ε̂ is small)...
  ASSERT_GE(tally.expedited, static_cast<std::uint64_t>(kSeeds) / 2)
      << "guard lost its power: broken accounting no longer expedites";
  // ...but the true error is ~50% (the unaccounted shed mass), so the
  // coverage the honest audits require collapses.
  EXPECT_LT(tally.coverage(), CoverageBound(kAlpha, tally.expedited))
      << "audit failed to detect broken loss accounting";
  EXPECT_LT(tally.coverage(), 0.5);
}

// ---- grouped windows, group count unknown (DEBS-like sparse routes) ------

/// One window of a DEBS-like ride stream: ~1 K routes drawn from a pool of
/// 1500, most seen once or twice, with a route-determined fare and ~15 %
/// ride noise, plus four dense routes (a fifth of the rides) with a wide
/// fare spread — the sparse regime of the paper's DEBS query, where
/// congress allocation gives most routes one sampled ride.
std::vector<std::pair<std::string, double>> SparseRoutesWindow(
    std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<std::pair<std::string, double>> rides;
  rides.reserve(n);
  for (int i = 0; i < n; ++i) {
    if (rng.NextDouble() < 0.2) {
      const std::uint64_t d = rng.NextBounded(4);
      rides.emplace_back(std::string("dense").append(std::to_string(d)),
                         (40.0 + 10.0 * d) * (0.7 + 0.6 * rng.NextDouble()));
    } else {
      const std::uint64_t route = rng.NextBounded(1500);
      SplitMix64 route_fare(route * 0x9E37u + seed);
      const double unit =
          static_cast<double>(route_fare.Next() >> 11) * 0x1.0p-53;
      const double fare = 5.0 + 25.0 * unit;
      rides.emplace_back(std::string("r").append(std::to_string(route)),
                         fare * (1.0 + 0.15 * rng.NextGaussian()));
    }
  }
  return rides;
}

/// Runs one grouped window per seed through a grouped-unknown manager
/// (congress allocation, L1 norm) and scores every expedited window by its
/// TRUE L1 error: the mean over all of the window's routes — shed rides
/// included — of each route's relative error; a route missing from the
/// result counts as 100 % wrong.
void RunGroupedAudit(const AggregateSpec& spec, int shed_every,
                     bool break_accounting, AuditTally* tally) {
  const int n = 2000;
  const std::size_t budget = 1500;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    const auto rides = SparseRoutesWindow(seed * 19 + 3, n);
    SpearOperatorConfig config = AuditConfig(spec, budget, seed);
    config.group_error_norm = GroupErrorNorm::kL1;
    SpearWindowManager manager(config, NumericField(1), KeyField(0));
    if (break_accounting) manager.IgnoreLossAccountingForTesting();
    std::map<std::string, std::vector<double>> truth;
    for (int i = 0; i < n; ++i) {
      const std::int64_t coord = i % 1000;
      const auto& [route, fare] = rides[i];
      truth[route].push_back(fare);
      if (shed_every > 0 && i % shed_every == 0) {
        manager.OnTupleShed(coord);
      } else {
        manager.OnTuple(coord, Tuple(coord, {Value(route), Value(fare)}));
      }
    }
    auto results = manager.OnWatermark(1000);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_EQ(results->size(), 1u);
    const WindowResult& r = (*results)[0];
    ++tally->windows;
    if (!r.approximate || r.degraded) continue;
    ++tally->expedited;
    const std::map<std::string, double> estimates(r.groups.begin(),
                                                  r.groups.end());
    double l1 = 0.0;
    for (const auto& [route, fares] : truth) {
      const auto it = estimates.find(route);
      const double exact = TrueAggregate(spec, fares);
      l1 += it == estimates.end()
                ? 1.0
                : std::abs(it->second - exact) / std::abs(exact);
    }
    l1 /= static_cast<double>(truth.size());
    if (l1 <= kEpsilon) ++tally->within_epsilon;
  }
}

TEST(AccuracyAuditTest, GroupedSparseMeanMeetsEpsilonAlpha) {
  AuditTally tally;
  RunGroupedAudit(AggregateSpec::Mean(), /*shed_every=*/0,
                  /*break_accounting=*/false, &tally);
  ASSERT_GE(tally.expedited, static_cast<std::uint64_t>(kSeeds) / 2)
      << "audit has no power: too few expedited grouped windows";
  EXPECT_GE(tally.coverage(), CoverageBound(kAlpha, tally.expedited))
      << tally.within_epsilon << "/" << tally.expedited << " within ε";
}

TEST(AccuracyAuditTest, GroupedSparseSumMeetsEpsilonAlpha) {
  AuditTally tally;
  RunGroupedAudit(AggregateSpec::Sum(), /*shed_every=*/0,
                  /*break_accounting=*/false, &tally);
  ASSERT_GE(tally.expedited, static_cast<std::uint64_t>(kSeeds) / 2);
  EXPECT_GE(tally.coverage(), CoverageBound(kAlpha, tally.expedited))
      << tally.within_epsilon << "/" << tally.expedited << " within ε";
}

TEST(AccuracyAuditTest, GroupedSparseUnderSheddingMeetsEpsilonAlpha) {
  for (const AggregateSpec& spec :
       {AggregateSpec::Sum(), AggregateSpec::Mean()}) {
    AuditTally tally;
    RunGroupedAudit(spec, /*shed_every=*/25, /*break_accounting=*/false,
                    &tally);
    ASSERT_GE(tally.expedited, static_cast<std::uint64_t>(kSeeds) / 2)
        << spec.ToString() << ": shed inflation pushed every window out";
    EXPECT_GE(tally.coverage(), CoverageBound(kAlpha, tally.expedited))
        << spec.ToString() << ": " << tally.within_epsilon << "/"
        << tally.expedited << " within ε";
  }
}

// The grouped guard: shed rides belong to no tracked route, so a grouped
// Sum stands for the admitted half only; with the loss accounting off,
// ε̂_w no longer carries the shed ratio, the windows still expedite, and
// the audit must see the true L1 error collapse the coverage.
TEST(AccuracyAuditTest, GroupedGuardBrokenLossAccountingIsDetected) {
  AuditTally tally;
  RunGroupedAudit(AggregateSpec::Sum(), /*shed_every=*/2,
                  /*break_accounting=*/true, &tally);
  ASSERT_GE(tally.expedited, static_cast<std::uint64_t>(kSeeds) / 2)
      << "guard lost its power: broken accounting no longer expedites";
  EXPECT_LT(tally.coverage(), CoverageBound(kAlpha, tally.expedited))
      << "audit failed to detect broken grouped loss accounting";
  EXPECT_LT(tally.coverage(), 0.5);
}

// ---- under crash-recovery loss -------------------------------------------

// Snapshot at 60%, crash, restore, replay most of the suffix; the
// unreplayable remainder is charged via NoteRecoveryLoss. Expedited
// windows out of this cycle must still meet ε against the FULL stream.
TEST(AccuracyAuditTest, MeanUnderRecoveryLossMeetsEpsilonAlpha) {
  const int n = 2000;
  const int snapshot_at = static_cast<int>(n * 0.6);
  const int lost = n / 25;  // 4% of the window never replays
  AuditTally tally;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    const auto values = WindowValues(seed * 7 + 5, n);
    SpearWindowManager manager(
        AuditConfig(AggregateSpec::Mean(), 600, seed), NumericField(0));
    for (int i = 0; i < snapshot_at; ++i) {
      manager.OnTuple(i % 1000, ScalarTuple(i % 1000, values[i]));
    }
    auto snapshot = manager.SnapshotState();
    ASSERT_TRUE(snapshot.ok());
    // Consume the suffix, then crash: state past the snapshot is gone.
    for (int i = snapshot_at; i < n; ++i) {
      manager.OnTuple(i % 1000, ScalarTuple(i % 1000, values[i]));
    }
    SpearWindowManager restored(
        AuditConfig(AggregateSpec::Mean(), 600, seed), NumericField(0));
    ASSERT_TRUE(restored.RestoreState(*snapshot).ok());
    // Replay what the bounded log retained; charge the rest as loss.
    for (int i = snapshot_at; i < n - lost; ++i) {
      restored.OnTuple(i % 1000, ScalarTuple(i % 1000, values[i]));
    }
    restored.NoteRecoveryLoss(lost);
    auto results = restored.OnWatermark(1000);
    ASSERT_TRUE(results.ok());
    ASSERT_EQ(results->size(), 1u);
    EXPECT_TRUE((*results)[0].recovered);
    ScoreScalarWindow((*results)[0],
                      TrueAggregate(AggregateSpec::Mean(), values), &tally);
  }
  ASSERT_GE(tally.expedited, static_cast<std::uint64_t>(kSeeds) / 2)
      << "recovery-loss inflation pushed every window to the exact path";
  EXPECT_GE(tally.coverage(), CoverageBound(kAlpha, tally.expedited))
      << tally.within_epsilon << "/" << tally.expedited << " within ε";
}

// ---- executor-level crash chaos (end-to-end, fewer seeds) -----------------

TEST(AccuracyAuditTest, CrashChaosEndToEndMeetsEpsilonAlpha) {
  const int kChaosSeeds = 20;
  const int n = 3000;
  AuditTally tally;
  for (int seed = 1; seed <= kChaosSeeds; ++seed) {
    Rng rng(seed * 101 + 11);
    std::vector<Tuple> stream;
    std::map<std::int64_t, std::vector<double>> truth;  // window start -> S_w
    stream.reserve(n);
    for (int i = 0; i < n; ++i) {
      const double v = 50.0 + rng.NextDouble() * 100.0;
      stream.emplace_back(i, std::vector<Value>{Value(v)});
      truth[(i / 100) * 100].push_back(v);
    }

    FaultPlan plan;
    plan.seed = seed;
    FaultRule crash;
    crash.site = FaultSite::kWorkerCrash;
    crash.every_nth = 500 + seed * 37 % 211;
    crash.max_fires = 2;
    plan.Add(crash);
    FaultInjector injector(plan);
    CheckpointConfig ckpt;
    ckpt.enabled = true;
    ckpt.interval = 100;

    SpearTopologyBuilder builder;
    builder.Source(std::make_shared<VectorSpout>(stream),
                   /*watermark_interval=*/50)
        .TumblingWindowOf(100)
        .Mean(NumericField(0))
        .SetBudget(Budget::Tuples(48))
        .Error(kEpsilon, kAlpha)
        .DisableIncrementalOptimization()
        .InjectFaults(&injector)
        .Checkpoint(ckpt);
    auto topology = builder.Build();
    ASSERT_TRUE(topology.ok()) << topology.status().ToString();
    auto report = Executor(std::move(*topology)).Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    for (const Tuple& t : report->output) {
      const std::int64_t start =
          t.field(ResultTupleLayout::kStart).AsInt64();
      const auto it = truth.find(start);
      ASSERT_NE(it, truth.end()) << "window " << start;
      double sum = 0.0;
      for (double v : it->second) sum += v;
      const double exact_mean = sum / it->second.size();
      ++tally.windows;
      const bool approx =
          t.field(ResultTupleLayout::kScalarApprox).AsInt64() == 1;
      const bool degraded =
          t.field(ResultTupleLayout::kScalarDegraded).AsInt64() == 1;
      if (!approx || degraded) continue;
      ++tally.expedited;
      const double est = t.field(ResultTupleLayout::kScalarValue).AsDouble();
      if (std::abs(est - exact_mean) / exact_mean <= kEpsilon) {
        ++tally.within_epsilon;
      }
    }
  }
  ASSERT_GE(tally.expedited, 30u) << "chaos audit has no power";
  EXPECT_GE(tally.coverage(), CoverageBound(kAlpha, tally.expedited))
      << tally.within_epsilon << "/" << tally.expedited << " within ε";
}

}  // namespace
}  // namespace spear

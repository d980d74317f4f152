#pragma once

#include <functional>
#include <vector>

#include "common/result.h"
#include "core/accuracy_spec.h"
#include "ops/aggregate.h"
#include "stats/congress.h"
#include "stats/error_metrics.h"
#include "stats/group_stats.h"
#include "stats/running_stats.h"
#include "stats/sample_size.h"

/// \file estimators.h
/// Accuracy estimation at watermark arrival (paper Sec. 4.2): given what
/// SPEAr accumulated inside the budget while the window was active, produce
/// an approximate result R̂_w and an error estimate ε̂_w, and decide whether
/// the window may be expedited (ε̂_w <= ε). All functions are pure — the
/// SpearWindowManager wires them into the execution workflow.

namespace spear {

/// Minimum sample size for the normal-approximation machinery to be
/// trusted (paper Sec. 4.2: "the confidence interval will be imprecise
/// with a very small sample on a skewed distribution"). Scalar estimates
/// from fewer elements are rejected outright unless the sample covers the
/// whole window.
inline constexpr std::uint64_t kMinSampleForNormalApprox = 30;

/// \brief Approximate scalar result + its error estimate.
struct ScalarEstimate {
  double estimate = 0.0;
  /// ε̂_w: relative error (mean-like) or rank error (quantile).
  double epsilon_hat = 0.0;
  /// ε̂_w <= ε: the window may be expedited.
  bool accepted = false;
};

/// \brief Estimates a mean-like scalar aggregate (count, sum, mean,
/// variance, stddev, min, max) from the budget's reservoir sample.
///
/// \param agg          the aggregate; must not be holistic (see
///                     EstimateScalarQuantile for percentiles)
/// \param sample       simple random sample of the window's values
/// \param window_stats full-window moments, tracked incrementally at tuple
///                     arrival (the "statistical estimates" the paper
///                     stores in b); supplies σ̂ and μ̂4 for the CI width
/// \param window_size  |S_w|
/// \param spec         the user's (ε, α)
///
/// min/max carry no CI theory under s.r.s.; they are estimated but never
/// accepted (ε̂ = +inf), so SPEAr falls back to exact processing — in
/// practice those run on the incremental path anyway.
Result<ScalarEstimate> EstimateScalar(const AggregateSpec& agg,
                                      const std::vector<double>& sample,
                                      const RunningStats& window_stats,
                                      std::uint64_t window_size,
                                      const AccuracySpec& spec);

/// \brief Estimates a phi-quantile from the reservoir sample, accepting
/// when the budget meets the required sample size (Manku et al. [48]
/// style bound, with finite-population correction). ε is interpreted as
/// *rank* error for quantiles, following the paper.
///
/// `sample` is taken by value: the estimator sorts it.
Result<ScalarEstimate> EstimateScalarQuantile(
    double phi, std::vector<double> sample, std::uint64_t window_size,
    const AccuracySpec& spec,
    QuantileBound bound = QuantileBound::kHoeffding);

/// \brief Achieved rank-error bound for a quantile estimated from n of N
/// elements at the given confidence (the inverse of the required-sample-
/// size formula). Exposed for tests and for the grouped estimator.
Result<double> AchievedQuantileError(std::uint64_t n, std::uint64_t window_size,
                                     double phi, double confidence,
                                     QuantileBound bound);

/// \brief Decision for a grouped window: aggregated error + the congress
/// sample allocation that the accept path materializes. Per-group vectors
/// are indexed by the tracker's slots (GroupStatsTracker::key_at gives a
/// slot's key).
struct GroupedEstimate {
  /// Aggregated ε̂_w over all groups (L1 by default).
  double epsilon_hat = 0.0;
  bool accepted = false;
  /// Allocated stratified-sample size n_g per slot (basic congress, or
  /// the caller's sizes for EstimateGroupedWithAllocations).
  std::vector<std::uint64_t> sample_sizes;
  /// Per-group error estimates e_g per slot.
  std::vector<double> group_errors;
};

/// \brief Estimates a grouped aggregate's accuracy from the per-group
/// frequencies and moments tracked in b (paper Sec. 4.1-4.2, Grouped).
///
/// Rejects outright (without allocating) when the tracker overflowed the
/// budget's group capacity. Otherwise allocates the stratified sample via
/// basic congress (the same sizes CongressAllocate gives, computed in one
/// pass over the slots), computes each group's error e_g under that
/// allocation, and aggregates with `norm`.
Result<GroupedEstimate> EstimateGrouped(
    const AggregateSpec& agg, const GroupStatsTracker& tracker,
    std::size_t budget, const AccuracySpec& spec,
    GroupErrorNorm norm = GroupErrorNorm::kL1,
    QuantileBound bound = QuantileBound::kHoeffding);

/// \brief Same decision, but under caller-provided per-slot sample sizes —
/// used when the group count is known at CQ submission and SPEAr already
/// holds per-group reservoirs of fixed capacity (paper Sec. 4.1: "when the
/// number of groups is defined by the user ... SPEAr is able to create a
/// stratified sample at tuple arrival"). `sample_sizes` must have one
/// entry per tracker slot.
Result<GroupedEstimate> EstimateGroupedWithAllocations(
    const AggregateSpec& agg, const GroupStatsTracker& tracker,
    std::vector<std::uint64_t> sample_sizes, const AccuracySpec& spec,
    GroupErrorNorm norm = GroupErrorNorm::kL1,
    QuantileBound bound = QuantileBound::kHoeffding);

/// \brief User-defined accuracy estimation for custom approximate stateful
/// operations (paper Sec. 4: "SPEAr offers an API for defining custom
/// approximate stateful operations. A user has to define an
/// accuracy-estimation function...").
using CustomScalarEstimator = std::function<Result<ScalarEstimate>(
    const std::vector<double>& sample, const RunningStats& window_stats,
    std::uint64_t window_size, const AccuracySpec& spec)>;

}  // namespace spear

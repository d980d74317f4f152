#include "core/estimators.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/confidence.h"
#include "stats/quantile.h"

namespace spear {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double Fpc(std::uint64_t n, std::uint64_t population) {
  if (population == 0 || n >= population) return 0.0;
  return std::sqrt(1.0 -
                   static_cast<double>(n) / static_cast<double>(population));
}

/// Relative CI half-width of a mean estimated from n of N values whose
/// (full-window) stddev is sigma and whose estimate is `estimate`.
double RelativeMeanError(double estimate, double sigma, std::uint64_t n,
                         std::uint64_t population, double z) {
  const double half = z * sigma / std::sqrt(static_cast<double>(n)) *
                      Fpc(n, population);
  if (half == 0.0) return 0.0;
  if (estimate == 0.0) return kInf;
  return half / std::fabs(estimate);
}

/// Relative CI half-width of a variance estimate: Var(s^2) ~ (mu4 - s^4)/n.
double RelativeVarianceError(double variance, double mu4, std::uint64_t n,
                             std::uint64_t population, double z) {
  if (variance == 0.0) return 0.0;  // constant data: sample is exact
  const double var_of_var =
      std::max(mu4 - variance * variance, 0.0) / static_cast<double>(n);
  const double half = z * std::sqrt(var_of_var) * Fpc(n, population);
  return half / variance;
}

}  // namespace

Result<ScalarEstimate> EstimateScalar(const AggregateSpec& agg,
                                      const std::vector<double>& sample,
                                      const RunningStats& window_stats,
                                      std::uint64_t window_size,
                                      const AccuracySpec& spec) {
  if (agg.IsHolistic()) {
    return Status::FailedPrecondition(
        "use EstimateScalarQuantile for holistic aggregates");
  }
  SPEAR_RETURN_NOT_OK(spec.Validate());
  if (sample.empty()) return Status::Invalid("empty sample");
  if (window_size < sample.size()) {
    return Status::Invalid("window smaller than sample");
  }
  SPEAR_ASSIGN_OR_RETURN(const double z, NormalDeviate(spec.confidence));

  RunningStats sample_stats;
  for (double v : sample) sample_stats.Update(v);
  const auto n = static_cast<std::uint64_t>(sample.size());
  const double sigma = window_stats.PopulationStdDev();

  // CLT validity guard: a partial sample this small cannot support the
  // normal approximation (count stays exact — it never uses the CI).
  const bool clt_invalid = n < kMinSampleForNormalApprox && n < window_size &&
                           agg.kind != AggregateKind::kCount;

  ScalarEstimate out;
  switch (agg.kind) {
    case AggregateKind::kCount:
      // The window size is tracked exactly at tuple arrival.
      out.estimate = static_cast<double>(window_size);
      out.epsilon_hat = 0.0;
      break;
    case AggregateKind::kMean:
      out.estimate = sample_stats.mean();
      out.epsilon_hat =
          RelativeMeanError(out.estimate, sigma, n, window_size, z);
      break;
    case AggregateKind::kSum:
      // N * sample mean; relative error equals the mean's relative error.
      out.estimate =
          static_cast<double>(window_size) * sample_stats.mean();
      out.epsilon_hat =
          RelativeMeanError(sample_stats.mean(), sigma, n, window_size, z);
      break;
    case AggregateKind::kVariance:
      out.estimate = sample_stats.SampleVariance();
      out.epsilon_hat = RelativeVarianceError(
          window_stats.PopulationVariance(),
          window_stats.FourthCentralMoment(), n, window_size, z);
      break;
    case AggregateKind::kStdDev:
      out.estimate = sample_stats.SampleStdDev();
      // Delta method: rel. error of sqrt(x) is half the rel. error of x.
      out.epsilon_hat = RelativeVarianceError(
                            window_stats.PopulationVariance(),
                            window_stats.FourthCentralMoment(), n,
                            window_size, z) /
                        2.0;
      break;
    case AggregateKind::kMin:
      out.estimate = sample_stats.min();
      out.epsilon_hat = n == window_size ? 0.0 : kInf;
      break;
    case AggregateKind::kMax:
      out.estimate = sample_stats.max();
      out.epsilon_hat = n == window_size ? 0.0 : kInf;
      break;
    case AggregateKind::kPercentile:
      return Status::Internal("unreachable: holistic handled above");
  }
  if (clt_invalid) out.epsilon_hat = kInf;
  out.accepted = out.epsilon_hat <= spec.epsilon;
  return out;
}

Result<double> AchievedQuantileError(std::uint64_t n,
                                     std::uint64_t window_size, double phi,
                                     double confidence, QuantileBound bound) {
  if (n == 0) return Status::Invalid("empty sample");
  if (window_size < n) return Status::Invalid("window smaller than sample");
  const double fpc_sq =
      1.0 - static_cast<double>(n) / static_cast<double>(window_size);
  if (fpc_sq <= 0.0) return 0.0;  // whole window sampled: exact
  switch (bound) {
    case QuantileBound::kHoeffding: {
      const double delta = 1.0 - confidence;
      return std::sqrt(std::log(2.0 / delta) * fpc_sq /
                       (2.0 * static_cast<double>(n)));
    }
    case QuantileBound::kNormalRank: {
      SPEAR_ASSIGN_OR_RETURN(const double z, NormalDeviate(confidence));
      const double var = std::max(phi * (1.0 - phi), 1e-6);
      return z * std::sqrt(var * fpc_sq / static_cast<double>(n));
    }
  }
  return Status::Internal("unknown quantile bound");
}

Result<ScalarEstimate> EstimateScalarQuantile(double phi,
                                              std::vector<double> sample,
                                              std::uint64_t window_size,
                                              const AccuracySpec& spec,
                                              QuantileBound bound) {
  SPEAR_RETURN_NOT_OK(spec.Validate());
  if (sample.empty()) return Status::Invalid("empty sample");
  if (!(phi >= 0.0 && phi <= 1.0)) {
    return Status::Invalid("phi must be in [0, 1]");
  }
  const auto n = static_cast<std::uint64_t>(sample.size());
  SPEAR_ASSIGN_OR_RETURN(
      const double achieved,
      AchievedQuantileError(n, window_size, phi, spec.confidence, bound));

  ScalarEstimate out;
  std::sort(sample.begin(), sample.end());
  SPEAR_ASSIGN_OR_RETURN(out.estimate, SortedQuantile(sample, phi));
  out.epsilon_hat = achieved;
  out.accepted = achieved <= spec.epsilon;
  return out;
}

Result<GroupedEstimate> EstimateGrouped(const AggregateSpec& agg,
                                        const GroupStatsTracker& tracker,
                                        std::size_t budget,
                                        const AccuracySpec& spec,
                                        GroupErrorNorm norm,
                                        QuantileBound bound) {
  SPEAR_RETURN_NOT_OK(spec.Validate());
  if (budget == 0) return Status::Invalid("budget must be > 0");

  GroupedEstimate out;
  // R2 of the model requires every distinct group in the result; when the
  // budget could not even hold the groups' metadata, SPEAr must process
  // the window exactly (paper Sec. 4.1).
  if (tracker.overflowed() || tracker.num_groups() == 0 ||
      tracker.num_groups() > budget) {
    out.epsilon_hat = std::numeric_limits<double>::infinity();
    out.accepted = false;
    return out;
  }

  // Basic-congress allocation, one linear pass over the tracker's slots
  // (this is the per-window hot path for grouped operations;
  // CongressAllocate is the string-keyed reference the tests pin it to).
  const std::size_t groups = tracker.num_groups();
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < groups; ++s) total += tracker.stats_at(s).count();
  // Σ_g max(N_g/N, 1/G), summed as (Σ_House N_g)/N + |Senate|/G so the
  // normalizer (and with it every n_g) is independent of slot order.
  const double g = static_cast<double>(groups);
  const double senate = 1.0 / g;
  std::uint64_t house_total = 0;
  std::size_t senate_groups = 0;
  for (std::size_t s = 0; s < groups; ++s) {
    const std::uint64_t count = tracker.stats_at(s).count();
    if (count * groups > total) {
      house_total += count;
    } else {
      ++senate_groups;
    }
  }
  const double total_weight =
      static_cast<double>(house_total) / static_cast<double>(total) +
      static_cast<double>(senate_groups) / g;
  std::vector<std::uint64_t> sizes(groups);
  for (std::size_t s = 0; s < groups; ++s) {
    const std::uint64_t count = tracker.stats_at(s).count();
    const double w = std::max(
        static_cast<double>(count) / static_cast<double>(total), senate);
    const auto n = static_cast<std::uint64_t>(
        std::floor(w / total_weight * static_cast<double>(budget)));
    sizes[s] = std::min<std::uint64_t>(std::max<std::uint64_t>(n, 1), count);
  }
  return EstimateGroupedWithAllocations(agg, tracker, std::move(sizes), spec,
                                        norm, bound);
}

Result<GroupedEstimate> EstimateGroupedWithAllocations(
    const AggregateSpec& agg, const GroupStatsTracker& tracker,
    std::vector<std::uint64_t> sample_sizes, const AccuracySpec& spec,
    GroupErrorNorm norm, QuantileBound bound) {
  SPEAR_RETURN_NOT_OK(spec.Validate());
  if (sample_sizes.empty()) return Status::Invalid("no allocations");
  if (sample_sizes.size() != tracker.num_groups()) {
    return Status::Invalid("one sample size per tracked group required");
  }

  GroupedEstimate out;
  out.sample_sizes = std::move(sample_sizes);
  SPEAR_ASSIGN_OR_RETURN(const double z, NormalDeviate(spec.confidence));

  out.group_errors.resize(out.sample_sizes.size());
  for (std::size_t s = 0; s < out.sample_sizes.size(); ++s) {
    const RunningStats& g = tracker.stats_at(s);
    const std::uint64_t n = out.sample_sizes[s];
    const std::uint64_t frequency = g.count();
    double e = 0.0;
    switch (agg.kind) {
      case AggregateKind::kCount:
        e = 0.0;  // frequencies are tracked exactly
        break;
      case AggregateKind::kMean:
      case AggregateKind::kSum:
        e = RelativeMeanError(g.mean(), g.PopulationStdDev(), n, frequency,
                              z);
        break;
      case AggregateKind::kVariance:
        e = RelativeVarianceError(g.PopulationVariance(),
                                  g.FourthCentralMoment(), n, frequency, z);
        break;
      case AggregateKind::kStdDev:
        e = RelativeVarianceError(g.PopulationVariance(),
                                  g.FourthCentralMoment(), n, frequency, z) /
            2.0;
        break;
      case AggregateKind::kMin:
      case AggregateKind::kMax:
        e = n == frequency ? 0.0 : kInf;
        break;
      case AggregateKind::kPercentile: {
        SPEAR_ASSIGN_OR_RETURN(
            e, AchievedQuantileError(n, frequency, agg.phi, spec.confidence,
                                     bound));
        break;
      }
    }
    out.group_errors[s] = e;
  }

  SPEAR_ASSIGN_OR_RETURN(out.epsilon_hat,
                         AggregateGroupErrors(out.group_errors, norm));
  out.accepted = out.epsilon_hat <= spec.epsilon;
  return out;
}

}  // namespace spear

#include "ops/aggregate.h"

#include <algorithm>

#include "stats/quantile.h"

namespace spear {

const char* AggregateKindName(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCount:
      return "count";
    case AggregateKind::kSum:
      return "sum";
    case AggregateKind::kMean:
      return "mean";
    case AggregateKind::kVariance:
      return "variance";
    case AggregateKind::kStdDev:
      return "stddev";
    case AggregateKind::kMin:
      return "min";
    case AggregateKind::kMax:
      return "max";
    case AggregateKind::kPercentile:
      return "percentile";
  }
  return "?";
}

std::string AggregateSpec::ToString() const {
  std::string out = AggregateKindName(kind);
  if (kind == AggregateKind::kPercentile) {
    // Appended piecewise: GCC 12 reports a -Wrestrict false positive on
    // `"(" + std::to_string(...)` at -O3.
    out += '(';
    out += std::to_string(phi);
    out += ')';
  }
  return out;
}

Result<double> EvaluateExact(const AggregateSpec& spec,
                             std::vector<double> values) {
  if (values.empty()) return Status::Invalid("aggregate of empty window");
  if (spec.kind == AggregateKind::kPercentile) {
    return ExactQuantileInPlace(&values, spec.phi);
  }
  RunningStats stats;
  for (double v : values) stats.Update(v);
  return EvaluateFromStats(spec, stats);
}

Result<double> EvaluateFromStats(const AggregateSpec& spec,
                                 const RunningStats& stats) {
  if (spec.IsHolistic()) {
    return Status::FailedPrecondition(
        "holistic aggregate cannot evaluate from running stats");
  }
  if (stats.count() == 0) return Status::Invalid("aggregate of empty window");
  switch (spec.kind) {
    case AggregateKind::kCount:
      return static_cast<double>(stats.count());
    case AggregateKind::kSum:
      return stats.sum();
    case AggregateKind::kMean:
      return stats.mean();
    case AggregateKind::kVariance:
      return stats.SampleVariance();
    case AggregateKind::kStdDev:
      return stats.SampleStdDev();
    case AggregateKind::kMin:
      return stats.min();
    case AggregateKind::kMax:
      return stats.max();
    case AggregateKind::kPercentile:
      break;  // handled above
  }
  return Status::Internal("unknown aggregate kind");
}

}  // namespace spear

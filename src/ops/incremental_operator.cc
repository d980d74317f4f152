#include "ops/incremental_operator.h"

#include "common/time.h"

namespace spear {

IncrementalOperator::IncrementalOperator(AggregateSpec spec,
                                         WindowSpec window_spec,
                                         ValueExtractor value_extractor,
                                         KeyExtractor key_extractor)
    : spec_(spec),
      window_spec_(window_spec),
      value_extractor_(std::move(value_extractor)),
      key_extractor_(std::move(key_extractor)),
      last_watermark_(kMinTimestamp) {
  SPEAR_CHECK(spec_.IsIncremental());
  SPEAR_CHECK(window_spec_.IsValid());
}

void IncrementalOperator::OnTuple(std::int64_t coord, const Tuple& tuple) {
  if (coord < last_watermark_) {
    ++late_tuples_;
    return;
  }
  const double value = value_extractor_(tuple);
  ForEachWindow(window_spec_, coord, [&](const WindowBounds& w) {
    if (is_grouped()) {
      grouped_state_[w.start][key_extractor_(tuple)].Update(value);
    } else {
      scalar_state_[w.start].Update(value);
    }
  });
}

Result<std::vector<WindowResult>> IncrementalOperator::OnWatermark(
    std::int64_t watermark) {
  std::vector<WindowResult> out;
  if (watermark <= last_watermark_) return out;
  last_watermark_ = watermark;

  if (!is_grouped()) {
    auto it = scalar_state_.begin();
    while (it != scalar_state_.end() &&
           it->first + window_spec_.range <= watermark) {
      WindowResult result;
      result.bounds = WindowBounds{it->first, it->first + window_spec_.range};
      result.window_size = it->second.count();
      result.tuples_processed = 0;  // incremental: no work at watermark
      SPEAR_ASSIGN_OR_RETURN(result.scalar,
                             EvaluateFromStats(spec_, it->second));
      out.push_back(std::move(result));
      it = scalar_state_.erase(it);
    }
    return out;
  }

  auto it = grouped_state_.begin();
  while (it != grouped_state_.end() &&
         it->first + window_spec_.range <= watermark) {
    WindowResult result;
    result.bounds = WindowBounds{it->first, it->first + window_spec_.range};
    result.is_grouped = true;
    result.tuples_processed = 0;
    for (const auto& [key, stats] : it->second) {
      result.window_size += stats.count();
      SPEAR_ASSIGN_OR_RETURN(const double v, EvaluateFromStats(spec_, stats));
      result.groups.emplace_back(key, v);
    }
    out.push_back(std::move(result));
    it = grouped_state_.erase(it);
  }
  return out;
}

}  // namespace spear

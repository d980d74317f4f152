#include "runtime/gk_quantile_bolt.h"

#include "common/time.h"

namespace spear {

GkQuantileBolt::GkQuantileBolt(WindowSpec window,
                               ValueExtractor value_extractor, double phi,
                               double epsilon)
    : window_(window),
      value_extractor_(std::move(value_extractor)),
      phi_(phi),
      epsilon_(epsilon),
      last_watermark_(kMinTimestamp) {
  SPEAR_CHECK(window_.IsValid());
  SPEAR_CHECK(phi_ >= 0.0 && phi_ <= 1.0);
  SPEAR_CHECK(epsilon_ > 0.0 && epsilon_ < 1.0);
}

Status GkQuantileBolt::Prepare(const BoltContext& ctx) {
  metrics_ = ctx.metrics;
  return Status::OK();
}

Status GkQuantileBolt::Execute(const Tuple& tuple, Emitter* out) {
  std::int64_t coord;
  if (window_.type == WindowType::kCountBased) {
    coord = sequence_++;
  } else {
    coord = tuple.event_time();
  }
  if (coord >= last_watermark_) {
    const double value = value_extractor_(tuple);
    Status status = Status::OK();
    ForEachWindow(window_, coord, [&](const WindowBounds& w) {
      if (!status.ok()) return;
      auto it = sketches_.find(w.start);
      if (it == sketches_.end()) {
        auto sketch = GkQuantileSketch::Make(epsilon_);
        if (!sketch.ok()) {
          status = sketch.status();
          return;
        }
        it = sketches_.emplace(w.start, std::move(*sketch)).first;
      }
      it->second.Add(value);
    });
    if (!status.ok()) return status;
  }
  if (window_.type == WindowType::kCountBased) {
    return ProcessWatermark(sequence_, out);
  }
  return Status::OK();
}

Status GkQuantileBolt::OnWatermark(Timestamp watermark, Emitter* out) {
  if (window_.type == WindowType::kCountBased) return Status::OK();
  return ProcessWatermark(watermark, out);
}

Status GkQuantileBolt::ProcessWatermark(std::int64_t watermark,
                                        Emitter* out) {
  watermark = ClampWatermark(window_, watermark);
  if (watermark <= last_watermark_) return Status::OK();
  last_watermark_ = watermark;
  while (!sketches_.empty() &&
         sketches_.begin()->first + window_.range <= watermark) {
    auto it = sketches_.begin();
    std::int64_t query_ns = 0;
    WindowResult result;
    {
      ScopedTimerNs timer(&query_ns);
      result.bounds = WindowBounds{it->first, it->first + window_.range};
      result.window_size = it->second.count();
      result.tuples_processed = it->second.summary_size();
      result.approximate = true;
      result.estimated_error = epsilon_;
      SPEAR_ASSIGN_OR_RETURN(result.scalar, it->second.Quantile(phi_));
    }
    result.processing_ns = query_ns;
    if (metrics_ != nullptr) {
      metrics_->RecordWindowNs(query_ns);
      metrics_->RecordMemoryBytes(it->second.MemoryBytes());
    }
    for (Tuple& t : WindowResultToTuples(result)) out->Emit(std::move(t));
    sketches_.erase(it);
  }
  return Status::OK();
}

}  // namespace spear

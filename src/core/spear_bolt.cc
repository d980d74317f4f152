#include "core/spear_bolt.h"

#include "runtime/overload.h"

namespace spear {

SpearBolt::SpearBolt(SpearOperatorConfig config,
                     ValueExtractor value_extractor,
                     KeyExtractor key_extractor, SecondaryStorage* storage,
                     DecisionStatsCollector* decision_sink)
    : config_(std::move(config)),
      value_extractor_(std::move(value_extractor)),
      key_extractor_(std::move(key_extractor)),
      storage_(storage),
      decision_sink_(decision_sink) {}

Result<std::string> SpearBolt::SnapshotState() {
  if (manager_ == nullptr) {
    return Status::FailedPrecondition("spear bolt: snapshot before Prepare");
  }
  return manager_->SnapshotState();
}

Status SpearBolt::RestoreState(const std::string& payload) {
  if (manager_ == nullptr) {
    return Status::FailedPrecondition("spear bolt: restore before Prepare");
  }
  return manager_->RestoreState(payload);
}

void SpearBolt::NoteRecoveryLoss(std::uint64_t lost_tuples) {
  if (manager_ != nullptr) manager_->NoteRecoveryLoss(lost_tuples);
}

void SpearBolt::SetCatchingUp(bool catching_up) {
  if (manager_ != nullptr) manager_->SetCatchingUp(catching_up);
}

void SpearBolt::PublishShed() {
  if (metrics_ == nullptr || unpublished_shed_ == 0) return;
  metrics_->AddTuplesShed(unpublished_shed_);
  unpublished_shed_ = 0;
}

Status SpearBolt::Finish(Emitter* out) {
  (void)out;
  PublishShed();
  if (decision_sink_ != nullptr && manager_ != nullptr) {
    decision_sink_->Add(manager_->decision_stats());
  }
  return Status::OK();
}

Status SpearBolt::Prepare(const BoltContext& ctx) {
  metrics_ = ctx.metrics;
  overload_ = ctx.overload;
  // Per-task shed stream, decorrelated from the reservoir samplers so the
  // drop decision never interacts with replacement choices.
  shed_rng_ = Rng(config_.seed ^
                  (0xC3A5C85C97CB3127ULL * static_cast<std::uint64_t>(
                                               ctx.task_id + 1)));
  manager_ = std::make_unique<SpearWindowManager>(
      config_, value_extractor_, key_extractor_, storage_,
      "spear-bolt-" + std::to_string(ctx.task_id));
  manager_->SetMetrics(ctx.metrics);
  manager_->SetObservability(
      ctx.obs, ctx.tracer,
      ctx.metrics != nullptr ? ctx.metrics->stage() : "stateful",
      ctx.task_id);
  return Status::OK();
}

Status SpearBolt::OnDeliveryAnomaly(Emitter* out) {
  (void)out;
  if (manager_ != nullptr) manager_->NoteStreamTruncation();
  return Status::OK();
}

Status SpearBolt::Execute(const Tuple& tuple, Emitter* out) {
  // Accuracy-aware load shedding happens before any other admission work:
  // a shed tuple is charged to its window's ε̂_w but costs neither
  // validation nor ingestion, which is what relieves an overloaded stage.
  if (overload_ != nullptr) {
    const double p = overload_->shed_probability();
    if (p > 0.0 && shed_rng_.NextDouble() < p) {
      const std::int64_t coord = config_.window.type == WindowType::kCountBased
                                     ? sequence_++
                                     : tuple.event_time();
      manager_->OnTupleShed(coord);
      ++unpublished_shed_;
      if (config_.window.type == WindowType::kCountBased) {
        Status emitted = ProcessWatermark(sequence_, out);
        if (!emitted.ok() && emitted.IsUnavailable()) {
          return Status::Internal("window emission failed after retries: " +
                                  emitted.message());
        }
        return emitted;
      }
      return Status::OK();
    }
  }
  // Admission check before any state mutation: a rejected tuple is a data
  // error the supervised executor quarantines; nothing was ingested, so
  // window state stays consistent.
  if (config_.validate) SPEAR_RETURN_NOT_OK(config_.validate(tuple));
  std::int64_t coord;
  if (config_.window.type == WindowType::kCountBased) {
    coord = sequence_++;
  } else {
    coord = tuple.event_time();
  }
  manager_->OnTuple(coord, tuple);
  if (config_.window.type == WindowType::kCountBased) {
    // The tuple is already ingested, so this Execute is no longer
    // idempotent: a transient emission failure must not look retryable to
    // the supervising executor (a retry would double-ingest the tuple).
    Status emitted = ProcessWatermark(sequence_, out);
    if (!emitted.ok() && emitted.IsUnavailable()) {
      return Status::Internal("window emission failed after retries: " +
                              emitted.message());
    }
    return emitted;
  }
  return Status::OK();
}

Status SpearBolt::OnWatermark(Timestamp watermark, Emitter* out) {
  PublishShed();
  if (config_.window.type == WindowType::kCountBased) return Status::OK();
  return ProcessWatermark(watermark, out);
}

Status SpearBolt::ProcessWatermark(std::int64_t watermark, Emitter* out) {
  Result<std::vector<WindowResult>> results =
      manager_->OnWatermark(watermark);
  if (!results.ok()) return results.status();

  // The manager recorded each window's outcome; the bolt delivers it.
  for (WindowResult& result : *results) {
    if (overload_ != nullptr) {
      overload_->ObserveWindowLatency(result.processing_ns);
    }
    for (Tuple& t : WindowResultToTuples(result)) out->Emit(std::move(t));
  }
  return Status::OK();
}

}  // namespace spear

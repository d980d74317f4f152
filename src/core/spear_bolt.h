#pragma once

#include <memory>

#include "checkpoint/checkpointable.h"
#include "common/rng.h"
#include "core/spear_config.h"
#include "core/spear_window_manager.h"
#include "runtime/operator.h"
#include "runtime/windowed_bolt.h"

/// \file spear_bolt.h
/// The runtime stage wrapping a SpearWindowManager — the paper's SpearBolt,
/// which "disassociates execution into production and delivery of a
/// result": production happens in the manager (approximate from the budget
/// or exact from the window), delivery encodes each WindowResult as output
/// tuples (same layout as the exact bolt, so sinks are interchangeable).

namespace spear {

/// \brief SPEAr's stateful windowed stage.
class SpearBolt : public Bolt, public Checkpointable {
 public:
  /// \param config          the operation's window/aggregate/accuracy/budget
  /// \param value_extractor aggregation value
  /// \param key_extractor   group key; null => scalar
  /// \param storage         spill target (required iff
  ///                        config.buffer_memory_capacity > 0)
  /// \param decision_sink optional collector receiving this worker's
  ///        DecisionStats when the stream finishes
  SpearBolt(SpearOperatorConfig config, ValueExtractor value_extractor,
            KeyExtractor key_extractor = nullptr,
            SecondaryStorage* storage = nullptr,
            DecisionStatsCollector* decision_sink = nullptr);
  ~SpearBolt() override { PublishShed(); }

  Status Prepare(const BoltContext& ctx) override;
  Status Execute(const Tuple& tuple, Emitter* out) override;
  Status OnWatermark(Timestamp watermark, Emitter* out) override;
  Status Finish(Emitter* out) override;
  Status OnDeliveryAnomaly(Emitter* out) override;

  /// Expedite/fallback counters (valid after the run).
  const DecisionStats& decision_stats() const {
    return manager_->decision_stats();
  }

  /// The underlying manager (valid after Prepare). Chaos tests reach
  /// through it for hooks like CorruptBudgetForTesting.
  SpearWindowManager* manager() { return manager_.get(); }

  /// Checkpoint hooks forward to the window manager. The executor only
  /// snapshots/restores between Prepare and Finish, when manager_ is live.
  Checkpointable* checkpointable() override { return this; }
  Result<std::string> SnapshotState() override;
  Status RestoreState(const std::string& payload) override;
  void NoteRecoveryLoss(std::uint64_t lost_tuples) override;
  void SetCatchingUp(bool catching_up) override;

 private:
  Status ProcessWatermark(std::int64_t watermark, Emitter* out);
  /// Adds the tuples shed since the last call to tuples_shed: per executor
  /// watermark, at Finish and on destruction (a restart), never per tuple.
  void PublishShed();

  const SpearOperatorConfig config_;
  const ValueExtractor value_extractor_;
  const KeyExtractor key_extractor_;
  SecondaryStorage* storage_;
  DecisionStatsCollector* decision_sink_;
  std::unique_ptr<SpearWindowManager> manager_;
  WorkerMetrics* metrics_ = nullptr;
  OverloadDetector* overload_ = nullptr;
  Rng shed_rng_;
  std::uint64_t unpublished_shed_ = 0;
  std::int64_t sequence_ = 0;
};

}  // namespace spear

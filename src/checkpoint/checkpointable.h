#pragma once

#include <cstdint>
#include <string>

#include "common/result.h"

/// \file checkpointable.h
/// The two interfaces a topology component implements to participate in
/// checkpoint/recovery (AF-Stream's approximate fault tolerance, adapted
/// to SPEAr):
///
///  - Checkpointable: a stateful bolt that can serialize its *budget*
///    state — O(b) samples/sketches/running moments, never the O(|S_w|)
///    raw window buffer — and restore from it after a crash. Whatever the
///    snapshot does not cover is re-fed from the executor's replay log;
///    anything beyond the log's bound is reported via NoteRecoveryLoss and
///    folded into the window's error estimate ε̂_w.
///
///  - ReplayableSpout: a source that exposes a replay offset so snapshots
///    can record how far the stream had been consumed.
///
/// Both are discovered through virtual hooks on Bolt/Spout
/// (checkpointable() / replayable()) rather than RTTI, so decorator
/// wrappers (fault injection) can forward to the component they wrap.

namespace spear {

/// \brief Snapshot/restore hooks of a stateful worker.
///
/// Delivery contract, which recovery relies on instead of keying results:
/// the bolt's windows close as a function of the watermark alone, and one
/// OnWatermark call emits the results of every window it closes all or
/// nothing (a call that fails has emitted none of them). A restored
/// instance that is re-fed the replay log and re-run to the last watermark
/// whose OnWatermark succeeded then re-emits exactly the windows already
/// delivered before the crash; the executor discards that output, and
/// whatever a replayed Execute emits.
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;

  /// Serializes the worker's budget state into an opaque byte string.
  /// Must be O(b) in the accuracy budget, not O(|S_w|) in the window: the
  /// raw tuple buffer is deliberately NOT part of the snapshot (it is
  /// rebuilt from the replay log, or given up with a bounded error).
  virtual Result<std::string> SnapshotState() = 0;

  /// Replaces the worker's state with a previously serialized snapshot.
  /// Called on a freshly prepared instance during recovery.
  virtual Status RestoreState(const std::string& payload) = 0;

  /// Reports that `lost_tuples` consumed tuples could not be replayed
  /// after a restore (they fell off the bounded replay log). The
  /// implementation must degrade its accuracy accounting accordingly —
  /// SpearWindowManager inflates ε̂_w of every affected window by the
  /// loss ratio and flags the windows as recovered/anomalous.
  virtual void NoteRecoveryLoss(std::uint64_t lost_tuples) = 0;

  /// Brackets recovery's catch-up: on after RestoreState, before the
  /// replay log is re-fed; off once every window up to the last delivered
  /// watermark has been re-closed. Those windows were delivered before the
  /// crash, so an implementation keeps its own state current but records
  /// them nowhere outside it (metrics, trace spans): each delivered window
  /// is recorded once. Ignored by default.
  virtual void SetCatchingUp(bool catching_up) { (void)catching_up; }
};

/// \brief A spout whose consumption position can be read and restored.
class ReplayableSpout {
 public:
  virtual ~ReplayableSpout() = default;

  /// Tuples handed out so far; recorded in snapshot headers so an external
  /// driver can re-seek a re-created source.
  virtual std::uint64_t ReplayOffset() const = 0;

  /// Repositions the stream so the next tuple produced is `offset`.
  virtual Status SeekTo(std::uint64_t offset) = 0;
};

}  // namespace spear

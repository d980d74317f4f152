#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/blocking_queue.h"
#include "common/result.h"
#include "obs/observability.h"
#include "runtime/metrics.h"
#include "runtime/topology.h"

/// \file executor.h
/// Multi-threaded topology execution: one source thread drains the spout,
/// one worker thread per (stage, task) runs a bolt instance. Inter-stage
/// channels are bounded blocking queues (back-pressure), watermarks are
/// broadcast and aligned per worker as the minimum across input channels,
/// and end-of-stream is a flush marker that propagates once every input
/// channel has flushed. Tuples on one channel stay in order (the paper's
/// experiments enable Storm's in-order delivery).
///
/// Channels are micro-batched (Topology::batch_max_tuples): emitters buffer
/// tuples per target and move them as one batch per lock acquisition, and
/// workers drain popped batches locally. Control elements force a flush, so
/// ordering, watermark, and back-pressure semantics match batch size 1.
///
/// Workers are *supervised* (see common/retry_policy.h for the failure
/// taxonomy): bolt exceptions become Statuses, transient Execute failures
/// are retried under the stage's RetryPolicy, data errors quarantine the
/// offending tuple to the run's dead-letter channel, and only fatal or
/// retry-exhausted errors cancel the run.
///
/// With Topology::checkpoint enabled, workers are additionally
/// *recoverable*: checkpointable bolts snapshot their O(b) state at
/// watermark boundaries, and the popped batches consumed since the last
/// snapshot stay, moved whole, in a bounded replay log (ReplayLog). A
/// crashed worker (kWorkerCrash injection, an escaped exception, or a
/// retry-exhausted failure) is rebuilt in place: fresh bolt, state
/// restored from the latest valid snapshot, the log's newest tuples
/// replayed, then every window re-closed up to `delivered_wm`, the last
/// watermark whose OnWatermark returned OK. All of that was delivered
/// before the crash, so it goes to a discarding emitter; only when the
/// failed call was itself a watermark is that watermark run again into
/// the real emitter. Downstream thus sees each window result exactly
/// once without any result being keyed (see Checkpointable for the
/// contract this relies on). Tuples that fell off the bounded log are
/// charged to the recovered windows' error estimates
/// (Checkpointable::NoteRecoveryLoss).

namespace spear {

/// \brief A tuple that failed non-transiently and was removed from the
/// stream instead of cancelling the run.
struct DeadLetter {
  std::string stage;
  int task = 0;
  /// Execute attempts spent on the tuple (1 = failed on first delivery).
  int attempts = 1;
  Status error;
  Tuple tuple;
};

/// \brief Everything a finished run reports back.
struct RunReport {
  /// Tuples emitted by the final stage, in collection order.
  std::vector<Tuple> output;
  /// Per-worker telemetry.
  MetricsRegistry metrics;
  /// Quarantined tuples, merged across workers in stage/task order.
  /// Capped at Topology::max_dead_letters entries; the overflow is
  /// counted in dead_letters_dropped.
  std::vector<DeadLetter> dead_letters;
  /// Aggregated fault counters (injection, retries, degradation).
  FaultStats faults;
  /// Errors recorded after the first one on a failed run (deduplicated);
  /// empty on success. The returned Status carries the first error.
  /// Capped at Topology::max_dead_letters entries.
  std::vector<Status> suppressed_errors;
  /// Worker crash/restore cycles completed (== faults.worker_restarts).
  std::uint64_t recoveries = 0;
  /// Quarantined tuples not retained in dead_letters because the cap was
  /// reached (they still count in faults.quarantined).
  std::uint64_t dead_letters_dropped = 0;
  /// Aggregated overload-control counters (shedding, deadline aborts,
  /// watchdog interventions, back-pressure stall time).
  OverloadStats overload;
  /// Final observability scrape: exported metric samples and per-window
  /// trace spans. Empty (enabled flags false) unless the topology was
  /// built with `.Metrics()` / `.Trace()`.
  obs::ObservabilityReport observability;
};

/// \brief Runs one topology to completion. Single-use.
class Executor {
 public:
  explicit Executor(Topology topology) : topology_(std::move(topology)) {}

  /// Blocking: returns after the stream is exhausted and every worker has
  /// flushed, or after the first worker error (which cancels the run).
  Result<RunReport> Run();

  // Implementation details, public only for internal linkage reasons.
  struct Element;
  class StageEmitter;

 private:
  Topology topology_;
};

}  // namespace spear

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "runtime/metrics.h"
#include "tuple/tuple.h"

/// \file operator.h
/// The operator interfaces of the runtime: Spout (source) and Bolt
/// (processing stage), Storm's vocabulary. Bolts receive data tuples and
/// watermarks; the executor handles channel-wise watermark alignment and
/// end-of-stream flushes.

namespace spear {

class Checkpointable;    // checkpoint/checkpointable.h
class ReplayableSpout;   // checkpoint/checkpointable.h
class OverloadDetector;  // runtime/overload.h

namespace obs {
class MetricsShard;  // obs/metrics.h
class WindowTracer;  // obs/trace.h
}  // namespace obs

/// \brief Downstream emission handle given to bolts.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void Emit(Tuple tuple) = 0;
};

/// \brief Per-worker runtime context handed to a bolt at preparation.
struct BoltContext {
  int task_id = 0;
  int parallelism = 1;
  WorkerMetrics* metrics = nullptr;
  /// This stage's overload detector, or null when no latency SLO is
  /// configured. Admission-shedding bolts read shed_probability() per
  /// tuple and report window latencies back.
  OverloadDetector* overload = nullptr;
  /// `metrics`' shard, or null unless the topology was built with
  /// `.Metrics()`. Bolts resolve export-only instruments from it once at
  /// Prepare and update them lock-free afterwards.
  obs::MetricsShard* obs = nullptr;
  /// This worker's window-trace sink, or null unless built with
  /// `.Trace()`. SPEAr bolts record one TraceSpan per closed window.
  obs::WindowTracer* tracer = nullptr;
};

/// \brief A processing stage instance. One Bolt object per worker thread;
/// all callbacks run on that worker's thread.
class Bolt {
 public:
  virtual ~Bolt() = default;

  /// Called once before any tuple, on the worker thread.
  virtual Status Prepare(const BoltContext& ctx) {
    (void)ctx;
    return Status::OK();
  }

  /// Data tuple arrival.
  virtual Status Execute(const Tuple& tuple, Emitter* out) = 0;

  /// Watermark arrival (already aligned as the minimum across input
  /// channels; exclusive semantics — see window/watermark.h). The executor
  /// forwards the watermark downstream after this returns.
  virtual Status OnWatermark(Timestamp watermark, Emitter* out) {
    (void)watermark;
    (void)out;
    return Status::OK();
  }

  /// End of stream, after the final watermark. Flush any residual state.
  virtual Status Finish(Emitter* out) {
    (void)out;
    return Status::OK();
  }

  /// Delivery-anomaly notification: the runtime has closed the stream
  /// abnormally (e.g. the watermark watchdog gave up on a stalled spout)
  /// and an unknown suffix of the input may never arrive. Windows still
  /// open must not be passed off as accurate — SPEAr bolts flag them for
  /// degraded emission. Default: ignore (stateless bolts lose nothing).
  virtual Status OnDeliveryAnomaly(Emitter* out) {
    (void)out;
    return Status::OK();
  }

  /// Snapshot/restore hooks, when this bolt participates in
  /// checkpoint/recovery (null for stateless bolts — the default).
  /// Decorator bolts forward to the bolt they wrap; the executor uses
  /// this instead of RTTI.
  virtual Checkpointable* checkpointable() { return nullptr; }
};

/// \brief A data source. Pull-based: the executor's source thread drains it.
class Spout {
 public:
  virtual ~Spout() = default;

  /// Produces the next tuple; false at end of stream.
  virtual bool Next(Tuple* out) = 0;

  /// Appends up to `max` tuples to `*out`; returns false once the stream
  /// is exhausted (tuples already appended remain valid). The default
  /// loops Next(); sources with random-access backing can override it to
  /// fill the batch without per-tuple virtual dispatch.
  virtual bool NextBatch(std::vector<Tuple>* out, std::size_t max) {
    Tuple tuple;
    for (std::size_t k = 0; k < max; ++k) {
      if (!Next(&tuple)) return false;
      out->push_back(std::move(tuple));
      tuple = Tuple();
    }
    return true;
  }

  /// Replay-offset hooks, when this spout can report/seek its consumption
  /// position (null otherwise — the default). Decorator spouts forward.
  virtual ReplayableSpout* replayable() { return nullptr; }
};

/// \brief Per-worker bolt factory: stage parallelism P creates P bolts.
using BoltFactory = std::function<std::unique_ptr<Bolt>(int task_id)>;

}  // namespace spear

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "common/fault.h"
#include "common/result.h"
#include "common/retry_policy.h"
#include "common/time.h"
#include "obs/observability.h"
#include "runtime/operator.h"
#include "runtime/overload.h"
#include "runtime/partitioner.h"

/// \file topology.h
/// CQ -> distributed execution plan (paper Sec. 2): a topologically-sorted
/// chain of stages, each with its own parallelism and input partitioning.
/// Built with TopologyBuilder, executed by Executor.

namespace spear {

class SecondaryStorage;

/// \brief One processing stage of the DAG.
struct StageSpec {
  std::string name;
  int parallelism = 1;
  /// How the *upstream* stage routes tuples to this stage.
  Partitioner input_partitioner = Partitioner::Shuffle();
  BoltFactory bolt_factory;
  /// Retry policy for transient Execute failures (supervision). Default:
  /// no retries — a transient failure is treated like any other error.
  RetryPolicy retry = RetryPolicy::None();
};

/// \brief Source configuration: the spout plus its watermarking policy.
struct SourceSpec {
  std::shared_ptr<Spout> spout;
  /// Emit a watermark every this much observed event time. <= 0 disables
  /// source watermarks (only the final end-of-stream watermark fires);
  /// count-based CQs typically disable them.
  DurationMs watermark_interval = 0;
  /// Bounded out-of-orderness allowance.
  DurationMs max_lateness = 0;
};

/// \brief An executable plan. Immutable once built.
struct Topology {
  SourceSpec source;
  std::vector<StageSpec> stages;
  /// Capacity of each inter-stage queue (back-pressure bound).
  std::size_t queue_capacity = 1024;
  /// Micro-batch bound for every inter-stage channel: each emitting worker
  /// buffers up to this many tuples per target before handing them to the
  /// queue as one batch (one lock acquisition + one notify). 1 disables
  /// batching. Buffers are flushed unconditionally before any watermark or
  /// flush broadcast and before a worker blocks on an empty input queue,
  /// so per-channel ordering, watermark alignment, and end-of-stream
  /// semantics are identical at any batch size.
  std::size_t batch_max_tuples = 64;
  /// Chaos testing: the plan's injector, consulted by instrumented sites
  /// (storage, FaultInjectingBolt/Spout wrappers). Not owned; null in
  /// production. The executor reads its fire counters into the RunReport.
  FaultInjector* fault_injector = nullptr;
  /// Secondary storages used by this topology's bolts (not owned). Lets
  /// the executor re-arm their simulated latency at run start and cancel
  /// it when the run is cancelled, so failing workers don't spin out
  /// simulated waits.
  std::vector<SecondaryStorage*> storages;
  /// Checkpoint/recovery policy (disabled by default). When enabled the
  /// executor snapshots every checkpointable worker at watermark
  /// boundaries and restarts crashed workers from their latest snapshot.
  CheckpointConfig checkpoint;
  /// Cap on RunReport::dead_letters and suppressed_errors entries kept in
  /// memory; tuples quarantined past the cap are counted in
  /// RunReport::dead_letters_dropped instead of retained.
  std::size_t max_dead_letters = 1024;
  /// Overload control: latency SLO + shed policy + watermark watchdog
  /// (all disabled by default; see runtime/overload.h).
  OverloadConfig overload;
  /// Invoked (each at most once, any thread) when the executor abandons a
  /// run or the watchdog closes a stalled source — unsticks operators
  /// blocked outside the executor's control (e.g. a stalled spout).
  std::vector<std::function<void()>> cancel_hooks;
  /// Observability: exported metrics + per-window trace spans (both off
  /// by default; see obs/observability.h and the `.Metrics()`/`.Trace()`
  /// builder knobs).
  obs::ObsConfig obs;
};

/// \brief Fluent builder mirroring the structure of the paper's Fig. 2
/// DAG: source -> stateless stage(s) -> windowed stateful stage -> sink.
class TopologyBuilder {
 public:
  /// Sets the data source. `watermark_interval <= 0` disables periodic
  /// watermarks (the final watermark still fires at end of stream).
  TopologyBuilder& Source(std::shared_ptr<Spout> spout,
                          DurationMs watermark_interval = 0,
                          DurationMs max_lateness = 0) {
    topology_.source = SourceSpec{std::move(spout), watermark_interval,
                                  max_lateness};
    return *this;
  }

  /// Appends a stage fed by the previous one (or the source).
  TopologyBuilder& Stage(std::string name, int parallelism,
                         Partitioner input_partitioner, BoltFactory factory) {
    topology_.stages.push_back(StageSpec{std::move(name), parallelism,
                                         std::move(input_partitioner),
                                         std::move(factory)});
    return *this;
  }

  /// Sets the retry policy of the most recently added stage.
  TopologyBuilder& StageRetry(RetryPolicy retry) {
    if (!topology_.stages.empty()) topology_.stages.back().retry = retry;
    return *this;
  }

  /// Attaches a fault injector to the plan (see Topology::fault_injector).
  TopologyBuilder& InjectFaults(FaultInjector* injector) {
    topology_.fault_injector = injector;
    return *this;
  }

  /// Registers a storage used by this topology's bolts (see
  /// Topology::storages). Idempotent per pointer.
  TopologyBuilder& RegisterStorage(SecondaryStorage* storage) {
    if (storage != nullptr) {
      for (SecondaryStorage* s : topology_.storages) {
        if (s == storage) return *this;
      }
      topology_.storages.push_back(storage);
    }
    return *this;
  }

  TopologyBuilder& QueueCapacity(std::size_t capacity) {
    topology_.queue_capacity = capacity;
    return *this;
  }

  /// Per-channel micro-batch bound (1 = unbatched; see Topology).
  TopologyBuilder& BatchMaxTuples(std::size_t batch_max) {
    topology_.batch_max_tuples = batch_max;
    return *this;
  }

  /// Enables checkpoint/restore with the given policy (see
  /// Topology::checkpoint). `config.enabled` is forced true.
  TopologyBuilder& Checkpoint(CheckpointConfig config) {
    config.enabled = true;
    topology_.checkpoint = std::move(config);
    return *this;
  }

  /// Caps retained dead-letter/suppressed-error entries (see
  /// Topology::max_dead_letters).
  TopologyBuilder& DeadLetterCap(std::size_t cap) {
    topology_.max_dead_letters = cap;
    return *this;
  }

  /// Arms overload control with a per-window latency SLO (ms). Each
  /// stage gets an OverloadDetector; bolts that honor BoltContext::overload
  /// shed admissions while the detector is tripped.
  TopologyBuilder& LatencySlo(DurationMs slo_ms) {
    topology_.overload.latency_slo = slo_ms;
    return *this;
  }

  /// Replaces the shed policy (thresholds/ramp; see ShedPolicy). Only
  /// effective together with LatencySlo.
  TopologyBuilder& Shed(ShedPolicy policy) {
    topology_.overload.shed = policy;
    return *this;
  }

  /// Arms the watermark watchdog: a source that makes no progress for
  /// `idle_ms` while the stage-0 queues sit empty is declared stalled and
  /// the stream is closed abnormally (bolts get OnDeliveryAnomaly, then
  /// the final watermark).
  TopologyBuilder& WatermarkWatchdog(DurationMs idle_ms) {
    topology_.overload.watchdog_idle = idle_ms;
    return *this;
  }

  /// Enables the exported-metrics layer: the final scrape in
  /// RunReport::observability, plus the per-tuple, queue and checkpoint
  /// instruments only export needs. `options` may add a periodic sampler
  /// thread (scrape_period_ms + sink).
  TopologyBuilder& Metrics(obs::MetricsOptions options = {}) {
    topology_.obs.metrics_enabled = true;
    topology_.obs.metrics = std::move(options);
    return *this;
  }

  /// Enables per-window TraceSpan recording (decision lineage; see
  /// obs/trace.h). `options` controls sampling and the per-worker cap.
  TopologyBuilder& Trace(obs::TraceOptions options = {}) {
    topology_.obs.trace_enabled = true;
    topology_.obs.trace = options;
    return *this;
  }

  /// Registers a cancel hook (see Topology::cancel_hooks).
  TopologyBuilder& AddCancelHook(std::function<void()> hook) {
    if (hook) topology_.cancel_hooks.push_back(std::move(hook));
    return *this;
  }

  /// Validates and returns the plan.
  Result<Topology> Build() {
    if (!topology_.source.spout) return Status::Invalid("topology has no source");
    if (topology_.stages.empty()) return Status::Invalid("topology has no stages");
    for (const StageSpec& s : topology_.stages) {
      if (s.parallelism < 1) {
        return Status::Invalid("stage '" + s.name + "' parallelism must be >= 1");
      }
      if (!s.bolt_factory) {
        return Status::Invalid("stage '" + s.name + "' has no bolt factory");
      }
      if (Status rs = s.retry.Validate(); !rs.ok()) {
        return Status::Invalid("stage '" + s.name + "': " + rs.message());
      }
    }
    if (topology_.queue_capacity == 0) {
      return Status::Invalid("queue capacity must be > 0");
    }
    if (topology_.batch_max_tuples == 0) {
      return Status::Invalid("batch_max_tuples must be > 0");
    }
    if (Status os = topology_.overload.Validate(); !os.ok()) return os;
    if (Status os = topology_.obs.Validate(); !os.ok()) return os;
    if (topology_.checkpoint.enabled) {
      if (topology_.checkpoint.interval < 1) {
        return Status::Invalid("checkpoint interval must be >= 1 ms");
      }
      if (topology_.source.spout &&
          topology_.source.spout->replayable() == nullptr) {
        return Status::Invalid(
            "checkpointing requires a replayable source spout");
      }
    }
    return topology_;
  }

 private:
  Topology topology_;
};

}  // namespace spear

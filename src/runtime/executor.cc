#include "runtime/executor.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <iterator>
#include <string>
#include <thread>
#include <utility>

#include "checkpoint/checkpoint.h"
#include "checkpoint/checkpointable.h"
#include "common/logging.h"
#include "common/retry_policy.h"
#include "common/time.h"
#include "runtime/overload.h"
#include "runtime/replay_log.h"
#include "storage/secondary_storage.h"
#include "window/watermark.h"

namespace spear {

/// One item on an inter-stage channel.
struct Executor::Element {
  enum class Kind : std::uint8_t { kTuple, kWatermark, kFlush, kAnomaly };

  Kind kind = Kind::kTuple;
  int from_channel = 0;
  Timestamp watermark = kMinTimestamp;
  Tuple tuple;

  static Element MakeTuple(Tuple t, int from) {
    Element e;
    e.kind = Kind::kTuple;
    e.from_channel = from;
    e.tuple = std::move(t);
    return e;
  }
  static Element MakeWatermark(Timestamp wm, int from) {
    Element e;
    e.kind = Kind::kWatermark;
    e.from_channel = from;
    e.watermark = wm;
    return e;
  }
  static Element MakeFlush(int from) {
    Element e;
    e.kind = Kind::kFlush;
    e.from_channel = from;
    return e;
  }
  /// Delivery anomaly: the stream was closed abnormally upstream (e.g. a
  /// stalled source given up on by the watermark watchdog); an unknown
  /// suffix of the input may never arrive.
  static Element MakeAnomaly(int from) {
    Element e;
    e.kind = Kind::kAnomaly;
    e.from_channel = from;
    return e;
  }
};

namespace {

using ElementQueue = BlockingQueue<Executor::Element>;

/// Converts whatever a bolt callback throws into a Status of `code`.
/// Bolts are supposed to be exception-free (the Status idiom), but a
/// supervised runtime must not let one escaping exception tear the
/// process down via std::terminate on the worker thread.
template <typename Fn>
Status GuardedBoltCall(StatusCode code, const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& ex) {
    return Status(code, std::string(what) + " threw: " + ex.what());
  } catch (...) {
    return Status(code, std::string(what) + " threw a non-std exception");
  }
}

/// Swallows what a recovering worker re-emits for windows that were
/// already delivered before its crash.
class DiscardEmitter : public Emitter {
 public:
  void Emit(Tuple) override {}
};

}  // namespace

/// Routes a worker's emissions to the next stage (or the output sink).
///
/// Tuple emissions are micro-batched per target queue: up to
/// `batch_max_tuples` tuples accumulate in a per-target buffer and move
/// downstream under one lock acquisition (BlockingQueue::PushAll). Buffers
/// flush unconditionally before any Broadcast (watermark/flush) and before
/// the owning worker blocks on an empty input queue, so tuples are never
/// reordered across a control element on their channel and never held back
/// while the pipeline idles. Per-channel FIFO order is preserved exactly:
/// batching only changes how many queue operations carry it.
class Executor::StageEmitter : public Emitter {
 public:
  StageEmitter(int my_task, const Partitioner* next_partitioner,
               std::vector<ElementQueue*> next_queues, std::size_t batch_max,
               WorkerMetrics* metrics, std::vector<Tuple>* local_output)
      : my_task_(my_task),
        next_partitioner_(next_partitioner),
        next_queues_(std::move(next_queues)),
        batch_max_(std::max<std::size_t>(batch_max, 1)),
        metrics_(metrics),
        local_output_(local_output) {
    buffers_.resize(next_queues_.size());
    for (auto& buffer : buffers_) buffer.reserve(batch_max_);
  }

  void Emit(Tuple tuple) override {
    ++emitted_;
    if (next_queues_.empty()) {
      // Sink stage: collect into the worker's private vector (merged once
      // after join) instead of contending on a shared output lock.
      local_output_->push_back(std::move(tuple));
      return;
    }
    const auto target = static_cast<std::size_t>(next_partitioner_->TargetTask(
        tuple, static_cast<int>(next_queues_.size()), &rr_state_));
    std::vector<Element>& buffer = buffers_[target];
    // Build the element in place (a temporary would cost an extra move of
    // the whole Element on this per-tuple path).
    Element& element = buffer.emplace_back();
    element.from_channel = my_task_;
    element.tuple = std::move(tuple);
    if (buffer.size() >= batch_max_) Flush(target);
  }

  /// Pushes every buffered tuple downstream immediately.
  void FlushAll() {
    for (std::size_t t = 0; t < buffers_.size(); ++t) Flush(t);
  }

  /// Sends a control element to every downstream queue, after flushing all
  /// buffered tuples so nothing is reordered across it. Control elements
  /// use the queue's reserved headroom (PushControl): a watermark or flush
  /// must never sit blocked behind a saturated data queue, or back-pressure
  /// would delay the very window closings that drain it.
  void Broadcast(Element element) {
    FlushAll();
    const std::size_t n = next_queues_.size();
    if (n == 0) return;
    for (std::size_t q = 0; q + 1 < n; ++q) {
      next_queues_[q]->PushControl(element);  // copy for all but the last...
    }
    next_queues_[n - 1]->PushControl(std::move(element));  // ...which moves
  }

  bool HasDownstream() const { return !next_queues_.empty(); }

  /// Tuples emitted since the last call: a worker adds them to its
  /// tuples_out once per popped batch, never per tuple.
  std::uint64_t TakeEmitted() { return std::exchange(emitted_, 0); }

 private:
  void Flush(std::size_t target) {
    std::vector<Element>& buffer = buffers_[target];
    if (buffer.empty()) return;
    std::int64_t blocked_ns = 0;
    next_queues_[target]->PushAll(std::move(buffer), &blocked_ns);
    if (blocked_ns > 0 && metrics_ != nullptr) {
      metrics_->AddBackpressureNs(blocked_ns);
    }
    // The vector's storage went downstream; PushAll left a spare a consumer
    // returned in its place, when the queue had one. reserve() allocates
    // only when it did not (or the spare is smaller than a batch).
    buffer.reserve(batch_max_);
  }

  const int my_task_;
  const Partitioner* next_partitioner_;
  std::vector<ElementQueue*> next_queues_;
  const std::size_t batch_max_;
  WorkerMetrics* metrics_;
  std::vector<Tuple>* local_output_;
  std::vector<std::vector<Element>> buffers_;
  std::uint64_t rr_state_ = 0;
  std::uint64_t emitted_ = 0;
};

Result<RunReport> Executor::Run() {
  const std::size_t num_stages = topology_.stages.size();
  const std::size_t batch_max =
      std::max<std::size_t>(topology_.batch_max_tuples, 1);

  RunReport report;

  // Re-arm the storages' simulated latency (a previous cancelled run may
  // have tripped their stop flag).
  for (SecondaryStorage* s : topology_.storages) s->ResetSimulatedLatency();

  // Checkpoint/recovery wiring. A run-private in-memory store is enough
  // for in-process worker restarts; an external store (file-backed) only
  // matters when the caller wants snapshots to outlive the process.
  const CheckpointConfig& ckpt = topology_.checkpoint;
  std::unique_ptr<InMemoryCheckpointStore> private_store;
  CheckpointStore* ckpt_store = ckpt.store;
  if (ckpt.enabled && ckpt_store == nullptr) {
    private_store = std::make_unique<InMemoryCheckpointStore>();
    ckpt_store = private_store.get();
  }
  // Source replay offset at the last completed NextBatch, recorded into
  // snapshot headers (advisory: in-process recovery replays from the
  // per-worker log; the offset lets an external driver re-seek a
  // re-created source after a full-process restart).
  std::atomic<std::uint64_t> source_offset{0};

  // --- Overload-control wiring -------------------------------------------
  // One detector per stage when a latency SLO is armed; bolts honoring
  // BoltContext::overload (SpearBolt) shed admissions while it is tripped.
  std::vector<std::unique_ptr<OverloadDetector>> detectors(num_stages);
  if (topology_.overload.ShedEnabled()) {
    for (std::size_t i = 0; i < num_stages; ++i) {
      detectors[i] = std::make_unique<OverloadDetector>(
          topology_.stages[i].name, topology_.overload);
    }
  }
  // --- Observability wiring ----------------------------------------------
  // report.metrics is the run's one registry: every worker, the source
  // included, counts into its shard. `.Metrics()` decides only what is
  // exported and whether per-tuple instruments (ctx.obs) are resolved.
  // Shards and tracers are created here (single-threaded).
  const obs::ObsConfig& obs_cfg = topology_.obs;
  std::vector<std::unique_ptr<obs::WindowTracer>> tracers;
  obs::PeriodicSampler sampler([&report] { return report.metrics.Collect(); },
                               obs_cfg.metrics);
  // Source-side signals read by workers (watermark lag) and the watchdog
  // (stall detection).
  std::atomic<Timestamp> source_wm{kMinTimestamp};
  std::atomic<std::uint64_t> source_progress{0};
  // Whoever CASes this false->true owns the stream close (final watermark
  // + flush): the source thread at end-of-stream, or the watchdog when it
  // declares the source stalled. Exactly one of them broadcasts.
  std::atomic<bool> source_closed{false};
  std::atomic<std::uint64_t> watchdog_advances{0};
  std::atomic<bool> watchdog_stop{false};

  // Dead-letter retention cap, shared across workers (admission counter);
  // the overflow is counted, not retained.
  const std::size_t max_dead_letters = topology_.max_dead_letters;
  std::atomic<std::uint64_t> dead_letters_admitted{0};
  std::atomic<std::uint64_t> dropped_dead_letters{0};

  // --- Wiring (single-threaded setup) ------------------------------------
  // queues[i][t]: input queue of stage i, task t.
  std::vector<std::vector<std::unique_ptr<ElementQueue>>> queues(num_stages);
  for (std::size_t i = 0; i < num_stages; ++i) {
    const int p = topology_.stages[i].parallelism;
    for (int t = 0; t < p; ++t) {
      queues[i].push_back(
          std::make_unique<ElementQueue>(topology_.queue_capacity));
    }
  }

  // One private output vector per sink-stage worker, merged after join in
  // task order (no cross-worker ordering is promised, with or without the
  // merge — per-worker order is what stays deterministic). Dead letters
  // follow the same pattern across every stage's workers.
  std::vector<std::vector<Tuple>> sink_outputs(
      static_cast<std::size_t>(topology_.stages[num_stages - 1].parallelism));
  std::size_t total_workers = 0;
  for (const StageSpec& s : topology_.stages) {
    total_workers += static_cast<std::size_t>(s.parallelism);
  }
  std::vector<std::vector<DeadLetter>> worker_dead_letters(total_workers);

  std::mutex error_mutex;
  Status first_error = Status::OK();
  std::vector<Status> suppressed_errors;
  std::atomic<bool> failed{false};

  // Keeps the *first* error deterministically; later distinct errors are
  // appended to the suppressed list (duplicates dropped) so multi-worker
  // failures stay debuggable instead of silently losing all but one.
  auto record_error = [&](const Status& status) {
    {
      std::lock_guard<std::mutex> lock(error_mutex);
      bool expected = false;
      if (failed.compare_exchange_strong(expected, true)) {
        first_error = status;
      } else if (suppressed_errors.size() < max_dead_letters &&
                 !(status == first_error) &&
                 std::find(suppressed_errors.begin(), suppressed_errors.end(),
                           status) == suppressed_errors.end()) {
        suppressed_errors.push_back(status);
      }
    }
    // Unblock everyone: closing the queues makes pending Push/Pop return,
    // cancelling simulated storage latency makes workers unwinding through
    // a storage call stop busy-waiting, and the cancel hooks unstick
    // operators blocked outside the executor's control (stalled spouts).
    for (auto& stage_queues : queues) {
      for (auto& q : stage_queues) q->Close();
    }
    for (SecondaryStorage* s : topology_.storages) s->CancelSimulatedLatency();
    for (const auto& hook : topology_.cancel_hooks) hook();
  };

  auto queues_of_stage = [&](std::size_t i) {
    std::vector<ElementQueue*> out;
    for (auto& q : queues[i]) out.push_back(q.get());
    return out;
  };

  // --- Worker threads -----------------------------------------------------
  std::vector<std::thread> threads;
  threads.reserve(1 + total_workers);

  std::size_t worker_index = 0;
  for (std::size_t i = 0; i < num_stages; ++i) {
    const StageSpec& stage = topology_.stages[i];
    const Partitioner* next_partitioner =
        i + 1 < num_stages ? &topology_.stages[i + 1].input_partitioner
                           : nullptr;

    for (int task = 0; task < stage.parallelism; ++task) {
      WorkerMetrics* metrics = report.metrics.Register(stage.name, task);
      obs::MetricsShard* obs_shard =
          obs_cfg.metrics_enabled ? metrics->shard() : nullptr;
      obs::WindowTracer* tracer = nullptr;
      if (obs_cfg.trace_enabled) {
        tracers.push_back(std::make_unique<obs::WindowTracer>(obs_cfg.trace));
        tracer = tracers.back().get();
      }
      ElementQueue* in_queue = queues[i][static_cast<std::size_t>(task)].get();
      std::vector<ElementQueue*> next_queues =
          i + 1 < num_stages ? queues_of_stage(i + 1)
                             : std::vector<ElementQueue*>{};
      std::vector<Tuple>* sink_output =
          i + 1 == num_stages ? &sink_outputs[static_cast<std::size_t>(task)]
                              : nullptr;
      std::vector<DeadLetter>* dead_letters =
          &worker_dead_letters[worker_index++];

      threads.emplace_back([&, i, task, metrics, in_queue, next_partitioner,
                            sink_output, dead_letters, obs_shard, tracer,
                            next_queues = std::move(next_queues)]() mutable {
        const StageSpec& my_stage = topology_.stages[i];
        // Resolve this worker's export-only gauges once.
        obs::Gauge* obs_queue_depth = nullptr;
        obs::Gauge* obs_shed_probability = nullptr;
        if (obs_shard != nullptr) {
          obs_queue_depth = obs_shard->GetGauge("queue_depth");
          obs_shard->GetGauge("queue_capacity")
              ->Set(static_cast<double>(in_queue->capacity()));
          if (detectors[i] != nullptr) {
            obs_shed_probability = obs_shard->GetGauge("shed_probability");
          }
        }
        StageEmitter emitter(task, next_partitioner, std::move(next_queues),
                             batch_max, metrics, sink_output);

        std::unique_ptr<Bolt> bolt = my_stage.bolt_factory(task);
        if (bolt == nullptr) {
          record_error(Status::Internal("stage '" + my_stage.name +
                                        "' factory returned null bolt"));
          return;
        }
        OverloadDetector* const detector = detectors[i].get();
        BoltContext ctx;
        ctx.task_id = task;
        ctx.parallelism = my_stage.parallelism;
        ctx.metrics = metrics;
        ctx.overload = detector;
        ctx.obs = obs_shard;
        ctx.tracer = tracer;
        if (Status s = GuardedBoltCall(
                StatusCode::kInternal, "bolt prepare",
                [&] { return bolt->Prepare(ctx); });
            !s.ok()) {
          record_error(s);
          return;
        }

        // Deterministic per-worker jitter stream for retry backoff.
        const std::uint64_t retry_seed =
            (static_cast<std::uint64_t>(i) << 32) ^
            static_cast<std::uint64_t>(task) ^ 0x5EA45EA4ULL;

        // --- Checkpoint/recovery state (inert when checkpointing is off:
        // cp stays null, no logging, no snapshots) ---------------------
        Checkpointable* cp = ckpt.enabled ? bolt->checkpointable() : nullptr;
        const bool log_replay = cp != nullptr;
        ReplayLog<Element> replay_log(ckpt.max_replay_tuples);
        Timestamp last_snapshot_wm = kMinTimestamp;
        // The last watermark whose OnWatermark returned OK: every window
        // it closed has been delivered.
        Timestamp delivered_wm = kMinTimestamp;
        std::uint64_t snapshot_seq = 0;
        int restarts = 0;

        const int channels = i == 0 ? 1 : topology_.stages[i - 1].parallelism;
        std::vector<Timestamp> channel_wm(
            static_cast<std::size_t>(channels), kMinTimestamp);
        std::vector<bool> channel_flushed(
            static_cast<std::size_t>(channels), false);
        int flushed_count = 0;
        Timestamp local_wm = kMinTimestamp;
        bool anomaly_seen = false;

        std::vector<Element> batch;
        batch.reserve(batch_max);

        // Tears a failed bolt down and rebuilds it in place: fresh
        // instance, state restored from the latest valid snapshot, then
        // the replay log and batch[.., replay_end) re-fed. Returns
        // OK when the worker may keep consuming; otherwise the error that
        // cancels the run.
        auto attempt_recovery = [&](const Status& cause,
                                    std::size_t replay_end) -> Status {
          if (!ckpt.enabled || failed.load(std::memory_order_relaxed)) {
            return cause;
          }
          if (restarts >= ckpt.max_recoveries_per_worker) {
            return Status(cause.code(),
                          "worker recovery budget exhausted after " +
                              std::to_string(restarts) +
                              " restarts: " + cause.message());
          }
          ++restarts;
          metrics->AddWorkerRestarts(1);
          bolt = my_stage.bolt_factory(task);
          if (bolt == nullptr) {
            return Status::Internal("stage '" + my_stage.name +
                                    "' factory returned null bolt during "
                                    "recovery");
          }
          if (Status s = GuardedBoltCall(
                  StatusCode::kInternal, "bolt prepare (recovery)",
                  [&] { return bolt->Prepare(ctx); });
              !s.ok()) {
            return s;
          }
          cp = bolt->checkpointable();
          if (cp == nullptr) return Status::OK();  // stateless: fresh bolt

          // kNotFound = crash before the first snapshot: start from fresh
          // state, the whole replay log re-feeds it.
          Result<CheckpointSnapshot> snap =
              ckpt_store->Latest(my_stage.name, task);
          if (snap.ok()) {
            if (Status s = cp->RestoreState(snap->payload); !s.ok()) {
              return s;
            }
          } else if (!snap.status().IsNotFound()) {
            return snap.status();
          }
          // Catch back up: replay the newest max_replay_tuples consumed
          // tuples, then re-close every window up to delivered_wm. All of
          // that was delivered before the crash (windows close as a
          // function of the watermark), so its output goes nowhere, and
          // the bolt records none of it again (SetCatchingUp).
          DiscardEmitter delivered;
          Status catch_up = Status::OK();
          cp->SetCatchingUp(true);
          const std::uint64_t lost =
              replay_log.Replay(batch, replay_end, [&](const Tuple& tuple) {
                if (!catch_up.ok()) return;
                Status es = GuardedBoltCall(
                    StatusCode::kInvalidArgument, "bolt execute (replay)",
                    [&] { return bolt->Execute(tuple, &delivered); });
                // Transient/data replay failures: the tuple was already
                // retried or quarantined on first delivery; skip it here.
                if (!es.ok() && ClassifyFailure(es) == FailureClass::kFatal) {
                  catch_up = es;
                }
              });
          if (catch_up.ok() && delivered_wm != kMinTimestamp) {
            catch_up = GuardedBoltCall(
                StatusCode::kInternal, "bolt watermark (recovery)",
                [&] { return bolt->OnWatermark(delivered_wm, &delivered); });
          }
          cp->SetCatchingUp(false);
          // The failed call was a watermark: its windows were never
          // delivered, so they go out now.
          if (catch_up.ok() && local_wm > delivered_wm) {
            catch_up = GuardedBoltCall(
                StatusCode::kInternal, "bolt watermark (recovery)",
                [&] { return bolt->OnWatermark(local_wm, &emitter); });
            if (catch_up.ok()) {
              delivered_wm = local_wm;
              if (emitter.HasDownstream()) {
                emitter.Broadcast(Element::MakeWatermark(local_wm, task));
              }
            }
          }
          // Tuples consumed since the snapshot that fell off the bounded
          // log are unrecoverable; fold them into the affected windows'
          // error estimates instead of silently ignoring them. Noted after
          // the catch-up, the loss lands on the windows still open across
          // the crash (or the next new window), never on a re-closed,
          // discarded one.
          if (catch_up.ok() && lost > 0) cp->NoteRecoveryLoss(lost);
          return catch_up;
        };

        std::uint32_t obs_gauge_tick = 0;

        while (!failed.load(std::memory_order_relaxed)) {
          batch.clear();
          replay_log.BeginBatch();
          if (in_queue->TryPopAll(&batch, batch_max) == 0) {
            // About to sleep: hand any buffered output downstream first so
            // a starved consumer is never waiting on tuples we hold.
            emitter.FlushAll();
            if (in_queue->PopAll(&batch, batch_max) == 0) {
              break;  // closed (cancelled run)
            }
          }
          if (detector != nullptr) {
            // Occupancy at pop time (the popped batch counts): observed
            // before the batch is processed, so admission already sees the
            // ramped shed probability for these very tuples.
            detector->ObserveQueue(in_queue->size() + batch.size(),
                                   in_queue->capacity());
          }
          // Decimated 64x: a gauge is a point-in-time sample scraped at
          // ms-scale, while in_queue->size() takes the queue mutex — a
          // per-batch update would double lock traffic at batch size 1.
          if (obs_queue_depth != nullptr && (obs_gauge_tick++ & 63u) == 0) {
            obs_queue_depth->Set(
                static_cast<double>(in_queue->size() + batch.size()));
            if (obs_shed_probability != nullptr) {
              obs_shed_probability->Set(detector->shed_probability());
            }
          }

          // Drain the popped batch locally; metrics updates are batched —
          // one timer read pair and one add per counter per popped batch
          // instead of per tuple.
          std::uint64_t batch_tuples = 0;
          std::int64_t batch_busy = 0;
          Status status = Status::OK();
          bool finished = false;

          {
            ScopedTimerNs timer(&batch_busy);
            for (std::size_t k = 0; k < batch.size(); ++k) {
              Element& element = batch[k];
              switch (element.kind) {
                case Element::Kind::kTuple: {
                  ++batch_tuples;
                  // Crash site: consulted in every worker whenever an
                  // injector arms it, so a fired crash with checkpointing
                  // disabled fails the run — the recovery subsystem is
                  // load-bearing, not decorative.
                  if (topology_.fault_injector != nullptr &&
                      topology_.fault_injector->armed(
                          FaultSite::kWorkerCrash) &&
                      topology_.fault_injector->Tick(FaultSite::kWorkerCrash)
                          .fire) {
                    status = attempt_recovery(
                        Status::Internal("injected fault: worker crash at "
                                         "stage '" +
                                         my_stage.name + "' task " +
                                         std::to_string(task)),
                        k);
                    if (!status.ok()) break;
                    // Recovered; the crash hit before this tuple was
                    // consumed, so it now processes normally.
                  }
                  // Supervised delivery: a thrown exception is a data
                  // error (confined to this tuple); transient failures
                  // are retried under the stage policy; what still fails
                  // non-transiently is quarantined, not fatal.
                  status = GuardedBoltCall(
                      StatusCode::kInvalidArgument, "bolt execute",
                      [&] { return bolt->Execute(element.tuple, &emitter); });
                  int attempts = 1;
                  if (!status.ok() && my_stage.retry.enabled()) {
                    Backoff backoff(my_stage.retry, retry_seed);
                    std::int64_t delay_ns = 0;
                    while (!status.ok() &&
                           ClassifyFailure(status) ==
                               FailureClass::kTransient &&
                           !failed.load(std::memory_order_relaxed) &&
                           backoff.NextDelay(&delay_ns)) {
                      BackoffSleep(delay_ns, &failed);
                      metrics->AddRetries(1);
                      ++attempts;
                      status = GuardedBoltCall(
                          StatusCode::kInvalidArgument, "bolt execute",
                          [&] {
                            return bolt->Execute(element.tuple, &emitter);
                          });
                      if (status.ok()) metrics->AddRecovered(1);
                    }
                  }
                  if (!status.ok() &&
                      ClassifyFailure(status) == FailureClass::kData) {
                    if (dead_letters_admitted.fetch_add(
                            1, std::memory_order_relaxed) <
                        max_dead_letters) {
                      // The replay log keeps the batch: copy, not move.
                      dead_letters->push_back(DeadLetter{
                          my_stage.name, task, attempts, status,
                          log_replay ? Tuple(element.tuple)
                                     : std::move(element.tuple)});
                    } else {
                      dropped_dead_letters.fetch_add(
                          1, std::memory_order_relaxed);
                    }
                    metrics->AddQuarantined(1);
                    status = Status::OK();  // the run goes on
                  }
                  if (!status.ok()) {
                    // Fatal or retry-exhausted: last resort is a restart
                    // from the checkpoint, replaying through the failing
                    // tuple (a deterministic failure fails its replay and
                    // cancels the run).
                    status = attempt_recovery(status, k + 1);
                  }
                  break;
                }
                case Element::Kind::kWatermark: {
                  auto& ch = channel_wm[static_cast<std::size_t>(
                      element.from_channel)];
                  ch = std::max(ch, element.watermark);
                  const Timestamp aligned =
                      *std::min_element(channel_wm.begin(), channel_wm.end());
                  if (aligned > local_wm) {
                    local_wm = aligned;
                    if (detector != nullptr &&
                        local_wm != WatermarkGenerator::FinalWatermark()) {
                      // How far this stage's aligned watermark trails the
                      // source's: a healthy (zero-lag) observation decays
                      // the shed probability, a laggy one ratchets it.
                      const Timestamp src =
                          source_wm.load(std::memory_order_relaxed);
                      if (src != kMinTimestamp &&
                          src != WatermarkGenerator::FinalWatermark()) {
                        detector->ObserveWatermarkLag(
                            src > local_wm ? src - local_wm : 0);
                      }
                    }
                    // Watermark work is not idempotent (window state
                    // advances), so it is guarded but never retried; an
                    // escaped exception here is recovered from the
                    // checkpoint when enabled, fatal otherwise.
                    status = GuardedBoltCall(
                        StatusCode::kInternal, "bolt watermark", [&] {
                          return bolt->OnWatermark(local_wm, &emitter);
                        });
                    if (status.ok()) {
                      delivered_wm = local_wm;
                      if (emitter.HasDownstream()) {
                        emitter.Broadcast(
                            Element::MakeWatermark(local_wm, task));
                      }
                      if (log_replay && cp != nullptr &&
                          local_wm != WatermarkGenerator::FinalWatermark() &&
                          (last_snapshot_wm == kMinTimestamp ||
                           local_wm - last_snapshot_wm >=
                               static_cast<Timestamp>(ckpt.interval))) {
                        // Snapshot right after emission: just-closed
                        // windows are out of the state, so the payload is
                        // O(b) in the open windows' budgets.
                        Result<std::string> payload = cp->SnapshotState();
                        if (payload.ok()) {
                          CheckpointSnapshot snapshot;
                          snapshot.stage = my_stage.name;
                          snapshot.task = task;
                          snapshot.sequence = snapshot_seq++;
                          snapshot.watermark = local_wm;
                          snapshot.source_offset =
                              source_offset.load(std::memory_order_relaxed);
                          snapshot.payload = std::move(*payload);
                          if (ckpt_store->Put(snapshot).ok()) {
                            last_snapshot_wm = local_wm;
                            replay_log.SnapshotAt(k);
                            metrics->AddSnapshots(1);
                            metrics->AddSnapshotBytes(
                                snapshot.payload.size());
                          }
                          // A failed Put leaves the previous snapshot
                          // (and the longer replay log) in charge — the
                          // run itself is unaffected.
                        }
                      }
                    } else {
                      // Recovery re-runs the catch-up watermark and
                      // broadcasts it itself.
                      status = attempt_recovery(status, k);
                    }
                  }
                  break;
                }
                case Element::Kind::kAnomaly: {
                  // Deliver once per worker (each upstream task forwards
                  // its own copy), then propagate so every downstream
                  // stage learns the stream was cut short before its
                  // final watermark arrives.
                  if (!anomaly_seen) {
                    anomaly_seen = true;
                    status = GuardedBoltCall(
                        StatusCode::kInternal, "bolt delivery anomaly",
                        [&] { return bolt->OnDeliveryAnomaly(&emitter); });
                    if (status.ok() && emitter.HasDownstream()) {
                      emitter.Broadcast(Element::MakeAnomaly(task));
                    }
                  }
                  break;
                }
                case Element::Kind::kFlush: {
                  auto flushed_flag = channel_flushed.begin() +
                                      element.from_channel;
                  if (!*flushed_flag) {
                    *flushed_flag = true;
                    ++flushed_count;
                  }
                  if (flushed_count == channels) {
                    status = GuardedBoltCall(
                        StatusCode::kInternal, "bolt finish",
                        [&] { return bolt->Finish(&emitter); });
                    if (status.ok()) {
                      if (emitter.HasDownstream()) {
                        emitter.Broadcast(Element::MakeFlush(task));
                      }
                      finished = true;  // every upstream channel is done
                    }
                  }
                  break;
                }
              }
              if (!status.ok() || finished) break;
            }
          }

          metrics->AddTuplesIn(batch_tuples);
          metrics->AddTuplesOut(emitter.TakeEmitted());
          metrics->AddBusyNs(batch_busy);
          metrics->AddBatchesPopped(1);
          if (!status.ok()) {
            record_error(status);
            return;
          }
          if (finished) return;  // worker done
          if (log_replay) replay_log.Keep(std::move(batch));
        }
      });
    }
  }

  // --- Source thread ------------------------------------------------------
  WorkerMetrics* source_metrics = report.metrics.Register("source", 0);
  threads.emplace_back([&, source_metrics]() {
    obs::Counter* obs_emitted = nullptr;
    obs::Gauge* obs_watermark = nullptr;
    if (obs_cfg.metrics_enabled) {
      obs_emitted = source_metrics->shard()->GetCounter("tuples_emitted");
      obs_watermark = source_metrics->shard()->GetGauge("watermark_ms");
    }
    StageEmitter emitter(0, &topology_.stages[0].input_partitioner,
                         queues_of_stage(0), batch_max, source_metrics,
                         nullptr);
    ReplayableSpout* const replay_source =
        topology_.source.spout->replayable();
    // With interval <= 0 the generator is never consulted: only the final
    // end-of-stream watermark fires.
    WatermarkGenerator generator(
        std::max<DurationMs>(topology_.source.watermark_interval, 1),
        topology_.source.max_lateness);

    std::vector<Tuple> pulled;
    pulled.reserve(batch_max);
    bool more = true;
    while (more && !failed.load(std::memory_order_relaxed) &&
           !source_closed.load(std::memory_order_acquire)) {
      pulled.clear();
      more = topology_.source.spout->NextBatch(&pulled, batch_max);
      source_progress.fetch_add(1, std::memory_order_relaxed);
      if (replay_source != nullptr) {
        source_offset.store(replay_source->ReplayOffset(),
                            std::memory_order_relaxed);
      }
      std::uint64_t emitted_this_batch = 0;
      for (Tuple& tuple : pulled) {
        // Re-check per tuple: once the watchdog closed the stream, every
        // further emission would land behind its flush marker and be
        // ignored — stop feeding the queues instead. Bounds the racing
        // overshoot to the one batch already pulled.
        if (source_closed.load(std::memory_order_acquire)) break;
        const Timestamp t = tuple.event_time();
        emitter.Emit(std::move(tuple));
        ++emitted_this_batch;
        if (topology_.source.watermark_interval > 0 && generator.Observe(t)) {
          const Timestamp wm = generator.current();
          source_wm.store(wm, std::memory_order_relaxed);
          if (obs_watermark != nullptr) {
            obs_watermark->Set(static_cast<double>(wm));
          }
          emitter.Broadcast(Element::MakeWatermark(wm, 0));
        }
      }
      if (obs_emitted != nullptr) obs_emitted->Add(emitted_this_batch);
    }
    // Final watermark releases every buffered window, then flush — unless
    // the watchdog already closed the stream on this source's behalf.
    bool expected = false;
    if (!source_closed.compare_exchange_strong(expected, true)) return;
    source_wm.store(WatermarkGenerator::FinalWatermark(),
                    std::memory_order_relaxed);
    emitter.Broadcast(
        Element::MakeWatermark(WatermarkGenerator::FinalWatermark(), 0));
    emitter.Broadcast(Element::MakeFlush(0));
  });

  // --- Watermark watchdog -------------------------------------------------
  // A source that makes no progress for `watchdog_idle` while the stage-0
  // queues sit *empty* is stalled, not back-pressured (a blocked-on-full
  // source would leave its queues non-empty). The watchdog takes over the
  // stream close: cancel hooks unstick the spout, an anomaly element tells
  // the bolts the input was cut short (open windows emit degraded instead
  // of posing as accurate), and the final watermark + flush release them.
  // All of its pushes are control elements (reserved headroom), so the
  // watchdog itself can never block on a queue.
  std::thread watchdog_thread;
  if (topology_.overload.WatchdogEnabled()) {
    watchdog_thread = std::thread([&]() {
      const std::int64_t idle_ns =
          topology_.overload.watchdog_idle * 1'000'000;
      const DurationMs poll_ms =
          std::max<DurationMs>(topology_.overload.watchdog_idle / 4, 1);
      std::uint64_t last_progress =
          source_progress.load(std::memory_order_relaxed);
      std::int64_t last_change_ns = NowNs();
      while (!watchdog_stop.load(std::memory_order_acquire) &&
             !failed.load(std::memory_order_relaxed) &&
             !source_closed.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
        const std::uint64_t progress =
            source_progress.load(std::memory_order_relaxed);
        if (progress != last_progress) {
          last_progress = progress;
          last_change_ns = NowNs();
          continue;
        }
        bool starved = true;
        for (auto& q : queues[0]) {
          if (q->size() != 0) {
            starved = false;
            break;
          }
        }
        if (!starved) {
          // Idle source but data still in flight: back-pressure territory.
          last_change_ns = NowNs();
          continue;
        }
        if (NowNs() - last_change_ns < idle_ns) continue;
        bool expected = false;
        if (!source_closed.compare_exchange_strong(expected, true)) break;
        watchdog_advances.fetch_add(1, std::memory_order_relaxed);
        for (const auto& hook : topology_.cancel_hooks) hook();
        StageEmitter closer(0, &topology_.stages[0].input_partitioner,
                            queues_of_stage(0), batch_max, nullptr, nullptr);
        closer.Broadcast(Element::MakeAnomaly(0));
        closer.Broadcast(Element::MakeWatermark(
            WatermarkGenerator::FinalWatermark(), 0));
        closer.Broadcast(Element::MakeFlush(0));
        break;
      }
    });
  }

  if (obs_cfg.metrics_enabled) sampler.Start();

  for (std::thread& t : threads) t.join();
  watchdog_stop.store(true, std::memory_order_release);
  if (watchdog_thread.joinable()) watchdog_thread.join();
  sampler.Stop();  // performs the final periodic scrape, if armed

  if (failed.load()) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (suppressed_errors.empty()) return first_error;
    // The report (and its suppressed list) is dropped on failure, so the
    // returned Status must carry the evidence itself.
    std::string message = first_error.message() + " [+" +
                          std::to_string(suppressed_errors.size()) +
                          " suppressed:";
    for (const Status& s : suppressed_errors) {
      message += " {" + s.ToString() + "}";
    }
    message += "]";
    return Status(first_error.code(), std::move(message));
  }

  // Merge the sink workers' private outputs in task order.
  std::size_t total = 0;
  for (const auto& part : sink_outputs) total += part.size();
  report.output.reserve(total);
  for (auto& part : sink_outputs) {
    std::move(part.begin(), part.end(), std::back_inserter(report.output));
  }
  // Merge the dead letters in (stage, task) order.
  for (auto& part : worker_dead_letters) {
    std::move(part.begin(), part.end(),
              std::back_inserter(report.dead_letters));
  }
  report.dead_letters_dropped =
      dropped_dead_letters.load(std::memory_order_relaxed);
  // One final scrape gives the fault and overload totals and, under
  // `.Metrics()`, the export; the injector and the watchdog add theirs.
  std::vector<obs::MetricSample> scrape = report.metrics.Collect();
  SumCountedSeries(scrape, &report.faults, &report.overload);
  if (topology_.fault_injector != nullptr) {
    report.faults.injected = topology_.fault_injector->total_fired();
  }
  report.recoveries = report.faults.worker_restarts;
  report.overload.watchdog_advances =
      watchdog_advances.load(std::memory_order_relaxed);
  report.observability.metrics_enabled = obs_cfg.metrics_enabled;
  report.observability.trace_enabled = obs_cfg.trace_enabled;
  if (obs_cfg.metrics_enabled) {
    report.observability.metrics = std::move(scrape);
    report.observability.scrapes = sampler.scrapes();
  }
  for (const auto& tracer : tracers) {
    std::vector<obs::TraceSpan> spans = tracer->Snapshot();
    std::move(spans.begin(), spans.end(),
              std::back_inserter(report.observability.spans));
    report.observability.spans_sampled_out += tracer->sampled_out();
    report.observability.spans_dropped += tracer->dropped();
  }
  return report;
}

}  // namespace spear

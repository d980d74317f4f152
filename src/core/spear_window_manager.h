#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/spear_config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ops/exact_operator.h"
#include "ops/window_result.h"
#include "runtime/metrics.h"
#include "stats/group_stats.h"
#include "stats/key_dictionary.h"
#include "stats/reservoir_sampler.h"
#include "storage/secondary_storage.h"
#include "tuple/field_extractor.h"
#include "window/tuple_buffer.h"

/// \file spear_window_manager.h
/// SPEAr's extension of the single-buffer window manager — the paper's
/// Algorithms 1 and 2 fused into Storm's tuple/watermark workflow
/// (Sec. 4.1-4.2).
///
/// Tuple arrival (Alg. 1): the raw tuple enters the arrival-ordered buffer
/// (spilling to S past the worker budget), and the *operation budget* b is
/// updated in O(1): per-window reservoir sample + running moments (scalar),
/// or per-group frequency/variance (grouped), or per-group reservoirs
/// (grouped with a known group count).
///
/// Watermark arrival (Alg. 2): for every complete window, an accuracy
/// estimate ε̂_w and approximate result R̂_w are produced from b alone. If
/// ε̂_w <= ε, R̂_w is emitted — O(b) work, no access to the raw window,
/// except that grouped operations with an unknown group count build their
/// stratified sample in one read of the window's buffered tuples (the
/// paper fuses it with Storm's eviction scan; TupleBuffer evicts whole
/// chunks without one). Otherwise the whole window is materialized
/// (possibly from S) and processed exactly, matching a normal SPE's cost.
///
/// Grouped modes key everything by dense group ids: OnTuple extracts and
/// interns the key once per tuple (KeyDictionary), the TupleBuffer keeps
/// each tuple's id in a side array, and the per-window trackers, per-group
/// reservoirs and the stratified-sample scan index flat arrays by id/slot.
/// Key strings remain only at the edges: the exact fallback, result
/// emission, the snapshot payload, and re-interning tuples fetched back
/// from S.

namespace spear {

/// \brief SPEAr execution modes, derived from the operator configuration.
enum class SpearMode {
  /// Non-holistic scalar with incremental optimization: exact R_w from a
  /// running accumulator; the budget sample is kept for anomaly recovery.
  kScalarIncremental,
  /// Scalar estimated from the reservoir sample (generic model path; also
  /// used when a custom estimator is installed).
  kScalarSampled,
  /// Holistic scalar (percentile): sample-size budget test.
  kScalarQuantile,
  /// Grouped, group count unknown: frequencies/variances tracked in b;
  /// stratified sample built in one read of the window's tuples on accept.
  kGroupedUnknown,
  /// Grouped, group count declared at submission: per-group reservoirs
  /// maintained at tuple arrival; no scan needed on accept.
  kGroupedKnown,
};

const char* SpearModeName(SpearMode mode);

/// \brief One SPEAr worker's stateful-operation manager.
///
/// Single-threaded; each runtime worker owns one instance.
class SpearWindowManager {
 public:
  /// \param config         operation configuration (validated here)
  /// \param value_extractor pulls the aggregated value out of a tuple
  /// \param key_extractor  group key; null => scalar operation
  /// \param storage        spill target; required when
  ///                       config.buffer_memory_capacity > 0
  /// \param spill_key      S key prefix for this worker
  SpearWindowManager(SpearOperatorConfig config,
                     ValueExtractor value_extractor,
                     KeyExtractor key_extractor = nullptr,
                     SecondaryStorage* storage = nullptr,
                     std::string spill_key = "spear");

  /// Alg. 1. `coord` is the tuple's window coordinate (event time or
  /// sequence number).
  void OnTuple(std::int64_t coord, Tuple tuple);

  /// Accounts one tuple dropped at admission by load shedding before any
  /// ingest work (no buffer entry, no spill, no sampler offer). The shed
  /// count is exact per window: ε̂_w gains the shed ratio
  /// (lost+shed)/(count+lost+shed) — the same AF-Stream accounting as
  /// recovery loss — count/sum estimates are rescaled to the full
  /// population count+shed, and the exact fallback is off the table for
  /// the affected windows (their raw buffer is incomplete by design).
  void OnTupleShed(std::int64_t coord);

  /// Marks every active window truncated: the stream was closed abnormally
  /// (watermark watchdog gave up on a stalled source) and an unknown
  /// suffix of each window's input may be missing, so their results are
  /// emitted via the degraded path — the error bound is unverifiable.
  void NoteStreamTruncation();

  /// Alg. 2. Emits one WindowResult per complete non-empty window, in
  /// ascending window order.
  Result<std::vector<WindowResult>> OnWatermark(std::int64_t watermark);

  /// Reports an external delivery anomaly (e.g. an upstream failure or
  /// replay): every active window's incremental result is demoted to the
  /// sample-estimate path. Late tuples trigger this automatically for the
  /// active windows that should have contained them.
  void NotifyDeliveryAnomaly();

  /// Serializes the manager's O(b) state for checkpointing: budget state
  /// of every active window (running moments, reservoir contents, group
  /// trackers), watermark/window bookkeeping, the spill manifest, and the
  /// decision statistics. The raw in-memory tuple buffer is deliberately
  /// NOT serialized — that is the whole point of approximate fault
  /// tolerance (AF-Stream): the snapshot stays O(b), and what the buffer
  /// held is either replayed by the executor or accounted as loss.
  Result<std::string> SnapshotState() const;

  /// Replaces this manager's state with a snapshot produced by
  /// SnapshotState() on an identically configured manager. Every restored
  /// window is flagged `recovered`: its raw buffer is incomplete, so the
  /// exact fallback and the grouped stratified scan are off the table —
  /// those windows answer from the budget state (possibly degraded).
  /// The raw buffer restarts empty. When the snapshot recorded a spill
  /// run, that run is erased from S and a fresh one starts, so the tuples
  /// the executor replays spill once, not twice (recovered windows never
  /// read the raw run, so nothing is lost).
  Status RestoreState(const std::string& payload);

  /// Accounts `lost_tuples` consumed-but-unreplayable tuples (they fell
  /// off the executor's bounded replay log): every active window's ε̂_w
  /// gains the loss ratio lost/(count+lost) and the window is flagged
  /// anomalous + recovered. With no active window the loss is attached to
  /// the next window that opens.
  void NoteRecoveryLoss(std::uint64_t lost_tuples);

  SpearMode mode() const { return mode_; }
  const SpearOperatorConfig& config() const { return config_; }
  const DecisionStats& decision_stats() const { return decision_stats_; }

  /// Wires the owning worker's metrics (fault and overload counters, and
  /// each window's time and memory samples). Optional; null disables
  /// reporting.
  void SetMetrics(WorkerMetrics* metrics) { metrics_ = metrics; }

  /// Recovery's catch-up (Checkpointable::SetCatchingUp): while on, window
  /// outcomes update only DecisionStats and the budget controller, and
  /// reach no WorkerMetrics, obs instrument or trace span; replayed tuples
  /// reach no ingest counter (they were counted on first delivery).
  void SetCatchingUp(bool catching_up) { catching_up_ = catching_up; }

  /// Wires the observable layer: the worker's metrics shard (export-only
  /// counters and gauges) and/or the per-window trace sink. Either may be
  /// null; `stage`/`task` label the emitted spans. Instruments are
  /// resolved here once, so the updates stay lock-free.
  void SetObservability(obs::MetricsShard* shard, obs::WindowTracer* tracer,
                        std::string stage, int task);

  /// Test hook for the accuracy-audit guard: drops the loss accounting —
  /// shed/lost tuples stop inflating ε̂_w and stop rescaling count/sum
  /// estimates to the full population. Estimates then systematically
  /// overshoot their accuracy claim under shedding, which the statistical
  /// audit must detect (proving the audit would catch a real regression
  /// in the ε̂_w arithmetic).
  void IgnoreLossAccountingForTesting() { ignore_loss_accounting_ = true; }

  /// Test hook: wipes the budget state (samplers/trackers) of every
  /// active window, simulating corruption. Subsequent decisions detect it
  /// and fall back to exact processing.
  void CorruptBudgetForTesting();

  /// Tuples currently buffered (memory + spill).
  std::size_t BufferedTuples() const { return buffer_.size(); }

  /// Group-key ids held by in-memory buffered tuples and open windows'
  /// group slots (grouped modes; empty for scalar modes).
  const KeyDictionary& key_dictionary() const { return keys_; }

  /// Bytes of budget state (samples + statistics) across active windows —
  /// the "memory used for producing the result" of Fig. 7.
  std::size_t BudgetMemoryBytes() const;

  /// Bytes of raw buffered tuples resident in memory.
  std::size_t BufferMemoryBytes() const { return buffer_.MemoryBytes(); }

  /// The per-window sample capacity derived from the budget (the value
  /// new windows open with right now, when adaptive).
  std::size_t budget_elements() const;

  /// The adaptive controller, or null when the budget is fixed.
  const BudgetController* budget_controller() const {
    return budget_controller_ ? &*budget_controller_ : nullptr;
  }

 private:
  /// Budget state of one active window.
  struct WindowState {
    /// Sample budget this window was opened with (fixed-budget managers
    /// use the configured value; adaptive managers snapshot the
    /// controller at window creation).
    std::size_t budget = 0;
    std::uint64_t count = 0;               ///< |S_w| so far (exact)
    /// Delivery anomaly observed while this window was active (late or
    /// dropped tuples): incremental results can no longer be trusted as
    /// exact, so SPEAr falls back to the sample + accuracy estimate
    /// (paper Sec. 4.1: "SPEAr uses b's contents only when an anomaly is
    /// detected in tuple delivery").
    bool anomalous = false;
    /// The window lived through a crash/restore cycle: its raw buffer is
    /// incomplete, so exact fallback and buffer scans are unavailable.
    bool recovered = false;
    /// Consumed tuples lost from this window's budget state in recovery
    /// (beyond the replay log); inflates ε̂_w by lost/(count+lost).
    std::uint64_t lost = 0;
    /// Tuples shed at admission while this window was active (exact
    /// count, unlike `lost`); inflates ε̂_w together with `lost` and
    /// rescales count/sum estimates to the population count+shed.
    std::uint64_t shed = 0;
    /// The stream closed abnormally under this window (watchdog): an
    /// unknown suffix is missing, so the window must emit degraded.
    bool truncated = false;
    RunningStats stats;                    ///< full-window moments (scalar)
    std::unique_ptr<ReservoirSampler<double>> sample;  ///< scalar modes
    std::unique_ptr<GroupStatsTracker> groups;         ///< grouped modes
    /// Per-group reservoirs, indexed by the tracker's slots (kGroupedKnown
    /// only).
    std::vector<ReservoirSampler<double>> group_samples;
  };

  static SpearMode DeriveMode(const SpearOperatorConfig& config,
                              bool is_grouped);

  /// Admission shared by OnTuple and OnTupleShed: false for a late coord
  /// (counted; flags the active windows that should have held it as
  /// anomalous, Sec. 4.1), else notes the earliest window it opens.
  bool Admit(std::int64_t coord);

  WindowState& StateFor(std::int64_t window_start);
  /// Alg. 1 budget update of one window; `key_id` is the tuple's group id
  /// (grouped modes only).
  void UpdateWindowState(WindowState* state, double value,
                         std::uint32_t key_id);

  /// How one closed window's result was produced.
  struct WindowOutcome {
    obs::TraceSpan::Verdict verdict = obs::TraceSpan::Verdict::kExpedited;
    /// The decision fell back to exact (Alg. 2 line 5), whether the exact
    /// fallback then ran or the window degraded.
    bool fell_back = false;
    bool deadline_abort = false;  ///< the exact fallback blew its deadline
    bool spilled = false;         ///< S held tuples when the window closed
    bool recovered = false;       ///< the window lived through a restore
    bool shed_loss = false;       ///< tuples were shed from the window
  };

  /// Alg. 2 for one complete window: the accepted estimate, the exact
  /// fallback, or (when the fallback cannot give a true answer) the
  /// degraded estimate. Fills in `outcome`'s verdict, fallback and
  /// deadline flags.
  Result<WindowResult> CloseWindow(const WindowBounds& bounds,
                                   const WindowState& state,
                                   WindowOutcome* outcome);

  /// The expedite test on the window's budget state: the accepted result,
  /// or nullopt when the window must fall back to exact. The state must
  /// not be corrupted.
  Result<std::optional<WindowResult>> DecideWindow(const WindowBounds& bounds,
                                                   const WindowState& state);

  /// Feeds one emitted window's outcome to DecisionStats, the budget
  /// controller, WorkerMetrics, the obs counters and histogram, and the
  /// trace span. The only code that records window outcomes.
  void RecordOutcome(const WindowBounds& bounds, const WindowState& state,
                     const WindowResult& result, const WindowOutcome& outcome);

  /// ε̂_w's delivery-loss inflation (0 with loss accounting off).
  double LossInflationOf(const WindowState& state) const;

  /// Scalar estimation dispatch (built-in or custom estimator).
  Result<ScalarEstimate> EstimateScalarForState(const WindowState& state);

  /// Builds the stratified sample for an accepted grouped-unknown window
  /// by scanning the buffer once, then evaluates every group.
  /// `sample_sizes` is the per-slot allocation n_g.
  Status PopulateGroupedResultFromScan(
      const WindowBounds& bounds, const GroupStatsTracker& tracker,
      const std::vector<std::uint64_t>& sample_sizes, WindowResult* result);

  /// Evaluates groups from per-group reservoirs (kGroupedKnown accept).
  Status PopulateGroupedResultFromReservoirs(const WindowState& state,
                                             WindowResult* result);

  /// One group's aggregate from its stratified sample and its exact
  /// window frequency N_g.
  Result<double> GroupValue(std::span<const double> sample,
                            std::uint64_t frequency) const;

  /// Materializes a window's tuples for exact processing. A non-zero
  /// `deadline_ns` (absolute, NowNs clock) makes the copy loop check the
  /// clock periodically and abort with Status::Cancelled once past it —
  /// the cooperative half of the deadline-bounded exact fallback.
  Result<CompleteWindow> MaterializeWindow(const WindowBounds& bounds,
                                           std::int64_t deadline_ns = 0);

  /// True when the window's budget state is internally inconsistent (null
  /// sampler/tracker, or a sample larger than the window): the estimate
  /// cannot be trusted, so the decision falls back to exact.
  bool BudgetStateCorrupted(const WindowState& state) const;

  /// Emits the window from its budget state, flagged degraded, when no
  /// true answer can be given (truncated stream, incomplete restored or
  /// shed buffer, S unavailable, blown deadline): the AF-Stream trade of
  /// accuracy for availability. Holistic grouped-unknown windows cannot
  /// degrade (their result needs the raw window) and return Unavailable.
  Result<WindowResult> MakeDegradedResult(const WindowBounds& bounds,
                                          const WindowState& state);

  const SpearOperatorConfig config_;
  const SpearMode mode_;
  const ValueExtractor value_extractor_;
  const KeyExtractor key_extractor_;

  const std::size_t budget_elements_;
  const std::size_t max_groups_;
  const ExactWindowOperator exact_operator_;
  std::optional<BudgetController> budget_controller_;

  /// Group-key ids. Declared before everything that holds ids, so it
  /// outlives them.
  KeyDictionary keys_;

  /// Raw tuples; in grouped modes each in-memory one holds a key-id ref.
  TupleBuffer buffer_;

  std::map<std::int64_t, WindowState> window_states_;
  std::int64_t next_window_start_ = 0;
  bool saw_any_tuple_ = false;
  std::int64_t last_watermark_;
  std::uint64_t sampler_seq_ = 0;
  /// Recovery loss reported while no window was active; charged to the
  /// next window that opens (see NoteRecoveryLoss).
  std::uint64_t pending_lost_ = 0;
  /// Size of the last snapshot payload: the next one reserves it up front.
  mutable std::size_t last_snapshot_bytes_ = 0;

  WorkerMetrics* metrics_ = nullptr;
  bool ignore_loss_accounting_ = false;
  bool catching_up_ = false;

  // Observability (all null when the topology runs unobserved).
  obs::WindowTracer* tracer_ = nullptr;
  std::string obs_stage_;
  int obs_task_ = 0;
  /// Expedited and exact window counters, indexed by Verdict.
  std::array<obs::Counter*, 2> obs_windows_by_verdict_{};
  obs::Counter* obs_windows_recovered_ = nullptr;
  obs::Counter* obs_tuples_seen_ = nullptr;
  obs::Counter* obs_late_tuples_ = nullptr;
  obs::Counter* obs_spill_tuples_ = nullptr;
  obs::Gauge* obs_buffered_tuples_ = nullptr;
  obs::Gauge* obs_budget_bytes_ = nullptr;

  DecisionStats decision_stats_;
};

}  // namespace spear

#include "core/spear_window_manager.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "checkpoint/wire.h"
#include "common/time.h"
#include "stats/quantile.h"
#include "stats/stratified_sample.h"
#include "window/window_assigner.h"

namespace spear {

namespace {

/// Version byte of the manager's checkpoint payload.
/// v2: per-window shed/truncated flags, reservoir skipped counts, tracker
/// shed counts, shed/deadline decision counters (overload control).
constexpr std::uint8_t kManagerPayloadVersion = 2;

void AppendRunningStats(std::string* out, const RunningStats& stats) {
  const RunningStats::State s = stats.state();
  wire::AppendU64(out, s.count);
  wire::AppendF64(out, s.mean);
  wire::AppendF64(out, s.m2);
  wire::AppendF64(out, s.m3);
  wire::AppendF64(out, s.m4);
  wire::AppendF64(out, s.sum);
  wire::AppendF64(out, s.min);
  wire::AppendF64(out, s.max);
}

Result<RunningStats> ReadRunningStats(wire::Reader* reader) {
  RunningStats::State s;
  SPEAR_ASSIGN_OR_RETURN(s.count, reader->ReadU64());
  SPEAR_ASSIGN_OR_RETURN(s.mean, reader->ReadF64());
  SPEAR_ASSIGN_OR_RETURN(s.m2, reader->ReadF64());
  SPEAR_ASSIGN_OR_RETURN(s.m3, reader->ReadF64());
  SPEAR_ASSIGN_OR_RETURN(s.m4, reader->ReadF64());
  SPEAR_ASSIGN_OR_RETURN(s.sum, reader->ReadF64());
  SPEAR_ASSIGN_OR_RETURN(s.min, reader->ReadF64());
  SPEAR_ASSIGN_OR_RETURN(s.max, reader->ReadF64());
  return RunningStats::FromState(s);
}

void AppendReservoir(std::string* out,
                     const ReservoirSampler<double>& sampler) {
  wire::AppendU64(out, sampler.capacity());
  wire::AppendU64(out, sampler.seen());
  wire::AppendU64(out, sampler.skipped());
  wire::AppendU64(out, sampler.sample().size());
  for (const double v : sampler.sample()) wire::AppendF64(out, v);
}

/// The delivery-loss error inflation (AF-Stream-style bounded divergence):
/// `lost` of the window's `count + lost` tuples never reached the budget
/// state — replay-gap loss and admission shedding alike — so any estimate
/// can be off by at most that mass fraction (for the mean-like aggregates
/// SPEAr bounds in relative error).
double LossInflation(std::uint64_t count, std::uint64_t lost) {
  if (lost == 0) return 0.0;
  return static_cast<double>(lost) / static_cast<double>(count + lost);
}

}  // namespace

const char* SpearModeName(SpearMode mode) {
  switch (mode) {
    case SpearMode::kScalarIncremental:
      return "scalar-incremental";
    case SpearMode::kScalarSampled:
      return "scalar-sampled";
    case SpearMode::kScalarQuantile:
      return "scalar-quantile";
    case SpearMode::kGroupedUnknown:
      return "grouped-unknown";
    case SpearMode::kGroupedKnown:
      return "grouped-known";
  }
  return "?";
}

SpearMode SpearWindowManager::DeriveMode(const SpearOperatorConfig& config,
                                         bool is_grouped) {
  if (is_grouped) {
    return config.known_num_groups > 0 ? SpearMode::kGroupedKnown
                                       : SpearMode::kGroupedUnknown;
  }
  if (config.aggregate.IsHolistic()) return SpearMode::kScalarQuantile;
  if (config.custom_estimator) return SpearMode::kScalarSampled;
  return config.incremental_optimization ? SpearMode::kScalarIncremental
                                         : SpearMode::kScalarSampled;
}

SpearWindowManager::SpearWindowManager(SpearOperatorConfig config,
                                       ValueExtractor value_extractor,
                                       KeyExtractor key_extractor,
                                       SecondaryStorage* storage,
                                       std::string spill_key)
    : config_(std::move(config)),
      mode_(DeriveMode(config_, static_cast<bool>(key_extractor))),
      value_extractor_(std::move(value_extractor)),
      key_extractor_(std::move(key_extractor)),
      budget_elements_(config_.budget.ElementsFor(sizeof(double))),
      // Per the paper, b holds floor(b / (r + 4 + f)) groups' metadata;
      // for tuple-denominated budgets the capacity is one group per slot.
      max_groups_(config_.budget.IsByteDenominated()
                      ? config_.budget.ElementsFor(8 + 4 + sizeof(double))
                      : budget_elements_),
      exact_operator_(config_.aggregate, value_extractor_, key_extractor_),
      buffer_(config_.buffer_memory_capacity, storage, std::move(spill_key),
              config_.storage_retry, config_.seed),
      last_watermark_(kMinTimestamp) {
  SPEAR_CHECK(config_.Validate().ok());
  SPEAR_CHECK(budget_elements_ > 0);
  if (key_extractor_) buffer_.TrackKeys(&keys_, key_extractor_);
  buffer_.SetRetryHook([this](std::uint64_t retries, std::uint64_t recovered) {
    if (metrics_ == nullptr) return;
    metrics_->AddRetries(retries);
    metrics_->AddRecovered(recovered);
  });
  if (config_.adaptive_budget) {
    BudgetController::Options options = config_.adaptive_options;
    options.initial_budget = budget_elements_;
    options.min_budget = std::min(options.min_budget, budget_elements_);
    options.max_budget = std::max(options.max_budget, budget_elements_);
    auto controller = BudgetController::Make(options);
    SPEAR_CHECK(controller.ok());
    budget_controller_.emplace(std::move(*controller));
  }
}

std::size_t SpearWindowManager::budget_elements() const {
  return budget_controller_ ? budget_controller_->budget() : budget_elements_;
}

void SpearWindowManager::SetObservability(obs::MetricsShard* shard,
                                          obs::WindowTracer* tracer,
                                          std::string stage, int task) {
  tracer_ = tracer;
  obs_stage_ = std::move(stage);
  obs_task_ = task;
  if (shard == nullptr) return;
  obs_windows_by_verdict_ = {shard->GetCounter("windows_expedited"),
                             shard->GetCounter("windows_exact")};
  obs_windows_recovered_ = shard->GetCounter("windows_recovered");
  obs_tuples_seen_ = shard->GetCounter("tuples_seen");
  obs_late_tuples_ = shard->GetCounter("late_tuples");
  obs_spill_tuples_ = shard->GetCounter("spill_tuples");
  obs_buffered_tuples_ = shard->GetGauge("buffered_tuples");
  obs_budget_bytes_ = shard->GetGauge("budget_state_bytes");
}

SpearWindowManager::WindowState& SpearWindowManager::StateFor(
    std::int64_t window_start) {
  auto it = window_states_.find(window_start);
  if (it != window_states_.end()) return it->second;
  WindowState state;
  // Snapshot the budget the window opens with (fixed, or the adaptive
  // controller's current value).
  state.budget = budget_elements();
  switch (mode_) {
    case SpearMode::kScalarIncremental:
    case SpearMode::kScalarSampled:
    case SpearMode::kScalarQuantile:
      state.sample = std::make_unique<ReservoirSampler<double>>(
          state.budget, config_.seed + sampler_seq_++);
      break;
    case SpearMode::kGroupedUnknown:
    case SpearMode::kGroupedKnown:
      state.groups = std::make_unique<GroupStatsTracker>(
          config_.budget.IsByteDenominated() ? max_groups_ : state.budget,
          &keys_);
      break;
  }
  if (pending_lost_ > 0) {
    // Recovery loss reported while no window was active: the lost tuples'
    // windows are unknown, so charge the first window that opens (an
    // upper bound — better flagged too pessimistically than not at all).
    state.lost = pending_lost_;
    state.anomalous = true;
    state.recovered = true;
    pending_lost_ = 0;
  }
  return window_states_.emplace(window_start, std::move(state)).first->second;
}

void SpearWindowManager::UpdateWindowState(WindowState* state, double value,
                                           std::uint32_t key_id) {
  ++state->count;
  switch (mode_) {
    case SpearMode::kScalarIncremental:
    case SpearMode::kScalarSampled:
    case SpearMode::kScalarQuantile:
      state->stats.Update(value);
      // Null after budget-state corruption: the window is already doomed
      // to the exact fallback, so just stop feeding the estimate.
      if (state->sample) state->sample->Offer(value);
      break;
    case SpearMode::kGroupedUnknown:
      if (state->groups) state->groups->Update(key_id, value);
      break;
    case SpearMode::kGroupedKnown: {
      if (state->groups == nullptr) break;  // corrupted: exact fallback
      const std::uint32_t slot = state->groups->Observe(key_id, value);
      // Overflowed: more groups than declared, the window falls back.
      if (slot == GroupStatsTracker::kNoSlot) break;
      if (slot == state->group_samples.size()) {
        const std::size_t cap = std::max<std::size_t>(
            state->budget / config_.known_num_groups, 1);
        state->group_samples.emplace_back(cap, config_.seed + sampler_seq_++);
      }
      state->group_samples[slot].Offer(value);
      break;
    }
  }
}

void SpearWindowManager::NotifyDeliveryAnomaly() {
  for (auto& [start, state] : window_states_) state.anomalous = true;
}

void SpearWindowManager::NoteRecoveryLoss(std::uint64_t lost_tuples) {
  if (lost_tuples == 0) return;
  if (window_states_.empty()) {
    pending_lost_ += lost_tuples;
    return;
  }
  // The lost tuples' window membership is unknown (they were never
  // replayed); charge every active window the full loss — each window's
  // ε̂_w inflation then upper-bounds the tuples it could have missed.
  for (auto& [start, state] : window_states_) {
    state.lost += lost_tuples;
    state.anomalous = true;
    state.recovered = true;
  }
}

bool SpearWindowManager::Admit(std::int64_t coord) {
  if (coord < last_watermark_) {
    ++decision_stats_.late_tuples;
    if (obs_late_tuples_ != nullptr && !catching_up_) {
      obs_late_tuples_->Increment();
    }
    // Still-active windows that should have contained this tuple now hold
    // incomplete state: flag the delivery anomaly (Sec. 4.1).
    for (auto& [start, state] : window_states_) {
      if (coord >= start && coord < start + config_.window.range) {
        state.anomalous = true;
      }
    }
    return false;
  }
  if (!saw_any_tuple_) {
    next_window_start_ = FirstWindowStartFor(config_.window, coord);
    saw_any_tuple_ = true;
  } else {
    next_window_start_ = std::min(
        next_window_start_, FirstWindowStartFor(config_.window, coord));
  }
  return true;
}

void SpearWindowManager::OnTupleShed(std::int64_t coord) {
  if (!Admit(coord)) return;  // late: it would have joined no active window
  ++decision_stats_.tuples_shed;

  // Account the drop against every window the tuple would have joined.
  // The budget state stays a uniform sample of the *admitted* subset; the
  // samplers record the skipped mass so inclusion probabilities (and the
  // count/sum rescaling) stay honest, and `shed` feeds ε̂_w inflation.
  const auto charge = [&](WindowState* state) {
    ++state->shed;
    state->anomalous = true;  // incremental results can no longer be exact
    if (state->sample) state->sample->NoteSkipped(1);
    if (state->groups) state->groups->NoteShed(1);
  };
  if (config_.window.IsTumbling()) {
    charge(&StateFor(LastWindowStartFor(config_.window, coord)));
  } else {
    for (const WindowBounds& w : AssignWindows(config_.window, coord)) {
      charge(&StateFor(w.start));
    }
  }
}

void SpearWindowManager::NoteStreamTruncation() {
  for (auto& [start, state] : window_states_) {
    state.anomalous = true;
    state.truncated = true;
  }
}

void SpearWindowManager::OnTuple(std::int64_t coord, Tuple tuple) {
  if (!Admit(coord)) return;
  ++decision_stats_.tuples_seen;
  // Replayed tuples were counted on their first delivery.
  const bool counted = obs_tuples_seen_ != nullptr && !catching_up_;
  if (counted) obs_tuples_seen_->Increment();

  // Alg. 1: update the budget state of every window the tuple joins
  // (tumbling fast path avoids the per-tuple window-list allocation).
  // Grouped modes hash the key once here; the windows index by its id.
  const double value = value_extractor_(tuple);
  const std::uint32_t key_id = key_extractor_
                                   ? keys_.Intern(key_extractor_(tuple))
                                   : KeyDictionary::kNoId;
  if (config_.window.IsTumbling()) {
    UpdateWindowState(&StateFor(LastWindowStartFor(config_.window, coord)),
                      value, key_id);
  } else {
    for (const WindowBounds& w : AssignWindows(config_.window, coord)) {
      UpdateWindowState(&StateFor(w.start), value, key_id);
    }
  }

  // Raw tuple custody: memory within the worker budget, S beyond it.
  const TupleBuffer::Custody custody =
      buffer_.Append(coord, std::move(tuple), key_id);
  if (custody == TupleBuffer::Custody::kSpilled) {
    if (counted) obs_spill_tuples_->Increment();
  } else if (custody == TupleBuffer::Custody::kSpillFailed) {
    if (metrics_ != nullptr) metrics_->AddSpillFailures(1);
  }
}

Result<ScalarEstimate> SpearWindowManager::EstimateScalarForState(
    const WindowState& state) {
  // Window size for estimation is the *population* the sample stands for:
  // admitted tuples plus tuples shed at admission. Count/sum estimates
  // then stay centered under uniform shedding (count+shed is exact; sum
  // scales the sample mean to the full population), and any non-uniform
  // shedding bias is covered by the ε̂_w shed inflation in DecideWindow.
  const std::uint64_t population = ignore_loss_accounting_
                                       ? state.count
                                       : state.count + state.shed;
  if (config_.custom_estimator) {
    return config_.custom_estimator(state.sample->sample(), state.stats,
                                    population, config_.accuracy);
  }
  if (mode_ == SpearMode::kScalarQuantile) {
    return EstimateScalarQuantile(config_.aggregate.phi,
                                  state.sample->sample(), population,
                                  config_.accuracy, config_.quantile_bound);
  }
  return EstimateScalar(config_.aggregate, state.sample->sample(),
                        state.stats, population, config_.accuracy);
}

Status SpearWindowManager::PopulateGroupedResultFromScan(
    const WindowBounds& bounds, const GroupStatsTracker& tracker,
    const std::vector<std::uint64_t>& sample_sizes, WindowResult* result) {
  // Build the stratified sample in one read of the window's buffer chunks.
  // Each tuple's group slot comes from its stored key id (no key
  // extraction, no string hash), and only kept tuples have their value
  // extracted.
  StratifiedSample sample(sample_sizes, config_.seed + sampler_seq_++);
  Status scanned;
  buffer_.ForEachIn(bounds, [&](const Tuple& tuple, std::uint32_t key_id) {
    const std::uint32_t slot = tracker.SlotOf(key_id);
    if (slot == GroupStatsTracker::kNoSlot) {
      scanned = Status::Internal("buffered tuple's group '" +
                                 keys_.KeyOf(key_id) +
                                 "' missing from its window's tracker");
      return false;
    }
    sample.Offer(slot, [&] { return value_extractor_(tuple); });
    return true;
  });
  SPEAR_RETURN_NOT_OK(scanned);

  result->is_grouped = true;
  result->groups.reserve(tracker.num_groups());
  std::uint64_t processed = 0;
  for (const std::uint32_t slot : tracker.SlotsByKey()) {
    if (sample.seen(slot) == 0) {
      return Status::Internal("group '" + tracker.key_at(slot) +
                              "' tracked but absent from window scan");
    }
    processed += sample.sample(slot).size();
    SPEAR_ASSIGN_OR_RETURN(
        const double v,
        GroupValue(sample.sample(slot), tracker.stats_at(slot).count()));
    result->groups.emplace_back(tracker.key_at(slot), v);
  }
  result->tuples_processed = processed;
  return Status::OK();
}

Status SpearWindowManager::PopulateGroupedResultFromReservoirs(
    const WindowState& state, WindowResult* result) {
  const GroupStatsTracker& tracker = *state.groups;
  if (state.group_samples.size() != tracker.num_groups()) {
    return Status::Internal("grouped window: one reservoir per group needed");
  }
  result->is_grouped = true;
  result->groups.reserve(tracker.num_groups());
  std::uint64_t processed = 0;
  for (const std::uint32_t slot : tracker.SlotsByKey()) {
    const std::vector<double>& sample = state.group_samples[slot].sample();
    processed += sample.size();
    SPEAR_ASSIGN_OR_RETURN(const double v,
                           GroupValue(sample, tracker.stats_at(slot).count()));
    result->groups.emplace_back(tracker.key_at(slot), v);
  }
  result->tuples_processed = processed;
  return Status::OK();
}

Result<double> SpearWindowManager::GroupValue(std::span<const double> sample,
                                              std::uint64_t frequency) const {
  if (config_.aggregate.IsHolistic()) {
    return ExactQuantile(std::vector<double>(sample.begin(), sample.end()),
                         config_.aggregate.phi);
  }
  if (config_.aggregate.kind == AggregateKind::kCount) {
    return static_cast<double>(frequency);  // exact from the tracker
  }
  RunningStats s;
  for (const double x : sample) s.Update(x);
  if (config_.aggregate.kind == AggregateKind::kSum) {
    return s.mean() * static_cast<double>(frequency);
  }
  return EvaluateFromStats(config_.aggregate, s);
}

Result<CompleteWindow> SpearWindowManager::MaterializeWindow(
    const WindowBounds& bounds, std::int64_t deadline_ns) {
  CompleteWindow window;
  window.bounds = bounds;
  // Clock reads are amortized over batches of copies so the deadline
  // check stays off the per-tuple critical path. The first copy checks:
  // the unspill alone may have blown the deadline.
  constexpr std::size_t kDeadlineCheckStride = 256;
  std::size_t since_check = kDeadlineCheckStride - 1;
  const auto copy = [&](const Tuple& tuple, std::uint32_t) {
    if (deadline_ns != 0 && ++since_check == kDeadlineCheckStride) {
      since_check = 0;
      if (NowNs() > deadline_ns) return false;
    }
    window.tuples.push_back(tuple);
    return true;
  };
  if (!buffer_.ForEachIn(bounds, copy)) {
    return Status::Cancelled("exact fallback exceeded its deadline");
  }
  return window;
}

bool SpearWindowManager::BudgetStateCorrupted(const WindowState& state) const {
  switch (mode_) {
    case SpearMode::kScalarIncremental:
    case SpearMode::kScalarSampled:
    case SpearMode::kScalarQuantile:
      return state.sample == nullptr ||
             state.sample->sample().size() > state.count;
    case SpearMode::kGroupedUnknown:
    case SpearMode::kGroupedKnown:
      return state.groups == nullptr;
  }
  return true;
}

void SpearWindowManager::CorruptBudgetForTesting() {
  for (auto& [start, state] : window_states_) {
    state.sample.reset();
    state.groups.reset();
    state.group_samples.clear();
  }
}

double SpearWindowManager::LossInflationOf(const WindowState& state) const {
  return ignore_loss_accounting_
             ? 0.0
             : LossInflation(state.count, state.lost + state.shed);
}

Result<WindowResult> SpearWindowManager::MakeDegradedResult(
    const WindowBounds& bounds, const WindowState& state) {
  const double inflate = LossInflationOf(state);
  WindowResult result;
  result.bounds = bounds;
  result.window_size = state.count + state.lost + state.shed;
  result.approximate = true;
  result.degraded = true;
  result.recovered = state.recovered;

  switch (mode_) {
    case SpearMode::kScalarIncremental:
    case SpearMode::kScalarSampled:
    case SpearMode::kScalarQuantile: {
      // Emit the sample estimate even though it failed the budget test;
      // ε̂_w documents the (unmet) accuracy.
      SPEAR_ASSIGN_OR_RETURN(const ScalarEstimate est,
                             EstimateScalarForState(state));
      result.scalar = est.estimate;
      result.estimated_error = est.epsilon_hat + inflate;
      result.tuples_processed = state.sample->sample().size();
      return result;
    }
    case SpearMode::kGroupedKnown: {
      SPEAR_ASSIGN_OR_RETURN(
          const GroupedEstimate est,
          EstimateGrouped(config_.aggregate, *state.groups, state.budget,
                          config_.accuracy, config_.group_error_norm,
                          config_.quantile_bound));
      result.estimated_error = est.epsilon_hat + inflate;
      SPEAR_RETURN_NOT_OK(PopulateGroupedResultFromReservoirs(state, &result));
      return result;
    }
    case SpearMode::kGroupedUnknown: {
      // The stratified sample would need the raw window (partly in S).
      // Non-holistic aggregates can still be answered from the tracker's
      // per-group moments; holistic ones cannot degrade at all.
      if (config_.aggregate.IsHolistic()) {
        return Status::Unavailable(
            "cannot degrade holistic grouped window: spilled tuples "
            "unavailable");
      }
      const GroupStatsTracker& tracker = *state.groups;
      SPEAR_ASSIGN_OR_RETURN(
          const GroupedEstimate est,
          EstimateGrouped(config_.aggregate, tracker, state.budget,
                          config_.accuracy, config_.group_error_norm,
                          config_.quantile_bound));
      result.estimated_error = est.epsilon_hat + inflate;
      result.is_grouped = true;
      result.groups.reserve(tracker.num_groups());
      std::uint64_t processed = 0;
      for (const std::uint32_t slot : tracker.SlotsByKey()) {
        const RunningStats& stats = tracker.stats_at(slot);
        double v = 0.0;
        if (config_.aggregate.kind == AggregateKind::kCount) {
          v = static_cast<double>(stats.count());
        } else if (config_.aggregate.kind == AggregateKind::kSum) {
          v = stats.mean() * static_cast<double>(stats.count());
        } else {
          SPEAR_ASSIGN_OR_RETURN(v, EvaluateFromStats(config_.aggregate,
                                                      stats));
        }
        result.groups.emplace_back(tracker.key_at(slot), v);
        processed += stats.count();
      }
      result.tuples_processed = processed;
      return result;
    }
  }
  return Status::Internal("unknown mode");
}

Result<std::optional<WindowResult>> SpearWindowManager::DecideWindow(
    const WindowBounds& bounds, const WindowState& state) {
  using Decision = std::optional<WindowResult>;
  WindowResult result;
  result.bounds = bounds;
  result.window_size = state.count + state.lost + state.shed;
  result.recovered = state.recovered;

  if (mode_ == SpearMode::kScalarIncremental && !state.anomalous) {
    // Exact result from the running accumulator; no watermark-time work.
    SPEAR_ASSIGN_OR_RETURN(result.scalar,
                           EvaluateFromStats(config_.aggregate, state.stats));
    return Decision(std::move(result));
  }

  // The budget estimate decides. An incremental window gets here after a
  // delivery anomaly: its accumulator may have missed tuples, so the
  // sample answers, and only a failed estimate rescans the window (paper
  // Sec. 4.1).
  bool accepted = false;
  double epsilon_hat = 0.0;
  std::vector<std::uint64_t> scan_sizes;  // grouped-unknown allocation n_g
  switch (mode_) {
    case SpearMode::kScalarIncremental:
    case SpearMode::kScalarSampled:
    case SpearMode::kScalarQuantile: {
      SPEAR_ASSIGN_OR_RETURN(const ScalarEstimate est,
                             EstimateScalarForState(state));
      accepted = est.accepted;
      epsilon_hat = est.epsilon_hat;
      result.scalar = est.estimate;
      result.tuples_processed = state.sample->sample().size();
      break;
    }
    case SpearMode::kGroupedUnknown: {
      SPEAR_ASSIGN_OR_RETURN(
          GroupedEstimate est,
          EstimateGrouped(config_.aggregate, *state.groups, state.budget,
                          config_.accuracy, config_.group_error_norm,
                          config_.quantile_bound));
      accepted = est.accepted;
      epsilon_hat = est.epsilon_hat;
      scan_sizes = std::move(est.sample_sizes);
      break;
    }
    case SpearMode::kGroupedKnown: {
      // The declared group count bounds the budget split; more groups than
      // declared means the reservoirs are undersized — fall back.
      if (state.groups->overflowed() ||
          state.groups->num_groups() > config_.known_num_groups) {
        return Decision();
      }
      // Errors under the reservoirs' actual sizes (one per slot).
      std::vector<std::uint64_t> sample_sizes(state.groups->num_groups(), 0);
      for (std::size_t slot = 0; slot < state.group_samples.size(); ++slot) {
        sample_sizes[slot] = state.group_samples[slot].sample().size();
      }
      SPEAR_ASSIGN_OR_RETURN(
          const GroupedEstimate est,
          EstimateGroupedWithAllocations(
              config_.aggregate, *state.groups, std::move(sample_sizes),
              config_.accuracy, config_.group_error_norm,
              config_.quantile_bound));
      accepted = est.accepted;
      epsilon_hat = est.epsilon_hat;
      break;
    }
  }

  // Delivery-loss inflation: an estimate is only accepted when ε̂_w plus
  // the recovery-loss + shed ratio still meets the spec — the AF-Stream
  // contract folded into the paper's expedite test.
  const double inflate = LossInflationOf(state);
  if (!accepted ||
      !(inflate == 0.0 || epsilon_hat + inflate <= config_.accuracy.epsilon)) {
    return Decision();
  }
  result.approximate = true;
  result.estimated_error = epsilon_hat + inflate;
  if (mode_ == SpearMode::kGroupedUnknown) {
    SPEAR_RETURN_NOT_OK(PopulateGroupedResultFromScan(bounds, *state.groups,
                                                      scan_sizes, &result));
  } else if (mode_ == SpearMode::kGroupedKnown) {
    SPEAR_RETURN_NOT_OK(PopulateGroupedResultFromReservoirs(state, &result));
  }
  return Decision(std::move(result));
}

Result<WindowResult> SpearWindowManager::CloseWindow(const WindowBounds& bounds,
                                                     const WindowState& state,
                                                     WindowOutcome* outcome) {
  // Every path that cannot give a true answer ends here: the budget
  // estimate with its loss-inflated ε̂_w, flagged degraded.
  const auto degrade = [&] {
    outcome->verdict = obs::TraceSpan::Verdict::kDegraded;
    return MakeDegradedResult(bounds, state);
  };
  // Corrupted budget state means no estimate can be trusted: the window
  // can only take the exact path (the safe direction of the trade).
  const bool corrupted = BudgetStateCorrupted(state);
  const bool can_degrade =
      !corrupted && !(mode_ == SpearMode::kGroupedUnknown &&
                      config_.aggregate.IsHolistic());

  // The grouped accept path reads the buffer; make sure spilled tuples
  // participate in the stratified sample. An unavailable S here is
  // survivable: the window goes to the fallback, which degrades it.
  Status unspilled = Status::OK();
  if (mode_ == SpearMode::kGroupedUnknown && !state.recovered) {
    unspilled = buffer_.Unspill();
    if (!unspilled.ok() && !unspilled.IsUnavailable()) return unspilled;
  }
  // The stream was closed abnormally under this window (watchdog): an
  // unknown suffix is missing, so no accuracy claim can be verified.
  if (state.truncated && can_degrade) return degrade();
  if (unspilled.ok() && !corrupted) {
    // A restored window's raw buffer is incomplete (snapshots are O(b)),
    // so the stratified-sample scan cannot run: answer from the tracker.
    if (mode_ == SpearMode::kGroupedUnknown && state.recovered) {
      return degrade();
    }
    SPEAR_ASSIGN_OR_RETURN(std::optional<WindowResult> accepted,
                           DecideWindow(bounds, state));
    if (accepted) return std::move(*accepted);
  }

  outcome->fell_back = true;
  outcome->verdict = obs::TraceSpan::Verdict::kExact;
  // An "exact" result would be silently wrong: a recovered window's
  // post-restore buffer is partial, and a shed window's buffer is missing
  // every tuple dropped at admission.
  if ((state.recovered || state.shed > 0) && !corrupted) return degrade();
  // Alg. 2 line 5: g(S.get(tau_w)) — the whole window, possibly fetched
  // back from S, processed exactly. With a deadline configured (and a
  // degradable window), the fetch and the materialization check the clock
  // cooperatively — the same cancellation discipline the spill path's
  // simulated latency uses — and a blown deadline degrades the window
  // instead of stalling the DAG.
  const std::int64_t deadline_ns =
      config_.exact_deadline_ms > 0 && can_degrade
          ? NowNs() + config_.exact_deadline_ms * 1'000'000
          : 0;
  const Status fetched = unspilled.ok() ? buffer_.Unspill() : unspilled;
  if (!fetched.ok()) {
    // S stayed unavailable after retries: the fallback cannot run.
    if (fetched.IsUnavailable() && !corrupted) return degrade();
    return fetched;
  }
  Result<CompleteWindow> window = MaterializeWindow(bounds, deadline_ns);
  if (window.status().IsCancelled()) {
    outcome->deadline_abort = true;
    return degrade();
  }
  SPEAR_RETURN_NOT_OK(window.status());
  return exact_operator_.Process(*window);
}

void SpearWindowManager::RecordOutcome(const WindowBounds& bounds,
                                       const WindowState& state,
                                       const WindowResult& result,
                                       const WindowOutcome& outcome) {
  using Verdict = obs::TraceSpan::Verdict;
  const bool degraded = outcome.verdict == Verdict::kDegraded;

  // The operator's own state, which a restore rebuilds: it counts
  // recovery's catch-up too.
  ++decision_stats_.windows_total;
  ++(degraded            ? decision_stats_.windows_degraded
     : outcome.fell_back ? decision_stats_.windows_exact
                         : decision_stats_.windows_expedited);
  if (outcome.recovered) ++decision_stats_.windows_recovered;
  if (outcome.shed_loss) ++decision_stats_.windows_shed;
  if (outcome.deadline_abort) ++decision_stats_.deadline_aborts;
  decision_stats_.tuples_processed += result.tuples_processed;
  if (budget_controller_) {
    // The budget grows exactly when the decision fell back to exact,
    // whether the fallback ran or degraded: a bigger sample makes the next
    // fallback less likely. Only an accepted sample estimate can shrink
    // it; other windows leave it unchanged.
    budget_controller_->OnWindowOutcome(
        !outcome.fell_back,
        result.approximate && !degraded
            ? result.estimated_error
            : std::numeric_limits<double>::infinity(),
        config_.accuracy.epsilon);
  }
  if (catching_up_) return;

  if (metrics_ != nullptr) {
    if (degraded) metrics_->AddDegradedWindows(1);
    if (outcome.shed_loss) metrics_->AddWindowsShedLoss(1);
    if (outcome.deadline_abort) metrics_->AddDeadlineAborts(1);
    metrics_->RecordWindowNs(result.processing_ns);
    // Memory used for producing the result: the budget state when
    // expedited, the materialized window when exact (Fig. 7 semantics).
    metrics_->RecordMemoryBytes(
        result.approximate
            ? result.tuples_processed * sizeof(double) + sizeof(RunningStats)
            : result.window_size * (sizeof(Tuple) + 2 * sizeof(Value)));
  }
  if (obs_windows_recovered_ != nullptr) {
    if (!degraded) {
      obs_windows_by_verdict_[static_cast<std::size_t>(outcome.verdict)]
          ->Increment();
    }
    if (outcome.recovered) obs_windows_recovered_->Increment();
  }
  if (tracer_ != nullptr) {
    obs::TraceSpan span;
    span.stage = obs_stage_;
    span.task = obs_task_;
    span.window_start = bounds.start;
    span.window_end = bounds.end;
    span.verdict = outcome.verdict;
    span.approximate = result.approximate;
    span.arrivals = state.count + state.lost + state.shed;
    span.processed = result.tuples_processed;
    span.shed = state.shed;
    span.lost = state.lost;
    span.budget = state.budget;
    span.epsilon_spec = config_.accuracy.epsilon;
    span.alpha_spec = config_.accuracy.confidence;
    if (result.approximate) {
      span.epsilon_hat = result.estimated_error;
      span.loss_inflation = LossInflationOf(state);
      span.epsilon_sampling =
          std::max(0.0, span.epsilon_hat - span.loss_inflation);
    }
    span.recovered = outcome.recovered;
    span.truncated = state.truncated;
    span.spilled = outcome.spilled;
    span.deadline_abort = outcome.deadline_abort;
    span.processing_ns = result.processing_ns;
    span.emitted_at_ns = NowNs();
    tracer_->Record(span);
  }
}

Result<std::vector<WindowResult>> SpearWindowManager::OnWatermark(
    std::int64_t watermark) {
  std::vector<WindowResult> out;
  // Clamp (the end-of-stream watermark is kMaxTimestamp) so the window
  // arithmetic below cannot overflow.
  watermark = ClampWatermark(config_.window, watermark);
  if (watermark <= last_watermark_) return out;
  last_watermark_ = watermark;
  if (!saw_any_tuple_) return out;
  // Nothing can complete: O(1) exit. Every buffered non-late tuple keeps
  // a state for each of its windows, so no state completing also means no
  // tuple expires — eviction can wait.
  if (window_states_.empty() ||
      window_states_.begin()->first + config_.window.range > watermark) {
    return out;
  }

  // Only windows with budget state can produce results; complete windows
  // without state are empty and can never gain tuples, so iterating the
  // (ordered) state map visits exactly the windows to emit.
  while (!window_states_.empty() &&
         window_states_.begin()->first + config_.window.range <= watermark) {
    auto state_it = window_states_.begin();
    const WindowState& state = state_it->second;
    if (state.count > 0) {
      const WindowBounds bounds{state_it->first,
                                state_it->first + config_.window.range};
      WindowOutcome outcome;
      outcome.recovered = state.recovered;
      outcome.shed_loss = state.shed > 0;
      // Unspill() empties the run, so capture participation now.
      outcome.spilled = buffer_.HasSpilled();
      std::int64_t window_ns = 0;
      Result<WindowResult> result = [&] {
        ScopedTimerNs timer(&window_ns);
        return CloseWindow(bounds, state, &outcome);
      }();
      if (!result.ok()) return result.status();
      result->processing_ns = window_ns;
      // Survives the exact path, whose result knows nothing of recovery.
      if (outcome.recovered) result->recovered = true;
      RecordOutcome(bounds, state, *result, outcome);
      out.push_back(std::move(*result));
    }
    window_states_.erase(state_it);
  }

  // Everything below the first incomplete window can never be needed.
  next_window_start_ =
      std::max(next_window_start_,
               FirstIncompleteWindowStart(config_.window, watermark));

  // Eviction is the single-buffer design's bookkeeping, not part of
  // producing any window's result, so it stays outside the per-window
  // processing time (the paper's Storm-metrics methodology). An expired
  // spill run is discarded unread: SPEAr never fetches S just to discard.
  buffer_.EvictBelow(next_window_start_);
  // Drop window states that can no longer complete (safety: normally the
  // processing loop erased them).
  while (!window_states_.empty() &&
         window_states_.begin()->first < next_window_start_) {
    window_states_.erase(window_states_.begin());
  }
  if (obs_buffered_tuples_ != nullptr) {
    obs_buffered_tuples_->Set(static_cast<double>(BufferedTuples()));
    obs_budget_bytes_->Set(static_cast<double>(BudgetMemoryBytes()));
  }
  return out;
}

Result<std::string> SpearWindowManager::SnapshotState() const {
  std::string out;
  out.reserve(last_snapshot_bytes_);
  wire::AppendU8(&out, kManagerPayloadVersion);
  wire::AppendU8(&out, static_cast<std::uint8_t>(mode_));
  wire::AppendI64(&out, last_watermark_);
  wire::AppendI64(&out, next_window_start_);
  wire::AppendU8(&out, saw_any_tuple_ ? 1 : 0);
  wire::AppendU64(&out, sampler_seq_);
  wire::AppendU64(&out, buffer_.spill_seq());
  wire::AppendU64(&out, buffer_.spill_failures());
  wire::AppendU64(&out, pending_lost_);

  // Spill manifest: which coordinates live in S under the current run key.
  // Serialized for accounting only — restore discards the adopted run and
  // lets replay rebuild a fresh one, keeping S duplicate-free.
  const std::vector<std::int64_t>& manifest = buffer_.spilled_coords();
  wire::AppendU64(&out, manifest.size());
  for (const std::int64_t c : manifest) wire::AppendI64(&out, c);

  wire::AppendU64(&out, decision_stats_.windows_total);
  wire::AppendU64(&out, decision_stats_.windows_expedited);
  wire::AppendU64(&out, decision_stats_.windows_exact);
  wire::AppendU64(&out, decision_stats_.windows_degraded);
  wire::AppendU64(&out, decision_stats_.windows_recovered);
  wire::AppendU64(&out, decision_stats_.tuples_seen);
  wire::AppendU64(&out, decision_stats_.tuples_processed);
  wire::AppendU64(&out, decision_stats_.late_tuples);
  wire::AppendU64(&out, decision_stats_.tuples_shed);
  wire::AppendU64(&out, decision_stats_.windows_shed);
  wire::AppendU64(&out, decision_stats_.deadline_aborts);

  wire::AppendU64(&out, window_states_.size());
  for (const auto& [start, state] : window_states_) {
    wire::AppendI64(&out, start);
    wire::AppendU64(&out, state.budget);
    wire::AppendU64(&out, state.count);
    wire::AppendU64(&out, state.lost);
    wire::AppendU64(&out, state.shed);
    wire::AppendU8(&out, state.anomalous ? 1 : 0);
    wire::AppendU8(&out, state.recovered ? 1 : 0);
    wire::AppendU8(&out, state.truncated ? 1 : 0);
    AppendRunningStats(&out, state.stats);
    wire::AppendU8(&out, state.sample ? 1 : 0);
    if (state.sample) AppendReservoir(&out, *state.sample);
    wire::AppendU8(&out, state.groups ? 1 : 0);
    if (state.groups) {
      wire::AppendU64(&out, state.groups->max_groups());
      wire::AppendU8(&out, state.groups->overflowed() ? 1 : 0);
      wire::AppendU64(&out, state.groups->shed());
      wire::AppendU64(&out, state.groups->num_groups());
      for (std::size_t slot = 0; slot < state.groups->num_groups(); ++slot) {
        wire::AppendString(&out, state.groups->key_at(slot));
        AppendRunningStats(&out, state.groups->stats_at(slot));
      }
    }
    wire::AppendU64(&out, state.group_samples.size());
    for (std::size_t slot = 0; slot < state.group_samples.size(); ++slot) {
      wire::AppendString(&out, state.groups->key_at(slot));
      AppendReservoir(&out, state.group_samples[slot]);
    }
  }
  last_snapshot_bytes_ = out.size();
  return out;
}

Status SpearWindowManager::RestoreState(const std::string& payload) {
  wire::Reader reader(payload);
  SPEAR_ASSIGN_OR_RETURN(const std::uint8_t version, reader.ReadU8());
  if (version != kManagerPayloadVersion) {
    return Status::Invalid("spear snapshot: unsupported payload version " +
                           std::to_string(version));
  }
  SPEAR_ASSIGN_OR_RETURN(const std::uint8_t mode, reader.ReadU8());
  if (mode != static_cast<std::uint8_t>(mode_)) {
    return Status::Invalid(
        "spear snapshot: mode mismatch (snapshot was taken by a "
        "differently configured operator)");
  }

  // From here on the manager is rebuilt wholesale; the raw buffer was not
  // serialized and starts empty (the executor replays what it logged).
  buffer_.Clear();
  window_states_.clear();

  SPEAR_ASSIGN_OR_RETURN(last_watermark_, reader.ReadI64());
  SPEAR_ASSIGN_OR_RETURN(next_window_start_, reader.ReadI64());
  SPEAR_ASSIGN_OR_RETURN(const std::uint8_t saw, reader.ReadU8());
  saw_any_tuple_ = saw != 0;
  SPEAR_ASSIGN_OR_RETURN(sampler_seq_, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(const std::uint64_t spill_seq, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(const std::uint64_t spill_failures,
                         reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(pending_lost_, reader.ReadU64());

  SPEAR_ASSIGN_OR_RETURN(const std::uint64_t manifest_size, reader.ReadU64());
  for (std::uint64_t k = 0; k < manifest_size; ++k) {
    SPEAR_RETURN_NOT_OK(reader.ReadI64().status());
  }
  // Replay re-spills the snapshot run's tuples, so the run is discarded
  // (recovered windows answer from budget state, never from the raw run).
  buffer_.ResumeFrom(spill_seq, spill_failures, manifest_size > 0);

  SPEAR_ASSIGN_OR_RETURN(decision_stats_.windows_total, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(decision_stats_.windows_expedited, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(decision_stats_.windows_exact, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(decision_stats_.windows_degraded, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(decision_stats_.windows_recovered, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(decision_stats_.tuples_seen, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(decision_stats_.tuples_processed, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(decision_stats_.late_tuples, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(decision_stats_.tuples_shed, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(decision_stats_.windows_shed, reader.ReadU64());
  SPEAR_ASSIGN_OR_RETURN(decision_stats_.deadline_aborts, reader.ReadU64());

  SPEAR_ASSIGN_OR_RETURN(const std::uint64_t num_windows, reader.ReadU64());
  for (std::uint64_t w = 0; w < num_windows; ++w) {
    SPEAR_ASSIGN_OR_RETURN(const std::int64_t start, reader.ReadI64());
    WindowState state;
    SPEAR_ASSIGN_OR_RETURN(state.budget, reader.ReadU64());
    SPEAR_ASSIGN_OR_RETURN(state.count, reader.ReadU64());
    SPEAR_ASSIGN_OR_RETURN(state.lost, reader.ReadU64());
    SPEAR_ASSIGN_OR_RETURN(state.shed, reader.ReadU64());
    SPEAR_ASSIGN_OR_RETURN(const std::uint8_t anomalous, reader.ReadU8());
    state.anomalous = anomalous != 0;
    SPEAR_ASSIGN_OR_RETURN(const std::uint8_t recovered, reader.ReadU8());
    (void)recovered;
    // Every restored window is a recovered window, whatever it was when
    // snapshotted: its raw buffer did not survive.
    state.recovered = true;
    SPEAR_ASSIGN_OR_RETURN(const std::uint8_t truncated, reader.ReadU8());
    state.truncated = truncated != 0;
    SPEAR_ASSIGN_OR_RETURN(state.stats, ReadRunningStats(&reader));

    SPEAR_ASSIGN_OR_RETURN(const std::uint8_t has_sample, reader.ReadU8());
    if (has_sample != 0) {
      SPEAR_ASSIGN_OR_RETURN(const std::uint64_t capacity, reader.ReadU64());
      SPEAR_ASSIGN_OR_RETURN(const std::uint64_t seen, reader.ReadU64());
      SPEAR_ASSIGN_OR_RETURN(const std::uint64_t skipped, reader.ReadU64());
      SPEAR_ASSIGN_OR_RETURN(const std::uint64_t n, reader.ReadU64());
      std::vector<double> values;
      values.reserve(n);
      for (std::uint64_t k = 0; k < n; ++k) {
        SPEAR_ASSIGN_OR_RETURN(const double v, reader.ReadF64());
        values.push_back(v);
      }
      if (capacity == 0) {
        return Status::Invalid("spear snapshot: reservoir capacity 0");
      }
      state.sample = std::make_unique<ReservoirSampler<double>>(
          capacity, config_.seed + sampler_seq_++);
      SPEAR_RETURN_NOT_OK(
          state.sample->Restore(std::move(values), seen, skipped));
    }

    SPEAR_ASSIGN_OR_RETURN(const std::uint8_t has_groups, reader.ReadU8());
    if (has_groups != 0) {
      SPEAR_ASSIGN_OR_RETURN(const std::uint64_t max_groups, reader.ReadU64());
      SPEAR_ASSIGN_OR_RETURN(const std::uint8_t overflowed, reader.ReadU8());
      SPEAR_ASSIGN_OR_RETURN(const std::uint64_t tracker_shed,
                             reader.ReadU64());
      SPEAR_ASSIGN_OR_RETURN(const std::uint64_t n, reader.ReadU64());
      state.groups = std::make_unique<GroupStatsTracker>(max_groups, &keys_);
      for (std::uint64_t k = 0; k < n; ++k) {
        SPEAR_ASSIGN_OR_RETURN(const std::string key, reader.ReadString());
        SPEAR_ASSIGN_OR_RETURN(const RunningStats stats,
                               ReadRunningStats(&reader));
        state.groups->RestoreGroup(key, stats);
      }
      if (overflowed != 0) state.groups->MarkOverflowed();
      if (tracker_shed > 0) state.groups->NoteShed(tracker_shed);
    }

    // Per-group reservoirs, keyed by group in the payload; each goes to its
    // group's tracker slot. A reservoir whose group the tracker dropped
    // (overflow) is read and discarded: that window cannot expedite.
    SPEAR_ASSIGN_OR_RETURN(const std::uint64_t num_samplers, reader.ReadU64());
    const std::size_t num_slots = state.groups ? state.groups->num_groups() : 0;
    std::vector<std::optional<ReservoirSampler<double>>> by_slot(num_slots);
    for (std::uint64_t k = 0; k < num_samplers; ++k) {
      SPEAR_ASSIGN_OR_RETURN(const std::string key, reader.ReadString());
      SPEAR_ASSIGN_OR_RETURN(const std::uint64_t capacity, reader.ReadU64());
      SPEAR_ASSIGN_OR_RETURN(const std::uint64_t seen, reader.ReadU64());
      SPEAR_ASSIGN_OR_RETURN(const std::uint64_t skipped, reader.ReadU64());
      SPEAR_ASSIGN_OR_RETURN(const std::uint64_t n, reader.ReadU64());
      std::vector<double> values;
      values.reserve(n);
      for (std::uint64_t j = 0; j < n; ++j) {
        SPEAR_ASSIGN_OR_RETURN(const double v, reader.ReadF64());
        values.push_back(v);
      }
      if (capacity == 0) {
        return Status::Invalid("spear snapshot: reservoir capacity 0");
      }
      ReservoirSampler<double> sampler(capacity,
                                       config_.seed + sampler_seq_++);
      SPEAR_RETURN_NOT_OK(sampler.Restore(std::move(values), seen, skipped));
      const std::uint32_t slot =
          state.groups ? state.groups->SlotOf(keys_.Find(key))
                       : GroupStatsTracker::kNoSlot;
      if (slot == GroupStatsTracker::kNoSlot) continue;
      if (by_slot[slot]) {
        return Status::Invalid("spear snapshot: duplicate group sampler");
      }
      by_slot[slot].emplace(std::move(sampler));
    }
    if (num_samplers > 0) {
      state.group_samples.reserve(num_slots);
      for (auto& sampler : by_slot) {
        if (!sampler) {
          return Status::Invalid("spear snapshot: group without reservoir");
        }
        state.group_samples.push_back(std::move(*sampler));
      }
    }

    window_states_.emplace(start, std::move(state));
  }
  if (!reader.exhausted()) {
    return Status::Invalid("spear snapshot: trailing bytes");
  }
  return Status::OK();
}

std::size_t SpearWindowManager::BudgetMemoryBytes() const {
  std::size_t total = 0;
  for (const auto& [start, state] : window_states_) {
    total += sizeof(WindowState);
    if (state.sample) total += state.sample->sample().size() * sizeof(double);
    if (state.groups) total += state.groups->EstimatedBytes();
    // Known-group reservoirs: at most the declared group count per window.
    for (const ReservoirSampler<double>& sampler : state.group_samples) {
      total += sampler.sample().size() * sizeof(double);
    }
  }
  return total;
}

}  // namespace spear

#include "core/spear_topology_builder.h"

#include "runtime/common_bolts.h"
#include "runtime/fault_injection.h"
#include "runtime/gk_quantile_bolt.h"

namespace spear {

const char* ExecutionEngineName(ExecutionEngine engine) {
  switch (engine) {
    case ExecutionEngine::kSpear:
      return "SPEAr";
    case ExecutionEngine::kExact:
      return "Storm";
    case ExecutionEngine::kExactMulti:
      return "Storm-multibuf";
    case ExecutionEngine::kIncremental:
      return "Inc-Storm";
    case ExecutionEngine::kCountMin:
      return "CountMin";
    case ExecutionEngine::kGkQuantile:
      return "GK";
  }
  return "?";
}

SpearTopologyBuilder& SpearTopologyBuilder::Source(
    std::shared_ptr<Spout> spout, DurationMs watermark_interval,
    DurationMs max_lateness) {
  spout_ = std::move(spout);
  watermark_interval_ = watermark_interval;
  max_lateness_ = max_lateness;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::Time(std::size_t time_field) {
  has_time_stage_ = true;
  time_field_ = time_field;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::SlidingWindowOf(DurationMs range,
                                                            DurationMs slide) {
  config_.window = WindowSpec::SlidingTime(range, slide);
  has_window_ = true;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::TumblingWindowOf(DurationMs range) {
  config_.window = WindowSpec::TumblingTime(range);
  has_window_ = true;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::SlidingCountWindowOf(
    std::int64_t range, std::int64_t slide) {
  config_.window = WindowSpec::SlidingCount(range, slide);
  has_window_ = true;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::TumblingCountWindowOf(
    std::int64_t range) {
  config_.window = WindowSpec::TumblingCount(range);
  has_window_ = true;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::Count() {
  config_.aggregate = AggregateSpec::Count();
  value_extractor_ = [](const Tuple&) { return 1.0; };
  has_aggregate_ = true;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::Sum(ValueExtractor value) {
  config_.aggregate = AggregateSpec::Sum();
  value_extractor_ = std::move(value);
  has_aggregate_ = true;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::Mean(ValueExtractor value) {
  config_.aggregate = AggregateSpec::Mean();
  value_extractor_ = std::move(value);
  has_aggregate_ = true;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::Variance(ValueExtractor value) {
  config_.aggregate = AggregateSpec::Variance();
  value_extractor_ = std::move(value);
  has_aggregate_ = true;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::StdDev(ValueExtractor value) {
  config_.aggregate = AggregateSpec::StdDev();
  value_extractor_ = std::move(value);
  has_aggregate_ = true;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::Percentile(ValueExtractor value,
                                                       double phi) {
  config_.aggregate = AggregateSpec::Percentile(phi);
  value_extractor_ = std::move(value);
  has_aggregate_ = true;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::Median(ValueExtractor value) {
  return Percentile(std::move(value), 0.5);
}

SpearTopologyBuilder& SpearTopologyBuilder::GroupBy(KeyExtractor key) {
  key_extractor_ = std::move(key);
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::SetBudget(Budget budget) {
  config_.budget = budget;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::Error(double epsilon,
                                                  double confidence) {
  config_.accuracy.epsilon = epsilon;
  config_.accuracy.confidence = confidence;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::KnownGroups(
    std::size_t num_groups) {
  config_.known_num_groups = num_groups;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::DisableIncrementalOptimization() {
  config_.incremental_optimization = false;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::AdaptiveBudget(
    BudgetController::Options options) {
  config_.adaptive_budget = true;
  config_.adaptive_options = options;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::CustomEstimator(
    CustomScalarEstimator estimator) {
  config_.custom_estimator = std::move(estimator);
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::CollectDecisions(
    DecisionStatsCollector* sink) {
  decision_sink_ = sink;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::ValidateTuples(
    TupleValidator validator) {
  config_.validate = std::move(validator);
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::StorageRetry(RetryPolicy policy) {
  config_.storage_retry = policy;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::StageRetry(RetryPolicy policy) {
  stage_retry_ = policy;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::InjectFaults(
    FaultInjector* injector) {
  fault_injector_ = injector;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::Checkpoint(
    CheckpointConfig config) {
  config.enabled = true;
  checkpoint_ = std::move(config);
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::DeadLetterCap(std::size_t cap) {
  max_dead_letters_ = cap;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::LatencySlo(DurationMs slo_ms) {
  overload_.latency_slo = slo_ms;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::Shed(ShedPolicy policy) {
  overload_.shed = policy;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::ExactDeadline(
    DurationMs deadline_ms) {
  config_.exact_deadline_ms = deadline_ms;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::WatermarkWatchdog(
    DurationMs idle_ms) {
  overload_.watchdog_idle = idle_ms;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::Metrics(
    obs::MetricsOptions options) {
  obs_.metrics_enabled = true;
  obs_.metrics = std::move(options);
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::Trace(obs::TraceOptions options) {
  obs_.trace_enabled = true;
  obs_.trace = options;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::Engine(ExecutionEngine engine) {
  engine_ = engine;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::Parallelism(int workers) {
  parallelism_ = workers;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::SpillOver(
    std::size_t memory_capacity, SecondaryStorage* storage) {
  config_.buffer_memory_capacity = memory_capacity;
  storage_ = storage;
  return *this;
}

SpearTopologyBuilder& SpearTopologyBuilder::QueueCapacity(
    std::size_t capacity) {
  queue_capacity_ = capacity;
  return *this;
}

Result<Topology> SpearTopologyBuilder::Build() const {
  if (!spout_) return Status::Invalid("CQ has no source");
  if (!has_window_) return Status::Invalid("CQ has no window definition");
  if (!has_aggregate_) return Status::Invalid("CQ has no stateful operation");
  SPEAR_RETURN_NOT_OK(config_.Validate());
  if (parallelism_ < 1) return Status::Invalid("parallelism must be >= 1");
  if (engine_ == ExecutionEngine::kIncremental &&
      !config_.aggregate.IsIncremental()) {
    return Status::Invalid(
        "incremental engine cannot run holistic aggregates");
  }
  if (engine_ == ExecutionEngine::kCountMin &&
      (!key_extractor_ || config_.aggregate.kind != AggregateKind::kMean)) {
    return Status::Invalid(
        "CountMin engine supports the grouped mean only");
  }
  if (engine_ == ExecutionEngine::kGkQuantile &&
      (key_extractor_ || !config_.aggregate.IsHolistic())) {
    return Status::Invalid(
        "GK engine supports scalar percentiles only");
  }
  if (checkpoint_.enabled &&
      config_.window.type == WindowType::kCountBased) {
    return Status::Invalid(
        "checkpointing requires a time-based window (count-based "
        "coordinates do not survive a worker restart)");
  }
  if (checkpoint_.enabled && engine_ == ExecutionEngine::kSpear &&
      key_extractor_ && config_.known_num_groups == 0 &&
      config_.aggregate.IsHolistic()) {
    return Status::Invalid(
        "checkpointing a grouped holistic aggregate requires KnownGroups");
  }

  TopologyBuilder builder;
  // Chaos wiring: perturb the stream at the source when any spout site is
  // armed; the stateful bolts are wrapped below.
  std::shared_ptr<Spout> source = spout_;
  if (fault_injector_ != nullptr &&
      (fault_injector_->armed(FaultSite::kSpoutMalformed) ||
       fault_injector_->armed(FaultSite::kSpoutDuplicate) ||
       fault_injector_->armed(FaultSite::kSpoutLate) ||
       fault_injector_->armed(FaultSite::kSpoutStall))) {
    auto wrapper =
        std::make_shared<FaultInjectingSpout>(spout_, fault_injector_);
    if (fault_injector_->armed(FaultSite::kSpoutStall)) {
      // A stalled spout blocks the executor's source thread outside its
      // control; the cancel hook is how the watchdog (or a failing run)
      // unsticks it.
      builder.AddCancelHook([wrapper] { wrapper->CancelStall(); });
    }
    source = wrapper;
  }
  builder.Source(std::move(source), watermark_interval_, max_lateness_);
  builder.QueueCapacity(queue_capacity_);
  builder.InjectFaults(fault_injector_);
  builder.RegisterStorage(storage_);
  if (checkpoint_.enabled) builder.Checkpoint(checkpoint_);
  builder.DeadLetterCap(max_dead_letters_);
  if (overload_.ShedEnabled()) {
    builder.LatencySlo(overload_.latency_slo);
    builder.Shed(overload_.shed);
  }
  if (overload_.WatchdogEnabled()) {
    builder.WatermarkWatchdog(overload_.watchdog_idle);
  }
  if (obs_.metrics_enabled) builder.Metrics(obs_.metrics);
  if (obs_.trace_enabled) builder.Trace(obs_.trace);

  if (has_time_stage_) {
    const std::size_t field = time_field_;
    builder.Stage("time", 1, Partitioner::Shuffle(), [field](int) {
      return std::make_unique<TimeAssignBolt>(field);
    });
  }

  // Grouped operations need fields grouping so each distinct group lands
  // on exactly one worker; scalar operations shuffle.
  Partitioner input = key_extractor_
                          ? Partitioner::Fields(key_extractor_)
                          : Partitioner::Shuffle();

  // Copy the configuration into the factory (each worker gets its own
  // bolt instance, as in Storm).
  const SpearOperatorConfig config = config_;
  const ValueExtractor value = value_extractor_;
  const KeyExtractor key = key_extractor_;
  SecondaryStorage* storage = storage_;
  const ExecutionEngine engine = engine_;
  DecisionStatsCollector* decision_sink = decision_sink_;
  FaultInjector* injector = fault_injector_;

  builder.Stage(
      StatefulStageName(), parallelism_, std::move(input),
      [config, value, key, storage, engine, decision_sink,
       injector](int) -> std::unique_ptr<Bolt> {
        std::unique_ptr<Bolt> bolt;
        switch (engine) {
          case ExecutionEngine::kSpear:
            bolt = std::make_unique<SpearBolt>(config, value, key, storage,
                                               decision_sink);
            break;
          case ExecutionEngine::kExact:
          case ExecutionEngine::kExactMulti: {
            ExactWindowedBoltConfig exact;
            exact.window = config.window;
            exact.aggregate = config.aggregate;
            exact.value_extractor = value;
            exact.key_extractor = key;
            exact.use_multi_buffer = engine == ExecutionEngine::kExactMulti;
            exact.memory_capacity = config.buffer_memory_capacity;
            exact.storage = storage;
            bolt = std::make_unique<ExactWindowedBolt>(std::move(exact));
            break;
          }
          case ExecutionEngine::kIncremental:
            bolt = std::make_unique<IncrementalWindowedBolt>(
                config.window, config.aggregate, value, key);
            break;
          case ExecutionEngine::kCountMin:
            bolt = std::make_unique<CountMinWindowedBolt>(
                config.window, value, key, config.accuracy.epsilon,
                config.accuracy.confidence);
            break;
          case ExecutionEngine::kGkQuantile:
            bolt = std::make_unique<GkQuantileBolt>(
                config.window, value, config.aggregate.phi,
                config.accuracy.epsilon);
            break;
        }
        if (bolt != nullptr && injector != nullptr &&
            (injector->armed(FaultSite::kBoltProcess) ||
             injector->armed(FaultSite::kBoltWatermark))) {
          bolt = std::make_unique<FaultInjectingBolt>(std::move(bolt),
                                                      injector);
        }
        return bolt;
      });
  builder.StageRetry(stage_retry_);

  return builder.Build();
}

}  // namespace spear

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

/// \file fault.h
/// Seeded, deterministic fault injection for chaos-testing the runtime.
/// A FaultPlan names *sites* (storage calls, bolt callbacks, spout
/// emissions) and attaches a trigger to each: fire with probability p, or
/// on every Nth operation, optionally capped at a total fire count, and
/// optionally adding simulated extra latency. A FaultInjector evaluates
/// the plan; decisions for site X depend only on (seed, X, per-site
/// operation index), so the same plan against the same workload fires
/// identically regardless of thread interleaving elsewhere.
///
/// With no injector attached (the production configuration), every
/// injection point is one null-pointer check.

namespace spear {

/// \brief Where a fault can be injected.
enum class FaultSite : std::uint8_t {
  kStorageStore = 0,  ///< SecondaryStorage::Store
  kStorageGet,        ///< SecondaryStorage::Get
  kBoltProcess,       ///< Bolt::Execute (via FaultInjectingBolt)
  kBoltWatermark,     ///< Bolt::OnWatermark (via FaultInjectingBolt)
  kSpoutMalformed,    ///< replace an emitted tuple with a malformed one
  kSpoutDuplicate,    ///< re-emit the tuple a second time
  kSpoutLate,         ///< re-emit the tuple with a past event time
  kWorkerCrash,       ///< kill a worker before it processes the tuple
                      ///< (recoverable only with checkpointing enabled)
  kSpoutStall,        ///< freeze the spout inside Next: watermarks stop
                      ///< advancing until the stall is cancelled (or its
                      ///< extra_latency_ns bound elapses)
};
inline constexpr std::size_t kNumFaultSites = 9;

const char* FaultSiteName(FaultSite site);

/// \brief One trigger: fires on matching operations of its site.
struct FaultRule {
  FaultSite site = FaultSite::kStorageStore;
  /// Fire with this probability per operation (seeded, deterministic).
  double probability = 0.0;
  /// Fire on every Nth operation of the site (1-based: the Nth, 2Nth, ...
  /// operations fire). 0 disables the modular trigger.
  std::uint64_t every_nth = 0;
  /// Cap on total fires of this rule (0 = unlimited).
  std::uint64_t max_fires = 0;
  /// Extra simulated latency added to the operation when the rule fires
  /// (storage sites only; busy-waited by the latency model).
  std::int64_t extra_latency_ns = 0;
  /// Bolt sites: throw std::runtime_error instead of returning a Status —
  /// exercises the executor's exception-to-Status supervision.
  bool throw_exception = false;
  /// Spout kSpoutLate: how far behind the current event time the injected
  /// late duplicate is stamped.
  std::int64_t lateness_ms = 1;
};

/// \brief A named set of rules. Disabled (default) means no injector is
/// built and injection points cost one null check.
struct FaultPlan {
  std::uint64_t seed = 0xFA17;
  std::vector<FaultRule> rules;

  bool empty() const { return rules.empty(); }

  FaultPlan& Add(FaultRule rule) {
    rules.push_back(rule);
    return *this;
  }

  Status Validate() const;
};

/// \brief Evaluates a FaultPlan. Thread-safe; per-site operation counters
/// are atomic so concurrent workers draw disjoint operation indices.
class FaultInjector {
 public:
  /// The plan must validate (SPEAR_CHECKed).
  explicit FaultInjector(FaultPlan plan);

  /// Outcome of one operation at one site.
  struct Decision {
    bool fire = false;
    std::int64_t extra_latency_ns = 0;
    bool throw_exception = false;
    std::int64_t lateness_ms = 0;
  };

  /// Draws the next operation index for `site` and evaluates its rules.
  Decision Tick(FaultSite site);

  /// True when any rule targets `site` — lets call sites skip Tick (and
  /// its atomic increment) entirely for unarmed sites.
  bool armed(FaultSite site) const {
    return !rules_[static_cast<std::size_t>(site)].empty();
  }

  std::uint64_t fired(FaultSite site) const {
    return fires_[static_cast<std::size_t>(site)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t ticks(FaultSite site) const {
    return ops_[static_cast<std::size_t>(site)].load(
        std::memory_order_relaxed);
  }
  /// Total fires across every site.
  std::uint64_t total_fired() const;

  const FaultPlan& plan() const { return plan_; }

 private:
  struct RuleState {
    FaultRule rule;
    std::atomic<std::uint64_t> fires{0};
  };

  const FaultPlan plan_;
  /// Rules grouped per site (indices into plan_.rules).
  std::array<std::vector<RuleState*>, kNumFaultSites> rules_;
  std::vector<std::unique_ptr<RuleState>> rule_states_;
  std::array<std::atomic<std::uint64_t>, kNumFaultSites> ops_;
  std::array<std::atomic<std::uint64_t>, kNumFaultSites> fires_;
};

}  // namespace spear

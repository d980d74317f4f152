#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fault.h"
#include "common/result.h"
#include "tuple/tuple.h"

/// \file secondary_storage.h
/// The paper's globally accessible secondary storage S (e.g. S3), offering
/// store(tau) and get(tau_w). The real thing is orders of magnitude slower
/// than a worker's memory; we simulate that cost asymmetry with a
/// configurable latency model so that spill-heavy configurations are
/// measurably slower, as in the paper's experiments. A FaultInjector can
/// additionally make calls fail transiently (Status::Unavailable) or
/// inject extra latency, for chaos testing the supervised runtime.

namespace spear {

/// \brief Cost model for simulated S accesses. Latencies are *busy-wait*
/// simulated so they consume worker time exactly like a slow fetch would.
struct StorageLatencyModel {
  /// Fixed cost per store/get call (models request round-trip).
  std::int64_t per_call_ns = 0;
  /// Incremental cost per tuple transferred.
  std::int64_t per_tuple_ns = 0;

  /// No simulated delay — pure functional behaviour (default for tests).
  static StorageLatencyModel None() { return {}; }
};

/// \brief Thread-safe keyed spill store: (stream, partition) keys map to
/// append-only tuple runs.
class SecondaryStorage {
 public:
  explicit SecondaryStorage(
      StorageLatencyModel latency = StorageLatencyModel::None())
      : latency_(latency) {}

  /// Appends one tuple under `key` (the paper's store(tau)).
  /// Unavailable when a fault is injected (the tuple is NOT stored).
  Status Store(const std::string& key, Tuple tuple);

  /// Retrieves every tuple stored under `key` (the paper's get(tau_w)).
  /// NotFound when nothing was ever spilled under the key; Unavailable
  /// when a fault is injected.
  Result<std::vector<Tuple>> Get(const std::string& key) const;

  /// Drops the run under `key` (after a window is fully processed).
  void Erase(const std::string& key);

  /// Number of tuples currently held under `key` (0 when absent).
  std::size_t CountFor(const std::string& key) const;

  /// Total tuples across all keys.
  std::size_t TotalTuples() const;

  /// Attaches a fault injector (sites kStorageStore / kStorageGet); null
  /// detaches. Call before the storage is shared across threads.
  void InjectFaults(FaultInjector* injector) { injector_ = injector; }

  /// Makes every in-flight and future simulated-latency busy-wait return
  /// immediately. Called when a run is cancelled, so workers unwinding
  /// through storage calls don't spin out the full simulated latency.
  void CancelSimulatedLatency() {
    latency_cancelled_.store(true, std::memory_order_relaxed);
  }

  /// Re-arms the latency simulation (start of a new run).
  void ResetSimulatedLatency() {
    latency_cancelled_.store(false, std::memory_order_relaxed);
  }

  /// Cumulative number of *successful* store / get calls, for overhead
  /// accounting (injected failures don't count: no work was performed).
  std::uint64_t store_calls() const { return store_calls_; }
  std::uint64_t get_calls() const { return get_calls_; }

 private:
  void SimulateLatency(std::size_t tuple_count,
                       std::int64_t extra_ns = 0) const;

  const StorageLatencyModel latency_;
  FaultInjector* injector_ = nullptr;
  std::atomic<bool> latency_cancelled_{false};
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::vector<Tuple>> runs_;
  mutable std::uint64_t store_calls_ = 0;
  mutable std::uint64_t get_calls_ = 0;
};

}  // namespace spear

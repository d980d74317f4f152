#include "storage/secondary_storage.h"

#include <chrono>

#include "common/time.h"

namespace spear {

void SecondaryStorage::SimulateLatency(std::size_t tuple_count,
                                       std::int64_t extra_ns) const {
  const std::int64_t target =
      latency_.per_call_ns +
      latency_.per_tuple_ns * static_cast<std::int64_t>(tuple_count) +
      extra_ns;
  if (target <= 0) return;
  const std::int64_t start = NowNs();
  // Busy-wait: the cost must land on the calling worker's critical path,
  // exactly as a synchronous remote fetch would. Cancellation-aware: a
  // cancelled run abandons the simulated wait instead of serving it out.
  while (NowNs() - start < target) {
    if (latency_cancelled_.load(std::memory_order_relaxed)) return;
  }
}

Status SecondaryStorage::Store(const std::string& key, Tuple tuple) {
  std::int64_t extra_ns = 0;
  if (injector_ != nullptr) {
    const FaultInjector::Decision d =
        injector_->Tick(FaultSite::kStorageStore);
    extra_ns = d.extra_latency_ns;
    if (d.fire) {
      // A failed remote call still costs its round trip.
      SimulateLatency(0, extra_ns);
      return Status::Unavailable("injected fault: store('" + key + "')");
    }
  }
  SimulateLatency(1, extra_ns);
  std::lock_guard<std::mutex> lock(mutex_);
  ++store_calls_;
  runs_[key].push_back(std::move(tuple));
  return Status::OK();
}

Result<std::vector<Tuple>> SecondaryStorage::Get(const std::string& key) const {
  std::int64_t extra_ns = 0;
  if (injector_ != nullptr) {
    const FaultInjector::Decision d = injector_->Tick(FaultSite::kStorageGet);
    extra_ns = d.extra_latency_ns;
    if (d.fire) {
      SimulateLatency(0, extra_ns);
      return Status::Unavailable("injected fault: get('" + key + "')");
    }
  }
  std::size_t count = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++get_calls_;
    const auto it = runs_.find(key);
    if (it == runs_.end()) {
      return Status::NotFound("no spilled run under key '" + key + "'");
    }
    count = it->second.size();
  }
  SimulateLatency(count, extra_ns);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = runs_.find(key);
  if (it == runs_.end()) {
    return Status::NotFound("run under key '" + key + "' erased concurrently");
  }
  return it->second;
}

void SecondaryStorage::Erase(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  runs_.erase(key);
}

std::size_t SecondaryStorage::CountFor(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = runs_.find(key);
  return it == runs_.end() ? 0 : it->second.size();
}

std::size_t SecondaryStorage::TotalTuples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [key, run] : runs_) total += run.size();
  return total;
}

}  // namespace spear

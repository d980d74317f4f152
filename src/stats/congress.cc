#include "stats/congress.h"

#include <algorithm>
#include <cmath>

namespace spear {

namespace {

Status ValidateAllocateArgs(
    const std::unordered_map<std::string, std::uint64_t>& frequencies,
    std::uint64_t budget) {
  if (budget == 0) return Status::Invalid("budget must be > 0");
  if (frequencies.empty()) return Status::Invalid("no groups to allocate");
  for (const auto& [key, freq] : frequencies) {
    if (freq == 0) {
      return Status::Invalid("group '" + key + "' has zero frequency");
    }
  }
  return Status::OK();
}

std::vector<GroupAllocation> AllocateByWeight(
    const std::unordered_map<std::string, std::uint64_t>& frequencies,
    const std::unordered_map<std::string, double>& weights,
    double total_weight, std::uint64_t budget) {
  std::vector<GroupAllocation> out;
  out.reserve(frequencies.size());
  for (const auto& [key, freq] : frequencies) {
    const double share = weights.at(key) / total_weight;
    auto n = static_cast<std::uint64_t>(
        std::floor(share * static_cast<double>(budget)));
    n = std::min<std::uint64_t>(std::max<std::uint64_t>(n, 1), freq);
    out.push_back(GroupAllocation{key, freq, n});
  }
  // Deterministic output order (unordered_map iteration order is not).
  std::sort(out.begin(), out.end(),
            [](const GroupAllocation& a, const GroupAllocation& b) {
              return a.key < b.key;
            });
  return out;
}

}  // namespace

Result<std::vector<GroupAllocation>> CongressAllocate(
    const std::unordered_map<std::string, std::uint64_t>& frequencies,
    std::uint64_t budget) {
  SPEAR_RETURN_NOT_OK(ValidateAllocateArgs(frequencies, budget));

  std::uint64_t total = 0;
  for (const auto& [key, freq] : frequencies) total += freq;

  const double g = static_cast<double>(frequencies.size());
  std::unordered_map<std::string, double> weights;
  weights.reserve(frequencies.size());
  // The normalizer Σ max(house, senate) is summed as (Σ_House freq)/total +
  // |Senate|/g: exact integer sums, so it does not depend on the map's
  // iteration order (a floating-point sum in hash order would move n_g
  // across a floor boundary depending on how the keys happen to hash).
  std::uint64_t house_total = 0;
  std::size_t senate_groups = 0;
  for (const auto& [key, freq] : frequencies) {
    const double house = static_cast<double>(freq) / static_cast<double>(total);
    const double senate = 1.0 / g;
    weights.emplace(key, std::max(house, senate));
    if (freq * frequencies.size() > total) {
      house_total += freq;
    } else {
      ++senate_groups;
    }
  }
  const double total_weight =
      static_cast<double>(house_total) / static_cast<double>(total) +
      static_cast<double>(senate_groups) / g;
  return AllocateByWeight(frequencies, weights, total_weight, budget);
}

Result<std::vector<GroupAllocation>> ProportionalAllocate(
    const std::unordered_map<std::string, std::uint64_t>& frequencies,
    std::uint64_t budget) {
  SPEAR_RETURN_NOT_OK(ValidateAllocateArgs(frequencies, budget));

  std::uint64_t total = 0;
  for (const auto& [key, freq] : frequencies) total += freq;

  std::unordered_map<std::string, double> weights;
  weights.reserve(frequencies.size());
  for (const auto& [key, freq] : frequencies) {
    weights.emplace(key, static_cast<double>(freq));
  }
  return AllocateByWeight(frequencies, weights, static_cast<double>(total),
                          budget);
}

}  // namespace spear

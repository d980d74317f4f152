#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"

/// \file stratified_sample.h
/// A window's stratified sample built in one pass over its tuples — what
/// SPEAr materializes for an accepted grouped window whose group count was
/// unknown (Sec. 4.1: the eviction scan doubles as the sample-building
/// scan). Group slot g keeps a uniform sample of n_g of its N_g tuples.
///
/// All groups share one flat value array: slot g owns
/// [offset(g), offset(g) + n_g), offsets being the prefix sums of the
/// allocation. Each slot runs Algorithm R inline: its first n_g tuples are
/// kept, and its k-th tuple after that replaces a uniform position with
/// probability n_g / k. One RNG serves every group, and no per-group
/// sampler object is allocated.

namespace spear {

/// \brief Flat, single-pass stratified sample over group slots.
class StratifiedSample {
 public:
  /// \param sample_sizes n_g per group slot
  /// \param seed         RNG seed of the replacement draws
  StratifiedSample(std::vector<std::uint64_t> sample_sizes,
                   std::uint64_t seed)
      : sizes_(std::move(sample_sizes)),
        offset_(sizes_.size() + 1, 0),
        seen_(sizes_.size(), 0),
        rng_(seed) {
    for (std::size_t g = 0; g < sizes_.size(); ++g) {
      offset_[g + 1] = offset_[g] + sizes_[g];
    }
    values_.resize(offset_.back());
  }

  /// Offers one tuple of group `slot`. `value()` produces the tuple's
  /// aggregation value; it is called only when the tuple is kept.
  template <typename ValueFn>
  void Offer(std::uint32_t slot, ValueFn&& value) {
    const std::uint64_t n = ++seen_[slot];
    const std::uint64_t want = sizes_[slot];
    if (n <= want) {
      values_[offset_[slot] + n - 1] = value();
    } else if (const std::uint64_t j = rng_.NextBounded(n); j < want) {
      values_[offset_[slot] + j] = value();
    }
  }

  /// Tuples offered for `slot` so far (its N_g once the scan is done).
  std::uint64_t seen(std::uint32_t slot) const { return seen_[slot]; }

  /// The slot's sample: min(seen, n_g) values.
  std::span<const double> sample(std::uint32_t slot) const {
    return {values_.data() + offset_[slot],
            std::min(seen_[slot], sizes_[slot])};
  }

 private:
  std::vector<std::uint64_t> sizes_;
  std::vector<std::uint64_t> offset_;
  std::vector<std::uint64_t> seen_;
  std::vector<double> values_;
  Rng rng_;
};

}  // namespace spear

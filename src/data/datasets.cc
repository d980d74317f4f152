#include "data/datasets.h"

#include <algorithm>
#include <cmath>

namespace spear {

namespace {

/// Poisson-process arrival times: exponential inter-arrival with the given
/// mean rate. Returns event times in milliseconds, strictly increasing.
std::vector<Timestamp> ArrivalTimes(Rng* rng, DurationMs duration,
                                    double tuples_per_second) {
  std::vector<Timestamp> out;
  out.reserve(static_cast<std::size_t>(
      static_cast<double>(duration) / 1000.0 * tuples_per_second * 1.1));
  const double mean_gap_ms = 1000.0 / tuples_per_second;
  double t = 0.0;
  while (true) {
    t += -mean_gap_ms * std::log(1.0 - rng->NextDouble());
    if (t >= static_cast<double>(duration)) break;
    const auto ms = static_cast<Timestamp>(t);
    // Strictly speaking ties are fine; keep them (multiple events per ms).
    out.push_back(ms);
  }
  return out;
}

/// Zipf sampler over {0, .., n-1} with exponent s (inverse-CDF over
/// precomputed cumulative weights).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t Sample(Rng* rng) const {
    const double u = rng->NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

std::vector<Tuple> DebsGenerator::Generate(const Config& config) {
  Rng rng(config.seed);
  const std::vector<Timestamp> times =
      ArrivalTimes(&rng, config.duration, config.tuples_per_second);

  std::vector<Tuple> out;
  out.reserve(times.size());
  for (const Timestamp t : times) {
    // Route pool rotates per epoch: route ids are epoch-prefixed so
    // consecutive windows see overlapping-but-changing route sets.
    const std::int64_t epoch = t / config.route_epoch;
    const std::uint64_t route_index = rng.NextBounded(config.active_routes);
    // Two adjacent epochs share half their pool (sliding windows straddle
    // epoch boundaries smoothly).
    const std::int64_t pool_shift = epoch * static_cast<std::int64_t>(
        config.active_routes / 2);
    const std::int64_t route_id =
        pool_shift + static_cast<std::int64_t>(route_index);
    // Built by append: GCC 12 reports a -Wrestrict false positive on
    // `"r" + std::to_string(...)` at -O3 (Release builds use -Werror).
    std::string route(1, 'r');
    route += std::to_string(route_id);

    // Fares are route-determined (a route fixes the trip distance), with
    // small per-ride variation (traffic, tip): the between-route spread is
    // lognormal around ~$10 while within-route variation stays ~5%. This
    // within-group tightness is what lets SPEAr meet a 10% spec on routes
    // sampled with one or two rides (Sec. 5.2's DEBS discussion).
    SplitMix64 route_hash(static_cast<std::uint64_t>(route_id) * 0x9E37u);
    const double route_z =
        2.0 * (static_cast<double>(route_hash.Next() >> 11) * 0x1.0p-53) -
        1.0;
    const double base_fare = std::exp(2.1 + 0.55 * 1.7 * route_z);
    const double fare = base_fare * (1.0 + 0.05 * rng.NextGaussian());

    out.emplace_back(
        t, std::vector<Value>{Value(static_cast<std::int64_t>(t)),
                              Value(std::move(route)), Value(fare)});
  }
  return out;
}

std::vector<Tuple> GcmGenerator::Generate(const Config& config) {
  Rng rng(config.seed);
  const std::vector<Timestamp> times =
      ArrivalTimes(&rng, config.duration, config.tuples_per_second);
  const ZipfSampler class_mix(config.num_classes, config.skew);

  // Per-class CPU-time scale: classes differ systematically (higher
  // scheduling classes run longer tasks), with lognormal spread.
  std::vector<double> class_scale(config.num_classes);
  for (std::size_t c = 0; c < config.num_classes; ++c) {
    class_scale[c] = 20.0 * static_cast<double>(c + 1);
  }

  std::vector<Tuple> out;
  out.reserve(times.size());
  for (const Timestamp t : times) {
    const std::size_t cls = class_mix.Sample(&rng);
    double cpu =
        class_scale[cls] * std::exp(config.value_sigma * rng.NextGaussian());
    // Mean-neutral variance bursts on a fixed schedule (see header).
    if (config.burst_period > 0 &&
        t % config.burst_period < config.burst_duration) {
      cpu *= rng.NextDouble() < config.burst_high_prob ? config.burst_high
                                                       : config.burst_low;
    }
    out.emplace_back(
        t, std::vector<Value>{Value(static_cast<std::int64_t>(t)),
                              Value(static_cast<std::int64_t>(cls)),
                              Value(cpu)});
  }
  return out;
}

std::vector<Tuple> DecGenerator::Generate(const Config& config) {
  Rng rng(config.seed);
  const std::vector<Timestamp> times =
      ArrivalTimes(&rng, config.duration, config.tuples_per_second);

  std::vector<Tuple> out;
  out.reserve(times.size());
  for (const Timestamp t : times) {
    const double u = rng.NextDouble();
    double size;
    if (u < config.small_fraction) {
      // ACK/control packets: tight around 64 bytes.
      size = 40.0 + rng.NextBounded(60);
    } else if (u < config.small_fraction + config.mtu_fraction) {
      // Full-MTU data packets.
      size = 1400.0 + rng.NextBounded(120);
    } else {
      // Mid-range tail.
      size = 100.0 + rng.NextBounded(1300);
    }
    out.emplace_back(
        t, std::vector<Value>{Value(static_cast<std::int64_t>(t)),
                              Value(size)});
  }
  return out;
}

}  // namespace spear

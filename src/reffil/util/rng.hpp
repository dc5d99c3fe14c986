// Deterministic random number generation.
//
// All stochastic behaviour in the library (weight init, data synthesis,
// client sampling, shuffling) flows through Rng so experiments are exactly
// reproducible from a single 64-bit seed. The generator is xoshiro256**
// seeded via SplitMix64, which is both fast and statistically strong enough
// for simulation workloads.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace reffil::util {

/// SplitMix64 step — used to expand a user seed into xoshiro state.
std::uint64_t splitmix64(std::uint64_t& state);

/// Deterministic pseudo-random generator (xoshiro256**).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box–Muller (cached spare value).
  double normal();

  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);

  /// Bernoulli draw.
  bool bernoulli(double p);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_index(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

 private:
  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace reffil::util

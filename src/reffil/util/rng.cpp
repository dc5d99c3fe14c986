#include "reffil/util/rng.hpp"

#include <cmath>

#include "reffil/util/error.hpp"

namespace reffil::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  REFFIL_CHECK_MSG(n > 0, "uniform_index(0)");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  REFFIL_CHECK(lo <= hi);
  // The span must be computed in unsigned arithmetic: `hi - lo` as int64 is
  // UB for wide ranges (e.g. lo = INT64_MIN, hi > 0). Unsigned subtraction
  // wraps to the correct distance for every lo <= hi.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  if (span == ~std::uint64_t{0}) {
    // Full 64-bit range: span + 1 would wrap to 0; every u64 is valid.
    return static_cast<std::int64_t>(next_u64());
  }
  // Offset lo in unsigned space too — adding to a negative int64 near the
  // type's edges would overflow; two's-complement wraparound is well defined
  // on uint64 and lands on the intended value.
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   uniform_index(span + 1));
}

double Rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  while (u1 == 0.0) u1 = uniform();
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double two_pi = 6.283185307179586;
  spare_normal_ = mag * std::sin(two_pi * u2);
  has_spare_normal_ = true;
  return mag * std::cos(two_pi * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

bool Rng::bernoulli(double p) { return uniform() < p; }

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) {
  REFFIL_CHECK_MSG(k <= n, "sample_without_replacement: k > n");
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  // Partial Fisher–Yates: first k positions are the sample.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(uniform_index(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace reffil::util

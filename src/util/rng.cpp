#include "util/rng.hpp"

#include <cassert>
#include <cmath>

namespace redcr::util {

using rng_detail::child_seed;
using rng_detail::kGolden;
using rng_detail::rotl;
using rng_detail::starstar;
using rng_detail::unit53;

Xoshiro256ss::Xoshiro256ss(std::uint64_t seed) noexcept {
  SplitMix64 sm{seed};
  for (auto& word : s_) word = sm.next();
  // xoshiro forbids the all-zero state; SplitMix64 cannot emit four
  // consecutive zeros, but keep the guarantee explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = kGolden;
}

Xoshiro256ss::result_type Xoshiro256ss::next() noexcept {
  const std::uint64_t result = starstar(s_[1]);
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Xoshiro256ss Xoshiro256ss::split(std::uint64_t salt) const noexcept {
  return Xoshiro256ss{child_seed(key(), salt)};
}

double Xoshiro256ss::split_uniform01(std::uint64_t salt) const noexcept {
  return split_uniform01(key(), salt);
}

double Xoshiro256ss::uniform01() noexcept { return unit53(next()); }

double Xoshiro256ss::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

std::uint64_t Xoshiro256ss::bounded(std::uint64_t bound) noexcept {
  assert(bound > 0);
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Xoshiro256ss::exponential(double mean) noexcept {
  assert(mean > 0.0);
  // Inverse CDF; 1 - u avoids log(0).
  return -mean * std::log1p(-uniform01());
}

std::uint64_t Xoshiro256ss::poisson(double mean) noexcept {
  assert(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean < 64.0) {
    // Knuth: multiply uniforms until below e^-mean.
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform01();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction; adequate for the
  // large-mean regime (only used for aggregate failure counts).
  const double x = normal(mean, std::sqrt(mean));
  return x < 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

double Xoshiro256ss::normal(double mu, double sigma) noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return mu + sigma * spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_ = true;
  return mu + sigma * u * factor;
}

}  // namespace redcr::util

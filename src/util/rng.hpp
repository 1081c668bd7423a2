// Deterministic pseudo-random number generation.
//
// The failure injector and workload generators must be reproducible across
// runs and platforms, so we implement our own small generators instead of
// relying on implementation-defined std::distributions:
//   - SplitMix64: seed expander (Steele/Lea/Flood).
//   - Xoshiro256ss: xoshiro256** 1.0 (Blackman/Vigna), the workhorse.
//   - Exponential / Poisson / uniform helpers with explicit algorithms.
//
// Streams: `Xoshiro256ss::split(i)` derives an independent child stream, so
// each simulated node owns its own failure stream and results do not depend
// on event interleaving.
#pragma once

#include <array>
#include <cstdint>

namespace redcr::util {

/// SplitMix64 — used to expand a single user seed into generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — fast, high-quality 64-bit generator.
class Xoshiro256ss {
 public:
  using result_type = std::uint64_t;

  /// Seeds all 256 bits of state via SplitMix64 (never all-zero).
  explicit Xoshiro256ss(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next(); }
  result_type next() noexcept;

  /// Derives an independent child stream; `salt` distinguishes siblings.
  [[nodiscard]] Xoshiro256ss split(std::uint64_t salt) const noexcept;

  /// split(salt).uniform01(), bit for bit, without building the child:
  /// xoshiro256**'s first output reads only s[1], the child's second
  /// SplitMix64 output (the all-zero guard rewrites only s[0]), so it costs
  /// two SplitMix64 finalizers.
  [[nodiscard]] double split_uniform01(std::uint64_t salt) const noexcept;

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform01() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t bounded(std::uint64_t bound) noexcept;

  /// Exponentially distributed variate with the given mean (inverse CDF).
  double exponential(double mean) noexcept;

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64 to avoid O(mean) time).
  std::uint64_t poisson(double mean) noexcept;

  /// Standard normal variate (Marsaglia polar method).
  double normal(double mu = 0.0, double sigma = 1.0) noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
  // Marsaglia polar generates pairs; cache the spare.
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace redcr::util

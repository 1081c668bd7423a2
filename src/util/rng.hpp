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

/// The two state words of a Xoshiro256ss that split() reads, s[0] and s[3]:
/// all a stream needs to derive its children. A caller that draws
/// split(a).split(b).uniform01() for many b keeps the key of split(a)
/// instead of rebuilding the chain per draw.
struct SplitKey {
  std::uint64_t s0 = 0;
  std::uint64_t s3 = 0;
};

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

  /// This stream's key.
  [[nodiscard]] SplitKey key() const noexcept { return {s_[0], s_[3]}; }

  /// split(salt).key() of the stream keyed `parent`, bit for bit, without
  /// building the child: three SplitMix64 finalizers (the child's seed and
  /// its first and fourth outputs).
  [[nodiscard]] static constexpr SplitKey split_key(
      SplitKey parent, std::uint64_t salt) noexcept;

  /// split(salt).next() of the stream keyed `parent`, bit for bit: two
  /// SplitMix64 finalizers. Inline, for per-message callers.
  [[nodiscard]] static constexpr std::uint64_t split_next(
      SplitKey parent, std::uint64_t salt) noexcept;

  /// split(salt).uniform01() of the stream keyed `parent`, bit for bit, like
  /// the member form.
  [[nodiscard]] static constexpr double split_uniform01(
      SplitKey parent, std::uint64_t salt) noexcept;

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

namespace rng_detail {

inline constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// xoshiro256**'s output scrambler; it reads only s[1].
constexpr std::uint64_t starstar(std::uint64_t s1) noexcept {
  return rotl(s1 * 5, 7) * 9;
}

/// The top 53 bits of `x` as a double in [0, 1).
constexpr double unit53(std::uint64_t x) noexcept {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// The seed split(salt) gives its child: the parent's s[0] and s[3] mixed
/// with the salt through SplitMix64, so children with different salts are
/// decorrelated from the parent and from each other.
constexpr std::uint64_t child_seed(SplitKey parent,
                                   std::uint64_t salt) noexcept {
  return SplitMix64{parent.s0 ^ rotl(parent.s3, 23) ^ (salt * kGolden)}.next();
}

/// Output k (1-based) of SplitMix64{seed}, which the constructor stores in
/// s[k - 1].
constexpr std::uint64_t seeded_word(std::uint64_t seed, int k) noexcept {
  return SplitMix64{seed + static_cast<std::uint64_t>(k - 1) * kGolden}.next();
}

}  // namespace rng_detail

// Why the keyed forms equal the full chain bit for bit: the constructor sets
// s[k - 1] = f(seed + k * kGolden) for k = 1..4, where f is SplitMix64's
// finalizer, a bijection on 64-bit words. kGolden is odd, so the four
// arguments are distinct, at most one word is zero, and the all-zero guard
// never fires: every word of a constructed state is exactly its SplitMix64
// output. split() reads only s[0] and s[3], and the first output of
// xoshiro256** reads only s[1].

constexpr SplitKey Xoshiro256ss::split_key(SplitKey parent,
                                           std::uint64_t salt) noexcept {
  const std::uint64_t seed = rng_detail::child_seed(parent, salt);
  return {rng_detail::seeded_word(seed, 1), rng_detail::seeded_word(seed, 4)};
}

constexpr std::uint64_t Xoshiro256ss::split_next(SplitKey parent,
                                                 std::uint64_t salt) noexcept {
  using namespace rng_detail;
  return starstar(seeded_word(child_seed(parent, salt), 2));
}

constexpr double Xoshiro256ss::split_uniform01(SplitKey parent,
                                               std::uint64_t salt) noexcept {
  return rng_detail::unit53(split_next(parent, salt));
}

}  // namespace redcr::util

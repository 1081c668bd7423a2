// Redundancy-side model: Eqs. 1, 5-10 of the paper plus the birthday-problem
// approximation from Section 4.3.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "model/params.hpp"
#include "util/flat_map.hpp"

namespace redcr::model {

/// Eq. 1: execution time dilated by redundant communication,
/// t_Red = (1-α)t + α t r. Defined for any real r ≥ 1.
[[nodiscard]] double redundant_time(const AppParams& app, double r) noexcept;

/// Result of partitioning N virtual processes for partial redundancy
/// (Eqs. 5-8). With fractional r, N splits into a set replicated ⌊r⌋ times
/// and a set replicated ⌈r⌉ times.
struct Partition {
  std::size_t n_floor_set = 0;   ///< N_⌊r⌋: processes at degree ⌊r⌋
  std::size_t n_ceil_set = 0;    ///< N_⌈r⌉: processes at degree ⌈r⌉
  unsigned floor_degree = 1;     ///< ⌊r⌋
  unsigned ceil_degree = 1;      ///< ⌈r⌉
  std::size_t total_procs = 0;   ///< Eq. 8: N_⌈r⌉·⌈r⌉ + N_⌊r⌋·⌊r⌋
};

/// Eqs. 5-8. Requires n ≥ 1 and r ≥ 1. Integer r yields a homogeneous
/// partition (n_floor_set == 0).
[[nodiscard]] Partition partition_processes(std::size_t n, double r);

/// Probability that a single node fails within interval `t` (Eq. 2 or 3
/// depending on `model`), clamped to [0, 1].
[[nodiscard]] double node_failure_probability(double t, double node_mtbf,
                                              NodeFailureModel model) noexcept;

/// Eq. 9: probability that every virtual process (sphere) survives the
/// interval `t` under partial redundancy degree r.
[[nodiscard]] double system_reliability(std::size_t n, double r, double t,
                                        double node_mtbf,
                                        NodeFailureModel model);

/// The per-sphere log-survival term of Eq. 9: ln(1 - pf^degree), or
/// -infinity when the sphere fails with certainty. The one expression both
/// the scalar and the memoized evaluation paths share, so cached and
/// uncached results are bitwise identical.
[[nodiscard]] double log_sphere_survival(double pf, unsigned degree) noexcept;

/// Memoization table for the Eq. 9 sphere terms ln(1 - pf^degree) — the
/// pow/log pair that dominates every sweep point. Keyed by the exact bit
/// pattern of pf (so distinct inputs never alias) with one slot per degree
/// up to kMaxDegree; rarer higher degrees fall through to direct
/// computation. One batch owns one cache; it is not thread-safe.
class SphereTermCache {
 public:
  static constexpr unsigned kMaxDegree = 16;

  /// The term for (pf, degree), computed on the first request and
  /// memoized: bitwise log_sphere_survival(pf, degree) either way.
  double warm(double pf, unsigned degree);

 private:
  struct Terms {
    std::uint32_t computed_mask = 0;  // bit d set => value[d] valid
    std::array<double, kMaxDegree + 1> value{};
  };
  util::FlatMap64<Terms> terms_;  // key: bit pattern of pf
};

/// ln of Eq. 9 for a staged partition and per-node failure probability:
/// the sphere terms summed floor set first. R_sys underflows double
/// precision already for modest N·t/θ (e.g. 10^5 nodes over 700 h is
/// e^-1612), but the failure rate only needs the logarithm, so Eq. 10 is
/// computed from this. Returns -infinity when some sphere fails with
/// certainty. With a non-null `cache` the sphere terms are memoized
/// (bitwise-identical results either way).
[[nodiscard]] double log_partition_reliability(
    const Partition& partition, double pf, SphereTermCache* cache = nullptr);

/// ln of Eq. 9 for n virtual processes at degree r over the interval t.
[[nodiscard]] double log_system_reliability(std::size_t n, double r, double t,
                                            double node_mtbf,
                                            NodeFailureModel model);

/// Failure characterization of the whole (partially) redundant system over
/// the redundancy-dilated run time (Eq. 10).
struct SystemFailure {
  double reliability = 1.0;    ///< R_sys over t_Red
  double failure_rate = 0.0;   ///< λ_sys = -ln(R_sys)/t_Red
  double mtbf = 0.0;           ///< Θ_sys = 1/λ_sys (infinity if λ_sys == 0)
};

/// Eq. 10 from ln R_sys over the run time t_red, in log space to survive
/// R_sys underflow. A certain failure (log_r = -infinity) has an unbounded
/// rate and Θ_sys = 0.
[[nodiscard]] SystemFailure system_failure(double log_r, double t_red) noexcept;

/// Full redundancy-side pipeline: Eq. 1 then Eqs. 9-10 evaluated over t_Red.
[[nodiscard]] SystemFailure system_failure(const AppParams& app,
                                           const MachineParams& machine,
                                           double r, NodeFailureModel model);

/// Section 4.3's "birthday problem" approximation as printed in the paper:
/// p(n) ≈ 1 - ((n-2)/n)^{n(n-1)/2}. (Note: as printed this tends to 1, not
/// the claimed 0 — see the implementation comment; we reproduce the formula
/// verbatim and also expose the per-failure shadow-hit probability below,
/// which does vanish with n and carries the paper's intended argument.)
[[nodiscard]] double birthday_collision_probability(double n) noexcept;

/// Probability that the *next* node failure hits the one shadow of an
/// already-failed primary among the n-1 survivors: 1/(n-1). This is the
/// quantity that "becomes less likely as the number of nodes increases"
/// (Section 1's birthday-problem discussion).
[[nodiscard]] double shadow_hit_probability(double n) noexcept;

}  // namespace redcr::model

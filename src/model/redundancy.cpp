#include "model/redundancy.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

namespace redcr::model {

double redundant_time(const AppParams& app, double r) noexcept {
  assert(r >= 1.0);
  assert(app.comm_fraction >= 0.0 && app.comm_fraction <= 1.0);
  const double alpha = app.comm_fraction;
  return (1.0 - alpha) * app.base_time + alpha * app.base_time * r;
}

Partition partition_processes(std::size_t n, double r) {
  assert(n >= 1);
  assert(r >= 1.0);
  Partition p;
  p.floor_degree = static_cast<unsigned>(std::floor(r));
  p.ceil_degree = static_cast<unsigned>(std::ceil(r));
  // Eq. 6: N_⌊r⌋ = ⌊(⌈r⌉ - r)·N⌋. For integer r, ⌈r⌉ - r = 0, so the floor
  // set is empty and the system is homogeneous at degree r.
  p.n_floor_set = static_cast<std::size_t>(
      std::floor((static_cast<double>(p.ceil_degree) - r) *
                 static_cast<double>(n)));
  p.n_floor_set = std::min(p.n_floor_set, n);
  p.n_ceil_set = n - p.n_floor_set;  // Eq. 7
  // Eq. 8.
  p.total_procs =
      p.n_ceil_set * p.ceil_degree + p.n_floor_set * p.floor_degree;
  return p;
}

double node_failure_probability(double t, double node_mtbf,
                                NodeFailureModel model) noexcept {
  assert(t >= 0.0);
  assert(node_mtbf > 0.0);
  switch (model) {
    case NodeFailureModel::kLinearized:
      // Eq. 3, first-order in t/θ; clamp keeps Eq. 9 meaningful when the
      // approximation is pushed outside its validity range.
      return std::clamp(t / node_mtbf, 0.0, 1.0);
    case NodeFailureModel::kExactExponential:
      return 1.0 - std::exp(-t / node_mtbf);  // Eq. 2
  }
  return 1.0;
}

double log_sphere_survival(double pf, unsigned degree) noexcept {
  // Eq. 4 per sphere: a degree-k sphere fails only if all k replicas fail.
  const double sphere = 1.0 - std::pow(pf, degree);
  if (sphere <= 0.0) return -std::numeric_limits<double>::infinity();
  return std::log(sphere);
}

double SphereTermCache::warm(double pf, unsigned degree) {
  if (degree > kMaxDegree) return log_sphere_survival(pf, degree);
  Terms& terms = terms_[std::bit_cast<std::uint64_t>(pf)];
  const std::uint32_t bit = std::uint32_t{1} << degree;
  if ((terms.computed_mask & bit) == 0) {
    terms.value[degree] = log_sphere_survival(pf, degree);
    terms.computed_mask |= bit;
  }
  return terms.value[degree];
}

double log_partition_reliability(const Partition& partition, double pf,
                                 SphereTermCache* cache) {
  const auto term = [&](unsigned degree) {
    return cache != nullptr ? cache->warm(pf, degree)
                            : log_sphere_survival(pf, degree);
  };
  // Eq. 9 across spheres: all N_⌊r⌋ + N_⌈r⌉ spheres must survive.
  double log_r = 0.0;
  if (partition.n_floor_set > 0) {
    const double sphere_term = term(partition.floor_degree);
    if (std::isinf(sphere_term))
      return -std::numeric_limits<double>::infinity();
    log_r += static_cast<double>(partition.n_floor_set) * sphere_term;
  }
  if (partition.n_ceil_set > 0) {
    const double sphere_term = term(partition.ceil_degree);
    if (std::isinf(sphere_term))
      return -std::numeric_limits<double>::infinity();
    log_r += static_cast<double>(partition.n_ceil_set) * sphere_term;
  }
  return log_r;
}

double log_system_reliability(std::size_t n, double r, double t,
                              double node_mtbf, NodeFailureModel model) {
  return log_partition_reliability(
      partition_processes(n, r), node_failure_probability(t, node_mtbf, model));
}

double system_reliability(std::size_t n, double r, double t, double node_mtbf,
                          NodeFailureModel model) {
  return std::exp(log_system_reliability(n, r, t, node_mtbf, model));
}

SystemFailure system_failure(double log_r, double t_red) noexcept {
  SystemFailure sf;
  sf.reliability = std::exp(log_r);  // may underflow to 0; λ does not care
  if (!std::isfinite(log_r)) {
    // Certain failure within t_Red: rate is effectively unbounded.
    sf.failure_rate = std::numeric_limits<double>::infinity();
    sf.mtbf = 0.0;
    return sf;
  }
  sf.failure_rate = -log_r / t_red;
  sf.mtbf = sf.failure_rate == 0.0
                ? std::numeric_limits<double>::infinity()
                : 1.0 / sf.failure_rate;
  return sf;
}

SystemFailure system_failure(const AppParams& app, const MachineParams& machine,
                             double r, NodeFailureModel model) {
  const double t_red = redundant_time(app, r);
  return system_failure(log_system_reliability(app.num_procs, r, t_red,
                                               machine.node_mtbf, model),
                        t_red);
}

double birthday_collision_probability(double n) noexcept {
  // Verbatim Section 4.3: p(n) ≈ 1 - ((n-2)/n)^{n(n-1)/2}. As n → ∞ the
  // base (1 - 2/n) raised to ~n²/2 behaves like e^{-(n-1)} → 0, so the
  // printed expression tends to 1 (the paper states the limit as 0; the
  // intended vanishing quantity is shadow_hit_probability below). We
  // evaluate in log space to avoid pow() underflow at large n.
  if (n <= 2.0) return 1.0;
  const double exponent = n * (n - 1.0) / 2.0;
  const double log_term = exponent * std::log((n - 2.0) / n);
  return 1.0 - std::exp(log_term);
}

double shadow_hit_probability(double n) noexcept {
  return n <= 1.0 ? 1.0 : 1.0 / (n - 1.0);
}

}  // namespace redcr::model

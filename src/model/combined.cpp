#include "model/combined.hpp"

#include <cassert>
#include <cmath>
#include <limits>

#include "model/checkpoint.hpp"

namespace redcr::model {

Prediction detail::predict_over(const CombinedConfig& config, double r,
                                double t_red, bool simplified,
                                SphereTermCache* cache) {
  assert(r >= 1.0);
  Prediction p;
  p.r = r;
  p.redundant_time = t_red;
  const Partition partition = partition_processes(config.app.num_procs, r);
  p.total_procs = partition.total_procs;
  const double pf = node_failure_probability(t_red, config.machine.node_mtbf,
                                             config.failure_model);
  const SystemFailure sf =
      system_failure(log_partition_reliability(partition, pf, cache), t_red);
  p.reliability = sf.reliability;
  p.failure_rate = sf.failure_rate;
  p.system_mtbf = sf.mtbf;
  if (!std::isfinite(sf.failure_rate)) {
    // The system cannot survive even one t_Red interval in expectation under
    // the linearized node model; report "never completes".
    p.total_time = std::numeric_limits<double>::infinity();
    return p;
  }

  const double c = config.machine.checkpoint_cost;
  if (simplified) {
    p.interval = young_interval(c, sf.mtbf);
    p.lost_work = 0.0;  // the simplified model drops rework
    p.restart_rework = config.machine.restart_cost;
    // T = t_Red + (t_Red/δ)·c + t_Red·λ·R  (Section 6, consistent form).
    p.total_time = t_red + (t_red / p.interval) * c +
                   t_red * sf.failure_rate * config.machine.restart_cost;
    p.expected_checkpoints = t_red / p.interval;
    p.expected_failures = t_red * sf.failure_rate;
    return p;
  }
  p.interval = config.fixed_interval ? *config.fixed_interval
               : config.use_young_interval ? young_interval(c, sf.mtbf)
                                           : daly_interval(c, sf.mtbf);
  p.lost_work = expected_lost_work(p.interval, c, sf.mtbf);
  p.restart_rework = restart_rework_time(config.machine.restart_cost,
                                         p.lost_work, sf.mtbf,
                                         config.restart_model);
  p.total_time =
      total_time(t_red, c, p.interval, sf.failure_rate, p.restart_rework);
  p.expected_checkpoints = t_red / p.interval;
  p.expected_failures = std::isfinite(p.total_time)
                            ? p.total_time * sf.failure_rate
                            : std::numeric_limits<double>::infinity();
  return p;
}

Prediction predict(const CombinedConfig& config, double r,
                   SphereTermCache* cache) {
  return detail::predict_over(config, r, redundant_time(config.app, r),
                              /*simplified=*/false, cache);
}

Prediction predict_simplified(const CombinedConfig& config, double r,
                              SphereTermCache* cache) {
  return detail::predict_over(config, r, redundant_time(config.app, r),
                              /*simplified=*/true, cache);
}

std::vector<Prediction> sweep_redundancy(const CombinedConfig& config,
                                         double r_begin, double r_end,
                                         double step) {
  assert(r_begin >= 1.0 && r_end >= r_begin && step > 0.0);
  std::vector<Prediction> out;
  // Walk an integer counter to avoid accumulating floating-point step error.
  const auto count =
      static_cast<std::size_t>(std::round((r_end - r_begin) / step)) + 1;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(predict(config, r_begin + static_cast<double>(i) * step));
  return out;
}

Optimum optimize_redundancy(const CombinedConfig& config, double r_begin,
                            double r_end, double grid_step) {
  assert(r_begin >= 1.0 && r_end > r_begin && grid_step > 0.0);
  // Phase 1: coarse grid scan. T_total(r) can have several local minima
  // (each integer degree anchors one), so a pure local method is unsafe.
  double best_r = r_begin;
  double best_t = std::numeric_limits<double>::infinity();
  const auto count =
      static_cast<std::size_t>(std::round((r_end - r_begin) / grid_step)) + 1;
  for (std::size_t i = 0; i < count; ++i) {
    const double r = r_begin + static_cast<double>(i) * grid_step;
    const double t = predict(config, r).total_time;
    if (t < best_t) {
      best_t = t;
      best_r = r;
    }
  }
  // Phase 2: golden-section refinement inside the winning cell.
  double lo = std::max(r_begin, best_r - grid_step);
  double hi = std::min(r_end, best_r + grid_step);
  constexpr double kInvPhi = 0.6180339887498949;
  double a = hi - kInvPhi * (hi - lo);
  double b = lo + kInvPhi * (hi - lo);
  double fa = predict(config, a).total_time;
  double fb = predict(config, b).total_time;
  for (int iter = 0; iter < 64 && (hi - lo) > 1e-6; ++iter) {
    if (fa < fb) {
      hi = b;
      b = a;
      fb = fa;
      a = hi - kInvPhi * (hi - lo);
      fa = predict(config, a).total_time;
    } else {
      lo = a;
      a = b;
      fa = fb;
      b = lo + kInvPhi * (hi - lo);
      fb = predict(config, b).total_time;
    }
  }
  const double refined = (lo + hi) / 2.0;
  const Prediction refined_pred = predict(config, refined);
  Optimum opt;
  if (refined_pred.total_time < best_t) {
    opt.r = refined;
    opt.prediction = refined_pred;
  } else {
    opt.r = best_r;
    opt.prediction = predict(config, best_r);
  }
  return opt;
}

namespace {

/// Signed difference d(N) used by the bisection searches; `f` maps a
/// prediction pair to the difference.
template <typename DiffFn>
std::optional<double> bisect_procs(CombinedConfig config, double n_lo,
                                   double n_hi, DiffFn diff) {
  assert(n_lo >= 1.0 && n_hi > n_lo);
  auto eval = [&](double n) {
    config.app.num_procs = static_cast<std::size_t>(std::llround(n));
    return diff(config);
  };
  double d_lo = eval(n_lo);
  double d_hi = eval(n_hi);
  if (std::isnan(d_lo) || std::isnan(d_hi)) return std::nullopt;
  if (d_lo == 0.0) return n_lo;
  if (d_hi == 0.0) return n_hi;
  if ((d_lo > 0.0) == (d_hi > 0.0)) return std::nullopt;  // no sign change
  double lo = n_lo, hi = n_hi;
  while (hi - lo > 0.5) {
    const double mid = (lo + hi) / 2.0;
    const double d_mid = eval(mid);
    if (d_mid == 0.0) return mid;
    if ((d_mid > 0.0) == (d_lo > 0.0)) {
      lo = mid;
      d_lo = d_mid;
    } else {
      hi = mid;
    }
  }
  return (lo + hi) / 2.0;
}

/// Difference helper that treats two infinities as "no information" (NaN).
double finite_diff(double a, double b) {
  if (std::isinf(a) && std::isinf(b))
    return std::numeric_limits<double>::quiet_NaN();
  if (std::isinf(a)) return 1.0;
  if (std::isinf(b)) return -1.0;
  return a - b;
}

}  // namespace

std::optional<double> crossover_procs(CombinedConfig config, double r_a,
                                      double r_b, double n_lo, double n_hi) {
  return bisect_procs(std::move(config), n_lo, n_hi,
                      [r_a, r_b](const CombinedConfig& cfg) {
                        return finite_diff(predict(cfg, r_a).total_time,
                                           predict(cfg, r_b).total_time);
                      });
}

std::optional<double> break_even_procs(CombinedConfig config, double r,
                                       double factor, double n_lo,
                                       double n_hi) {
  return bisect_procs(std::move(config), n_lo, n_hi,
                      [r, factor](const CombinedConfig& cfg) {
                        return finite_diff(
                            predict(cfg, 1.0).total_time,
                            factor * predict(cfg, r).total_time);
                      });
}

}  // namespace redcr::model

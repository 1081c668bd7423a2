#include "model/extensions.hpp"

#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "model/checkpoint.hpp"
#include "util/text.hpp"

namespace redcr::model {

Prediction predict_same_nodes(const CombinedConfig& config, double r) {
  assert(r >= 1.0);
  Prediction p;
  p.r = r;
  // Same nodes: machine cost stays N regardless of the degree.
  p.total_procs = config.app.num_procs;
  // Everything dilates: replicas time-share each node's compute *and* the
  // per-node NIC carries r-fold traffic.
  p.redundant_time = config.app.base_time * r;

  const double log_rel = log_system_reliability(
      config.app.num_procs, r, p.redundant_time, config.machine.node_mtbf,
      config.failure_model);
  p.reliability = std::exp(log_rel);
  if (!std::isfinite(log_rel)) {
    p.failure_rate = std::numeric_limits<double>::infinity();
    p.system_mtbf = 0.0;
    p.total_time = std::numeric_limits<double>::infinity();
    return p;
  }
  p.failure_rate = -log_rel / p.redundant_time;
  p.system_mtbf = p.failure_rate == 0.0
                      ? std::numeric_limits<double>::infinity()
                      : 1.0 / p.failure_rate;
  p.interval = config.fixed_interval.value_or(
      config.use_young_interval
          ? young_interval(config.machine.checkpoint_cost, p.system_mtbf)
          : daly_interval(config.machine.checkpoint_cost, p.system_mtbf));
  p.lost_work = expected_lost_work(p.interval, config.machine.checkpoint_cost,
                                   p.system_mtbf);
  p.restart_rework =
      restart_rework_time(config.machine.restart_cost, p.lost_work,
                          p.system_mtbf, config.restart_model);
  p.total_time = total_time(p.redundant_time, config.machine.checkpoint_cost,
                            p.interval, p.failure_rate, p.restart_rework);
  p.expected_checkpoints = p.redundant_time / p.interval;
  p.expected_failures = std::isfinite(p.total_time)
                            ? p.total_time * p.failure_rate
                            : std::numeric_limits<double>::infinity();
  return p;
}

IntervalOptimum optimal_interval_search(const CombinedConfig& config,
                                        double r) {
  IntervalOptimum result;
  const Prediction daly = predict(config, r);
  result.daly_interval = daly.interval;
  result.daly_total_time = daly.total_time;

  CombinedConfig probe = config;
  auto time_at = [&](double delta) {
    probe.fixed_interval = delta;
    return predict(probe, r).total_time;
  };

  // T(δ) is not globally unimodal: past the λ·t_RR = 1 pole (Eq. 14) it is
  // an infinite plateau, which defeats plain golden-section. Scan a log
  // grid first, then refine between the best point's neighbours.
  const double lo_bound = std::max(config.machine.checkpoint_cost / 10.0, 1e-3);
  const double hi_bound =
      std::isfinite(daly.system_mtbf)
          ? std::max(daly.system_mtbf * 20.0, daly.interval * 4.0)
          : daly.interval * 4.0;
  constexpr int kGrid = 256;
  const double log_lo = std::log(lo_bound);
  const double log_hi = std::log(hi_bound);
  double best_delta = daly.interval;
  double best_time = daly.total_time;
  int best_index = -1;
  for (int i = 0; i <= kGrid; ++i) {
    const double delta =
        std::exp(log_lo + (log_hi - log_lo) * i / static_cast<double>(kGrid));
    const double t = time_at(delta);
    if (t < best_time) {
      best_time = t;
      best_delta = delta;
      best_index = i;
    }
  }
  // Golden-section between the neighbours of the winning grid point (the
  // function is unimodal on the finite side of the pole).
  double lo = best_index > 0 ? std::exp(log_lo + (log_hi - log_lo) *
                                                     (best_index - 1) / kGrid)
                             : best_delta / 1.5;
  double hi = best_index >= 0 && best_index < kGrid
                  ? std::exp(log_lo + (log_hi - log_lo) * (best_index + 1) /
                                          kGrid)
                  : best_delta * 1.5;
  constexpr double kInvPhi = 0.6180339887498949;
  double a = hi - kInvPhi * (hi - lo);
  double b = lo + kInvPhi * (hi - lo);
  double fa = time_at(a);
  double fb = time_at(b);
  for (int iter = 0; iter < 100 && (hi - lo) > 1e-5 * hi; ++iter) {
    if (fa < fb) {
      hi = b;
      b = a;
      fb = fa;
      a = hi - kInvPhi * (hi - lo);
      fa = time_at(a);
    } else {
      lo = a;
      a = b;
      fa = fb;
      b = lo + kInvPhi * (hi - lo);
      fb = time_at(b);
    }
  }
  const double refined = (lo + hi) / 2.0;
  if (time_at(refined) < best_time) {
    best_delta = refined;
    best_time = time_at(refined);
  }
  result.best_interval = best_delta;
  result.best_total_time = best_time;
  result.daly_penalty =
      std::isfinite(result.best_total_time) && result.best_total_time > 0.0
          ? result.daly_total_time / result.best_total_time - 1.0
          : 0.0;
  return result;
}

namespace {

/// Central-difference log-log derivative of T_total along one parameter.
template <typename Setter>
double elasticity(const CombinedConfig& config, double r, double base_value,
                  Setter set) {
  constexpr double kStep = 0.05;
  CombinedConfig up = config;
  set(up, base_value * (1.0 + kStep));
  CombinedConfig down = config;
  set(down, base_value * (1.0 - kStep));
  const double t_up = predict(up, r).total_time;
  const double t_down = predict(down, r).total_time;
  if (!std::isfinite(t_up) || !std::isfinite(t_down)) return 0.0;
  return (std::log(t_up) - std::log(t_down)) /
         (std::log1p(kStep) - std::log1p(-kStep));
}

}  // namespace

void UnreliableCkptParams::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("redcr::model::UnreliableCkptParams: " + what);
  };
  if (!(ckpt_validity >= 0.0 && ckpt_validity <= 1.0))
    fail("ckpt_validity must be in [0, 1]");
  if (!(restart_success >= 0.0 && restart_success <= 1.0))
    fail("restart_success must be in [0, 1]");
  if (retention_depth < 1) fail("retention_depth must be >= 1");
  if (max_restart_attempts < 1) fail("max_restart_attempts must be >= 1");
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const auto& lvl = levels[l];
    const std::string at = "levels[" + std::to_string(l) + "].";
    if (!(lvl.recovery_prob >= 0.0 && lvl.recovery_prob <= 1.0))
      fail(at + "recovery_prob must be in [0, 1]");
    if (!(lvl.fetch_cost >= 0.0) || !std::isfinite(lvl.fetch_cost))
      fail(at + "fetch_cost must be finite and >= 0");
    if (!(lvl.staleness_periods >= 0.0) ||
        !std::isfinite(lvl.staleness_periods))
      fail(at + "staleness_periods must be finite and >= 0");
  }
  if (!(flush_cost >= 0.0) || !std::isfinite(flush_cost))
    fail("flush_cost must be finite and >= 0");
  // flush_period may be inf: never flush.
  if (!(flush_period >= 1.0)) fail("flush_period must be >= 1");
  if (!(async_exposed_fraction >= 0.0 && async_exposed_fraction <= 1.0))
    fail("async_exposed_fraction must be in [0, 1]");
}

UnreliablePrediction predict_unreliable(const CombinedConfig& config, double r,
                                        const UnreliableCkptParams& u) {
  u.validate();
  UnreliablePrediction out;
  out.base = predict(config, r);

  const double s = u.restart_success;
  const double q = 1.0 - u.ckpt_validity;  // P(a generation is corrupt)
  const int a_max = u.max_restart_attempts;
  const int d = u.retention_depth;

  // Truncated geometric restart attempts: P(K = k) ∝ (1-s)^(k-1)·s for
  // k ≤ A, conditioned on success within A attempts.
  const double p_all_restarts_fail = std::pow(1.0 - s, a_max);
  if (s > 0.0) {
    double num = 0.0;
    for (int k = 1; k <= a_max; ++k)
      num += k * std::pow(1.0 - s, k - 1) * s;
    out.expected_restart_attempts = num / (1.0 - p_all_restarts_fail);
  } else {
    out.expected_restart_attempts = static_cast<double>(a_max);
  }

  // The probability no retained state can serve a recovery: the flat model
  // walks the d retained generations of one store; the hierarchy model
  // walks the configured levels fastest-first instead (fold validity into
  // each level's recovery_prob).
  double p_no_recovery;
  const double period = out.base.interval + config.machine.checkpoint_cost;
  if (u.levels.empty()) {
    // Fallback depth over d retained generations, newest-first, conditioned
    // on at least one validating: P(depth = k) ∝ q^k·p_v for k < d.
    p_no_recovery = std::pow(q, d);
    if (u.ckpt_validity > 0.0 && p_no_recovery < 1.0) {
      double num = 0.0;
      for (int k = 0; k < d; ++k)
        num += k * std::pow(q, k) * u.ckpt_validity;
      out.expected_fallback_depth = num / (1.0 - p_no_recovery);
    }

    // Extra cost per failure: extra restart attempts at R each, plus one
    // checkpoint period (δ + c) of re-done progress per generation fallen
    // back. Backoff delays are deliberately left out — they are an
    // implementation knob, small against R by construction.
    out.per_failure_overhead =
        (out.expected_restart_attempts - 1.0) * config.machine.restart_cost +
        out.expected_fallback_depth * period;
  } else {
    // Cheapest-surviving-level recovery: level l serves iff it can and no
    // faster level could, so P(serve = l) = p_l · Π_{j<l}(1 - p_j).
    double p_none = 1.0;
    out.level_serve_prob.reserve(u.levels.size());
    for (const auto& lvl : u.levels) {
      out.level_serve_prob.push_back(p_none * lvl.recovery_prob);
      p_none *= 1.0 - lvl.recovery_prob;
    }
    p_no_recovery = p_none;
    const double p_any = 1.0 - p_none;
    if (p_any > 0.0) {
      double fetch = 0.0;
      double staleness = 0.0;
      for (std::size_t l = 0; l < u.levels.size(); ++l) {
        fetch += out.level_serve_prob[l] * u.levels[l].fetch_cost;
        staleness += out.level_serve_prob[l] * u.levels[l].staleness_periods;
      }
      out.expected_fetch_cost = fetch / p_any;
      out.expected_staleness_rework = staleness / p_any * period;
    }
    out.per_failure_overhead =
        (out.expected_restart_attempts - 1.0) * config.machine.restart_cost +
        out.expected_fetch_cost + out.expected_staleness_rework;
  }
  out.recovery_probability = 1.0 - p_no_recovery;

  // One recovery aborts if all A attempts fail, or (having restarted)
  // nothing retained can serve.
  out.abort_probability_per_failure =
      p_all_restarts_fail + (1.0 - p_all_restarts_fail) * p_no_recovery;
  const double n_f = out.base.expected_failures;
  out.abort_probability =
      std::isfinite(n_f)
          ? 1.0 - std::pow(1.0 - out.abort_probability_per_failure, n_f)
          : 1.0;
  if (out.abort_probability_per_failure == 0.0) out.abort_probability = 0.0;

  // PFS drains: every flush_period-th checkpoint pays flush_cost on the
  // critical path — all of it when blocking, only the exposed fraction
  // (terminal drain + interference) when asynchronous.
  if (u.flush_cost > 0.0 && std::isfinite(out.base.expected_checkpoints)) {
    const double exposure = u.async_flush ? u.async_exposed_fraction : 1.0;
    out.flush_overhead_total =
        out.base.expected_checkpoints / u.flush_period * u.flush_cost *
        exposure;
  }

  out.total_time =
      std::isfinite(out.base.total_time) && std::isfinite(n_f)
          ? out.base.total_time + n_f * out.per_failure_overhead +
                out.flush_overhead_total
          : std::numeric_limits<double>::infinity();
  return out;
}

FailureWaste predicted_failure_waste(double interval, double ckpt_cost,
                                     double restart_cost) {
  const auto check = [](double v, const char* name) {
    if (!(v >= 0.0))  // catches NaN too
      throw std::invalid_argument(
          std::string("predicted_failure_waste: ") + name +
          " must be >= 0, got " + util::shortest(v));
  };
  check(interval, "interval");
  check(ckpt_cost, "ckpt_cost");
  check(restart_cost, "restart_cost");
  FailureWaste w;
  // A failure lands uniformly inside a checkpoint period of length δ + c;
  // expected work lost since the last durable snapshot is half of it.
  w.rework = (interval + ckpt_cost) / 2.0;
  w.restart = restart_cost;
  return w;
}

void SdcModelParams::validate() const {
  const auto check = [](double v, const char* name) {
    if (!(v >= 0.0) || !std::isfinite(v))
      throw std::invalid_argument(std::string("SdcModelParams: ") + name +
                                  " must be finite and >= 0, got " +
                                  util::shortest(v));
  };
  check(interval, "interval");
  check(ckpt_cost, "ckpt_cost");
  check(compute_per_iteration, "compute_per_iteration");
  check(single_ranks, "single_ranks");
  check(dual_ranks, "dual_ranks");
  check(triple_ranks, "triple_ranks");
  if (!(interval + ckpt_cost > 0.0))
    throw std::invalid_argument(
        "SdcModelParams: checkpoint period (interval + ckpt_cost) must be "
        "> 0");
  if (!(compute_per_iteration > 0.0))
    throw std::invalid_argument(
        "SdcModelParams: compute_per_iteration must be > 0 (the detector "
        "runs once per iteration)");
  if (single_ranks + dual_ranks + triple_ranks <= 0.0 &&
      !(redundancy >= 1.0 && redundancy <= 3.0))
    throw std::invalid_argument(
        "SdcModelParams: give an explicit sphere-degree census or a "
        "redundancy in [1, 3] to derive one");
}

SdcPrediction predict_sdc(const SdcModelParams& params) {
  params.validate();
  SdcPrediction out;

  // Census: explicit counts, or the paper's partition in the continuum
  // limit — degree mix (2-r, r-1) doubles below r = 2, (3-r, r-2) triples
  // above, weighted by the replicas each sphere occupies.
  double s = params.single_ranks;
  double d = params.dual_ranks;
  double t = params.triple_ranks;
  if (s + d + t <= 0.0) {
    const double r = params.redundancy;
    if (r <= 2.0) {
      s = 2.0 - r;
      d = 2.0 * (r - 1.0);
      t = 0.0;
    } else {
      s = 0.0;
      d = 2.0 * (3.0 - r);
      t = 3.0 * (r - 2.0);
    }
  }
  const double census = s + d + t;
  out.p_silent = s / census;
  out.p_detect = d / census;
  out.p_correct = t / census;

  // Phase split: an at-rest infection lands uniformly inside a checkpoint
  // period of length δ + c (see the header's derivation).
  const double period = params.interval + params.ckpt_cost;
  const double p_work = params.interval / period;
  const double p_ckpt = params.ckpt_cost / period;
  const double tc = params.compute_per_iteration;

  // During work: caught at the same iteration's halo, T_c/2 away; nothing
  // was committed since, so nothing invalidates. During a checkpoint: the
  // epoch publishes unverified, and the detection waits out the remaining
  // checkpoint (c/2) plus one full compute leg.
  out.detection_latency =
      p_work * (tc / 2.0) + p_ckpt * (params.ckpt_cost / 2.0 + tc);
  out.invalidated_depth = p_ckpt;
  // Rollback target is the last *verified* checkpoint: a work-phase
  // infection loses the period's work so far (δ/2) plus the detection leg;
  // a checkpoint-phase infection additionally forfeits the whole preceding
  // period's work (the invalidated epoch banked it in vain).
  out.rework_per_detection =
      p_work * (params.interval / 2.0 + tc / 2.0) +
      p_ckpt * (params.interval + tc);
  return out;
}

Sensitivity sensitivity_at(const CombinedConfig& config, double r) {
  Sensitivity s;
  s.wrt_node_mtbf =
      elasticity(config, r, config.machine.node_mtbf,
                 [](CombinedConfig& c, double v) { c.machine.node_mtbf = v; });
  s.wrt_checkpoint_cost = elasticity(
      config, r, config.machine.checkpoint_cost,
      [](CombinedConfig& c, double v) { c.machine.checkpoint_cost = v; });
  s.wrt_restart_cost = elasticity(
      config, r, config.machine.restart_cost,
      [](CombinedConfig& c, double v) { c.machine.restart_cost = v; });
  s.wrt_comm_fraction = elasticity(
      config, r, config.app.comm_fraction,
      [](CombinedConfig& c, double v) { c.app.comm_fraction = v; });
  s.wrt_num_procs =
      elasticity(config, r, static_cast<double>(config.app.num_procs),
                 [](CombinedConfig& c, double v) {
                   c.app.num_procs = static_cast<std::size_t>(v);
                 });
  return s;
}

}  // namespace redcr::model

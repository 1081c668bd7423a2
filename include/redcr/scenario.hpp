// redcr::ScenarioBuilder — fluent construction of a combined-model scenario.
//
// The aggregate form
//
//   model::CombinedConfig cfg;
//   cfg.app.num_procs = 50000;
//   cfg.machine.node_mtbf = util::years(5);
//   ...
//
// keeps working (CombinedConfig is still a plain aggregate), but it accepts
// any half-filled struct silently. The builder names every knob at the call
// site, validates on build(), and reads in the paper's machine → app →
// model-choice order:
//
//   const model::CombinedConfig cfg = redcr::scenario()
//       .node_mtbf(util::years(5))
//       .checkpoint_cost(util::minutes(10))
//       .restart_cost(util::minutes(30))
//       .base_time(util::hours(128))
//       .comm_fraction(0.2)
//       .processes(50000)
//       .build();
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "model/combined.hpp"
#include "model/extensions.hpp"
#include "util/knob.hpp"
#include "util/units.hpp"

namespace redcr {

class ScenarioBuilder {
 public:
  // --- machine (θ, c, R) ---

  /// θ: per-node mean time between failures, seconds.
  ScenarioBuilder& node_mtbf(util::Seconds theta) {
    config_.machine.node_mtbf = theta;
    return *this;
  }
  /// c: wallclock cost of one coordinated checkpoint, seconds.
  ScenarioBuilder& checkpoint_cost(util::Seconds c) {
    config_.machine.checkpoint_cost = c;
    return *this;
  }
  /// R: dead time charged per restart phase, seconds.
  ScenarioBuilder& restart_cost(util::Seconds restart) {
    config_.machine.restart_cost = restart;
    return *this;
  }

  // --- application (t, α, N) ---

  /// t: failure-free, redundancy-free execution time, seconds.
  ScenarioBuilder& base_time(util::Seconds t) {
    config_.app.base_time = t;
    return *this;
  }
  /// α: communication fraction of t, in [0, 1] (Eq. 1).
  ScenarioBuilder& comm_fraction(double alpha) {
    config_.app.comm_fraction = alpha;
    return *this;
  }
  /// N: number of virtual processes.
  ScenarioBuilder& processes(std::size_t n) {
    config_.app.num_procs = n;
    return *this;
  }

  // --- model choices ---

  /// How the per-node failure probability is computed (Eq. 2 vs Eq. 3).
  ScenarioBuilder& failure_model(model::NodeFailureModel m) {
    config_.failure_model = m;
    return *this;
  }
  /// How t_RR treats the expected-failure-time integral (Eq. 13).
  ScenarioBuilder& restart_model(model::RestartModel m) {
    config_.restart_model = m;
    return *this;
  }

  // --- checkpoint-interval policy (mutually exclusive; Daly is default) ---

  /// δ = Daly's δ_opt (Eq. 15) — the default.
  ScenarioBuilder& daly_interval() {
    config_.use_young_interval = false;
    config_.fixed_interval.reset();
    return *this;
  }
  /// δ = Young's first-order interval sqrt(2cΘ_sys) (ablation).
  ScenarioBuilder& young_interval() {
    config_.use_young_interval = true;
    config_.fixed_interval.reset();
    return *this;
  }
  /// δ fixed to the given value, overriding Daly/Young.
  ScenarioBuilder& fixed_interval(util::Seconds delta) {
    config_.use_young_interval = false;
    config_.fixed_interval = delta;
    return *this;
  }

  // --- unreliable C/R + storage hierarchy (model::predict_unreliable) -----

  /// p_v: probability a committed generation passes restart validation.
  ScenarioBuilder& ckpt_validity(double p) {
    unreliable_.ckpt_validity = p;
    return *this;
  }
  /// s: probability one restart attempt succeeds.
  ScenarioBuilder& restart_success(double s) {
    unreliable_.restart_success = s;
    return *this;
  }
  /// d: generations retained for newest-first fallback.
  ScenarioBuilder& ckpt_retention(int depth) {
    unreliable_.retention_depth = depth;
    return *this;
  }
  /// A: restart attempts per recovery before aborting.
  ScenarioBuilder& restart_attempts(int attempts) {
    unreliable_.max_restart_attempts = attempts;
    return *this;
  }
  /// Appends one storage level (fastest first): its probability of serving
  /// a recovery, its fetch cost in seconds, and its expected staleness in
  /// checkpoint periods. See UnreliableCkptParams::LevelRecovery.
  ScenarioBuilder& storage_level(double recovery_prob,
                                 util::Seconds fetch_cost,
                                 double staleness_periods = 0.0) {
    unreliable_.levels.push_back(
        {recovery_prob, fetch_cost, staleness_periods});
    return *this;
  }
  /// PFS drain: `cost` seconds every `period` checkpoint epochs.
  ScenarioBuilder& pfs_flush(util::Seconds cost, double period = 1.0) {
    unreliable_.flush_cost = cost;
    unreliable_.flush_period = period;
    return *this;
  }
  /// Async flush: only `exposed_fraction` of each drain stays on the
  /// critical path.
  ScenarioBuilder& async_flush(double exposed_fraction = 0.0) {
    unreliable_.async_flush = true;
    unreliable_.async_exposed_fraction = exposed_fraction;
    return *this;
  }

  /// Validates and returns the unreliable-C/R parameters accumulated by the
  /// calls above (all defaults = the reliable pipeline). Throws
  /// std::invalid_argument naming the offending knob.
  [[nodiscard]] model::UnreliableCkptParams build_unreliable() const {
    unreliable_.validate();
    return unreliable_;
  }

  /// Validates and returns the finished configuration. Throws
  /// std::invalid_argument naming the offending knob.
  [[nodiscard]] model::CombinedConfig build() const {
    const auto fail = [](const std::string& what) {
      throw std::invalid_argument("redcr::ScenarioBuilder: " + what);
    };
    // The `!(x > 0)` form rejects NaN along with out-of-range values; the
    // explicit isfinite calls additionally reject infinities, which would
    // otherwise silently propagate through every downstream equation.
    if (config_.app.num_procs < 1) fail("processes() must be >= 1");
    if (!(config_.app.base_time > 0.0) || !std::isfinite(config_.app.base_time))
      fail("base_time() must be finite and > 0");
    if (!(config_.app.comm_fraction >= 0.0 &&
          config_.app.comm_fraction <= 1.0))
      fail("comm_fraction() must be in [0, 1]");
    if (!(config_.machine.node_mtbf > 0.0) ||
        !std::isfinite(config_.machine.node_mtbf))
      fail("node_mtbf() must be finite and > 0");
    if (!(config_.machine.checkpoint_cost >= 0.0) ||
        !std::isfinite(config_.machine.checkpoint_cost))
      fail("checkpoint_cost() must be finite and >= 0");
    if (!(config_.machine.restart_cost >= 0.0) ||
        !std::isfinite(config_.machine.restart_cost))
      fail("restart_cost() must be finite and >= 0");
    if (config_.fixed_interval && (!(*config_.fixed_interval > 0.0) ||
                                   !std::isfinite(*config_.fixed_interval)))
      fail("fixed_interval() must be finite and > 0");
    return config_;
  }

 private:
  model::CombinedConfig config_;
  model::UnreliableCkptParams unreliable_;
};

/// Entry point: `redcr::scenario().node_mtbf(...)...build()`.
[[nodiscard]] inline ScenarioBuilder scenario() { return ScenarioBuilder{}; }

/// The scenario's knobs with their defaults, bound to `b`: the flags of
/// `redcr_cli model` and `sweep` and of the capacity_planner example, and
/// serve's request keys (spelled with '_', e.g. `mtbf_years`). Only `procs`
/// carries a range here; build() checks the rest.
[[nodiscard]] inline util::FlagSet scenario_flags(ScenarioBuilder& b) {
  using util::Domain;
  using util::Value;
  return {
      {"procs", "N", "50000", Domain::count(1, 1e15),
       [&b](Value v) { b.processes(std::size_t(v.number)); }},
      {"hours", "T", "128", Domain::number(),
       [&b](Value v) { b.base_time(util::hours(v.number)); }},
      {"mtbf-years", "Y", "5", Domain::number(),
       [&b](Value v) { b.node_mtbf(util::years(v.number)); }},
      {"alpha", "A", "0.2", Domain::number(),
       [&b](Value v) { b.comm_fraction(v.number); }},
      {"ckpt-sec", "C", "600", Domain::number(),
       [&b](Value v) { b.checkpoint_cost(v.number); }},
      {"restart-sec", "R", "1800", Domain::number(),
       [&b](Value v) { b.restart_cost(v.number); }},
  };
}

}  // namespace redcr

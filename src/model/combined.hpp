// Combined redundancy + checkpoint/restart model (Section 4.3) — the paper's
// primary contribution. Given machine and application parameters and a
// redundancy degree r, predicts the total wallclock time by chaining:
//   Eq. 1  (t_Red)  ->  Eqs. 9-10 (λ_sys, Θ_sys)  ->  Eq. 15 (δ_opt)
//   ->  Eq. 12 (t_lw)  ->  Eq. 13 (t_RR)  ->  Eq. 14 (T_total).
// Also provides the Section-6 simplified model used for Figs. 11-12, the
// optimal-degree search, and the crossover/break-even finders behind
// Figs. 13-14.
#pragma once

#include <optional>
#include <vector>

#include "model/params.hpp"
#include "model/redundancy.hpp"

namespace redcr::model {

/// All inputs of a combined-model evaluation.
struct CombinedConfig {
  AppParams app;
  MachineParams machine;
  NodeFailureModel failure_model = NodeFailureModel::kLinearized;
  RestartModel restart_model = RestartModel::kAsPublished;
  /// If set, overrides Daly's δ_opt with a fixed checkpoint interval.
  std::optional<double> fixed_interval;
  /// Use Young's first-order interval instead of Daly's (ablation).
  bool use_young_interval = false;
};

/// One fully evaluated model point; field names match the paper's symbols.
struct Prediction {
  double r = 1.0;                ///< redundancy degree evaluated
  double redundant_time = 0.0;   ///< t_Red (Eq. 1)
  double reliability = 1.0;      ///< R_sys over t_Red (Eq. 9)
  double failure_rate = 0.0;     ///< λ_sys (Eq. 10)
  double system_mtbf = 0.0;      ///< Θ_sys (Eq. 10)
  double interval = 0.0;         ///< δ used (Daly/Young/fixed)
  double lost_work = 0.0;        ///< t_lw (Eq. 12)
  double restart_rework = 0.0;   ///< t_RR (Eq. 13)
  double total_time = 0.0;       ///< T_total (Eq. 14)
  double expected_checkpoints = 0.0;  ///< t_Red/δ, the "Chkpts" annotation
  double expected_failures = 0.0;     ///< n_f = T_total·λ_sys (Eq. 11)
  std::size_t total_procs = 0;   ///< N_total (Eq. 8)
};

/// Evaluates the full combined model at redundancy degree r. `cache`
/// (optional) memoizes the Eq. 9 sphere terms across calls — the kExact
/// batch loop shares one; results are bitwise-identical with or without it.
[[nodiscard]] Prediction predict(const CombinedConfig& config, double r,
                                 SphereTermCache* cache = nullptr);

/// Section 6's simplified model, matched to the experimental setup (failures
/// are not injected during checkpoint or restart phases):
///   T_total = t_Red + (t_Red/δ_Young)·c + t_Red·λ_sys·R,
/// with δ_Young = sqrt(2cΘ_sys). (The paper prints the middle term without
/// the division by δ — dimensionally a typo; we use the consistent form,
/// which matches the paper's own Fig. 11 magnitudes.)
[[nodiscard]] Prediction predict_simplified(const CombinedConfig& config,
                                            double r,
                                            SphereTermCache* cache = nullptr);

namespace detail {

/// The one Eq. 9-15 chain behind predict(), predict_simplified() and
/// predict_same_nodes(): Eqs. 5-9 for N processes at degree r over the run
/// time `t_red`, Eq. 10, then Eqs. 12-15 (or Section 6's simplified
/// finish). total_procs is Eq. 8's count.
[[nodiscard]] Prediction predict_over(const CombinedConfig& config, double r,
                                      double t_red, bool simplified,
                                      SphereTermCache* cache);

}  // namespace detail

/// Evaluates `predict` over r in [r_begin, r_end] with the given step.
[[nodiscard]] std::vector<Prediction> sweep_redundancy(
    const CombinedConfig& config, double r_begin = 1.0, double r_end = 3.0,
    double step = 0.25);

/// Finds the redundancy degree minimizing T_total via grid scan plus
/// golden-section refinement within the best grid cell.
struct Optimum {
  double r = 1.0;
  Prediction prediction;
};
[[nodiscard]] Optimum optimize_redundancy(const CombinedConfig& config,
                                          double r_begin = 1.0,
                                          double r_end = 3.0,
                                          double grid_step = 0.05);

/// Finds the process count N at which T_total(r_a) == T_total(r_b) under
/// weak scaling (t fixed per process), by bisection over [n_lo, n_hi].
/// Returns nullopt if the difference does not change sign on the bracket.
[[nodiscard]] std::optional<double> crossover_procs(CombinedConfig config,
                                                    double r_a, double r_b,
                                                    double n_lo, double n_hi);

/// Finds the N at which T_total(r=1) == factor · T_total(r) — e.g. the
/// paper's "two dual-redundant jobs finish within one non-redundant job"
/// point uses r = 2, factor = 2 (Fig. 14, N ≈ 78,536 in the paper).
[[nodiscard]] std::optional<double> break_even_procs(CombinedConfig config,
                                                     double r, double factor,
                                                     double n_lo, double n_hi);

}  // namespace redcr::model

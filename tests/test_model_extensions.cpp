// Tests for the model extensions: the Ferreira same-node-count comparison,
// direct checkpoint-interval optimization, and parameter sensitivities.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "model/extensions.hpp"
#include "util/units.hpp"

namespace redcr::model {
namespace {

using util::hours;
using util::minutes;
using util::years;

CombinedConfig base_config() {
  CombinedConfig cfg;
  cfg.app.base_time = hours(128);
  cfg.app.comm_fraction = 0.2;
  cfg.app.num_procs = 50000;
  cfg.machine.node_mtbf = years(5);
  cfg.machine.checkpoint_cost = 600.0;
  cfg.machine.restart_cost = 1800.0;
  return cfg;
}

// --- Same-nodes assumption ------------------------------------------------------

TEST(SameNodes, NodeCountStaysFixed) {
  const CombinedConfig cfg = base_config();
  const Prediction p = predict_same_nodes(cfg, 2.0);
  EXPECT_EQ(p.total_procs, cfg.app.num_procs);
  EXPECT_DOUBLE_EQ(p.redundant_time, 2.0 * cfg.app.base_time);
}

TEST(SameNodes, MatchesExtraNodesAtDegreeOne) {
  const CombinedConfig cfg = base_config();
  const Prediction shared = predict_same_nodes(cfg, 1.0);
  const Prediction extra = predict(cfg, 1.0);
  EXPECT_DOUBLE_EQ(shared.total_time, extra.total_time);
  EXPECT_DOUBLE_EQ(shared.redundant_time, extra.redundant_time);
}

TEST(SameNodes, ExtraNodesAssumptionIsFasterAtHigherDegrees) {
  // The paper's point: giving replicas their own nodes avoids the r-fold
  // compute dilation, so the extra-nodes T_total is strictly better for
  // r > 1 (at r-fold node cost).
  const CombinedConfig cfg = base_config();
  for (const double r : {1.5, 2.0, 3.0}) {
    EXPECT_LT(predict(cfg, r).total_time,
              predict_same_nodes(cfg, r).total_time)
        << r;
  }
}

TEST(SameNodes, RedundancyCanStillPayOnFixedNodes) {
  // At large enough scale even compute-dilating redundancy beats pure C/R —
  // the qualitative result of Ferreira et al. that motivated the paper.
  CombinedConfig cfg = base_config();
  cfg.app.num_procs = 300000;
  EXPECT_LT(predict_same_nodes(cfg, 2.0).total_time,
            predict_same_nodes(cfg, 1.0).total_time);
}

// --- Interval search -------------------------------------------------------------

class IntervalDegrees : public ::testing::TestWithParam<double> {};
INSTANTIATE_TEST_SUITE_P(Degrees, IntervalDegrees,
                         ::testing::Values(1.0, 1.5, 2.0, 3.0));

TEST_P(IntervalDegrees, DalyIsNearTheTrueOptimum) {
  // The paper adopts Daly's δ_opt without re-deriving it for its own cost
  // model (Eqs. 12-14). Daly's formula minimizes *his* model, so against
  // Eq. 14 it carries a small penalty — measured ≈ 3% at r=1 where
  // failures matter, vanishing at higher degrees. Verify it stays under 5%
  // (i.e. the paper's shortcut is sound).
  const CombinedConfig cfg = base_config();
  const IntervalOptimum opt = optimal_interval_search(cfg, GetParam());
  EXPECT_GT(opt.best_interval, 0.0);
  EXPECT_GE(opt.daly_total_time, opt.best_total_time - 1e-9);
  EXPECT_LT(opt.daly_penalty, 0.05)
      << "Daly δ=" << opt.daly_interval << " vs optimal "
      << opt.best_interval;
}

TEST(IntervalSearch, FixedIntervalFarFromOptimumIsWorse) {
  CombinedConfig cfg = base_config();
  const IntervalOptimum opt = optimal_interval_search(cfg, 1.0);
  cfg.fixed_interval = opt.best_interval / 20.0;  // checkpoint far too often
  EXPECT_GT(predict(cfg, 1.0).total_time, 1.2 * opt.best_total_time);
  cfg.fixed_interval = opt.best_interval * 50.0;  // far too rarely
  EXPECT_GT(predict(cfg, 1.0).total_time, 1.05 * opt.best_total_time);
}

// --- Sensitivity -----------------------------------------------------------------

TEST(Sensitivity, SignsMatchIntuition) {
  const CombinedConfig cfg = base_config();
  const Sensitivity s = sensitivity_at(cfg, 1.0);
  EXPECT_LT(s.wrt_node_mtbf, 0.0) << "better nodes -> shorter run";
  EXPECT_GT(s.wrt_checkpoint_cost, 0.0);
  EXPECT_GT(s.wrt_restart_cost, 0.0);
  EXPECT_GT(s.wrt_num_procs, 0.0) << "weak scaling: more nodes -> more failures";
}

TEST(Sensitivity, CommunicationMattersMoreUnderRedundancy) {
  // At r=1 α has no effect (Eq. 1); at r=3 it directly dilates the run.
  const CombinedConfig cfg = base_config();
  const Sensitivity at_one = sensitivity_at(cfg, 1.0);
  const Sensitivity at_three = sensitivity_at(cfg, 3.0);
  EXPECT_NEAR(at_one.wrt_comm_fraction, 0.0, 1e-6);
  EXPECT_GT(at_three.wrt_comm_fraction, 0.01);
}

TEST(Sensitivity, MtbfDominatesAtScaleWithoutRedundancy) {
  CombinedConfig cfg = base_config();
  cfg.app.num_procs = 200000;
  const Sensitivity s = sensitivity_at(cfg, 1.0);
  EXPECT_LT(s.wrt_node_mtbf, -0.3);
  // With dual redundancy the job barely notices node MTBF anymore.
  const Sensitivity dual = sensitivity_at(cfg, 2.0);
  EXPECT_GT(dual.wrt_node_mtbf, s.wrt_node_mtbf);
}

TEST(FailureWaste, FirstOrderExpectationPerFailure) {
  // Uniformly-placed failure inside a δ + c period loses half of it; the
  // restart bill is one successful attempt.
  const FailureWaste w = predicted_failure_waste(60.0, 10.0, 30.0);
  EXPECT_DOUBLE_EQ(w.rework, 35.0);
  EXPECT_DOUBLE_EQ(w.restart, 30.0);
  EXPECT_DOUBLE_EQ(w.total(), 65.0);
  // Degenerate but legal: free checkpoints, free restarts.
  const FailureWaste z = predicted_failure_waste(0.0, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(z.total(), 0.0);
}

TEST(FailureWaste, RejectsNegativeAndNanInputs) {
  EXPECT_THROW((void)predicted_failure_waste(-1.0, 0.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)predicted_failure_waste(60.0, -0.5, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)predicted_failure_waste(60.0, 0.0, -30.0),
               std::invalid_argument);
  const double nan = std::nan("");
  EXPECT_THROW((void)predicted_failure_waste(nan, 0.0, 0.0),
               std::invalid_argument);
}

TEST(UnreliableParams, HierarchyTermsMustBeFinite) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  UnreliableCkptParams u;
  u.levels = {{0.5, kInf, 0.0}};
  EXPECT_THROW(u.validate(), std::invalid_argument);
  u.levels = {{0.5, 10.0, kInf}};
  EXPECT_THROW(u.validate(), std::invalid_argument);
  u.levels.clear();
  u.flush_cost = kInf;
  EXPECT_THROW(u.validate(), std::invalid_argument);
  u.flush_cost = 600.0;
  u.flush_period = kInf;  // never flush
  EXPECT_NO_THROW(u.validate());
}

}  // namespace
}  // namespace redcr::model

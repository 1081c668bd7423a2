// Unit and property tests for the analytic model (paper Section 4).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "model/batch.hpp"
#include "model/breakdown.hpp"
#include "model/checkpoint.hpp"
#include "model/combined.hpp"
#include "model/extensions.hpp"
#include "model/redundancy.hpp"
#include "util/units.hpp"

namespace redcr::model {
namespace {

using util::hours;
using util::minutes;
using util::seconds;
using util::years;

AppParams cg_app() {
  AppParams app;
  app.base_time = minutes(46);
  app.comm_fraction = 0.2;
  app.num_procs = 128;
  return app;
}

MachineParams cluster() {
  MachineParams m;
  m.node_mtbf = hours(6);
  m.checkpoint_cost = seconds(120);
  m.restart_cost = seconds(500);
  return m;
}

// --- Eq. 1 ----------------------------------------------------------------

TEST(RedundantTime, NoRedundancyIsIdentity) {
  EXPECT_DOUBLE_EQ(redundant_time(cg_app(), 1.0), minutes(46));
}

TEST(RedundantTime, OnlyCommunicationDilates) {
  const AppParams app = cg_app();
  // α = 0.2: doubling r adds exactly 20% of t.
  EXPECT_DOUBLE_EQ(redundant_time(app, 2.0), minutes(46) * 1.2);
  EXPECT_DOUBLE_EQ(redundant_time(app, 3.0), minutes(46) * 1.4);
}

TEST(RedundantTime, PureComputationIsUnaffected) {
  AppParams app = cg_app();
  app.comm_fraction = 0.0;
  EXPECT_DOUBLE_EQ(redundant_time(app, 3.0), app.base_time);
}

TEST(RedundantTime, PureCommunicationScalesLinearly) {
  AppParams app = cg_app();
  app.comm_fraction = 1.0;
  EXPECT_DOUBLE_EQ(redundant_time(app, 2.5), 2.5 * app.base_time);
}

class RedundancySweep : public ::testing::TestWithParam<double> {};
INSTANTIATE_TEST_SUITE_P(Degrees, RedundancySweep,
                         ::testing::Values(1.0, 1.25, 1.5, 1.75, 2.0, 2.25,
                                           2.5, 2.75, 3.0));

TEST_P(RedundancySweep, RedundantTimeIsIncreasingInR) {
  const double r = GetParam();
  if (r == 1.0) return;
  EXPECT_GT(redundant_time(cg_app(), r), redundant_time(cg_app(), r - 0.25));
}

// --- Eqs. 5-8 ---------------------------------------------------------------

TEST_P(RedundancySweep, PartitionSetsSumToN) {
  const double r = GetParam();
  for (const std::size_t n : {1u, 7u, 128u, 1000u, 99999u}) {
    const Partition p = partition_processes(n, r);
    EXPECT_EQ(p.n_floor_set + p.n_ceil_set, n);
    EXPECT_LE(p.total_procs, static_cast<std::size_t>(std::ceil(n * r)));
    EXPECT_GE(p.total_procs, n);
  }
}

TEST(Partition, IntegerDegreesAreHomogeneous) {
  for (const double r : {1.0, 2.0, 3.0}) {
    const Partition p = partition_processes(128, r);
    EXPECT_EQ(p.n_floor_set, 0u) << r;
    EXPECT_EQ(p.n_ceil_set, 128u) << r;
    EXPECT_EQ(p.total_procs, static_cast<std::size_t>(128 * r)) << r;
  }
}

TEST(Partition, HalfRedundancySplitsEvenly) {
  const Partition p = partition_processes(128, 1.5);
  EXPECT_EQ(p.n_floor_set, 64u);
  EXPECT_EQ(p.n_ceil_set, 64u);
  EXPECT_EQ(p.floor_degree, 1u);
  EXPECT_EQ(p.ceil_degree, 2u);
  EXPECT_EQ(p.total_procs, 192u);  // Eq. 8
}

TEST(Partition, PaperExampleQuarterSteps) {
  // r = 1.25 on 128: a quarter of processes get a replica.
  const Partition p = partition_processes(128, 1.25);
  EXPECT_EQ(p.n_ceil_set, 32u);
  EXPECT_EQ(p.n_floor_set, 96u);
  EXPECT_EQ(p.total_procs, 160u);
}

// --- Eqs. 2-4, 9 -----------------------------------------------------------

TEST(NodeFailure, LinearizedMatchesExactForSmallT) {
  const double theta = years(5);
  const double t = hours(1);
  EXPECT_NEAR(node_failure_probability(t, theta, NodeFailureModel::kLinearized),
              node_failure_probability(t, theta,
                                       NodeFailureModel::kExactExponential),
              1e-8);
}

TEST(NodeFailure, LinearizedClampsAtOne) {
  EXPECT_DOUBLE_EQ(node_failure_probability(10.0, 1.0,
                                            NodeFailureModel::kLinearized),
                   1.0);
}

TEST(Reliability, BoundsAndMonotonicity) {
  const double theta = hours(6);
  double previous = 0.0;
  for (const double r : {1.0, 1.5, 2.0, 2.5, 3.0}) {
    const double rel = system_reliability(128, r, minutes(46), theta,
                                          NodeFailureModel::kLinearized);
    EXPECT_GE(rel, 0.0);
    EXPECT_LE(rel, 1.0);
    EXPECT_GT(rel, previous) << "reliability must increase with degree";
    previous = rel;
  }
}

TEST(Reliability, DecreasesWithTime) {
  const double theta = hours(6);
  EXPECT_GT(system_reliability(128, 2.0, minutes(10), theta,
                               NodeFailureModel::kLinearized),
            system_reliability(128, 2.0, minutes(100), theta,
                               NodeFailureModel::kLinearized));
}

TEST(Reliability, MoreProcessesAreLessReliable) {
  const double theta = hours(6);
  EXPECT_GT(system_reliability(64, 2.0, minutes(46), theta,
                               NodeFailureModel::kLinearized),
            system_reliability(1024, 2.0, minutes(46), theta,
                               NodeFailureModel::kLinearized));
}

TEST(Reliability, SurvivesHugeProcessCountsWithoutUnderflow) {
  // 10^6 processes: the naive product would underflow; log-space must not.
  const double rel = system_reliability(1000000, 2.0, hours(128), years(5),
                                        NodeFailureModel::kLinearized);
  EXPECT_GT(rel, 0.0);
  EXPECT_LT(rel, 1.0);
}

TEST(SystemFailure, MtbfImprovesWithRedundancy) {
  const SystemFailure one =
      system_failure(cg_app(), cluster(), 1.0, NodeFailureModel::kLinearized);
  const SystemFailure two =
      system_failure(cg_app(), cluster(), 2.0, NodeFailureModel::kLinearized);
  const SystemFailure three =
      system_failure(cg_app(), cluster(), 3.0, NodeFailureModel::kLinearized);
  EXPECT_GT(two.mtbf, one.mtbf);
  EXPECT_GT(three.mtbf, two.mtbf);
  EXPECT_LT(two.failure_rate, one.failure_rate);
}

TEST(SystemFailure, RateTimesMtbfIsUnity) {
  const SystemFailure sf =
      system_failure(cg_app(), cluster(), 1.5, NodeFailureModel::kLinearized);
  EXPECT_NEAR(sf.failure_rate * sf.mtbf, 1.0, 1e-12);
}

TEST(Birthday, FormulaAsPublished) {
  // Small n sanity plus the limit behaviour documented in the header.
  EXPECT_DOUBLE_EQ(birthday_collision_probability(2.0), 1.0);
  EXPECT_GT(birthday_collision_probability(1000.0), 0.999);
  EXPECT_NEAR(shadow_hit_probability(101.0), 0.01, 1e-12);
}

// --- Eqs. 12-15 -------------------------------------------------------------

TEST(Intervals, DalyReducesToYoungForLargeTheta) {
  const double c = 60.0;
  const double theta = years(10);
  EXPECT_NEAR(daly_interval(c, theta), young_interval(c, theta) - c,
              young_interval(c, theta) * 1e-3);
}

TEST(Intervals, DalyGuardsDegenerateRegime) {
  EXPECT_DOUBLE_EQ(daly_interval(100.0, 40.0), 40.0);  // c >= 2Θ -> δ = Θ
}

TEST(Intervals, PaperFigure4And6Annotations) {
  // Fig. 4 vs Fig. 6: c differs 10x, so δ_opt differs ~sqrt(10).
  const double theta = minutes(54);
  const double d4 = daly_interval(600.0, theta);
  const double d6 = daly_interval(60.0, theta);
  EXPECT_NEAR(d4 / d6, std::sqrt(10.0), 0.6);
}

TEST(LostWork, WithinSegmentBounds) {
  for (const double theta : {minutes(10), hours(1), hours(100)}) {
    const double delta = 600.0, c = 60.0;
    const double lw = expected_lost_work(delta, c, theta);
    EXPECT_GE(lw, 0.0);
    EXPECT_LE(lw, delta);
  }
}

TEST(LostWork, ApproachesHalfSegmentForHugeMtbf) {
  // Θ -> ∞ with c << δ: failures land uniformly, losing ~δ/2.
  const double delta = 600.0;
  const double lw = expected_lost_work(delta, 1e-9, years(1000));
  EXPECT_NEAR(lw, delta / 2.0, delta * 0.01);
}

TEST(LostWork, InfiniteMtbfUsesSeriesLimit) {
  const double delta = 600.0, c = 60.0;
  const double lw = expected_lost_work(
      delta, c, std::numeric_limits<double>::infinity());
  EXPECT_NEAR(lw, delta * (delta / 2 + c) / (delta + c), 1e-6);
}

TEST(RestartRework, BoundedByFullPhase) {
  for (const double theta : {minutes(10), hours(2), hours(200)}) {
    const double trr = restart_rework_time(500.0, 300.0, theta,
                                           RestartModel::kAsPublished);
    EXPECT_GT(trr, 0.0);
    EXPECT_LE(trr, 800.0 + 1e-9);
  }
}

TEST(RestartRework, ApproachesFullPhaseForReliableSystems) {
  const double trr = restart_rework_time(500.0, 300.0, years(100),
                                         RestartModel::kAsPublished);
  EXPECT_NEAR(trr, 800.0, 1.0);
}

TEST(RestartRework, ConditionalVariantIsLarger) {
  // The published form multiplies the truncated expectation by an extra
  // probability < 1, so it is never above the consistent variant.
  const double published = restart_rework_time(500.0, 300.0, minutes(30),
                                               RestartModel::kAsPublished);
  const double conditional = restart_rework_time(500.0, 300.0, minutes(30),
                                                 RestartModel::kConditional);
  EXPECT_LE(published, conditional);
}

TEST(TotalTime, AlwaysAtLeastBasePlusCheckpoints) {
  const double t = hours(128), c = 600.0, delta = 3600.0;
  const double total = total_time(t, c, delta, 1.0 / hours(10), 1000.0);
  EXPECT_GE(total, t + t * c / delta);
}

TEST(TotalTime, DivergesWhenRepairOutpacesFailures) {
  // λ·t_RR >= 1: the job can never complete (Eq. 14's pole).
  const double total = total_time(hours(1), 60.0, 600.0, 1.0 / 100.0, 200.0);
  EXPECT_TRUE(std::isinf(total));
}

// --- Combined model ----------------------------------------------------------

CombinedConfig experiment_config(double mtbf_hours) {
  CombinedConfig cfg;
  cfg.app = cg_app();
  cfg.machine = cluster();
  cfg.machine.node_mtbf = hours(mtbf_hours);
  return cfg;
}

TEST(Combined, PredictionFieldsAreConsistent) {
  const Prediction p = predict(experiment_config(6.0), 2.0);
  EXPECT_DOUBLE_EQ(p.r, 2.0);
  EXPECT_NEAR(p.redundant_time, minutes(46) * 1.2, 1e-9);
  EXPECT_EQ(p.total_procs, 256u);
  EXPECT_GT(p.total_time, p.redundant_time);
  EXPECT_NEAR(p.expected_checkpoints, p.redundant_time / p.interval, 1e-9);
  EXPECT_NEAR(p.expected_failures, p.total_time * p.failure_rate, 1e-6);
}

TEST(Combined, RedundancyHelpsAtHighFailureRates) {
  // 6 h node MTBF on 128 procs: the paper's Table 4 shows 2x and 3x far
  // ahead of 1x.
  const CombinedConfig cfg = experiment_config(6.0);
  const double t1 = predict(cfg, 1.0).total_time;
  const double t2 = predict(cfg, 2.0).total_time;
  const double t3 = predict(cfg, 3.0).total_time;
  EXPECT_LT(t2, t1);
  EXPECT_LT(t3, t1);
}

TEST(Combined, QuarterStepPastTwoDegradesAtLowFailureRates) {
  // Paper observation 4 has two parts. "2.25x worse than 2x" is visible in
  // the analytic model at low failure rates: past 2x every sphere already
  // survives single failures, so a quarter step buys little reliability but
  // full linear overhead. ("1.25x worse than 1x" is an *experimental*
  // effect of superlinear redundancy overhead — Fig. 10 — outside the
  // linear Eq. 1; the DES harness reproduces that half.)
  for (const double mtbf_hours : {18.0, 24.0, 30.0}) {
    const CombinedConfig cfg = experiment_config(mtbf_hours);
    EXPECT_GT(predict(cfg, 2.25).total_time, predict(cfg, 2.0).total_time)
        << "MTBF " << mtbf_hours;
  }
}

TEST(Combined, SweepCoversRequestedGrid) {
  const auto sweep = sweep_redundancy(experiment_config(12.0), 1.0, 3.0, 0.25);
  ASSERT_EQ(sweep.size(), 9u);
  EXPECT_DOUBLE_EQ(sweep.front().r, 1.0);
  EXPECT_DOUBLE_EQ(sweep.back().r, 3.0);
}

TEST(Combined, OptimizerFindsGridMinimumOrBetter) {
  const CombinedConfig cfg = experiment_config(12.0);
  const Optimum opt = optimize_redundancy(cfg);
  for (const Prediction& p : sweep_redundancy(cfg)) {
    EXPECT_LE(opt.prediction.total_time, p.total_time + 1e-6)
        << "optimizer beaten at r=" << p.r;
  }
}

TEST(Combined, SimplifiedModelTracksFullModelShape) {
  // Same winner (2x) under both models for the paper's 30 h configuration.
  const CombinedConfig cfg = experiment_config(30.0);
  const double s1 = predict_simplified(cfg, 1.0).total_time;
  const double s2 = predict_simplified(cfg, 2.0).total_time;
  const double s3 = predict_simplified(cfg, 3.0).total_time;
  EXPECT_LT(s2, s1);
  EXPECT_LT(s2, s3);
}

TEST(Combined, YoungVsDalyAblationIsClose) {
  CombinedConfig daly = experiment_config(18.0);
  CombinedConfig young = daly;
  young.use_young_interval = true;
  const double td = predict(daly, 2.0).total_time;
  const double ty = predict(young, 2.0).total_time;
  EXPECT_NEAR(td, ty, 0.05 * td);
}

TEST(Combined, FixedIntervalOverrideIsHonored) {
  CombinedConfig cfg = experiment_config(18.0);
  cfg.fixed_interval = 1234.0;
  EXPECT_DOUBLE_EQ(predict(cfg, 2.0).interval, 1234.0);
}

TEST(Combined, WeakScalingCrossoverExistsAndOrdersProperly) {
  // Fig. 13's structure: 1x/2x crossover below the 1x/3x crossover.
  CombinedConfig cfg;
  cfg.app.base_time = hours(128);
  cfg.app.comm_fraction = 0.2;
  cfg.machine.node_mtbf = years(5);
  cfg.machine.checkpoint_cost = 600.0;
  cfg.machine.restart_cost = 1800.0;
  const auto x12 = crossover_procs(cfg, 1.0, 2.0, 100, 1000000);
  const auto x13 = crossover_procs(cfg, 1.0, 3.0, 100, 1000000);
  ASSERT_TRUE(x12.has_value());
  ASSERT_TRUE(x13.has_value());
  EXPECT_LT(*x12, *x13);
  // Beyond the crossover, 2x must win.
  cfg.app.num_procs = static_cast<std::size_t>(*x12 * 4);
  EXPECT_LT(predict(cfg, 2.0).total_time, predict(cfg, 1.0).total_time);
}

TEST(Combined, BreakEvenThroughputPoint) {
  CombinedConfig cfg;
  cfg.app.base_time = hours(128);
  cfg.app.comm_fraction = 0.2;
  cfg.machine.node_mtbf = years(5);
  cfg.machine.checkpoint_cost = 600.0;
  cfg.machine.restart_cost = 1800.0;
  const auto be = break_even_procs(cfg, 2.0, 2.0, 1000, 5000000);
  ASSERT_TRUE(be.has_value());
  // At the break-even N, T(1x) == 2 T(2x).
  cfg.app.num_procs = static_cast<std::size_t>(*be);
  EXPECT_NEAR(predict(cfg, 1.0).total_time,
              2.0 * predict(cfg, 2.0).total_time,
              0.01 * predict(cfg, 1.0).total_time);
}

TEST(Combined, NoSignChangeReturnsNullopt) {
  CombinedConfig cfg = experiment_config(6.0);
  // On a tiny bracket nowhere near a crossover there is no sign change.
  EXPECT_FALSE(crossover_procs(cfg, 1.0, 2.0, 100000, 100001).has_value());
}

// --- Breakdown (Tables 2-3 machinery) ---------------------------------------

TEST(Breakdown, FractionsSumToOne) {
  CombinedConfig cfg;
  cfg.app.base_time = hours(168);
  cfg.app.comm_fraction = 0.0;
  cfg.app.num_procs = 10000;
  cfg.machine.node_mtbf = years(5);
  cfg.machine.checkpoint_cost = 300.0;
  cfg.machine.restart_cost = 600.0;
  const TimeBreakdown b = compute_breakdown(cfg, 1.0);
  EXPECT_NEAR(b.work + b.checkpoint + b.recompute + b.restart, 1.0, 1e-9);
  EXPECT_GT(b.work, 0.0);
}

TEST(Breakdown, UsefulWorkDecaysWithScale) {
  // Table 2's trend: work fraction falls as nodes grow.
  CombinedConfig cfg;
  cfg.app.base_time = hours(168);
  cfg.app.comm_fraction = 0.0;
  cfg.machine.node_mtbf = years(5);
  cfg.machine.checkpoint_cost = 300.0;
  cfg.machine.restart_cost = 600.0;
  double previous = 1.1;
  for (const std::size_t n : {100u, 1000u, 10000u, 100000u}) {
    cfg.app.num_procs = n;
    const TimeBreakdown b = compute_breakdown(cfg, 1.0);
    EXPECT_LT(b.work, previous) << n;
    previous = b.work;
  }
  EXPECT_LT(previous, 0.7);  // at 100k nodes most time is overhead
}

TEST(Breakdown, RedundancyRestoresUsefulWork) {
  // Table 3's punchline: doubling nodes revives the work fraction.
  CombinedConfig cfg;
  cfg.app.base_time = hours(168);
  cfg.app.comm_fraction = 0.0;
  cfg.app.num_procs = 100000;
  cfg.machine.node_mtbf = years(5);
  cfg.machine.checkpoint_cost = 300.0;
  cfg.machine.restart_cost = 600.0;
  const TimeBreakdown plain = compute_breakdown(cfg, 1.0);
  const TimeBreakdown dual = compute_breakdown(cfg, 2.0);
  EXPECT_GT(dual.work, plain.work);
  EXPECT_LT(dual.restart + dual.recompute, plain.restart + plain.recompute);
}

// --- Pinned digest of every model entry -------------------------------------
//
// FNV-1a over the bit pattern of every Prediction field, one digest per
// entry, on the Table-4 calibration grown to N ∈ {1, 128, 5e4, 1e6}, both
// failure and restart models and Daly, Young and fixed δ, plus two edge
// points. The constants were taken from the code before the entries shared
// one Eq. 9-15 chain, so any change to any bit any entry returns fails here.

class Digest {
 public:
  void add(const Prediction& p) {
    for (const double field :
         {p.r, p.redundant_time, p.reliability, p.failure_rate, p.system_mtbf,
          p.interval, p.lost_work, p.restart_rework, p.total_time,
          p.expected_checkpoints, p.expected_failures})
      mix(std::bit_cast<std::uint64_t>(field));
    mix(p.total_procs);
  }
  void add(const std::vector<Prediction>& sweep) {
    for (const Prediction& p : sweep) add(p);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (word >> (8 * byte)) & 0xffu;
      h_ *= 1099511628211ull;  // FNV-1a 64-bit prime
    }
  }
  std::uint64_t h_ = 14695981039346656037ull;  // FNV-1a offset basis
};

std::vector<CombinedConfig> digest_configs() {
  std::vector<CombinedConfig> configs;
  for (const std::size_t n : {1u, 128u, 50000u, 1000000u})
    for (const double mtbf_hours : {6.0, 12.0, 18.0, 24.0, 30.0})
      for (const auto failure : {NodeFailureModel::kLinearized,
                                 NodeFailureModel::kExactExponential})
        for (const auto restart :
             {RestartModel::kAsPublished, RestartModel::kConditional})
          for (int interval = 0; interval < 3; ++interval) {
            CombinedConfig cfg;
            cfg.app = cg_app();
            cfg.app.num_procs = n;
            cfg.machine = cluster();
            cfg.machine.node_mtbf = hours(mtbf_hours);
            cfg.failure_model = failure;
            cfg.restart_model = restart;
            cfg.use_young_interval = interval == 1;
            if (interval == 2) cfg.fixed_interval = minutes(30);
            configs.push_back(cfg);
          }
  // At r = 1 this restart cost puts Eq. 14's denominator 1 - λ·t_RR one
  // ulp-scale step above 0 (the pole of Eq. 13's repair time): T_total is
  // finite, about 4.9e19 s.
  CombinedConfig pole;
  pole.app = cg_app();
  pole.machine = cluster();
  pole.machine.restart_cost = 0x1.74099f6077935p+12;
  configs.push_back(pole);
  // t_Red ≥ θ: the linearized p_f clamps to 1, so every sphere fails with
  // certainty and Eq. 9 takes its -inf early-out.
  CombinedConfig certain;
  certain.app = cg_app();
  certain.app.base_time = hours(10);
  certain.machine = cluster();
  certain.machine.node_mtbf = hours(1);
  configs.push_back(certain);
  return configs;
}

TEST(ModelDigest, EveryEntryReturnsThePinnedBits) {
  std::vector<double> degrees;
  for (int k = 0; k <= 8; ++k) degrees.push_back(1.0 + 0.25 * k);
  const std::vector<CombinedConfig> configs = digest_configs();

  Digest full, simplified, same_nodes;
  std::vector<BatchPoint> points;
  for (const CombinedConfig& cfg : configs)
    for (const double r : degrees) {
      full.add(predict(cfg, r));
      simplified.add(predict_simplified(cfg, r));
      same_nodes.add(predict_same_nodes(cfg, r));
      points.push_back({cfg, r});
    }
  EXPECT_EQ(full.value(), 0x612dda90b13b52c7ull);
  EXPECT_EQ(simplified.value(), 0x846491dd184fcd6dull);
  EXPECT_EQ(same_nodes.value(), 0x195942b81dacfd33ull);

  // kExact's span and grid entries return predict()'s bits and
  // predict_simplified()'s bits.
  for (const bool simple : {false, true}) {
    BatchOptions options;
    options.simplified = simple;
    const std::uint64_t want = simple ? simplified.value() : full.value();
    Digest span, grid;
    span.add(evaluate_batch(points, options));
    for (const CombinedConfig& cfg : configs)
      grid.add(evaluate_batch(cfg, degrees, options));
    EXPECT_EQ(span.value(), want) << "simplified=" << simple;
    EXPECT_EQ(grid.value(), want) << "simplified=" << simple;
  }
}

}  // namespace
}  // namespace redcr::model

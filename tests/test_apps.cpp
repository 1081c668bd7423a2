// Tests for the workload library: CG numerics, synthetic/stencil structure,
// and the master/worker task farm (wildcard receives under redundancy).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "apps/cg.hpp"
#include "apps/master_worker.hpp"
#include "apps/spectral.hpp"
#include "apps/stencil.hpp"
#include "apps/synthetic.hpp"
#include "runtime/executor.hpp"
#include "util/units.hpp"

namespace redcr::apps {
namespace {

using util::hours;

// --- CgSolver unit level -------------------------------------------------------

TEST(CgSolver, ApplyTridiagMatchesDirectComputation) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  const double shift = 0.5;
  const auto out = CgSolver::apply_tridiag(v, shift, 10.0, 20.0);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 2.5 * 1.0 - 10.0 - 2.0);
  EXPECT_DOUBLE_EQ(out[1], 2.5 * 2.0 - 1.0 - 3.0);
  EXPECT_DOUBLE_EQ(out[2], 2.5 * 3.0 - 2.0 - 20.0);
}

TEST(CgSolver, RejectsInvalidSpecs) {
  CgSpec spec;
  spec.rows_per_rank = 0;
  EXPECT_THROW(CgSolver(spec, 0, 1), std::invalid_argument);
  spec = CgSpec{};
  spec.shift = 0.0;
  EXPECT_THROW(CgSolver(spec, 0, 1), std::invalid_argument);
  EXPECT_THROW(CgSolver(CgSpec{}, 5, 2), std::invalid_argument);
}

TEST(CgSolver, RestoreWithoutSnapshotThrows) {
  CgSolver solver(CgSpec{}, 0, 1);
  EXPECT_THROW(solver.restore(7), std::logic_error);
  solver.restore(0);  // reset is always legal
}

TEST(CgSolver, SolutionSatisfiesTheLinearSystem) {
  // Single-rank solve, then verify A x ≈ b directly.
  CgSpec spec;
  spec.rows_per_rank = 48;
  spec.max_iterations = 300;
  spec.compute_per_iteration = 0.001;
  spec.tolerance_sq = 1e-24;

  runtime::JobConfig cfg;
  cfg.num_virtual = 1;
  cfg.checkpoint_enabled = false;
  cfg.inject_failures = false;
  std::vector<CgSolver*> solvers;
  runtime::JobExecutor executor(cfg, [&](int rank, int n) {
    auto s = std::make_unique<CgSolver>(spec, rank, n);
    solvers.push_back(s.get());
    return s;
  });
  ASSERT_TRUE(executor.run().completed);
  const auto& x = solvers[0]->solution();
  const auto ax = CgSolver::apply_tridiag(x, spec.shift, 0.0, 0.0);
  const auto& b = solvers[0]->rhs();
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(ax[i], b[i], 1e-9) << "row " << i;
}

// --- Workload construction errors ---------------------------------------------

TEST(Workloads, SpecValidation) {
  SyntheticSpec bad;
  bad.iterations = 0;
  EXPECT_THROW(SyntheticWorkload{bad}, std::invalid_argument);
  StencilSpec sbad;
  sbad.grid = {0, 1, 1};
  EXPECT_THROW(Stencil3d{sbad}, std::invalid_argument);
  EXPECT_THROW(MasterWorker(MasterWorkerSpec{}, 0, 1), std::invalid_argument);
}

TEST(Workloads, SpecsRejectNegativeAndNonFiniteQuantities) {
  const double nan = std::nan("");
  const double inf = HUGE_VAL;
  for (const double bad : {-1.0, nan, inf}) {
    SyntheticSpec synthetic;
    synthetic.compute_per_iteration = bad;
    EXPECT_THROW(SyntheticWorkload{synthetic}, std::invalid_argument) << bad;
    synthetic = {};
    synthetic.halo_bytes = bad;
    EXPECT_THROW(SyntheticWorkload{synthetic}, std::invalid_argument) << bad;
    synthetic = {};
    synthetic.allreduce_bytes = bad;
    EXPECT_THROW(SyntheticWorkload{synthetic}, std::invalid_argument) << bad;
    CgSpec cg;
    cg.compute_per_iteration = bad;
    EXPECT_THROW(CgSolver(cg, 0, 1), std::invalid_argument) << bad;
    StencilSpec stencil;
    stencil.compute_per_iteration = bad;
    EXPECT_THROW(Stencil3d{stencil}, std::invalid_argument) << bad;
    stencil = {};
    stencil.face_bytes = bad;
    EXPECT_THROW(Stencil3d{stencil}, std::invalid_argument) << bad;
    SpectralSpec spectral;
    spectral.compute_per_iteration = bad;
    EXPECT_THROW(SpectralWorkload{spectral}, std::invalid_argument) << bad;
    spectral = {};
    spectral.slab_bytes = bad;
    EXPECT_THROW(SpectralWorkload{spectral}, std::invalid_argument) << bad;
    MasterWorkerSpec master;
    master.base_task_cost = bad;
    EXPECT_THROW(MasterWorker(master, 0, 2), std::invalid_argument) << bad;
  }
  // Zero is a valid quantity: a halo-free, compute-free kernel.
  SyntheticSpec zero;
  zero.compute_per_iteration = 0.0;
  zero.halo_bytes = 0.0;
  zero.allreduce_bytes = 0.0;
  EXPECT_NO_THROW(SyntheticWorkload{zero});
}

TEST(Stencil, GridGeometry) {
  StencilSpec spec;
  spec.grid = {3, 2, 2};
  const Stencil3d stencil(spec);
  EXPECT_EQ(stencil.rank_of({0, 0, 0}), 0);
  EXPECT_EQ(stencil.rank_of({2, 1, 1}), 11);
  for (int r = 0; r < 12; ++r) EXPECT_EQ(stencil.rank_of(stencil.coords_of(r)), r);
  EXPECT_EQ(stencil.neighbor(0, 0, -1), -1);  // open boundary
  EXPECT_EQ(stencil.neighbor(0, 0, +1), 1);
  EXPECT_EQ(stencil.neighbor(0, 2, +1), 6);
}

TEST(Stencil, PeriodicWraps) {
  StencilSpec spec;
  spec.grid = {3, 1, 1};
  spec.periodic = true;
  const Stencil3d stencil(spec);
  EXPECT_EQ(stencil.neighbor(0, 0, -1), 2);
  EXPECT_EQ(stencil.neighbor(2, 0, +1), 0);
}

// --- Spectral workload -----------------------------------------------------------

TEST(Spectral, RunsUnderRedundancyWithFailures) {
  SpectralSpec spec;
  spec.iterations = 20;
  spec.compute_per_iteration = 6.0;
  spec.slab_bytes = 1e5;
  runtime::JobConfig cfg;
  cfg.num_virtual = 6;
  cfg.redundancy = 2.0;
  cfg.network.bandwidth = 1e9;
  cfg.storage.bandwidth = 1e10;
  cfg.image_bytes = 1e8;
  cfg.checkpoint_interval = 40.0;
  cfg.restart_cost = 10.0;
  cfg.fail.node_mtbf = hours(0.1);
  cfg.fail.seed = 23;
  runtime::JobExecutor executor(cfg, [spec](int, int) {
    return std::make_unique<SpectralWorkload>(spec);
  });
  const runtime::JobReport report = executor.run();
  ASSERT_TRUE(report.completed);
  EXPECT_NEAR(report.wallclock,
              report.useful_work + report.checkpoint_time +
                  report.rework_time + report.restart_time,
              1e-6);
}

TEST(Spectral, MessageCountScalesWithWorldSquared) {
  // An all-to-all iteration on n ranks sends n(n-1) slabs.
  SpectralSpec spec;
  spec.iterations = 4;
  spec.compute_per_iteration = 1.0;
  spec.residual_check = false;
  for (const std::size_t n : {4u, 8u}) {
    runtime::JobConfig cfg;
    cfg.num_virtual = n;
    const runtime::JobReport report = runtime::JobExecutor::run_failure_free(
        cfg, [spec](int, int) { return std::make_unique<SpectralWorkload>(spec); });
    EXPECT_EQ(report.messages, 4u * n * (n - 1)) << n;
  }
}

// --- MasterWorker through the full stack ----------------------------------------

runtime::JobConfig mw_config(double r) {
  runtime::JobConfig cfg;
  cfg.num_virtual = 5;  // 1 master + 4 workers
  cfg.redundancy = r;
  cfg.network.bandwidth = 1e9;
  cfg.storage.bandwidth = 1e10;
  cfg.image_bytes = 1e8;
  cfg.checkpoint_interval = 30.0;
  cfg.restart_cost = 10.0;
  cfg.fail.seed = 17;
  return cfg;
}

struct MwRun {
  runtime::JobReport report;
  double accumulated = 0.0;
  long tasks = 0;
};

MwRun run_master_worker(runtime::JobConfig cfg, MasterWorkerSpec spec) {
  std::vector<MasterWorker*> instances;
  runtime::JobExecutor executor(cfg, [&](int rank, int n) {
    auto w = std::make_unique<MasterWorker>(spec, rank, n);
    instances.push_back(w.get());
    return w;
  });
  MwRun out;
  out.report = executor.run();
  // Primary master replica is physical rank 0 == instances[0].
  out.accumulated = instances[0]->accumulated();
  out.tasks = instances[0]->tasks_completed();
  return out;
}

TEST(MasterWorker, CollectsEveryResultFailureFree) {
  MasterWorkerSpec spec;
  spec.rounds = 12;
  runtime::JobConfig cfg = mw_config(1.0);
  cfg.inject_failures = false;
  cfg.checkpoint_enabled = false;
  const MwRun run = run_master_worker(cfg, spec);
  ASSERT_TRUE(run.report.completed);
  EXPECT_EQ(run.tasks, 12 * 4);
  EXPECT_DOUBLE_EQ(run.accumulated, MasterWorker::expected_total(12, 4));
}

class MwDegrees : public ::testing::TestWithParam<double> {};
INSTANTIATE_TEST_SUITE_P(Degrees, MwDegrees,
                         ::testing::Values(1.0, 1.5, 2.0, 3.0));

TEST_P(MwDegrees, WildcardAgreementUnderRedundancy) {
  // Every master replica must account exactly the same task results even
  // though completion order is raced through MPI_ANY_SOURCE — the
  // three-step envelope protocol at work inside a real application.
  MasterWorkerSpec spec;
  spec.rounds = 10;
  runtime::JobConfig cfg = mw_config(GetParam());
  cfg.inject_failures = false;
  cfg.checkpoint_enabled = false;

  std::vector<MasterWorker*> instances;
  runtime::JobExecutor executor(cfg, [&](int rank, int n) {
    auto w = std::make_unique<MasterWorker>(spec, rank, n);
    instances.push_back(w.get());
    return w;
  });
  ASSERT_TRUE(executor.run().completed);
  const double expected = MasterWorker::expected_total(10, 4);
  for (std::size_t p = 0; p < instances.size(); ++p) {
    if (executor.replica_map().virtual_of(static_cast<int>(p)) != 0) continue;
    EXPECT_DOUBLE_EQ(instances[p]->accumulated(), expected)
        << "master replica at physical rank " << p;
    EXPECT_EQ(instances[p]->tasks_completed(), 40);
  }
}

TEST(MasterWorker, SurvivesFailuresWithCheckpointRestart) {
  MasterWorkerSpec spec;
  spec.rounds = 32;
  spec.base_task_cost = 3.0;
  runtime::JobConfig cfg = mw_config(1.5);
  cfg.fail.node_mtbf = hours(0.02);
  const MwRun run = run_master_worker(cfg, spec);
  ASSERT_TRUE(run.report.completed);
  EXPECT_GT(run.report.job_failures, 0) << "test must exercise restart";
  EXPECT_DOUBLE_EQ(run.accumulated, MasterWorker::expected_total(32, 4));
  EXPECT_NEAR(run.report.wallclock,
              run.report.useful_work + run.report.checkpoint_time +
                  run.report.rework_time + run.report.restart_time,
              1e-6);
}

}  // namespace
}  // namespace redcr::apps

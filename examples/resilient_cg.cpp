// Resilient CG: run a *real* conjugate-gradient solve on the simulated
// cluster while nodes fail, with coordinated checkpointing and partial
// redundancy — and verify that the answer still comes out right.
//
// This is the full stack in one place: CgSolver (real numerics) over
// red::RedComm (replica fan-out) over simmpi (matching engine) over the
// discrete-event cluster, with the Poisson failure injector killing nodes
// and the bookmark-exchange checkpointer saving the day.
//
//   $ ./resilient_cg [--redundancy R] [--mtbf-hours H] [--seed S]
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/cg.hpp"
#include "runtime/executor.hpp"
#include "util/knob.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace redcr;
  using namespace redcr::util;

  double redundancy = 0.0;
  double mtbf_hours = 0.0;
  std::uint64_t seed = 0;
  const util::FlagSet flags = {{"redundancy", "R", "1.5", redundancy},
                               {"mtbf-hours", "H", "0.08", mtbf_hours},
                               {"seed", "S", "3", seed}};
  flags.parse_or_exit(argc, argv, "resilient_cg");

  apps::CgSpec spec;
  spec.rows_per_rank = 64;
  spec.max_iterations = 150;
  spec.compute_per_iteration = 5.0;
  spec.tolerance_sq = 1e-26;  // run long enough to meet some failures

  runtime::JobConfig cfg;
  cfg.num_virtual = 8;
  cfg.redundancy = redundancy;
  cfg.network.bandwidth = 1e8;
  cfg.storage.bandwidth = 1e10;
  cfg.image_bytes = 2e9;
  cfg.checkpoint_interval = 90.0;
  cfg.restart_cost = 25.0;
  cfg.fail.node_mtbf = hours(mtbf_hours);
  cfg.fail.seed = seed;

  std::printf("Solving A x = b (n = %zu) on %zu virtual procs at r=%.2fx, "
              "node MTBF %.1f min...\n\n",
              spec.rows_per_rank * cfg.num_virtual, cfg.num_virtual,
              redundancy, to_minutes(hours(mtbf_hours)));

  // Reference: failure-free solve.
  std::vector<apps::CgSolver*> reference;
  runtime::JobConfig clean_cfg = cfg;
  clean_cfg.inject_failures = false;
  clean_cfg.checkpoint_enabled = false;
  auto factory = [&](std::vector<apps::CgSolver*>* sink) {
    return [&spec, sink](int virtual_rank, int num_virtual) {
      auto solver =
          std::make_unique<apps::CgSolver>(spec, virtual_rank, num_virtual);
      if (sink) sink->push_back(solver.get());
      return solver;
    };
  };
  runtime::JobExecutor clean(clean_cfg, factory(&reference));
  const runtime::JobReport clean_report = clean.run();

  // The real thing: failures + checkpoints + redundancy.
  std::vector<apps::CgSolver*> resilient;
  runtime::JobExecutor faulty(cfg, factory(&resilient));
  const runtime::JobReport report = faulty.run();

  std::printf("outcome:            %s\n",
              report.completed ? "completed" : "GAVE UP");
  std::printf("wallclock:          %8.1f min (failure-free: %.1f min)\n",
              to_minutes(report.wallclock), to_minutes(clean_report.wallclock));
  std::printf("  useful work:      %8.1f min\n", to_minutes(report.useful_work));
  std::printf("  checkpoints:      %8.1f min (%d taken)\n",
              to_minutes(report.checkpoint_time), report.checkpoints);
  std::printf("  rework:           %8.1f min\n", to_minutes(report.rework_time));
  std::printf("  restarts:         %8.1f min (%d job failures)\n",
              to_minutes(report.restart_time), report.job_failures);
  std::printf("replica deaths:     %d (job survived %d of them)\n",
              report.physical_failures,
              report.physical_failures - report.job_failures);
  std::printf("physical processes: %zu for %zu virtual\n",
              report.num_physical, cfg.num_virtual);
  std::printf("\nepisode timeline:\n%s",
              runtime::render_trace(report.trace).c_str());

  // Verify the solve against the failure-free reference, element by element.
  double max_diff = 0.0;
  for (std::size_t v = 0; v < cfg.num_virtual; ++v) {
    const auto& a = reference[v]->solution();
    const auto& b = resilient[v]->solution();
    for (std::size_t i = 0; i < a.size(); ++i)
      max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  std::printf("\nmax |x_resilient - x_reference| = %g  ->  %s\n", max_diff,
              max_diff == 0.0 ? "bit-identical: recovery is exact"
                              : "MISMATCH: recovery corrupted the solve!");
  std::printf("final residual^2 = %g\n", resilient[0]->residual_sq());
  return max_diff == 0.0 ? 0 : 1;
}

// bench_faults — the unreliable checkpoint/restart pipeline, measured.
//
// Three sections:
//
//   model-vs-sim     Table-4-style grid (node MTBF x checkpoint validity
//                    p_v x restart success s): the closed-form unreliable
//                    term (model::predict_unreliable) against the DES
//                    (JobExecutor with a live FaultProcess). Compares the
//                    per-failure quantities with exact correspondence:
//                    expected restart attempts and abort probability.
//   keep-going demo  a sweep whose harshest cell ends in a structured
//                    JobAbort, run under SweepRunner::map_outcomes — the
//                    failed cell lands in the table/CSV/NDJSON with a
//                    status column instead of killing the sweep.
//   faults_off_sim   zero-cost check: the full executor with every fault
//                    probability at zero and retention 1 (the pre-fault
//                    fast path). --guard BASELINE.json fails the run when
//                    this rate regresses more than --tolerance vs the
//                    committed baseline, so the fault hooks stay free when
//                    disabled.
//
//   bench_faults [--quick|--full] [--seeds N] [--jobs N] [--json]
//                [--csv DIR] [--filter SPEC] [--keep-going]
//                [--repeat N] [--guard BASELINE.json] [--tolerance F]
//
// The standard experiment-harness CLI plus the perf-guard flags
// (exp/guard.hpp).
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "model/extensions.hpp"
#include "redcr/redcr.hpp"

namespace {

using namespace redcr;

apps::SyntheticSpec job_spec() {
  apps::SyntheticSpec spec;
  spec.iterations = 40;
  spec.compute_per_iteration = 10.0;
  spec.halo_bytes = 1e6;
  spec.allreduces_per_iteration = 2;
  return spec;
}

runtime::WorkloadFactory factory() {
  return [](int, int) {
    return std::make_unique<apps::SyntheticWorkload>(job_spec());
  };
}

constexpr int kRanks = 8;
constexpr int kRetention = 2;
constexpr int kRestartAttempts = 3;

runtime::JobConfig sim_config(double mtbf_hours, double pv, double s,
                              std::uint64_t seed) {
  runtime::JobConfig cfg;
  cfg.num_virtual = kRanks;
  cfg.redundancy = 1.0;
  cfg.network.bandwidth = 1e8;
  cfg.storage.bandwidth = 1e10;
  cfg.storage.base_latency = 0.01;
  cfg.image_bytes = 1e9;
  cfg.checkpoint_interval = 60.0;
  cfg.restart_cost = 30.0;
  cfg.fail.node_mtbf = util::hours(mtbf_hours);
  cfg.fail.seed = seed;
  // A generation validates iff all kRanks images are clean: per-rank
  // corruption c with (1-c)^kRanks = p_v maps the model's per-generation
  // validity onto the per-image fault process.
  cfg.ckpt_faults.corruption_prob = 1.0 - std::pow(pv, 1.0 / kRanks);
  cfg.ckpt_faults.restart_failure_prob = 1.0 - s;
  cfg.ckpt_faults.seed = seed * 6364136223846793005ull + 1442695040888963407ull;
  cfg.ckpt_retention = kRetention;
  cfg.restart_retry.max_attempts = kRestartAttempts;
  cfg.restart_retry.backoff_base = 0.0;  // model excludes backoff; so do we
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  exp::PerfGuard guard;
  const exp::BenchArgs args = exp::BenchArgs::parse(argc, argv, &guard);
  exp::print_header(args, "Unreliable checkpoint/restart: model vs DES",
                    "fault-pipeline extension of the ICDCS'12 combined model");

  // --- model-vs-sim grid ----------------------------------------------------
  exp::ParamGrid grid;
  grid.axis("mtbf", args.quick ? std::vector<double>{0.4}
                               : std::vector<double>{0.3, 0.4, 0.6});
  grid.axis("pv", args.quick ? std::vector<double>{0.9}
                             : std::vector<double>{1.0, 0.9, 0.7});
  grid.axis("s", args.quick ? std::vector<double>{0.9}
                            : std::vector<double>{1.0, 0.9, 0.75});
  std::vector<exp::Trial> trials;
  try {
    trials = grid.trials(args.filter);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_faults: %s\n", e.what());
    return 2;
  }
  const int runs_per_cell = 4 * args.seeds;

  struct CellStats {
    double sim_attempts_per_failure = 0.0;
    double sim_abort_fraction = 0.0;
    double sim_fallback_per_restore = 0.0;
    double mean_wallclock = 0.0;  // completed runs only
  };
  const exp::SweepRunner runner(args.run_options());
  const std::vector<CellStats> cells =
      runner.map(trials, [&](const exp::Trial& trial) {
        CellStats out;
        long attempts = 0, failures = 0, aborts = 0, fallbacks = 0,
             restores = 0;
        double wallclock = 0.0;
        int completed = 0;
        for (int run = 0; run < runs_per_cell; ++run) {
          const runtime::JobReport report =
              runtime::JobExecutor(
                  sim_config(trial.at("mtbf"), trial.at("pv"), trial.at("s"),
                             static_cast<std::uint64_t>(run) * 131 + 17),
                  factory())
                  .run();
          attempts += report.restart_attempts;
          failures += report.job_failures;
          aborts += report.abort ? 1 : 0;
          fallbacks += report.fallback_restores;
          restores += report.job_failures - (report.abort ? 1 : 0);
          if (report.completed) {
            wallclock += report.wallclock;
            ++completed;
          }
        }
        if (failures > 0)
          out.sim_attempts_per_failure =
              static_cast<double>(attempts) / static_cast<double>(failures);
        out.sim_abort_fraction =
            static_cast<double>(aborts) / runs_per_cell;
        if (restores > 0)
          out.sim_fallback_per_restore =
              static_cast<double>(fallbacks) / static_cast<double>(restores);
        if (completed > 0) out.mean_wallclock = wallclock / completed;
        return out;
      });

  exp::ResultSink table(
      "faults_model_vs_sim",
      {{"MTBF [h]", "mtbf_h"},
       {"p_v"},
       {"s"},
       {"E[att] sim", "sim_attempts"},
       {"E[att] model", "model_attempts"},
       {"P(fb) sim", "sim_fallback"},
       {"P(abort) sim", "sim_abort"},
       {"P(abort) model", "model_abort"},
       {"sim T [min]", "sim_total_min"}});
  table.set_title("Per-failure fault quantities: DES vs closed form");
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const exp::Trial& trial = trials[i];
    model::UnreliableCkptParams u;
    u.ckpt_validity = trial.at("pv");
    u.restart_success = trial.at("s");
    u.retention_depth = kRetention;
    u.max_restart_attempts = kRestartAttempts;
    const model::CombinedConfig cfg =
        redcr::scenario()
            .base_time(400.0)
            .comm_fraction(0.2)
            .processes(kRanks)
            .node_mtbf(util::hours(trial.at("mtbf")))
            .checkpoint_cost(0.11)
            .restart_cost(30.0)
            .build();
    const model::UnreliablePrediction pred =
        model::predict_unreliable(cfg, 1.0, u);
    table.add_row({{trial.at("mtbf"), 2},
                   {trial.at("pv"), 2},
                   {trial.at("s"), 2},
                   {cells[i].sim_attempts_per_failure, 3},
                   {pred.expected_restart_attempts, 3},
                   {cells[i].sim_fallback_per_restore, 3},
                   {cells[i].sim_abort_fraction, 3},
                   {pred.abort_probability, 3},
                   {cells[i].mean_wallclock / 60.0, 1}});
  }
  table.emit(args);

  // --- keep-going demo ------------------------------------------------------
  // The s=0.02 cell aborts with near-certainty; under map_outcomes it shows
  // up as a failed row with the abort reason instead of killing the sweep.
  {
    exp::ParamGrid demo_grid;
    demo_grid.axis("s", {1.0, 0.8, 0.02});
    const std::vector<exp::Trial> demo = demo_grid.trials("");
    const auto outcomes =
        runner.map_outcomes(demo, [&](const exp::Trial& trial) {
          const runtime::JobReport report =
              runtime::JobExecutor(
                  sim_config(0.3, 1.0, trial.at("s"), 23), factory())
                  .run();
          if (report.abort) throw std::runtime_error(report.abort->describe());
          return report.wallclock;
        });
    exp::ResultSink demo_table(
        "faults_keepgoing",
        {{"s"}, {"T [min]", "total_min"}, {"status"}});
    demo_table.set_title("Keep-going sweep: aborted cells become rows");
    for (std::size_t i = 0; i < demo.size(); ++i) {
      if (outcomes[i].ok())
        demo_table.add_row({{demo[i].at("s"), 2},
                            {outcomes[i].value / 60.0, 1},
                            "ok"});
      else
        demo_table.add_row(
            {{demo[i].at("s"), 2}, "-", "failed: " + outcomes[i].error});
    }
    demo_table.emit(args);
  }

  // --- faults_off_sim: the zero-cost guard scenario -------------------------
  // Every probability zero, retention 1: the executor must run the exact
  // pre-fault fast path. Rate is engine events per second over a fixed
  // failure-heavy job set. Fixed size even under --quick: the guard compares
  // against a committed baseline, so the measured workload must not depend
  // on the mode.
  const exp::Measurement sim =
      guard.best_of("faults_off_sim", "events/sec", [] {
        std::uint64_t events = 0;
        for (int j = 0; j < 12; ++j) {
          runtime::JobConfig cfg =
              sim_config(0.4, 1.0, 1.0, static_cast<std::uint64_t>(j) + 1);
          cfg.ckpt_faults = {};
          cfg.ckpt_retention = 1;
          events += runtime::JobExecutor(cfg, factory()).run().engine_events;
        }
        return events;
      });
  return guard.report(args, "bench_faults", sim,
                      "fault hooks disabled, retention 1")
             ? 0
             : 1;
}

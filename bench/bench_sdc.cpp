// bench_sdc — silent data corruption: the closed-form SDC expectations
// (model::predict_sdc) against the DES, plus the perf guard for the
// SDC-enabled executor path.
//
// Three sections:
//
//   model-vs-sim     r x delta grid at a fixed at-rest rate: the DES
//                    (JobExecutor with the SDC monitor live) vs the closed
//                    forms. Comm is kept negligible (tiny halo, no
//                    allreduces) so the detector cadence is T_c, matching
//                    the model's derivation. The per-cell checkpoint cost c
//                    is measured from the runs themselves — the model takes
//                    (delta, c, T_c) as inputs, it does not predict c.
//   accuracy gate    ALWAYS on (exit 1 on breach): on dual-bearing cells
//                    (r = 1.5, 2 — the regimes where detection is the
//                    common case) with enough rollback samples, the model's
//                    detection latency and rework-per-detection must land
//                    within 10% of the DES means. Regime checks ride along:
//                    r = 1 cells must stay silent (no rollbacks, undetected
//                    deliveries observed), r = 3 cells must correct
//                    (corrected deliveries observed).
//   sdc_sim          perf guard: the executor with both SDC classes live.
//                    --guard BASELINE.json fails the run when this rate
//                    regresses more than --tolerance vs the committed
//                    baseline, so the strain/voting hooks stay cheap.
//
//   bench_sdc [--quick|--full] [--seeds N] [--jobs N] [--json]
//             [--csv DIR] [--filter SPEC] [--keep-going]
//             [--repeat N] [--guard BASELINE.json] [--tolerance F]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "model/extensions.hpp"
#include "red/replica_map.hpp"
#include "redcr/redcr.hpp"
#include "util/log.hpp"

namespace {

using namespace redcr;

constexpr int kVirtual = 8;
constexpr double kComputeSec = 10.0;  // T_c: the detector cadence
constexpr double kAtRestRate = 1e-4;  // per-rank infections per second

apps::SyntheticSpec job_spec() {
  apps::SyntheticSpec spec;
  spec.iterations = 180;
  spec.compute_per_iteration = kComputeSec;
  // Negligible comm: the halo is the detector, not a timing term.
  spec.halo_bytes = 1e3;
  spec.allreduces_per_iteration = 0;
  return spec;
}

runtime::WorkloadFactory factory() {
  return [](int, int) {
    return std::make_unique<apps::SyntheticWorkload>(job_spec());
  };
}

runtime::JobConfig sim_config(double r, double interval, std::uint64_t seed) {
  runtime::JobConfig cfg;
  cfg.num_virtual = kVirtual;
  cfg.redundancy = r;
  cfg.network.bandwidth = 1e8;
  cfg.storage.bandwidth = 2e9;
  cfg.storage.base_latency = 0.01;
  cfg.image_bytes = 1e9;
  cfg.checkpoint_interval = interval;
  cfg.restart_cost = 30.0;
  cfg.fail.node_mtbf = util::hours(1e6);  // SDC is the only fault source
  cfg.fail.seed = seed;
  // Retention deep enough that a verified ancestor survives an
  // invalidation — the closed-form rework assumes the rollback lands on
  // one, not on a from-scratch restart.
  cfg.ckpt_retention = 3;
  cfg.sdc.atrest_rate = kAtRestRate;
  cfg.sdc.seed = seed * 6364136223846793005ull + 1442695040888963407ull;
  return cfg;
}

double rel_err(double sim, double model) {
  return sim > 0.0 ? std::fabs(model - sim) / sim : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  exp::PerfGuard guard;
  const exp::BenchArgs args = exp::BenchArgs::parse(argc, argv, &guard);
  // Every job here deliberately injects SDC, so the executor's per-job
  // warnings are pure noise at bench scale; keep errors, drop the rest
  // unless the caller asked for a level explicitly.
  if (!args.log_level) util::set_log_level(util::LogLevel::kError);
  exp::print_header(args, "Silent data corruption: model vs DES",
                    "replication-as-detector extension of the ICDCS'12 model");

  // --- model-vs-sim grid ----------------------------------------------------
  exp::ParamGrid grid;
  grid.axis("r", args.quick ? std::vector<double>{2.0}
                            : std::vector<double>{1.0, 1.5, 2.0, 3.0});
  grid.axis("delta", args.quick ? std::vector<double>{60.0}
                                : std::vector<double>{40.0, 60.0});
  std::vector<exp::Trial> trials;
  try {
    trials = grid.trials(args.filter);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_sdc: %s\n", e.what());
    return 2;
  }
  // The gated quantities are per-detection means with a bimodal
  // per-sample distribution (work-phase vs ckpt-phase infections); ~200+
  // rollbacks per cell keep the sampling error well inside the 10% gate.
  const int runs_per_cell = 30 * args.seeds;

  struct CellStats {
    long rollbacks = 0;
    long invalidated = 0;
    std::uint64_t injected = 0;
    std::uint64_t corrected = 0;
    std::uint64_t undetected = 0;
    double latency_sum = 0.0;  // Σ per-rollback detection latency
    double rework_sum = 0.0;   // Σ SDC-billed rework
    double mean_ckpt_cost = 0.0;
    [[nodiscard]] double mean_latency() const {
      return rollbacks > 0 ? latency_sum / static_cast<double>(rollbacks) : 0;
    }
    [[nodiscard]] double mean_rework() const {
      return rollbacks > 0 ? rework_sum / static_cast<double>(rollbacks) : 0;
    }
    [[nodiscard]] double mean_depth() const {
      return rollbacks > 0
                 ? static_cast<double>(invalidated) /
                       static_cast<double>(rollbacks)
                 : 0;
    }
  };
  const exp::SweepRunner runner(args.run_options());
  const std::vector<CellStats> cells =
      runner.map(trials, [&](const exp::Trial& trial) {
        CellStats out;
        double ckpt_time = 0.0;
        long ckpts = 0;
        // Fractional-redundancy cells detect only the dual-sphere share of
        // infections (1/3 of ranks stay silent at r=1.5); triple their run
        // count so their gated means see comparable sample sizes.
        const double cell_r = trial.at("r");
        const int cell_runs =
            cell_r > 1.0 && cell_r < 2.0 ? 3 * runs_per_cell : runs_per_cell;
        for (int run = 0; run < cell_runs; ++run) {
          const runtime::JobReport report =
              runtime::JobExecutor(
                  sim_config(trial.at("r"), trial.at("delta"),
                             static_cast<std::uint64_t>(run) * 131 + 17),
                  factory())
                  .run();
          out.rollbacks += report.sdc_rollbacks;
          out.invalidated += report.sdc_invalidated_ckpts;
          out.injected += report.sdc_injected;
          out.corrected += report.sdc_corrected;
          out.undetected += report.sdc_undetected;
          out.latency_sum += report.sdc_detection_latency;
          out.rework_sum += report.sdc_rework;
          ckpt_time += report.checkpoint_time;
          ckpts += report.checkpoints;
        }
        if (ckpts > 0) out.mean_ckpt_cost = ckpt_time / ckpts;
        return out;
      });

  exp::ResultSink table(
      "sdc_model_vs_sim",
      {{"r"},
       {"delta [s]", "delta_s"},
       {"inject", "injected"},
       {"roll", "rollbacks"},
       {"lat sim [s]", "sim_latency"},
       {"lat model", "model_latency"},
       {"rework sim [s]", "sim_rework"},
       {"rework model", "model_rework"},
       {"depth sim", "sim_depth"},
       {"depth model", "model_depth"},
       {"P(det) model", "model_p_detect"}});
  table.set_title("SDC detection latency and rollback waste: DES vs closed form");

  double worst_latency_err = 0.0, worst_rework_err = 0.0;
  int gated_cells = 0;
  bool regime_ok = true;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const exp::Trial& trial = trials[i];
    const double r = trial.at("r");
    const CellStats& cell = cells[i];
    // Exact census from the same ReplicaMap the executor builds.
    const red::ReplicaMap map(kVirtual, r);
    model::SdcModelParams params;
    params.interval = trial.at("delta");
    params.ckpt_cost = cell.mean_ckpt_cost;
    params.compute_per_iteration = kComputeSec;
    for (std::size_t p = 0; p < map.num_physical(); ++p) {
      const unsigned degree = map.degree(map.virtual_of(static_cast<int>(p)));
      if (degree <= 1) params.single_ranks += 1.0;
      else if (degree == 2) params.dual_ranks += 1.0;
      else params.triple_ranks += 1.0;
    }
    const model::SdcPrediction pred = model::predict_sdc(params);
    table.add_row({{r, 2},
                   {trial.at("delta"), 0},
                   {static_cast<double>(cell.injected), 0},
                   {static_cast<double>(cell.rollbacks), 0},
                   {cell.mean_latency(), 2},
                   {pred.detection_latency, 2},
                   {cell.mean_rework(), 1},
                   {pred.rework_per_detection, 1},
                   {cell.mean_depth(), 3},
                   {pred.invalidated_depth, 3},
                   {pred.p_detect, 3}});

    // Accuracy gate: dual-bearing cells with enough samples validate the
    // numeric terms; the pure regimes validate the classification.
    if ((r == 1.5 || r == 2.0) && cell.rollbacks >= 10) {
      ++gated_cells;
      worst_latency_err = std::max(
          worst_latency_err, rel_err(cell.mean_latency(), pred.detection_latency));
      worst_rework_err = std::max(
          worst_rework_err, rel_err(cell.mean_rework(), pred.rework_per_detection));
    }
    if (r == 1.0 && (cell.rollbacks != 0 || cell.undetected == 0)) {
      regime_ok = false;
      std::fprintf(stderr,
                   "bench_sdc: r=1 cell should pass infections silently "
                   "(rollbacks=%ld undetected=%llu)\n",
                   cell.rollbacks,
                   static_cast<unsigned long long>(cell.undetected));
    }
    if (r == 3.0 && cell.injected > 0 && cell.corrected == 0) {
      regime_ok = false;
      std::fprintf(stderr,
                   "bench_sdc: r=3 cell should outvote infections "
                   "(injected=%llu corrected=0)\n",
                   static_cast<unsigned long long>(cell.injected));
    }
  }
  table.emit(args);

  args.say("accuracy gate      : worst rel err over %d dual cell(s): "
           "latency %.1f%%, rework %.1f%% (limit 10%%)\n",
           gated_cells, 100.0 * worst_latency_err, 100.0 * worst_rework_err);
  const bool accuracy_ok =
      worst_latency_err <= 0.10 && worst_rework_err <= 0.10 && regime_ok;
  if (!accuracy_ok)
    std::fprintf(stderr, "bench_sdc: model-vs-sim accuracy gate FAILED\n");

  // --- sdc_sim: the perf guard scenario -------------------------------------
  // Both SDC classes live on the dual-redundancy executor; the rate guards
  // the strain propagation + per-delivery voting hooks. Fixed size even
  // under --quick: the guard compares against a committed baseline.
  const exp::Measurement sim = guard.best_of("sdc_sim", "events/sec", [] {
    std::uint64_t events = 0;
    for (int j = 0; j < 12; ++j) {
      runtime::JobConfig cfg =
          sim_config(2.0, 60.0, static_cast<std::uint64_t>(j) + 1);
      cfg.sdc.inflight_prob = 1e-5;
      events += runtime::JobExecutor(cfg, factory()).run().engine_events;
    }
    return events;
  });
  const bool fast = guard.report(args, "bench_sdc", sim,
                                 "at-rest + in-flight SDC live, r=2");
  return fast && accuracy_ok ? 0 : 1;
}

// Paper calibration constants shared by the experiment harnesses.
//
// This header holds *only* the paper's measured setup (Section 6): modified
// NPB-CG class D on 128 processes, failure-free base time t = 46 min,
// α = 0.2, checkpoint cost c = 120 s, restart cost R = 500 s, node MTBF
// 6..30 h — plus the one-cell DES kernel the campaign grids are built from.
// CLI parsing, sweep execution and result rendering live in src/exp/.
#pragma once

#include <cstdint>
#include <memory>

#include "apps/synthetic.hpp"
#include "model/combined.hpp"
#include "runtime/executor.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace redcr::bench {

/// The paper's measured CG application parameters (Section 6).
inline model::AppParams paper_app() {
  model::AppParams app;
  app.base_time = util::minutes(46);
  app.comm_fraction = 0.2;
  app.num_procs = 128;
  return app;
}

/// The paper's measured cluster parameters (Section 6).
inline model::MachineParams paper_machine(double node_mtbf_hours) {
  model::MachineParams m;
  m.node_mtbf = util::hours(node_mtbf_hours);
  m.checkpoint_cost = util::seconds(120);
  m.restart_cost = util::seconds(500);
  return m;
}

/// Synthetic workload calibrated to the paper's CG: 92 iterations of 30 s
/// (24 s compute + ~6 s communication at r=1 -> α ≈ 0.2, t = 46 min).
inline apps::SyntheticSpec paper_cg_spec(bool quick = false) {
  apps::SyntheticSpec spec;
  spec.iterations = quick ? 46 : 92;
  spec.compute_per_iteration = quick ? 48.0 : 24.0;
  spec.halo_bytes = quick ? 600e6 : 300e6;
  spec.halo_radius = 1;
  spec.allreduces_per_iteration = 2;
  spec.allreduce_bytes = 16;
  return spec;
}

/// DES cluster configuration matching the paper's testbed scale-down.
/// The per-process image size is chosen so the emergent coordinated
/// checkpoint cost stays ≈ c at every redundancy degree (the paper treats
/// c as a constant of the machine, not of the job size).
inline runtime::JobConfig paper_cluster_config(double node_mtbf_hours,
                                               double redundancy,
                                               std::uint64_t seed) {
  runtime::JobConfig cfg;
  cfg.num_virtual = 128;
  cfg.redundancy = redundancy;
  cfg.network.bandwidth = 100e6;  // scaled with the workload for α = 0.2
  cfg.network.latency = 10e-6;
  cfg.storage.bandwidth = 2e9;
  cfg.storage.base_latency = 0.05;
  const std::size_t physical =
      model::partition_processes(cfg.num_virtual, redundancy).total_procs;
  cfg.image_bytes =
      120.0 * cfg.storage.bandwidth / static_cast<double>(physical);
  cfg.restart_cost = 500.0;
  cfg.fail.node_mtbf = util::hours(node_mtbf_hours);
  cfg.fail.seed = seed;
  cfg.fail.inject_during_checkpoint = false;  // the paper's condition
  // δ from Daly's formula (Eq. 15) through the combined model, exactly as
  // the paper's checkpointer background process computes it.
  model::CombinedConfig mc;
  mc.app = paper_app();
  mc.machine = paper_machine(node_mtbf_hours);
  cfg.checkpoint_interval = model::predict(mc, redundancy).interval;
  return cfg;
}

inline runtime::WorkloadFactory synthetic_factory(apps::SyntheticSpec spec) {
  return [spec](int, int) {
    return std::make_unique<apps::SyntheticWorkload>(spec);
  };
}

/// Runs one cell of the paper's experimental campaign (Table 4): the CG-
/// shaped workload at the given node MTBF and redundancy degree, averaged
/// over `seeds` repetitions. Returns mean total wallclock in minutes plus
/// auxiliary statistics. Self-contained and deterministic per (cell, seeds),
/// so grid cells can run on any exp::SweepRunner worker.
struct CellResult {
  double minutes_mean = 0.0;
  double minutes_stddev = 0.0;
  double job_failures_mean = 0.0;
  double checkpoints_mean = 0.0;
  bool all_completed = true;
  // Per-trial observability metrics (simulated quantities, so deterministic
  // per cell): surfaced as data-only columns in the harness NDJSON/CSV.
  double ckpt_minutes_mean = 0.0;     ///< time inside checkpoints
  double rework_minutes_mean = 0.0;   ///< redone work after sphere deaths
  double engine_events_mean = 0.0;    ///< DES events processed
  double messages_mean = 0.0;         ///< physical messages injected
  double contention_wait_mean = 0.0;  ///< seconds queued behind busy NICs
};

/// `mode` selects the execution engine. Cells default to the event engine so
/// speed-guarded benches keep timing the thing they guard; campaign sweeps
/// pass kAuto to skip the inter-failure event churn (the reports — and thus
/// every derived column, engine_events included — are bit-identical).
inline CellResult run_experiment_cell(
    double node_mtbf_hours, double redundancy, int seeds, bool quick,
    runtime::ExecMode mode = runtime::ExecMode::kEvent) {
  CellResult cell;
  util::RunningStats wall, failures, checkpoints;
  util::RunningStats ckpt_min, rework_min, events, messages, contention;
  for (int seed = 0; seed < seeds; ++seed) {
    runtime::JobConfig cfg = paper_cluster_config(
        node_mtbf_hours, redundancy, 1000 + static_cast<std::uint64_t>(seed));
    cfg.max_episodes = 2000;
    cfg.engine = mode;
    runtime::JobExecutor executor(cfg,
                                  synthetic_factory(paper_cg_spec(quick)));
    const runtime::JobReport report = executor.run();
    cell.all_completed = cell.all_completed && report.completed;
    wall.add(util::to_minutes(report.wallclock));
    failures.add(report.job_failures);
    checkpoints.add(report.checkpoints);
    ckpt_min.add(util::to_minutes(report.checkpoint_time));
    rework_min.add(util::to_minutes(report.rework_time));
    events.add(static_cast<double>(report.engine_events));
    messages.add(static_cast<double>(report.messages));
    contention.add(report.network_contention_wait);
  }
  cell.minutes_mean = wall.mean();
  cell.minutes_stddev = wall.stddev();
  cell.job_failures_mean = failures.mean();
  cell.checkpoints_mean = checkpoints.mean();
  cell.ckpt_minutes_mean = ckpt_min.mean();
  cell.rework_minutes_mean = rework_min.mean();
  cell.engine_events_mean = events.mean();
  cell.messages_mean = messages.mean();
  cell.contention_wait_mean = contention.mean();
  return cell;
}

}  // namespace redcr::bench

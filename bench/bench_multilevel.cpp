// bench_multilevel — the multi-level checkpoint storage hierarchy, measured.
//
// Three sections:
//
//   serve_fraction   SCR-like hierarchy (node-local cache; XOR with group 4,
//                    k = 1; PFS every 4th epoch with async flush) under a
//                    failure-heavy seed set at r = 1, where every episode
//                    ends with exactly one dead rank: the XOR level survives
//                    every such loss, so nearly all restores must be served
//                    from a cache level. Hard-fails when fewer than 80% of
//                    restores come from a non-PFS level.
//   cost_ratio       cache-vs-PFS bandwidth-ratio sweep: mean DES wallclock
//                    against model::predict_unreliable with the matching
//                    per-level recovery terms (calibrated checkpoint cost
//                    and base time from a failure-free run). Hard-fails when
//                    the model misses the simulator by more than 35%
//                    (relative).
//   multilevel_sim   guard scenario: engine events/sec over a fixed set of
//                    hierarchy-enabled jobs. --guard BASELINE.json fails the
//                    run when the rate regresses more than --tolerance vs
//                    the committed baseline.
//
//   bench_multilevel [--quick|--full] [--seeds N] [--jobs N] [--json]
//                    [--csv DIR] [--filter SPEC] [--repeat N]
//                    [--guard BASELINE.json] [--tolerance F]
//
// The standard experiment-harness CLI plus the perf-guard flags
// (exp/guard.hpp).
#include <algorithm>
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
constexpr double kCacheBandwidth = 1e10;  // bytes/s, local and XOR levels
constexpr double kImageBytes = 1e9;
constexpr double kInterval = 60.0;
constexpr double kRestartCost = 30.0;
/// Largest relative model-vs-sim wallclock error the cost-ratio sweep
/// accepts.
constexpr double kModelTolerance = 0.35;

/// The SCR-like three-level hierarchy: local every epoch, XOR (group 4,
/// k = 1) every 2nd, PFS every 4th with an asynchronous drain. `ratio` is
/// the cache-to-PFS bandwidth ratio under study.
ckpt::HierarchyParams scr_hierarchy(double ratio) {
  const double pfs_bw = kCacheBandwidth / ratio;
  ckpt::HierarchyParams h;
  ckpt::LevelParams local;
  local.kind = ckpt::LevelKind::kLocal;
  local.device.bandwidth = kCacheBandwidth;
  local.device.base_latency = 0.01;
  local.read_bandwidth = kCacheBandwidth;
  local.interval = 1;
  ckpt::LevelParams xorlvl;
  xorlvl.kind = ckpt::LevelKind::kXor;
  xorlvl.device.bandwidth = kCacheBandwidth;
  xorlvl.device.base_latency = 0.01;
  xorlvl.read_bandwidth = kCacheBandwidth;
  xorlvl.interval = 2;
  xorlvl.retention = 2;
  xorlvl.group_size = 4;
  xorlvl.xor_tolerance = 1;
  ckpt::LevelParams pfs;
  pfs.kind = ckpt::LevelKind::kPfs;
  pfs.device.bandwidth = pfs_bw;
  pfs.device.base_latency = 0.01;
  pfs.read_bandwidth = pfs_bw;
  pfs.interval = 4;
  pfs.retention = 2;
  h.levels = {local, xorlvl, pfs};
  h.async_flush = true;
  return h;
}

runtime::JobConfig sim_config(double ratio, double mtbf_hours,
                              std::uint64_t seed) {
  runtime::JobConfig cfg;
  cfg.num_virtual = kRanks;
  cfg.redundancy = 1.0;
  cfg.network.bandwidth = 1e8;
  cfg.image_bytes = kImageBytes;
  cfg.checkpoint_interval = kInterval;
  cfg.restart_cost = kRestartCost;
  cfg.fail.node_mtbf = util::hours(mtbf_hours);
  cfg.fail.seed = seed;
  cfg.hierarchy = scr_hierarchy(ratio);
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  exp::PerfGuard guard;
  const exp::BenchArgs args = exp::BenchArgs::parse(argc, argv, &guard);
  exp::print_header(args, "Multi-level checkpoint storage hierarchy",
                    "SCR-style extension of the ICDCS'12 combined model");

  int exit_code = 0;

  // --- serve_fraction: most restores come from a cache level --------------
  // r = 1 makes every sphere death a single dead rank; XOR with k = 1
  // survives each one, so the PFS should almost never serve. (It still can,
  // early in a run, when the kill lands before any cache commit.)
  {
    const int runs = 24;
    std::uint64_t serves[3] = {0, 0, 0};
    std::uint64_t defeated_local = 0;
    std::uint64_t scratch = 0;  // restores no level could serve
    const exp::SweepRunner runner(args.run_options());
    std::vector<int> ids(runs);
    for (int i = 0; i < runs; ++i) ids[i] = i;
    const std::vector<runtime::JobReport> reports =
        runner.map(ids, [&](const int id) {
          return runtime::JobExecutor(
                     sim_config(16.0, 0.3,
                                static_cast<std::uint64_t>(id) * 131 + 17),
                     factory())
              .run();
        });
    std::uint64_t restores = 0;
    for (const runtime::JobReport& report : reports) {
      for (std::size_t l = 0; l < report.levels.size() && l < 3; ++l)
        serves[l] += report.levels[l].fetches;
      if (!report.levels.empty()) defeated_local += report.levels[0].defeated;
      restores += static_cast<std::uint64_t>(report.job_failures -
                                             (report.abort ? 1 : 0));
    }
    const std::uint64_t served = serves[0] + serves[1] + serves[2];
    scratch = restores > served ? restores - served : 0;
    const double non_pfs =
        served > 0
            ? static_cast<double>(serves[0] + serves[1]) /
                  static_cast<double>(served)
            : 0.0;
    exp::ResultSink table("multilevel_serves",
                          {{"level"},
                           {"serves"},
                           {"share", "share"}});
    table.set_title("Restores served per level (SCR-like config, r=1)");
    const char* names[3] = {"local", "xor", "pfs"};
    for (int l = 0; l < 3; ++l)
      table.add_row({names[l],
                     exp::Cell::count(static_cast<long long>(serves[l])),
                     {served > 0 ? static_cast<double>(serves[l]) /
                                       static_cast<double>(served)
                                 : 0.0,
                      3}});
    table.emit(args);
    args.say("non-PFS serve fraction : %.3f (%llu restores, %llu from "
             "scratch, local defeated %llu times)\n\n",
             non_pfs, static_cast<unsigned long long>(restores),
             static_cast<unsigned long long>(scratch),
             static_cast<unsigned long long>(defeated_local));
    if (served == 0 || non_pfs < 0.8) {
      std::fprintf(stderr,
                   "bench_multilevel: FAIL: non-PFS serve fraction %.3f < "
                   "0.80 in the SCR-like config\n",
                   non_pfs);
      exit_code = 1;
    }
  }

  // --- cost_ratio: sim vs model across cache/PFS bandwidth ratios ---------
  exp::ParamGrid grid;
  grid.axis("ratio", args.quick ? std::vector<double>{16.0}
                                : std::vector<double>{4.0, 16.0, 64.0});
  grid.axis("mtbf", args.quick ? std::vector<double>{0.4}
                               : std::vector<double>{0.3, 0.6});
  std::vector<exp::Trial> trials;
  try {
    trials = grid.trials(args.filter);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_multilevel: %s\n", e.what());
    return 2;
  }
  const int runs_per_cell = 4 * args.seeds;

  struct CellStats {
    double mean_wallclock = 0.0;  // completed runs only
    double sim_non_pfs = 0.0;     // cache-served share of restores
    double calib_ckpt_cost = 0.0;
    double calib_base_time = 0.0;
  };
  const exp::SweepRunner runner(args.run_options());
  const std::vector<CellStats> cells =
      runner.map(trials, [&](const exp::Trial& trial) {
        CellStats out;
        // Calibrate the emergent per-epoch checkpoint cost and base time
        // from a failure-free run of the same configuration, so the model
        // comparison does not depend on hand-derived device arithmetic.
        {
          runtime::JobConfig calib = sim_config(trial.at("ratio"), 1.0, 1);
          calib.inject_failures = false;
          const runtime::JobReport base =
              runtime::JobExecutor(calib, factory()).run();
          out.calib_ckpt_cost =
              base.checkpoints > 0
                  ? base.checkpoint_time / base.checkpoints
                  : 0.0;
          out.calib_base_time = base.useful_work;
        }
        double wallclock = 0.0;
        int completed = 0;
        std::uint64_t cache_serves = 0, total_serves = 0;
        for (int run = 0; run < runs_per_cell; ++run) {
          const runtime::JobReport report =
              runtime::JobExecutor(
                  sim_config(trial.at("ratio"), trial.at("mtbf"),
                             static_cast<std::uint64_t>(run) * 131 + 17),
                  factory())
                  .run();
          if (report.completed) {
            wallclock += report.wallclock;
            ++completed;
          }
          for (std::size_t l = 0; l < report.levels.size(); ++l) {
            total_serves += report.levels[l].fetches;
            if (report.levels[l].kind != "pfs")
              cache_serves += report.levels[l].fetches;
          }
        }
        if (completed > 0) out.mean_wallclock = wallclock / completed;
        if (total_serves > 0)
          out.sim_non_pfs = static_cast<double>(cache_serves) /
                            static_cast<double>(total_serves);
        return out;
      });

  exp::ResultSink table("multilevel_model_vs_sim",
                        {{"cache/PFS", "ratio"},
                         {"MTBF [h]", "mtbf_h"},
                         {"sim T [min]", "sim_total_min"},
                         {"model T [min]", "model_total_min"},
                         {"err", "rel_err"},
                         {"non-PFS sim", "sim_non_pfs"},
                         {"non-PFS model", "model_non_pfs"}});
  table.set_title("Cost-ratio sweep: DES wallclock vs closed form");
  double worst_err = 0.0;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const exp::Trial& trial = trials[i];
    // Per-level recovery terms mirroring the simulator's survival rules at
    // r = 1: every restore follows exactly one dead rank, so the local
    // level never survives and XOR (k = 1) always does. XOR holds the
    // newest generation only on even epochs — on average half a checkpoint
    // period staler than the newest commit.
    model::UnreliableCkptParams u;
    model::UnreliableCkptParams::LevelRecovery local;  // defeated by any kill
    model::UnreliableCkptParams::LevelRecovery xorlvl;
    xorlvl.recovery_prob = 1.0;
    xorlvl.fetch_cost = kRanks * kImageBytes / kCacheBandwidth;
    xorlvl.staleness_periods = 0.5;
    model::UnreliableCkptParams::LevelRecovery pfs;
    pfs.recovery_prob = 1.0;
    pfs.fetch_cost =
        kRanks * kImageBytes / (kCacheBandwidth / trial.at("ratio"));
    u.levels = {local, xorlvl, pfs};
    u.flush_cost = pfs.fetch_cost;  // one drain moves the same bytes
    u.flush_period = 4.0;
    u.async_flush = true;           // overlapped: off the critical path
    u.async_exposed_fraction = 0.0;
    const model::CombinedConfig cfg =
        redcr::scenario()
            .base_time(cells[i].calib_base_time)
            .comm_fraction(0.2)
            .processes(kRanks)
            .node_mtbf(util::hours(trial.at("mtbf")))
            .checkpoint_cost(cells[i].calib_ckpt_cost)
            .restart_cost(kRestartCost)
            .fixed_interval(kInterval)
            .build();
    const model::UnreliablePrediction pred =
        model::predict_unreliable(cfg, 1.0, u);
    const double model_non_pfs =
        pred.level_serve_prob.size() == 3
            ? pred.level_serve_prob[0] + pred.level_serve_prob[1]
            : 0.0;
    const double err =
        cells[i].mean_wallclock > 0.0
            ? std::fabs(cells[i].mean_wallclock - pred.total_time) /
                  pred.total_time
            : 0.0;
    worst_err = std::max(worst_err, err);
    table.add_row({{trial.at("ratio"), 0},
                   {trial.at("mtbf"), 2},
                   {cells[i].mean_wallclock / 60.0, 1},
                   {pred.total_time / 60.0, 1},
                   {err, 3},
                   {cells[i].sim_non_pfs, 3},
                   {model_non_pfs, 3}});
  }
  table.emit(args);
  args.say("worst model-vs-sim relative error: %.3f (tolerance %.2f)\n\n",
           worst_err, kModelTolerance);
  if (worst_err > kModelTolerance) {
    std::fprintf(stderr,
                 "bench_multilevel: FAIL: model misses the simulator by "
                 "%.3f (> %.2f) somewhere in the cost-ratio sweep\n",
                 worst_err, kModelTolerance);
    exit_code = 1;
  }

  // --- multilevel_sim: the guarded hierarchy throughput scenario ----------
  // Fixed size even under --quick: the guard compares against a committed
  // baseline, so the measured workload must not depend on the mode.
  const exp::Measurement sim =
      guard.best_of("multilevel_sim", "events/sec", [] {
        std::uint64_t events = 0;
        for (int j = 0; j < 12; ++j) {
          const auto seed = static_cast<std::uint64_t>(j) + 1;
          events += runtime::JobExecutor(sim_config(16.0, 0.4, seed),
                                         factory())
                        .run()
                        .engine_events;
        }
        return events;
      });
  if (!guard.report(args, "bench_multilevel", sim,
                    "3-level hierarchy, async flush"))
    return 1;
  return exit_code;
}

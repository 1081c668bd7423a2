// Differential harness for the fast-forward executor: for every supported
// configuration, ExecMode::kFastForward must produce a *bit-identical*
// JobReport (and obs counters, and journal bytes where a journal forces the
// fall-back) versus ExecMode::kEvent. The only permitted difference is the
// report.ff diagnostics block, which describes the engine, not the job.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/synthetic.hpp"
#include "ckpt/hierarchy.hpp"
#include "exp/exp.hpp"
#include "obs/obs.hpp"
#include "redcr/redcr.hpp"
#include "runtime/executor.hpp"
#include "util/units.hpp"

namespace redcr {
namespace {

using util::hours;

apps::SyntheticSpec small_spec() {
  apps::SyntheticSpec spec;
  spec.iterations = 40;
  spec.compute_per_iteration = 10.0;
  spec.halo_bytes = 1e6;
  spec.allreduces_per_iteration = 2;
  return spec;
}

runtime::WorkloadFactory factory() {
  return [](int, int) {
    return std::make_unique<apps::SyntheticWorkload>(small_spec());
  };
}

/// Failure-heavy flat baseline: MTBF far below the episode length, so most
/// seeds pay many sphere deaths before completing.
runtime::JobConfig flat_config(std::uint64_t seed, double redundancy) {
  runtime::JobConfig cfg;
  cfg.num_virtual = 8;
  cfg.redundancy = redundancy;
  cfg.network.bandwidth = 1e8;
  cfg.image_bytes = 1e9;
  cfg.checkpoint_interval = 60.0;
  cfg.restart_cost = 30.0;
  cfg.fail.node_mtbf = hours(0.4);
  cfg.fail.seed = seed;
  return cfg;
}

/// The multilevel stress shape from test_multilevel, minus the visible
/// write failures (wfail > 0 is outside the fast-forward supported set —
/// a failed write perturbs device timing mid-episode).
runtime::JobConfig hierarchy_config(std::uint64_t seed) {
  runtime::JobConfig cfg = flat_config(seed, 1.0);
  cfg.hierarchy = ckpt::parse_hierarchy(
      "local,bw=1e10,lat=0.01,rbw=1e10;"
      "xor,bw=1e10,lat=0.01,rbw=1e10,group=4,k=1,interval=2,ret=2,corr=0.02;"
      "pfs,bw=6e8,lat=0.01,rbw=6e8,interval=4,ret=2,corr=0.01");
  cfg.hierarchy.async_flush = true;
  cfg.ckpt_faults.seed = seed * 7919 + 1;
  return cfg;
}

/// Field-by-field bitwise equality of two JobReports, excluding the ff
/// diagnostics block (the documented exception). EXPECT_EQ on doubles is
/// exact comparison — any ULP of drift fails.
void expect_reports_identical(const runtime::JobReport& a,
                              const runtime::JobReport& b,
                              const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.completed, b.completed);
  ASSERT_EQ(a.abort.has_value(), b.abort.has_value());
  if (a.abort) {
    EXPECT_EQ(a.abort->reason, b.abort->reason);
    EXPECT_EQ(a.abort->time, b.abort->time);
    EXPECT_EQ(a.abort->episode, b.abort->episode);
    EXPECT_EQ(a.abort->restart_attempts, b.abort->restart_attempts);
  }
  EXPECT_EQ(a.wallclock, b.wallclock);
  EXPECT_EQ(a.useful_work, b.useful_work);
  EXPECT_EQ(a.checkpoint_time, b.checkpoint_time);
  EXPECT_EQ(a.rework_time, b.rework_time);
  EXPECT_EQ(a.restart_time, b.restart_time);
  EXPECT_EQ(a.episodes, b.episodes);
  EXPECT_EQ(a.job_failures, b.job_failures);
  EXPECT_EQ(a.physical_failures, b.physical_failures);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.engine_events, b.engine_events);
  EXPECT_EQ(a.num_physical, b.num_physical);
  EXPECT_EQ(a.network_contention_wait, b.network_contention_wait);
  EXPECT_EQ(a.red_mismatches_detected, b.red_mismatches_detected);
  EXPECT_EQ(a.red_mismatches_corrected, b.red_mismatches_corrected);
  EXPECT_EQ(a.red_messages_compared, b.red_messages_compared);
  EXPECT_EQ(a.red_mismatches_undetected, b.red_mismatches_undetected);
  EXPECT_EQ(a.restart_attempts, b.restart_attempts);
  EXPECT_EQ(a.failed_restarts, b.failed_restarts);
  EXPECT_EQ(a.failed_checkpoints, b.failed_checkpoints);
  EXPECT_EQ(a.fallback_restores, b.fallback_restores);
  EXPECT_EQ(a.ckpt_write_failures, b.ckpt_write_failures);
  EXPECT_EQ(a.wasted_write_time, b.wasted_write_time);
  EXPECT_EQ(a.flush_time, b.flush_time);
  EXPECT_EQ(a.fetch_time, b.fetch_time);
  EXPECT_EQ(a.flushes_completed, b.flushes_completed);
  EXPECT_EQ(a.flushes_lost, b.flushes_lost);
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t l = 0; l < a.levels.size(); ++l) {
    SCOPED_TRACE("level " + std::to_string(l));
    EXPECT_EQ(a.levels[l].kind, b.levels[l].kind);
    EXPECT_EQ(a.levels[l].writes, b.levels[l].writes);
    EXPECT_EQ(a.levels[l].write_failures, b.levels[l].write_failures);
    EXPECT_EQ(a.levels[l].commits, b.levels[l].commits);
    EXPECT_EQ(a.levels[l].fetches, b.levels[l].fetches);
    EXPECT_EQ(a.levels[l].defeated, b.levels[l].defeated);
  }
  EXPECT_EQ(a.sdc_rollbacks, b.sdc_rollbacks);
  EXPECT_EQ(a.sdc_injected, b.sdc_injected);
  EXPECT_EQ(a.sdc_corrected, b.sdc_corrected);
  EXPECT_EQ(a.sdc_undetected, b.sdc_undetected);
  EXPECT_EQ(a.sdc_invalidated_ckpts, b.sdc_invalidated_ckpts);
  EXPECT_EQ(a.sdc_detection_latency, b.sdc_detection_latency);
  EXPECT_EQ(a.sdc_rework, b.sdc_rework);
  EXPECT_EQ(a.sdc_infected_final, b.sdc_infected_final);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t e = 0; e < a.trace.size(); ++e) {
    SCOPED_TRACE("episode " + std::to_string(e));
    EXPECT_EQ(a.trace[e].index, b.trace[e].index);
    EXPECT_EQ(a.trace[e].start_wallclock, b.trace[e].start_wallclock);
    EXPECT_EQ(a.trace[e].elapsed, b.trace[e].elapsed);
    EXPECT_EQ(a.trace[e].end, b.trace[e].end);
    EXPECT_EQ(a.trace[e].dead_sphere, b.trace[e].dead_sphere);
    EXPECT_EQ(a.trace[e].start_iteration, b.trace[e].start_iteration);
    EXPECT_EQ(a.trace[e].snapshot_iteration, b.trace[e].snapshot_iteration);
    EXPECT_EQ(a.trace[e].checkpoints, b.trace[e].checkpoints);
    EXPECT_EQ(a.trace[e].replica_deaths, b.trace[e].replica_deaths);
    EXPECT_EQ(a.trace[e].restart_attempts, b.trace[e].restart_attempts);
    EXPECT_EQ(a.trace[e].fallback_depth, b.trace[e].fallback_depth);
    EXPECT_EQ(a.trace[e].restore_level, b.trace[e].restore_level);
    EXPECT_EQ(a.trace[e].flushes_lost, b.trace[e].flushes_lost);
    EXPECT_EQ(a.trace[e].sdc_invalidated, b.trace[e].sdc_invalidated);
  }
}

runtime::JobReport run_with(runtime::JobConfig cfg, runtime::ExecMode mode) {
  cfg.engine = mode;
  return runtime::JobExecutor(cfg, factory()).run();
}

void expect_invariant_tiles(const runtime::JobReport& r,
                            const std::string& what) {
  EXPECT_NEAR(r.wallclock,
              r.useful_work + r.checkpoint_time + r.rework_time +
                  r.restart_time + r.flush_time,
              1e-6)
      << what;
}

// ---- The 24-seed differential stress grid ----------------------------------

TEST(FastForwardDifferential, FlatGridIsBitIdenticalAcross24Seeds) {
  int fast_total = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    for (const double r : {1.0, 1.5, 2.0, 3.0}) {
      const std::string what =
          "flat seed " + std::to_string(seed) + " r " + std::to_string(r);
      const auto event = run_with(flat_config(seed, r),
                                  runtime::ExecMode::kEvent);
      const auto ff = run_with(flat_config(seed, r),
                               runtime::ExecMode::kFastForward);
      expect_reports_identical(event, ff, what);
      expect_invariant_tiles(ff, what);
      // Event-mode runs never touch the diagnostics block.
      EXPECT_EQ(event.ff.episodes_fast, 0);
      EXPECT_EQ(event.ff.fallbacks, 0);
      fast_total += ff.ff.episodes_fast;
    }
  }
  // The grid must exercise the fast path, not fall back its way to green.
  EXPECT_GT(fast_total, 24);
}

// Weibull failures are inside the supported set; every shape but k = 1
// draws through std::pow. One grid per shape (so the two run in parallel):
// infant mortality (k < 1) and wear-out (k > 1).
class FastForwardWeibull : public ::testing::TestWithParam<double> {};
INSTANTIATE_TEST_SUITE_P(Shapes, FastForwardWeibull,
                         ::testing::Values(0.7, 2.0));

TEST_P(FastForwardWeibull, GridIsBitIdenticalAcross24Seeds) {
  const double shape = GetParam();
  int fast_total = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    for (const double r : {1.0, 1.5, 2.0, 3.0}) {
      const std::string what = "weibull k " + std::to_string(shape) +
                               " seed " + std::to_string(seed) + " r " +
                               std::to_string(r);
      runtime::JobConfig cfg = flat_config(seed, r);
      cfg.fail.weibull_shape = shape;
      const auto event = run_with(cfg, runtime::ExecMode::kEvent);
      const auto ff = run_with(cfg, runtime::ExecMode::kFastForward);
      expect_reports_identical(event, ff, what);
      expect_invariant_tiles(ff, what);
      fast_total += ff.ff.episodes_fast;
    }
  }
  // The grid must exercise the fast path, not fall back its way to green.
  EXPECT_GT(fast_total, 0) << "k " << shape << " never took the fast path";
}

TEST(FastForwardDifferential, ForkedAndPullAndCorruptionVariants) {
  // Per-variant fast-episode totals: each variant must actually take the
  // fast path somewhere on the grid, not only fall back bit-identically.
  std::map<std::string, int> fast;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    runtime::JobConfig forked = flat_config(seed, 2.0);
    forked.ckpt_forked = true;
    runtime::JobConfig pull = flat_config(seed, 2.0);
    pull.replication = runtime::Replication::kPull;
    runtime::JobConfig corrupt = flat_config(seed, 1.5);
    corrupt.ckpt_faults.corruption_prob = 0.2;
    corrupt.ckpt_faults.restart_failure_prob = 0.1;
    corrupt.ckpt_faults.seed = seed + 41;
    corrupt.ckpt_retention = 3;
    const struct {
      const char* name;
      const runtime::JobConfig* cfg;
    } variants[] = {{"forked", &forked}, {"pull", &pull},
                    {"corrupt", &corrupt}};
    for (const auto& v : variants) {
      const std::string what =
          std::string(v.name) + " seed " + std::to_string(seed);
      const auto event = run_with(*v.cfg, runtime::ExecMode::kEvent);
      const auto ff = run_with(*v.cfg, runtime::ExecMode::kFastForward);
      expect_reports_identical(event, ff, what);
      expect_invariant_tiles(ff, what);
      fast[v.name] += ff.ff.episodes_fast;
    }
  }
  for (const char* name : {"forked", "pull", "corrupt"})
    EXPECT_GT(fast[name], 0) << name << " never took the fast path";
  EXPECT_GT(fast["forked"] + fast["pull"] + fast["corrupt"], 24);
}

TEST(FastForwardDifferential, MultilevelAsyncFlushGridIsBitIdentical) {
  int fast_total = 0;
  std::uint64_t skipped_total = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::string what = "multilevel seed " + std::to_string(seed);
    const auto event = run_with(hierarchy_config(seed),
                                runtime::ExecMode::kEvent);
    const auto ff = run_with(hierarchy_config(seed),
                             runtime::ExecMode::kFastForward);
    expect_reports_identical(event, ff, what);
    expect_invariant_tiles(ff, what);
    fast_total += ff.ff.episodes_fast;
    skipped_total += ff.ff.epochs_skipped;
  }
  EXPECT_GT(fast_total, 24);
  EXPECT_GT(skipped_total, 0u);
}

// ---- Unsupported configurations fall back whole, still bit-identically -----

TEST(FastForwardDifferential, SdcConfigsFallBackWholeAndStayIdentical) {
  for (const double r : {1.0, 1.5, 2.0, 3.0}) {
    runtime::JobConfig cfg = flat_config(5, r);
    cfg.sdc.inflight_prob = 1e-4;
    cfg.sdc.seed = 77;
    const std::string what = "sdc r " + std::to_string(r);
    const auto event = run_with(cfg, runtime::ExecMode::kEvent);
    const auto ff = run_with(cfg, runtime::ExecMode::kFastForward);
    expect_reports_identical(event, ff, what);
    // The SDC model is message-level: the whole config must fall back.
    // A whole-config fallback never builds the driver, so replay_events
    // (a per-episode fallback counter) stays zero.
    EXPECT_EQ(ff.ff.episodes_fast, 0) << what;
    EXPECT_GE(ff.ff.fallbacks, 1) << what;
    EXPECT_EQ(ff.ff.replay_events, 0u) << what;
  }
}

TEST(FastForwardDifferential, VisibleWriteFailuresFallBackWhole) {
  runtime::JobConfig cfg = flat_config(3, 1.5);
  cfg.ckpt_faults.write_failure_prob = 0.05;
  cfg.ckpt_faults.seed = 9;
  const auto event = run_with(cfg, runtime::ExecMode::kEvent);
  const auto ff = run_with(cfg, runtime::ExecMode::kFastForward);
  expect_reports_identical(event, ff, "wfail");
  EXPECT_EQ(ff.ff.episodes_fast, 0);
  EXPECT_GE(ff.ff.fallbacks, 1);
}

TEST(FastForwardDifferential, AutoFallsBackWhenAJournalSinkIsAttached) {
  // A journal consumes per-event output the arithmetic skip never produces:
  // under kAuto the whole config silently runs the event engine, and the
  // journal bytes match an explicit event run exactly.
  obs::Journal event_journal;
  runtime::JobConfig cfg = flat_config(11, 2.0);
  cfg.journal = &event_journal;
  const auto event = run_with(cfg, runtime::ExecMode::kEvent);

  obs::Journal auto_journal;
  runtime::JobConfig auto_cfg = flat_config(11, 2.0);
  auto_cfg.journal = &auto_journal;
  const auto via_auto = run_with(auto_cfg, runtime::ExecMode::kAuto);

  expect_reports_identical(event, via_auto, "journal-auto");
  EXPECT_EQ(via_auto.ff.episodes_fast, 0);
  EXPECT_EQ(via_auto.ff.fallbacks, 1);  // the whole-config fallback marker
  EXPECT_EQ(event_journal.ndjson(), auto_journal.ndjson());
}

// ---- Determinism of the fast path itself ------------------------------------

TEST(FastForwardDifferential, RerunIsBitIdentical) {
  const auto first = run_with(hierarchy_config(13),
                              runtime::ExecMode::kFastForward);
  const auto second = run_with(hierarchy_config(13),
                               runtime::ExecMode::kFastForward);
  expect_reports_identical(first, second, "rerun");
  EXPECT_EQ(first.ff.episodes_fast, second.ff.episodes_fast);
  EXPECT_EQ(first.ff.fallbacks, second.ff.fallbacks);
  EXPECT_EQ(first.ff.epochs_skipped, second.ff.epochs_skipped);
  EXPECT_EQ(first.ff.replay_events, second.ff.replay_events);
}

TEST(FastForwardDifferential, SweepCellsIdenticalAtAnyJobsLevel) {
  // The sweep cells default to kAuto through --engine; a parallel sweep must
  // produce the same cells as a serial one (prototype caches are per
  // executor, never shared across worker threads).
  exp::ParamGrid grid;
  grid.axis("mtbf", {0.4, 0.8}).axis("r", {1.0, 2.0});
  const std::vector<exp::Trial> trials = grid.trials("");
  const auto cell_of = [](const exp::Trial& trial) {
    runtime::JobConfig cfg =
        flat_config(21, trial.at("r"));
    cfg.fail.node_mtbf = hours(trial.at("mtbf"));
    cfg.engine = runtime::ExecMode::kAuto;
    const runtime::JobReport r =
        runtime::JobExecutor(cfg, factory()).run();
    return std::pair<double, double>(r.wallclock,
                                     static_cast<double>(r.engine_events));
  };
  RunOptions serial;
  serial.jobs = 1;
  RunOptions parallel;
  parallel.jobs = 4;
  const auto a = exp::SweepRunner(serial).map(trials, cell_of);
  const auto b = exp::SweepRunner(parallel).map(trials, cell_of);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first) << "cell " << i;
    EXPECT_EQ(a[i].second, b[i].second) << "cell " << i;
  }
}

// ---- The gated obs counters (satellite) -------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(FastForwardCounters, MetricsExportIsGatedOnTheEngine) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string event_path = (dir / "redcr_ff_event.ndjson").string();
  const std::string auto_path = (dir / "redcr_ff_auto.ndjson").string();

  // Event engine + metrics sink: no engine.ff.* counters in the export —
  // recorded event runs stay byte-identical to pre-fast-forward builds.
  RunOptions event_opts;
  event_opts.metrics_out = event_path;
  (void)run_job(flat_config(2, 2.0), factory(), event_opts);
  EXPECT_EQ(slurp(event_path).find("engine.ff."), std::string::npos);

  // kAuto + metrics sink: the recorder itself is a per-event consumer, so
  // the whole config falls back — and the gated counters say so.
  RunOptions auto_opts;
  auto_opts.metrics_out = auto_path;
  auto_opts.engine = runtime::ExecMode::kAuto;
  (void)run_job(flat_config(2, 2.0), factory(), auto_opts);
  const std::string exported = slurp(auto_path);
  EXPECT_NE(exported.find("engine.ff.fallbacks"), std::string::npos);
  EXPECT_NE(exported.find("engine.ff.episodes_fast"), std::string::npos);

  // The run reports themselves: a recorder forces episodes_fast == 0.
  obs::Recorder probe;
  runtime::JobConfig cfg = flat_config(2, 2.0);
  cfg.recorder = &probe;
  cfg.engine = runtime::ExecMode::kAuto;
  const auto report = runtime::JobExecutor(cfg, factory()).run();
  EXPECT_EQ(report.ff.episodes_fast, 0);
  EXPECT_GE(report.ff.fallbacks, 1);

  std::filesystem::remove(event_path);
  std::filesystem::remove(auto_path);
}

}  // namespace
}  // namespace redcr

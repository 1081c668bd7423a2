// Differential harness for the fast-forward executor: for every supported
// configuration, ExecMode::kFastForward must produce a *bit-identical*
// JobReport (and obs counters, and journal bytes where a journal forces the
// fall-back) versus ExecMode::kEvent. The only permitted difference is the
// report.ff diagnostics block, which describes the engine, not the job.
#include <coroutine>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/synthetic.hpp"
#include "ckpt/hierarchy.hpp"
#include "exp/exp.hpp"
#include "obs/obs.hpp"
#include "redcr/redcr.hpp"
#include "runtime/executor.hpp"
#include "simmpi/collectives.hpp"
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

runtime::WorkloadFactory factory_of(const apps::SyntheticSpec& spec) {
  return [spec](int, int) {
    return std::make_unique<apps::SyntheticWorkload>(spec);
  };
}

runtime::WorkloadFactory factory() { return factory_of(small_spec()); }

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

/// The ff diagnostics block, which the warm-vs-cold contract covers too:
/// what a thread ran before must not change how a job is covered.
void expect_ff_identical(const runtime::JobReport& a,
                         const runtime::JobReport& b,
                         const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.ff.episodes_fast, b.ff.episodes_fast);
  EXPECT_EQ(a.ff.fallbacks, b.ff.fallbacks);
  EXPECT_EQ(a.ff.epochs_skipped, b.ff.epochs_skipped);
  EXPECT_EQ(a.ff.replay_events, b.ff.replay_events);
}

runtime::JobReport run_with(runtime::JobConfig cfg, runtime::ExecMode mode,
                            const apps::SyntheticSpec& spec = small_spec()) {
  cfg.engine = mode;
  return runtime::JobExecutor(cfg, factory_of(spec)).run();
}

/// Runs `body` on a thread of its own, whose fast-forward prototype entry
/// starts empty, and returns what it returns.
template <class F>
auto on_fresh_thread(F body) {
  decltype(body()) out{};
  std::thread([&] { out = body(); }).join();
  return out;
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
  int completed = 0;
  int completed_with_fallback = 0;
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
      if (ff.completed) {
        ++completed;
        if (ff.ff.fallbacks > 0) ++completed_with_fallback;
      }
    }
  }
  // The grid must exercise the fast path, not fall back its way to green.
  EXPECT_GT(fast_total, 24);
  // A completing episode is reconstructed from the prototype started at its
  // own iteration, not replayed: only ties and t = 0 deaths still replay.
  std::printf("flat grid: %d of %d completed jobs report a fallback\n",
              completed_with_fallback, completed);
  EXPECT_GT(completed, 0);
  EXPECT_LE(10 * completed_with_fallback, completed);
}

TEST(FastForwardDifferential, SingleEpisodeJobsReplayNothing) {
  // MTBF far above the job length: the first episode completes. It is the
  // iteration-0 prototype minus the injector, so nothing replays, and the
  // engine count is the prototype's plus the injector's spawn event.
  runtime::JobConfig multilevel = hierarchy_config(3);
  multilevel.fail.node_mtbf = hours(1e6);
  // A PFS too slow for its cadence: async flushes queue behind each other,
  // so the job ends with a terminal drain whose commits are replayed too.
  runtime::JobConfig draining = multilevel;
  draining.hierarchy = ckpt::parse_hierarchy(
      "local,bw=1e10,lat=0.01,rbw=1e10;pfs,bw=1e8,lat=0.01,rbw=1e8,ret=2");
  draining.hierarchy.async_flush = true;
  std::vector<std::pair<std::string, runtime::JobConfig>> cases = {
      {"multilevel async", multilevel}, {"terminal drain", draining}};
  for (const double r : {1.0, 1.5, 2.0, 3.0}) {
    runtime::JobConfig cfg = flat_config(3, r);
    cfg.fail.node_mtbf = hours(1e6);
    cases.emplace_back("flat r " + std::to_string(r), cfg);
  }
  for (const auto& [what, cfg] : cases) {
    const auto event = run_with(cfg, runtime::ExecMode::kEvent);
    const auto ff = run_with(cfg, runtime::ExecMode::kFastForward);
    expect_reports_identical(event, ff, what);
    EXPECT_EQ(ff.episodes, 1) << what;
    EXPECT_TRUE(ff.completed) << what;
    EXPECT_EQ(ff.ff.episodes_fast, 1) << what;
    EXPECT_EQ(ff.ff.fallbacks, 0) << what;
    EXPECT_EQ(ff.ff.replay_events, 0u) << what;
    EXPECT_EQ(ff.engine_events, event.engine_events) << what;
  }
  EXPECT_GT(run_with(draining, runtime::ExecMode::kEvent).flush_time, 0.0);
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
  // Both runs share one thread and one shape, so the second reuses the
  // prototypes the first built: the ff counters must match too.
  const auto first = run_with(hierarchy_config(13),
                              runtime::ExecMode::kFastForward);
  const auto second = run_with(hierarchy_config(13),
                               runtime::ExecMode::kFastForward);
  expect_reports_identical(first, second, "rerun");
  expect_ff_identical(first, second, "rerun");
}

TEST(FastForwardDifferential, SweepCellsIdenticalAtAnyJobsLevel) {
  // The sweep cells default to kAuto through --engine; a parallel sweep must
  // produce the same cells as a serial one. Prototypes live in one entry
  // per worker thread, never shared across threads, and the three seeds of
  // a cell share its shape, so a worker reuses its entry across them.
  exp::ParamGrid grid;
  grid.axis("mtbf", {0.4, 0.8}).axis("r", {1.0, 2.0}).axis("seed",
                                                           {21, 22, 23});
  const std::vector<exp::Trial> trials = grid.trials("");
  const auto cell_of = [](const exp::Trial& trial) {
    runtime::JobConfig cfg = flat_config(
        static_cast<std::uint64_t>(trial.at("seed")), trial.at("r"));
    cfg.fail.node_mtbf = hours(trial.at("mtbf"));
    cfg.engine = runtime::ExecMode::kAuto;
    return runtime::JobExecutor(cfg, factory()).run();
  };
  RunOptions serial;
  serial.jobs = 1;
  RunOptions parallel;
  parallel.jobs = 4;
  const auto a = exp::SweepRunner(serial).map(trials, cell_of);
  const auto b = exp::SweepRunner(parallel).map(trials, cell_of);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_reports_identical(a[i], b[i], "cell " + std::to_string(i));
    expect_ff_identical(a[i], b[i], "cell " + std::to_string(i));
  }
}

// ---- Prototypes shared across a thread's jobs --------------------------------

/// A named job config as a function of the failure seed alone.
using Variant =
    std::pair<std::string, std::function<runtime::JobConfig(std::uint64_t)>>;

/// Every grid variant of the differential harness, so that consecutive
/// seeds of one variant share one shape.
std::vector<Variant> grid_variants() {
  std::vector<Variant> out;
  for (const double r : {1.0, 1.5, 2.0, 3.0})
    out.emplace_back("flat r " + std::to_string(r),
                     [r](std::uint64_t s) { return flat_config(s, r); });
  for (const double k : {0.7, 2.0})
    out.emplace_back("weibull k " + std::to_string(k), [k](std::uint64_t s) {
      runtime::JobConfig cfg = flat_config(s, 1.5);
      cfg.fail.weibull_shape = k;
      return cfg;
    });
  out.emplace_back("forked", [](std::uint64_t s) {
    runtime::JobConfig cfg = flat_config(s, 2.0);
    cfg.ckpt_forked = true;
    return cfg;
  });
  out.emplace_back("pull", [](std::uint64_t s) {
    runtime::JobConfig cfg = flat_config(s, 2.0);
    cfg.replication = runtime::Replication::kPull;
    return cfg;
  });
  out.emplace_back("corrupt", [](std::uint64_t s) {
    runtime::JobConfig cfg = flat_config(s, 1.5);
    cfg.ckpt_faults.corruption_prob = 0.2;
    cfg.ckpt_faults.restart_failure_prob = 0.1;
    cfg.ckpt_faults.seed = 41;
    cfg.ckpt_retention = 3;
    return cfg;
  });
  out.emplace_back("multilevel", [](std::uint64_t s) {
    runtime::JobConfig cfg = hierarchy_config(s);
    cfg.ckpt_faults.seed = 7920;
    return cfg;
  });
  return out;
}

TEST(FastForwardWarmThread, WarmEqualsColdOnEveryGridVariant) {
  // Seed s, then seed s + 1, on one thread; seed s + 1 alone on a fresh
  // one. The second job reuses the first's prototypes, however far it
  // advanced them, and must report exactly what the cold job does, the ff
  // block included — and what the event engine does.
  int fast_total = 0;
  for (const auto& [name, make] : grid_variants()) {
    for (const std::uint64_t s : {2u, 9u, 16u}) {
      const std::string what = name + " seed " + std::to_string(s + 1);
      const runtime::JobConfig next = make(s + 1);
      const auto warm = on_fresh_thread([&, &make = make] {
        (void)run_with(make(s), runtime::ExecMode::kFastForward);
        return run_with(next, runtime::ExecMode::kFastForward);
      });
      const auto cold = on_fresh_thread(
          [&] { return run_with(next, runtime::ExecMode::kFastForward); });
      expect_reports_identical(cold, warm, what);
      expect_ff_identical(cold, warm, what);
      expect_reports_identical(run_with(next, runtime::ExecMode::kEvent),
                               warm, what + " vs event");
      fast_total += warm.ff.episodes_fast;
    }
  }
  EXPECT_GT(fast_total, 0);
}

TEST(FastForwardWarmThread, ShapesNeverAlias) {
  // After a warm-up job, one prototype-relevant field changes at a time:
  // the job must not reuse the warm-up's prototypes, so it reports what it
  // does on a fresh thread and on the event engine.
  const runtime::JobConfig flat = flat_config(5, 1.5);
  const runtime::JobConfig levels = hierarchy_config(5);
  struct Case {
    std::string name;
    runtime::JobConfig base;
    runtime::JobConfig cfg;
    apps::SyntheticSpec spec = small_spec();
  };
  std::vector<Case> cases;
  const auto add = [&cases](std::string name, const runtime::JobConfig& base,
                            const std::function<void(Case&)>& edit) {
    Case c{std::move(name), base, base};
    edit(c);
    cases.push_back(std::move(c));
  };
  add("delta", flat, [](Case& c) { c.cfg.checkpoint_interval = 45.0; });
  add("image_bytes", flat, [](Case& c) { c.cfg.image_bytes = 5e8; });
  add("network bandwidth", flat,
      [](Case& c) { c.cfg.network.bandwidth = 2e8; });
  add("compute_per_iteration", flat,
      [](Case& c) { c.spec.compute_per_iteration = 12.0; });
  add("halo_bytes", flat, [](Case& c) { c.spec.halo_bytes = 2e6; });
  add("redundancy", flat, [](Case& c) { c.cfg.redundancy = 2.0; });
  add("ckpt_forked", flat, [](Case& c) { c.cfg.ckpt_forked = true; });
  add("level interval", levels,
      [](Case& c) { c.cfg.hierarchy.levels[1].interval = 3; });
  add("level bandwidth", levels,
      [](Case& c) { c.cfg.hierarchy.levels[0].device.bandwidth = 5e9; });
  add("async_flush", levels,
      [](Case& c) { c.cfg.hierarchy.async_flush = false; });
  for (const Case& c : cases) {
    const auto warm = on_fresh_thread([&c] {
      (void)run_with(c.base, runtime::ExecMode::kFastForward);
      return run_with(c.cfg, runtime::ExecMode::kFastForward, c.spec);
    });
    const auto cold = on_fresh_thread([&c] {
      return run_with(c.cfg, runtime::ExecMode::kFastForward, c.spec);
    });
    const auto event = run_with(c.cfg, runtime::ExecMode::kEvent, c.spec);
    expect_reports_identical(cold, warm, c.name);
    expect_ff_identical(cold, warm, c.name);
    expect_reports_identical(event, warm, c.name + " vs event");
    EXPECT_GT(warm.ff.episodes_fast, 0) << c.name;
  }
}

TEST(FastForwardWarmThread, SignedZerosShareSafely) {
  // -0.0 and +0.0 compare equal, so these two jobs share one entry. No
  // prototype-relevant field tells them apart (each only enters sums with
  // simulated times, which start at +0.0), so the shared prototypes answer
  // the second job exactly.
  runtime::JobConfig plus = flat_config(5, 1.5);
  plus.network.latency = 0.0;
  plus.network.send_overhead = 0.0;
  plus.storage.base_latency = 0.0;
  plus.image_bytes = 0.0;
  apps::SyntheticSpec plus_spec = small_spec();
  plus_spec.halo_bytes = 0.0;
  plus_spec.allreduce_bytes = 0.0;
  runtime::JobConfig minus = plus;
  minus.fail.seed = 6;
  minus.network.latency = -0.0;
  minus.network.send_overhead = -0.0;
  minus.storage.base_latency = -0.0;
  minus.image_bytes = -0.0;
  apps::SyntheticSpec minus_spec = plus_spec;
  minus_spec.halo_bytes = -0.0;
  minus_spec.allreduce_bytes = -0.0;
  const auto warm = on_fresh_thread([&] {
    (void)run_with(plus, runtime::ExecMode::kFastForward, plus_spec);
    return run_with(minus, runtime::ExecMode::kFastForward, minus_spec);
  });
  const auto cold = on_fresh_thread([&] {
    return run_with(minus, runtime::ExecMode::kFastForward, minus_spec);
  });
  expect_reports_identical(cold, warm, "signed zeros");
  expect_ff_identical(cold, warm, "signed zeros");
  expect_reports_identical(
      run_with(minus, runtime::ExecMode::kEvent, minus_spec), warm,
      "signed zeros vs event");
  EXPECT_GT(warm.ff.episodes_fast, 0);
}

/// A fast_forward_safe kernel that, `poison_after` iterations into any
/// episode, parks every rank forever (kStall) or throws (kThrow). Its
/// prototypes therefore stop being able to answer at one fixed instant,
/// while each episode of it is still a prefix of them up to that instant.
class PoisonWorkload final : public apps::Workload {
 public:
  enum class Mode { kStall, kThrow };
  PoisonWorkload(long poison_after, Mode mode)
      : poison_after_(poison_after), mode_(mode) {}

  [[nodiscard]] long total_iterations() const noexcept override {
    return 40;
  }
  sim::CoTask<void> run(simmpi::Comm& comm, long start_iteration,
                        apps::BoundaryHook hook) override {
    for (long iter = start_iteration; iter < total_iterations(); ++iter) {
      co_await hook(iter);
      if (iter - start_iteration == poison_after_) {
        if (mode_ == Mode::kThrow)
          throw std::runtime_error("poisoned iteration");
        co_await Never{};
      }
      co_await comm.compute(10.0);
      (void)co_await simmpi::allreduce(comm, simmpi::Payload::sized(16.0),
                                       0);
    }
  }
  void restore(long /*iteration*/) override {}
  [[nodiscard]] bool fast_forward_safe() const noexcept override {
    return true;
  }
  [[nodiscard]] bool same_shape(const apps::Workload& other) const
      noexcept override {
    const auto* poison = dynamic_cast<const PoisonWorkload*>(&other);
    return poison != nullptr && poison->poison_after_ == poison_after_ &&
           poison->mode_ == mode_;
  }

 private:
  /// Suspends forever: nothing ever schedules the resume.
  struct Never {
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    void await_resume() const noexcept {}
  };
  long poison_after_;
  Mode mode_;
};

/// A job of the poison kernel; `threw` is set when it threw.
struct PoisonRun {
  runtime::JobReport report;
  bool threw = false;
};

PoisonRun run_poison(std::uint64_t seed, PoisonWorkload::Mode mode,
                     runtime::ExecMode engine) {
  // Two episodes: a clean job is one whose both episodes die before the
  // poison instant, which a failure-heavy MTBF makes common.
  runtime::JobConfig cfg = flat_config(seed, 1.5);
  cfg.fail.node_mtbf = hours(0.25);
  cfg.max_episodes = 2;
  cfg.engine = engine;
  PoisonRun out;
  try {
    out.report = runtime::JobExecutor(cfg, [mode](int, int) {
                   return std::make_unique<PoisonWorkload>(12, mode);
                 }).run();
  } catch (const std::runtime_error&) {
    out.threw = true;
  }
  return out;
}

class FastForwardPoison
    : public ::testing::TestWithParam<PoisonWorkload::Mode> {};
INSTANTIATE_TEST_SUITE_P(
    Modes, FastForwardPoison,
    ::testing::Values(PoisonWorkload::Mode::kStall,
                      PoisonWorkload::Mode::kThrow),
    [](const ::testing::TestParamInfo<PoisonWorkload::Mode>& info) {
      return info.param == PoisonWorkload::Mode::kStall ? "Stall" : "Throw";
    });

TEST_P(FastForwardPoison, AnswersDoNotDependOnWhatTheThreadHit) {
  // Job `hit` lands at or past the poison instant; job `clean` lands only
  // before it. On a fresh thread and after `hit` on the same thread (whose
  // prototypes are then poisoned), `clean` must report the same, ff block
  // included: a prototype answers every landing before its poison instant.
  const PoisonWorkload::Mode mode = GetParam();
  std::uint64_t hit = 0;
  std::uint64_t clean = 0;
  PoisonRun clean_cold;
  for (std::uint64_t seed = 1; seed <= 40 && (hit == 0 || clean == 0);
       ++seed) {
    const PoisonRun r = on_fresh_thread(
        [&] { return run_poison(seed, mode, runtime::ExecMode::kFastForward); });
    if (r.threw || r.report.ff.fallbacks > 0) {
      if (hit == 0) hit = seed;
    } else if (clean == 0 && r.report.ff.episodes_fast > 0) {
      clean = seed;
      clean_cold = r;
    }
  }
  ASSERT_NE(hit, 0u) << "no seed reached the poison instant";
  ASSERT_NE(clean, 0u) << "no seed stayed before the poison instant";

  const PoisonRun clean_warm = on_fresh_thread([&] {
    (void)run_poison(hit, mode, runtime::ExecMode::kFastForward);
    return run_poison(clean, mode, runtime::ExecMode::kFastForward);
  });
  ASSERT_FALSE(clean_warm.threw);
  const std::string what = "clean seed " + std::to_string(clean) +
                           " after hit seed " + std::to_string(hit);
  expect_reports_identical(clean_cold.report, clean_warm.report, what);
  expect_ff_identical(clean_cold.report, clean_warm.report, what);
  EXPECT_EQ(clean_warm.report.ff.fallbacks, 0) << what;
  const PoisonRun event =
      run_poison(clean, mode, runtime::ExecMode::kEvent);
  ASSERT_FALSE(event.threw);
  expect_reports_identical(event.report, clean_warm.report, what + " vs event");
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

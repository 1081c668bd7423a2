// Multi-level checkpoint storage hierarchy tests: spec parsing and
// validation rejections, survival rules per level kind, epoch routing,
// cheapest-surviving-level fetch semantics (retention-deep fallback,
// all-corrupt cascade, destroyed-level from-scratch restarts), async-flush
// interruption, and randomized hierarchy stress across many seeds —
// asserting that the extended accounting invariant (wallclock == useful +
// checkpoint + rework + restart + flush) tiles exactly, that hierarchy runs
// are bit-identical across reruns and worker counts, and that a single-PFS
// hierarchy reproduces the flat pipeline's numbers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "ckpt/hierarchy.hpp"
#include "ckpt/store.hpp"
#include "exp/runner.hpp"
#include "obs/recorder.hpp"
#include "redcr/scenario.hpp"
#include "runtime/executor.hpp"
#include "util/units.hpp"

namespace redcr {
namespace {

using util::hours;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---- Spec parsing ----------------------------------------------------------

TEST(HierarchyParse, FullSpecRoundTrips) {
  const ckpt::HierarchyParams h = ckpt::parse_hierarchy(
      "local,bw=5e9,lat=0.02,rbw=4e9,ret=2;"
      "xor,group=4,k=1,corr=0.01,wfail=0.02;"
      "pfs,bw=2e8,interval=4,ret=3");
  ASSERT_EQ(h.levels.size(), 3u);
  EXPECT_EQ(h.levels[0].kind, ckpt::LevelKind::kLocal);
  EXPECT_DOUBLE_EQ(h.levels[0].device.bandwidth, 5e9);
  EXPECT_DOUBLE_EQ(h.levels[0].device.base_latency, 0.02);
  EXPECT_DOUBLE_EQ(h.levels[0].read_bandwidth, 4e9);
  EXPECT_EQ(h.levels[0].retention, 2);
  EXPECT_EQ(h.levels[1].kind, ckpt::LevelKind::kXor);
  EXPECT_EQ(h.levels[1].group_size, 4);
  EXPECT_EQ(h.levels[1].xor_tolerance, 1);
  EXPECT_DOUBLE_EQ(h.levels[1].corruption_prob, 0.01);
  EXPECT_DOUBLE_EQ(h.levels[1].write_failure_prob, 0.02);
  EXPECT_EQ(h.levels[2].kind, ckpt::LevelKind::kPfs);
  EXPECT_EQ(h.levels[2].interval, 4);
  EXPECT_EQ(h.levels[2].retention, 3);
  EXPECT_EQ(h.pfs_level(), 2);
  EXPECT_TRUE(h.any_fault_prob());
  EXPECT_NO_THROW(h.validate(8));
}

TEST(HierarchyParse, RejectsMalformedSpecs) {
  EXPECT_THROW((void)ckpt::parse_hierarchy(""), std::invalid_argument);
  EXPECT_THROW((void)ckpt::parse_hierarchy("tape"), std::invalid_argument);
  EXPECT_THROW((void)ckpt::parse_hierarchy("local;;pfs"),
               std::invalid_argument);
  EXPECT_THROW((void)ckpt::parse_hierarchy("local,bw"),
               std::invalid_argument);
  EXPECT_THROW((void)ckpt::parse_hierarchy("local,bw="),
               std::invalid_argument);
  EXPECT_THROW((void)ckpt::parse_hierarchy("local,bw=fast"),
               std::invalid_argument);
  EXPECT_THROW((void)ckpt::parse_hierarchy("local,speed=5e9"),
               std::invalid_argument);
}

TEST(HierarchyParse, ErrorsNameTheOffendingLevelAndKey) {
  try {
    (void)ckpt::parse_hierarchy("local;xor,k=one");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("level 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'k'"), std::string::npos) << msg;
  }
}

TEST(HierarchyParse, IntegerKeysTakeWholeCounts) {
  for (const std::string key : {"ret", "interval", "group", "k"}) {
    for (const std::string value : {"2.5", "1e10", "nan"}) {
      try {
        (void)ckpt::parse_hierarchy("local;pfs," + key + "=" + value);
        ADD_FAILURE() << key << "=" << value << " was accepted";
      } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("level 1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'" + key + "'"), std::string::npos) << msg;
        EXPECT_NE(msg.find(value), std::string::npos) << msg;
      }
    }
  }
}

// ---- Validation rejections -------------------------------------------------

ckpt::HierarchyParams two_level() {
  return ckpt::parse_hierarchy("local;pfs,interval=4");
}

TEST(HierarchyValidate, AcceptsTheCanonicalConfigs) {
  EXPECT_NO_THROW(two_level().validate(8));
  EXPECT_NO_THROW(ckpt::parse_hierarchy("pfs").validate(8));
  EXPECT_NO_THROW(
      ckpt::parse_hierarchy("local;partner,group=2;xor,group=4,k=1;pfs")
          .validate(8));
}

TEST(HierarchyValidate, RejectsStructuralMistakes) {
  // Empty hierarchy: must be expressed as "no hierarchy", not zero levels.
  ckpt::HierarchyParams h;
  EXPECT_THROW(h.validate(8), std::invalid_argument);
  // The fastest level must catch every epoch.
  h = two_level();
  h.levels[0].interval = 2;
  EXPECT_THROW(h.validate(8), std::invalid_argument);
  // PFS must be last...
  h = ckpt::parse_hierarchy("local;pfs");
  std::swap(h.levels[0], h.levels[1]);
  h.levels[0].interval = 1;
  EXPECT_THROW(h.validate(8), std::invalid_argument);
  // ...and unique.
  h = ckpt::parse_hierarchy("local;pfs");
  h.levels.push_back(h.levels[1]);
  EXPECT_THROW(h.validate(8), std::invalid_argument);
  // Async flush needs a PFS to drain to.
  h = ckpt::parse_hierarchy("local");
  h.async_flush = true;
  EXPECT_THROW(h.validate(8), std::invalid_argument);
  // Level-count cap.
  h = ckpt::parse_hierarchy("local");
  for (int i = 0; i < 9; ++i) h.levels.push_back(h.levels[0]);
  EXPECT_THROW(h.validate(8), std::invalid_argument);
}

TEST(HierarchyValidate, RejectsBadLevelKnobs) {
  auto expect_reject = [](const char* mutate_what,
                          void (*mutate)(ckpt::LevelParams&)) {
    ckpt::HierarchyParams h = two_level();
    mutate(h.levels[0]);
    EXPECT_THROW(h.validate(8), std::invalid_argument) << mutate_what;
  };
  expect_reject("zero bandwidth",
                [](ckpt::LevelParams& l) { l.device.bandwidth = 0.0; });
  expect_reject("negative bandwidth",
                [](ckpt::LevelParams& l) { l.device.bandwidth = -1.0; });
  expect_reject("NaN bandwidth",
                [](ckpt::LevelParams& l) { l.device.bandwidth = kNaN; });
  expect_reject("negative read bandwidth",
                [](ckpt::LevelParams& l) { l.read_bandwidth = -1.0; });
  expect_reject("NaN read bandwidth",
                [](ckpt::LevelParams& l) { l.read_bandwidth = kNaN; });
  expect_reject("zero retention",
                [](ckpt::LevelParams& l) { l.retention = 0; });
  expect_reject("corruption prob > 1",
                [](ckpt::LevelParams& l) { l.corruption_prob = 1.5; });
  expect_reject("NaN write-failure prob",
                [](ckpt::LevelParams& l) { l.write_failure_prob = kNaN; });
  expect_reject("group of one",
                [](ckpt::LevelParams& l) { l.group_size = 1; });
}

TEST(HierarchyValidate, RejectsXorToleranceAgainstGroupSize) {
  // k >= group size: the XOR set cannot outlive its own group.
  ckpt::HierarchyParams h = ckpt::parse_hierarchy("xor,group=4,k=4;pfs");
  EXPECT_THROW(h.validate(8), std::invalid_argument);
  h = ckpt::parse_hierarchy("xor,group=4,k=1;pfs");
  EXPECT_NO_THROW(h.validate(8));
  // Group larger than the world.
  h = ckpt::parse_hierarchy("xor,group=16,k=1;pfs");
  EXPECT_THROW(h.validate(8), std::invalid_argument);
  // group=0 means one all-ranks group; k must still be below it.
  h = ckpt::parse_hierarchy("xor,k=8;pfs");
  EXPECT_THROW(h.validate(8), std::invalid_argument);
  EXPECT_NO_THROW(h.validate(9));
}

TEST(HierarchyValidate, ErrorsNameLevelIndexAndField) {
  ckpt::HierarchyParams h = two_level();
  h.levels[1].retention = -2;
  try {
    h.validate(8);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("level 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("pfs"), std::string::npos) << msg;
    EXPECT_NE(msg.find("retention"), std::string::npos) << msg;
  }
}

// ---- Survival rules --------------------------------------------------------

std::vector<char> dead_set(std::initializer_list<int> ranks, int n = 8) {
  std::vector<char> dead(static_cast<std::size_t>(n), 0);
  for (int r : ranks) dead[static_cast<std::size_t>(r)] = 1;
  return dead;
}

TEST(HierarchySurvival, PerKindRules) {
  ckpt::StorageHierarchy hier(
      ckpt::parse_hierarchy("local;partner;xor,group=4,k=1;pfs,interval=4"),
      8);
  // Local: only an empty dead set.
  EXPECT_TRUE(hier.level_survives(0, dead_set({})));
  EXPECT_FALSE(hier.level_survives(0, dead_set({3})));
  // Partner (one all-ranks group, cyclic next): single deaths survive,
  // adjacent pairs (including the 7->0 wrap) do not.
  EXPECT_TRUE(hier.level_survives(1, dead_set({3})));
  EXPECT_TRUE(hier.level_survives(1, dead_set({3, 5})));
  EXPECT_FALSE(hier.level_survives(1, dead_set({3, 4})));
  EXPECT_FALSE(hier.level_survives(1, dead_set({7, 0})));
  // XOR (groups {0..3} and {4..7}, k = 1): one loss per group.
  EXPECT_TRUE(hier.level_survives(2, dead_set({1})));
  EXPECT_TRUE(hier.level_survives(2, dead_set({1, 5})));
  EXPECT_FALSE(hier.level_survives(2, dead_set({1, 2})));
  // PFS: rank kills never touch it.
  EXPECT_TRUE(hier.level_survives(3, dead_set({0, 1, 2, 3, 4, 5, 6, 7})));
}

TEST(HierarchySurvival, WriteFactorsMatchTheEncoding) {
  ckpt::LevelParams l;
  l.kind = ckpt::LevelKind::kLocal;
  EXPECT_DOUBLE_EQ(l.write_factor(8), 1.0);
  l.kind = ckpt::LevelKind::kPartner;
  EXPECT_DOUBLE_EQ(l.write_factor(8), 2.0);
  l.kind = ckpt::LevelKind::kXor;
  l.group_size = 4;
  EXPECT_DOUBLE_EQ(l.write_factor(8), 1.0 + 1.0 / 3.0);
  l.group_size = 0;  // one all-ranks group
  EXPECT_DOUBLE_EQ(l.write_factor(8), 1.0 + 1.0 / 7.0);
  l.kind = ckpt::LevelKind::kPfs;
  EXPECT_DOUBLE_EQ(l.write_factor(8), 1.0);
}

// ---- Epoch routing ---------------------------------------------------------

TEST(HierarchyRouting, SlowestEligibleCacheLevelWins) {
  ckpt::StorageHierarchy hier(
      ckpt::parse_hierarchy(
          "local;xor,group=4,k=1,interval=2;pfs,interval=4"),
      8);
  EXPECT_EQ(hier.cache_level_for(1), 0);
  EXPECT_EQ(hier.cache_level_for(2), 1);
  EXPECT_EQ(hier.cache_level_for(3), 0);
  EXPECT_EQ(hier.cache_level_for(4), 1);
  EXPECT_FALSE(hier.pfs_due(2));
  EXPECT_TRUE(hier.pfs_due(4));
  EXPECT_TRUE(hier.pfs_due(8));
}

TEST(HierarchyRouting, PfsOnlyHierarchyHasNoCacheLevel) {
  ckpt::StorageHierarchy hier(ckpt::parse_hierarchy("pfs"), 8);
  EXPECT_EQ(hier.cache_level_for(1), -1);
  EXPECT_EQ(hier.cache_level_for(7), -1);
  EXPECT_TRUE(hier.pfs_due(1));
}

TEST(HierarchyRouting, FlatStoreIsALonePfsLevelKnownAsMinusOne) {
  ckpt::LevelParams level;
  level.kind = ckpt::LevelKind::kLocal;  // flat() always makes it the PFS
  level.retention = 3;
  const auto flat = ckpt::StorageHierarchy::flat(level, 8);
  EXPECT_TRUE(flat.is_flat());
  ASSERT_EQ(flat.num_levels(), 1);
  EXPECT_EQ(flat.pfs_level(), 0);
  EXPECT_EQ(flat.level(0).store.retention_depth(), 3);
  EXPECT_EQ(flat.public_id(0), -1);
  EXPECT_EQ(flat.cache_level_for(5), -1);
  EXPECT_TRUE(flat.pfs_due(5));
  // A configured single-PFS hierarchy is the same store, known by its index.
  const ckpt::StorageHierarchy pfs(ckpt::parse_hierarchy("pfs"), 8);
  EXPECT_FALSE(pfs.is_flat());
  EXPECT_EQ(pfs.public_id(0), 0);
}

// ---- Fetch semantics -------------------------------------------------------

ckpt::Generation make_gen(std::uint64_t episode, int epoch, long iteration,
                          double useful, std::vector<char> image_ok) {
  ckpt::Generation g;
  g.snapshot.valid = true;
  g.snapshot.iteration = iteration;
  g.snapshot.epoch = epoch;
  g.episode = episode;
  g.cumulative_useful = useful;
  g.image_ok = std::move(image_ok);
  g.checksum = ckpt::generation_checksum(episode, epoch, iteration);
  return g;
}

TEST(HierarchyFetch, FallsBackExactlyToTheRetentionDepth) {
  ckpt::StorageHierarchy hier(ckpt::parse_hierarchy("local,ret=3;pfs"), 2);
  // Three generations; the newest two corrupt. The oldest — exactly at the
  // retention horizon — must serve, discarding retention-1 generations.
  hier.commit(0, make_gen(0, 1, 10, 100.0, {1, 1}));
  hier.commit(0, make_gen(0, 2, 20, 200.0, {1, 0}));
  hier.commit(0, make_gen(0, 3, 30, 300.0, {0, 1}));
  const auto r = hier.fetch(dead_set({}, 2), 1e9);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.level, 0);
  EXPECT_EQ(r.fallback_depth, 2);
  EXPECT_EQ(r.generation.snapshot.iteration, 10);
  EXPECT_EQ(hier.level(0).fetches, 1u);
}

TEST(HierarchyFetch, AllCorruptAtOneLevelCascadesToTheNext) {
  ckpt::StorageHierarchy hier(
      ckpt::parse_hierarchy("local,ret=2;pfs,ret=2"), 2);
  // Every local generation corrupt; the PFS holds an older valid one.
  hier.commit(0, make_gen(0, 3, 30, 300.0, {0, 1}));
  hier.commit(0, make_gen(0, 4, 40, 400.0, {1, 0}));
  hier.commit(1, make_gen(0, 2, 20, 200.0, {1, 1}));
  const auto r = hier.fetch(dead_set({}, 2), 1e9);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.level, 1);
  EXPECT_EQ(r.generation.snapshot.iteration, 20);
  // The corrupt level DID hold generations: the abort distinction survives
  // the cascade (it matters when no later level serves either).
  EXPECT_TRUE(r.had_generations);
  EXPECT_EQ(r.levels_defeated, 0);
}

TEST(HierarchyFetch, DestroyedLevelsMeanFromScratchNotAbort) {
  ckpt::StorageHierarchy hier(ckpt::parse_hierarchy("local,ret=2"), 2);
  hier.commit(0, make_gen(0, 1, 10, 100.0, {1, 1}));
  // A rank kill wipes the only level: no serve, but also NOT
  // had_generations — the job restarts from scratch instead of aborting.
  const auto r = hier.fetch(dead_set({0}, 2), 1e9);
  EXPECT_FALSE(r.found);
  EXPECT_FALSE(r.had_generations);
  EXPECT_EQ(r.levels_defeated, 1);
  EXPECT_EQ(hier.level(0).defeated, 1u);
  // The destroyed images are gone for later fetches too.
  const auto again = hier.fetch(dead_set({}, 2), 1e9);
  EXPECT_FALSE(again.found);
  EXPECT_EQ(again.levels_defeated, 0);
}

TEST(HierarchyFetch, ChargesTheServingLevelsReadBandwidth) {
  ckpt::StorageHierarchy hier(
      ckpt::parse_hierarchy("local,rbw=2e9;pfs,rbw=1e8"), 4);
  hier.commit(0, make_gen(0, 1, 10, 100.0, {1, 1, 1, 1}));
  hier.commit(1, make_gen(0, 1, 10, 100.0, {1, 1, 1, 1}));
  // Local serves: 4 ranks x 1e9 bytes at 2e9 B/s.
  auto r = hier.fetch(dead_set({}, 4), 1e9);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.level, 0);
  EXPECT_DOUBLE_EQ(r.fetch_seconds, 2.0);
  // A kill defeats local; the PFS serves at its own (slower) rate.
  r = hier.fetch(dead_set({1}, 4), 1e9);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.level, 1);
  EXPECT_DOUBLE_EQ(r.fetch_seconds, 40.0);
}

// ---- Executor configuration rejections -------------------------------------

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

runtime::JobConfig hierarchy_config(std::uint64_t seed) {
  runtime::JobConfig cfg;
  cfg.num_virtual = 8;
  cfg.redundancy = 1.0;
  cfg.network.bandwidth = 1e8;
  cfg.image_bytes = 1e9;
  cfg.checkpoint_interval = 60.0;
  cfg.restart_cost = 30.0;
  cfg.fail.node_mtbf = hours(0.4);
  cfg.fail.seed = seed;
  cfg.hierarchy = ckpt::parse_hierarchy(
      "local,bw=1e10,lat=0.01,rbw=1e10;"
      "xor,bw=1e10,lat=0.01,rbw=1e10,group=4,k=1,interval=2,ret=2,"
      "corr=0.02,wfail=0.05;"
      "pfs,bw=6e8,lat=0.01,rbw=6e8,interval=4,ret=2,corr=0.01");
  cfg.hierarchy.async_flush = true;
  cfg.ckpt_faults.seed = seed * 7919 + 1;
  cfg.ckpt_write_retry.max_attempts = 3;
  cfg.ckpt_write_retry.backoff_base = 0.5;
  return cfg;
}

TEST(HierarchyExecutor, RejectsIncompatibleConfigsUpFront) {
  runtime::JobConfig cfg = hierarchy_config(1);
  cfg.ckpt_forked = true;  // forked drain and hierarchy are exclusive
  EXPECT_THROW(runtime::JobExecutor(cfg, factory()), std::invalid_argument);
  cfg = hierarchy_config(1);
  cfg.checkpoint_enabled = false;
  EXPECT_THROW(runtime::JobExecutor(cfg, factory()), std::invalid_argument);
  cfg = hierarchy_config(1);
  cfg.hierarchy.levels[1].xor_tolerance = 9;  // k >= group
  EXPECT_THROW(runtime::JobExecutor(cfg, factory()), std::invalid_argument);
}

// ---- Async flush interruption ----------------------------------------------

TEST(HierarchyFlush, InterruptedFlushIsLostAndRestoreUsesTheCache) {
  // A PFS so slow that every drain is still in flight when the next failure
  // lands: flushes are lost, the PFS never commits, and every restore must
  // come from a cache level (or from scratch) — never the PFS.
  runtime::JobConfig cfg = hierarchy_config(7);
  cfg.hierarchy.levels[1].corruption_prob = 0.0;
  cfg.hierarchy.levels[1].write_failure_prob = 0.0;
  cfg.hierarchy.levels[2].corruption_prob = 0.0;
  cfg.hierarchy.levels[2].device.bandwidth = 1e6;  // ~8000 s per image
  const runtime::JobReport report = runtime::JobExecutor(cfg, factory()).run();
  EXPECT_GT(report.flushes_lost, 0);
  ASSERT_EQ(report.levels.size(), 3u);
  EXPECT_EQ(report.levels[2].fetches, 0u);
  EXPECT_EQ(report.levels[2].commits,
            static_cast<std::uint64_t>(report.flushes_completed));
  // The terminal drain (if the job finished mid-flush) is flush wallclock,
  // and the extended invariant still tiles exactly.
  EXPECT_NEAR(report.wallclock,
              report.useful_work + report.checkpoint_time +
                  report.rework_time + report.restart_time +
                  report.flush_time,
              1e-6);
}

// ---- Hierarchy stress ------------------------------------------------------

TEST(HierarchyStress, ExtendedInvariantTilesWallclockAcrossSeeds) {
  std::uint64_t cache_serves = 0, defeats = 0, write_failures = 0;
  int flushes_lost = 0, flushes_done = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    obs::Recorder rec;
    runtime::JobConfig cfg = hierarchy_config(seed);
    cfg.recorder = &rec;
    const runtime::JobReport report =
        runtime::JobExecutor(cfg, factory()).run();
    // (a) The extended accounting invariant tiles wallclock exactly:
    // useful + checkpoint + rework + restart + flush, with restore-time
    // fetch seconds inside restart_time.
    EXPECT_NEAR(report.wallclock,
                report.useful_work + report.checkpoint_time +
                    report.rework_time + report.restart_time +
                    report.flush_time,
                1e-6)
        << "seed " << seed;
    EXPECT_LE(report.fetch_time, report.restart_time + 1e-9);
    // Counters must EXACTLY mirror the report fields.
    const obs::Registry& m = rec.metrics();
    EXPECT_DOUBLE_EQ(m.counter_value("time.useful_work"), report.useful_work);
    EXPECT_DOUBLE_EQ(m.counter_value("time.checkpoint"),
                     report.checkpoint_time);
    EXPECT_DOUBLE_EQ(m.counter_value("time.rework"), report.rework_time);
    EXPECT_DOUBLE_EQ(m.counter_value("time.restart"), report.restart_time);
    EXPECT_DOUBLE_EQ(m.counter_value("time.flush"), report.flush_time);
    EXPECT_DOUBLE_EQ(m.counter_value("ckpt.flush.completed"),
                     report.flushes_completed);
    EXPECT_DOUBLE_EQ(m.counter_value("ckpt.flush.lost"), report.flushes_lost);
    EXPECT_DOUBLE_EQ(m.counter_value("ckpt.write_failures"),
                     static_cast<double>(report.ckpt_write_failures));
    // Per-level serve counters mirror the per-level report...
    ASSERT_EQ(report.levels.size(), 3u) << "seed " << seed;
    std::uint64_t serves = 0;
    for (std::size_t l = 0; l < report.levels.size(); ++l) {
      EXPECT_DOUBLE_EQ(
          m.counter_value("restore.level" + std::to_string(l) + ".serves"),
          static_cast<double>(report.levels[l].fetches));
      EXPECT_DOUBLE_EQ(
          m.counter_value("ckpt.level" + std::to_string(l) + ".commits"),
          static_cast<double>(report.levels[l].commits));
      serves += report.levels[l].fetches;
    }
    // ...and every failure is either served by some level or restarted
    // from scratch (no restore can outnumber the failures).
    EXPECT_LE(serves, static_cast<std::uint64_t>(report.job_failures))
        << "seed " << seed;
    cache_serves += report.levels[0].fetches + report.levels[1].fetches;
    defeats += report.levels[0].defeated + report.levels[1].defeated;
    write_failures += report.ckpt_write_failures;
    flushes_lost += report.flushes_lost;
    flushes_done += report.flushes_completed;
  }
  // The seed sweep must actually exercise the machinery, not skate past it.
  EXPECT_GT(cache_serves, 0u);
  EXPECT_GT(defeats, 0u);
  EXPECT_GT(write_failures, 0u);
  EXPECT_GT(flushes_lost, 0);
  EXPECT_GT(flushes_done, 0);
}

TEST(HierarchyStress, RerunsAreBitIdentical) {
  auto run_once = [] {
    obs::Recorder rec;
    runtime::JobConfig cfg = hierarchy_config(5);
    cfg.recorder = &rec;
    const runtime::JobReport report =
        runtime::JobExecutor(cfg, factory()).run();
    return rec.metrics().ndjson() + rec.trace().chrome_json() +
           runtime::render_trace(report.trace);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(HierarchyStress, ExportsIndependentOfWorkerCount) {
  const std::vector<int> trials{1, 2, 3, 4, 5, 6};
  auto run_all = [&](int jobs) {
    RunOptions options;
    options.jobs = jobs;
    const exp::SweepRunner runner(options);
    return runner.map(trials, [](const int trial) {
      obs::Recorder rec;
      runtime::JobConfig cfg =
          hierarchy_config(static_cast<std::uint64_t>(trial));
      cfg.recorder = &rec;
      (void)runtime::JobExecutor(cfg, factory()).run();
      return rec.metrics().ndjson() + rec.trace().chrome_json();
    });
  };
  EXPECT_EQ(run_all(1), run_all(4));
}

TEST(HierarchyStress, SinglePfsHierarchyMatchesTheFlatPipeline) {
  // One synchronous PFS level with the flat pipeline's device parameters
  // must reproduce the flat run's numbers exactly: same writes, same
  // timing, same restores (the PFS survives every dead set, like the flat
  // stable store does).
  auto flat = [](std::uint64_t seed) {
    runtime::JobConfig cfg = hierarchy_config(seed);
    cfg.hierarchy = {};
    cfg.ckpt_faults = {};
    cfg.ckpt_write_retry = {};
    cfg.storage.bandwidth = 1e10;
    cfg.storage.base_latency = 0.01;
    cfg.ckpt_retention = 2;
    return runtime::JobExecutor(cfg, factory()).run();
  };
  auto single_pfs = [](std::uint64_t seed) {
    runtime::JobConfig cfg = hierarchy_config(seed);
    cfg.hierarchy =
        ckpt::parse_hierarchy("pfs,bw=1e10,lat=0.01,ret=2");
    cfg.hierarchy.async_flush = false;
    cfg.ckpt_faults = {};
    cfg.ckpt_write_retry = {};
    return runtime::JobExecutor(cfg, factory()).run();
  };
  for (std::uint64_t seed : {2ull, 9ull}) {
    const runtime::JobReport a = flat(seed);
    const runtime::JobReport b = single_pfs(seed);
    EXPECT_TRUE(b.completed == a.completed) << "seed " << seed;
    EXPECT_DOUBLE_EQ(a.wallclock, b.wallclock) << "seed " << seed;
    EXPECT_DOUBLE_EQ(a.useful_work, b.useful_work) << "seed " << seed;
    EXPECT_DOUBLE_EQ(a.checkpoint_time, b.checkpoint_time) << "seed " << seed;
    EXPECT_DOUBLE_EQ(a.rework_time, b.rework_time) << "seed " << seed;
    EXPECT_DOUBLE_EQ(a.restart_time, b.restart_time) << "seed " << seed;
    EXPECT_EQ(a.checkpoints, b.checkpoints) << "seed " << seed;
    EXPECT_EQ(a.episodes, b.episodes) << "seed " << seed;
    EXPECT_EQ(a.job_failures, b.job_failures) << "seed " << seed;
    EXPECT_DOUBLE_EQ(b.flush_time, 0.0) << "seed " << seed;
    EXPECT_DOUBLE_EQ(b.fetch_time, 0.0) << "seed " << seed;
    // Only the configured level is reported as one; the flat store keeps
    // its level hidden (no report rows, no serving level in the trace).
    EXPECT_TRUE(a.levels.empty()) << "seed " << seed;
    EXPECT_EQ(b.levels.size(), 1u) << "seed " << seed;
    for (const auto& ep : a.trace) EXPECT_EQ(ep.restore_level, -1);
  }
}

// ---- Builder pass-through --------------------------------------------------

TEST(HierarchyBuilder, ScenarioBuilderAccumulatesHierarchyTerms) {
  const model::UnreliableCkptParams u = redcr::scenario()
                                            .storage_level(0.8, 5.0)
                                            .storage_level(0.15, 30.0, 1.5)
                                            .pfs_flush(60.0, 4.0)
                                            .async_flush(0.25)
                                            .build_unreliable();
  ASSERT_EQ(u.levels.size(), 2u);
  EXPECT_DOUBLE_EQ(u.levels[0].recovery_prob, 0.8);
  EXPECT_DOUBLE_EQ(u.levels[1].staleness_periods, 1.5);
  EXPECT_DOUBLE_EQ(u.flush_cost, 60.0);
  EXPECT_DOUBLE_EQ(u.flush_period, 4.0);
  EXPECT_TRUE(u.async_flush);
  EXPECT_DOUBLE_EQ(u.async_exposed_fraction, 0.25);
  EXPECT_THROW((void)redcr::scenario()
                   .storage_level(1.5, 0.0)  // probability out of range
                   .build_unreliable(),
               std::invalid_argument);
  EXPECT_THROW((void)redcr::scenario()
                   .pfs_flush(-1.0)
                   .build_unreliable(),
               std::invalid_argument);
}

}  // namespace
}  // namespace redcr

// Unreliable checkpoint/restart pipeline tests: fault taxonomy units,
// multi-generation store semantics, retry/backoff policy, input-validation
// rejections, and randomized fault-schedule stress across many seeds —
// asserting that the accounting invariant tiles wallclock exactly, that
// fault runs are bit-identical across reruns and worker counts, and that
// zero fault probabilities with retention 1 reproduce the reliable
// pipeline bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "ckpt/store.hpp"
#include "exp/runner.hpp"
#include "failure/faults.hpp"
#include "failure/injector.hpp"
#include "model/extensions.hpp"
#include "obs/recorder.hpp"
#include "redcr/scenario.hpp"
#include "runtime/executor.hpp"
#include "util/units.hpp"

namespace redcr {
namespace {

using util::hours;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---- RetryPolicy -----------------------------------------------------------

TEST(RetryPolicy, FirstAttemptHasNoBackoff) {
  failure::RetryPolicy p;
  p.backoff_base = 2.0;
  EXPECT_DOUBLE_EQ(p.delay_before(0), 0.0);
}

TEST(RetryPolicy, BackoffDoublesAndCaps) {
  failure::RetryPolicy p;
  p.backoff_base = 1.5;
  p.backoff_cap = 10.0;
  EXPECT_DOUBLE_EQ(p.delay_before(1), 1.5);
  EXPECT_DOUBLE_EQ(p.delay_before(2), 3.0);
  EXPECT_DOUBLE_EQ(p.delay_before(3), 6.0);
  EXPECT_DOUBLE_EQ(p.delay_before(4), 10.0);  // 12 capped
  // No overflow for absurd attempt counts: still the cap.
  EXPECT_DOUBLE_EQ(p.delay_before(500), 10.0);
}

TEST(RetryPolicy, ValidateRejectsBadFields) {
  failure::RetryPolicy p;
  p.max_attempts = 0;
  EXPECT_THROW(p.validate("p"), std::invalid_argument);
  p = {};
  p.backoff_base = -1.0;
  EXPECT_THROW(p.validate("p"), std::invalid_argument);
  p = {};
  p.backoff_base = kNaN;
  EXPECT_THROW(p.validate("p"), std::invalid_argument);
  p = {};
  p.backoff_cap = -0.5;
  EXPECT_THROW(p.validate("p"), std::invalid_argument);
  p = {};
  EXPECT_NO_THROW(p.validate("p"));
}

// ---- CkptFaultParams / FaultProcess ----------------------------------------

TEST(CkptFaultParams, ValidateRejectsOutOfRangeProbabilities) {
  failure::CkptFaultParams f;
  f.write_failure_prob = -0.1;
  EXPECT_THROW(f.validate(), std::invalid_argument);
  f = {};
  f.corruption_prob = 1.5;
  EXPECT_THROW(f.validate(), std::invalid_argument);
  f = {};
  f.restart_failure_prob = kNaN;
  EXPECT_THROW(f.validate(), std::invalid_argument);
  f = {};
  EXPECT_NO_THROW(f.validate());
  EXPECT_FALSE(f.enabled());
  f.corruption_prob = 0.01;
  EXPECT_TRUE(f.enabled());
}

TEST(FaultProcess, DrawsArePureFunctionsOfCoordinates) {
  failure::CkptFaultParams f;
  f.write_failure_prob = 0.5;
  f.corruption_prob = 0.5;
  f.restart_failure_prob = 0.5;
  f.seed = 42;
  const failure::FaultProcess a(f), b(f);
  // Same coordinates agree across instances and across query order; the
  // flat store (level id -1) and hierarchy level 0 draw distinct streams.
  int flat_vs_level0 = 0;
  for (int rank = 0; rank < 8; ++rank) {
    EXPECT_EQ(a.level_image_corrupts(-1, 0.5, 3, 2, rank),
              b.level_image_corrupts(-1, 0.5, 3, 2, rank));
    EXPECT_EQ(a.level_write_fails(-1, 0.5, 1, 0, rank, 1),
              b.level_write_fails(-1, 0.5, 1, 0, rank, 1));
    if (a.level_image_corrupts(-1, 0.5, 3, 2, rank) !=
        a.level_image_corrupts(0, 0.5, 3, 2, rank))
      ++flat_vs_level0;
  }
  EXPECT_GT(flat_vs_level0, 0);
  EXPECT_EQ(a.restart_fails(7, 2), b.restart_fails(7, 2));
  // Asking in reverse order changes nothing (oracle, not a stream).
  for (int rank = 7; rank >= 0; --rank)
    EXPECT_EQ(a.level_image_corrupts(-1, 0.5, 3, 2, rank),
              b.level_image_corrupts(-1, 0.5, 3, 2, rank));
}

TEST(FaultProcess, ZeroProbabilityNeverFires) {
  const failure::CkptFaultParams f;
  const failure::FaultProcess p{f};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(p.level_write_fails(-1, f.write_failure_prob, i, i, i, 0));
    EXPECT_FALSE(p.level_image_corrupts(-1, f.corruption_prob, i, i, i));
    EXPECT_FALSE(p.restart_fails(i, 0));
  }
}

TEST(FaultProcess, RatesRoughlyMatchProbability) {
  failure::CkptFaultParams f;
  f.corruption_prob = 0.3;
  f.seed = 9;
  const failure::FaultProcess p(f);
  int hits = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i)
    hits += p.level_image_corrupts(-1, f.corruption_prob, i, 0, 0) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

// ---- CheckpointStore -------------------------------------------------------

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

TEST(CheckpointStore, RejectsNonPositiveRetention) {
  EXPECT_THROW(ckpt::CheckpointStore(0), std::invalid_argument);
  EXPECT_THROW(ckpt::CheckpointStore(-3), std::invalid_argument);
}

TEST(CheckpointStore, EvictsBeyondRetentionDepth) {
  ckpt::CheckpointStore store(2);
  store.commit(make_gen(0, 1, 10, 100.0, {1, 1}));
  store.commit(make_gen(0, 2, 20, 200.0, {1, 1}));
  store.commit(make_gen(1, 1, 30, 300.0, {1, 1}));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.commits(), 3u);
  EXPECT_EQ(store.evictions(), 1u);
  const ckpt::RestoreResult r = store.restore();
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.generation.snapshot.iteration, 30);
  EXPECT_EQ(r.fallback_depth, 0);
}

TEST(CheckpointStore, FallsBackPastCorruptGenerations) {
  ckpt::CheckpointStore store(3);
  store.commit(make_gen(0, 1, 10, 100.0, {1, 1}));
  store.commit(make_gen(0, 2, 20, 200.0, {1, 0}));  // corrupt rank 1
  store.commit(make_gen(1, 1, 30, 300.0, {0, 1}));  // corrupt rank 0
  ckpt::RestoreResult r = store.restore();
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.fallback_depth, 2);
  EXPECT_EQ(r.generation.snapshot.iteration, 10);
  EXPECT_DOUBLE_EQ(r.generation.cumulative_useful, 100.0);
  // Corrupt generations were erased; the survivor is retained for the next
  // restore (repeated restores land on the same generation).
  EXPECT_EQ(store.size(), 1u);
  r = store.restore();
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.fallback_depth, 0);
  EXPECT_EQ(r.generation.snapshot.iteration, 10);
}

TEST(CheckpointStore, ReportsWhenNoGenerationValidates) {
  ckpt::CheckpointStore store(2);
  store.commit(make_gen(0, 1, 10, 100.0, {0}));
  store.commit(make_gen(0, 2, 20, 200.0, {0}));
  const ckpt::RestoreResult r = store.restore();
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.had_generations);
  EXPECT_EQ(r.fallback_depth, 2);
  EXPECT_TRUE(store.empty());
}

TEST(CheckpointStore, EmptyStoreIsNotAnAbort) {
  ckpt::CheckpointStore store(4);
  const ckpt::RestoreResult r = store.restore();
  EXPECT_FALSE(r.found);
  EXPECT_FALSE(r.had_generations);
}

TEST(CheckpointStore, ChecksumDependsOnEveryCoordinate) {
  const std::uint64_t base = ckpt::generation_checksum(1, 2, 3);
  EXPECT_NE(base, ckpt::generation_checksum(2, 2, 3));
  EXPECT_NE(base, ckpt::generation_checksum(1, 3, 3));
  EXPECT_NE(base, ckpt::generation_checksum(1, 2, 4));
  EXPECT_EQ(base, ckpt::generation_checksum(1, 2, 3));
}

// ---- Input-validation rejections across the stack --------------------------

TEST(Validation, FailureParamsRejectBadMtbfAndShape) {
  failure::FailureParams p;
  p.node_mtbf = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.node_mtbf = -5.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.node_mtbf = kNaN;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.node_mtbf = hours(5);
  p.weibull_shape = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.weibull_shape = 0.7;
  EXPECT_NO_THROW(p.validate());
}

TEST(Validation, StorageParamsRejectBadBandwidthAndLatency) {
  ckpt::StorageParams p;
  p.bandwidth = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.bandwidth = kNaN;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.base_latency = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  EXPECT_NO_THROW(p.validate());
}

TEST(Validation, NetworkParamsRejectBadBandwidthLatencyAndOverhead) {
  net::NetworkParams p;
  p.bandwidth = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.bandwidth = kNaN;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.latency = -1e-6;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.latency = std::numeric_limits<double>::infinity();
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.send_overhead = kNaN;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.latency = 0.0;
  p.send_overhead = 0.0;
  EXPECT_NO_THROW(p.validate());
}

TEST(Validation, ScenarioBuilderRejectsNonFiniteInputs) {
  EXPECT_THROW((void)redcr::scenario().node_mtbf(kNaN).build(),
               std::invalid_argument);
  EXPECT_THROW((void)redcr::scenario()
                   .base_time(std::numeric_limits<double>::infinity())
                   .build(),
               std::invalid_argument);
  EXPECT_THROW((void)redcr::scenario().checkpoint_cost(kNaN).build(),
               std::invalid_argument);
  EXPECT_THROW((void)redcr::scenario().restart_cost(-1.0).build(),
               std::invalid_argument);
}

TEST(Validation, UnreliableCkptParamsReject) {
  model::UnreliableCkptParams u;
  u.ckpt_validity = -0.1;
  EXPECT_THROW(u.validate(), std::invalid_argument);
  u = {};
  u.restart_success = kNaN;
  EXPECT_THROW(u.validate(), std::invalid_argument);
  u = {};
  u.retention_depth = 0;
  EXPECT_THROW(u.validate(), std::invalid_argument);
  u = {};
  u.max_restart_attempts = 0;
  EXPECT_THROW(u.validate(), std::invalid_argument);
  u = {};
  EXPECT_NO_THROW(u.validate());
}

TEST(Validation, ExecutorRejectsBadFaultConfigUpFront) {
  runtime::JobConfig cfg;
  cfg.ckpt_faults.corruption_prob = 2.0;
  auto factory = [](int, int) {
    return std::make_unique<apps::SyntheticWorkload>(apps::SyntheticSpec{});
  };
  EXPECT_THROW(runtime::JobExecutor(cfg, factory), std::invalid_argument);
  cfg = {};
  cfg.ckpt_retention = 0;
  EXPECT_THROW(runtime::JobExecutor(cfg, factory), std::invalid_argument);
  cfg = {};
  cfg.restart_retry.max_attempts = 0;
  EXPECT_THROW(runtime::JobExecutor(cfg, factory), std::invalid_argument);
}

TEST(Validation, ExecutorRejectsNegativeAndNonFiniteQuantities) {
  auto factory = [](int, int) {
    return std::make_unique<apps::SyntheticWorkload>(apps::SyntheticSpec{});
  };
  const auto rejects = [&](const runtime::JobConfig& cfg) {
    EXPECT_THROW(runtime::JobExecutor(cfg, factory), std::invalid_argument);
  };
  runtime::JobConfig cfg;
  cfg.checkpoint_interval = 60.0;
  for (const double bad :
       {-100.0, kNaN, std::numeric_limits<double>::infinity()}) {
    runtime::JobConfig c = cfg;
    c.restart_cost = bad;
    rejects(c);
    c = cfg;
    c.image_bytes = bad;
    rejects(c);
  }
  for (const double bad : {0.0, -1.0, 1.5, kNaN}) {
    runtime::JobConfig c = cfg;
    c.ckpt_incremental_fraction = bad;
    rejects(c);
  }
  runtime::JobConfig c = cfg;
  c.network.bandwidth = 0.0;
  rejects(c);
  c = cfg;
  c.network.latency = -1.0;
  rejects(c);
  // Zero stays valid: a free restart and an empty image.
  c = cfg;
  c.restart_cost = 0.0;
  c.image_bytes = 0.0;
  EXPECT_NO_THROW(runtime::JobExecutor(c, factory));
}

// ---- Fault-schedule stress -------------------------------------------------

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

runtime::JobConfig faulty_config(std::uint64_t seed) {
  runtime::JobConfig cfg;
  cfg.num_virtual = 8;
  cfg.redundancy = 1.0;
  cfg.network.bandwidth = 1e8;
  cfg.storage.bandwidth = 1e10;
  cfg.storage.base_latency = 0.01;
  cfg.image_bytes = 1e9;
  cfg.checkpoint_interval = 60.0;
  cfg.restart_cost = 30.0;
  cfg.fail.node_mtbf = hours(0.4);
  cfg.fail.seed = seed;
  cfg.ckpt_faults.write_failure_prob = 0.10;
  cfg.ckpt_faults.corruption_prob = 0.03;
  cfg.ckpt_faults.restart_failure_prob = 0.25;
  cfg.ckpt_faults.seed = seed * 7919 + 1;
  cfg.ckpt_retention = 3;
  cfg.ckpt_write_retry.max_attempts = 3;
  cfg.ckpt_write_retry.backoff_base = 0.5;
  cfg.restart_retry.max_attempts = 3;
  cfg.restart_retry.backoff_base = 1.0;
  return cfg;
}

TEST(UnreliableStress, InvariantTilesWallclockAcrossSeeds) {
  int aborts = 0, fallbacks = 0, failed_restarts = 0, write_failures = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    obs::Recorder rec;
    runtime::JobConfig cfg = faulty_config(seed);
    cfg.recorder = &rec;
    const runtime::JobReport report =
        runtime::JobExecutor(cfg, factory()).run();
    // (a) The accounting invariant tiles wallclock exactly — including
    // write-retry backoff (inside checkpoint_time), failed restart
    // attempts (inside restart_time) and abort rework.
    EXPECT_NEAR(report.wallclock,
                report.useful_work + report.checkpoint_time +
                    report.rework_time + report.restart_time,
                1e-6)
        << "seed " << seed;
    // Counters must EXACTLY mirror the report fields.
    const obs::Registry& m = rec.metrics();
    EXPECT_DOUBLE_EQ(m.counter_value("time.useful_work"), report.useful_work);
    EXPECT_DOUBLE_EQ(m.counter_value("time.checkpoint"),
                     report.checkpoint_time);
    EXPECT_DOUBLE_EQ(m.counter_value("time.rework"), report.rework_time);
    EXPECT_DOUBLE_EQ(m.counter_value("time.restart"), report.restart_time);
    EXPECT_DOUBLE_EQ(m.counter_value("restart.attempts"),
                     report.restart_attempts);
    EXPECT_DOUBLE_EQ(m.counter_value("restart.failures"),
                     report.failed_restarts);
    EXPECT_DOUBLE_EQ(m.counter_value("ckpt.write_failures"),
                     static_cast<double>(report.ckpt_write_failures));
    EXPECT_DOUBLE_EQ(m.counter_value("ckpt.failed_epochs"),
                     report.failed_checkpoints);
    EXPECT_DOUBLE_EQ(m.counter_value("time.ckpt_wasted_write"),
                     report.wasted_write_time);
    EXPECT_DOUBLE_EQ(m.counter_value("job.aborts"),
                     report.abort ? 1.0 : 0.0);
    // Restart spans still tile restart_time by name, attempt by attempt.
    EXPECT_NEAR(rec.trace().span_total("restart"), report.restart_time, 1e-6)
        << "seed " << seed;
    EXPECT_GE(report.restart_attempts, report.job_failures);
    aborts += report.abort ? 1 : 0;
    fallbacks += report.fallback_restores;
    failed_restarts += report.failed_restarts;
    write_failures += static_cast<int>(report.ckpt_write_failures);
  }
  // The seed sweep must actually exercise the machinery, not skate past it.
  EXPECT_GT(failed_restarts, 0);
  EXPECT_GT(write_failures, 0);
  EXPECT_GT(fallbacks, 0);
  EXPECT_GT(aborts, 0);
}

TEST(UnreliableStress, RerunsAreBitIdenticalWithFaults) {
  auto run_once = [] {
    obs::Recorder rec;
    runtime::JobConfig cfg = faulty_config(5);
    cfg.recorder = &rec;
    (void)runtime::JobExecutor(cfg, factory()).run();
    return rec.metrics().ndjson() + rec.trace().chrome_json();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(UnreliableStress, ExportsIndependentOfWorkerCount) {
  const std::vector<int> trials{1, 2, 3, 4, 5, 6};
  auto run_all = [&](int jobs) {
    RunOptions options;
    options.jobs = jobs;
    const exp::SweepRunner runner(options);
    return runner.map(trials, [](const int trial) {
      obs::Recorder rec;
      runtime::JobConfig cfg = faulty_config(static_cast<std::uint64_t>(trial));
      cfg.recorder = &rec;
      (void)runtime::JobExecutor(cfg, factory()).run();
      return rec.metrics().ndjson() + rec.trace().chrome_json();
    });
  };
  EXPECT_EQ(run_all(1), run_all(4));
}

TEST(UnreliableStress, ZeroFaultsRetentionOneIsBitIdenticalToBaseline) {
  // (c) All probabilities zero + retention 1 must reproduce the reliable
  // pipeline exactly: same report, byte-identical exports.
  auto run_one = [](bool wire_fault_knobs) {
    obs::Recorder rec;
    runtime::JobConfig cfg = faulty_config(3);
    cfg.ckpt_faults = {};  // all probabilities zero
    cfg.ckpt_retention = 1;
    if (wire_fault_knobs) {
      // Differently-seeded disabled fault process and exotic retry knobs
      // must not leak into the simulation.
      cfg.ckpt_faults.seed = 999;
      cfg.ckpt_write_retry.max_attempts = 7;
      cfg.restart_retry.backoff_base = 123.0;
    }
    cfg.recorder = &rec;
    const runtime::JobReport report =
        runtime::JobExecutor(cfg, factory()).run();
    return rec.metrics().ndjson() + rec.trace().chrome_json() +
           runtime::render_trace(report.trace);
  };
  EXPECT_EQ(run_one(false), run_one(true));
}

TEST(UnreliableStress, DeeperRetentionAloneDoesNotChangeTheTimeline) {
  // Retention > 1 with zero fault probabilities changes bookkeeping
  // (extra gated counters) but never the simulated timeline.
  auto run_one = [](int retention) {
    runtime::JobConfig cfg = faulty_config(4);
    cfg.ckpt_faults = {};
    cfg.ckpt_retention = retention;
    return runtime::JobExecutor(cfg, factory()).run();
  };
  const runtime::JobReport base = run_one(1);
  const runtime::JobReport deep = run_one(4);
  EXPECT_DOUBLE_EQ(base.wallclock, deep.wallclock);
  EXPECT_DOUBLE_EQ(base.useful_work, deep.useful_work);
  EXPECT_DOUBLE_EQ(base.rework_time, deep.rework_time);
  EXPECT_EQ(base.episodes, deep.episodes);
  EXPECT_EQ(base.checkpoints, deep.checkpoints);
  EXPECT_EQ(deep.fallback_restores, 0);
}

// ---- Structured aborts -----------------------------------------------------

TEST(UnreliableAbort, ExhaustedRestartRetries) {
  runtime::JobConfig cfg = faulty_config(2);
  cfg.ckpt_faults.write_failure_prob = 0.0;
  cfg.ckpt_faults.corruption_prob = 0.0;
  cfg.ckpt_faults.restart_failure_prob = 1.0;  // every attempt fails
  cfg.restart_retry.max_attempts = 2;
  const runtime::JobReport report = runtime::JobExecutor(cfg, factory()).run();
  EXPECT_FALSE(report.completed);
  ASSERT_TRUE(report.abort.has_value());
  EXPECT_EQ(report.abort->reason,
            runtime::JobAbort::Reason::kRestartRetriesExhausted);
  EXPECT_EQ(report.abort->restart_attempts, 2);
  EXPECT_FALSE(report.abort->describe().empty());
  EXPECT_NEAR(report.wallclock,
              report.useful_work + report.checkpoint_time +
                  report.rework_time + report.restart_time,
              1e-6);
  // The timeline records the abort.
  ASSERT_FALSE(report.trace.empty());
  EXPECT_EQ(report.trace.back().end, runtime::EpisodeTrace::End::kAborted);
}

TEST(UnreliableAbort, NoValidCheckpointGeneration) {
  runtime::JobConfig cfg = faulty_config(2);
  cfg.ckpt_faults.write_failure_prob = 0.0;
  cfg.ckpt_faults.corruption_prob = 1.0;  // every image corrupt
  cfg.ckpt_faults.restart_failure_prob = 0.0;
  cfg.checkpoint_interval = 30.0;  // commit a generation before the death
  const runtime::JobReport report = runtime::JobExecutor(cfg, factory()).run();
  EXPECT_FALSE(report.completed);
  ASSERT_TRUE(report.abort.has_value());
  EXPECT_EQ(report.abort->reason,
            runtime::JobAbort::Reason::kNoValidCheckpoint);
  EXPECT_NEAR(report.wallclock,
              report.useful_work + report.checkpoint_time +
                  report.rework_time + report.restart_time,
              1e-6);
}

}  // namespace
}  // namespace redcr

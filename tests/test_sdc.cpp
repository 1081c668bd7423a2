// End-to-end silent-data-corruption tests: payload strain semantics, the
// seeded SDC oracle, verified/unverified checkpoint generations, and the
// executor-level detect/correct/silent regimes — dual redundancy detects a
// divergence and rolls back to the last verified checkpoint, triple
// redundancy outvotes and corrects it, unreplicated spheres pass the
// infection silently. Stress sweeps assert the accounting invariant tiles
// wallclock exactly with SDC rollbacks in play, that SDC runs are
// bit-identical across reruns and worker counts, and that zero SDC rates
// reproduce the SDC-free pipeline bit for bit.
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
#include "failure/faults.hpp"
#include "failure/sdc.hpp"
#include "obs/analyze.hpp"
#include "obs/journal.hpp"
#include "obs/recorder.hpp"
#include "runtime/executor.hpp"
#include "simmpi/types.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace redcr {
namespace {

using util::hours;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---- Payload strain --------------------------------------------------------

TEST(PayloadStrain, CorruptionChangesHashAndEquality) {
  const simmpi::Payload clean = simmpi::Payload::sized(64);
  const simmpi::Payload bad = clean.corrupted(0xdeadbeef);
  EXPECT_FALSE(clean.tainted());
  EXPECT_TRUE(bad.tainted());
  EXPECT_NE(clean.hash(), bad.hash());
  EXPECT_NE(clean.strain(), bad.strain());
}

TEST(PayloadStrain, SameStrainStaysConsistent) {
  // Two copies tainted by the same strain must not diverge from each other:
  // a consistently-spread infection is invisible to voting.
  const simmpi::Payload a = simmpi::Payload::sized(64).corrupted(42);
  const simmpi::Payload b = simmpi::Payload::sized(64).corrupted(42);
  EXPECT_EQ(a.strain(), b.strain());
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(PayloadStrain, DifferentStrainsDiverge) {
  const simmpi::Payload a = simmpi::Payload::sized(64).corrupted(42);
  const simmpi::Payload b = simmpi::Payload::sized(64).corrupted(43);
  EXPECT_NE(a.strain(), b.strain());
  EXPECT_NE(a.hash(), b.hash());
}

TEST(PayloadStrain, DoubleCorruptionStaysObservable) {
  // XOR-folding the same strain twice would cancel to 0 (clean); the guard
  // keeps a double hit tainted.
  const simmpi::Payload twice = simmpi::Payload::sized(64).corrupted(7).corrupted(7);
  EXPECT_TRUE(twice.tainted());
}

// ---- SdcParams / FaultProcess oracle ---------------------------------------

TEST(SdcParams, ValidateRejectsBadKnobs) {
  failure::SdcParams s;
  s.inflight_prob = -0.1;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = {};
  s.inflight_prob = 1.5;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = {};
  s.atrest_rate = -1.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = {};
  s.atrest_rate = kNaN;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = {};
  EXPECT_NO_THROW(s.validate());
  EXPECT_FALSE(s.enabled());
  s.atrest_rate = 0.01;
  EXPECT_TRUE(s.enabled());
}

TEST(SdcOracle, DrawsArePureFunctionsOfCoordinates) {
  failure::SdcParams s;
  s.inflight_prob = 0.2;
  s.atrest_rate = 0.001;
  const failure::FaultProcess a(failure::CkptFaultParams{}, s);
  const failure::FaultProcess b(failure::CkptFaultParams{}, s);
  for (std::uint64_t ep = 0; ep < 3; ++ep)
    for (int rank = 0; rank < 8; ++rank) {
      EXPECT_DOUBLE_EQ(a.sdc_infection_time(ep, rank),
                       b.sdc_infection_time(ep, rank));
      for (std::uint64_t ord = 0; ord < 16; ++ord)
        for (int copy = 0; copy < 3; ++copy)
          EXPECT_EQ(a.sdc_flips_copy(ep, rank, ord, copy),
                    b.sdc_flips_copy(ep, rank, ord, copy));
    }
  // Strains identify the injection event: deterministic and never zero
  // (zero is the "clean" sentinel).
  EXPECT_EQ(a.sdc_strain(failure::FaultClass::kSdcAtRest, 1, 2, 3),
            b.sdc_strain(failure::FaultClass::kSdcAtRest, 1, 2, 3));
  EXPECT_NE(a.sdc_strain(failure::FaultClass::kSdcInFlight, 1, 2, 3), 0u);
}

TEST(SdcOracle, ZeroRateNeverInfects) {
  const failure::FaultProcess p(failure::CkptFaultParams{},
                                failure::SdcParams{});
  EXPECT_TRUE(std::isinf(p.sdc_infection_time(0, 0)));
  EXPECT_FALSE(p.sdc_flips_copy(0, 0, 0, 0));
}

/// Checks SdcMonitor::on_copies against FaultProcess::sdc_flips_copy over a
/// grid of episodes, ranks, copies and ordinals; returns the flips.
std::size_t expect_monitor_matches_oracle(const failure::FaultProcess& faults,
                                          const red::ReplicaMap& map,
                                          int copies) {
  std::size_t flips = 0;
  for (const std::uint64_t episode : {0ull, 1ull, 12345ull}) {
    failure::SdcMonitor monitor(map, faults, episode);
    std::uint64_t episode_flips = 0;
    for (int rank = 0; rank < static_cast<int>(map.num_physical()); ++rank) {
      for (std::uint64_t k = 0; k < 200; ++k) {
        const std::uint64_t ordinal = k < 190 ? k : ~std::uint64_t{0} - k;
        std::vector<std::uint64_t> strains(static_cast<std::size_t>(copies));
        monitor.on_copies(rank, ordinal, strains, 0.0);
        for (int copy = 0; copy < copies; ++copy) {
          const bool flipped = strains[static_cast<std::size_t>(copy)] != 0;
          EXPECT_EQ(flipped,
                    faults.sdc_flips_copy(episode, rank, ordinal, copy))
              << "p " << faults.sdc().inflight_prob << " episode " << episode
              << " rank " << rank << " copy " << copy << " ordinal " << ordinal;
          episode_flips += flipped ? 1 : 0;
        }
      }
    }
    EXPECT_EQ(monitor.stats().injected_inflight, episode_flips);
    flips += episode_flips;
  }
  return flips;
}

TEST(SdcOracle, MonitorFlipsExactlyTheCopiesTheOracleFlips) {
  // SdcMonitor decides each copy from per-episode stream keys and an
  // integer threshold; the oracle rebuilds the whole split chain and
  // compares a uniform. At p = 0.3 about a third of the grid flips, so a
  // decision that drifts by one draw shows; p = 0.5 and 1 are exact
  // dyadic thresholds.
  const red::ReplicaMap map(8, 2.5);  // spheres of 2 and 3: copies 0..2
  const std::size_t grid = 3 * map.num_physical() * 3 * 200;
  for (const double p : {0.3, 0.5, 1.0, 2e-4}) {
    failure::SdcParams s;
    s.inflight_prob = p;
    s.seed = 77;
    const failure::FaultProcess faults(failure::CkptFaultParams{}, s);
    const std::size_t flips = expect_monitor_matches_oracle(faults, map, 3);
    if (p == 0.3) {
      EXPECT_GT(flips, grid / 4);
      EXPECT_LT(flips, grid * 7 / 20);
    }
    if (p == 1.0) {
      EXPECT_EQ(flips, grid);
    }
  }
}

TEST(SdcOracle, MonitorThresholdIsExactAtADrawsOwnValue) {
  // At p equal to one copy's own draw u, u < p is false: that copy stays
  // clean; one ulp above, it flips.
  failure::SdcParams s;
  s.inflight_prob = 0.5;
  s.seed = 5;
  const red::ReplicaMap map(4, 2.0);
  const double u = util::Xoshiro256ss(s.seed)
                       .split(static_cast<std::uint64_t>(
                           failure::FaultClass::kSdcInFlight))
                       .split(3)
                       .split(failure::FaultProcess::sdc_copy_salt(2, 1))
                       .split(17)
                       .uniform01();
  for (const double p : {u, std::nextafter(u, 2.0)}) {
    s.inflight_prob = p;
    const failure::FaultProcess faults(failure::CkptFaultParams{}, s);
    failure::SdcMonitor monitor(map, faults, 3);
    std::uint64_t strains[2] = {};
    monitor.on_copies(2, 17, strains, 0.0);
    EXPECT_EQ(strains[1] != 0, p > u) << "p " << p;
    EXPECT_EQ(faults.sdc_flips_copy(3, 2, 17, 1), p > u) << "p " << p;
  }
}

TEST(SdcOracle, SeedChangesTheSchedule) {
  failure::SdcParams s;
  s.atrest_rate = 0.001;
  failure::SdcParams t = s;
  t.seed = s.seed + 1;
  const failure::FaultProcess a(failure::CkptFaultParams{}, s);
  const failure::FaultProcess b(failure::CkptFaultParams{}, t);
  bool differs = false;
  for (int rank = 0; rank < 16 && !differs; ++rank)
    differs = a.sdc_infection_time(0, rank) != b.sdc_infection_time(0, rank);
  EXPECT_TRUE(differs);
}

// ---- Verified/unverified generations ---------------------------------------

ckpt::Generation make_gen(int epoch, bool infected) {
  ckpt::Generation gen;
  gen.snapshot.valid = true;
  gen.snapshot.epoch = epoch;
  gen.snapshot.iteration = epoch * 10;
  if (infected)
    gen.infections.push_back(failure::InfectionRecord{0, 0x1234, 0});
  return gen;
}

TEST(CheckpointStore, InvalidateUnverifiedKeepsVerifiedGenerations) {
  ckpt::CheckpointStore store(3);
  store.commit(make_gen(0, false));
  store.commit(make_gen(1, true));
  store.commit(make_gen(2, false));
  const std::vector<ckpt::Generation> removed = store.invalidate_unverified();
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].snapshot.epoch, 1);
  EXPECT_FALSE(removed[0].verified());
  ASSERT_EQ(store.size(), 2u);
  // The newest survivor is the verified epoch-2 generation.
  const ckpt::RestoreResult restored = store.restore();
  ASSERT_TRUE(restored.found);
  EXPECT_TRUE(restored.generation.verified());
  EXPECT_EQ(restored.generation.snapshot.epoch, 2);
}

TEST(StorageHierarchy, InvalidateUnverifiedWalksEveryLevel) {
  ckpt::HierarchyParams params;
  params.levels.resize(2);
  params.levels[0].kind = ckpt::LevelKind::kLocal;
  params.levels[0].retention = 2;
  params.levels[1].kind = ckpt::LevelKind::kPfs;
  params.levels[1].retention = 2;
  ckpt::StorageHierarchy hier(params, 4);
  hier.level(0).store.commit(make_gen(0, true));
  hier.level(0).store.commit(make_gen(1, false));
  hier.level(1).store.commit(make_gen(0, true));
  const auto removed = hier.invalidate_unverified();
  ASSERT_EQ(removed.size(), 2u);
  EXPECT_EQ(removed[0].level, 0);
  EXPECT_EQ(removed[0].gen.snapshot.epoch, 0);
  EXPECT_EQ(removed[1].level, 1);
  EXPECT_EQ(hier.level(0).store.size(), 1u);
  EXPECT_EQ(hier.level(1).store.size(), 0u);
}

// ---- Executor-level regimes ------------------------------------------------

apps::SyntheticSpec small_spec() {
  apps::SyntheticSpec spec;
  spec.iterations = 40;
  spec.compute_per_iteration = 10.0;
  spec.halo_bytes = 1e6;
  spec.allreduces_per_iteration = 0;
  return spec;
}

runtime::WorkloadFactory factory() {
  return [](int, int) {
    return std::make_unique<apps::SyntheticWorkload>(small_spec());
  };
}

runtime::JobConfig sdc_config(double redundancy, std::uint64_t seed) {
  runtime::JobConfig cfg;
  cfg.num_virtual = 8;
  cfg.redundancy = redundancy;
  cfg.network.bandwidth = 1e8;
  cfg.storage.bandwidth = 1e10;
  cfg.storage.base_latency = 0.01;
  cfg.image_bytes = 1e9;
  cfg.checkpoint_interval = 60.0;
  cfg.restart_cost = 30.0;
  cfg.fail.node_mtbf = hours(1e6);  // node deaths off; SDC is the only fault
  cfg.fail.seed = seed;
  cfg.sdc.seed = seed * 31 + 7;
  return cfg;
}

void expect_invariant(const runtime::JobReport& report, std::uint64_t seed) {
  EXPECT_NEAR(report.wallclock,
              report.useful_work + report.checkpoint_time +
                  report.rework_time + report.restart_time +
                  report.flush_time,
              1e-6)
      << "seed " << seed;
}

TEST(SdcExecutor, RejectsSdcWithPullProtocol) {
  runtime::JobConfig cfg = sdc_config(2.0, 1);
  cfg.sdc.atrest_rate = 0.001;
  cfg.replication = runtime::Replication::kPull;
  EXPECT_THROW(runtime::JobExecutor(cfg, factory()), std::invalid_argument);
}

TEST(SdcExecutor, RejectsBadSdcParamsUpFront) {
  runtime::JobConfig cfg = sdc_config(2.0, 1);
  cfg.sdc.inflight_prob = 2.0;
  EXPECT_THROW(runtime::JobExecutor(cfg, factory()), std::invalid_argument);
}

TEST(SdcExecutor, DualRedundancyDetectsAndRollsBack) {
  // r=2: every sphere holds two replicas, so a flipped copy is an
  // uncorrectable 1-vs-1 divergence — the episode must end in a rollback,
  // not a silent infection, and the job must still finish.
  runtime::JobConfig cfg = sdc_config(2.0, 3);
  cfg.sdc.inflight_prob = 2e-4;
  const runtime::JobReport report = runtime::JobExecutor(cfg, factory()).run();
  EXPECT_TRUE(report.completed);
  EXPECT_GT(report.sdc_injected, 0u);
  EXPECT_GT(report.sdc_rollbacks, 0);
  EXPECT_EQ(report.sdc_corrected, 0u);
  EXPECT_EQ(report.sdc_undetected, 0u);
  EXPECT_EQ(report.sdc_infected_final, 0u);
  EXPECT_GT(report.sdc_detection_latency, 0.0);
  EXPECT_GT(report.sdc_rework, 0.0);
  EXPECT_LE(report.sdc_rework, report.rework_time + 1e-9);
  // SDC rollbacks pay restart cost but are not node failures.
  EXPECT_EQ(report.job_failures, 0);
  EXPECT_GE(report.restart_time, cfg.restart_cost * report.sdc_rollbacks);
  expect_invariant(report, 3);
  // The timeline names the outcome.
  bool saw_rollback = false;
  for (const auto& ep : report.trace)
    saw_rollback |= ep.end == runtime::EpisodeTrace::End::kSdcRollback;
  EXPECT_TRUE(saw_rollback);
}

TEST(SdcExecutor, TripleRedundancyCorrectsWithoutRollback) {
  // r=3: a single flipped copy is outvoted 2-vs-1 — corrected, no episode
  // ends, no checkpoint is invalidated, and nothing stays infected.
  runtime::JobConfig cfg = sdc_config(3.0, 3);
  cfg.sdc.inflight_prob = 2e-4;
  const runtime::JobReport report = runtime::JobExecutor(cfg, factory()).run();
  EXPECT_TRUE(report.completed);
  EXPECT_GT(report.sdc_injected, 0u);
  EXPECT_GT(report.sdc_corrected, 0u);
  EXPECT_EQ(report.sdc_rollbacks, 0);
  EXPECT_EQ(report.sdc_undetected, 0u);
  EXPECT_EQ(report.sdc_infected_final, 0u);
  EXPECT_EQ(report.sdc_invalidated_ckpts, 0);
  EXPECT_EQ(report.episodes, 1);
  expect_invariant(report, 3);
}

TEST(SdcExecutor, UnreplicatedSpheresPassInfectionSilently) {
  // r=1: a single copy per sphere gives the voter nothing to compare — the
  // flip lands, spreads, and the job finishes corrupted with zero alarms.
  runtime::JobConfig cfg = sdc_config(1.0, 3);
  cfg.sdc.inflight_prob = 1e-2;  // few sends at r=1: keep the flip likely
  const runtime::JobReport report = runtime::JobExecutor(cfg, factory()).run();
  EXPECT_TRUE(report.completed);
  EXPECT_GT(report.sdc_injected, 0u);
  EXPECT_EQ(report.sdc_rollbacks, 0);
  EXPECT_EQ(report.sdc_corrected, 0u);
  EXPECT_GT(report.sdc_undetected, 0u);
  EXPECT_GT(report.sdc_infected_final, 0u);
  EXPECT_GT(report.red_mismatches_undetected, 0u);
  EXPECT_EQ(report.episodes, 1);
  expect_invariant(report, 3);
}

TEST(SdcExecutor, AtRestInfectionInvalidatesUnverifiedCheckpoints) {
  // An at-rest infection that straddles a checkpoint publish taints that
  // generation; the detection must erase it and recovery must restore a
  // strictly older verified generation (or start over) — never resume from
  // a corrupt image as if it were clean.
  int invalidated = 0, rollbacks = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    runtime::JobConfig cfg = sdc_config(2.0, seed);
    cfg.ckpt_retention = 3;            // keep verified ancestors restorable
    cfg.storage.bandwidth = 5e7;       // long publish window: infections
    cfg.sdc.atrest_rate = 4e-4;        // routinely straddle a checkpoint
    const runtime::JobReport report =
        runtime::JobExecutor(cfg, factory()).run();
    EXPECT_TRUE(report.completed) << "seed " << seed;
    EXPECT_EQ(report.sdc_infected_final, 0u) << "seed " << seed;
    expect_invariant(report, seed);
    invalidated += report.sdc_invalidated_ckpts;
    rollbacks += report.sdc_rollbacks;
    for (const auto& ep : report.trace)
      EXPECT_GE(ep.start_iteration, 0L);
  }
  // The sweep must actually exercise both the rollback and the
  // invalidation machinery, not skate past them.
  EXPECT_GT(rollbacks, 0);
  EXPECT_GT(invalidated, 0);
}

// ---- Stress: accounting + determinism --------------------------------------

runtime::JobConfig stress_config(std::uint64_t seed) {
  // Node deaths AND both SDC classes at once: restarts from either cause
  // share the checkpoint stack and the accounting must still tile.
  runtime::JobConfig cfg = sdc_config(2.0, seed);
  cfg.fail.node_mtbf = hours(0.5);
  cfg.ckpt_retention = 2;
  cfg.sdc.inflight_prob = 1e-4;
  cfg.sdc.atrest_rate = 1e-4;
  return cfg;
}

TEST(SdcStress, InvariantTilesWallclockAcrossSeeds) {
  int rollbacks = 0, failures = 0;
  std::uint64_t injected = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    obs::Recorder rec;
    runtime::JobConfig cfg = stress_config(seed);
    cfg.recorder = &rec;
    const runtime::JobReport report =
        runtime::JobExecutor(cfg, factory()).run();
    expect_invariant(report, seed);
    EXPECT_LE(report.sdc_rework, report.rework_time + 1e-9) << "seed " << seed;
    // Counters mirror the report.
    const obs::Registry& m = rec.metrics();
    EXPECT_DOUBLE_EQ(m.counter_value("red.sdc.injected"),
                     static_cast<double>(report.sdc_injected));
    EXPECT_DOUBLE_EQ(m.counter_value("red.sdc.corrected"),
                     static_cast<double>(report.sdc_corrected));
    EXPECT_DOUBLE_EQ(m.counter_value("ckpt.invalidated"),
                     report.sdc_invalidated_ckpts);
    rollbacks += report.sdc_rollbacks;
    failures += report.job_failures;
    injected += report.sdc_injected;
  }
  EXPECT_GT(rollbacks, 0);
  EXPECT_GT(failures, 0);
  EXPECT_GT(injected, 0u);
}

TEST(SdcStress, RerunsAreBitIdentical) {
  auto run_once = [] {
    obs::Recorder rec;
    obs::Journal journal;
    runtime::JobConfig cfg = stress_config(5);
    cfg.recorder = &rec;
    cfg.journal = &journal;
    (void)runtime::JobExecutor(cfg, factory()).run();
    return rec.metrics().ndjson() + rec.trace().chrome_json() +
           journal.ndjson();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SdcStress, ExportsIndependentOfWorkerCount) {
  const std::vector<int> trials{1, 2, 3, 4, 5, 6};
  auto run_all = [&](int jobs) {
    RunOptions options;
    options.jobs = jobs;
    const exp::SweepRunner runner(options);
    return runner.map(trials, [](const int trial) {
      obs::Recorder rec;
      runtime::JobConfig cfg =
          stress_config(static_cast<std::uint64_t>(trial));
      cfg.recorder = &rec;
      (void)runtime::JobExecutor(cfg, factory()).run();
      return rec.metrics().ndjson() + rec.trace().chrome_json();
    });
  };
  EXPECT_EQ(run_all(1), run_all(4));
}

TEST(SdcStress, ZeroRatesAreBitIdenticalToSdcFreeBaseline) {
  // Wiring the SDC knobs with both rates zero — even with an exotic seed —
  // must reproduce the SDC-free pipeline byte for byte.
  auto run_one = [](bool wire_sdc_knobs) {
    obs::Recorder rec;
    runtime::JobConfig cfg = sdc_config(2.0, 3);
    cfg.fail.node_mtbf = hours(0.5);
    cfg.sdc = {};
    if (wire_sdc_knobs) cfg.sdc.seed = 999;
    cfg.recorder = &rec;
    const runtime::JobReport report =
        runtime::JobExecutor(cfg, factory()).run();
    return rec.metrics().ndjson() + rec.trace().chrome_json() +
           runtime::render_trace(report.trace);
  };
  EXPECT_EQ(run_one(false), run_one(true));
}

// ---- Satellite: message-comparison propagation ------------------------------

TEST(SdcReport, MessagesComparedReachTheJobReport) {
  // Fractional redundancy in msg-plus-hash mode: dual-sphere receivers
  // compare full payloads against sibling hashes every halo exchange, and
  // the per-episode counts must surface in the aggregated JobReport.
  runtime::JobConfig cfg = sdc_config(1.5, 2);
  cfg.red.mode = red::Mode::kMsgPlusHash;
  const runtime::JobReport report = runtime::JobExecutor(cfg, factory()).run();
  EXPECT_TRUE(report.completed);
  EXPECT_GT(report.red_messages_compared, 0u);
  EXPECT_EQ(report.red_mismatches_undetected, 0u);
}

// ---- Journal + blame -------------------------------------------------------

TEST(SdcJournal, RollbackChainsToInjectionAndBlameReconciles) {
  obs::Journal journal;
  runtime::JobConfig cfg = sdc_config(2.0, 3);
  cfg.ckpt_retention = 3;
  cfg.sdc.atrest_rate = 2e-4;
  cfg.journal = &journal;
  const runtime::JobReport report = runtime::JobExecutor(cfg, factory()).run();
  EXPECT_TRUE(report.completed);
  ASSERT_GT(report.sdc_rollbacks, 0);

  int injected = 0, detected = 0, invalidated = 0;
  std::uint64_t first_injection = 0;
  for (const obs::Journal::Event& e : journal.events()) {
    if (e.type == "sdc-injected") {
      ++injected;
      if (first_injection == 0) first_injection = e.id;
      EXPECT_GE(e.rank, 0);
      EXPECT_FALSE(e.detail.empty());
    } else if (e.type == "sdc-detected") {
      ++detected;
      EXPECT_NE(e.cause, 0u);  // chains to its injection
    } else if (e.type == "ckpt-invalidated") {
      ++invalidated;
      EXPECT_NE(e.cause, 0u);
    }
  }
  EXPECT_GT(injected, 0);
  EXPECT_GT(detected, 0);
  EXPECT_EQ(invalidated, report.sdc_invalidated_ckpts);

  // Round-trip through the parser and bill the waste: every second of
  // rework/restart must land on an [sdc] root and reconcile to ~0.
  const auto events = obs::parse_journal(journal.ndjson());
  const obs::BlameReport blame = obs::blame(events);
  EXPECT_TRUE(blame.reconciled());
  EXPECT_DOUBLE_EQ(blame.unattributed, 0.0);
  ASSERT_FALSE(blame.entries.empty());
  for (const obs::BlameEntry& entry : blame.entries) EXPECT_TRUE(entry.sdc);
  const std::string rendered =
      blame.render(obs::BlameOptions{10, -1.0, -1.0});
  EXPECT_NE(rendered.find("[sdc]"), std::string::npos);
}

}  // namespace
}  // namespace redcr

// Tests for live failure semantics (rMPI-style degradation): survivors stop
// exchanging with dead replicas, dead replicas freeze, the application
// result is unaffected as long as every sphere keeps one live replica.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/cg.hpp"
#include "apps/synthetic.hpp"
#include "net/network.hpp"
#include "red/red_comm.hpp"
#include "runtime/executor.hpp"
#include "sim/task.hpp"
#include "simmpi/world.hpp"
#include "util/units.hpp"

namespace redcr {
namespace {

using util::hours;

// --- RedComm-level degradation ---------------------------------------------------

struct FixedLiveness final : red::Liveness {
  std::vector<bool> dead;
  explicit FixedLiveness(std::size_t n) : dead(n, false) {}
  [[nodiscard]] bool is_dead(red::Rank p) const override {
    return dead[static_cast<std::size_t>(p)];
  }
};

struct LiveHarness {
  sim::Engine engine;
  red::ReplicaMap map;
  net::Network network;
  simmpi::World world;
  red::RedConfig config;
  FixedLiveness liveness;
  std::vector<std::unique_ptr<red::RedComm>> comms;

  LiveHarness(std::size_t num_virtual, double r, red::RedConfig cfg = {})
      : map(num_virtual, r),
        network(engine, map.num_physical(), {}),
        world(engine, network, static_cast<int>(map.num_physical())),
        config(cfg),
        liveness(map.num_physical()) {
    for (std::size_t p = 0; p < map.num_physical(); ++p) {
      comms.push_back(std::make_unique<red::RedComm>(
          world, map, static_cast<red::Rank>(p), config));
      comms.back()->set_liveness(&liveness);
    }
  }
};

sim::Task live_send(red::RedComm& comm, red::Rank dst, int tag, double v) {
  co_await comm.send(dst, tag, simmpi::scalar_payload(v));
}

sim::Task live_recv(red::RedComm& comm, red::Rank src, int tag,
                    std::vector<simmpi::Message>& out) {
  simmpi::Message m = co_await comm.recv(src, tag);
  out.push_back(m);
}

TEST(LiveRedComm, DeadReceiverReplicaGetsNoCopies) {
  LiveHarness h(2, 2.0);
  // Kill the shadow of sphere 1 before any traffic.
  h.liveness.dead[static_cast<std::size_t>(h.map.replicas(1)[1])] = true;
  std::vector<simmpi::Message> got;
  for (const red::Rank p : h.map.replicas(0))
    if (!h.liveness.is_dead(p))
      h.engine.spawn(live_send(*h.comms[static_cast<std::size_t>(p)], 1, 7, 5.0));
  h.engine.spawn(live_recv(*h.comms[static_cast<std::size_t>(h.map.replicas(1)[0])],
                           0, 7, got));
  h.engine.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_DOUBLE_EQ(got[0].payload.values()[0], 5.0);
  // Two live sender replicas x one live receiver replica = 2 messages,
  // instead of bookkeeping mode's 4.
  EXPECT_EQ(h.world.stats().messages_sent, 2u);
}

TEST(LiveRedComm, DeadSenderReplicaIsNotWaitedFor) {
  LiveHarness h(2, 2.0);
  h.liveness.dead[static_cast<std::size_t>(h.map.replicas(0)[1])] = true;
  std::vector<simmpi::Message> got;
  // Only the live sender replica sends; both receiver replicas still
  // deliver (they expect exactly one copy each).
  h.engine.spawn(live_send(*h.comms[0], 1, 9, 2.5));
  for (const red::Rank p : h.map.replicas(1))
    h.engine.spawn(live_recv(*h.comms[static_cast<std::size_t>(p)], 0, 9, got));
  h.engine.run();
  ASSERT_EQ(got.size(), 2u);
  for (const auto& m : got) EXPECT_DOUBLE_EQ(m.payload.values()[0], 2.5);
  EXPECT_EQ(h.world.stats().messages_sent, 2u);
}

TEST(LiveRedComm, MsgPlusHashPromotesFullCopyWhenPairedSenderDies) {
  red::RedConfig cfg;
  cfg.mode = red::Mode::kMsgPlusHash;
  LiveHarness h(2, 2.0, cfg);
  // Receiver replica 1 is normally paired with sender replica 1 for the
  // full copy; kill sender replica 1 — the survivor must send it the full
  // payload instead of just a hash.
  h.liveness.dead[static_cast<std::size_t>(h.map.replicas(0)[1])] = true;
  std::vector<simmpi::Message> got;
  h.engine.spawn(live_send(*h.comms[0], 1, 3, 6.5));
  for (const red::Rank p : h.map.replicas(1))
    h.engine.spawn(live_recv(*h.comms[static_cast<std::size_t>(p)], 0, 3, got));
  h.engine.run();
  ASSERT_EQ(got.size(), 2u);
  for (const auto& m : got) {
    ASSERT_TRUE(m.payload.has_data());
    EXPECT_DOUBLE_EQ(m.payload.values()[0], 6.5);
  }
}

TEST(LiveRedComm, AbortCompletesPendingRecvFromCorpse) {
  LiveHarness h(2, 2.0);
  // Receiver posts a copy-set while everyone is alive; then the shadow
  // sender dies before sending. Aborting its pending receive lets the
  // parent complete with the surviving copy.
  std::vector<simmpi::Message> got;
  h.engine.spawn(live_recv(*h.comms[1], 0, 4, got));
  h.engine.run();  // receive now pending on both sender replicas
  EXPECT_TRUE(got.empty());

  const red::Rank corpse = h.map.replicas(0)[1];
  h.liveness.dead[static_cast<std::size_t>(corpse)] = true;
  for (int p = 0; p < h.world.size(); ++p)
    h.world.endpoint(p).abort_posted_from(corpse);
  // The surviving primary sends its copy.
  h.engine.clear_stop();
  h.engine.spawn(live_send(*h.comms[0], 1, 4, 8.0));
  h.engine.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_DOUBLE_EQ(got[0].payload.values()[0], 8.0);
}

TEST(LiveRedComm, AbortedCopyLeavesTheSurvivorsToVote) {
  // r = 3: every receiver replica posts its copy-set, then one sender
  // replica dies and its pending copies are aborted. The two survivors'
  // copies still vote, with the virtual envelope intact.
  LiveHarness h(2, 3.0);
  std::vector<simmpi::Request> got;
  for (const red::Rank p : h.map.replicas(1))
    got.push_back(h.comms[static_cast<std::size_t>(p)]->irecv(0, 4));
  const red::Rank corpse = h.map.replicas(0)[2];
  h.liveness.dead[static_cast<std::size_t>(corpse)] = true;
  std::size_t aborted = 0;
  for (int p = 0; p < h.world.size(); ++p)
    aborted += h.world.endpoint(p).abort_posted_from(corpse);
  EXPECT_EQ(aborted, 3u);  // one sub-receive per receiver replica
  for (const red::Rank p : h.map.replicas(0)) {
    if (p == corpse) continue;
    h.engine.spawn(live_send(*h.comms[static_cast<std::size_t>(p)], 1, 4, 6.5));
  }
  h.engine.run();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const simmpi::Request& r = got[i];
    ASSERT_TRUE(r->complete);
    ASSERT_FALSE(r->aborted);
    EXPECT_EQ(r->message.envelope.source, 0);
    EXPECT_EQ(r->message.envelope.dest, 1);
    EXPECT_EQ(r->message.envelope.tag, 4);
    EXPECT_DOUBLE_EQ(r->message.payload.values()[0], 6.5);
    const red::RedStats& stats =
        h.comms[static_cast<std::size_t>(h.map.replicas(1)[i])]->stats();
    EXPECT_EQ(stats.messages_compared, 1u);
    EXPECT_EQ(stats.mismatches_detected, 0u);
  }
  EXPECT_EQ(h.world.stats().messages_sent, 6u);  // 2 live senders x 3
}

TEST(LiveRedComm, WildcardSiblingFailsOverWhenTheLeaderDiesMidInstance) {
  LiveHarness h(2, 2.0);
  // Both replicas of sphere 1 post a wildcard receive: the leader its
  // ANY_SOURCE receive, the sibling its envelope receive from the leader.
  const red::Rank leader = h.map.replicas(1)[0];
  const red::Rank sibling = h.map.replicas(1)[1];
  std::vector<simmpi::Message> got;
  for (const red::Rank p : {leader, sibling})
    h.engine.spawn(live_recv(*h.comms[static_cast<std::size_t>(p)],
                             simmpi::kAnySource, 5, got));
  h.engine.run();
  EXPECT_TRUE(got.empty());

  // The leader dies before any message arrives. The sibling's envelope
  // receive is aborted; it becomes the leader and receives on its own.
  h.liveness.dead[static_cast<std::size_t>(leader)] = true;
  for (int p = 0; p < h.world.size(); ++p)
    h.world.endpoint(p).abort_posted_from(leader);
  h.engine.clear_stop();
  for (const red::Rank p : h.map.replicas(0))
    h.engine.spawn(
        live_send(*h.comms[static_cast<std::size_t>(p)], 1, 5, 3.25));
  h.engine.run();
  ASSERT_EQ(got.size(), 1u);  // the dead leader's receive never completes
  ASSERT_TRUE(got[0].payload.has_data());
  EXPECT_DOUBLE_EQ(got[0].payload.values()[0], 3.25);
  EXPECT_EQ(got[0].envelope.source, 0);  // the virtual sender
  // Two live sender replicas x one live receiver replica, and no envelope.
  EXPECT_EQ(h.world.stats().messages_sent, 2u);
}

// --- Full-stack live mode ----------------------------------------------------------

runtime::JobConfig live_config(double r, double mtbf_hours) {
  runtime::JobConfig cfg;
  cfg.num_virtual = 6;
  cfg.redundancy = r;
  cfg.network.bandwidth = 1e9;
  cfg.checkpoint_enabled = false;
  cfg.live_failure_semantics = true;
  cfg.restart_cost = 20.0;
  cfg.fail.node_mtbf = hours(mtbf_hours);
  cfg.fail.seed = 41;
  return cfg;
}

TEST(LiveExecutor, RejectsCheckpointingCombination) {
  runtime::JobConfig cfg = live_config(2.0, 1.0);
  cfg.checkpoint_enabled = true;
  cfg.checkpoint_interval = 60.0;
  EXPECT_THROW(runtime::JobExecutor(cfg,
                                    [](int, int) {
                                      return std::make_unique<
                                          apps::SyntheticWorkload>(
                                          apps::SyntheticSpec{});
                                    }),
               std::invalid_argument);
}

TEST(LiveExecutor, SurvivesReplicaDeathsAndDegradesTraffic) {
  apps::SyntheticSpec spec;
  spec.iterations = 30;
  spec.compute_per_iteration = 8.0;
  spec.halo_bytes = 1e6;
  auto factory = [spec](int, int) {
    return std::make_unique<apps::SyntheticWorkload>(spec);
  };
  runtime::JobConfig cfg = live_config(2.0, 0.15);
  runtime::JobExecutor executor(cfg, factory);
  const runtime::JobReport report = executor.run();
  ASSERT_TRUE(report.completed);
  EXPECT_GT(report.physical_failures, 0) << "replicas must actually die";

  // Compare message volume against bookkeeping mode on the same seeds: the
  // degraded run must send strictly fewer messages once replicas die.
  runtime::JobConfig book = cfg;
  book.live_failure_semantics = false;
  runtime::JobExecutor book_executor(book, factory);
  const runtime::JobReport book_report = book_executor.run();
  ASSERT_TRUE(book_report.completed);
  if (report.episodes == book_report.episodes) {
    EXPECT_LT(report.messages, book_report.messages);
  }
}

TEST(LiveExecutor, CgSolveStaysExactWithDegradedReplicas) {
  // Real numerics: kill replicas mid-solve (live mode); as long as every
  // sphere keeps a survivor, the primary's solution must be bit-identical
  // to the failure-free run.
  apps::CgSpec spec;
  spec.rows_per_rank = 24;
  spec.max_iterations = 80;
  spec.compute_per_iteration = 4.0;
  spec.tolerance_sq = 1e-26;

  auto make_factory = [&spec](std::vector<apps::CgSolver*>* sink) {
    return [&spec, sink](int rank, int n) {
      auto solver = std::make_unique<apps::CgSolver>(spec, rank, n);
      if (sink) sink->push_back(solver.get());
      return solver;
    };
  };

  std::vector<apps::CgSolver*> clean;
  runtime::JobConfig clean_cfg = live_config(2.0, 1.0);
  clean_cfg.inject_failures = false;
  runtime::JobExecutor clean_executor(clean_cfg, make_factory(&clean));
  ASSERT_TRUE(clean_executor.run().completed);

  std::vector<apps::CgSolver*> degraded;
  runtime::JobConfig cfg = live_config(2.0, 0.2);
  runtime::JobExecutor executor(cfg, make_factory(&degraded));
  const runtime::JobReport report = executor.run();
  ASSERT_TRUE(report.completed);
  EXPECT_GT(report.physical_failures, 0);

  // Find, for every virtual rank, a replica that survived the entire run
  // and finished; in a completed run the primaries of all spheres either
  // finished or froze — compare a finished one per sphere.
  for (std::size_t v = 0; v < clean_cfg.num_virtual; ++v) {
    const auto& reference = clean[v]->solution();
    bool compared = false;
    for (const red::Rank p : executor.replica_map().replicas(static_cast<int>(v))) {
      const auto& candidate = degraded[static_cast<std::size_t>(p)]->solution();
      if (degraded[static_cast<std::size_t>(p)]->iterations_run() !=
          clean[v]->iterations_run())
        continue;  // frozen replica: incomplete state
      for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_DOUBLE_EQ(reference[i], candidate[i]) << "v=" << v;
      compared = true;
      break;
    }
    EXPECT_TRUE(compared) << "no finished replica for sphere " << v;
  }
}

}  // namespace
}  // namespace redcr

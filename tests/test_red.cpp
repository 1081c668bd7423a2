// Tests for the RedMPI-like redundancy layer: replica mapping, message
// fan-out, partial redundancy, wildcard protocol, voting, msg-plus-hash.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.hpp"
#include "red/red_comm.hpp"
#include "model/redundancy.hpp"
#include "red/replica_map.hpp"
#include "sim/task.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/world.hpp"

namespace redcr::red {
namespace {

using simmpi::kAnySource;
using simmpi::Message;
using simmpi::Payload;

// --- ReplicaMap -------------------------------------------------------------

TEST(ReplicaMap, DualRedundancyLayout) {
  const ReplicaMap map(4, 2.0);
  EXPECT_EQ(map.num_virtual(), 4u);
  EXPECT_EQ(map.num_physical(), 8u);
  for (Rank v = 0; v < 4; ++v) {
    ASSERT_EQ(map.degree(v), 2u);
    EXPECT_EQ(map.replicas(v)[0], v) << "primary is the identity rank";
    EXPECT_EQ(map.virtual_of(map.replicas(v)[1]), v);
    EXPECT_EQ(map.replica_index(map.replicas(v)[1]), 1u);
  }
}

TEST(ReplicaMap, PartialRedundancyEvenRanksFirst) {
  // Paper: "1.5x means every other process (i.e., every even process) has a
  // replica".
  const ReplicaMap map(8, 1.5);
  EXPECT_EQ(map.num_physical(), 12u);
  for (Rank v = 0; v < 8; ++v)
    EXPECT_EQ(map.degree(v), v % 2 == 0 ? 2u : 1u) << "virtual rank " << v;
}

class MapDegrees : public ::testing::TestWithParam<double> {};
INSTANTIATE_TEST_SUITE_P(Degrees, MapDegrees,
                         ::testing::Values(1.0, 1.25, 1.5, 1.75, 2.0, 2.25,
                                           2.5, 2.75, 3.0));

TEST_P(MapDegrees, RoundTripAndCountsMatchModelPartition) {
  const double r = GetParam();
  for (const std::size_t n : {1u, 5u, 16u, 128u}) {
    const ReplicaMap map(n, r);
    const model::Partition part = model::partition_processes(n, r);
    EXPECT_EQ(map.num_physical(), part.total_procs);
    std::size_t high = 0;
    for (Rank v = 0; v < static_cast<Rank>(n); ++v) {
      const auto replicas = map.replicas(v);
      for (unsigned i = 0; i < replicas.size(); ++i) {
        EXPECT_EQ(map.virtual_of(replicas[i]), v);
        EXPECT_EQ(map.replica_index(replicas[i]), i);
      }
      if (map.degree(v) == part.ceil_degree) ++high;
    }
    if (part.ceil_degree != part.floor_degree) {
      EXPECT_EQ(high, part.n_ceil_set);
    }
  }
}

TEST(ReplicaMap, RejectsBadArguments) {
  EXPECT_THROW(ReplicaMap(0, 2.0), std::invalid_argument);
  EXPECT_THROW(ReplicaMap(4, 0.5), std::invalid_argument);
  EXPECT_THROW(ReplicaMap(4, 9.0), std::invalid_argument);
  const ReplicaMap map(4, 2.0);
  EXPECT_THROW((void)map.replicas(7), std::out_of_range);
  EXPECT_THROW((void)map.virtual_of(-1), std::out_of_range);
}

// --- RedComm harness ---------------------------------------------------------

struct RedHarness {
  sim::Engine engine;
  net::Network network;
  ReplicaMap map;
  simmpi::World world;
  RedConfig config;
  std::vector<std::unique_ptr<RedComm>> comms;  // one per physical rank

  RedHarness(std::size_t num_virtual, double r, RedConfig cfg = {})
      : network(engine, ReplicaMap(num_virtual, r).num_physical(), {}),
        map(num_virtual, r),
        world(engine, network, static_cast<int>(map.num_physical())),
        config(cfg) {
    for (std::size_t p = 0; p < map.num_physical(); ++p)
      comms.push_back(std::make_unique<RedComm>(
          world, map, static_cast<Rank>(p), config));
  }

  /// All physical replicas of virtual rank v.
  std::vector<RedComm*> sphere(Rank v) {
    std::vector<RedComm*> result;
    for (const Rank p : map.replicas(v))
      result.push_back(comms[static_cast<std::size_t>(p)].get());
    return result;
  }
};

sim::Task red_send(RedComm& comm, Rank dst, int tag, double value) {
  co_await comm.send(dst, tag, simmpi::scalar_payload(value));
}

sim::Task red_recv(RedComm& comm, Rank src, int tag,
                   std::vector<Message>& out) {
  Message m = co_await comm.recv(src, tag);
  out.push_back(m);
}

TEST(RedComm, PresentsVirtualWorldToApplication) {
  RedHarness h(4, 2.0);
  EXPECT_EQ(h.comms[0]->size(), 4);
  EXPECT_EQ(h.comms[0]->rank(), 0);
  // Physical rank 4 is the shadow of virtual rank 0.
  EXPECT_EQ(h.comms[4]->rank(), 0);
  EXPECT_EQ(h.comms[4]->replica_index(), 1u);
  EXPECT_EQ(h.comms[4]->size(), 4);
}

TEST(RedComm, DualRedundancyDeliversToAllReplicas) {
  RedHarness h(2, 2.0);
  std::vector<Message> at_b0, at_b1;
  // Both replicas of sphere 1 post a receive from virtual rank 0; both
  // replicas of sphere 0 send. Every replica must deliver exactly one
  // message with the virtual envelope.
  for (RedComm* sender : h.sphere(0))
    h.engine.spawn(red_send(*sender, 1, 7, 3.25));
  auto receivers = h.sphere(1);
  h.engine.spawn(red_recv(*receivers[0], 0, 7, at_b0));
  h.engine.spawn(red_recv(*receivers[1], 0, 7, at_b1));
  h.engine.run();
  ASSERT_EQ(at_b0.size(), 1u);
  ASSERT_EQ(at_b1.size(), 1u);
  for (const auto& m : {at_b0[0], at_b1[0]}) {
    EXPECT_EQ(m.envelope.source, 0);
    EXPECT_EQ(m.envelope.dest, 1);
    EXPECT_DOUBLE_EQ(m.payload.values()[0], 3.25);
  }
}

TEST(RedComm, MessageCountScalesWithRSquared) {
  // r=2: each of 2 sender replicas sends 2 copies -> 4 physical messages
  // per virtual send ("up to four times the number of messages").
  RedHarness h(2, 2.0);
  for (RedComm* sender : h.sphere(0))
    h.engine.spawn(red_send(*sender, 1, 7, 1.0));
  std::vector<Message> got0, got1;
  auto receivers = h.sphere(1);
  h.engine.spawn(red_recv(*receivers[0], 0, 7, got0));
  h.engine.spawn(red_recv(*receivers[1], 0, 7, got1));
  h.engine.run();
  EXPECT_EQ(h.world.stats().messages_sent, 4u);
}

TEST(RedComm, PartialRedundancyAsymmetricFanout) {
  // Fig. 1(b): sphere A has 2 replicas, sphere B has 1. A's replicas send
  // one message each; B receives both.
  RedHarness h(2, 1.5);  // virtual 0 doubled, virtual 1 single
  ASSERT_EQ(h.map.degree(0), 2u);
  ASSERT_EQ(h.map.degree(1), 1u);
  std::vector<Message> at_b;
  for (RedComm* sender : h.sphere(0))
    h.engine.spawn(red_send(*sender, 1, 7, 2.5));
  h.engine.spawn(red_recv(*h.sphere(1)[0], 0, 7, at_b));
  h.engine.run();
  EXPECT_EQ(h.world.stats().messages_sent, 2u);
  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_DOUBLE_EQ(at_b[0].payload.values()[0], 2.5);
}

TEST(RedComm, SingleToReplicatedFanout) {
  // The mirror case: single sender sphere, doubled receiver sphere.
  RedHarness h(2, 1.5);
  std::vector<Message> at0, at1;
  h.engine.spawn(red_send(*h.sphere(1)[0], 0, 9, 4.0));
  auto receivers = h.sphere(0);
  h.engine.spawn(red_recv(*receivers[0], 1, 9, at0));
  h.engine.spawn(red_recv(*receivers[1], 1, 9, at1));
  h.engine.run();
  EXPECT_EQ(h.world.stats().messages_sent, 2u);
  ASSERT_EQ(at0.size(), 1u);
  ASSERT_EQ(at1.size(), 1u);
  EXPECT_DOUBLE_EQ(at0[0].payload.values()[0], 4.0);
  EXPECT_DOUBLE_EQ(at1[0].payload.values()[0], 4.0);
}

// --- Copy-sets: every physical copy completes into RedComm -------------------

/// Checks a delivered message against its virtual envelope and value.
void expect_delivered(const simmpi::Request& r, Rank src, Rank dst, int tag,
                      double value) {
  ASSERT_TRUE(r->complete);
  ASSERT_FALSE(r->aborted);
  EXPECT_EQ(r->message.envelope.source, src);
  EXPECT_EQ(r->message.envelope.dest, dst);
  EXPECT_EQ(r->message.envelope.tag, tag);
  EXPECT_DOUBLE_EQ(r->message.payload.values()[0], value);
}

class CopiesBeforeThePost : public ::testing::TestWithParam<double> {};

TEST_P(CopiesBeforeThePost, VoteLikeCopiesThatArriveAfterIt) {
  // Every copy is already in the unexpected queue when the receive posts,
  // so each sub-receive matches inside irecv and the copy-set finishes at
  // the posting guard's release.
  const double r = GetParam();
  RedHarness h(2, r);
  for (RedComm* sender : h.sphere(0))
    h.engine.spawn(red_send(*sender, 1, 6, 2.75));
  h.engine.run();
  h.engine.clear_stop();
  const auto copies = static_cast<std::uint64_t>(r * r);
  ASSERT_EQ(h.world.stats().messages_sent, copies);
  EXPECT_EQ(h.world.stats().matched_posted, 0u);
  for (RedComm* receiver : h.sphere(1)) {
    const simmpi::Request got = receiver->irecv(0, 6);
    expect_delivered(got, 0, 1, 6, 2.75);
    EXPECT_EQ(receiver->stats().messages_compared, 1u);
    EXPECT_EQ(receiver->stats().mismatches_detected, 0u);
  }
  EXPECT_EQ(h.world.stats().matched_from_unexpected, copies);
}

TEST_P(CopiesBeforeThePost, SomeBeforeAndSomeAfterStillVote) {
  // Replica 0's copies wait in the unexpected queue; the rest arrive on
  // posted sinks. The last replica is corrupt: r = 2 detects, r = 3
  // outvotes.
  const double r = GetParam();
  RedHarness h(2, r);
  const auto senders = h.sphere(0);
  senders.back()->set_corruption_hook([](Payload p) {
    return Payload::of({p.values()[0] + 100.0});
  });
  h.engine.spawn(red_send(*senders[0], 1, 6, 1.5));
  h.engine.run();
  h.engine.clear_stop();
  std::vector<simmpi::Request> got;
  for (RedComm* receiver : h.sphere(1)) got.push_back(receiver->irecv(0, 6));
  for (std::size_t i = 1; i < senders.size(); ++i)
    h.engine.spawn(red_send(*senders[i], 1, 6, 1.5));
  h.engine.run();
  const auto receivers = h.sphere(1);
  for (std::size_t i = 0; i < receivers.size(); ++i) {
    // The vote keeps the first full copy unless a majority outvotes it.
    expect_delivered(got[i], 0, 1, 6, 1.5);
    EXPECT_EQ(receivers[i]->stats().messages_compared, 1u);
    EXPECT_EQ(receivers[i]->stats().mismatches_detected, 1u);
    EXPECT_EQ(receivers[i]->stats().mismatches_corrected, r > 2.0 ? 1u : 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(DualAndTriple, CopiesBeforeThePost,
                         ::testing::Values(2.0, 3.0));

TEST(CopySets, MsgPlusHashVotesOneFullAndOneHashCopy) {
  // r = 2 msg-plus-hash: each receiver gets its paired replica's full copy
  // and the other replica's hash. Replica 1 of the sender sphere is
  // corrupt, so receiver 0 keeps the clean full copy, receiver 1 the
  // corrupt one, and both detect. Receiver 0 posts before the copies
  // arrive, receiver 1 after.
  RedConfig cfg;
  cfg.mode = Mode::kMsgPlusHash;
  RedHarness h(2, 2.0, cfg);
  const auto senders = h.sphere(0);
  senders[1]->set_corruption_hook([](Payload p) {
    return Payload::of({p.values()[0] * 2.0});
  });
  const auto receivers = h.sphere(1);
  const simmpi::Request early = receivers[0]->irecv(0, 8);
  for (RedComm* sender : senders) h.engine.spawn(red_send(*sender, 1, 8, 5.0));
  h.engine.run();
  h.engine.clear_stop();
  const simmpi::Request late = receivers[1]->irecv(0, 8);
  EXPECT_EQ(h.world.stats().messages_sent, 4u);  // 2 full + 2 hash
  expect_delivered(early, 0, 1, 8, 5.0);
  expect_delivered(late, 0, 1, 8, 10.0);
  for (RedComm* receiver : receivers) {
    EXPECT_EQ(receiver->stats().messages_compared, 1u);
    EXPECT_EQ(receiver->stats().mismatches_detected, 1u);
    EXPECT_EQ(receiver->stats().mismatches_corrected, 0u);
  }
  EXPECT_EQ(h.world.stats().matched_posted, 2u);
  EXPECT_EQ(h.world.stats().matched_from_unexpected, 2u);
}

TEST(CopySets, FanOutCompletesTheSendWithItsLastCopy) {
  // The application's send completes when the last physical copy has been
  // handed to the network, and not before.
  RedHarness h(2, 3.0);
  const simmpi::Request sent = h.sphere(0)[0]->isend(1, 4, Payload::sized(8));
  EXPECT_FALSE(sent->complete);
  h.engine.run();
  EXPECT_TRUE(sent->complete);
  EXPECT_EQ(h.world.stats().messages_sent, 3u);
}

sim::Task red_wildcard_recv(RedComm& comm, int tag, std::vector<Message>& out) {
  Message m = co_await comm.recv(kAnySource, tag);
  out.push_back(m);
}

TEST(RedComm, WildcardReceiveAgreesAcrossReplicas) {
  // Paper Section 3's three-step protocol: all replicas of the receiving
  // sphere must deliver the message from the same virtual sender.
  RedHarness h(3, 2.0);
  // Spheres 0 and 1 both send to sphere 2 with the same tag; sphere 2 posts
  // two wildcard receives.
  for (RedComm* sender : h.sphere(0)) h.engine.spawn(red_send(*sender, 2, 5, 10.0));
  for (RedComm* sender : h.sphere(1)) h.engine.spawn(red_send(*sender, 2, 5, 20.0));
  std::vector<Message> lead_got, shadow_got;
  auto receivers = h.sphere(2);
  h.engine.spawn(red_wildcard_recv(*receivers[0], 5, lead_got));
  h.engine.spawn(red_wildcard_recv(*receivers[0], 5, lead_got));
  h.engine.spawn(red_wildcard_recv(*receivers[1], 5, shadow_got));
  h.engine.spawn(red_wildcard_recv(*receivers[1], 5, shadow_got));
  h.engine.run();
  ASSERT_EQ(lead_got.size(), 2u);
  ASSERT_EQ(shadow_got.size(), 2u);
  // Each replica must have received from both virtual senders exactly once,
  // and the pairing must agree (same set of virtual sources).
  auto source_set = [](const std::vector<Message>& v) {
    std::vector<Rank> s{v[0].envelope.source, v[1].envelope.source};
    std::sort(s.begin(), s.end());
    return s;
  };
  EXPECT_EQ(source_set(lead_got), (std::vector<Rank>{0, 1}));
  EXPECT_EQ(source_set(shadow_got), (std::vector<Rank>{0, 1}));
  // Payload must match the virtual source on every replica.
  for (const auto& m : lead_got)
    EXPECT_DOUBLE_EQ(m.payload.values()[0], m.envelope.source == 0 ? 10.0 : 20.0);
  for (const auto& m : shadow_got)
    EXPECT_DOUBLE_EQ(m.payload.values()[0], m.envelope.source == 0 ? 10.0 : 20.0);
}

TEST(RedComm, TripleRedundancyVotesOutCorruptReplica) {
  RedConfig cfg;
  cfg.mode = Mode::kAllToAll;
  cfg.vote = true;
  RedHarness h(2, 3.0, cfg);
  // Corrupt the payloads sent by replica 1 of sphere 0 (SDC simulation).
  h.sphere(0)[1]->set_corruption_hook([](Payload p) {
    std::vector<double> bad(p.values().begin(), p.values().end());
    bad[0] += 666.0;
    return Payload::of(std::move(bad));
  });
  for (RedComm* sender : h.sphere(0)) h.engine.spawn(red_send(*sender, 1, 3, 7.5));
  std::vector<Message> got;
  auto receivers = h.sphere(1);
  for (RedComm* recv : receivers) h.engine.spawn(red_recv(*recv, 0, 3, got));
  h.engine.run();
  ASSERT_EQ(got.size(), 3u);
  std::uint64_t detected = 0, corrected = 0;
  for (RedComm* recv : receivers) {
    detected += recv->stats().mismatches_detected;
    corrected += recv->stats().mismatches_corrected;
  }
  EXPECT_EQ(detected, 3u) << "every receiver replica must notice the SDC";
  EXPECT_EQ(corrected, 3u) << "2-of-3 majority must outvote the corruption";
  for (const auto& m : got)
    EXPECT_DOUBLE_EQ(m.payload.values()[0], 7.5) << "application must see clean data";
}

TEST(RedComm, DualRedundancyDetectsButCannotCorrect) {
  RedConfig cfg;
  cfg.mode = Mode::kAllToAll;
  RedHarness h(2, 2.0, cfg);
  h.sphere(0)[1]->set_corruption_hook([](Payload p) {
    std::vector<double> bad(p.values().begin(), p.values().end());
    bad[0] = -1.0;
    return Payload::of(std::move(bad));
  });
  for (RedComm* sender : h.sphere(0)) h.engine.spawn(red_send(*sender, 1, 3, 7.5));
  std::vector<Message> got;
  for (RedComm* recv : h.sphere(1)) h.engine.spawn(red_recv(*recv, 0, 3, got));
  h.engine.run();
  std::uint64_t detected = 0, corrected = 0;
  for (RedComm* recv : h.sphere(1)) {
    detected += recv->stats().mismatches_detected;
    corrected += recv->stats().mismatches_corrected;
  }
  EXPECT_EQ(detected, 2u);
  EXPECT_EQ(corrected, 0u) << "1-vs-1 has no majority";
}

TEST(RedComm, VoteAtTheDegreeCeilingOutvotesOneCorruptReplica) {
  // r = 8 (ReplicaMap::kMaxDegree) fills every fixed-size voting array:
  // each receiver compares 8 copies, 7 of which agree.
  RedConfig cfg;
  cfg.mode = Mode::kAllToAll;
  RedHarness h(2, static_cast<double>(ReplicaMap::kMaxDegree), cfg);
  ASSERT_EQ(h.map.degree(0), ReplicaMap::kMaxDegree);
  h.sphere(0)[5]->set_corruption_hook([](Payload p) {
    std::vector<double> bad(p.values().begin(), p.values().end());
    bad[0] += 1.0;
    return Payload::of(std::move(bad));
  });
  for (RedComm* sender : h.sphere(0))
    h.engine.spawn(red_send(*sender, 1, 3, 4.25));
  std::vector<Message> got;
  for (RedComm* recv : h.sphere(1)) h.engine.spawn(red_recv(*recv, 0, 3, got));
  h.engine.run();
  ASSERT_EQ(got.size(), ReplicaMap::kMaxDegree);
  std::uint64_t compared = 0, detected = 0, corrected = 0;
  for (RedComm* recv : h.sphere(1)) {
    compared += recv->stats().messages_compared;
    detected += recv->stats().mismatches_detected;
    corrected += recv->stats().mismatches_corrected;
  }
  EXPECT_EQ(compared, ReplicaMap::kMaxDegree);
  EXPECT_EQ(detected, ReplicaMap::kMaxDegree);
  EXPECT_EQ(corrected, ReplicaMap::kMaxDegree) << "7 of 8 is a majority";
  for (const auto& m : got) EXPECT_DOUBLE_EQ(m.payload.values()[0], 4.25);
}

TEST(RedComm, EvenSplitIsDetectedButNotCorrected) {
  // r = 4 with two replicas corrupted identically: two distinct contents,
  // two copies each. No strict majority, so every receiver detects the
  // divergence and none corrects it.
  RedConfig cfg;
  cfg.mode = Mode::kAllToAll;
  RedHarness h(2, 4.0, cfg);
  for (const unsigned i : {2u, 3u}) {
    h.sphere(0)[i]->set_corruption_hook([](Payload p) {
      std::vector<double> bad(p.values().begin(), p.values().end());
      bad[0] = -1.0;
      return Payload::of(std::move(bad));
    });
  }
  for (RedComm* sender : h.sphere(0))
    h.engine.spawn(red_send(*sender, 1, 3, 7.5));
  std::vector<Message> got;
  for (RedComm* recv : h.sphere(1)) h.engine.spawn(red_recv(*recv, 0, 3, got));
  h.engine.run();
  ASSERT_EQ(got.size(), 4u);
  std::uint64_t detected = 0, corrected = 0;
  for (RedComm* recv : h.sphere(1)) {
    detected += recv->stats().mismatches_detected;
    corrected += recv->stats().mismatches_corrected;
  }
  EXPECT_EQ(detected, 4u);
  EXPECT_EQ(corrected, 0u) << "2-vs-2 has no strict majority";
}

TEST(RedComm, MsgPlusHashDeliversFullPayloadOnce) {
  RedConfig cfg;
  cfg.mode = Mode::kMsgPlusHash;
  RedHarness h(2, 2.0, cfg);
  for (RedComm* sender : h.sphere(0)) h.engine.spawn(red_send(*sender, 1, 3, 9.75));
  std::vector<Message> got;
  for (RedComm* recv : h.sphere(1)) h.engine.spawn(red_recv(*recv, 0, 3, got));
  h.engine.run();
  ASSERT_EQ(got.size(), 2u);
  for (const auto& m : got) EXPECT_DOUBLE_EQ(m.payload.values()[0], 9.75);
  // Bytes on the wire: 2 full copies (8 B payload each) + 2 hash copies,
  // instead of all-to-all's 4 full copies.
  EXPECT_EQ(h.world.stats().messages_sent, 4u);
}

TEST(RedComm, MsgPlusHashDetectsCorruption) {
  RedConfig cfg;
  cfg.mode = Mode::kMsgPlusHash;
  RedHarness h(2, 2.0, cfg);
  h.sphere(0)[1]->set_corruption_hook([](Payload p) {
    std::vector<double> bad(p.values().begin(), p.values().end());
    bad[0] *= 2.0;
    return Payload::of(std::move(bad));
  });
  for (RedComm* sender : h.sphere(0)) h.engine.spawn(red_send(*sender, 1, 3, 5.0));
  std::vector<Message> got;
  for (RedComm* recv : h.sphere(1)) h.engine.spawn(red_recv(*recv, 0, 3, got));
  h.engine.run();
  std::uint64_t detected = 0;
  for (RedComm* recv : h.sphere(1)) detected += recv->stats().mismatches_detected;
  EXPECT_GE(detected, 1u);
}

sim::Task red_allreduce(RedComm& comm, double value, std::vector<double>& out) {
  simmpi::Payload reduced =
      co_await simmpi::allreduce(comm, simmpi::scalar_payload(value));
  out.push_back(reduced.values()[0]);
}

TEST(RedComm, CollectivesRunUnchangedOverRedundancy) {
  // The whole point of the interposition design: collective code written
  // against Comm runs over RedComm with every p2p message replicated.
  RedHarness h(4, 2.0);
  std::vector<double> results;
  for (std::size_t p = 0; p < h.map.num_physical(); ++p) {
    const double contribution = static_cast<double>(h.comms[p]->rank() + 1);
    h.engine.spawn(red_allreduce(*h.comms[p], contribution, results));
  }
  h.engine.run();
  ASSERT_EQ(results.size(), 8u);  // every physical replica completes
  for (const double v : results) EXPECT_DOUBLE_EQ(v, 10.0);  // 1+2+3+4
}

TEST(RedComm, RejectsOutOfRangeVirtualRanks) {
  RedHarness h(2, 2.0);
  EXPECT_THROW(h.comms[0]->isend(5, 1, Payload::sized(0)), std::out_of_range);
  EXPECT_THROW(h.comms[0]->irecv(5, 1), std::out_of_range);
}

}  // namespace
}  // namespace redcr::red

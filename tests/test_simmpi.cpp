// Tests for the simulated MPI layer: point-to-point matching semantics,
// wildcard receives, ordering, and world plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "net/network.hpp"
#include "sim/task.hpp"
#include "simmpi/world.hpp"

namespace redcr::simmpi {
namespace {

struct Harness {
  sim::Engine engine;
  net::Network network;
  World world;

  explicit Harness(int size, net::NetworkParams params = {})
      : network(engine, static_cast<std::size_t>(size), params),
        world(engine, network, size) {}
};

sim::Task send_one(Harness& h, Rank from, Rank to, int tag, double value) {
  co_await h.world.endpoint(from).send(to, tag, scalar_payload(value));
}

sim::Task recv_one(Harness& h, Rank at, Rank from, int tag,
                   std::vector<Message>& out) {
  Message m = co_await h.world.endpoint(at).recv(from, tag);
  out.push_back(m);
}

TEST(SimMpi, BasicSendRecvDeliversPayload) {
  Harness h(2);
  std::vector<Message> got;
  h.engine.spawn(recv_one(h, 1, 0, 7, got));
  h.engine.spawn(send_one(h, 0, 1, 7, 42.5));
  h.engine.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].envelope.source, 0);
  EXPECT_EQ(got[0].envelope.dest, 1);
  EXPECT_EQ(got[0].envelope.tag, 7);
  EXPECT_DOUBLE_EQ(got[0].payload.values()[0], 42.5);
}

TEST(SimMpi, SendBeforeRecvGoesThroughUnexpectedQueue) {
  Harness h(2);
  std::vector<Message> got;
  h.engine.spawn(send_one(h, 0, 1, 7, 1.0));
  h.engine.run();  // deliver into the unexpected queue
  EXPECT_EQ(h.world.stats().matched_posted, 0u);
  h.engine.clear_stop();
  h.engine.spawn(recv_one(h, 1, 0, 7, got));
  h.engine.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(h.world.stats().matched_from_unexpected, 1u);
}

TEST(SimMpi, TagSelectsAmongMessages) {
  Harness h(2);
  std::vector<Message> got;
  h.engine.spawn(send_one(h, 0, 1, 1, 10.0));
  h.engine.spawn(send_one(h, 0, 1, 2, 20.0));
  h.engine.spawn(recv_one(h, 1, 0, 2, got));
  h.engine.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_DOUBLE_EQ(got[0].payload.values()[0], 20.0);
}

sim::Task ordered_sender(Harness& h, int count) {
  for (int i = 0; i < count; ++i)
    co_await h.world.endpoint(0).send(1, 5, scalar_payload(i));
}

sim::Task ordered_receiver(Harness& h, int count, std::vector<double>& seen) {
  for (int i = 0; i < count; ++i) {
    Message m = co_await h.world.endpoint(1).recv(0, 5);
    seen.push_back(m.payload.values()[0]);
  }
}

TEST(SimMpi, PerChannelFifoOrdering) {
  Harness h(2);
  std::vector<double> seen;
  h.engine.spawn(ordered_sender(h, 32));
  h.engine.spawn(ordered_receiver(h, 32, seen));
  h.engine.run();
  ASSERT_EQ(seen.size(), 32u);
  for (int i = 0; i < 32; ++i)
    EXPECT_DOUBLE_EQ(seen[static_cast<size_t>(i)], i) << "overtaking at " << i;
}

TEST(SimMpi, NonOvertakingEvenWhenSizesDiffer) {
  // A big message injected first must not be overtaken by a small one on
  // the same channel, even though the α-β model alone would deliver the
  // small one earlier.
  Harness h(2);
  auto& ep0 = h.world.endpoint(0);
  ep0.isend(1, 3, Payload::sized(100.0 * 1024 * 1024));  // ~31 ms transmission
  ep0.isend(1, 3, Payload::sized(8.0));
  std::vector<double> sizes;
  struct Recv {
    static sim::Task run(Harness& h, std::vector<double>& sizes) {
      for (int i = 0; i < 2; ++i) {
        Message m = co_await h.world.endpoint(1).recv(0, 3);
        sizes.push_back(m.payload.size_bytes());
      }
    }
  };
  h.engine.spawn(Recv::run(h, sizes));
  h.engine.run();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_GT(sizes[0], sizes[1]) << "big first-injected message must arrive first";
}

sim::Task wildcard_receiver(Harness& h, int count, std::vector<Rank>& sources) {
  for (int i = 0; i < count; ++i) {
    Message m = co_await h.world.endpoint(2).recv(kAnySource, 9);
    sources.push_back(m.envelope.source);
  }
}

TEST(SimMpi, AnySourceMatchesEitherSender) {
  Harness h(3);
  std::vector<Rank> sources;
  h.engine.spawn(send_one(h, 0, 2, 9, 1.0));
  h.engine.spawn(send_one(h, 1, 2, 9, 2.0));
  h.engine.spawn(wildcard_receiver(h, 2, sources));
  h.engine.run();
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_NE(sources[0], sources[1]);
}

TEST(SimMpi, AnyTagMatchesAnyMessage) {
  Harness h(2);
  std::vector<Message> got;
  h.engine.spawn(send_one(h, 0, 1, 77, 5.0));
  struct Recv {
    static sim::Task run(Harness& h, std::vector<Message>& got) {
      Message m = co_await h.world.endpoint(1).recv(0, kAnyTag);
      got.push_back(m);
    }
  };
  h.engine.spawn(Recv::run(h, got));
  h.engine.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].envelope.tag, 77);
}

TEST(SimMpi, SelfSendWorks) {
  Harness h(2);
  std::vector<Message> got;
  h.engine.spawn(send_one(h, 0, 0, 4, 3.0));
  h.engine.spawn(recv_one(h, 0, 0, 4, got));
  h.engine.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_DOUBLE_EQ(got[0].payload.values()[0], 3.0);
}

TEST(SimMpi, InvalidRanksThrow) {
  Harness h(2);
  EXPECT_THROW(h.world.endpoint(0).isend(5, 1, Payload::sized(0)),
               std::out_of_range);
  EXPECT_THROW(h.world.endpoint(0).irecv(5, 1), std::out_of_range);
  EXPECT_THROW((void)h.world.endpoint(-1), std::out_of_range);
  EXPECT_THROW(h.world.endpoint(0).isend(1, -3, Payload::sized(0)),
               std::invalid_argument);
}

TEST(SimMpi, BookmarkCountersTrackAppTrafficOnly) {
  Harness h(2);
  h.engine.spawn(send_one(h, 0, 1, 7, 1.0));
  sim::Task quiesce_band_send = send_one(h, 0, 1, kQuiesceTagBase + 1, 2.0);
  h.engine.spawn(std::move(quiesce_band_send));
  std::vector<Message> got;
  h.engine.spawn(recv_one(h, 1, 0, 7, got));
  h.engine.spawn(recv_one(h, 1, 0, kQuiesceTagBase + 1, got));
  h.engine.run();
  EXPECT_EQ(h.world.endpoint(0).total_sent(), 1u);
  EXPECT_EQ(h.world.endpoint(1).total_received(), 1u);
  EXPECT_EQ(got.size(), 2u);
}

TEST(SimMpi, MessageTimingFollowsAlphaBetaModel) {
  net::NetworkParams params;
  params.latency = 1e-3;
  params.bandwidth = 1e6;  // 1 MB/s
  params.send_overhead = 0.0;
  Harness h(2, params);
  std::vector<Message> got;
  h.engine.spawn(recv_one(h, 1, 0, 1, got));
  h.world.endpoint(0).isend(1, 1, Payload::sized(1e6));  // 1 s transmission
  h.engine.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NEAR(h.engine.now(), 1.0 + 1e-3, 1e-9);
}

TEST(SimMpi, NicContentionSerializesInjection) {
  net::NetworkParams params;
  params.latency = 0.0;
  params.bandwidth = 1e6;
  params.send_overhead = 0.0;
  Harness h(3, params);
  // Two 1 MB messages from rank 0: the second must wait for the first NIC
  // slot, finishing at ~2 s even though the destinations differ.
  h.world.endpoint(0).isend(1, 1, Payload::sized(1e6));
  h.world.endpoint(0).isend(2, 1, Payload::sized(1e6));
  std::vector<Message> got;
  h.engine.spawn(recv_one(h, 1, 0, 1, got));
  h.engine.spawn(recv_one(h, 2, 0, 1, got));
  h.engine.run();
  EXPECT_NEAR(h.engine.now(), 2.0, 1e-9);
  EXPECT_GT(h.network.stats().contention_wait, 0.9);
}

TEST(SimMpi, ContentionDisabledRunsInParallel) {
  net::NetworkParams params;
  params.latency = 0.0;
  params.bandwidth = 1e6;
  params.send_overhead = 0.0;
  params.model_contention = false;
  Harness h(3, params);
  h.world.endpoint(0).isend(1, 1, Payload::sized(1e6));
  h.world.endpoint(0).isend(2, 1, Payload::sized(1e6));
  std::vector<Message> got;
  h.engine.spawn(recv_one(h, 1, 0, 1, got));
  h.engine.spawn(recv_one(h, 2, 0, 1, got));
  h.engine.run();
  EXPECT_NEAR(h.engine.now(), 1.0, 1e-9);
}

// --- Mailbox order against a std::deque reference ----------------------------

/// The reference model of a mailbox queue: the earliest compatible entry
/// matches and leaves; the others keep their order.
struct Entry {
  Rank src = kAnySource;
  int tag = kAnyTag;
  double value = 0.0;
};

bool compatible(Rank want_src, int want_tag, Rank src, int tag) {
  return (want_src == kAnySource || want_src == src) &&
         (want_tag == kAnyTag || want_tag == tag);
}

/// Delivers `value` from `src` to `dst` under `tag` into the mailbox.
void deliver(Harness& h, Rank src, Rank dst, int tag, double value) {
  h.world.endpoint(src).isend(dst, tag, scalar_payload(value));
  h.engine.run();
  h.engine.clear_stop();
}

TEST(Mailbox, TagSelectiveReceiveTakesTheMiddleOfTheUnexpectedQueue) {
  Harness h(3);
  std::deque<Entry> reference;
  const Entry sent[] = {{0, 1, 10.0}, {2, 2, 20.0}, {0, 3, 30.0},
                        {2, 3, 31.0}, {0, 4, 40.0}};
  for (const Entry& e : sent) {
    deliver(h, e.src, 1, e.tag, e.value);
    reference.push_back(e);
  }
  // Tag 3 matches the third entry; then source 2 any tag matches the second;
  // then wildcards drain the rest in arrival order.
  const std::pair<Rank, int> asks[] = {{kAnySource, 3}, {2, kAnyTag},
                                       {kAnySource, kAnyTag},
                                       {kAnySource, kAnyTag},
                                       {kAnySource, kAnyTag}};
  for (const auto& [src, tag] : asks) {
    const Request r = h.world.endpoint(1).irecv(src, tag);
    ASSERT_TRUE(r->complete) << "an unexpected message matches at post";
    const auto it = std::find_if(reference.begin(), reference.end(),
                                 [&](const Entry& e) {
                                   return compatible(src, tag, e.src, e.tag);
                                 });
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(r->message.envelope.source, it->src);
    EXPECT_EQ(r->message.envelope.tag, it->tag);
    EXPECT_DOUBLE_EQ(r->message.payload.values()[0], it->value);
    reference.erase(it);
  }
  EXPECT_EQ(h.world.stats().matched_from_unexpected, 5u);
}

TEST(Mailbox, AbortRemovesMiddlePostedEntriesAndKeepsTheRestInOrder) {
  Harness h(3);
  Endpoint& inbox = h.world.endpoint(2);
  // Requests and sinks share the posted queue: sources 0 1 0 1 0, tag 5.
  struct Sunk {
    int calls = 0;
    bool aborted = false;
    double value = 0.0;
  };
  std::vector<Sunk> sunk(5);
  const auto sink_fn = [](void* context, std::uint32_t index,
                          Message* message) {
    Sunk& s = static_cast<Sunk*>(context)[index];
    ++s.calls;
    s.aborted = message == nullptr;
    if (message != nullptr) s.value = message->payload.values()[0];
  };
  const Rank sources[] = {0, 1, 0, 1, 0};
  std::vector<Request> requests(5);
  for (std::uint32_t i = 0; i < 5; ++i) {
    if (i % 2 == 0) {
      requests[i] = inbox.irecv(sources[i], 5);
    } else {
      inbox.irecv(sources[i], 5, Sink{sink_fn, sunk.data(), i});
    }
  }
  EXPECT_EQ(inbox.abort_posted_from(1), 2u);
  for (std::uint32_t i : {1u, 3u}) {
    EXPECT_EQ(sunk[i].calls, 1);
    EXPECT_TRUE(sunk[i].aborted);
  }
  // The three posts from source 0 stay, in posting order.
  for (double v : {1.0, 2.0, 3.0}) deliver(h, 0, 2, 5, v);
  for (std::uint32_t i : {0u, 2u, 4u}) {
    ASSERT_TRUE(requests[i]->complete);
    EXPECT_FALSE(requests[i]->aborted);
    EXPECT_DOUBLE_EQ(requests[i]->message.payload.values()[0], 1.0 + i / 2);
  }
  EXPECT_EQ(h.world.stats().matched_posted, 3u);
}

TEST(Mailbox, LongBacklogsDrainInMixedOrderLikeADeque) {
  // 100 unexpected messages under 5 tags, drained by a seeded mix of tag
  // and wildcard receives; then 100 posted receives matched by arrivals.
  Harness h(2);
  Endpoint& inbox = h.world.endpoint(1);
  std::deque<Entry> reference;
  for (int i = 0; i < 100; ++i) {
    const Entry e{0, i % 5, static_cast<double>(i)};
    deliver(h, 0, 1, e.tag, e.value);
    reference.push_back(e);
  }
  std::uint64_t state = 7;
  const auto pick = [&state](int n) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<int>((state >> 33) % static_cast<std::uint64_t>(n));
  };
  while (!reference.empty()) {
    int tag = pick(6) - 1;  // -1 = kAnyTag
    if (tag != kAnyTag &&
        std::none_of(reference.begin(), reference.end(),
                     [&](const Entry& e) { return e.tag == tag; }))
      tag = kAnyTag;
    const Request r = inbox.irecv(0, tag);
    ASSERT_TRUE(r->complete);
    const auto it = std::find_if(reference.begin(), reference.end(),
                                 [&](const Entry& e) {
                                   return compatible(0, tag, 0, e.tag);
                                 });
    EXPECT_DOUBLE_EQ(r->message.payload.values()[0], it->value);
    reference.erase(it);
  }

  std::deque<std::pair<int, Request>> posted;  // (tag, request)
  for (int i = 0; i < 100; ++i) {
    const int tag = pick(5);
    posted.emplace_back(tag, inbox.irecv(0, tag));
  }
  std::vector<std::pair<Request, double>> expected;
  for (int i = 0; !posted.empty(); ++i) {
    const int tag = posted[static_cast<std::size_t>(pick(
                               static_cast<int>(posted.size())))].first;
    const auto it = std::find_if(posted.begin(), posted.end(),
                                 [&](const auto& p) { return p.first == tag; });
    expected.emplace_back(it->second, 1000.0 + i);
    posted.erase(it);
    deliver(h, 0, 1, tag, 1000.0 + i);
  }
  for (const auto& [request, value] : expected) {
    ASSERT_TRUE(request->complete);
    EXPECT_DOUBLE_EQ(request->message.payload.values()[0], value);
  }
}

TEST(Payload, HashDiscriminatesContent) {
  const Payload a = Payload::of({1.0, 2.0, 3.0});
  const Payload b = Payload::of({1.0, 2.0, 3.0});
  const Payload c = Payload::of({1.0, 2.0, 4.0});
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
}

TEST(Payload, CopiesShareOneBlock) {
  const Payload a = Payload::of({1.0, 2.0});
  const Payload b = a;
  EXPECT_EQ(b.values().data(), a.values().data());
  // A corrupted copy keeps the values (and the block); only the strain and
  // so the hash change.
  const Payload c = a.corrupted(7);
  EXPECT_EQ(c.values().data(), a.values().data());
  EXPECT_EQ(c.strain(), 7u);
  EXPECT_FALSE(a.tainted());
  EXPECT_NE(c.hash(), a.hash());
  // Moving hands the block over without a new share.
  Payload d = b;
  const Payload e = std::move(d);
  EXPECT_EQ(e.values().data(), a.values().data());
  ASSERT_EQ(e.values().size(), 2u);
  EXPECT_EQ(e.values()[1], 2.0);
}

TEST(Payload, HashesArePinned) {
  // Msg-plus-hash mode and SDC voting compare these hashes, so the bytes
  // they cover must not drift: FNV-1a over the doubles' raw bytes (the
  // size's bytes for a timing-only payload), then the strain's mix.
  EXPECT_EQ(Payload::of({1, 2}).hash(), 0x2f121cea1c5c97f8u);
  EXPECT_EQ(Payload::of({-0.0}).hash(), 0xa8c7783228196045u);
  EXPECT_EQ(Payload::of({}).hash(), 0xcbf29ce484222325u);  // the FNV basis
  EXPECT_TRUE(Payload::of({}).has_data());
  EXPECT_EQ(Payload::of({}).size_bytes(), 0.0);
  EXPECT_EQ(Payload::sized(1024).hash(), 0xaa445832295d2ef5u);
  EXPECT_EQ(Payload::of({1, 2}).corrupted(7).hash(), 0x4cd9fd0e456e9a2fu);
  // 0.0 and -0.0 differ in their bytes, so they hash apart.
  EXPECT_NE(Payload::of({0.0}).hash(), Payload::of({-0.0}).hash());
  EXPECT_EQ(scalar_payload(-0.0).hash(), Payload::of({-0.0}).hash());
}

sim::Task send_payload(Harness& h, Rank from, Rank to, int tag,
                       Payload payload) {
  co_await h.world.endpoint(from).send(to, tag, std::move(payload));
}

TEST(Payload, LargePayloadRoundTrips) {
  // 200 values make a block over BlockPool's 1 KiB ceiling, so it comes
  // from operator new and goes back to operator delete.
  std::vector<double> sent(200);
  for (std::size_t i = 0; i < sent.size(); ++i)
    sent[i] = static_cast<double>(i) * 0.5 - 17.0;
  const Payload payload = Payload::of(sent);
  EXPECT_EQ(payload.size_bytes(), 1600.0);
  const std::uint64_t hash = payload.hash();

  Harness h(2);
  std::vector<Message> got;
  h.engine.spawn(recv_one(h, 1, 0, 3, got));
  h.engine.spawn(send_payload(h, 0, 1, 3, payload));
  h.engine.run();
  ASSERT_EQ(got.size(), 1u);
  const std::span<const double> values = got[0].payload.values();
  EXPECT_EQ(std::vector<double>(values.begin(), values.end()), sent);
  EXPECT_EQ(got[0].payload.hash(), hash);
  EXPECT_EQ(values.data(), payload.values().data());
}

TEST(Payload, SizedPayloadHasNoData) {
  const Payload p = Payload::sized(1024.0);
  EXPECT_FALSE(p.has_data());
  EXPECT_DOUBLE_EQ(p.size_bytes(), 1024.0);
  EXPECT_EQ(p.hash(), Payload::sized(1024.0).hash());
  EXPECT_NE(p.hash(), Payload::sized(2048.0).hash());
}

}  // namespace
}  // namespace redcr::simmpi

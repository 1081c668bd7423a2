#include "simmpi/collectives.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace redcr::simmpi {

namespace {

enum Algo : int {
  kBarrier = 0,
  kBroadcast = 1,
  kAllreduce = 2,
  kAllgather = 3,
  kReduce = 4,
  kGather = 5,
  kScatter = 6,
  kAlltoall = 7,
};

/// Tag layout: | call_id (8 bits) | algo (4 bits) | round (8 bits) |
int make_tag(int call_id, Algo algo, int round) {
  assert(round >= 0 && round < 256);
  assert(call_id >= 0 && call_id < 256);
  return kCollectiveTagBase + (call_id << 12) + (static_cast<int>(algo) << 8) +
         round;
}

int log2_ceil(int n) {
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  return bits;
}

int pow2_floor(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

}  // namespace

Payload payload_sum(const Payload& a, const Payload& b) {
  if (a.has_data() && b.has_data()) {
    const auto av = a.values();
    const auto bv = b.values();
    if (av.size() != bv.size())
      throw std::invalid_argument("payload_sum: length mismatch");
    std::vector<double> sum(av.size());
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] = av[i] + bv[i];
    return Payload::of(sum);
  }
  return Payload::sized(std::max(a.size_bytes(), b.size_bytes()));
}

sim::CoTask<void> barrier(Comm& comm, int call_id) {
  const int n = comm.size();
  const Rank me = comm.rank();
  const int rounds = log2_ceil(n);
  for (int k = 0; k < rounds; ++k) {
    const int dist = 1 << k;
    const Rank to = (me + dist) % n;
    const Rank from = (me - dist % n + n) % n;
    const int tag = make_tag(call_id, kBarrier, k);
    Request recv_req = comm.irecv(from, tag);
    co_await comm.send(to, tag, Payload::sized(0.0));
    co_await wait(std::move(recv_req));
  }
}

sim::CoTask<Payload> broadcast(Comm& comm, Rank root, Payload payload,
                               int call_id) {
  const int n = comm.size();
  if (root < 0 || root >= n)
    throw std::out_of_range("broadcast: root out of range");
  // Rotate so the root is virtual rank 0 in the binomial tree. Canonical
  // binomial broadcast: a node's parent clears its lowest set bit; its
  // children are me + 2^k for every 2^k below that bit (descending order).
  const int me = (comm.rank() - root + n) % n;

  int mask = 1;
  while (mask < n) {
    if ((me & mask) != 0) {
      const int parent = me - mask;
      int round = 0;
      while ((1 << round) != mask) ++round;
      const Rank parent_rank = (parent + root) % n;
      Message msg = co_await comm.recv(parent_rank,
                                       make_tag(call_id, kBroadcast, round));
      payload = std::move(msg.payload);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (me + mask < n) {
      int round = 0;
      while ((1 << round) != mask) ++round;
      const Rank child_rank = (me + mask + root) % n;
      co_await comm.send(child_rank, make_tag(call_id, kBroadcast, round),
                         payload);
    }
    mask >>= 1;
  }
  co_return payload;
}

sim::CoTask<Payload> allreduce(Comm& comm, Payload contribution, int call_id) {
  const int n = comm.size();
  const Rank me = comm.rank();
  const int pof2 = pow2_floor(n);
  const int rem = n - pof2;
  Payload value = std::move(contribution);

  // Pre-fold: the first 2*rem ranks pair up so pof2 ranks remain.
  int newrank;
  if (me < 2 * rem) {
    if (me % 2 == 0) {
      co_await comm.send(me + 1, make_tag(call_id, kAllreduce, 0), value);
      newrank = -1;  // folded out of the core exchange
    } else {
      Message msg = co_await comm.recv(me - 1, make_tag(call_id, kAllreduce, 0));
      value = payload_sum(value, msg.payload);
      newrank = me / 2;
    }
  } else {
    newrank = me - rem;
  }

  if (newrank != -1) {
    auto old_rank = [&](int nr) { return nr < rem ? nr * 2 + 1 : nr + rem; };
    for (int k = 0; (1 << k) < pof2; ++k) {
      const int partner_new = newrank ^ (1 << k);
      const Rank partner = old_rank(partner_new);
      const int tag = make_tag(call_id, kAllreduce, k + 1);
      Request recv_req = comm.irecv(partner, tag);
      co_await comm.send(partner, tag, value);
      Message msg = co_await wait(std::move(recv_req));
      value = payload_sum(value, msg.payload);
    }
  }

  // Post-fold: deliver the result back to the folded-out even ranks.
  constexpr int kFinalRound = 63;
  if (me < 2 * rem) {
    if (me % 2 == 0) {
      Message msg =
          co_await comm.recv(me + 1, make_tag(call_id, kAllreduce, kFinalRound));
      value = std::move(msg.payload);
    } else {
      co_await comm.send(me - 1, make_tag(call_id, kAllreduce, kFinalRound),
                         value);
    }
  }
  co_return value;
}

sim::CoTask<Payload> reduce(Comm& comm, Rank root, Payload contribution,
                            int call_id) {
  const int n = comm.size();
  if (root < 0 || root >= n)
    throw std::out_of_range("reduce: root out of range");
  // Reverse binomial tree: leaves push partial sums toward the root.
  const int me = (comm.rank() - root + n) % n;
  Payload value = std::move(contribution);
  int mask = 1;
  int round = 0;
  while (mask < n) {
    if ((me & mask) != 0) {
      const Rank parent = (me - mask + root) % n;
      co_await comm.send(parent, make_tag(call_id, kReduce, round), value);
      break;
    }
    if (me + mask < n) {
      const Rank child = (me + mask + root) % n;
      Message msg = co_await comm.recv(child, make_tag(call_id, kReduce, round));
      value = payload_sum(value, msg.payload);
    }
    mask <<= 1;
    ++round;
  }
  co_return value;
}

sim::CoTask<std::vector<Payload>> gather(Comm& comm, Rank root, Payload mine,
                                         int call_id) {
  const int n = comm.size();
  if (root < 0 || root >= n)
    throw std::out_of_range("gather: root out of range");
  // Linear gather: every rank sends straight to the root, which posts one
  // specific receive per peer (wildcard-free, so the pull-mode replication
  // layer can run it too). Message count matches a tree's (n-1); only the
  // root's latency differs, which no bundled workload is sensitive to.
  std::vector<Payload> gathered;
  const int tag = make_tag(call_id, kGather, 0);
  if (comm.rank() == root) {
    gathered.resize(static_cast<std::size_t>(n));
    gathered[static_cast<std::size_t>(root)] = std::move(mine);
    std::vector<Request> pending;
    pending.reserve(static_cast<std::size_t>(n) - 1);
    for (Rank peer = 0; peer < n; ++peer)
      if (peer != root) pending.push_back(comm.irecv(peer, tag));
    for (auto& rx : pending) {
      Message msg = co_await wait(std::move(rx));
      gathered[static_cast<std::size_t>(msg.envelope.source)] =
          std::move(msg.payload);
    }
  } else {
    co_await comm.send(root, tag, std::move(mine));
  }
  co_return gathered;
}

sim::CoTask<Payload> scatter(Comm& comm, Rank root,
                             std::vector<Payload> payloads, int call_id) {
  const int n = comm.size();
  if (root < 0 || root >= n)
    throw std::out_of_range("scatter: root out of range");
  const int tag = make_tag(call_id, kScatter, 0);
  if (comm.rank() == root) {
    if (payloads.size() != static_cast<std::size_t>(n))
      throw std::invalid_argument("scatter: need one payload per rank");
    for (Rank peer = 0; peer < n; ++peer) {
      if (peer == root) continue;
      co_await comm.send(peer, tag,
                         std::move(payloads[static_cast<std::size_t>(peer)]));
    }
    co_return std::move(payloads[static_cast<std::size_t>(root)]);
  }
  Message msg = co_await comm.recv(root, tag);
  co_return std::move(msg.payload);
}

sim::CoTask<std::vector<Payload>> alltoall(Comm& comm,
                                           std::vector<Payload> sends,
                                           int call_id) {
  const int n = comm.size();
  const Rank me = comm.rank();
  if (sends.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("alltoall: need one payload per rank");
  std::vector<Payload> received(static_cast<std::size_t>(n));
  received[static_cast<std::size_t>(me)] =
      std::move(sends[static_cast<std::size_t>(me)]);
  for (int k = 1; k < n; ++k) {
    const Rank to = (me + k) % n;
    const Rank from = (me - k + n) % n;
    const int tag = make_tag(call_id, kAlltoall, k % 250);
    Request rx = comm.irecv(from, tag);
    co_await comm.send(to, tag, std::move(sends[static_cast<std::size_t>(to)]));
    Message msg = co_await wait(std::move(rx));
    received[static_cast<std::size_t>(from)] = std::move(msg.payload);
  }
  co_return received;
}

sim::CoTask<std::vector<Payload>> allgather(Comm& comm, Payload mine,
                                            int call_id) {
  const int n = comm.size();
  const Rank me = comm.rank();
  std::vector<Payload> gathered(static_cast<std::size_t>(n));
  gathered[static_cast<std::size_t>(me)] = mine;

  const Rank right = (me + 1) % n;
  const Rank left = (me - 1 + n) % n;
  // Ring: in round k we forward the piece originally owned by (me - k).
  Payload in_flight = std::move(mine);
  for (int k = 0; k < n - 1; ++k) {
    const int tag = make_tag(call_id, kAllgather, k % 250);
    Request recv_req = comm.irecv(left, tag);
    co_await comm.send(right, tag, std::move(in_flight));
    Message msg = co_await wait(std::move(recv_req));
    const int origin = (me - k - 1 + 2 * n) % n;
    gathered[static_cast<std::size_t>(origin)] = msg.payload;
    in_flight = std::move(msg.payload);
  }
  co_return gathered;
}

}  // namespace redcr::simmpi

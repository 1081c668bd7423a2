#include "simmpi/world.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace redcr::simmpi {

std::uint64_t Payload::hash() const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  auto mix = [&h](const unsigned char* bytes, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  };
  if (has_data()) {
    const std::span<const double> data = values();
    mix(reinterpret_cast<const unsigned char*>(data.data()), data.size_bytes());
  } else {
    mix(reinterpret_cast<const unsigned char*>(&bytes_), sizeof(bytes_));
  }
  if (strain_ != 0) {
    // A silent corruption perturbs the content hash deterministically per
    // strain: same-strain copies still agree, clean vs. tainted diverge.
    // splitmix64 finalizer over the strain keeps the perturbation well mixed.
    std::uint64_t z = strain_ + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h ^= z ^ (z >> 31);
  }
  return h;
}

int Endpoint::size() const noexcept { return world_->size(); }

sim::Engine& Endpoint::engine() const noexcept { return world_->engine(); }

Request Endpoint::isend(Rank dst, int tag, Payload payload) {
  Request request = make_request();
  isend(dst, tag, std::move(payload), request);
  return request;
}

void Endpoint::isend(Rank dst, int tag, Payload payload, Request on_sent) {
  if (dst < 0 || dst >= world_->size())
    throw std::out_of_range("isend: destination rank out of range");
  if (tag < 0) throw std::invalid_argument("isend: tag must be non-negative");
  if (tag < kQuiesceTagBase) {
    ++sent_counts_[static_cast<std::size_t>(dst)];
    ++total_sent_;
  }
  world_->inject(rank_, dst, tag, std::move(payload), std::move(on_sent));
}

Request Endpoint::irecv(Rank src, int tag) {
  Request request = make_request();
  post(PostedRecv{src, tag, request, {}});
  return request;
}

void Endpoint::irecv(Rank src, int tag, Sink sink) {
  assert(sink.fn != nullptr);
  post(PostedRecv{src, tag, {}, sink});
}

void Endpoint::post(PostedRecv posted) {
  if (posted.src != kAnySource &&
      (posted.src < 0 || posted.src >= world_->size()))
    throw std::out_of_range("irecv: source rank out of range");
  // MPI semantics: first try the unexpected queue in arrival order.
  const auto it = std::find_if(
      unexpected_.begin(), unexpected_.end(),
      [&](const Message& m) { return matches(posted, m); });
  if (it != unexpected_.end()) {
    Message message =
        unexpected_.take(static_cast<std::size_t>(it - unexpected_.begin()));
    complete(posted, &message);
    ++world_->stats_.matched_from_unexpected;
    return;
  }
  posted_.push_back(std::move(posted));
}

void Endpoint::complete(PostedRecv& posted, Message* message) {
  if (!posted.request) {
    posted.sink(message);
    return;
  }
  if (message != nullptr) {
    posted.request->message = std::move(*message);
  } else {
    posted.request->aborted = true;
  }
  complete_request(*posted.request, world_->engine());
}

std::size_t Endpoint::abort_posted_from(Rank source) {
  std::size_t aborted = 0;
  for (std::size_t i = 0; i < posted_.size();) {
    if (posted_[i].src != source) {
      ++i;
      continue;
    }
    PostedRecv posted = posted_.take(i);
    complete(posted, nullptr);
    ++aborted;
  }
  return aborted;
}

void Endpoint::deliver(Message message) {
  assert(message.envelope.source >= 0 &&
         message.envelope.source < world_->size());
  if (message.envelope.tag < kQuiesceTagBase) {
    ++received_counts_[static_cast<std::size_t>(message.envelope.source)];
    ++total_received_;
  }
  const auto it = std::find_if(
      posted_.begin(), posted_.end(),
      [&](const PostedRecv& p) { return matches(p, message); });
  if (it != posted_.end()) {
    PostedRecv posted =
        posted_.take(static_cast<std::size_t>(it - posted_.begin()));
    complete(posted, &message);
    ++world_->stats_.matched_posted;
    return;
  }
  unexpected_.push_back(std::move(message));
}

World::World(sim::Engine& engine, net::Network& network, int size,
             std::vector<net::NodeId> rank_to_node)
    : engine_(&engine),
      network_(&network),
      rank_to_node_(std::move(rank_to_node)) {
  if (size <= 0) throw std::invalid_argument("World: size must be positive");
  if (rank_to_node_.empty()) {
    rank_to_node_.resize(static_cast<std::size_t>(size));
    for (std::size_t i = 0; i < rank_to_node_.size(); ++i)
      rank_to_node_[i] = i;
  }
  if (rank_to_node_.size() != static_cast<std::size_t>(size))
    throw std::invalid_argument("World: rank_to_node size mismatch");
  for (const net::NodeId node : rank_to_node_) {
    if (node >= network.num_nodes())
      throw std::out_of_range("World: node id exceeds network size");
  }
  endpoints_.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r)
    endpoints_.push_back(
        std::unique_ptr<Endpoint>(new Endpoint(*this, r, size)));
}

Endpoint& World::endpoint(Rank rank) {
  if (rank < 0 || rank >= size())
    throw std::out_of_range("World::endpoint: rank out of range");
  return *endpoints_[static_cast<std::size_t>(rank)];
}

void World::inject(Rank src, Rank dst, int tag, Payload payload,
                   Request on_sent) {
  ++stats_.messages_sent;
  if (messages_log_ != nullptr) messages_log_->push_back(engine_->now());

  // Park the message in the arena so the delivery closure below captures a
  // 32-bit slot instead of the Message (stays in std::function's inline
  // buffer — no heap allocation per message).
  const std::uint32_t slot = message_arena_.acquire();
  Message& message = message_arena_.at(slot);
  message.envelope = Envelope{src, dst, tag};
  message.payload = std::move(payload);
  message.seq = next_seq_++;

  const net::NodeId src_node = rank_to_node_[static_cast<std::size_t>(src)];
  const net::NodeId dst_node = rank_to_node_[static_cast<std::size_t>(dst)];
  sim::Time arrival =
      network_->delivery_time(src_node, dst_node, message.payload.size_bytes());

  // Enforce per-channel non-overtaking: a later message on (src,dst) never
  // arrives before an earlier one, even if the cost model says otherwise.
  const std::uint64_t channel =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
      static_cast<std::uint32_t>(dst);
  sim::Time& last_arrival = channel_last_arrival_[channel];
  arrival = std::max(arrival, last_arrival);
  last_arrival = arrival;

  // Send completion: the buffer is considered handed off after the
  // sender-side busy time (eager protocol). The busy time is one
  // network-wide constant, so completions fire in issue order and the FIFO
  // supplies the request — the closure needs no captured state beyond
  // `this`. Every send schedules its completion event, whether or not a
  // request waits on it.
  pending_sends_.push_back(std::move(on_sent));
  engine_->schedule_after(network_->send_busy_time(),
                          [this] { complete_next_send(); });

  engine_->schedule_at(
      arrival, [this, dst32 = static_cast<std::uint32_t>(dst), slot] {
        deliver_from_arena(dst32, slot);
      });
}

void World::complete_next_send() {
  assert(!pending_sends_.empty());
  const Request request = pending_sends_.pop_front();
  if (request) complete_request(*request, *engine_);
}

void World::deliver_from_arena(std::uint32_t dst, std::uint32_t slot) {
  Message message = std::move(message_arena_.at(slot));
  message_arena_.release(slot);  // before deliver(): it may send recursively
  endpoints_[dst]->deliver(std::move(message));
}

}  // namespace redcr::simmpi

#include "red/pull_comm.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace redcr::red {

using simmpi::Message;
using simmpi::Payload;
using simmpi::Request;

PullComm::PullComm(simmpi::World& world, const ReplicaMap& map,
                   Rank physical_rank)
    : world_(&world),
      map_(&map),
      endpoint_(&world.endpoint(physical_rank)),
      virtual_rank_(map.virtual_of(physical_rank)),
      replica_index_(map.replica_index(physical_rank)) {
  if (world.size() != static_cast<int>(map.num_physical()))
    throw std::invalid_argument(
        "PullComm: physical world size must match the replica map");
  engine().spawn(responder_loop());
}

Request PullComm::isend(Rank dst, int tag, Payload payload) {
  if (dst < 0 || dst >= size())
    throw std::out_of_range("PullComm::isend: virtual rank out of range");
  auto parent = simmpi::make_request();
  if (dead(endpoint_->rank())) {
    parent->aborted = true;
    complete_request(*parent, engine());
    return parent;
  }
  // Pull model: the send is a local buffer append — it completes now.
  ++stats_.sends_buffered;
  auto& buffer = out_buffers_[stream_key(dst, tag)];
  buffer.push_back(std::move(payload));

  // Serve any queued requests that just became satisfiable. Productions are
  // prefix-complete, so draining the queue head-first preserves per-
  // requester seq order.
  auto* waiting = waiting_requests_.find(stream_key(dst, tag));
  if (waiting != nullptr) {
    auto& queue = *waiting;
    while (!queue.empty() && queue.front().seq < buffer.size()) {
      const PendingRequest request = queue.front();
      queue.pop_front();
      if (!dead(endpoint_->rank())) {
        ++stats_.responses_served;
        endpoint_->isend(request.requester_physical, kDataTagOffset + tag,
                         buffer[request.seq]);
      }
    }
  }
  complete_request(*parent, engine());
  return parent;
}

Request PullComm::irecv(Rank src, int tag) {
  if (src == simmpi::kAnySource)
    throw std::logic_error(
        "PullComm: MPI_ANY_SOURCE is not supported by the pull model "
        "(a puller must know which sphere to ask)");
  if (src < 0 || src >= size())
    throw std::out_of_range("PullComm::irecv: virtual rank out of range");
  auto parent = simmpi::make_request();
  const std::uint64_t seq = recv_cursor_[stream_key(src, tag)]++;
  engine().spawn(drive_pull(src, tag, seq, parent));
  return parent;
}

void PullComm::set_recorder(obs::Recorder* recorder) {
  if (recorder == nullptr) {
    requests_counter_ = nullptr;
    failovers_counter_ = nullptr;
    return;
  }
  requests_counter_ = &recorder->metrics().counter("pull.requests");
  failovers_counter_ = &recorder->metrics().counter("pull.failovers");
}

sim::Task PullComm::drive_pull(Rank src_virtual, int tag, std::uint64_t seq,
                               Request parent) {
  if (dead(endpoint_->rank())) {
    parent->aborted = true;
    complete_request(*parent, engine());
    co_return;
  }
  const auto replicas = map_->replicas(src_virtual);
  const auto degree = static_cast<unsigned>(replicas.size());
  // Preferred target: spread receiver replicas across sender replicas.
  const unsigned preferred = replica_index_ % degree;
  bool first_attempt = true;
  for (unsigned hop = 0; hop < degree; ++hop) {
    const Rank target = replicas[(preferred + hop) % degree];
    if (dead(target)) continue;
    if (!first_attempt) {
      ++stats_.failovers;
      if (failovers_counter_ != nullptr) failovers_counter_->add();
    }
    first_attempt = false;

    Request response = endpoint_->irecv(target, kDataTagOffset + tag);
    ++stats_.requests_sent;
    if (requests_counter_ != nullptr) requests_counter_->add();
    endpoint_->isend(target, kRequestTag,
                     Payload::of({static_cast<double>(tag),
                                  static_cast<double>(seq)}));
    co_await response->done.wait();
    if (!response->aborted) {
      parent->message.envelope =
          simmpi::Envelope{src_virtual, virtual_rank_, tag};
      parent->message.payload = std::move(response->message.payload);
      parent->message.seq = response->message.seq;
      complete_request(*parent, engine());
      co_return;
    }
    // The contacted replica died before answering; ask the next one.
  }
  // No live replica can answer: the sender sphere is dead.
  parent->aborted = true;
  complete_request(*parent, engine());
}

void PullComm::serve_or_queue(Rank dst_virtual, int tag, std::uint64_t seq,
                              Rank requester) {
  const auto* buffer = out_buffers_.find(stream_key(dst_virtual, tag));
  if (buffer != nullptr && seq < buffer->size()) {
    ++stats_.responses_served;
    endpoint_->isend(requester, kDataTagOffset + tag, (*buffer)[seq]);
    return;
  }
  waiting_requests_[stream_key(dst_virtual, tag)].push_back(
      PendingRequest{requester, seq});
}

sim::Task PullComm::responder_loop() {
  for (;;) {
    Message request =
        co_await endpoint_->recv(simmpi::kAnySource, kRequestTag);
    if (dead(endpoint_->rank())) continue;  // the dead serve no one
    const auto values = request.payload.values();
    const int tag = static_cast<int>(values[0]);
    const auto seq = static_cast<std::uint64_t>(values[1]);
    const Rank requester = request.envelope.source;
    const Rank requester_virtual = map_->virtual_of(requester);
    serve_or_queue(requester_virtual, tag, seq, requester);
  }
}

}  // namespace redcr::red

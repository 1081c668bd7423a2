// World: the simulated MPI runtime. Owns one Endpoint (mailbox + matching
// engine) per physical rank and routes messages between them through the
// network cost model.
//
// Matching semantics follow MPI: receives match the earliest compatible
// unexpected message; arriving messages match the earliest compatible posted
// receive; per-(source, destination) delivery is non-overtaking even when
// the network would reorder differently-sized messages.
//
// A posted receive completes either a Request (the Comm API) or a Sink (the
// redundancy layer's physical copies); a send either completes a Request or
// nothing. Both forms share the one posted queue, the one send FIFO and the
// one matching path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/arena.hpp"
#include "net/network.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/types.hpp"
#include "util/fifo.hpp"
#include "util/flat_map.hpp"

namespace redcr::simmpi {

class World;

/// Per-rank communication endpoint: the physical-layer Comm implementation.
class Endpoint final : public Comm {
 public:
  [[nodiscard]] Rank rank() const noexcept override { return rank_; }
  [[nodiscard]] int size() const noexcept override;
  [[nodiscard]] sim::Engine& engine() const noexcept override;

  Request isend(Rank dst, int tag, Payload payload) override;
  Request irecv(Rank src, int tag) override;

  /// isend() that completes `on_sent` instead of a new request; an empty
  /// `on_sent` completes nothing. The redundancy layer sends the physical
  /// copies of one fan-out this way and completes the application's request
  /// with the last copy (sends complete in issue order).
  void isend(Rank dst, int tag, Payload payload, Request on_sent);

  /// irecv() that completes `sink` instead of a request, once: at once when
  /// an unexpected message matches, else on arrival or abort.
  void irecv(Rank src, int tag, Sink sink);

  /// Completes every posted receive whose concrete source is `source` with
  /// the `aborted` flag (live failure semantics: the peer died and will
  /// never send). Wildcard posts are left pending — another sender can
  /// still match them. Returns the number of receives aborted.
  std::size_t abort_posted_from(Rank source);

  /// Messages sent to each destination rank so far (bookmark protocol).
  [[nodiscard]] const std::vector<std::uint64_t>& sent_counts() const noexcept {
    return sent_counts_;
  }
  /// Messages received (delivered to this mailbox) from each source rank.
  [[nodiscard]] const std::vector<std::uint64_t>& received_counts()
      const noexcept {
    return received_counts_;
  }
  [[nodiscard]] std::uint64_t total_sent() const noexcept { return total_sent_; }
  [[nodiscard]] std::uint64_t total_received() const noexcept {
    return total_received_;
  }

 private:
  friend class World;

  /// A posted receive; it completes `request` when set, else `sink`.
  struct PostedRecv {
    Rank src = kAnySource;  // may be wildcard
    int tag = kAnyTag;      // may be wildcard
    Request request;
    Sink sink;
  };

  Endpoint(World& world, Rank rank, int world_size)
      : world_(&world),
        rank_(rank),
        sent_counts_(static_cast<std::size_t>(world_size), 0),
        received_counts_(static_cast<std::size_t>(world_size), 0) {}

  /// Called by World when a message arrives at this mailbox.
  void deliver(Message message);

  /// Matches `posted` against the unexpected queue, or queues it.
  void post(PostedRecv posted);

  /// Completes a receive with `message`, or as aborted when it is nullptr.
  void complete(PostedRecv& posted, Message* message);

  static bool matches(const PostedRecv& posted, const Message& msg) noexcept {
    return (posted.src == kAnySource || posted.src == msg.envelope.source) &&
           (posted.tag == kAnyTag || posted.tag == msg.envelope.tag);
  }

  World* world_;
  Rank rank_;
  util::Fifo<PostedRecv> posted_;   // receives awaiting a message
  util::Fifo<Message> unexpected_;  // messages awaiting a receive
  std::vector<std::uint64_t> sent_counts_;
  std::vector<std::uint64_t> received_counts_;
  std::uint64_t total_sent_ = 0;
  std::uint64_t total_received_ = 0;
};

/// Aggregate runtime statistics, exposed for tests and experiment reports.
struct WorldStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t matched_from_unexpected = 0;
  std::uint64_t matched_posted = 0;
};

class World {
 public:
  /// Creates `size` endpoints. `rank_to_node` maps ranks onto network nodes;
  /// empty means the identity mapping (one process per node, the paper's
  /// assumption 2).
  World(sim::Engine& engine, net::Network& network, int size,
        std::vector<net::NodeId> rank_to_node = {});

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(endpoints_.size());
  }
  [[nodiscard]] Endpoint& endpoint(Rank rank);
  [[nodiscard]] sim::Engine& engine() const noexcept { return *engine_; }
  [[nodiscard]] net::Network& network() const noexcept { return *network_; }
  [[nodiscard]] const WorldStats& stats() const noexcept { return stats_; }

  /// Attaches an append-only log of message-injection timestamps (nullptr
  /// detaches; not owned). The fast-forward prototypes read messages_sent
  /// as of any simulated instant from it; one branch per send when detached.
  void set_messages_log(std::vector<sim::Time>* log) noexcept {
    messages_log_ = log;
  }

 private:
  friend class Endpoint;

  /// Injects a message: pays sender-side cost, enforces channel FIFO, and
  /// schedules mailbox delivery and the completion of `on_sent` (may be
  /// empty).
  void inject(Rank src, Rank dst, int tag, Payload payload, Request on_sent);

  /// Completes the oldest pending send. All sends share one constant busy
  /// time (Network::send_busy_time()), so their completion events fire in
  /// issue order and a FIFO needs no per-send closure state.
  void complete_next_send();

  /// Delivery event body: moves the message out of its arena slot, recycles
  /// the slot, and hands the message to the destination mailbox.
  void deliver_from_arena(std::uint32_t dst, std::uint32_t slot);

  sim::Engine* engine_;
  net::Network* network_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<net::NodeId> rank_to_node_;
  /// In-flight messages, parked between inject and delivery. Event closures
  /// capture the 32-bit slot instead of the Message itself, keeping them
  /// inside std::function's inline buffer (no per-message heap traffic).
  net::Arena<Message> message_arena_;
  /// Per (src,dst) channel: last scheduled arrival time, for non-overtaking.
  util::FlatMap64<sim::Time> channel_last_arrival_;
  /// Sends awaiting their sender-side busy-time completion, in issue order
  /// (see complete_next_send()); an empty entry completes nothing.
  util::Fifo<Request> pending_sends_;
  std::uint64_t next_seq_ = 1;
  WorldStats stats_;
  std::vector<sim::Time>* messages_log_ = nullptr;  // fast-forward prototypes
};

}  // namespace redcr::simmpi

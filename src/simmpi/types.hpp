// Core message-passing types shared by the plain MPI-like layer (Endpoint)
// and the redundancy interposition layer (red::RedComm).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/cotask.hpp"
#include "sim/task.hpp"
#include "util/pool.hpp"
#include "util/rc.hpp"
#include "util/units.hpp"

namespace redcr::simmpi {

/// Process rank within a world (virtual or physical depending on layer).
using Rank = int;

/// Wildcard source for receive matching (MPI_ANY_SOURCE).
inline constexpr Rank kAnySource = -1;
/// Wildcard tag for receive matching (MPI_ANY_TAG).
inline constexpr int kAnyTag = -1;

/// Tag ranges. Application tags must stay below kCollectiveTagBase; the
/// collective library and the redundancy/checkpoint control planes use
/// reserved bands so a wildcard application receive can never match them.
/// Tags at or above kQuiesceTagBase are *not* counted by the endpoints'
/// bookmark counters — the quiesce protocol must be able to communicate
/// without disturbing the totals it is trying to equalize.
inline constexpr int kCollectiveTagBase = 1 << 27;
inline constexpr int kControlTagBase = 1 << 28;
inline constexpr int kQuiesceTagBase = 1 << 30;

/// Message payload: either real data (an immutable array of doubles that
/// every copy shares) or a declared byte size for timing-only simulation.
/// Experiment harnesses use sized payloads to keep memory flat; correctness
/// tests use real data.
///
/// Real data lives in one util::BlockPool block: a share count, the length
/// and the doubles. A copy shares the block, so a replica fan-out copies no
/// values, and a payload of up to 126 values never reaches the general
/// allocator. Like util::Rc's, the count is not atomic: every copy of a
/// payload stays on the thread that runs its job.
class Payload {
 public:
  Payload() = default;
  Payload(const Payload& other) noexcept
      : block_(other.block_), bytes_(other.bytes_), strain_(other.strain_) {
    if (block_ != nullptr) ++block_->refs;
  }
  Payload(Payload&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)),
        bytes_(other.bytes_),
        strain_(other.strain_) {}
  Payload& operator=(const Payload& other) noexcept {
    Payload(other).swap(*this);
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    Payload(std::move(other)).swap(*this);
    return *this;
  }
  ~Payload() {
    if (block_ != nullptr && --block_->refs == 0)
      util::BlockPool::deallocate(block_, Block::bytes_for(block_->size));
  }

  /// Timing-only payload of `bytes` bytes.
  static Payload sized(util::Bytes bytes) {
    assert(bytes >= 0.0);
    Payload p;
    p.bytes_ = bytes;
    return p;
  }

  /// Real-data payload; size is 8 bytes per element. With no values it
  /// still has data (and hashes to the FNV-1a basis).
  static Payload of(std::span<const double> values) {
    Payload p;
    p.bytes_ = 8.0 * static_cast<double>(values.size());
    p.block_ = ::new (util::BlockPool::allocate(Block::bytes_for(
        values.size()))) Block{1, values.size()};
    std::uninitialized_copy(values.begin(), values.end(), p.block_->values());
    return p;
  }
  static Payload of(std::initializer_list<double> values) {
    return of(std::span<const double>(values.begin(), values.size()));
  }

  [[nodiscard]] util::Bytes size_bytes() const noexcept { return bytes_; }
  [[nodiscard]] bool has_data() const noexcept { return block_ != nullptr; }
  [[nodiscard]] std::span<const double> values() const {
    assert(has_data());
    return {block_->values(), block_->size};
  }

  /// Content hash (FNV-1a over the raw element bytes); timing-only payloads
  /// hash their size. A nonzero corruption strain perturbs the hash, which
  /// is how the redundancy layer's Msg-plus-hash mode and replica voting
  /// observe silent corruption of size-only payloads. Used by both.
  [[nodiscard]] std::uint64_t hash() const noexcept;

  /// A copy of this payload silently corrupted by `strain` — a nonzero
  /// identifier of the injection event that flipped it. Two payloads hit by
  /// the *same* strain stay bitwise consistent with each other (so a
  /// consistently-infected replica pair diverges from nobody), while clean
  /// vs. corrupted and differently-corrupted copies hash apart. Corrupting
  /// an already-tainted payload folds the strains together.
  [[nodiscard]] Payload corrupted(std::uint64_t strain) const {
    assert(strain != 0);
    Payload p = *this;
    p.strain_ ^= strain;
    if (p.strain_ == 0) p.strain_ = strain;  // keep a double hit observable
    return p;
  }

  /// Nonzero when this payload carries silent corruption.
  [[nodiscard]] std::uint64_t strain() const noexcept { return strain_; }
  [[nodiscard]] bool tainted() const noexcept { return strain_ != 0; }

 private:
  /// Header of a data block; the doubles follow it in the same block.
  struct Block {
    std::size_t refs;
    std::size_t size;

    static constexpr std::size_t bytes_for(std::size_t size) noexcept {
      return sizeof(Block) + size * sizeof(double);
    }
    double* values() noexcept { return reinterpret_cast<double*>(this + 1); }
  };
  static_assert(sizeof(Block) % alignof(double) == 0);

  void swap(Payload& other) noexcept {
    std::swap(block_, other.block_);
    std::swap(bytes_, other.bytes_);
    std::swap(strain_, other.strain_);
  }

  Block* block_ = nullptr;
  util::Bytes bytes_ = 0.0;
  std::uint64_t strain_ = 0;
};

/// Payload carrying a single double. Prefer this over Payload::of({v})
/// inside co_await expressions: GCC 12 cannot place a brace-init-list's
/// backing array into a coroutine frame ("array used as initializer").
inline Payload scalar_payload(double value) {
  return Payload::of(std::span<const double>(&value, 1));
}

/// Addressing triple of a message.
struct Envelope {
  Rank source = kAnySource;
  Rank dest = kAnySource;
  int tag = kAnyTag;
};

/// A delivered (or in-flight) message.
struct Message {
  Envelope envelope;
  Payload payload;
  /// World-unique injection sequence number; preserves and exposes ordering.
  std::uint64_t seq = 0;
};

/// Shared state of a nonblocking operation. Both layers complete requests by
/// filling `message` (receives), setting `complete`, and triggering `done`.
struct RequestState {
  bool complete = false;
  /// Completed without a message because the peer died (live failure
  /// semantics): the message field is empty and must not be consumed.
  bool aborted = false;
  Message message;  ///< for receives: the delivered message
  sim::OneShotEvent done;

  RequestState() = default;
  RequestState(const RequestState&) = delete;
  RequestState& operator=(const RequestState&) = delete;
};

/// Handle to a request's state. A job's requests never leave the thread
/// that runs it, so the handle's count is not atomic (util::Rc).
using Request = util::Rc<RequestState>;

/// A fresh request: its state and count share one pooled block. Requests
/// are made and dropped once or more per message.
inline Request make_request() { return Request::make(); }

/// Canonical completion path: sets the flag and wakes waiters.
inline void complete_request(RequestState& request, sim::Engine& engine) {
  assert(!request.complete);
  request.complete = true;
  request.done.trigger(engine);
}

/// Where a posted receive completes when nothing awaits it: a plain function
/// with a context and an index, called once with the delivered message, or
/// with nullptr when the receive is aborted (its peer died). The redundancy
/// layer posts each physical copy of a copy-set this way, so the copy costs
/// no RequestState and no closure; the function moves the message out.
struct Sink {
  void (*fn)(void* context, std::uint32_t index, Message* message) = nullptr;
  void* context = nullptr;
  std::uint32_t index = 0;

  void operator()(Message* message) const { fn(context, index, message); }
};

/// Awaiter on a request's completion event; co_await yields the delivered
/// message when `Result` is Message and nothing when it is void. It holds
/// the request itself, so a blocking call costs no coroutine frame of its
/// own, and it resumes its awaiter exactly where a waiting coroutine would.
template <typename Result>
class [[nodiscard]] RequestAwaiter {
 public:
  explicit RequestAwaiter(Request request) noexcept
      : request_(std::move(request)) {
    assert(request_);
  }
  bool await_ready() const noexcept { return request_->done.triggered(); }
  void await_suspend(std::coroutine_handle<> h) {
    request_->done.wait().await_suspend(h);
  }
  /// A receive has exactly one awaiter, so the message moves out.
  Result await_resume() {
    if constexpr (!std::is_void_v<Result>)
      return std::move(request_->message);
  }

 private:
  Request request_;
};

/// Suspends until the request completes; yields the delivered message
/// (meaningful for receives; default-constructed for sends).
inline RequestAwaiter<Message> wait(Request request) {
  return RequestAwaiter<Message>{std::move(request)};
}

/// Suspends until all requests complete (MPI_Waitall).
inline sim::CoTask<void> wait_all(std::vector<Request> requests) {
  for (auto& request : requests) {
    assert(request);
    co_await request->done.wait();
  }
}

}  // namespace redcr::simmpi

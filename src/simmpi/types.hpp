// Core message-passing types shared by the plain MPI-like layer (Endpoint)
// and the redundancy interposition layer (red::RedComm).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "sim/cotask.hpp"
#include "sim/task.hpp"
#include "util/pool.hpp"
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

/// Message payload: either real data (a shared immutable vector of doubles)
/// or a declared byte size for timing-only simulation. Experiment harnesses
/// use sized payloads to keep memory flat; correctness tests use real data.
class Payload {
 public:
  Payload() = default;

  /// Timing-only payload of `bytes` bytes.
  static Payload sized(util::Bytes bytes) {
    assert(bytes >= 0.0);
    Payload p;
    p.bytes_ = bytes;
    return p;
  }

  /// Real-data payload; size is 8 bytes per element.
  static Payload of(std::vector<double> values) {
    Payload p;
    p.bytes_ = 8.0 * static_cast<double>(values.size());
    p.data_ = std::make_shared<const std::vector<double>>(std::move(values));
    return p;
  }

  [[nodiscard]] util::Bytes size_bytes() const noexcept { return bytes_; }
  [[nodiscard]] bool has_data() const noexcept { return data_ != nullptr; }
  [[nodiscard]] std::span<const double> values() const {
    assert(has_data());
    return *data_;
  }

  /// Content hash (FNV-1a over the raw element bytes); timing-only payloads
  /// hash their size. A nonzero corruption strain perturbs the hash, which
  /// is how the redundancy layer's Msg-plus-hash mode and replica voting
  /// observe silent corruption of size-only payloads. Used by both.
  [[nodiscard]] std::uint64_t hash() const noexcept;

  /// Byte-wise equality of contents (size equality for timing-only).
  /// Payloads carrying different corruption strains never compare equal.
  friend bool operator==(const Payload& a, const Payload& b) noexcept;

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
  std::shared_ptr<const std::vector<double>> data_;
  util::Bytes bytes_ = 0.0;
  std::uint64_t strain_ = 0;
};

/// Payload carrying a single double. Prefer this over Payload::of({v})
/// inside co_await expressions: GCC 12 cannot place a brace-init-list's
/// backing array into a coroutine frame ("array used as initializer").
inline Payload scalar_payload(double value) {
  std::vector<double> data(1, value);
  return Payload::of(std::move(data));
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
  /// Optional completion hook (single-shot). The redundancy layer uses it to
  /// aggregate sub-request completions without spawning a coroutine per
  /// message. Runs after `complete` is set and `done` is triggered.
  std::function<void()> on_complete;

  RequestState() = default;
  RequestState(const RequestState&) = delete;
  RequestState& operator=(const RequestState&) = delete;
};

using Request = std::shared_ptr<RequestState>;

/// A fresh request. Its state and control block come from the per-thread
/// block pool: requests are created and dropped once or more per message.
inline Request make_request() {
  return std::allocate_shared<RequestState>(
      util::PoolAllocator<RequestState>{});
}

/// Canonical completion path: sets the flag, wakes waiters, runs the hook.
inline void complete_request(RequestState& request, sim::Engine& engine) {
  assert(!request.complete);
  request.complete = true;
  request.done.trigger(engine);
  if (request.on_complete) {
    auto hook = std::move(request.on_complete);
    request.on_complete = nullptr;
    hook();
  }
}

/// Attaches a completion hook, running it immediately if the request already
/// completed (e.g. a receive matched from the unexpected queue).
inline void attach_completion(const Request& request,
                              std::function<void()> hook) {
  assert(request && !request->on_complete);
  if (request->complete) {
    hook();
  } else {
    request->on_complete = std::move(hook);
  }
}

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
  Result await_resume() const {
    if constexpr (!std::is_void_v<Result>) return request_->message;
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

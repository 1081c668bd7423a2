// Abstract communicator interface.
//
// Application workloads, the collective library and the checkpoint quiesce
// protocol are all written against `Comm`, so the same code runs over the
// plain layer (Endpoint — physical ranks) and over the redundancy layer
// (red::RedComm — virtual ranks with replica fan-out underneath). This
// mirrors how RedMPI slots invisibly underneath an unmodified MPI
// application via the profiling interface.
#pragma once

#include "simmpi/types.hpp"

namespace redcr::simmpi {

class Comm {
 public:
  virtual ~Comm() = default;

  /// This process's rank in the communicator's world.
  [[nodiscard]] virtual Rank rank() const noexcept = 0;
  /// Number of ranks in the world (virtual processes for RedComm).
  [[nodiscard]] virtual int size() const noexcept = 0;
  [[nodiscard]] virtual sim::Engine& engine() const noexcept = 0;

  /// Nonblocking send; the request completes once the payload has been
  /// handed to the network (eager protocol: the buffer is then reusable).
  virtual Request isend(Rank dst, int tag, Payload payload) = 0;

  /// Nonblocking receive; `src` may be kAnySource, `tag` may be kAnyTag.
  virtual Request irecv(Rank src, int tag) = 0;

  // --- Blocking convenience wrappers -------------------------------------
  // Each posts its request at the call and returns an awaiter on it, so it
  // must be awaited at once: `co_await comm.send(...)`.

  RequestAwaiter<void> send(Rank dst, int tag, Payload payload) {
    return RequestAwaiter<void>{isend(dst, tag, std::move(payload))};
  }

  RequestAwaiter<Message> recv(Rank src, int tag) {
    return RequestAwaiter<Message>{irecv(src, tag)};
  }

  /// Models `seconds` of local computation.
  [[nodiscard]] sim::DelayAwaiter compute(util::Seconds seconds) {
    return sim::delay(engine(), seconds);
  }
};

}  // namespace redcr::simmpi

// Coroutine process type and awaitables for the simulation engine.
//
//   sim::Task my_process(sim::Engine& eng, ...) {
//     co_await sim::delay(eng, 5.0);       // advance simulated time
//     co_await some_event.wait();          // block until triggered
//     co_await some_cotask(...);           // call an awaitable sub-coroutine
//   }
//   eng.spawn(my_process(eng, ...));
//
// A Task is a detached top-level process: the engine owns its frame after
// spawn() and destroys it at completion (via the final awaiter) or at engine
// teardown. Sub-coroutines are expressed with sim::CoTask<T> (cotask.hpp),
// whose frames are owned by their parent's co_await expression.
//
// All awaitables here are promise-agnostic (they accept any
// std::coroutine_handle<>), so they work from Task and CoTask bodies alike.
#pragma once

#include <cassert>
#include <coroutine>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "util/pool.hpp"

namespace redcr::sim {

class Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    // The frame is suspended at this point; the engine unregisters and
    // destroys it. Control then returns to whoever resumed us.
    void await_suspend(Handle h) const noexcept;
    void await_resume() const noexcept {}
  };

  struct promise_type {
    Engine* engine = nullptr;

    Task get_return_object() { return Task{Handle::from_promise(*this)}; }
    // Suspend until the engine adopts the frame and schedules the first
    // step; guarantees `engine` is set before any body code runs.
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      if (engine != nullptr) engine->note_exception(std::current_exception());
    }

    // Frames recycle through the per-thread block pool: processes are
    // spawned per wildcard receive and per pull, not only per rank.
    static void* operator new(std::size_t bytes) {
      return util::BlockPool::allocate(bytes);
    }
    static void operator delete(void* frame, std::size_t bytes) noexcept {
      util::BlockPool::deallocate(frame, bytes);
    }
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    // Only reached if the task was never spawned.
    if (handle_) handle_.destroy();
  }

  /// Transfers frame ownership to the engine (called by Engine::spawn).
  Handle release(Engine& engine) noexcept {
    assert(handle_);
    handle_.promise().engine = &engine;
    return std::exchange(handle_, {});
  }

 private:
  explicit Task(Handle handle) noexcept : handle_(handle) {}

  Handle handle_;
};

inline void Task::FinalAwaiter::await_suspend(Handle h) const noexcept {
  h.promise().engine->reap_process(h);
}

/// Awaitable that advances simulated time by `duration` seconds.
/// A zero-duration delay still yields: it reschedules the process at the
/// back of the current-timestamp FIFO — the deterministic analogue of a
/// thread yield. A negative or NaN duration throws from the co_await, like
/// Engine::schedule_after.
class DelayAwaiter {
 public:
  DelayAwaiter(Engine& engine, Time duration) noexcept
      : engine_(engine), duration_(duration) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    engine_.schedule_after(duration_,
                           [eng = &engine_, h] { eng->resume_coroutine(h); });
  }
  void await_resume() const noexcept {}

 private:
  Engine& engine_;
  Time duration_;
};

[[nodiscard]] inline DelayAwaiter delay(Engine& engine,
                                        Time duration) noexcept {
  return DelayAwaiter{engine, duration};
}

/// One-shot latched event: processes awaiting it suspend until trigger();
/// awaiting an already-triggered event completes immediately. Used for
/// message-completion notification (one event per request), where there is
/// almost always exactly one waiter: it is kept inline, and only further
/// waiters spill to a vector.
class OneShotEvent {
 public:
  OneShotEvent() = default;
  OneShotEvent(const OneShotEvent&) = delete;
  OneShotEvent& operator=(const OneShotEvent&) = delete;

  [[nodiscard]] bool triggered() const noexcept { return triggered_; }

  /// Latches the event and schedules every waiter to resume "now", in the
  /// order they started waiting. Triggering twice is a no-op.
  void trigger(Engine& engine) {
    if (triggered_) return;
    triggered_ = true;
    if (!first_waiter_) return;
    wake(engine, std::exchange(first_waiter_, {}));
    for (auto h : more_waiters_) wake(engine, h);
    more_waiters_.clear();
  }

  class Awaiter {
   public:
    explicit Awaiter(OneShotEvent& event) noexcept : event_(event) {}
    bool await_ready() const noexcept { return event_.triggered_; }
    void await_suspend(std::coroutine_handle<> h) {
      if (!event_.first_waiter_)
        event_.first_waiter_ = h;
      else
        event_.more_waiters_.push_back(h);
    }
    void await_resume() const noexcept {}

   private:
    OneShotEvent& event_;
  };

  [[nodiscard]] Awaiter wait() noexcept { return Awaiter{*this}; }

 private:
  friend class Awaiter;

  static void wake(Engine& engine, std::coroutine_handle<> h) {
    engine.schedule_after(0.0, [eng = &engine, h] { eng->resume_coroutine(h); });
  }

  bool triggered_ = false;
  std::coroutine_handle<> first_waiter_;
  std::vector<std::coroutine_handle<>> more_waiters_;  // in await order
};

/// Reusable broadcast signal: trigger() wakes all *current* waiters; later
/// waiters block until the next trigger. Used for barrier-style rendezvous.
class BroadcastEvent {
 public:
  BroadcastEvent() = default;
  BroadcastEvent(const BroadcastEvent&) = delete;
  BroadcastEvent& operator=(const BroadcastEvent&) = delete;

  void trigger(Engine& engine) {
    auto woken = std::move(waiters_);
    waiters_.clear();
    for (auto h : woken)
      engine.schedule_after(0.0, [eng = &engine, h] { eng->resume_coroutine(h); });
  }

  [[nodiscard]] std::size_t waiting() const noexcept { return waiters_.size(); }

  class Awaiter {
   public:
    explicit Awaiter(BroadcastEvent& event) noexcept : event_(event) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      event_.waiters_.push_back(h);
    }
    void await_resume() const noexcept {}

   private:
    BroadcastEvent& event_;
  };

  [[nodiscard]] Awaiter wait() noexcept { return Awaiter{*this}; }

 private:
  friend class Awaiter;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace redcr::sim

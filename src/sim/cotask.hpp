// CoTask<T>: a lazily-started, awaitable sub-coroutine with symmetric
// transfer back to its awaiter. Used for composable simulated operations —
// e.g. a collective implemented over point-to-point sends, or the redundancy
// layer's fan-out send — that must suspend on simulated time and return a
// value to the caller.
//
//   sim::CoTask<double> allreduce(Endpoint& self, double value) { ... }
//   double sum = co_await allreduce(ep, x);   // from a Task or CoTask body
//
// Ownership: the CoTask object owns the child frame; it lives in the
// parent's co_await expression, so destroying the parent frame (engine
// teardown) destroys suspended children recursively.
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "util/pool.hpp"

namespace redcr::sim {

namespace detail {

/// Final awaiter that transfers control back to the awaiting coroutine.
struct SymmetricFinalAwaiter {
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) const noexcept {
    auto continuation = h.promise().continuation;
    return continuation ? continuation : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

struct CoTaskPromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr error;

  std::suspend_always initial_suspend() noexcept { return {}; }
  SymmetricFinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { error = std::current_exception(); }

  // Frames recycle through the per-thread block pool: a CoTask (a blocking
  // wait, a send, a collective) is created per message-level operation.
  static void* operator new(std::size_t bytes) {
    return util::BlockPool::allocate(bytes);
  }
  static void operator delete(void* frame, std::size_t bytes) noexcept {
    util::BlockPool::deallocate(frame, bytes);
  }
};

}  // namespace detail

template <typename T>
class [[nodiscard]] CoTask {
 public:
  struct promise_type : detail::CoTaskPromiseBase {
    std::optional<T> value;

    CoTask get_return_object() {
      return CoTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T v) { value.emplace(std::move(v)); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  CoTask(CoTask&& other) noexcept
      : handle_(std::exchange(other.handle_, {})) {}
  CoTask(const CoTask&) = delete;
  CoTask& operator=(const CoTask&) = delete;
  CoTask& operator=(CoTask&&) = delete;
  ~CoTask() {
    if (handle_) handle_.destroy();
  }

  class Awaiter {
   public:
    explicit Awaiter(Handle h) noexcept : handle_(h) {}
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<> parent) noexcept {
      handle_.promise().continuation = parent;
      return handle_;  // start the child (symmetric transfer)
    }
    T await_resume() {
      auto& promise = handle_.promise();
      if (promise.error) std::rethrow_exception(promise.error);
      assert(promise.value && "CoTask finished without a value");
      return std::move(*promise.value);
    }

   private:
    Handle handle_;
  };

  Awaiter operator co_await() noexcept {
    assert(handle_ && "CoTask may only be awaited once");
    return Awaiter{handle_};
  }

 private:
  explicit CoTask(Handle handle) noexcept : handle_(handle) {}

  Handle handle_;
};

template <>
class [[nodiscard]] CoTask<void> {
 public:
  struct promise_type : detail::CoTaskPromiseBase {
    CoTask get_return_object() {
      return CoTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() noexcept {}
  };

  using Handle = std::coroutine_handle<promise_type>;

  CoTask(CoTask&& other) noexcept
      : handle_(std::exchange(other.handle_, {})) {}
  CoTask(const CoTask&) = delete;
  CoTask& operator=(const CoTask&) = delete;
  CoTask& operator=(CoTask&&) = delete;
  ~CoTask() {
    if (handle_) handle_.destroy();
  }

  class Awaiter {
   public:
    explicit Awaiter(Handle h) noexcept : handle_(h) {}
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<> parent) noexcept {
      handle_.promise().continuation = parent;
      return handle_;
    }
    void await_resume() {
      if (handle_.promise().error)
        std::rethrow_exception(handle_.promise().error);
    }

   private:
    Handle handle_;
  };

  Awaiter operator co_await() noexcept {
    assert(handle_ && "CoTask may only be awaited once");
    return Awaiter{handle_};
  }

 private:
  explicit CoTask(Handle handle) noexcept : handle_(handle) {}

  Handle handle_;
};

}  // namespace redcr::sim

// Rc<T>: a reference-counted handle whose count is not atomic.
//
// The count and the T share one util::BlockPool block, so making an object
// is one free-list pop, and copying or dropping a handle is a plain
// increment or decrement: no control block, no deleter, no locked
// read-modify-write. The simulator's per-message objects (request states,
// the wildcard protocol's turn events) are made and dropped once or more
// per simulated message, which is where std::shared_ptr's atomic counts
// showed in profiles.
//
// Thread rule: every handle to one object lives on one thread. The
// simulator keeps it by construction: a job runs on one engine on one
// thread, and exp::SweepRunner hands back only JobReports. (The block
// itself may still be freed on another thread; BlockPool allows that.)
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <utility>

#include "util/pool.hpp"

namespace redcr::util {

template <class T>
class Rc {
 public:
  Rc() noexcept = default;

  /// A new T built from `args`, held by one handle.
  template <class... Args>
  [[nodiscard]] static Rc make(Args&&... args) {
    static_assert(alignof(Box) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "BlockPool blocks carry the default new alignment");
    void* const block = BlockPool::allocate(sizeof(Box));
    try {
      return Rc(::new (block) Box(std::forward<Args>(args)...));
    } catch (...) {
      BlockPool::deallocate(block, sizeof(Box));
      throw;
    }
  }

  Rc(const Rc& other) noexcept : box_(other.box_) {
    if (box_ != nullptr) ++box_->refs;
  }
  Rc(Rc&& other) noexcept : box_(std::exchange(other.box_, nullptr)) {}
  Rc& operator=(const Rc& other) noexcept {
    Rc(other).swap(*this);
    return *this;
  }
  Rc& operator=(Rc&& other) noexcept {
    Rc(std::move(other)).swap(*this);
    return *this;
  }
  ~Rc() {
    if (box_ != nullptr && --box_->refs == 0) {
      box_->~Box();
      BlockPool::deallocate(box_, sizeof(Box));
    }
  }

  void swap(Rc& other) noexcept { std::swap(box_, other.box_); }
  /// Drops this handle's share; the last one destroys the T.
  void reset() noexcept { Rc().swap(*this); }

  [[nodiscard]] T* get() const noexcept {
    return box_ != nullptr ? &box_->value : nullptr;
  }
  T& operator*() const noexcept {
    assert(box_ != nullptr);
    return box_->value;
  }
  T* operator->() const noexcept {
    assert(box_ != nullptr);
    return &box_->value;
  }
  explicit operator bool() const noexcept { return box_ != nullptr; }

  /// Handles sharing this handle's object; 0 for an empty handle.
  [[nodiscard]] std::size_t use_count() const noexcept {
    return box_ != nullptr ? box_->refs : 0;
  }

 private:
  struct Box {
    template <class... Args>
    explicit Box(Args&&... args) : value(std::forward<Args>(args)...) {}
    std::size_t refs = 1;
    T value;
  };

  explicit Rc(Box* box) noexcept : box_(box) {}

  Box* box_ = nullptr;
};

}  // namespace redcr::util

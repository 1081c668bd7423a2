// BlockPool: a per-thread recycling pool for the simulator's small,
// short-lived heap objects — coroutine frames, request states and the
// redundancy layer's in-flight list nodes, each created and dropped once or
// more per simulated message.
//
// Requests up to kMaxBlock bytes are rounded up to a multiple of kGranule.
// A freed block goes onto the freeing thread's list for its size class, and
// the next allocation of that class on that thread pops it again, so the
// steady-state hot path never reaches the general-purpose allocator. Larger
// requests go straight to ::operator new / ::operator delete.
//
// Lifetime rules:
//   * Every block is its own ::operator new allocation (no slabs), so a
//     block may be freed on another thread than the one that allocated it:
//     it simply joins that thread's list. (exp::SweepRunner cells can hand
//     episode state across threads.)
//   * At thread exit the thread's lists are returned to ::operator delete.
//     A deallocation after that point (a later thread_local or static
//     destructor) falls back to ::operator delete, so no destroyed
//     thread-local state is ever touched.
//   * The free lists are bounded only by the peak number of live blocks per
//     class on that thread.
//   * Under AddressSanitizer a cached block is poisoned, so a use after
//     free of a pooled object is still reported.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace redcr::util {

class BlockPool {
 public:
  static constexpr std::size_t kGranule = 32;
  static constexpr std::size_t kMaxBlock = 1024;
  static constexpr std::size_t kClasses = kMaxBlock / kGranule;

  /// A block of at least `bytes` bytes, aligned for any fundamental type.
  [[nodiscard]] static void* allocate(std::size_t bytes) {
    if (bytes > kMaxBlock) return ::operator new(bytes);
    const std::size_t c = size_class(bytes);
    FreeBlock*& head = lists_.heads[c];
    if (head != nullptr) {
      FreeBlock* block = head;
      unpoison(block, c);
      head = block->next;
      return block;
    }
    return ::operator new(block_bytes(c));
  }

  /// Returns a block from allocate(); `bytes` must be the size requested.
  static void deallocate(void* p, std::size_t bytes) noexcept {
    if (bytes > kMaxBlock) {
      ::operator delete(p, bytes);
      return;
    }
    if (lists_.state != State::kLive) {
      deallocate_cold(p, bytes);
      return;
    }
    push(p, size_class(bytes));
  }

  /// Blocks cached on the calling thread's free lists, over all classes.
  /// Walks the lists; for tests and diagnostics.
  [[nodiscard]] static std::size_t cached_blocks() noexcept;

 private:
  struct FreeBlock {
    FreeBlock* next;
  };
  enum class State : std::uint8_t {
    kFresh,    ///< nothing cached yet; the thread-exit hook is not armed
    kLive,     ///< caching; the lists are released at thread exit
    kRetired,  ///< thread exit has released the lists; no more caching
  };
  struct Lists {
    FreeBlock* heads[kClasses];
    State state;
  };
  class Reaper;

  static constexpr std::size_t size_class(std::size_t bytes) noexcept {
    return bytes == 0 ? 0 : (bytes - 1) / kGranule;
  }
  static constexpr std::size_t block_bytes(std::size_t c) noexcept {
    return (c + 1) * kGranule;
  }
  static void push(void* p, std::size_t c) noexcept {
    auto* block = static_cast<FreeBlock*>(p);
    block->next = lists_.heads[c];
    lists_.heads[c] = block;
    poison(block, c);
  }
  /// Reads a cached block's link.
  static FreeBlock* next_of(FreeBlock* block, std::size_t c) noexcept {
    unpoison(block, c);
    FreeBlock* next = block->next;
    poison(block, c);
    return next;
  }
  // No-ops unless built with AddressSanitizer.
  static void poison(FreeBlock* block, std::size_t c) noexcept {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(block, block_bytes(c));
#else
    (void)block;
    (void)c;
#endif
  }
  static void unpoison(FreeBlock* block, std::size_t c) noexcept {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(block, block_bytes(c));
#else
    (void)block;
    (void)c;
#endif
  }
  /// First deallocation on a thread (arms the thread-exit release), or any
  /// deallocation after the thread's lists were released.
  static void deallocate_cold(void* p, std::size_t bytes) noexcept;

  // Constant-initialized and trivially destructible, so the hot path reads
  // it directly, without a TLS init guard; Reaper does the cleanup.
  static constinit inline thread_local Lists lists_{};
};

/// Standard allocator over BlockPool, for std::allocate_shared and
/// node-based containers whose nodes churn on the hot path.
template <class T>
class PoolAllocator {
 public:
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <class U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "BlockPool blocks carry the default new alignment");
    if (n > static_cast<std::size_t>(-1) / sizeof(T))
      throw std::bad_array_new_length();
    return static_cast<T*>(BlockPool::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    BlockPool::deallocate(p, n * sizeof(T));
  }

  template <class U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace redcr::util

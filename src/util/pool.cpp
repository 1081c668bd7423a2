#include "util/pool.hpp"

namespace redcr::util {

/// Releases the calling thread's cached blocks when the thread exits (its
/// destructor runs with the thread's other thread_local destructors).
class BlockPool::Reaper {
 public:
  Reaper() noexcept = default;
  Reaper(const Reaper&) = delete;
  Reaper& operator=(const Reaper&) = delete;
  ~Reaper() {
    lists_.state = State::kRetired;
    for (std::size_t c = 0; c < kClasses; ++c) {
      FreeBlock* block = lists_.heads[c];
      lists_.heads[c] = nullptr;
      while (block != nullptr) {
        FreeBlock* next = next_of(block, c);
        unpoison(block, c);
        ::operator delete(block, block_bytes(c));
        block = next;
      }
    }
  }
};

void BlockPool::deallocate_cold(void* p, std::size_t bytes) noexcept {
  if (lists_.state == State::kRetired) {
    ::operator delete(p, block_bytes(size_class(bytes)));
    return;
  }
  // The first cached block on this thread: arm the thread-exit release.
  static thread_local Reaper reaper;
  lists_.state = State::kLive;
  push(p, size_class(bytes));
}

std::size_t BlockPool::cached_blocks() noexcept {
  std::size_t n = 0;
  for (std::size_t c = 0; c < kClasses; ++c)
    for (FreeBlock* block = lists_.heads[c]; block != nullptr;
         block = next_of(block, c))
      ++n;
  return n;
}

}  // namespace redcr::util

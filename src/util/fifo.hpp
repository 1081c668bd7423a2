// Fifo<T>: a first-in, first-out queue in one contiguous buffer.
//
// Built for the message layer's mailboxes and send queue (simmpi::World),
// where entries are appended at the back and a match is nearly always the
// front entry, but may be any entry. A head index makes popping the front
// O(1); taking an entry from the middle shifts the entries behind it one
// place forward, keeping arrival order. The dead prefix left by front pops
// is dropped when the queue empties, and compacted away when it outgrows
// the live entries, so the buffer stays bounded by the queue's peak length
// and its storage is reused instead of allocated per entry.
//
// A taken entry is moved from, so T's moved-from state should hold no
// resources (Request and Message handles are empty once moved from).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace redcr::util {

template <class T>
class Fifo {
 public:
  [[nodiscard]] bool empty() const noexcept { return head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return items_.size() - head_;
  }

  /// The live entries, oldest first.
  [[nodiscard]] T* begin() noexcept { return items_.data() + head_; }
  [[nodiscard]] T* end() noexcept { return items_.data() + items_.size(); }
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    assert(i < size());
    return items_[head_ + i];
  }

  void push_back(T value) { items_.push_back(std::move(value)); }

  /// Removes and returns the entry at position `i` (0 = the front); the
  /// entries behind it keep their order.
  T take(std::size_t i) {
    assert(i < size());
    T* const at = begin() + i;
    T value = std::move(*at);
    if (i == 0) {
      ++head_;
      if (empty()) {
        items_.clear();
        head_ = 0;
      } else if (head_ >= kMinCompact && head_ >= size()) {
        items_.erase(items_.begin(),
                     items_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    } else {
      std::move(at + 1, end(), at);
      items_.pop_back();
    }
    return value;
  }

  /// Removes and returns the front entry.
  T pop_front() { return take(0); }

 private:
  /// Dead entries tolerated before a compaction; below it, the prefix is
  /// dropped when the queue next empties.
  static constexpr std::size_t kMinCompact = 32;

  std::vector<T> items_;
  std::size_t head_ = 0;  ///< index of the front entry in items_
};

}  // namespace redcr::util

#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/recorder.hpp"
#include "sim/task.hpp"

namespace redcr::sim {

Engine::Engine() : buckets_(kMinBuckets) {}

Engine::~Engine() {
  // Drop pending callbacks first: they may capture coroutine handles that we
  // are about to destroy.
  for (Bucket& bucket : buckets_)
    for (EventNode* head = bucket.head; head != nullptr; head = head->next) {
      EventNode* node = head;
      do {
        node->callback = nullptr;
        node = node->tie_next;
      } while (node != head);
    }
  for (void* frame : handles_)
    std::coroutine_handle<>::from_address(frame).destroy();
}

std::uint64_t Engine::global_slot(Time t) const noexcept {
  const double q = t / width_;
  // Saturate instead of hitting the UB of an out-of-range double->u64 cast;
  // +inf (and anything astronomically far out) parks in the last ring slot
  // reachable only through the direct-search path.
  if (!(q < 9.0e18)) return std::uint64_t{9000000000000000000ull};
  return static_cast<std::uint64_t>(q);
}

Engine::EventNode* Engine::acquire_node() {
  if (free_head_ == nullptr) grow_pool();
  EventNode* node = free_head_;
  free_head_ = node->next;
  node->prev = nullptr;
  node->next = nullptr;
  return node;
}

void Engine::grow_pool() {
  const std::uint32_t base =
      static_cast<std::uint32_t>(slabs_.size()) * kSlabSize;
  auto slab = std::make_unique<EventNode[]>(kSlabSize);
  // Thread the new slab onto the free list in slot order (lowest first), so
  // allocation order — and therefore nothing observable — is deterministic.
  for (std::uint32_t i = kSlabSize; i-- > 0;) {
    slab[i].slot = base + i;
    slab[i].next = free_head_;
    free_head_ = &slab[i];
  }
  slabs_.push_back(std::move(slab));
}

void Engine::release_node(EventNode* node) noexcept {
  node->callback = nullptr;  // free captured state eagerly
  if (++node->gen == 0) node->gen = 1;
  node->linked = false;
  node->prev = nullptr;
  node->next = free_head_;
  free_head_ = node;
}

void Engine::bucket_insert(EventNode* node) noexcept {
  const Time t = node->time;
  // An event at now() takes now()'s day; any other time divides once.
  node->day = t == now_ ? now_day_ : global_slot(t);
  Bucket& bucket = buckets_[node->day & bucket_mask_];
  node->linked = true;
  // Find the group of time t, or the head to open a new group before.
  // Fast path: the common schedule patterns (same-time bursts, increasing
  // timers) land on or after the tail.
  EventNode* group = bucket.tail;
  if (group == nullptr || t > group->time) {
    group = nullptr;
  } else if (t != group->time) {
    // Walk the heads from the bucket head. Every pending time is >= now(),
    // so now()'s group, if any, heads now()'s bucket: a zero-delay event
    // stops at the first head.
    group = bucket.head;
    while (group->time < t) group = group->next;  // the tail bounds the walk
  }
  if (group != nullptr && group->time == t) {
    // Join the back of the ring: the newest event fires last among its ties.
    assert(group->head && node->prev == nullptr && node->next == nullptr);
    EventNode* const newest = group->tie_prev;
    node->head = false;
    node->tie_prev = newest;
    node->tie_next = group;
    newest->tie_next = node;
    group->tie_prev = node;
    return;
  }
  node->head = true;
  node->tie_prev = node->tie_next = node;
  link_head(bucket, node, group);
  ++group_count_;
}

void Engine::link_head(Bucket& bucket, EventNode* head,
                       EventNode* before) noexcept {
  EventNode* const after = before != nullptr ? before->prev : bucket.tail;
  // A bucket list holds heads only, in strictly increasing time.
  assert(head->head && (before == nullptr || before->head));
  assert(after == nullptr || after->time < head->time);
  assert(before == nullptr || head->time < before->time);
  head->prev = after;
  head->next = before;
  if (after != nullptr)
    after->next = head;
  else
    bucket.head = head;
  if (before != nullptr)
    before->prev = head;
  else
    bucket.tail = head;
}

void Engine::bucket_unlink(EventNode* node) noexcept {
  node->linked = false;
  EventNode* const heir = node->tie_next;
  heir->tie_prev = node->tie_prev;
  node->tie_prev->tie_next = heir;
  if (!node->head) {
    assert(node->prev == nullptr && node->next == nullptr);
    return;  // a follower is in no bucket list
  }
  Bucket& bucket = buckets_[node->day & bucket_mask_];
  if (heir != node) {
    // A head hands its bucket-list place to the next ring member, and its
    // day: the follower's own may predate a rebuild.
    assert(!heir->head && heir->prev == nullptr && heir->next == nullptr);
    assert(heir->time == node->time);
    heir->head = true;
    heir->day = node->day;
    heir->prev = node->prev;
    heir->next = node->next;
    if (heir->prev != nullptr)
      heir->prev->next = heir;
    else
      bucket.head = heir;
    if (heir->next != nullptr)
      heir->next->prev = heir;
    else
      bucket.tail = heir;
  } else {
    // A sole member takes its group out of the bucket.
    if (node->prev != nullptr)
      node->prev->next = node->next;
    else
      bucket.head = node->next;
    if (node->next != nullptr)
      node->next->prev = node->prev;
    else
      bucket.tail = node->prev;
    --group_count_;
  }
  node->prev = nullptr;
  node->next = nullptr;
}

Engine::EventNode* Engine::find_min() noexcept {
  if (pending_count_ == 0) return nullptr;
  // Every pending event has time >= now(), hence a global slot >= now()'s,
  // so scanning the ring upward from now() meets each event exactly at its
  // own slot; the first hit's bucket head is the earliest group, and the
  // head of a group is its earliest-scheduled event.
  assert(now_day_ == global_slot(now_));
  std::uint64_t slot = now_day_;
  for (std::size_t i = 0; i < num_buckets_; ++i, ++slot) {
    EventNode* head = buckets_[slot & bucket_mask_].head;
    if (head != nullptr && head->day <= slot) return head;
  }
  // Nothing due within one full ring revolution of now(): the next event is
  // more than buckets*width away. Direct min search over the bucket heads
  // (a timestamp is one group in one bucket, so head times are distinct).
  EventNode* best = nullptr;
  for (const Bucket& bucket : buckets_) {
    EventNode* head = bucket.head;
    if (head != nullptr && (best == nullptr || head->time < best->time))
      best = head;
  }
  return best;
}

void Engine::rebuild(std::size_t new_buckets) {
  rebuild_scratch_.clear();
  rebuild_scratch_.reserve(group_count_);
  for (Bucket& bucket : buckets_)
    for (EventNode* head = bucket.head; head != nullptr; head = head->next)
      rebuild_scratch_.push_back(head);
  // Group heads have distinct times, so this order is unique.
  std::sort(rebuild_scratch_.begin(), rebuild_scratch_.end(),
            [](const EventNode* a, const EventNode* b) {
              return a->time < b->time;
            });

  num_buckets_ = new_buckets;
  bucket_mask_ = new_buckets - 1;
  buckets_.assign(new_buckets, Bucket{});

  // Width estimate: about two slots per pending timestamp across the pending
  // span, clamped so bucket arithmetic stays representable at the current
  // time magnitude. Derived from the queue contents only — deterministic.
  double width = 1.0;
  if (rebuild_scratch_.size() >= 2 &&
      std::isfinite(rebuild_scratch_.front()->time)) {
    const double lo = rebuild_scratch_.front()->time;
    double hi = lo;
    for (const EventNode* head : rebuild_scratch_)
      if (std::isfinite(head->time)) hi = head->time;  // sorted: last finite
    const double span = hi - lo;
    if (span > 0.0)
      width = 2.0 * span / static_cast<double>(rebuild_scratch_.size());
    width = std::max(width, std::max(std::abs(hi), 1.0) * 1e-12);
  }
  width_ = width;
  now_day_ = global_slot(now_);

  // Heads are sorted, so each one links at its new bucket's tail. Only
  // heads get a fresh day: a follower's is never read before it is
  // promoted, and promotion hands it the head's.
  for (EventNode* head : rebuild_scratch_) {
    head->day = global_slot(head->time);
    link_head(buckets_[head->day & bucket_mask_], head, nullptr);
  }
  rebuild_scratch_.clear();
}

void Engine::maybe_shrink() {
  if (num_buckets_ > kMinBuckets && group_count_ < num_buckets_ / 2)
    rebuild(num_buckets_ / 2);
}

EventId Engine::schedule_at(Time t, Callback cb) {
  // A past time would break find_min's scan up from now(), and the head
  // position of now()'s group; NaN compares false both ways.
  if (!(t >= now_)) {
    char what[128];
    std::snprintf(what, sizeof what,
                  "sim::Engine::schedule_at: time %.17g is before now() %.17g",
                  t, now_);
    throw std::invalid_argument(what);
  }
  EventNode* node = acquire_node();
  node->time = t;
  node->callback = std::move(cb);
  bucket_insert(node);
  ++pending_count_;
  const EventId id{(static_cast<std::uint64_t>(node->slot) << 32) | node->gen};
  if (group_count_ > num_buckets_ * 2 && num_buckets_ < kMaxBuckets)
    rebuild(num_buckets_ * 2);
  return id;
}

EventId Engine::schedule_after(Time dt, Callback cb) {
  return schedule_at(now_ + dt, std::move(cb));
}

void Engine::cancel(EventId id) {
  if (id.value == 0) return;
  const auto slot = static_cast<std::uint32_t>(id.value >> 32);
  const auto gen = static_cast<std::uint32_t>(id.value);
  if (slot >= slabs_.size() * kSlabSize) return;
  EventNode* node = &slabs_[slot >> kSlabShift][slot & (kSlabSize - 1)];
  // A stale id (event already fired, or cancelled and the slot reused) fails
  // the generation check; a free slot additionally fails `linked`.
  if (!node->linked || node->gen != gen) return;
  bucket_unlink(node);
  --pending_count_;
  release_node(node);
  if (cancelled_counter_ != nullptr) cancelled_counter_->add();
  maybe_shrink();
}

Engine::QueueStats Engine::queue_stats() const noexcept {
  QueueStats stats;
  stats.pending = pending_count_;
  stats.buckets = num_buckets_;
  stats.bucket_width = width_;
  stats.pool_capacity = slabs_.size() * kSlabSize;
  return stats;
}

void Engine::set_recorder(obs::Recorder* recorder) {
  if (recorder == nullptr) {
    events_counter_ = nullptr;
    cancelled_counter_ = nullptr;
    return;
  }
  events_counter_ = &recorder->metrics().counter("sim.events");
  cancelled_counter_ = &recorder->metrics().counter("sim.cancelled");
}

void Engine::spawn(Task task) {
  const Task::Handle handle = task.release(*this);
  handles_.insert(handle.address());
  schedule_after(0.0, [this, handle] { resume_coroutine(handle); });
}

void Engine::resume_coroutine(std::coroutine_handle<> handle) {
  handle.resume();
}

void Engine::reap_process(std::coroutine_handle<> handle) noexcept {
  handles_.erase(handle.address());
  handle.destroy();
}

void Engine::note_exception(std::exception_ptr ep) noexcept {
  if (!pending_exception_) pending_exception_ = ep;
}

bool Engine::step(Time limit) {
  EventNode* node = find_min();
  if (node == nullptr || stop_requested_) return false;
  if (node->time > limit) return false;
  bucket_unlink(node);
  --pending_count_;
  assert(node->time >= now_ && node->day == global_slot(node->time));
  now_ = node->time;
  now_day_ = node->day;
  ++events_processed_;
  if (events_counter_ != nullptr) events_counter_->add();
  if (time_log_ != nullptr) time_log_->push_back(now_);
  Callback callback = std::move(node->callback);
  release_node(node);  // the node is reusable while its callback runs
  maybe_shrink();
  callback();
  if (pending_exception_) {
    auto ep = std::exchange(pending_exception_, nullptr);
    std::rethrow_exception(ep);
  }
  return true;
}

std::size_t Engine::run() {
  return run_until(std::numeric_limits<Time>::infinity());
}

std::size_t Engine::run_until(Time t) {
  std::size_t processed = 0;
  while (step(t)) ++processed;
  if (!stop_requested_ && std::isfinite(t) && t > now_) {
    now_ = t;
    now_day_ = global_slot(t);
  }
  return processed;
}

}  // namespace redcr::sim

// Deterministic discrete-event simulation engine.
//
// The engine owns a time-ordered event queue and a registry of coroutine
// processes (sim::Task). Events scheduled for the same timestamp run in
// scheduling order, so a run is a pure function of its inputs — the
// reproducibility property the experiment harness depends on.
//
// Queue implementation: a bucketed calendar queue (Brown, CACM 1988) over
// slab-pooled intrusive event nodes. Events hash into power-of-two time
// buckets of width `width_`. Each bucket keeps a doubly-linked list of group
// heads, one per distinct pending timestamp, sorted by time; each head leads
// a ring of every event at its timestamp in scheduling order. A new event is
// always the latest scheduled, so it joins the back of its timestamp's ring,
// and the ring order is the FIFO tie-break: the dequeue order is exactly the
// (time, seq) min-heap order of the original std::priority_queue engine, so
// runs stay bit-identical. An event at now() joins now()'s group, which
// always heads now()'s bucket, in O(1). Cancellation unlinks the node in
// place (O(1)) instead of leaving a tombstone, and nodes are recycled
// through a free list, so the steady-state hot path performs no heap
// allocation per event.
//
// Lifetime model: simulated processes are spawned into the engine and
// destroyed either when they finish or when the engine is destroyed. An
// experiment "episode" (run until job failure, then restart) is expressed by
// building a fresh engine per episode — mirroring the paper's methodology
// where a job-killing fault tears the whole MPI application down and the
// restart relaunches every process.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

namespace redcr::obs {
class Counter;
class Recorder;
}  // namespace redcr::obs

namespace redcr::sim {

/// Simulated time, in seconds since episode start.
using Time = double;

class Task;

/// Identifies a scheduled event so it can be cancelled. Encodes the pool
/// slot plus a generation counter, so a stale id (already fired or already
/// cancelled, slot since reused) is recognized and ignored.
struct EventId {
  std::uint64_t value = 0;
};

class Engine {
 public:
  using Callback = std::function<void()>;

  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current simulated time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `cb` at absolute time `t`. Throws std::invalid_argument,
  /// leaving the queue untouched, unless t >= now() (so NaN is rejected).
  EventId schedule_at(Time t, Callback cb);

  /// Schedules `cb` after a relative delay `dt`; a negative or NaN `dt`
  /// throws like schedule_at.
  EventId schedule_after(Time dt, Callback cb);

  /// Cancels a pending event; cancelling an already-fired or unknown id is a
  /// no-op. Cancellation is O(1): the node is unlinked from its bucket and
  /// returned to the pool immediately — no tombstones, no residue.
  void cancel(EventId id);

  /// Registers a coroutine process and schedules its first step at now().
  void spawn(Task task);

  /// Runs until the queue is empty or a stop is requested. Returns the
  /// number of events processed by this call. Rethrows the first exception
  /// escaping a simulated process.
  std::size_t run();

  /// Runs events with timestamp <= `t`; afterwards now() == t unless the
  /// run was stopped earlier. Returns events processed.
  std::size_t run_until(Time t);

  /// Makes run()/run_until() return after the current event completes.
  void request_stop() noexcept { stop_requested_ = true; }
  [[nodiscard]] bool stop_requested() const noexcept { return stop_requested_; }
  /// Clears a previous stop request so the engine can be driven further.
  void clear_stop() noexcept { stop_requested_ = false; }

  /// Total events processed over the engine's lifetime.
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return events_processed_;
  }

  /// Number of spawned processes that have not yet finished.
  [[nodiscard]] std::size_t live_processes() const noexcept {
    return handles_.size();
  }

  /// Events currently scheduled and not yet fired or cancelled.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return pending_count_;
  }

  /// Calendar-queue / pool introspection for tests.
  struct QueueStats {
    std::size_t pending = 0;        ///< events scheduled and live
    std::size_t buckets = 0;        ///< current calendar size (power of two)
    double bucket_width = 0.0;      ///< seconds of simulated time per bucket
    std::size_t pool_capacity = 0;  ///< event nodes ever allocated
  };
  [[nodiscard]] QueueStats queue_stats() const noexcept;

  /// Attaches an observability recorder (nullptr detaches). The engine
  /// feeds the "sim.events" and "sim.cancelled" counters; one branch per
  /// event when detached.
  void set_recorder(obs::Recorder* recorder);

  /// Attaches an append-only log of processed-event timestamps (nullptr
  /// detaches; not owned). The fast-forward prototypes use it to answer
  /// "how many events fired strictly before t" and to detect timestamp
  /// collisions; one branch per event when detached.
  void set_time_log(std::vector<Time>* log) noexcept { time_log_ = log; }

  // --- Coroutine plumbing (used by Task, CoTask and the awaitables) -----

  /// Resumes a suspended coroutine. Every suspension point receives at most
  /// one scheduled resume (one-shot events latch; delays fire once), so the
  /// handle is always valid here.
  void resume_coroutine(std::coroutine_handle<> handle);

  /// Unregisters and destroys a finished top-level process frame. Called
  /// from Task's final awaiter while the frame is suspended.
  void reap_process(std::coroutine_handle<> handle) noexcept;

  /// Stores an exception thrown by a process; rethrown by run().
  void note_exception(std::exception_ptr ep) noexcept;

 private:
  /// Pooled intrusive event node. A pending node is either a group head,
  /// linked into its bucket's list of heads (prev/next), or a follower, in
  /// no bucket list (prev/next null); either way it sits in its timestamp's
  /// ring (tie_prev/tie_next, the head's tie_prev being the newest member).
  /// An idle node is on the free list (next only). `gen` advances every time
  /// the node is released, invalidating outstanding EventIds that still
  /// point at the slot. `day` is global_slot(time), stored at insertion; a
  /// rebuild refreshes it on heads only, and a follower promoted to head
  /// takes its head's, so a head's `day` is always current.
  struct EventNode {
    Time time = 0.0;
    std::uint64_t day = 0;
    EventNode* prev = nullptr;
    EventNode* next = nullptr;
    EventNode* tie_prev = nullptr;
    EventNode* tie_next = nullptr;
    std::uint32_t slot = 0;  // index into the slab pool
    std::uint32_t gen = 1;   // never 0, so EventId{0} is always invalid
    bool linked = false;     // in a bucket (pending) vs free/firing
    bool head = false;       // heads its timestamp's group
    Callback callback;
  };
  struct Bucket {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };

  static constexpr std::uint32_t kSlabShift = 10;
  static constexpr std::uint32_t kSlabSize = 1u << kSlabShift;  // nodes/slab
  static constexpr std::size_t kMinBuckets = 4;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;

  /// Global bucket-ring slot, or day, of time `t` (year * buckets + bucket):
  /// t / width, truncated. Huge and infinite times park in a saturated
  /// far-future slot. Nodes and now() cache theirs, so the scan and unlink
  /// never divide.
  [[nodiscard]] std::uint64_t global_slot(Time t) const noexcept;

  EventNode* acquire_node();
  void release_node(EventNode* node) noexcept;
  void grow_pool();

  void bucket_insert(EventNode* node) noexcept;
  /// Links group head `head` into `bucket`'s list before `before` (nullptr:
  /// at the tail). Its ring is left as it is.
  void link_head(Bucket& bucket, EventNode* head, EventNode* before) noexcept;
  void bucket_unlink(EventNode* node) noexcept;

  /// The pending event that fires next, or nullptr. Scans the calendar ring
  /// from now()'s bucket, comparing the heads' stored days; falls back to a
  /// direct search when nothing is due within one full ring revolution.
  [[nodiscard]] EventNode* find_min() noexcept;

  /// Re-buckets every group into `new_buckets` buckets with a fresh width
  /// estimate, rings intact, and recomputes now()'s and every head's day.
  /// Deterministic: depends only on the queue contents.
  void rebuild(std::size_t new_buckets);
  void maybe_shrink();

  /// Pops and executes one event; returns false if queue empty/stop.
  bool step(Time limit);

  Time now_ = 0.0;
  std::uint64_t now_day_ = 0;  // global_slot(now_) under the current width
  std::uint64_t events_processed_ = 0;
  bool stop_requested_ = false;

  std::vector<Bucket> buckets_;
  std::size_t num_buckets_ = kMinBuckets;
  std::size_t bucket_mask_ = kMinBuckets - 1;
  double width_ = 1.0;
  std::size_t pending_count_ = 0;  // events
  std::size_t group_count_ = 0;    // distinct pending timestamps

  std::vector<std::unique_ptr<EventNode[]>> slabs_;
  EventNode* free_head_ = nullptr;
  std::vector<EventNode*> rebuild_scratch_;

  std::unordered_set<void*> handles_;  // live process coroutine frames
  std::exception_ptr pending_exception_;
  obs::Counter* events_counter_ = nullptr;     // cached registry handles
  obs::Counter* cancelled_counter_ = nullptr;  // (null when no recorder)
  std::vector<Time>* time_log_ = nullptr;      // fast-forward prototype log
};

}  // namespace redcr::sim

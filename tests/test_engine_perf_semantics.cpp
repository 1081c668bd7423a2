// Semantics guard for the hot-path engine overhaul.
//
// The calendar-queue scheduler, the slab pool, the open-addressed tables and
// the batch model evaluator all promise the same thing: faster, but
// bit-identical. These tests pin that promise:
//
//   * randomized schedule/cancel/run scripts executed in lockstep on
//     sim::Engine and on an in-test reference scheduler (a (time, seq)
//     min-heap with tombstone cancellation — the pre-overhaul queue),
//     asserting identical firing order at every step, including a
//     tie-heavy script whose callbacks schedule and cancel same-time events
//     and a script that promotes followers whose stored slot predates a
//     rebuild;
//   * model::evaluate_batch compared bitwise against the scalar predict()
//     loop over the paper's Table 4 grid, serial and threaded;
//   * unit tests for the supporting containers (util::FlatMap64,
//     net::Arena).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "model/batch.hpp"
#include "net/arena.hpp"
#include "sim/engine.hpp"
#include "util/flat_map.hpp"
#include "util/units.hpp"

namespace {

using namespace redcr;

// ---------------------------------------------------------------------------
// Reference scheduler: (time, seq) min-heap + tombstones (a cancelled
// event's callback is cleared and its heap entry skipped when popped). This
// is the engine's pre-calendar-queue event queue, reduced to its ordering
// contract.

class RefScheduler {
 public:
  std::uint64_t schedule_at(double t, std::function<void()> cb) {
    const std::uint64_t seq = next_seq_++;
    heap_.push(Item{t, seq});
    callbacks_.push_back(std::move(cb));
    ++pending_;
    return seq;
  }
  void cancel(std::uint64_t seq) {
    if (seq >= callbacks_.size() || !callbacks_[seq]) return;  // fired/stale
    callbacks_[seq] = nullptr;  // tombstone: the heap entry stays
    --pending_;
  }
  /// Runs events with time <= limit; afterwards now() == limit.
  void run_until(double limit) {
    while (!heap_.empty() && heap_.top().time <= limit) {
      const Item top = heap_.top();
      heap_.pop();
      if (!callbacks_[top.seq]) continue;  // cancelled
      now_ = top.time;
      --pending_;
      // Moved out first: the callback may schedule, growing callbacks_.
      const std::function<void()> callback = std::move(callbacks_[top.seq]);
      callbacks_[top.seq] = nullptr;
      callback();
    }
    if (std::isfinite(limit) && limit > now_) now_ = limit;
  }
  [[nodiscard]] double now() const noexcept { return now_; }
  /// Events scheduled and neither fired nor cancelled.
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

 private:
  struct Item {
    double time;
    std::uint64_t seq;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Item, std::vector<Item>, Later> heap_;
  // By seq; null once fired or cancelled.
  std::vector<std::function<void()>> callbacks_;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;
  double now_ = 0.0;
};

// Deterministic PRNG (SplitMix64) so every test failure reproduces.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// Drives sim::Engine and RefScheduler through one identical randomized
/// script of schedules (with same-time bursts), cancels (live, stale and
/// unknown) and staged run_until advances; asserts the firing sequences
/// match exactly and the calendar queue leaves no cancellation residue.
void run_lockstep_script(std::uint64_t seed) {
  Rng rng{seed};
  sim::Engine engine;
  RefScheduler ref;
  std::vector<int> engine_fired, ref_fired;
  std::vector<sim::EventId> engine_ids;
  std::vector<std::uint64_t> ref_ids;
  int label = 0;

  const auto schedule_one = [&](double t) {
    const int id = label++;
    engine_ids.push_back(
        engine.schedule_at(t, [&, id] { engine_fired.push_back(id); }));
    ref_ids.push_back(
        ref.schedule_at(t, [&, id] { ref_fired.push_back(id); }));
  };

  double horizon = 0.0;
  for (int stage = 0; stage < 12; ++stage) {
    const int scheduled = 40 + static_cast<int>(rng.below(120));
    for (int i = 0; i < scheduled; ++i) {
      // Mix of spread-out times, same-time bursts (integer grid) and a few
      // far-future outliers that land beyond the calendar's dense range.
      double t = horizon + rng.uniform() * 50.0;
      const std::uint64_t kind = rng.below(10);
      if (kind < 3) t = horizon + static_cast<double>(rng.below(8));
      if (kind == 9) t = horizon + 1e7 + rng.uniform() * 1e3;
      schedule_one(t);
    }
    // Cancel a random subset: indices may be pending, already fired (stale)
    // or repeated — all must be no-ops past the first effective cancel.
    const int cancels = static_cast<int>(rng.below(60));
    for (int i = 0; i < cancels; ++i) {
      const std::size_t pick = rng.below(engine_ids.size());
      engine.cancel(engine_ids[pick]);
      ref.cancel(ref_ids[pick]);
    }
    // Unknown ids never registered with the engine are ignored too.
    engine.cancel(sim::EventId{0});
    engine.cancel(sim::EventId{rng.next() | (1ull << 63)});

    horizon += rng.uniform() * 40.0;
    engine.run_until(horizon);
    ref.run_until(horizon);
    ASSERT_EQ(engine_fired, ref_fired) << "diverged at stage " << stage
                                       << " (seed " << seed << ")";
    ASSERT_DOUBLE_EQ(engine.now(), ref.now());
    ASSERT_EQ(engine.pending_events(), ref.pending());
  }
  // Drain everything, far-future outliers included.
  engine.run_until(std::numeric_limits<double>::infinity());
  ref.run_until(std::numeric_limits<double>::infinity());
  ASSERT_EQ(engine_fired, ref_fired) << "diverged at drain (seed " << seed
                                     << ")";
  ASSERT_EQ(engine.pending_events(), 0u);
}

TEST(EnginePerfSemantics, MatchesReferenceHeapAcrossRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) run_lockstep_script(seed);
}

/// One side of the tie-heavy lockstep script: a scheduler plus the state
/// its callbacks act on. Both sides draw the same decisions from their own
/// copy of the seed, in firing order, so they stay in step exactly as long
/// as their firing orders agree. Times sit on a coarse grid or at now(), so
/// most events share a timestamp with others.
template <class Scheduler>
class TiedScript {
 public:
  static constexpr double kGrid = 0.5;

  TiedScript(Scheduler& sched, std::uint64_t seed) : sched_(sched), rng_{seed} {}

  /// Schedules one event at `t`; returns its label (labels count up from 0
  /// in scheduling order on both sides).
  std::size_t schedule(double t) {
    const std::size_t label = ids_.size();
    ids_.push_back(sched_.schedule_at(t, [this, label] { fire(label); }));
    return label;
  }
  void cancel(std::size_t label) { sched_.cancel(ids_[label]); }
  [[nodiscard]] std::size_t labels() const noexcept { return ids_.size(); }
  /// The grid point `steps` grid intervals after now()'s.
  [[nodiscard]] double grid_after(std::uint64_t steps) const {
    return (std::floor(sched_.now() / kGrid) + static_cast<double>(steps)) *
           kGrid;
  }
  Rng& rng() { return rng_; }

  std::vector<std::size_t> fired;

 private:
  void fire(std::size_t label) {
    fired.push_back(label);
    switch (rng_.below(8)) {
      case 0:
      case 1:
      case 2:  // zero-delay children join now()'s group
        for (std::uint64_t k = rng_.below(3); k > 0; --k)
          schedule(sched_.now());
        break;
      case 3:
      case 4:
        schedule(grid_after(1 + rng_.below(4)));
        break;
      case 5: {  // cancel a recent event: pending, fired or already cancelled
        const std::uint64_t window = std::min<std::uint64_t>(ids_.size(), 64);
        cancel(ids_.size() - 1 - rng_.below(window));
        break;
      }
      case 6: {  // a same-time sibling scheduled and cancelled at once
        const std::size_t sibling = schedule(sched_.now());
        schedule(sched_.now());
        cancel(sibling);
        break;
      }
      default:
        break;
    }
  }

  Scheduler& sched_;
  Rng rng_;
  std::vector<decltype(std::declval<Scheduler&>().schedule_at(
      0.0, std::function<void()>{}))>
      ids_;
};

/// Lockstep script for the grouped calendar queue: callbacks schedule at
/// now() and on a coarse grid, cancels hit a group's head, a middle member,
/// its last member and a singleton, and the distinct-timestamp count rises
/// well past twice the bucket count and falls back, so grow and shrink
/// rebuilds run while rings have followers.
void run_tied_lockstep_script(std::uint64_t seed) {
  sim::Engine engine;
  RefScheduler ref;
  TiedScript<sim::Engine> eng_side(engine, seed);
  TiedScript<RefScheduler> ref_side(ref, seed);
  Rng rng{seed ^ 0x5bd1e995u};
  std::size_t max_buckets = 0;

  const auto both_schedule = [&](double t) {
    const std::size_t label = eng_side.schedule(t);
    ref_side.schedule(t);
    return label;
  };
  const auto both_cancel = [&](std::size_t label) {
    eng_side.cancel(label);
    ref_side.cancel(label);
  };

  for (int stage = 0; stage < 10; ++stage) {
    // Rise: many distinct grid times with one to four events each.
    const std::uint64_t distinct = 50 + rng.below(400);
    for (std::uint64_t j = 0; j < distinct; ++j)
      for (std::uint64_t m = 1 + rng.below(4); m > 0; --m)
        both_schedule(eng_side.grid_after(1 + j));
    max_buckets = std::max(max_buckets, engine.queue_stats().buckets);

    // A group of five and a singleton at fresh times; cancel the group's
    // head, its middle member and its last member, then the singleton.
    const double group_time = eng_side.grid_after(distinct) + 0.25;
    std::size_t group[5];
    for (std::size_t& label : group) label = both_schedule(group_time);
    const std::size_t singleton = both_schedule(group_time + 0.125);
    both_cancel(group[0]);
    both_cancel(group[2]);
    both_cancel(group[4]);
    both_cancel(singleton);
    ASSERT_EQ(engine.pending_events(), ref.pending());

    // Random cancels over every label so far: pending, fired or repeated.
    ASSERT_EQ(eng_side.labels(), ref_side.labels());
    for (std::uint64_t i = rng.below(40); i > 0; --i)
      both_cancel(rng.below(eng_side.labels()));

    // Advance part of the way, so the next stage rises from a non-empty
    // queue; now() usually lands between grid points.
    const double limit =
        engine.now() + rng.uniform() * static_cast<double>(distinct) *
                           TiedScript<sim::Engine>::kGrid;
    engine.run_until(limit);
    ref.run_until(limit);
    ASSERT_EQ(eng_side.fired, ref_side.fired)
        << "diverged at stage " << stage << " (seed " << seed << ")";
    ASSERT_DOUBLE_EQ(engine.now(), ref.now());
    ASSERT_EQ(engine.pending_events(), ref.pending());
  }
  engine.run();
  ref.run_until(std::numeric_limits<double>::infinity());
  ASSERT_EQ(eng_side.fired, ref_side.fired) << "diverged at drain (seed "
                                            << seed << ")";
  ASSERT_EQ(engine.pending_events(), 0u);
  ASSERT_EQ(ref.pending(), 0u);
  // The calendar grew well past its minimum and shrank back to it.
  EXPECT_GE(max_buckets, 64u);
  EXPECT_EQ(engine.queue_stats().buckets, 4u);
}

TEST(EnginePerfSemantics, TiedSchedulesMatchReferenceHeap) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed)
    run_tied_lockstep_script(seed);
}

// Lockstep script aimed at the stored days (global slots): rebuilds change
// the bucket width while rings have followers, and heads are then fired or
// cancelled, so followers whose day was computed under an older width are
// promoted. A model of the groups (the live labels of each timestamp, in
// scheduling order) counts those promotions, and the script must make
// some. Each stage also ends with a run_until() that moves now() to a time
// no event had, followed by events scheduled at exactly that time.
TEST(EnginePerfSemantics, FollowersPromotedAfterRebuildsKeepOrder) {
  sim::Engine engine;
  RefScheduler ref;
  std::vector<std::size_t> engine_fired, ref_fired;
  std::vector<sim::EventId> engine_ids;
  std::vector<std::uint64_t> ref_ids;
  std::vector<double> time_of, width_of;  // by label
  std::vector<bool> live;                 // by label
  std::map<double, std::deque<std::size_t>> groups;  // live labels per time
  // The width as of the last call into the engine: a pop or cancel unlinks
  // (and promotes) before any shrink that call makes, and an insert
  // computes its day before any grow.
  double width = engine.queue_stats().bucket_width;
  std::size_t stale_promotions = 0;

  const auto observe = [&] { width = engine.queue_stats().bucket_width; };
  const auto leave = [&](std::size_t label) {
    live[label] = false;
    const auto group = groups.find(time_of[label]);
    std::deque<std::size_t>& members = group->second;
    const bool was_head = members.front() == label;
    members.erase(std::find(members.begin(), members.end(), label));
    if (members.empty())
      groups.erase(group);
    else if (was_head && width_of[members.front()] != width)
      ++stale_promotions;
  };
  const auto schedule = [&](double t) {
    const std::size_t label = time_of.size();
    time_of.push_back(t);
    width_of.push_back(width);
    live.push_back(true);
    groups[t].push_back(label);
    engine_ids.push_back(engine.schedule_at(t, [&, label] {
      engine_fired.push_back(label);
      leave(label);
      observe();
    }));
    ref_ids.push_back(
        ref.schedule_at(t, [&, label] { ref_fired.push_back(label); }));
    observe();
  };
  const auto cancel = [&](std::size_t label) {
    if (live[label]) leave(label);
    engine.cancel(engine_ids[label]);
    ref.cancel(ref_ids[label]);
    observe();
  };

  Rng rng{0x5eed};
  for (int stage = 0; stage < 8; ++stage) {
    // Rise: distinct grid times with two to four events each; the calendar
    // grows (and re-derives its width) several times on the way.
    const double base = engine.now();
    const std::uint64_t distinct = 100 + rng.below(300);
    for (std::uint64_t j = 0; j < distinct; ++j)
      for (std::uint64_t m = 2 + rng.below(3); m > 0; --m)
        schedule(base + 1.0 + 0.5 * static_cast<double>(j));
    // Cancels hit heads, followers, and fired or cancelled labels.
    for (std::uint64_t i = rng.below(80); i > 0; --i)
      cancel(rng.below(time_of.size()));
    ASSERT_EQ(engine.pending_events(), ref.pending());

    // Fire part of the queue (shrinks re-derive the width again), ending
    // between two grid points after a hole of several bucket widths, so
    // run_until() moves now() to a slot no event had.
    const double limit =
        base + 1.25 + 0.5 * static_cast<double>(rng.below(distinct));
    for (std::size_t label = 0; label < time_of.size(); ++label)
      if (live[label] && time_of[label] > limit - 8.0 && time_of[label] < limit)
        cancel(label);
    engine.run_until(limit);
    ref.run_until(limit);
    observe();
    ASSERT_EQ(engine_fired, ref_fired)
        << "diverged at stage " << stage << " (" << stale_promotions
        << " stale promotions so far)";
    ASSERT_EQ(engine.now(), limit);
    // A group at exactly that time, with a follower, fired at once.
    schedule(limit);
    schedule(limit);
    engine.run_until(limit);
    ref.run_until(limit);
    observe();
    ASSERT_EQ(engine_fired, ref_fired) << "diverged at now() of stage "
                                       << stage;
  }
  engine.run();
  ref.run_until(std::numeric_limits<double>::infinity());
  ASSERT_EQ(engine_fired, ref_fired) << "diverged at drain";
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_TRUE(groups.empty());
  EXPECT_GT(stale_promotions, 0u);
}

TEST(EnginePerfSemantics, SameTimeBurstsFireInScheduleOrder) {
  sim::Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 1000; ++i)
    engine.schedule_at(5.0, [&order, i] { order.push_back(i); });
  // One timestamp is one group: the calendar sizes itself by distinct
  // pending timestamps, so a same-time burst never grows it.
  EXPECT_EQ(engine.queue_stats().pending, 1000u);
  EXPECT_EQ(engine.queue_stats().buckets, 4u);
  engine.run();
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[i], i);
}

TEST(EnginePerfSemantics, CallbackSchedulingDuringRunKeepsOrder) {
  // Events scheduled from inside callbacks (the dominant pattern in the
  // simulator) must interleave exactly like the reference heap.
  sim::Engine engine;
  RefScheduler ref;
  std::vector<int> engine_fired, ref_fired;
  std::function<void(double, int)> engine_chain = [&](double t, int depth) {
    engine.schedule_at(t, [&, t, depth] {
      engine_fired.push_back(depth);
      if (depth < 400) {
        engine_chain(t + 0.25, depth + 1);
        engine_chain(t + 0.25, depth + 1000);  // same-time sibling
      }
    });
  };
  std::function<void(double, int)> ref_chain = [&](double t, int depth) {
    ref.schedule_at(t, [&, t, depth] {
      ref_fired.push_back(depth);
      if (depth < 400) {
        ref_chain(t + 0.25, depth + 1);
        ref_chain(t + 0.25, depth + 1000);
      }
    });
  };
  engine_chain(0.0, 0);
  ref_chain(0.0, 0);
  engine.run();
  ref.run_until(std::numeric_limits<double>::infinity());
  EXPECT_EQ(engine_fired, ref_fired);
}

TEST(EnginePerfSemantics, QueueStatsTrackPendingAndPool) {
  sim::Engine engine;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 3000; ++i)
    ids.push_back(engine.schedule_at(static_cast<double>(i), [] {}));
  const sim::Engine::QueueStats full = engine.queue_stats();
  EXPECT_EQ(full.pending, 3000u);
  EXPECT_GE(full.pool_capacity, 3000u);
  EXPECT_GE(full.buckets, 4u);
  for (int i = 0; i < 3000; i += 2) engine.cancel(ids[i]);
  EXPECT_EQ(engine.queue_stats().pending, 1500u);
  engine.run();
  EXPECT_EQ(engine.queue_stats().pending, 0u);
  EXPECT_EQ(engine.events_processed(), 1500u);
}

// ---------------------------------------------------------------------------
// Batch evaluator vs scalar predict over the paper's Table 4 grid.

std::vector<model::BatchPoint> table4_grid(double r_step) {
  std::vector<model::BatchPoint> points;
  for (const double mtbf_hours : {6.0, 12.0, 18.0, 24.0, 30.0}) {
    for (const auto failure_model : {model::NodeFailureModel::kLinearized,
                                     model::NodeFailureModel::kExactExponential}) {
      model::CombinedConfig cfg;
      cfg.app.base_time = util::minutes(46);
      cfg.app.comm_fraction = 0.2;
      cfg.app.num_procs = 128;
      cfg.machine.node_mtbf = util::hours(mtbf_hours);
      cfg.machine.checkpoint_cost = 120.0;
      cfg.machine.restart_cost = 500.0;
      cfg.failure_model = failure_model;
      for (double r = 1.0; r <= 3.0 + 1e-9; r += r_step)
        points.push_back(model::BatchPoint{cfg, std::min(r, 3.0)});
    }
  }
  return points;
}

void expect_bitwise_equal(const model::Prediction& a,
                          const model::Prediction& b) {
  // memcmp over the double prefix: bitwise, so -0.0 vs 0.0 or differently
  // rounded last bits fail loudly.
  EXPECT_EQ(std::memcmp(&a, &b, offsetof(model::Prediction, total_procs)), 0);
  EXPECT_EQ(a.total_procs, b.total_procs);
}

TEST(BatchEvaluator, BitwiseEqualToScalarPredictOnTable4Grid) {
  const std::vector<model::BatchPoint> points = table4_grid(0.25);
  model::BatchOptions serial;
  serial.jobs = 1;
  const std::vector<model::Prediction> batch =
      model::evaluate_batch(points, serial);
  ASSERT_EQ(batch.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    expect_bitwise_equal(batch[i], model::predict(points[i].config,
                                                  points[i].r));
}

TEST(BatchEvaluator, ThreadedMatchesSerialOnDenseGrid) {
  // Dense grid so the worker pool actually engages (the evaluator refuses
  // to spawn threads for tiny batches).
  const std::vector<model::BatchPoint> points = table4_grid(0.002);
  ASSERT_GE(points.size(), 2048u);
  model::BatchOptions serial;
  serial.jobs = 1;
  model::BatchOptions threaded;
  threaded.jobs = 4;
  const std::vector<model::Prediction> a =
      model::evaluate_batch(points, serial);
  const std::vector<model::Prediction> b =
      model::evaluate_batch(points, threaded);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_bitwise_equal(a[i], b[i]);
}

TEST(BatchEvaluator, SimplifiedModeMatchesScalar) {
  const std::vector<model::BatchPoint> points = table4_grid(0.25);
  model::BatchOptions options;
  options.jobs = 1;
  options.simplified = true;
  const std::vector<model::Prediction> batch =
      model::evaluate_batch(points, options);
  for (std::size_t i = 0; i < points.size(); ++i)
    expect_bitwise_equal(batch[i], model::predict_simplified(points[i].config,
                                                             points[i].r));
}

TEST(BatchEvaluator, DegreeConvenienceOverloadMatches) {
  model::CombinedConfig cfg;
  cfg.app.num_procs = 1000;
  const std::vector<double> degrees = {1.0, 1.25, 1.5, 2.0, 2.75, 3.0};
  const std::vector<model::Prediction> batch =
      model::evaluate_batch(cfg, degrees);
  ASSERT_EQ(batch.size(), degrees.size());
  for (std::size_t i = 0; i < degrees.size(); ++i)
    expect_bitwise_equal(batch[i], model::predict(cfg, degrees[i]));
}

TEST(BatchEvaluator, EmptyBatchReturnsEmpty) {
  EXPECT_TRUE(model::evaluate_batch(std::vector<model::BatchPoint>{}).empty());
}

TEST(SphereTermCache, WarmThenLookupIsBitwiseStable) {
  model::SphereTermCache cache;
  const double pf = 0.0123456789;
  const double warmed = cache.warm(pf, 2);
  EXPECT_EQ(warmed, model::log_sphere_survival(pf, 2));
  EXPECT_EQ(cache.lookup(pf, 2), warmed);
  // Uncached (pf, degree) pairs fall through to the direct computation.
  EXPECT_EQ(cache.lookup(0.5, 3), model::log_sphere_survival(0.5, 3));
  // Degrees beyond the cache ceiling are computed directly, not cached.
  EXPECT_EQ(cache.warm(pf, 60), model::log_sphere_survival(pf, 60));
  EXPECT_EQ(cache.distinct_pf(), 1u);
}

// ---------------------------------------------------------------------------
// Supporting containers.

TEST(FlatMap64, InsertFindGrowAndDefault) {
  util::FlatMap64<int> map;
  EXPECT_TRUE(map.empty());
  // operator[] default-constructs; keys survive growth.
  for (std::uint64_t k = 0; k < 1000; ++k) map[k * 0x9e3779b97f4a7c15ull] = static_cast<int>(k);
  EXPECT_EQ(map.size(), 1000u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const int* v = map.find(k * 0x9e3779b97f4a7c15ull);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, static_cast<int>(k));
  }
  EXPECT_EQ(map.find(0xdeadbeefcafef00dull), nullptr);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(0), nullptr);
}

TEST(FlatMap64, HandlesAdversarialKeys) {
  // Keys that collide modulo small powers of two must still resolve.
  util::FlatMap64<std::uint64_t> map;
  for (std::uint64_t k = 0; k < 256; ++k) map[k << 32] = k;
  for (std::uint64_t k = 0; k < 256; ++k) {
    const std::uint64_t* v = map.find(k << 32);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, k);
  }
  // Key 0 is a valid key (the empty sentinel is ~0).
  map[0] = 777;
  ASSERT_NE(map.find(0), nullptr);
  EXPECT_EQ(*map.find(0), 777u);
}

TEST(Arena, AcquireReleaseReuseAndStability) {
  net::Arena<std::string> arena;
  const std::uint32_t a = arena.acquire();
  const std::uint32_t b = arena.acquire();
  arena.at(a) = "alpha";
  arena.at(b) = "beta";
  std::string* pa = &arena.at(a);
  // Growing the arena must not move existing slots (chunked storage).
  std::vector<std::uint32_t> more;
  for (int i = 0; i < 2000; ++i) more.push_back(arena.acquire());
  EXPECT_EQ(&arena.at(a), pa);
  EXPECT_EQ(arena.at(a), "alpha");
  EXPECT_EQ(arena.in_use(), 2002u);
  // Release resets the slot to a default-constructed value and recycles it.
  arena.release(b);
  const std::uint32_t reused = arena.acquire();
  EXPECT_EQ(reused, b);  // LIFO free list
  EXPECT_TRUE(arena.at(reused).empty());
  for (const std::uint32_t slot : more) arena.release(slot);
  arena.release(a);
  arena.release(reused);
  EXPECT_EQ(arena.in_use(), 0u);
}

}  // namespace

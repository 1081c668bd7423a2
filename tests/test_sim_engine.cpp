// Unit tests for the discrete-event engine and coroutine plumbing.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/cotask.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace redcr::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0.0);
  EXPECT_EQ(engine.events_processed(), 0u);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(5.0, [&] { order.push_back(2); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(9.0, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 9.0);
}

TEST(Engine, SameTimestampIsFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    engine.schedule_at(1.0, [&order, i] { order.push_back(i); });
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool ran = false;
  const EventId id = engine.schedule_at(1.0, [&] { ran = true; });
  engine.cancel(id);
  engine.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, CancelUnknownIdIsNoop) {
  Engine engine;
  engine.cancel(EventId{12345});
  bool ran = false;
  engine.schedule_at(1.0, [&] { ran = true; });
  engine.run();
  EXPECT_TRUE(ran);
}

TEST(Engine, RejectsTimesBeforeNow) {
  // The precondition t >= now() holds in every build type, NDEBUG included:
  // a past or NaN time would silently corrupt the queue's scan order.
  Engine engine;
  engine.schedule_at(3.0, [] {});
  engine.schedule_at(3.0, [] {});
  engine.run_until(2.0);
  ASSERT_EQ(engine.pending_events(), 2u);
  EXPECT_THROW(engine.schedule_at(1.5, [] {}), std::invalid_argument);
  EXPECT_THROW(engine.schedule_at(std::numeric_limits<double>::quiet_NaN(),
                                  [] {}),
               std::invalid_argument);
  EXPECT_THROW(engine.schedule_after(-0.5, [] {}), std::invalid_argument);
  EXPECT_THROW(engine.schedule_after(std::numeric_limits<double>::quiet_NaN(),
                                     [] {}),
               std::invalid_argument);
  EXPECT_EQ(engine.pending_events(), 2u);
  // now() itself and +inf are valid times.
  engine.schedule_at(2.0, [] {});
  engine.schedule_at(std::numeric_limits<double>::infinity(), [] {});
  EXPECT_EQ(engine.run(), 4u);
}

Task negative_delay(Engine& engine) { co_await delay(engine, -1.0); }

TEST(Task, NegativeDelayThrowsFromRun) {
  Engine engine;
  engine.spawn(negative_delay(engine));
  EXPECT_THROW(engine.run(), std::invalid_argument);
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(Engine, RunUntilStopsAtLimit) {
  Engine engine;
  std::vector<double> times;
  for (double t : {1.0, 2.0, 3.0, 4.0})
    engine.schedule_at(t, [&times, &engine] { times.push_back(engine.now()); });
  engine.run_until(2.5);
  EXPECT_EQ(times.size(), 2u);
  EXPECT_EQ(engine.now(), 2.5);
  engine.run();
  EXPECT_EQ(times.size(), 4u);
}

TEST(Engine, EventsScheduledDuringRunExecute) {
  Engine engine;
  int hits = 0;
  engine.schedule_at(1.0, [&] {
    ++hits;
    engine.schedule_after(1.0, [&] { ++hits; });
  });
  engine.run();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(engine.now(), 2.0);
}

TEST(Engine, StopRequestHaltsRun) {
  Engine engine;
  int hits = 0;
  engine.schedule_at(1.0, [&] {
    ++hits;
    engine.request_stop();
  });
  engine.schedule_at(2.0, [&] { ++hits; });
  engine.run();
  EXPECT_EQ(hits, 1);
  engine.clear_stop();
  engine.run();
  EXPECT_EQ(hits, 2);
}

Task simple_process(Engine& engine, std::vector<double>& trace) {
  trace.push_back(engine.now());
  co_await delay(engine, 2.0);
  trace.push_back(engine.now());
  co_await delay(engine, 3.0);
  trace.push_back(engine.now());
}

TEST(Task, DelayAdvancesSimTime) {
  Engine engine;
  std::vector<double> trace;
  engine.spawn(simple_process(engine, trace));
  engine.run();
  EXPECT_EQ(trace, (std::vector<double>{0.0, 2.0, 5.0}));
  EXPECT_EQ(engine.live_processes(), 0u) << "finished task must be reaped";
}

Task waiter(Engine& engine, OneShotEvent& event, std::vector<double>& log) {
  co_await event.wait();
  log.push_back(engine.now());
}

Task triggerer(Engine& engine, OneShotEvent& event) {
  co_await delay(engine, 7.0);
  event.trigger(engine);
}

TEST(Task, OneShotEventWakesAllWaiters) {
  Engine engine;
  OneShotEvent event;
  std::vector<double> log;
  engine.spawn(waiter(engine, event, log));
  engine.spawn(waiter(engine, event, log));
  engine.spawn(triggerer(engine, event));
  engine.run();
  EXPECT_EQ(log, (std::vector<double>{7.0, 7.0}));
}

Task numbered_waiter(OneShotEvent& event, int id, std::vector<int>& order) {
  co_await event.wait();
  order.push_back(id);
}

TEST(Task, OneShotEventWakesWaitersInAwaitOrder) {
  // The first waiter is held inline and later ones spill to a vector; all
  // of them still wake in the order they started waiting.
  Engine engine;
  OneShotEvent event;
  std::vector<int> order;
  for (int id = 0; id < 5; ++id)
    engine.spawn(numbered_waiter(event, id, order));
  engine.spawn(triggerer(engine, event));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(engine.now(), 7.0);
}

TEST(Task, AwaitingTriggeredEventCompletesImmediately) {
  Engine engine;
  OneShotEvent event;
  event.trigger(engine);
  std::vector<double> log;
  engine.spawn(waiter(engine, event, log));
  engine.run();
  EXPECT_EQ(log, (std::vector<double>{0.0}));
}

CoTask<int> add_later(Engine& engine, int a, int b) {
  co_await delay(engine, 1.0);
  co_return a + b;
}

CoTask<int> nested(Engine& engine) {
  const int x = co_await add_later(engine, 1, 2);
  const int y = co_await add_later(engine, x, 10);
  co_return y;
}

Task cotask_driver(Engine& engine, int& out) {
  out = co_await nested(engine);
}

TEST(CoTask, NestedSubCoroutinesReturnValues) {
  Engine engine;
  int out = 0;
  engine.spawn(cotask_driver(engine, out));
  engine.run();
  EXPECT_EQ(out, 13);
  EXPECT_EQ(engine.now(), 2.0);
}

CoTask<void> throws_deep(Engine& engine) {
  co_await delay(engine, 1.0);
  throw std::runtime_error("deep failure");
}

Task exception_driver(Engine& engine, std::string& caught) {
  try {
    co_await throws_deep(engine);
  } catch (const std::runtime_error& e) {
    caught = e.what();
  }
}

TEST(CoTask, ExceptionsPropagateToAwaiter) {
  Engine engine;
  std::string caught;
  engine.spawn(exception_driver(engine, caught));
  engine.run();
  EXPECT_EQ(caught, "deep failure");
}

Task throws_top(Engine& engine) {
  co_await delay(engine, 1.0);
  throw std::runtime_error("top-level failure");
}

TEST(Task, UncaughtExceptionSurfacesFromRun) {
  Engine engine;
  engine.spawn(throws_top(engine));
  EXPECT_THROW(engine.run(), std::runtime_error);
}

Task sleeper_forever(Engine& engine, OneShotEvent& never) {
  co_await never.wait();
  co_await delay(engine, 1.0);
}

TEST(Engine, TeardownDestroysSuspendedProcesses) {
  // Destroying an engine with live suspended coroutines must not leak or
  // crash (ASAN would flag it); the registry owns the frames.
  OneShotEvent never;
  {
    Engine engine;
    engine.spawn(sleeper_forever(engine, never));
    engine.run();
    EXPECT_EQ(engine.live_processes(), 1u);
  }
}

TEST(Engine, StaleCancelsLeaveNoTombstones) {
  // Regression: cancel() once inserted a tombstone unconditionally, so
  // cancelling already-fired or unknown ids (the failure injector does this
  // every checkpoint) grew the cancelled set without bound over a long run.
  // The calendar queue cancels in place, so no residue exists at any point.
  Engine engine;
  const EventId fired = engine.schedule_at(1.0, [] {});
  engine.run();
  const std::size_t pool_before = engine.queue_stats().pool_capacity;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    engine.cancel(fired);                    // stale: already popped
    engine.cancel(EventId{1000000 + i});     // unknown: never scheduled
  }
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.queue_stats().pool_capacity, pool_before);

  // A genuinely pending cancel reclaims the event immediately (idempotently):
  // it leaves the pending queue at once rather than waiting to be popped.
  const EventId pending = engine.schedule_at(2.0, [] {});
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.cancel(pending);
  for (int i = 0; i < 100; ++i) engine.cancel(pending);
  EXPECT_EQ(engine.pending_events(), 0u);
  engine.run();
  EXPECT_EQ(engine.events_processed(), 1u);
}

TEST(Engine, PooledIdsAreNotConfusedAcrossReuse) {
  // An id whose pool slot has been recycled must stay a no-op: the
  // generation tag distinguishes the old tenant from the new one.
  Engine engine;
  bool first_ran = false;
  const EventId first = engine.schedule_at(1.0, [&] { first_ran = true; });
  engine.run();
  EXPECT_TRUE(first_ran);
  // The new event almost certainly reuses the slot `first` lived in.
  bool second_ran = false;
  engine.schedule_at(2.0, [&] { second_ran = true; });
  engine.cancel(first);  // stale id: must not kill the new tenant
  engine.run();
  EXPECT_TRUE(second_ran);
}

TEST(Engine, CancelledEventDoesNotRun) {
  Engine engine;
  bool ran = false;
  const EventId id = engine.schedule_at(1.0, [&] { ran = true; });
  engine.schedule_at(2.0, [] {});
  engine.cancel(id);
  engine.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(engine.now(), 2.0);
}

TEST(Engine, DeterministicEventCounts) {
  auto run_once = [] {
    Engine engine;
    std::vector<double> trace;
    engine.spawn(simple_process(engine, trace));
    OneShotEvent event;
    std::vector<double> log;
    engine.spawn(waiter(engine, event, log));
    engine.spawn(triggerer(engine, event));
    engine.run();
    return engine.events_processed();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace redcr::sim

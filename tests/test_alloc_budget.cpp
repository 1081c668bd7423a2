// Allocation budget of the simulator's hot path. Coroutine frames, request
// states, data payloads and the redundancy layer's copy-sets come from
// util::BlockPool, a physical copy completes through a plain sink (no
// request, no closure), the mailboxes reuse their buffers, and every
// engine callback fits std::function's inline buffer, so a whole
// JobExecutor::run() calls the global operator new far less than once per
// engine event (0.039 here: 1 632 calls for 41 599 events; 0.058 when each
// copy made a request and the mailboxes were deques). A new per-message
// heap allocation anywhere on the path shows up here as one call per event
// or more; the 0.1 bound also catches the quiesce and agreement payloads
// going back to the heap (0.180 when each took a vector and a shared_ptr
// block).
//
// The serve replay has a budget too: heap calls only for plan-cache
// misses, none for hits.
//
// This binary replaces the global operator new/delete with counting
// forwards to malloc/free, which is why it is a test target of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>

#include "apps/serve.hpp"
#include "apps/synthetic.hpp"
#include "runtime/executor.hpp"
#include "util/units.hpp"

namespace {

std::atomic<std::uint64_t> g_operator_new_calls{0};

void* counted_new(std::size_t bytes) {
  g_operator_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_new(bytes); }
void* operator new[](std::size_t bytes) { return counted_new(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace redcr::runtime {
namespace {

/// `redcr_cli run --virtual 16 --redundancy 1.5 --iterations 20
/// --mtbf-hours 1 --seed 7`: the CG-shaped synthetic workload with the
/// CLI's machine defaults, on the event engine, with seeded failures.
JobConfig cg_shaped_job() {
  JobConfig cfg;
  cfg.num_virtual = 16;
  cfg.redundancy = 1.5;
  cfg.network.bandwidth = 100e6;
  cfg.storage.bandwidth = 2e9;
  cfg.image_bytes = 1e9;
  cfg.restart_cost = 500;
  cfg.checkpoint_interval = 300;
  cfg.fail.node_mtbf = util::hours(1);
  cfg.fail.seed = 7;
  return cfg;
}

WorkloadFactory cg_shaped_workload() {
  apps::SyntheticSpec spec;
  spec.iterations = 20;
  spec.compute_per_iteration = 24.0;
  spec.halo_bytes = 300e6;
  return [spec](int, int) {
    return std::make_unique<apps::SyntheticWorkload>(spec);
  };
}

TEST(AllocBudget, JobRunStaysOffTheHeap) {
  // Warm-up: fills this thread's pool lists and any lazily built statics.
  JobConfig warm = cg_shaped_job();
  warm.inject_failures = false;
  (void)JobExecutor(warm, cg_shaped_workload()).run();

  JobExecutor executor(cg_shaped_job(), cg_shaped_workload());
  const std::uint64_t before = g_operator_new_calls.load();
  const JobReport report = executor.run();
  const std::uint64_t calls = g_operator_new_calls.load() - before;

  ASSERT_TRUE(report.completed);
  ASSERT_GT(report.physical_failures, 0) << "the job must exercise failures";
  ASSERT_GT(report.engine_events, 0u);
  const double per_event = static_cast<double>(calls) /
                           static_cast<double>(report.engine_events);
  EXPECT_LT(per_event, 0.1)
      << calls << " operator new calls for " << report.engine_events
      << " engine events";
}

TEST(AllocBudget, ServeReplayAllocatesOnlyForMisses) {
  // A plan-cache hit allocates nothing: the request line is parsed in
  // place, the cache is probed with the request itself, and the response
  // is written into the caller's buffer. A miss allocates six times: its
  // expanded grid, the sweep and its shared block, the key's words, and
  // the LRU and index nodes. The rest is fixed set-up (the request schema,
  // the planner, the latency vector's doublings, index rehashes). A replay
  // of the checked-in log (98 requests, 20 misses) makes 134 calls; it
  // made 423 when every request built its key in two fresh vectors and
  // copied its line.
  std::ifstream in(std::string(REDCR_TEST_DATA_DIR) + "/serve_requests.ndjson");
  std::stringstream log;
  log << in.rdbuf();
  std::string responses;
  (void)apps::serve_replay(log.str(), responses);  // warm-up
  const std::size_t bytes = responses.size();
  responses.clear();  // keeps its capacity

  const std::uint64_t before = g_operator_new_calls.load();
  const apps::ServeReport report =
      apps::serve_replay(log.str(), responses);
  const std::uint64_t calls = g_operator_new_calls.load() - before;

  ASSERT_EQ(responses.size(), bytes);
  ASSERT_EQ(report.requests, 98u);
  ASSERT_GT(report.stats.plan_cache_hits, 3 * report.stats.plan_cache_misses);
  constexpr std::uint64_t kPerMiss = 6;
  constexpr std::uint64_t kFixed = 30;
  EXPECT_LE(calls, kPerMiss * report.stats.plan_cache_misses + kFixed)
      << calls << " operator new calls for " << report.requests
      << " requests, " << report.stats.plan_cache_misses << " misses";
}

}  // namespace
}  // namespace redcr::runtime

#include "redcr/planner.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "model/combined.hpp"
#include "model/redundancy.hpp"

namespace redcr {
namespace {

// Canonical double encoding: collapse -0.0 into +0.0 so numerically equal
// grids hash identically; every other bit pattern (including NaNs) keys
// as-is — requests are compared by what the model would actually see.
std::uint64_t canon(double v) {
  if (v == 0.0) v = 0.0;
  return std::bit_cast<std::uint64_t>(v);
}

// FNV-1a over the canonical words. Collisions are tolerated: the cache
// index compares full keys on lookup (tested in test_planner.cpp).
std::size_t fnv1a(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t w : words) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (w >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return static_cast<std::size_t>(h);
}

std::size_t pick_best(const std::vector<model::Prediction>& sweep) {
  std::size_t best = 0;
  double best_t = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    if (sweep[i].total_time < best_t) {
      best_t = sweep[i].total_time;
      best = i;
    }
  }
  return best;
}

std::vector<double> grid_degrees(const PlanRequest& request) {
  if (!request.degrees.empty()) return request.degrees;
  assert(request.r_begin >= 1.0 && request.r_end >= request.r_begin &&
         request.r_step > 0.0);
  // Integer-counter walk, mirroring model::sweep_redundancy, so the grid
  // carries no accumulated floating-point step error.
  const auto count = static_cast<std::size_t>(std::round(
                         (request.r_end - request.r_begin) / request.r_step)) +
                     1;
  std::vector<double> degrees;
  degrees.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    degrees.push_back(request.r_begin +
                      static_cast<double>(i) * request.r_step);
  return degrees;
}

}  // namespace

Planner::Planner(std::size_t plan_cache_capacity)
    : capacity_(plan_cache_capacity) {}

Planner::~Planner() = default;

Planner::PlanKey Planner::canonical_key(const PlanRequest& request) {
  PlanKey key;
  const model::CombinedConfig& c = request.config;
  key.words.reserve(16 + request.degrees.size());
  key.words.push_back(canon(c.app.base_time));
  key.words.push_back(canon(c.app.comm_fraction));
  key.words.push_back(static_cast<std::uint64_t>(c.app.num_procs));
  key.words.push_back(canon(c.machine.node_mtbf));
  key.words.push_back(canon(c.machine.checkpoint_cost));
  key.words.push_back(canon(c.machine.restart_cost));
  key.words.push_back(static_cast<std::uint64_t>(c.failure_model));
  key.words.push_back(static_cast<std::uint64_t>(c.restart_model));
  key.words.push_back(c.fixed_interval.has_value() ? 1u : 0u);
  key.words.push_back(c.fixed_interval ? canon(*c.fixed_interval) : 0u);
  key.words.push_back(c.use_young_interval ? 1u : 0u);
  key.words.push_back(static_cast<std::uint64_t>(request.mode));
  key.words.push_back(request.simplified ? 1u : 0u);
  // Encode the grid by the degrees it expands to, so an explicit degree
  // list and the equivalent range parameters hit the same entry.
  const std::vector<double> degrees = grid_degrees(request);
  key.words.push_back(degrees.size());
  for (double d : degrees) key.words.push_back(canon(d));
  key.hash = fnv1a(key.words);
  return key;
}

PlanResponse Planner::plan(const PlanRequest& request, int jobs) {
  PlanKey key = canonical_key(request);
  {
    std::lock_guard lock(mutex_);
    ++stats_.plans;
    auto it = index_.find(key);
    if (it != index_.end()) {
      ++stats_.plan_cache_hits;
      lru_.splice(lru_.begin(), lru_, it->second);  // promote to front
      return {it->second->sweep, it->second->best_index, /*from_cache=*/true};
    }
    ++stats_.plan_cache_misses;
  }

  // Evaluate outside the lock: grid evaluation is the expensive part and
  // must not serialize concurrent planners on distinct scenarios.
  model::BatchOptions options;
  options.jobs = jobs;
  options.mode = request.mode;
  options.simplified = request.simplified;
  const std::vector<double> degrees = grid_degrees(request);
  auto sweep = std::make_shared<const std::vector<model::Prediction>>(
      model::evaluate_batch(request.config, degrees, options));
  const std::size_t best = pick_best(*sweep);

  std::lock_guard lock(mutex_);
  stats_.points += sweep->size();
  // Re-check: a concurrent plan() for the same scenario may have landed
  // while we evaluated. First writer wins; both computed identical data.
  auto it = index_.find(key);
  if (it == index_.end()) {
    lru_.push_front(CacheEntry{std::move(key), sweep, best});
    index_.emplace(lru_.front().key, lru_.begin());
    while (capacity_ > 0 && lru_.size() > capacity_) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
      ++stats_.plan_cache_evictions;
    }
  }
  return {std::move(sweep), best, /*from_cache=*/false};
}

model::Prediction Planner::evaluate(const model::CombinedConfig& config,
                                    double r) {
  std::lock_guard lock(mutex_);
  ++stats_.evaluations;
  ++stats_.points;
  // Warm the planner's sphere-term cache, then evaluate through it:
  // repeated queries against the same (pf, degree) terms skip the Eq. 9
  // log/log1p work. Bitwise-identical to predict(config, r): lookup()
  // recomputes exactly what warm() stored.
  const model::Partition part =
      model::partition_processes(config.app.num_procs, r);
  const double t_red = model::redundant_time(config.app, r);
  const double pf = model::node_failure_probability(
      t_red, config.machine.node_mtbf, config.failure_model);
  if (part.n_floor_set > 0) sphere_cache_.warm(pf, part.floor_degree);
  sphere_cache_.warm(pf, part.ceil_degree);
  return model::predict(config, r, &sphere_cache_);
}

Planner::Stats Planner::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace redcr

#include "redcr/planner.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "model/combined.hpp"
#include "model/plan_key.hpp"
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

namespace model {

std::vector<std::uint64_t> plan_key_words(const PlanRequest& request) {
  // Encode the grid by the degrees it expands to, so an explicit degree
  // list and the equivalent range parameters hit the same entry.
  const std::vector<double> degrees = grid_degrees(request);
  std::vector<std::uint64_t> words;
  words.reserve(14 + degrees.size());  // the 14 words below, then the grid
  const CombinedConfig& c = request.config;
  words.push_back(canon(c.app.base_time));
  words.push_back(canon(c.app.comm_fraction));
  words.push_back(static_cast<std::uint64_t>(c.app.num_procs));
  words.push_back(canon(c.machine.node_mtbf));
  words.push_back(canon(c.machine.checkpoint_cost));
  words.push_back(canon(c.machine.restart_cost));
  words.push_back(static_cast<std::uint64_t>(c.failure_model));
  words.push_back(static_cast<std::uint64_t>(c.restart_model));
  words.push_back(c.fixed_interval.has_value() ? 1u : 0u);
  words.push_back(c.fixed_interval ? canon(*c.fixed_interval) : 0u);
  words.push_back(c.use_young_interval ? 1u : 0u);
  words.push_back(static_cast<std::uint64_t>(request.mode));
  words.push_back(request.simplified ? 1u : 0u);
  words.push_back(degrees.size());
  for (double d : degrees) words.push_back(canon(d));
  return words;
}

std::size_t plan_key_hash(std::span<const std::uint64_t> words) noexcept {
  // FNV-1a's xor-then-multiply step over whole words, with a dense odd
  // multiplier (2^64 / golden ratio) so one step carries a word's low bits
  // into the whole upper part. Each step is a bijection of the state for a
  // fixed word, so keys differing in one word never collide. The multiply
  // moves differences only upward; the fold brings the high half down for
  // tables that index by the low bits.
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const std::uint64_t w : words) h = (h ^ w) * 0x9e3779b97f4a7c15ull;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

}  // namespace model

Planner::PlanKey Planner::canonical_key(const PlanRequest& request) {
  PlanKey key;
  key.words = model::plan_key_words(request);
  key.hash = model::plan_key_hash(key.words);
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

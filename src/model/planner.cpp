#include "redcr/planner.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>

#include "model/plan_key.hpp"

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

/// The degrees a request sweeps, read one at a time: the explicit list, or
/// the range's integer-counter walk (mirroring model::sweep_redundancy, so
/// the grid carries no accumulated floating-point step error).
class Grid {
 public:
  explicit Grid(const PlanRequest& request)
      : request_(request), size_(request.degrees.size()) {
    if (size_ == 0) {
      assert(request.r_begin >= 1.0 && request.r_end >= request.r_begin &&
             request.r_step > 0.0);
      size_ = static_cast<std::size_t>(std::round(
                  (request.r_end - request.r_begin) / request.r_step)) +
              1;
    }
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] double operator[](std::size_t i) const {
    return request_.degrees.empty()
               ? request_.r_begin + static_cast<double>(i) * request_.r_step
               : request_.degrees[i];
  }

 private:
  const PlanRequest& request_;
  std::size_t size_;
};

/// The words before the grid's degrees in a canonical key.
constexpr std::size_t kHeaderWords = 14;

/// Calls `emit(word)` for each word of the request's canonical key, in
/// model::plan_key_words order. The grid is encoded by the degrees it
/// expands to, so an explicit degree list and the equivalent range
/// spelling hit the same entry.
template <class Emit>
void for_each_key_word(const PlanRequest& request, const Grid& grid,
                       Emit&& emit) {
  const model::CombinedConfig& c = request.config;
  emit(canon(c.app.base_time));
  emit(canon(c.app.comm_fraction));
  emit(static_cast<std::uint64_t>(c.app.num_procs));
  emit(canon(c.machine.node_mtbf));
  emit(canon(c.machine.checkpoint_cost));
  emit(canon(c.machine.restart_cost));
  emit(static_cast<std::uint64_t>(c.failure_model));
  emit(static_cast<std::uint64_t>(c.restart_model));
  emit(c.fixed_interval.has_value() ? 1u : 0u);
  emit(c.fixed_interval ? canon(*c.fixed_interval) : 0u);
  emit(c.use_young_interval ? 1u : 0u);
  emit(static_cast<std::uint64_t>(request.mode));
  emit(request.simplified ? 1u : 0u);
  emit(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) emit(canon(grid[i]));
}

/// plan_key_hash's state, fed one word at a time: FNV-1a's
/// xor-then-multiply step over whole words, with a dense odd multiplier
/// (2^64 / golden ratio) so one step carries a word's low bits into the
/// whole upper part. Each step is a bijection of the state for a fixed
/// word, so keys differing in one word never collide. The multiply moves
/// differences only upward; the fold brings the high half down for tables
/// that index by the low bits.
class KeyHasher {
 public:
  void add(std::uint64_t w) noexcept { h_ = (h_ ^ w) * 0x9e3779b97f4a7c15ull; }
  [[nodiscard]] std::size_t finish() const noexcept {
    return static_cast<std::size_t>(h_ ^ (h_ >> 32));
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;  // FNV-1a offset basis
};

std::size_t request_hash(const PlanRequest& request) {
  KeyHasher hasher;
  for_each_key_word(request, Grid(request),
                    [&](std::uint64_t w) { hasher.add(w); });
  return hasher.finish();
}

}  // namespace

Planner::Planner(std::size_t plan_cache_capacity)
    : capacity_(plan_cache_capacity) {}

Planner::~Planner() = default;

namespace model {

std::vector<std::uint64_t> plan_key_words(const PlanRequest& request) {
  const Grid grid(request);
  std::vector<std::uint64_t> words;
  words.reserve(kHeaderWords + grid.size());
  for_each_key_word(request, grid,
                    [&](std::uint64_t w) { words.push_back(w); });
  return words;
}

std::size_t plan_key_hash(std::span<const std::uint64_t> words) noexcept {
  KeyHasher hasher;
  for (const std::uint64_t w : words) hasher.add(w);
  return hasher.finish();
}

}  // namespace model

bool Planner::KeyEqual::operator()(const RequestKey& a,
                                   const PlanKey* b) const noexcept {
  const Grid grid(*a.request);
  if (a.hash != b->hash || b->words.size() != kHeaderWords + grid.size())
    return false;
  const std::uint64_t* word = b->words.data();
  bool same = true;
  for_each_key_word(*a.request, grid,
                    [&](std::uint64_t w) { same &= *word++ == w; });
  return same;
}

PlanResponse Planner::plan(const PlanRequest& request, int jobs) {
  const RequestKey probe{&request, request_hash(request)};
  {
    std::lock_guard lock(mutex_);
    ++stats_.plans;
    auto it = index_.find(probe);
    if (it != index_.end()) {
      ++stats_.plan_cache_hits;
      lru_.splice(lru_.begin(), lru_, it->second);  // promote to front
      return {it->second->sweep, it->second->best_index, /*from_cache=*/true};
    }
    ++stats_.plan_cache_misses;
  }

  // Evaluate outside the lock: grid evaluation is the expensive part and
  // must not serialize concurrent planners on distinct scenarios. A range
  // grid is expanded here, once; the key's words are written straight
  // into the entry.
  model::BatchOptions options;
  options.jobs = jobs;
  options.mode = request.mode;
  options.simplified = request.simplified;
  std::vector<double> range;
  std::span<const double> degrees = request.degrees;
  if (degrees.empty()) {
    const Grid grid(request);
    range.resize(grid.size());
    for (std::size_t i = 0; i < range.size(); ++i) range[i] = grid[i];
    degrees = range;
  }
  auto sweep = std::make_shared<const std::vector<model::Prediction>>(
      model::evaluate_batch(request.config, degrees, options));
  const std::size_t best = pick_best(*sweep);
  PlanKey key{model::plan_key_words(request), probe.hash};

  std::lock_guard lock(mutex_);
  stats_.points += sweep->size();
  // Re-check: a concurrent plan() for the same scenario may have landed
  // while we evaluated. First writer wins; both computed identical data.
  if (index_.find(probe) == index_.end()) {
    lru_.push_front(CacheEntry{std::move(key), sweep, best});
    index_.emplace(&lru_.front().key, lru_.begin());
    while (capacity_ > 0 && lru_.size() > capacity_) {
      index_.erase(&lru_.back().key);
      lru_.pop_back();
      ++stats_.plan_cache_evictions;
    }
  }
  return {std::move(sweep), best, /*from_cache=*/false};
}

Planner::Stats Planner::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace redcr

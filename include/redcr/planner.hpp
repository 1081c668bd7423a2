// redcr::Planner — the stable public query surface over the analytic model
// (Eqs. 1, 5-10, 12-15 of the paper).
//
// The paper's operational question is "what (r, delta) should my machine
// run?", asked repeatedly over large scenario grids. This facade turns the
// model layer into that query engine:
//
//   * PlanRequest/PlanResponse are stable value types: a request is a
//     scenario (CombinedConfig) plus a redundancy grid; a response is the
//     evaluated sweep with the best degree resolved.
//   * Planner owns the evaluation caches — a SphereTermCache for repeated
//     single-point evaluate() calls and an LRU plan cache keyed by a
//     canonical scenario hash, so replayed sweeps skip grid evaluation
//     entirely. All entry points are thread-safe.
//   * Counters (plan-cache hits/misses/evictions, evaluation totals) are
//     exposed via stats() for export through the obs registry (the serve
//     front-end publishes them as planner.plan_cache.* metrics).
//
// For one-off point sets that would not hit the plan cache, calling
// model::predict / model::evaluate_batch directly is the engine used as
// designed; the Planner adds caching and counters for repeated scenarios.
// See DESIGN.md §12.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "model/batch.hpp"

namespace redcr {

/// One planning query: a scenario plus the redundancy grid to sweep.
struct PlanRequest {
  model::CombinedConfig config;
  /// Redundancy grid r_begin, r_begin + r_step, ..., r_end (inclusive,
  /// integer-counter walk). Ignored when `degrees` is non-empty.
  double r_begin = 1.0;
  double r_end = 3.0;
  double r_step = 0.25;
  /// Explicit degrees override the range when non-empty.
  std::vector<double> degrees;
  /// kExact (bitwise-identical to scalar predict(), the default) or kFast
  /// (vectorized kernels, documented ulp bound — see model/kernels.hpp).
  model::EvalMode mode = model::EvalMode::kExact;
  /// Section-6 simplified model instead of the full Eq. 12-15 chain.
  bool simplified = false;
};

/// An evaluated sweep. Cheap to copy: the sweep storage is shared and
/// immutable (cache hits alias the cached vector).
class PlanResponse {
 public:
  PlanResponse(std::shared_ptr<const std::vector<model::Prediction>> sweep,
               std::size_t best_index, bool from_cache)
      : sweep_(std::move(sweep)),
        best_index_(best_index),
        from_cache_(from_cache) {}

  /// The evaluated grid, in request order.
  [[nodiscard]] const std::vector<model::Prediction>& sweep() const {
    return *sweep_;
  }
  /// Index into sweep() of the minimal-T_total point (first on ties).
  [[nodiscard]] std::size_t best_index() const { return best_index_; }
  /// The best point itself.
  [[nodiscard]] const model::Prediction& best() const {
    return (*sweep_)[best_index_];
  }
  /// The best redundancy degree — the answer to "what should I run?".
  [[nodiscard]] double best_r() const { return best().r; }
  /// True when this response was served from the plan cache.
  [[nodiscard]] bool from_cache() const { return from_cache_; }

 private:
  std::shared_ptr<const std::vector<model::Prediction>> sweep_;
  std::size_t best_index_;
  bool from_cache_;
};

class Planner {
 public:
  /// `plan_cache_capacity` bounds the LRU plan cache (entries, not bytes).
  explicit Planner(std::size_t plan_cache_capacity = 256);
  ~Planner();
  Planner(const Planner&) = delete;
  Planner& operator=(const Planner&) = delete;

  /// Answers a planning query, consulting the plan cache first. Misses
  /// evaluate the grid through model::evaluate_batch (options.jobs
  /// semantics; 0 = hardware concurrency) and populate the cache.
  [[nodiscard]] PlanResponse plan(const PlanRequest& request, int jobs = 0);

  /// Single-point exact evaluation against the planner's shared sphere-term
  /// cache; bitwise-identical to model::predict(config, r).
  [[nodiscard]] model::Prediction evaluate(const model::CombinedConfig& config,
                                           double r);

  /// Monotonic counters since construction. Exported by the serve
  /// front-end through the obs registry as planner.* metrics.
  struct Stats {
    std::uint64_t plan_cache_hits = 0;
    std::uint64_t plan_cache_misses = 0;
    std::uint64_t plan_cache_evictions = 0;
    std::uint64_t plans = 0;        ///< plan() calls answered
    std::uint64_t evaluations = 0;  ///< evaluate() calls
    std::uint64_t points = 0;       ///< model points computed (not cached)
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct PlanKey {
    std::vector<std::uint64_t> words;  // canonical request encoding
    std::size_t hash = 0;
    bool operator==(const PlanKey& other) const {
      return hash == other.hash && words == other.words;
    }
  };
  struct PlanKeyHash {
    std::size_t operator()(const PlanKey& key) const noexcept {
      return key.hash;
    }
  };
  struct CacheEntry {
    PlanKey key;
    std::shared_ptr<const std::vector<model::Prediction>> sweep;
    std::size_t best_index = 0;
  };

  [[nodiscard]] static PlanKey canonical_key(const PlanRequest& request);

  mutable std::mutex mutex_;
  model::SphereTermCache sphere_cache_;  // for evaluate(); guarded by mutex_
  std::size_t capacity_;
  std::list<CacheEntry> lru_;  // front = most recent
  std::unordered_map<PlanKey, std::list<CacheEntry>::iterator, PlanKeyHash>
      index_;
  Stats stats_;
};

}  // namespace redcr

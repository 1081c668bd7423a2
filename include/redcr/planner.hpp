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
//   * Planner owns an LRU plan cache keyed by a canonical scenario
//     encoding, so replayed sweeps skip grid evaluation entirely; a hit
//     allocates nothing. plan() and stats() are thread-safe.
//   * Counters (plan-cache hits/misses/evictions, evaluated points) are
//     exposed via stats() for export through the obs registry (the serve
//     front-end publishes them as planner.plan_cache.* metrics).
//
// For single points and one-off point sets that would not hit the plan
// cache, calling model::predict / model::evaluate_batch directly is the
// engine used as designed; the Planner adds caching and counters for
// repeated scenarios. See DESIGN.md §12.
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

  /// Monotonic counters since construction. Exported by the serve
  /// front-end through the obs registry as planner.* metrics.
  struct Stats {
    std::uint64_t plan_cache_hits = 0;
    std::uint64_t plan_cache_misses = 0;
    std::uint64_t plan_cache_evictions = 0;
    std::uint64_t plans = 0;        ///< plan() calls answered
    std::uint64_t evaluations = 0;  ///< always 0: plan() answers sweeps
    std::uint64_t points = 0;       ///< model points computed (not cached)
  };
  [[nodiscard]] Stats stats() const;

 private:
  /// A cached request's canonical encoding (model::plan_key_words) and its
  /// model::plan_key_hash.
  struct PlanKey {
    std::vector<std::uint64_t> words;
    std::size_t hash = 0;
  };
  /// A request looked up as it stands: its words are generated, hashed
  /// and compared on the fly, never stored.
  struct RequestKey {
    const PlanRequest* request;
    std::size_t hash;
  };
  /// The index holds a pointer to its entry's key, so each key is stored
  /// once; lookups by RequestKey are heterogeneous.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const PlanKey* key) const noexcept {
      return key->hash;
    }
    std::size_t operator()(const RequestKey& key) const noexcept {
      return key.hash;
    }
  };
  struct KeyEqual {
    using is_transparent = void;
    bool operator()(const PlanKey* a, const PlanKey* b) const noexcept {
      return a == b || (a->hash == b->hash && a->words == b->words);
    }
    bool operator()(const RequestKey& a, const PlanKey* b) const noexcept;
    bool operator()(const PlanKey* a, const RequestKey& b) const noexcept {
      return (*this)(b, a);
    }
  };
  struct CacheEntry {
    PlanKey key;
    std::shared_ptr<const std::vector<model::Prediction>> sweep;
    std::size_t best_index = 0;
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<CacheEntry> lru_;  // front = most recent
  std::unordered_map<const PlanKey*, std::list<CacheEntry>::iterator,
                     KeyHash, KeyEqual>
      index_;
  Stats stats_;
};

}  // namespace redcr

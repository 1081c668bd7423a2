// Batched evaluation of the combined model.
//
// The paper's headline studies evaluate predict() over large (config, r)
// grids — Figs. 13-14 sweep process counts per degree, Tables 4/5 sweep
// r × MTBF — and the serving front-end replays the same evaluation
// millions of times. Point evaluations are independent and dominated by
// the Eq. 9 sphere-reliability pow/log pair plus the Eq. 12-15 exp/expm1
// chain. evaluate_batch() stages the points into structure-of-arrays form
// tile by tile and finishes them with one of two pipelines:
//
//   EvalMode::kExact (default) — per point, the staged inputs are fed to
//     the exact same library functions predict() calls (daly_interval,
//     expected_lost_work, ... from checkpoint.hpp), with the Eq. 9 sphere
//     terms memoized in a per-worker SphereTermCache warmed during
//     staging. Identical inputs through identical functions: results are
//     bitwise identical to a scalar predict() loop, for any worker count
//     and any batch order. Golden exports use this mode.
//
//   EvalMode::kFast — the transcendental chain is evaluated through the
//     vectorized vk:: kernels (kernels.hpp) over contiguous arrays, with
//     pow-by-squaring sphere terms. Each kernel is within a few ulp of
//     correctly rounded; end-to-end divergence on the bench grids stays
//     below 5e-4 relative per output field, with the worst case
//     concentrated where Eq. 13's 1 - λω denominator approaches its pole
//     and the model itself diverges (away from the pole the grids agree
//     to ~1e-11; points where both modes exceed 1e15 in magnitude or both
//     go nonfinite count as agreement — test_planner.cpp and bench_engine
//     pin the bound). Like kExact it is deterministic across hosts and
//     worker counts; it is simply not bit-identical to libm-based
//     predict(). The serving/bench hot path.
//
// Large batches split across a lazily started persistent worker pool
// (hardware_concurrency - 1 threads); the serial/parallel crossover is
// measured once at first use (see parallel_threshold()). Each worker owns
// its output slot range and its own caches, so the merge is the identity
// and results never depend on scheduling.
//
// redcr::Planner (include/redcr/planner.hpp) adds a plan cache and counters
// on top for repeated scenarios; one-off point sets call this engine
// directly. See DESIGN.md §12.
#pragma once

#include <span>
#include <vector>

#include "model/combined.hpp"

namespace redcr::model {

/// One grid point: a full model configuration plus the redundancy degree.
struct BatchPoint {
  CombinedConfig config;
  double r = 1.0;
};

/// How evaluate_batch finishes the staged points.
enum class EvalMode {
  kExact,  ///< bitwise-identical to scalar predict() (default)
  kFast,   ///< vectorized vk:: kernels, documented ulp bound, several-fold
           ///< faster than the scalar loop (bench-guarded)
};

struct BatchOptions {
  /// Worker threads; <= 0 means std::thread::hardware_concurrency().
  int jobs = 0;
  /// Evaluate predict_simplified() (Section 6) instead of predict().
  bool simplified = false;
  /// Exact (bitwise) or fast (ulp-bounded) finishing pipeline.
  EvalMode mode = EvalMode::kExact;
};

/// Evaluates every point; out[i] corresponds to points[i].
[[nodiscard]] std::vector<Prediction> evaluate_batch(
    std::span<const BatchPoint> points, const BatchOptions& options = {});

/// One configuration swept over several redundancy degrees — the
/// sweep-shaped query Planner::plan answers. With EvalMode::kFast this
/// takes a dedicated staging path (the shared config broadcasts instead
/// of being re-read per point) that is bitwise-identical per point to the
/// BatchPoint-span entry, just faster.
[[nodiscard]] std::vector<Prediction> evaluate_batch(
    const CombinedConfig& config, std::span<const double> degrees,
    const BatchOptions& options = {});

/// Zero-allocation variant: writes out[i] for points[i] into a
/// caller-owned buffer. Requires out.size() == points.size(). This is the
/// serving hot path — reusing the output buffer across calls avoids the
/// result-vector construction, which costs as much as several model
/// evaluations per point at kFast speed.
void evaluate_batch_into(std::span<const BatchPoint> points,
                         std::span<Prediction> out,
                         const BatchOptions& options = {});

/// Zero-allocation sweep: evaluates `config` at degrees[i] into out[i].
/// Requires out.size() == degrees.size().
void evaluate_batch_into(const CombinedConfig& config,
                         std::span<const double> degrees,
                         std::span<Prediction> out,
                         const BatchOptions& options = {});

/// The self-calibrated serial/parallel crossover: batches smaller than
/// this stay on the calling thread. Measured once at first use by timing
/// a pool dispatch against per-point evaluation cost; SIZE_MAX on hosts
/// with a single hardware thread (parallelism can never win there).
[[nodiscard]] std::size_t parallel_threshold();

}  // namespace redcr::model

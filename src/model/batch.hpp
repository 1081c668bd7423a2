// Batched evaluation of the combined model.
//
// The paper's headline studies evaluate predict() over large (config, r)
// grids — Figs. 13-14 sweep process counts per degree, Tables 4/5 sweep
// r × MTBF — and the serving front-end replays the same evaluation
// millions of times. Point evaluations are independent and dominated by
// the Eq. 9 sphere-reliability pow/log pair plus the Eq. 12-15 exp/expm1
// chain. evaluate_batch() finishes the points with one of two pipelines:
//
//   EvalMode::kExact (default) — a predict() (or predict_simplified())
//     loop: bitwise identical to scalar predict() by construction. The
//     loop shares one SphereTermCache per call, warmed on a miss, so
//     grids that repeat a (pf, degree) sphere term — a procs axis — pay
//     its pow/log once. Golden exports use this mode.
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
//     pin the bound). Like kExact it is deterministic across hosts; it is
//     simply not bit-identical to libm-based predict(). The serving/bench
//     hot path.
//
// Every batch runs on the calling thread; cross-cell parallelism belongs
// to exp::SweepRunner.
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
  /// Ignored: every batch runs on the calling thread. Kept only because
  /// perfbench/ assigns it; the next benchmark change deletes both sides.
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

}  // namespace redcr::model

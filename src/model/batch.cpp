#include "model/batch.hpp"

#include <stdexcept>
#include <vector>

#include "model/batch_fast.hpp"

namespace redcr::model {

void evaluate_batch_into(std::span<const BatchPoint> points,
                         std::span<Prediction> out,
                         const BatchOptions& options) {
  if (out.size() != points.size())
    throw std::invalid_argument(
        "evaluate_batch_into: output span size must equal point count");
  if (points.empty()) return;
  if (options.mode == EvalMode::kFast) {
    detail::evaluate_fast(points.data(), out.data(), points.size(),
                          options.simplified);
    return;
  }
  // kExact: a predict() loop sharing one sphere-term cache.
  const auto exact = options.simplified ? &predict_simplified : &predict;
  SphereTermCache cache;
  for (std::size_t i = 0; i < points.size(); ++i)
    out[i] = exact(points[i].config, points[i].r, &cache);
}

void evaluate_batch_into(const CombinedConfig& config,
                         std::span<const double> degrees,
                         std::span<Prediction> out,
                         const BatchOptions& options) {
  if (out.size() != degrees.size())
    throw std::invalid_argument(
        "evaluate_batch_into: output span size must equal degree count");
  if (degrees.empty()) return;
  if (options.mode == EvalMode::kFast) {
    // Dedicated sweep staging: the shared config broadcasts instead of
    // being replicated into (and re-read from) an AoS point array.
    detail::evaluate_fast_grid(config, degrees.data(), out.data(),
                               degrees.size(), options.simplified);
    return;
  }
  const auto exact = options.simplified ? &predict_simplified : &predict;
  SphereTermCache cache;
  for (std::size_t i = 0; i < degrees.size(); ++i)
    out[i] = exact(config, degrees[i], &cache);
}

std::vector<Prediction> evaluate_batch(std::span<const BatchPoint> points,
                                       const BatchOptions& options) {
  std::vector<Prediction> out(points.size());
  evaluate_batch_into(points, out, options);
  return out;
}

std::vector<Prediction> evaluate_batch(const CombinedConfig& config,
                                       std::span<const double> degrees,
                                       const BatchOptions& options) {
  std::vector<Prediction> out(degrees.size());
  evaluate_batch_into(config, degrees, out, options);
  return out;
}

}  // namespace redcr::model

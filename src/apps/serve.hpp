// Capacity-planner-as-a-service: NDJSON request replay over redcr::Planner.
//
// The paper's operational product is the answer to "what (r, δ) should my
// machine run?" (conclusion: the redundancy degree as a tuning knob). This
// module turns that answer into a serving front-end: it replays an NDJSON
// query log — one scenario per line — through a redcr::Planner and emits
// one NDJSON response per request with the best degree, its Daly interval
// and the predicted wallclock, plus a throughput/latency report.
//
// Request schema (flat JSON object per line; every key optional):
//
//   {"id": 7, "procs": 50000, "hours": 128, "alpha": 0.2,
//    "mtbf_years": 5, "ckpt_sec": 600, "restart_sec": 1800,
//    "r_min": 1.0, "r_max": 3.0, "r_step": 0.25}
//
// The scenario keys are redcr::scenario_flags() with '_' for '-', their
// defaults and domains included; `id` defaults to the line number. Unknown
// keys must be numbers and are ignored (the journal's forward-compatibility
// rule). Malformed lines, values outside a key's domain and invalid
// scenarios throw std::runtime_error naming the line.
//
// Response lines are deterministic bytes: rendered with the obs/json.hpp
// number rule, independent of --jobs and identical across reruns (the
// planner's kFast pipeline is deterministic across worker counts; see
// model/batch.hpp). tests/data/serve_golden.ndjson pins them.
#pragma once

#include <cstdint>
#include <string>

#include "obs/registry.hpp"
#include "redcr/planner.hpp"

namespace redcr::apps {

struct ServeOptions {
  /// Worker threads per plan; <= 0 means hardware concurrency.
  int jobs = 0;
  /// LRU plan-cache capacity (entries). Replayed scenarios hit the cache.
  std::size_t cache_capacity = 256;
  /// kFast is the serving default (documented error bound, several-fold
  /// faster); kExact answers bitwise-identically to scalar predict().
  model::EvalMode mode = model::EvalMode::kFast;
};

/// Replay outcome: throughput, nearest-rank latency percentiles (measured
/// wall time, so NOT deterministic — report-only), and the planner's
/// counters for export through the obs registry.
struct ServeReport {
  std::uint64_t requests = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  Planner::Stats stats;

  /// Human-readable stats block (qps, percentiles, cache hit rate).
  [[nodiscard]] std::string render() const;

  /// Publishes the counters as planner.* / serve.* metrics. The model
  /// layer never links obs (layering: util -> obs, util -> model); the
  /// serve front-end owns the export instead.
  void export_metrics(obs::Registry& registry) const;
};

/// Replays every request in `text` (NDJSON, blank lines skipped) through a
/// fresh Planner, appending one response line per request to `responses`.
/// Throws std::runtime_error on a malformed line or invalid scenario.
ServeReport serve_replay(const std::string& text, std::string& responses,
                         const ServeOptions& options = {});

}  // namespace redcr::apps

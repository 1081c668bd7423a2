// redcr — umbrella header for the combined partial-redundancy +
// checkpointing library (Elliott et al., ICDCS 2012 reproduction).
//
// One include pulls in the three public layers:
//
//   analytic model   — redcr::scenario() → redcr::Planner (plan-cached
//                      sweep queries; redcr/planner.hpp) over model::
//                      predict / model::optimize_redundancy
//   simulation       — runtime::JobConfig + redcr::run_job() for a full
//                      discrete-event run with optional trace/metrics export
//   experiment kit   — exp::ParamGrid / exp::SweepRunner / exp::ResultSink
//                      for campaign-shaped studies
//
// Minimal model example (redcr::Planner is the stable query surface; see
// redcr/planner.hpp):
//
//   #include "redcr/redcr.hpp"
//   redcr::Planner planner;
//   redcr::PlanRequest req;
//   req.config = redcr::scenario().processes(50000).build();
//   const auto plan = planner.plan(req);   // best degree: plan.best_r()
//   const auto p = redcr::model::predict(req.config, 2.0);  // one point
//
// Minimal simulation example:
//
//   redcr::runtime::JobConfig job;
//   job.redundancy = 2.0;
//   redcr::RunOptions opts;
//   opts.trace_out = "trace.json";
//   const auto report = redcr::run_job(job, factory, opts);
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "exp/exp.hpp"
#include "model/batch.hpp"
#include "model/combined.hpp"
#include "model/extensions.hpp"
#include "obs/obs.hpp"
#include "redcr/planner.hpp"
#include "redcr/run_options.hpp"
#include "redcr/scenario.hpp"
#include "runtime/executor.hpp"
#include "runtime/trace.hpp"
#include "util/log.hpp"
#include "util/units.hpp"

namespace redcr {

namespace detail {

/// Writes `text` to `path` ("-" = stdout); throws std::runtime_error on
/// failure with a message naming the path.
inline void export_text(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return;
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr)
    throw std::runtime_error("cannot open '" + path + "' for writing");
  const bool ok = std::fwrite(text.data(), 1, text.size(), out) == text.size();
  std::fclose(out);
  if (!ok) throw std::runtime_error("short write to '" + path + "'");
}

}  // namespace detail

/// Runs one simulated job end to end: applies options.log_level, attaches a
/// Recorder when any export sink is requested, executes the job, then writes
/// the Chrome trace JSON and/or metrics NDJSON. The exports are a pure
/// function of (config, factory) — simulated time only, byte-stable across
/// runs. Throws std::runtime_error if an export cannot be written.
inline runtime::JobReport run_job(runtime::JobConfig config,
                                  runtime::WorkloadFactory factory,
                                  const RunOptions& options = {}) {
  options.apply_log_level();
  obs::Recorder recorder;
  obs::Journal journal;
  if (options.wants_recording()) config.recorder = &recorder;
  if (options.wants_journal()) config.journal = &journal;
  config.engine = options.engine;
  const bool record_engine =
      options.wants_recording() && config.engine != runtime::ExecMode::kEvent;
  runtime::JobExecutor executor(std::move(config), std::move(factory));
  runtime::JobReport report = executor.run();
  // Engine self-diagnostics: how the fast-forward driver covered the job.
  // Gated on a non-event engine so event-mode exports stay byte-identical;
  // a recording run always whole-config-falls-back (the sink consumes
  // per-event output), which these counters make visible.
  if (record_engine) {
    obs::Registry& metrics = recorder.metrics();
    metrics.add("engine.ff.episodes_fast",
                static_cast<double>(report.ff.episodes_fast));
    metrics.add("engine.ff.fallbacks",
                static_cast<double>(report.ff.fallbacks));
    metrics.add("engine.ff.epochs_skipped",
                static_cast<double>(report.ff.epochs_skipped));
    metrics.add("engine.ff.replay_events",
                static_cast<double>(report.ff.replay_events));
  }
  if (!options.trace_out.empty())
    detail::export_text(options.trace_out, recorder.trace().chrome_json());
  if (!options.metrics_out.empty())
    detail::export_text(options.metrics_out, recorder.metrics().ndjson());
  if (!options.journal_out.empty())
    detail::export_text(options.journal_out, journal.ndjson());
  return report;
}

}  // namespace redcr

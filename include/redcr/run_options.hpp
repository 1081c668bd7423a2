// redcr::RunOptions — the one knob block for running anything.
//
// Every front end used to thread the same growing set of execution knobs
// (worker count, progress meter, log level, trace/metrics export paths)
// through its own positional parameters. RunOptions collapses them into a
// single value that SweepRunner, redcr::run_job and the bench front ends
// all accept, so adding a knob is one field instead of five signatures.
#pragma once

#include <optional>
#include <string>

#include "runtime/exec_mode.hpp"
#include "util/log.hpp"

namespace redcr {

struct RunOptions {
  /// Worker threads for sweeps; <= 0 means all hardware cores.
  int jobs = 0;

  /// Live "k/N trials (p%) elapsed/ETA" progress line on stderr. Off by
  /// default: the line is wallclock-derived (never part of deterministic
  /// output) and stderr may be a log file under CI.
  bool progress = false;

  /// Sweeps: record a cell that throws (or ends in a JobAbort) as a failed
  /// cell with its error string instead of aborting the whole sweep. Off by
  /// default (fail-fast), matching the historical behavior.
  bool keep_going = false;

  /// Log level to apply before running; unset leaves the process level
  /// (REDCR_LOG_LEVEL env or earlier configuration) untouched.
  std::optional<util::LogLevel> log_level;

  /// Chrome trace-event JSON export path ("" = off, "-" = stdout).
  std::string trace_out;

  /// Metrics NDJSON export path ("" = off, "-" = stdout).
  std::string metrics_out;

  /// Causal event journal NDJSON export path ("" = off, "-" = stdout).
  /// Feed the file to `redcr_cli analyze` for blame / level-efficacy /
  /// run-diff reports.
  std::string journal_out;

  /// Execution engine. kAuto keeps the fast-forward speedup wherever the
  /// driver can prove bit-identity and silently runs the event engine
  /// elsewhere — including when trace_out/journal_out attach a sink, which
  /// consumes per-event output the arithmetic skip does not produce.
  runtime::ExecMode engine = runtime::ExecMode::kEvent;

  /// True when any observability sink is requested — the signal to attach a
  /// Recorder (recording costs a little; without it runs pay null checks).
  /// The journal has its own sink (wants_journal) so journal-off runs stay
  /// byte-identical.
  [[nodiscard]] bool wants_recording() const noexcept {
    return !trace_out.empty() || !metrics_out.empty();
  }

  /// True when the causal journal is requested.
  [[nodiscard]] bool wants_journal() const noexcept {
    return !journal_out.empty();
  }

  /// Applies log_level to the process-wide logger if set.
  void apply_log_level() const {
    if (log_level) util::set_log_level(*log_level);
  }
};

}  // namespace redcr

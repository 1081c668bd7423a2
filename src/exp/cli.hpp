// Command-line front end shared by every bench binary.
//
// Flags (rows in cli.cpp; `--help` prints them with their defaults):
//   --quick          1 seed, coarser grids (fast smoke)
//   --full           5 seeds, finest grids
//   --seeds N        DES repetitions averaged per cell (N >= 1)
//   --csv DIR        write the series behind each table to DIR/<name>.csv
//   --jobs N|auto    worker threads for the sweep (default/auto: all cores)
//   --json           newline-delimited JSON rows on stdout instead of tables
//   --filter SPEC    run a subset of grid cells, e.g. "mtbf=6,r=2"
//   --progress       live trial-count/ETA line on stderr while sweeping
//   --keep-going     record failing cells (exceptions, job aborts) with a
//                    status column instead of aborting the sweep
//   --engine E       event|fastforward|auto (default: auto) — execution
//                    engine for the DES cells; fast-forward is bit-identical
//                    where supported and falls back per episode elsewhere
//   --log-level L    debug|info|warn|error|off (default: REDCR_LOG_LEVEL
//                    env if set and valid, else warn)
//
// The guarded benches add --guard FILE, --tolerance F and --repeat N
// (exp/guard.hpp).
//
// Under --json, stdout carries only NDJSON rows; headers, reference tables
// and commentary move to stderr so the stream stays machine-parseable.
#pragma once

#include <cstdio>
#include <optional>
#include <string>

#include "redcr/run_options.hpp"
#include "util/knob.hpp"
#include "util/log.hpp"

namespace redcr::exp {

struct PerfGuard;  // exp/guard.hpp

struct BenchArgs {
  int seeds = 2;          ///< DES repetitions averaged per cell
  bool quick = false;     ///< --quick: 1 seed, coarser grids
  bool full = false;      ///< --full: 5 seeds, finest grids
  int jobs = 0;           ///< --jobs: worker threads; 0 (= "auto") = all cores
  bool json = false;      ///< --json: NDJSON rows on stdout
  bool progress = false;  ///< --progress: live ETA line on stderr
  bool keep_going = false;  ///< --keep-going: record failed cells, continue
  std::string filter;     ///< --filter: grid-cell subset spec (empty = all)
  /// --engine: DES execution engine for the campaign cells. Sweeps default
  /// to kAuto — the fast-forward skip is bit-identical where supported, so
  /// only wallclock changes; pin to kEvent to time the event engine itself.
  runtime::ExecMode engine = runtime::ExecMode::kAuto;
  std::optional<std::string> csv_dir;
  /// --log-level: parsed but not applied by try_parse (parse() applies it,
  /// so the non-exiting variant stays side-effect free for tests).
  std::optional<util::LogLevel> log_level;

  /// Parses argv; on any error prints a one-line diagnostic plus usage to
  /// stderr and exits with status 2 (--help exits 0). Applies the log
  /// level: --log-level when given, else the REDCR_LOG_LEVEL environment
  /// variable when set and valid. A guarded bench passes its PerfGuard,
  /// which then also accepts --guard, --tolerance and --repeat.
  static BenchArgs parse(int argc, char** argv, PerfGuard* guard = nullptr);

  /// Non-exiting variant for tests and embedding: returns std::nullopt and
  /// fills `error` (when non-null) on invalid input.
  static std::optional<BenchArgs> try_parse(int argc, char** argv,
                                            std::string* error,
                                            PerfGuard* guard = nullptr);

  /// The parsed execution knobs as the library-wide option block
  /// (--jobs, --progress, --log-level). Export sinks stay empty: bench
  /// binaries route output through ResultSink, not redcr::run_job.
  [[nodiscard]] redcr::RunOptions run_options() const;

  /// Destination for human-readable commentary: stdout normally, stderr
  /// under --json (stdout then carries only NDJSON rows).
  [[nodiscard]] std::FILE* text_out() const noexcept;

  /// printf-style commentary to text_out().
  void say(const char* format, ...) const;
};

/// --jobs N|auto, the worker-thread knob every front end shares: a count
/// >= 1, or `auto` (stored as 0) for every hardware core. No default: the
/// destinations start at 0.
[[nodiscard]] util::Knob jobs_knob(int& jobs);

/// --log-level debug|info|warn|error|off.
[[nodiscard]] util::Knob log_level_knob(std::optional<util::LogLevel>& level);

/// The output and failure-policy flags of any campaign: --csv, --json,
/// --filter and --keep-going. `redcr_cli sweep` takes them too.
[[nodiscard]] util::FlagSet campaign_flags(BenchArgs& args);

/// Every flag of a bench binary bound to `args`, plus `guard`'s --guard,
/// --tolerance and --repeat when a guard is given.
[[nodiscard]] util::FlagSet bench_flags(BenchArgs& args,
                                        PerfGuard* guard = nullptr);

/// Prints the standard bench header (to args.text_out()).
void print_header(const BenchArgs& args, const char* title,
                  const char* paper_ref);

}  // namespace redcr::exp

// The performance guard shared by every guarded bench.
//
// bench_engine, bench_faults, bench_multilevel and bench_sdc each time a
// fixed-size scenario and compare its rate against a committed baseline
// (BENCH_baseline.json, the `--json` output of those benches). Everything
// around the scenario itself lives here: best-of-N timing, the baseline
// lookup, the verdict lines scripts/bench_guard.sh parses, and the one-line
// NDJSON scenario row. The guard's flags are guard_flags(), which
// BenchArgs::parse adds when a bench passes its PerfGuard:
//
//   --guard FILE     compare against this baseline; exit 1 on a breach, an
//                    unreadable baseline or a scenario the baseline lacks
//   --tolerance F    allowed fractional rate drop, 0 <= F < 1 (default 0.15)
//   --repeat N       run each scenario N >= 1 times, keep the fastest
//                    (default 3)
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "util/knob.hpp"

namespace redcr::exp {

struct BenchArgs;

/// One timed scenario: the fastest of its --repeat runs.
struct Measurement {
  std::string name;
  std::string unit{};      ///< e.g. "events/sec"
  std::uint64_t ops = 0;   ///< work done by the fastest run
  double seconds = 1e300;  ///< that run's wall time
  /// A ratio measured at the same host moment (0 = none), reported under
  /// the JSON key `speedup_label`, e.g. "speedup_vs_heap".
  double speedup = 0.0;
  std::string speedup_label{};
  /// Compared against the baseline under --guard.
  bool guarded = true;

  /// Keeps this run when it is the fastest so far.
  void keep_fastest(double run_seconds, std::uint64_t run_ops);
  /// ops per second: the guarded number, bigger is better.
  [[nodiscard]] double rate() const;
  /// `"name": …, "rate": …, "unit": …, "ops": …, "seconds": …`, plus the
  /// speedup key when set: the body of a baseline scenario object.
  [[nodiscard]] std::string json_fields() const;
};

/// Wall time on the steady clock since construction or the last restart().
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void restart() { start_ = std::chrono::steady_clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// The rate a baseline document records for scenario `name`: the first
/// `"rate": <number>` after `"name": "<name>"`. nullopt when the scenario
/// is absent or its rate is unparsable or not > 0.
[[nodiscard]] std::optional<double> baseline_rate(std::string_view baseline,
                                                  std::string_view name);

struct PerfGuard {
  std::string baseline_path;  ///< --guard ("" = report only, no verdict)
  double tolerance = 0.15;    ///< --tolerance
  int repeat = 3;             ///< --repeat

  /// Runs `run`, which returns its op count, `repeat` times and keeps the
  /// fastest run.
  [[nodiscard]] Measurement best_of(
      std::string name, std::string unit,
      const std::function<std::uint64_t()>& run) const;

  /// The verdict: `rate` clears the floor base * (1 - tolerance).
  [[nodiscard]] bool passes(double rate, double base) const;

  /// Under --guard, prints "guard vs FILE (tolerance N%):" and one
  /// "<name> : <rate> vs baseline <base> -> ok|REGRESSION" line per guarded
  /// scenario to args.text_out(), diagnostics to stderr. Returns false on a
  /// breach, an unreadable baseline or a scenario the baseline lacks; true
  /// without --guard.
  [[nodiscard]] bool check(const BenchArgs& args, const char* bench,
                           std::span<const Measurement> scenarios) const;

  /// An absolute rule on a scenario's speedup, independent of the baseline:
  /// under --guard, prints "<name> : <observed> -> REGRESSION (<rule>)" when
  /// `ok` is false, `observed` being a printf format applied to the
  /// speedup. Returns false only for a broken rule under --guard.
  [[nodiscard]] bool require(const BenchArgs& args, const Measurement& m,
                             bool ok, const char* observed,
                             const char* rule) const;

  /// A single-scenario bench's report: the "<name> : <rate> <unit>
  /// (<note>)" line, the `{"bench": …, "name": …}` row under --json, then
  /// check().
  [[nodiscard]] bool report(const BenchArgs& args, const char* bench,
                            const Measurement& m, const char* note) const;
};

/// --guard FILE, --tolerance F (0 <= F < 1) and --repeat N (N >= 1).
[[nodiscard]] util::FlagSet guard_flags(PerfGuard& guard);

}  // namespace redcr::exp

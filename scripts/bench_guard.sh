#!/usr/bin/env bash
# Performance-regression gate for the hot-path engine.
#
# Runs bench_engine and compares the guarded rates (event_throughput,
# batch_eval, batch_eval_exact, serve_qps, fastforward_sim) against the
# committed baseline, failing on a >15% regression — and, independent of
# the baseline, failing any scenario whose speedup_vs_scalar drops to 1.0x
# or below (a batch or vectorized path slower than its scalar reference
# is a regression even if the absolute rate still clears the floor) and
# failing fastforward_sim when its speedup_vs_event — measured back to back
# against the event engine at the same host moment — drops below 10x, the
# fast-forward engine's contract on failure-heavy jobs; then runs bench_faults'
# zero-cost scenario (faults_off_sim), which fails
# when the disabled fault hooks slow the executor fast path; then runs
# bench_multilevel's hierarchy scenario (multilevel_sim), which guards the
# three-level async-flush executor path; then runs bench_sdc's live-injection
# scenario (sdc_sim), which guards the payload-strain voting hot path with
# both SDC processes switched on. The comparison runs inside the
# benches themselves (--guard), so no external JSON tooling is needed. All
# four share one guard, exp::PerfGuard in src/exp/guard.{hpp,cpp}: flag
# parsing, best-of-N (--repeat) timing, the baseline lookup and the verdict
# lines. On a breach each bench prints the scenario name with the observed
# and baseline rates ("<name> : <observed> vs baseline <base> ->
# REGRESSION"), and this script names the bench that tripped.
#
# Every guarded run also appends one NDJSON row per scenario (timestamp,
# commit, observed rate, baseline, ok/REGRESSION) to
# results/bench_history.ndjson, so rate drift is visible over time instead
# of only at the tolerance cliff. Override the sink with
# BENCH_GUARD_HISTORY (empty disables the append).
#
# Usage: scripts/bench_guard.sh [build-dir] [baseline]
#   build-dir  default: build
#   baseline   default: BENCH_baseline.json (repo root)
#
# Refresh the baseline after an intentional perf change:
#   build/bench/bench_engine --json > BENCH_baseline.json
#   build/bench/bench_faults --quick --seeds 1 --json | tail -1   # append
#   build/bench/bench_multilevel --quick --seeds 1 --json | tail -1
#   build/bench/bench_sdc --quick --seeds 1 --json | tail -1
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
BASELINE="${2:-BENCH_baseline.json}"
TOLERANCE="${BENCH_GUARD_TOLERANCE:-0.15}"
HISTORY="${BENCH_GUARD_HISTORY-results/bench_history.ndjson}"

if [[ ! -x "$BUILD_DIR/bench/bench_engine" || ! -x "$BUILD_DIR/bench/bench_faults" \
      || ! -x "$BUILD_DIR/bench/bench_multilevel" \
      || ! -x "$BUILD_DIR/bench/bench_sdc" ]]; then
  cmake --build "$BUILD_DIR" --target bench_engine --target bench_faults \
    --target bench_multilevel --target bench_sdc \
    -j "$(nproc 2>/dev/null || echo 4)"
fi
if [[ ! -f "$BASELINE" ]]; then
  echo "bench_guard.sh: no baseline at $BASELINE" >&2
  echo "  create one with: $BUILD_DIR/bench/bench_engine --json > $BASELINE" >&2
  exit 1
fi

# Parses the guard lines ("<scenario> : <rate> vs baseline <base> -> ok")
# out of a bench's output and appends one NDJSON row per scenario.
append_history() {
  local bench="$1" log="$2"
  [[ -n "$HISTORY" ]] || return 0
  mkdir -p "$(dirname "$HISTORY")"
  local stamp commit
  stamp="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
  awk -v bench="$bench" -v ts="$stamp" -v commit="$commit" \
      -v tol="$TOLERANCE" '
    / vs baseline .* -> (ok|REGRESSION)$/ {
      name = $1; sub(/:$/, "", name)
      rate = ""; base = ""
      for (i = 1; i <= NF; i++) {
        if ($i == ":") rate = $(i + 1)
        if ($i == "baseline") base = $(i + 1)
      }
      if (rate == "" || base == "") next
      printf("{\"ts\":\"%s\",\"commit\":\"%s\",\"bench\":\"%s\"," \
             "\"scenario\":\"%s\",\"rate\":%s,\"baseline\":%s," \
             "\"tolerance\":%s,\"status\":\"%s\"}\n",
             ts, commit, bench, name, rate, base, tol, $NF)
    }' "$log" >> "$HISTORY"
}

# Runs one bench under the guard; on a breach the bench has already printed
# the scenario name with observed-vs-baseline rates, so just attribute it.
# The rates land in $HISTORY either way — regressions are exactly the rows
# worth keeping.
guarded() {
  local bench="$1"; shift
  local log status=0
  log="$(mktemp)"
  "$BUILD_DIR/bench/$bench" "$@" --guard "$BASELINE" \
      --tolerance "$TOLERANCE" 2>&1 | tee "$log" || status=$?
  append_history "$bench" "$log"
  rm -f "$log"
  if [[ "$status" -ne 0 ]]; then
    echo "bench_guard.sh: $bench breached the ${TOLERANCE} tolerance vs" \
         "$BASELINE (scenario and rates printed above)" >&2
    exit 1
  fi
}

# --repeat 3 takes the best of three runs per scenario, damping scheduler
# noise on shared machines before the tolerance check.
guarded bench_engine --repeat 3

# Zero-cost check: the executor with every fault probability at zero and
# retention 1 must run at the pre-fault rate (--quick keeps the grid small;
# the guarded scenario itself always runs at full size).
guarded bench_faults --quick --seeds 1 --repeat 3

# Hierarchy check: the three-level async-flush executor path must hold its
# committed event rate.
guarded bench_multilevel --quick --seeds 1 --repeat 3

# SDC check: the executor with both corruption processes live (at-rest and
# in-flight at r=2) must hold its committed event rate — this is the path
# where every halo payload is strain-checked by the replica vote.
guarded bench_sdc --quick --seeds 1 --repeat 3

echo "bench_guard.sh: no guarded rate regressed more than ${TOLERANCE} vs $BASELINE"

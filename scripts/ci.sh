#!/usr/bin/env bash
# Full pre-merge pipeline: plain build + full test suite, the sanitizer
# smoke gate (scripts/check.sh), the fault/multilevel/journal/serve smokes
# under the sanitizer build, and the engine performance guard
# (scripts/bench_guard.sh). Any stage failing fails the run.
#
# Usage: scripts/ci.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "=== ci.sh: build + full test suite ($BUILD_DIR) ==="
# Warnings are errors in the plain build: a new diagnostic fails CI.
cmake -B "$BUILD_DIR" -S . -DREDCR_WERROR=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "=== ci.sh: sanitizer smoke gate ==="
scripts/check.sh

echo "=== ci.sh: fault-matrix smoke (ASan/UBSan) ==="
# Drive the unreliable-C/R pipeline end to end under the sanitizer build
# that check.sh just produced: a small grid over corruption/write-failure
# probability x retention depth. Both exit codes 0 (completed) and 1
# (structured JobAbort) are legitimate outcomes; anything else — including
# a sanitizer report, which aborts the process — fails the gate.
# halt_on_error makes a UBSan report abort too; by default it only prints.
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
FAULT_CLI="build-san/tools/redcr_cli"
for corr in 0 0.05 1; do
  for wfail in 0 0.2; do
    for retention in 1 3; do
      echo "--- faults: corruption=$corr write-failure=$wfail retention=$retention"
      set +e
      "$FAULT_CLI" run --virtual 8 --redundancy 1 --mtbf-hours 0.1 \
        --iterations 30 --compute-sec 5 --interval-sec 60 \
        --ckpt-corruption-prob "$corr" --ckpt-write-failure-prob "$wfail" \
        --restart-failure-prob 0.2 --ckpt-retention "$retention" \
        --seed 7 --faults-seed 11 --log-level error >/dev/null
      status=$?
      set -e
      if [[ "$status" -ne 0 && "$status" -ne 1 ]]; then
        echo "ci.sh: fault-matrix cell crashed (exit $status)" >&2
        exit 1
      fi
    done
  done
done

echo "=== ci.sh: multilevel fault-matrix smoke (ASan/UBSan) ==="
# Same gate for the storage hierarchy: a two-level sync cell and a
# three-level async-flush cell (XOR corruption + write failures + a slow
# PFS), each under the sanitizer build. Exit 0/1 are legitimate; anything
# else is a crash or sanitizer report.
LEVELS_2="local,bw=1e10,lat=0.01,rbw=1e10;pfs,bw=5e8,interval=4,ret=2"
LEVELS_3="local,bw=1e10,lat=0.01,rbw=1e10;xor,bw=1e10,lat=0.01,rbw=1e10,group=4,k=1,interval=2,ret=2,corr=0.05,wfail=0.1;pfs,bw=5e8,interval=4,ret=2,corr=0.02"
run_multilevel_cell() {
  echo "--- multilevel: $1"
  shift
  set +e
  "$FAULT_CLI" run --virtual 8 --redundancy 1 --mtbf-hours 0.2 \
    --iterations 30 --compute-sec 5 --interval-sec 60 \
    --seed 7 --faults-seed 11 --log-level error "$@" >/dev/null
  status=$?
  set -e
  if [[ "$status" -ne 0 && "$status" -ne 1 ]]; then
    echo "ci.sh: multilevel cell crashed (exit $status)" >&2
    exit 1
  fi
}
run_multilevel_cell "2-level sync" --ckpt-levels "$LEVELS_2"
run_multilevel_cell "3-level async flush" --ckpt-levels "$LEVELS_3" --async-flush

echo "=== ci.sh: SDC fault-matrix smoke (ASan/UBSan) ==="
# Drive the silent-data-corruption pipeline through each detection regime
# under the sanitizer build: r=1 (no voting — infections pass silently),
# r=1.5 and r=2 (divergence detection + rollback + unverified-checkpoint
# invalidation), r=3 (majority vote corrects in place), and r=2 and r=3 in
# msg-plus-hash mode, where hash copies take the voted per-copy path too.
# Exit 0/1 are legitimate outcomes; anything else is a crash or sanitizer
# report.
run_sdc_cell() {
  echo "--- sdc: $*"
  set +e
  "$FAULT_CLI" run --virtual 8 --mtbf-hours 1e6 \
    --iterations 40 --compute-sec 5 --interval-sec 60 --ckpt-retention 3 \
    --sdc-inflight-prob 2e-4 --sdc-atrest-rate 2e-4 --sdc-seed 4243 \
    --seed 7 --faults-seed 11 --log-level error "$@" >/dev/null
  status=$?
  set -e
  if [[ "$status" -ne 0 && "$status" -ne 1 ]]; then
    echo "ci.sh: sdc cell crashed (exit $status)" >&2
    exit 1
  fi
}
for red in 1 1.5 2 3; do
  run_sdc_cell --redundancy "$red"
done
for red in 2 3; do
  run_sdc_cell --redundancy "$red" --msg-plus-hash
done

echo "=== ci.sh: fast-forward engine smoke (ASan/UBSan) ==="
# Drive ExecMode::kFastForward through the sanitizer build on cells inside
# its supported set (no visible write failures, no SDC, no journal): a
# failure-heavy flat cell with latent corruption + retention fallback, and
# the three-level async-flush cell. Exit 0/1 are legitimate; anything else
# is a crash or sanitizer report.
LEVELS_FF="local,bw=1e10,lat=0.01,rbw=1e10;xor,bw=1e10,lat=0.01,rbw=1e10,group=4,k=1,interval=2,ret=2,corr=0.05;pfs,bw=5e8,interval=4,ret=2,corr=0.02"
run_ff_cell() {
  echo "--- fastforward: $1"
  shift
  set +e
  "$FAULT_CLI" run --virtual 8 --redundancy 1.5 --mtbf-hours 0.1 \
    --iterations 30 --compute-sec 5 --interval-sec 60 \
    --seed 7 --faults-seed 11 --log-level error \
    --engine fastforward "$@" >/dev/null
  status=$?
  set -e
  if [[ "$status" -ne 0 && "$status" -ne 1 ]]; then
    echo "ci.sh: fast-forward cell crashed (exit $status)" >&2
    exit 1
  fi
}
run_ff_cell "flat + corruption + retention" \
  --ckpt-corruption-prob 0.05 --restart-failure-prob 0.2 --ckpt-retention 3
run_ff_cell "3-level async flush" --ckpt-levels "$LEVELS_FF" --async-flush

echo "=== ci.sh: fast-forward differential smoke ==="
# The bit-identity contract, end to end through the CLI: the same cell run
# with --engine event and --engine fastforward must print byte-identical
# reports. Flat cells under exponential and Weibull (k = 0.7 infant
# mortality, k = 2 wear-out) failures, flat cells with three-replica spheres
# (r = 2.5 and 3; a repeated flag takes its last value), and one
# three-level async cell.
FF_DIR="$(mktemp -d)"
run_ff_diff_cell() {
  local name="$1"
  shift
  echo "--- differential: $name"
  "$FAULT_CLI" run --virtual 8 --redundancy 1.5 --mtbf-hours 0.2 \
    --iterations 30 --compute-sec 5 --interval-sec 60 \
    --seed 7 --faults-seed 11 --log-level error \
    --engine event "$@" > "$FF_DIR/event.txt" || true
  "$FAULT_CLI" run --virtual 8 --redundancy 1.5 --mtbf-hours 0.2 \
    --iterations 30 --compute-sec 5 --interval-sec 60 \
    --seed 7 --faults-seed 11 --log-level error \
    --engine fastforward "$@" > "$FF_DIR/ff.txt" || true
  diff -u "$FF_DIR/event.txt" "$FF_DIR/ff.txt" \
    || { echo "ci.sh: fast-forward report diverged ($name)" >&2; exit 1; }
}
run_ff_diff_cell "flat"
run_ff_diff_cell "flat, Weibull k=0.7" --weibull-shape 0.7
run_ff_diff_cell "flat, Weibull k=2" --weibull-shape 2
run_ff_diff_cell "flat, r=2.5" --redundancy 2.5
run_ff_diff_cell "flat, r=3" --redundancy 3
run_ff_diff_cell "3-level async flush" --ckpt-levels "$LEVELS_FF" --async-flush
rm -rf "$FF_DIR"

echo "=== ci.sh: journal analyze smoke (ASan/UBSan) ==="
# Emit a causal journal from the three-level async cell, then run the
# analyzer over it under the sanitizer build: the blame report must
# reconcile against the executor's accounting invariant (analyze exits
# non-zero otherwise), and a self-diff must report zero divergence.
JOURNAL_DIR="$(mktemp -d)"
trap 'rm -rf "$JOURNAL_DIR"' EXIT
"$FAULT_CLI" run --virtual 8 --redundancy 1 --mtbf-hours 0.2 \
  --iterations 30 --compute-sec 5 --interval-sec 60 \
  --seed 7 --faults-seed 11 --log-level error \
  --ckpt-levels "$LEVELS_3" --async-flush \
  --journal-out "$JOURNAL_DIR/a.journal" >/dev/null || true
"$FAULT_CLI" run --virtual 8 --redundancy 1 --mtbf-hours 0.2 \
  --iterations 30 --compute-sec 5 --interval-sec 60 \
  --seed 7 --faults-seed 11 --log-level error \
  --ckpt-levels "$LEVELS_3" --async-flush \
  --journal-out "$JOURNAL_DIR/b.journal" >/dev/null || true
"$FAULT_CLI" analyze --journal "$JOURNAL_DIR/a.journal" --blame --levels
"$FAULT_CLI" analyze --journal "$JOURNAL_DIR/a.journal" \
  --diff "$JOURNAL_DIR/b.journal"
# Same reconciliation gate for SDC waste: a dual-redundancy run with both
# corruption processes live must journal every rollback chained to its
# injection, and the blame report must bill the [sdc] roots to a zero
# residual (analyze exits non-zero otherwise).
"$FAULT_CLI" run --virtual 8 --redundancy 2 --mtbf-hours 1e6 \
  --iterations 40 --compute-sec 5 --interval-sec 60 --ckpt-retention 3 \
  --sdc-inflight-prob 2e-4 --sdc-atrest-rate 2e-4 --sdc-seed 4243 \
  --seed 7 --faults-seed 11 --log-level error \
  --journal-out "$JOURNAL_DIR/sdc.journal" >/dev/null || true
"$FAULT_CLI" analyze --journal "$JOURNAL_DIR/sdc.journal" --blame

echo "=== ci.sh: serve-mode replay smoke (ASan/UBSan) ==="
# Replay the checked-in request log through the serving front-end under
# the sanitizer build and hold the response bytes to the committed golden:
# serve responses are a documented determinism contract (identical across
# reruns — see src/apps/serve.hpp). The respelled log (every number written
# another JSON way) must read to the same doubles and so give the same
# bytes, and so must the log with CRLF line ends.
"$FAULT_CLI" serve --replay tests/data/serve_requests.ndjson \
  2>/dev/null | diff -u tests/data/serve_golden.ndjson - \
  || { echo "ci.sh: serve replay diverged from the golden" >&2; exit 1; }
"$FAULT_CLI" serve --replay tests/data/serve_requests_respelled.ndjson \
  2>/dev/null | diff -u tests/data/serve_golden.ndjson - \
  || { echo "ci.sh: respelled serve replay diverged" >&2; exit 1; }
sed 's/$/\r/' tests/data/serve_requests.ndjson | "$FAULT_CLI" serve --replay - \
  2>/dev/null | diff -u tests/data/serve_golden.ndjson - \
  || { echo "ci.sh: CRLF serve replay diverged" >&2; exit 1; }

echo "=== ci.sh: engine performance guard ==="
scripts/bench_guard.sh "$BUILD_DIR"

echo "ci.sh: all gates passed"

#!/usr/bin/env bash
# Sanitizer gate: builds the tree twice — with AddressSanitizer + UBSan, and
# with ThreadSanitizer — and runs the fast `smoke`-labelled test suites
# under each. The ASan+UBSan cell adds float-cast-overflow, which GCC's
# -fsanitize=undefined leaves out, and also runs the `cli` exit-code cases,
# so every bad-input probe of redcr_cli meets it. That cell configures
# RelWithDebInfo without its -DNDEBUG, so it is also the one build in which
# the `assert`s in src/ run.
# The TSan cell covers the code that really runs threads, such as
# exp::SweepRunner's parallel DES cells (each worker thread with its own
# util::BlockPool lists) and the Planner cache. Intended as the pre-merge
# check; a plain build stays untouched in ./build.
#
# Usage: scripts/check.sh [asan-build-dir] [tsan-build-dir]
#        (defaults: build-san, build-tsan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-san}"
TSAN_BUILD_DIR="${2:-build-tsan}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" \
  -DREDCR_SANITIZE="address;undefined;float-cast-overflow"
cmake --build "$BUILD_DIR" -j "$JOBS"

# halt_on_error: a UBSan diagnostic must fail the gate, not just print.
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
ctest --test-dir "$BUILD_DIR" -L 'smoke|cli' --output-on-failure -j "$JOBS"

echo "check.sh: ASan+UBSan smoke and cli suites passed"

cmake -B "$TSAN_BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DREDCR_SANITIZE=thread
cmake --build "$TSAN_BUILD_DIR" -j "$JOBS"

# No suppressions: any reported race fails the gate.
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir "$TSAN_BUILD_DIR" -L smoke --output-on-failure -j "$JOBS"

echo "check.sh: TSan smoke suite passed"

#!/usr/bin/env bash
# Builds the fault-injection / supervision suites under AddressSanitizer
# and runs them. Chaos runs exercise exception unwinding, mid-stream
# cancellation and tuple quarantine — exactly the paths where lifetime
# bugs (use-after-free of queued tuples, double-free on unwind) hide. The
# raw-tuple custody tests (TupleBuffer's chunk drops, moves and unspill,
# and the managers built on it) run here too.
# Usage: scripts/check_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail

BUILD_DIR="${1:-build-asan}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cmake -S "$ROOT" -B "$ROOT/$BUILD_DIR" \
  -DSPEAR_SANITIZE=address \
  -DSPEAR_BUILD_BENCHMARKS=OFF \
  -DSPEAR_BUILD_EXAMPLES=OFF
cmake --build "$ROOT/$BUILD_DIR" -j"$(nproc)" \
  --target spear_common_tests spear_substrate_tests spear_core_tests \
  spear_runtime_tests spear_recovery_tests spear_overload_tests

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
"$ROOT/$BUILD_DIR/tests/spear_common_tests" --gtest_filter='Fault*:Retry*:Backoff*'
"$ROOT/$BUILD_DIR/tests/spear_substrate_tests" \
  --gtest_filter='SecondaryStorage*:TupleBuffer*:SpillingBuffer*:SingleBuffer*'
# SpearSnapshot* and SpillCancelRace* live in spear_recovery_tests, which
# runs unfiltered below.
"$ROOT/$BUILD_DIR/tests/spear_core_tests" --gtest_filter='SpearManager*'
"$ROOT/$BUILD_DIR/tests/spear_runtime_tests" \
  --gtest_filter='Supervision*:Chaos*:Executor*'
"$ROOT/$BUILD_DIR/tests/spear_recovery_tests"
"$ROOT/$BUILD_DIR/tests/spear_overload_tests"
echo "ASan: fault-injection + supervision + custody + recovery + overload suites clean"

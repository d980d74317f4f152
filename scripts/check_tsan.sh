#!/usr/bin/env bash
# Builds the runtime, common, recovery, overload and obs test suites under
# ThreadSanitizer and runs them, catching data races in the channel/executor
# machinery and between the metrics sampler and the workers it scrapes that
# a plain build would only lose intermittently.
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

BUILD_DIR="${1:-build-tsan}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cmake -S "$ROOT" -B "$ROOT/$BUILD_DIR" \
  -DSPEAR_SANITIZE=thread \
  -DSPEAR_BUILD_BENCHMARKS=OFF \
  -DSPEAR_BUILD_EXAMPLES=OFF
cmake --build "$ROOT/$BUILD_DIR" -j"$(nproc)" \
  --target spear_common_tests spear_runtime_tests spear_recovery_tests \
  spear_overload_tests spear_obs_tests

# halt_on_error makes the suite fail on the first race instead of
# reporting and continuing with an exit code gtest would swallow.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
"$ROOT/$BUILD_DIR/tests/spear_common_tests"
"$ROOT/$BUILD_DIR/tests/spear_runtime_tests"
"$ROOT/$BUILD_DIR/tests/spear_recovery_tests"
"$ROOT/$BUILD_DIR/tests/spear_overload_tests"
"$ROOT/$BUILD_DIR/tests/spear_obs_tests"
echo "TSan: common + runtime + recovery + overload + obs suites clean"

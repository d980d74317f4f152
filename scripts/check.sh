#!/usr/bin/env bash
# Full local check: configure, build, run every test, the crash-chaos
# recovery sweep, the overload-control sweep, an ASan pass over the
# fault-injection suites, then every bench.
# Usage: scripts/check.sh [build-dir]
#
# SPEAR_CHECK_MATRIX=1 widens the sanitizer pass into the full matrix:
# plain + Release + ASan + TSan + UBSan in sequence (the Release pass
# builds at -O3 under -Werror, where GCC reports warnings the default
# RelWithDebInfo build does not, and reruns the suite; the TSan pass
# covers the executor's supervision/recovery/overload machinery, where
# races would otherwise only lose intermittently; the UBSan pass covers
# the lock-free shed arithmetic), plus the 20x stress rerun of the
# timing-sensitive chaos tests (scripts/check_stress.sh) whose failures
# are intermittent by nature.
#
# SPEAR_COVERAGE=1 builds instrumented (--coverage) in <build-dir>-cov,
# runs the full suite there, and prints a gcovr line-coverage summary
# (skipped with a note when gcovr is not installed).
set -euo pipefail

BUILD_DIR="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cmake -S "$ROOT" -B "$ROOT/$BUILD_DIR" -G Ninja
cmake --build "$ROOT/$BUILD_DIR"
ctest --test-dir "$ROOT/$BUILD_DIR" -j"$(nproc)" --output-on-failure

# Crash-chaos recovery suite across seeds (varies the crash points).
"$ROOT/scripts/check_recovery.sh" "$BUILD_DIR"

# Overload-control suite across seeds (varies the crash-while-shedding
# points of the combined chaos test).
"$ROOT/scripts/check_overload.sh" "$BUILD_DIR"

# Chaos paths (exception unwinding, cancellation, quarantine) under ASan.
"$ROOT/scripts/check_asan.sh" "$BUILD_DIR-asan"

if [ "${SPEAR_CHECK_MATRIX:-0}" = "1" ]; then
  cmake -S "$ROOT" -B "$ROOT/$BUILD_DIR-release" -G Ninja \
    -DCMAKE_BUILD_TYPE=Release
  cmake --build "$ROOT/$BUILD_DIR-release"
  ctest --test-dir "$ROOT/$BUILD_DIR-release" -j"$(nproc)" --output-on-failure
  "$ROOT/scripts/check_tsan.sh" "$BUILD_DIR-tsan"
  "$ROOT/scripts/check_ubsan.sh" "$BUILD_DIR-ubsan"
  # 20x rerun of the timing-sensitive chaos tests; reuses the TSan build
  # the matrix just produced for its sanitized sweep.
  "$ROOT/scripts/check_stress.sh" "$BUILD_DIR"
fi

if [ "${SPEAR_COVERAGE:-0}" = "1" ]; then
  if command -v gcovr > /dev/null 2>&1; then
    cmake -S "$ROOT" -B "$ROOT/$BUILD_DIR-cov" \
      -DSPEAR_COVERAGE=ON -DSPEAR_BUILD_BENCHMARKS=OFF \
      -DSPEAR_BUILD_EXAMPLES=OFF
    cmake --build "$ROOT/$BUILD_DIR-cov" -j"$(nproc)"
    ctest --test-dir "$ROOT/$BUILD_DIR-cov" -j"$(nproc)" --output-on-failure
    echo "=== line coverage (gcovr) ==="
    gcovr --root "$ROOT" --filter "$ROOT/src/" \
      --object-directory "$ROOT/$BUILD_DIR-cov" \
      --print-summary --sort-percentage | tail -40
  else
    echo "SPEAR_COVERAGE=1 set but gcovr not installed; skipping summary"
  fi
fi

for bench in "$ROOT/$BUILD_DIR"/bench/bench_*; do
  [ -x "$bench" ] || continue
  echo "=== $(basename "$bench") ==="
  "$bench"
done

#!/usr/bin/env python3
"""Entry point of the SPEAr benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. Builds perfbench/ (and the library from src/)
into .bench_build/perfbench on first use, then runs one measurement. The
last line of standard output is the result: one JSON object with the keys
correct, attempted, failed and metrics. Build logs and progress go to
standard error. Exits non-zero, printing no result, when the sources are
missing, the build fails, or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "spear_bench")
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that the output checker rejects "
                             "perturbed result sets")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    if not os.path.isfile(os.path.join(ROOT, "src", "core",
                                       "spear_window_manager.h")):
        log("SPEAr sources not found under " + os.path.join(ROOT, "src"))
        return 2
    if not build():
        log("build failed")
        return 1

    if args.selftest:
        cmd = [BINARY, "--selftest"]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.monotonic()
    try:
        # The traced run writes its spans under .bench_build/ of the cwd.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    log("run took %.1f s" % (time.monotonic() - start))
    if proc.returncode != 0:
        log("spear_bench exited with %d" % proc.returncode)
        return 1
    if args.selftest:
        return 0

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("spear_bench printed no result")
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("malformed result: " + lines[-1])
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

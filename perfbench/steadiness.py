#!/usr/bin/env python3
"""Steadiness check for the SPEAr benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b]
                                    [--seconds s]

Runs every workload (or the comma-separated --workloads) in two separate
sets of --runs runs, each run with its own seed (set A: seeds 1.., set B:
seeds 101..), one run at a time; --sets 1 runs set A only, for tuning. For
each metric prints both sets' medians, set A's quartiles, the spread of each
set (interquartile distance over median), and the gap between the two set
medians, next to the metric's bound from BENCHMARK.json. Run from the
repository root.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit("run failed: " + " ".join(cmd))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # Figures logged for reference only (not gated metrics).
    for key, pattern in (("wall_tuples_per_s", r"wall ([0-9.e+]+) tuples/s"),
                         ("window_p95_us", r"window p95 ([0-9.e+]+) us")):
        found = re.search(pattern, proc.stderr)
        if found:
            result.setdefault("reference", {})[key] = float(found.group(1))
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        sets = []
        for base in (1, 101)[:args.sets]:
            runs = [run_once(workload, base + i, args.seconds)
                    for i in range(args.runs)]
            sets.append(runs)
        print("== %s (%d runs per set, %g s each)" % (workload, args.runs,
                                                     args.seconds))
        for label, runs in zip("AB", sets):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            correct = all(r["correct"] for r in runs)
            print("   set %s: correct=%s failed %d of %d attempted" %
                  (label, correct, failed, attempted))
        print("   %-24s %11s %11s %11s %11s %7s %7s %7s %6s" %
              ("metric", "A median", "A q1", "A q3", "B median", "A iqr%",
               "B iqr%", "gap%", "bound%"))
        def spread(q1, q3, med):
            return 100.0 * (q3 - q1) / abs(med) if med else float("nan")

        for name in sorted(sets[0][0]["metrics"]):
            a = [r["metrics"][name]["value"] for r in sets[0]]
            # With one set, B repeats A: its spread is A's and the gap 0.
            b = [r["metrics"][name]["value"] for r in sets[-1]]
            aq1, amed, aq3 = quartiles(a)
            bq1, bmed, bq3 = quartiles(b)
            gap = 100.0 * (bmed - amed) / abs(amed) if amed else float("nan")
            bound = bounds.get(name)
            print("   %-24s %11.6g %11.6g %11.6g %11.6g %7.2f %7.2f %7.2f %6s" %
                  (name, amed, aq1, aq3, bmed, spread(aq1, aq3, amed),
                   spread(bq1, bq3, bmed), gap,
                   "%g" % (100 * bound) if bound is not None else "-"))
        for key in ("wall_tuples_per_s", "window_p95_us"):
            for label, runs in zip("AB", sets):
                values = [r["reference"][key] for r in runs
                          if key in r.get("reference", {})]
                if len(values) < 4:
                    continue
                q1, med, q3 = quartiles(values)
                print("   reference %s, set %s: median %.4g, quartiles "
                      "%.4g-%.4g (iqr %.1f%%), range %.4g-%.4g" %
                      (key, label, med, q1, q3, 100 * (q3 - q1) / med,
                       min(values), max(values)))
        sys.stdout.flush()


if __name__ == "__main__":
    main()

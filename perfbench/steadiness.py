#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--sets 1] [--first-seed 1]
                                    [--workload NAME ...] [--trace 0]

Runs perfbench/run.py --runs times per workload and set, each run with
another seed (set k uses the --runs seeds after those of set k-1). For every
metric of every set it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median, next to the
metric's bound from BENCHMARK.json. With --sets 2 or more it also prints how
far each later set's median is worse than the first set's, as a share of the
first. Exits 1 if a run fails or reports incorrect answers, if a spread
exceeds its bound, or if a later median is worse than the first by more than
the bound. --trace 1 runs the traced runs instead; their metrics have no
bound, and their traced.* medians against an untraced set's give the
tracing overhead.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_set(spec, name, seeds, trace):
    """Runs the workload once per seed; returns {metric: [values]} or None."""
    values = {}
    ok = True
    for seed in seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("%s seed %d: exit %d\n%s" %
                  (name, seed, proc.returncode, proc.stderr[-2000:]))
            return None, False
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("%s seed %d: incorrect (%d of %d failed)" %
                  (name, seed, result["failed"], result["attempted"]))
            ok = False
        for metric, v in result["metrics"].items():
            values.setdefault(metric, []).append(v["value"])
    return values, ok


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workload", action="append",
                   help="repeatable; default: every workload")
    args = p.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m for m in spec["end_to_end"]}

    ok = True
    for name in names:
        medians = []  # per set: {metric: median}
        for k in range(args.sets):
            first = args.first_seed + k * args.runs
            values, set_ok = run_set(spec, name,
                                     range(first, first + args.runs),
                                     args.trace)
            if values is None:
                return 1
            ok = ok and set_ok
            print("== %s set %d: %d runs, seeds %d..%d" %
                  (name, k + 1, args.runs, first, first + args.runs - 1))
            print("%-24s %10s %10s %10s %7s %5s  %s" %
                  ("metric", "median", "q1", "q3", "spread", "bound",
                   "values"))
            medians.append({})
            for metric, vals in values.items():
                q1, med, q3 = statistics.quantiles(vals, n=4)
                medians[-1][metric] = med
                spread = (q3 - q1) / med if med else 0.0
                bound = e2e[metric]["bound"] if metric in e2e else None
                flag = ""
                if bound is not None and spread > bound:
                    flag = "  OVER BOUND"
                    ok = False
                print("%-24s %10.4f %10.4f %10.4f %7.4f %5s  %s%s" %
                      (metric, med, q1, q3, spread,
                       "-" if bound is None else bound,
                       " ".join("%.4g" % v for v in vals), flag))
            sys.stdout.flush()
        for k in range(1, args.sets):
            print("== %s set %d against set 1: how much worse the median is" %
                  (name, k + 1))
            for metric, first in medians[0].items():
                if metric not in e2e or not first:
                    continue
                change = (medians[k][metric] - first) / first
                worse = change if e2e[metric]["better"] == "lower" else -change
                flag = ""
                if worse > e2e[metric]["bound"]:
                    flag = "  OVER BOUND"
                    ok = False
                print("%-24s %10.4f -> %10.4f  worse by %+.4f (bound %s)%s" %
                      (metric, first, medians[k][metric], worse,
                       e2e[metric]["bound"], flag))
            sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

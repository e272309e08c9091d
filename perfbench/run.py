#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload power --seed 1 --seconds 15 --trace 0

Run from the repository root. The first run configures and builds the
engine and the benchmark program (Release) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs reuse the
build. Build output goes to stderr. The program's report goes to stdout, and
its last line is the JSON result: {"correct", "attempted", "failed",
"metrics"}. --trace 1 makes the traced run: per-layer metrics, with the spans
written to <build dir>/traces/<workload>-seed<seed>.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("power", "throughput_refresh", "out_of_core")
# The benchmark program is stopped this long after --seconds have passed; set-up,
# the reference answers and finishing the last cycle take well under a minute.
RUN_MARGIN_S = 150


def build_dir(root):
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = root / base
    return base / "perfbench"


def build(root, out):
    """Configures (once) and builds the benchmark program; returns its path or None."""
    source = root / "perfbench"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(source), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return out / "perfbench"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sf", type=float, default=0.1,
                   help="TPC-H scale factor (default 0.1)")
    p.add_argument("--corrupt-query", type=int, default=0,
                   help="self-test only: falsify this query's reference")
    args = p.parse_args()

    root = Path(__file__).resolve().parent.parent
    out = build_dir(root)
    binary = build(root, out)
    if binary is None:
        return 1

    data_dir = out / ("data-%d" % os.getpid())
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--sf", str(args.sf),
           "--data-dir", str(data_dir),
           "--corrupt-query", str(args.corrupt_query)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / ("%s-seed%d.jsonl" % (args.workload, args.seed)))]
    sys.stdout.flush()
    timeout = args.seconds + RUN_MARGIN_S
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %gs" % timeout, file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/tests/selftest.py

Checks, at a tiny scale factor (SF 0.01, 1 s runs):
  * every workload, untraced and traced, exits 0 and ends its output with
    the JSON result, whose metrics are exactly the end_to_end (trace 0) or
    per_layer (trace 1) metrics named in BENCHMARK.json, with their units,
    and reports correct answers;
  * a deliberately falsified reference answer is caught: correct is false,
    failed is nonzero and op_failure_ratio is above 0;
  * in a directory holding only BENCHMARK.json and perfbench/ (no engine
    sources), run.py fails with a nonzero exit and prints no result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--sf", "0.01", "--seconds", "1"]

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def run(args, cwd=ROOT, env=None):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py")] + args
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          env=env, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def check_result(label, proc, result, expected):
    check(proc.returncode == 0, "%s: exit code 0" % label)
    if proc.returncode != 0:
        print(proc.stderr[-3000:])
    check(result is not None and
          set(result) == {"correct", "attempted", "failed", "metrics"},
          "%s: last line is the JSON result" % label)
    if result is None:
        return
    got = result["metrics"]
    check(set(got) == set(expected),
          "%s: emits exactly the BENCHMARK.json metrics (missing %s, extra %s)"
          % (label, sorted(set(expected) - set(got)),
             sorted(set(got) - set(expected))))
    check(all(got[n]["unit"] == expected[n] for n in expected if n in got),
          "%s: units match BENCHMARK.json" % label)
    check(all(isinstance(got[n]["value"], (int, float)) for n in got),
          "%s: every value is a number" % label)
    check(result["correct"] and result["failed"] == 0 and
          result["attempted"] >= 1,
          "%s: answers correct (%d attempted, %d failed)" %
          (label, result["attempted"], result["failed"]))


def main():
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    for w in SPEC["workloads"]:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            label = "%s trace=%d" % (w["name"], trace)
            proc, result = run(["--workload", w["name"], "--seed", "7",
                                "--trace", str(trace)] + TINY)
            check_result(label, proc, result, expected)
            if trace == 0 and result is not None:
                zero = [n for n, v in result["metrics"].items()
                        if v["value"] == 0]
                check(not zero, "%s: no end-to-end metric is 0 %s" %
                      (label, zero))

    proc, result = run(["--workload", "power", "--seed", "7", "--trace", "1",
                        "--corrupt-query", "6"] + TINY)
    check(proc.returncode == 0 and result is not None,
          "corrupted reference: run completes")
    if result is not None:
        ratio = result["metrics"]["op_failure_ratio"]["value"]
        check(not result["correct"] and result["failed"] > 0 and ratio > 0,
              "corrupted reference: counted (failed=%d, op_failure_ratio=%g)"
              % (result["failed"], ratio))

    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc, result = run(["--workload", "power", "--seed", "1",
                            "--seconds", "1"], cwd=bare, env=env)
        check(proc.returncode != 0 and result is None,
              "without engine sources: nonzero exit, no result (exit %d)"
              % proc.returncode)

    print("\n%s: %d check(s) failed" % ("FAIL" if failures else "PASS",
                                         len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Negative compile checks: prove that a seeded violation FAILS to build.

A static gate that is merely *configured* proves nothing — if the warning
flag rots, a misspelled attribute silently stops checking, or the
[[nodiscard]] is dropped in a refactor, every build keeps passing. This
runner pins the gate shut from the other side. For each snippet under
tests/compile_fail/ it compiles twice:

  1. control  — without -DVWISE_COMPILE_FAIL: must SUCCEED. This proves the
     snippet is otherwise well-formed (headers found, C++ level right), so a
     failure in step 2 can only come from the seeded violation.
  2. seeded   — with -DVWISE_COMPILE_FAIL: must FAIL, and the diagnostics
     must mention an expected marker (e.g. 'unused result' / 'thread
     safety'), so an unrelated error cannot masquerade as the gate working.

Modes
-----
  nodiscard      adds -Werror=unused-result; meaningful under gcc AND clang.
  thread-safety  adds -Wthread-safety -Wthread-safety-beta
                 -Werror=thread-safety -Werror=thread-safety-beta; the
                 analysis only exists in clang, so under any other compiler
                 the runner exits 77 (ctest SKIP_RETURN_CODE) rather than
                 reporting a vacuous pass.
  override       the seeded snippet overrides a non-virtual method (the
                 operator boundary Operator::Next); meaningful under gcc AND
                 clang.
  hotpath-*      analyzer-backed: the "compiler" for the seeded violation is
                 tools/vwise_hotpath.py in --src mode. Both variants must
                 still compile as plain C++ (the violation is semantic, not
                 syntactic); then the analyzer must accept the control and
                 reject the seeded variant with the expected diagnostic.
                   hotpath-alloc   hidden std::vector growth in a kernel
                   hotpath-lock    mutex acquisition inside Next()
                   hotpath-escape  allow() escape without a rationale

Exit codes: 0 = gate holds, 1 = gate broken, 77 = skipped (wrong compiler).
"""

import argparse
import os
import subprocess
import sys

MODES = {
    "nodiscard": {
        "flags": ["-Werror=unused-result"],
        "clang_only": False,
        # gcc: "ignoring return value of ... declared with attribute
        # 'nodiscard'"; clang: "ignoring return value of function declared
        # with 'nodiscard' attribute".
        "markers": ["nodiscard", "unused result", "-Wunused-result"],
    },
    "thread-safety": {
        "flags": ["-Wthread-safety", "-Wthread-safety-beta",
                  "-Werror=thread-safety", "-Werror=thread-safety-beta"],
        "clang_only": True,
        # e.g. "reading variable 'balance_' requires holding mutex 'mu_'",
        # "calling function 'AuditLocked' requires holding mutex 'mu_'".
        "markers": ["requires holding", "-Wthread-safety"],
    },
    "override": {
        "flags": [],
        "clang_only": False,
        # gcc: "... marked 'override', but does not override"; clang: "only
        # virtual member functions can be marked 'override'".
        "markers": ["override"],
    },
    "hotpath-alloc": {
        "flags": [],
        "clang_only": False,
        "analyzer": True,
        "markers": ["alloc:"],
    },
    "hotpath-lock": {
        "flags": [],
        "clang_only": False,
        "analyzer": True,
        "markers": ["lock:"],
    },
    "hotpath-escape": {
        "flags": [],
        "clang_only": False,
        "analyzer": True,
        "markers": ["needs a rationale"],
    },
}

HOTPATH_TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "vwise_hotpath.py")


def analyze_once(src, define):
    cmd = [sys.executable, HOTPATH_TOOL, "--src", src]
    if define:
        cmd += ["--define", "VWISE_COMPILE_FAIL"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout + proc.stderr


def is_clang(cxx):
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return False
    return "clang" in out.stdout.lower()


def compile_once(cxx, src, includes, extra_flags, define):
    cmd = [cxx, "-std=c++20", "-fsyntax-only"]
    for inc in includes:
        cmd += ["-I", inc]
    cmd += extra_flags
    if define:
        cmd.append("-DVWISE_COMPILE_FAIL")
    cmd.append(src)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cxx", required=True, help="compiler to drive")
    ap.add_argument("--mode", required=True, choices=sorted(MODES))
    ap.add_argument("--src", required=True, help="compile_fail/ snippet")
    ap.add_argument("-I", dest="includes", action="append", default=[],
                    help="include directory (repeatable)")
    args = ap.parse_args()
    mode = MODES[args.mode]

    if mode["clang_only"] and not is_clang(args.cxx):
        print(f"check_compile_fail[{args.mode}]: SKIP — {args.cxx} is not "
              "clang, the thread-safety analysis does not exist here "
              "(run the VWISE_THREAD_SAFETY CI configuration for the real "
              "check)")
        return 77

    rc, out = compile_once(args.cxx, args.src, args.includes,
                           mode["flags"], define=False)
    if rc != 0:
        print(f"check_compile_fail[{args.mode}]: control build of "
              f"{args.src} FAILED — the snippet is broken independently of "
              "the seeded violation, so the negative check proves nothing:")
        print(out)
        return 1

    if mode.get("analyzer"):
        # The seeded variant must still be valid C++ — the violation is
        # semantic (purity), not syntactic.
        rc, out = compile_once(args.cxx, args.src, args.includes,
                               mode["flags"], define=True)
        if rc != 0:
            print(f"check_compile_fail[{args.mode}]: seeded variant of "
                  f"{args.src} does not compile as C++ — the snippet must be "
                  "well-formed so only the analyzer rejects it:")
            print(out)
            return 1
        rc, out = analyze_once(args.src, define=False)
        if rc != 0:
            print(f"check_compile_fail[{args.mode}]: analyzer rejected the "
                  f"CONTROL variant of {args.src} — the clean shape must "
                  "pass, so the negative check proves nothing:")
            print(out)
            return 1
        rc, out = analyze_once(args.src, define=True)
        if rc == 0:
            print(f"check_compile_fail[{args.mode}]: GATE BROKEN — the "
                  f"seeded violation in {args.src} passed "
                  "tools/vwise_hotpath.py cleanly.")
            return 1
        if not any(m in out for m in mode["markers"]):
            print(f"check_compile_fail[{args.mode}]: analyzer rejected the "
                  f"seeded variant but for the wrong reason (none of "
                  f"{mode['markers']} in the diagnostics):")
            print(out)
            return 1
        print(f"check_compile_fail[{args.mode}]: OK — control passes the "
              "analyzer, seeded violation is rejected")
        return 0

    rc, out = compile_once(args.cxx, args.src, args.includes,
                           mode["flags"], define=True)
    if rc == 0:
        print(f"check_compile_fail[{args.mode}]: GATE BROKEN — the seeded "
              f"violation in {args.src} compiled cleanly. The attribute or "
              "warning flag this gate relies on has stopped working.")
        return 1
    if not any(m in out for m in mode["markers"]):
        print(f"check_compile_fail[{args.mode}]: seeded build failed but "
              f"for the wrong reason (none of {mode['markers']} in the "
              "diagnostics):")
        print(out)
        return 1

    print(f"check_compile_fail[{args.mode}]: OK — control builds, seeded "
          "violation is rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload er1m|figure1|async-rr \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The OCaml executable is built with dune
(release profile, no shared cache) into .bench_build/, so the run reads and
writes nothing outside the checkout.  Build output goes to stderr; the
benchmark's own stdout is passed through unchanged, and its last line is
the JSON result.  Traced runs leave their trace in .bench_build/traces/.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "dune")
TRACE_DIR = os.path.join(".bench_build", "traces")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ("er1m", "figure1", "async-rr")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile("dune-project"):
        fail("no dune-project here: run from the root of a full checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(TRACE_DIR, exist_ok=True)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release",
             "--cache=disabled", "--build-dir", os.path.abspath(BUILD_DIR),
             "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S, check=False)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail(f"build did not finish within {BUILD_TIMEOUT_S} s")
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")
    try:
        run = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", TRACE_DIR],
            env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()

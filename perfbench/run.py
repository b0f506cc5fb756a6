#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The engine and the benchmark binary are built
from source (CMake, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset. The last line of standard
output is the binary's JSON result; build logs and diagnostics go to standard
error. --selftest builds and runs the harness arithmetic tests instead.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "ingest_mt", "query", "service")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "src", "core", "dataset.h")):
        print("perfbench: engine sources missing under " + ROOT,
              file=sys.stderr)
        return 2
    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    if args.selftest:
        return subprocess.run([os.path.join(out, "harness_test")]).returncode

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(out, "trace-%s-%d.json" % (args.workload,
                                                       args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print("perfbench: no result (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 3
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want is not None and got != want:
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, "
              "unexpected %s" % (sorted(set(want) - set(got)),
                                 sorted(set(got) - set(want))),
              file=sys.stderr)
        return 3
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload pqd_hold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (and the library sources it compiles) into .bench_build/; later
runs only rebuild what changed. Build output goes to standard error, so the
last line of standard output is always the benchmark's result object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are every end-to-end metric of BENCHMARK.json,
with --trace 1 every per-layer metric (spans are written to .bench_out/).
The exit code is 0 only when the build succeeded, every output check
passed and the result names exactly those metrics with their units.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPANS = ROOT / ".bench_out"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the perfbench target (a no-op when nothing
    changed); holds a lock so concurrent runs in one checkout do not build
    over each other."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(min(os.cpu_count() or 1, 4))]]
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(step))


def expected_metrics(traced):
    """Metric name -> unit every result must carry: all of BENCHMARK.json's
    per_layer metrics when traced, else all of its end_to_end metrics."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if traced else "end_to_end"]}


def main():
    spec = json.loads((HERE / "metrics.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        SPANS.mkdir(exist_ok=True)
        cmd += ["--spans-dir", str(SPANS)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if not lines:
        fail(f"{args.workload} printed nothing (exit {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload}: last line is not a result object")

    want = expected_metrics(args.trace == "1")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{args.workload}: metrics {sorted(got.items())} differ from "
             f"the declared {sorted(want.items())}")
    print("\n".join(lines))
    ok = run.returncode == 0 and result["correct"] and result["failed"] == 0
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

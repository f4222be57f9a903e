#!/usr/bin/env python3
"""Build and run the host-time benchmark of the GRASP simulator.

    python3 perfbench/run.py --workload farm_churn --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds perfbench/ (a CMake package that
compiles ../src) into .bench_build/perfbench, pins itself and the benchmark
to one CPU, runs one workload and relays its output.  The last stdout line
is the result object {"correct", "attempted", "failed", "metrics"}; the
metric names are checked against BENCHMARK.json.  Exits non-zero, printing
no result, when the sources are missing or the build or run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "task_farm.hpp")):
        fail(f"library sources not found under {ROOT}/src")
    try:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                        "-j", jobs], stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    return os.path.join(BUILD, "perfbench")


def pin():
    """Pin to one fixed CPU: the second allowed one (the first often takes
    the host's interrupts).  Rotating runs across cores was measured to
    spread wider than staying on one."""
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[1] if len(allowed) > 1 else allowed[0]
    os.sched_setaffinity(0, {cpu})
    return cpu, allowed


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    expected = expected_metrics(args.trace)
    cpu, allowed = pin()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(OUT, f"{args.workload}-seed{args.seed}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        fail("last output line is not a JSON result")
    if sorted(result["metrics"]) != sorted(expected):
        sys.stderr.write(proc.stdout)
        fail("reported metrics differ from BENCHMARK.json")

    print(f"placement: pinned to cpu {cpu} of allowed {allowed}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

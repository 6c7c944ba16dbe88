#!/usr/bin/env python3
"""vaFS benchmark: builds the benchmark binary from ../src and runs one workload.

    python3 vafsbench/run.py --workload vod_flash --seed 20261017 --seconds 30 --trace 0
    python3 vafsbench/run.py --workload vod_array --spread 10 --seconds 30

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory. The last line of standard output
is the JSON result; --spread N instead runs N seeds and prints each metric's
median, quartiles and inter-quartile range (each seed's result line goes to
standard error).
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("vod_flash", "vod_array", "studio_mixed")
DEFAULT_SEED = 20261017
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configures and builds the binary; returns its path, or None."""
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "vafsbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(root, "vafsbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        for command in (
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "-j", jobs, "--target", "vafsbench"],
        ):
            done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                return None
    binary = os.path.join(build_dir, "vafsbench")
    return binary if os.access(binary, os.X_OK) else None


def run_binary(binary, workload, seed, seconds, trace, echo):
    """Runs one benchmark process; returns its parsed result or None.

    Echoes the lines before the result, or with echo off only the host
    probe line."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark timed out after {RUN_TIMEOUT_S}s", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        if echo or line.startswith("host probe:"):
            print(line)
    if done.returncode != 0 or not lines:
        print(f"benchmark exited with {done.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("benchmark printed no JSON result", file=sys.stderr)
        return None
    if set(result) != RESULT_KEYS:
        print(f"unexpected result keys {sorted(result)}", file=sys.stderr)
        return None
    return result


def spread(binary, args):
    """Runs --spread seeds and prints each metric's median, quartiles, IQR."""
    values = {}
    units = {}
    failed = 0
    for i in range(args.spread):
        seed = args.seed + i
        result = run_binary(binary, args.workload, seed, args.seconds, args.trace, False)
        if result is None:
            return 1
        failed += result["failed"]
        print(f"seed {seed}: failed {result['failed']} of {result['attempted']}", flush=True)
        print(json.dumps(result), file=sys.stderr, flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"{'metric':38} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/median':>10}  unit")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else series * 3
        share = (q3 - q1) / median if median else float("nan")
        print(f"{name:38} {median:12.6g} {q1:12.6g} {q3:12.6g} {share:10.4f}  {units[name]}")
    print(f"failed operations over all seeds: {failed}")
    return 0 if failed == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, default=0,
                        help="run this many consecutive seeds and report the spread")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("build failed", file=sys.stderr)
        return 2
    if args.spread > 0:
        return spread(binary, args)
    result = run_binary(binary, args.workload, args.seed, args.seconds, args.trace, True)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the dmx engine.

Builds the engine and the benchmark driver from source (into
.bench_build/perfbench at the root of the checkout), runs one workload, and
prints the driver's output. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload point_lookup|scan_filter|txn_write \
        --seed N --seconds S --trace 0|1

--trace 0 reports the end-to-end metrics; --trace 1 reruns the workload
with spans and reports the per-layer metrics (see perfbench/README.md).
The exit code is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("point_lookup", "scan_filter", "txn_write")
BUILD_TYPE = "Release"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"engine sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return BUILD_DIR / "perfbench_driver"


def run_driver(binary, args, extra=()):
    """Run the driver; return (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S)
    return done.returncode, done.stdout.decode().splitlines()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(str(e))
        return 2
    extra = []
    if args.trace:
        extra = ["--spans-out", str(BUILD_DIR / f"spans-{args.workload}.csv")]
    try:
        code, lines = run_driver(binary, args, extra)
    except subprocess.TimeoutExpired:
        log(f"driver did not finish within {RUN_TIMEOUT_S} s")
        return 2
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if not isinstance(result, dict) or "correct" not in result:
        log(f"driver exited with {code} and printed no result")
        return code or 2
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

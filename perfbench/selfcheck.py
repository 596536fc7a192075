#!/usr/bin/env python3
"""Fast self-check of the benchmark's own code, at tiny sizes.

    python3 perfbench/selfcheck.py

Checks, for every workload:
  * an untraced run prints every end_to_end metric of BENCHMARK.json with
    its unit, and a traced run every per_layer metric, and nothing else;
  * both runs pass their correctness checks;
  * with one expected value made wrong (--tamper), the run reports
    "correct": false and exits non-zero.
It also checks that run.py, copied alone with BENCHMARK.json into a
directory without the engine sources, exits non-zero without a result.
Takes about ten seconds once the driver is built.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

# Half a second of nominal work: enough for txn_write to reach a quiesced
# checkpoint and a probe (one each per client-0 block of 2000 transactions).
TINY = ["--seconds", "0.5", "--rows", "2000"]


def declared(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def drive(binary, workload, trace, extra=()):
    cmd = [str(binary), "--workload", workload, "--seed", "7", "--trace",
           str(trace), *TINY, *extra]
    done = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=run.RUN_TIMEOUT_S)
    lines = done.stdout.decode().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr.decode()


def check_metrics(result, want, label):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys are {sorted(result)}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    for name, unit in want.items():
        if name not in got:
            problems.append(f"{label}: metric {name} missing")
        elif got[name] != unit:
            problems.append(f"{label}: {name} has unit {got[name]}, "
                            f"BENCHMARK.json says {unit}")
    for name in got.keys() - want.keys():
        problems.append(f"{label}: metric {name} is not in BENCHMARK.json")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{label}: {name} has no numeric value")
    return problems


def check_bare_directory():
    """run.py without the engine sources must fail without a result."""
    bare = run.ROOT / ".bench_build" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point_lookup",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=run.RUN_TIMEOUT_S)
    shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if done.returncode == 0:
        problems.append("bare directory: run.py exited 0")
    if b'"correct"' in done.stdout:
        problems.append("bare directory: run.py printed a result")
    return problems


def main():
    binary = run.build()
    problems = []
    for workload in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace={trace}"
            code, result, err = drive(binary, workload, trace)
            if result is None:
                problems.append(f"{label}: no result (exit {code}): {err}")
                continue
            problems += check_metrics(result, declared(kind), label)
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: checks failed (exit {code}): "
                                f"{err.strip()}")
        code, result, _ = drive(binary, workload, 0, ["--tamper"])
        if code == 0 or result is None or result["correct"]:
            problems.append(f"{workload}: a wrong expected value was not "
                            f"caught (exit {code})")
        print(f"selfcheck: {workload} done", flush=True)
    problems += check_bare_directory()
    for p in problems:
        print(f"selfcheck: FAIL {p}")
    print("selfcheck: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

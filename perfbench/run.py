#!/usr/bin/env python3
"""Build and run the pimdsm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call configures and
builds the simulator library and the benchmark driver into .bench_build/
(CMake, the repo's default build type); later calls only rebuild what
changed. --workload all runs every workload in turn and ends with one
JSON line whose metrics are named <workload>.<metric>. Result files (provenance, every sample, digests) and traces go
to .bench_build/results/. The driver's last stdout line is the JSON
result; the exit code is nonzero on any failed run, digest mismatch or
oracle violation, or when the tree has no simulator sources.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
BINARY = os.path.join(CMAKE_DIR, "pimdsm_perfbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    step(["cmake", "--build", CMAKE_DIR, "-j", jobs])


def step(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def git_commit():
    """HEAD of the tree when it is its own git checkout, else 'unknown'."""
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except subprocess.TimeoutExpired:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    commit = git_commit()

    def bench(workload, capture):
        cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", RESULTS_DIR, "--git-commit", commit]
        try:
            return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                                  stdout=subprocess.PIPE if capture else None,
                                  text=True)
        except subprocess.TimeoutExpired:
            fail(f"benchmark run of {workload} exceeded {RUN_TIMEOUT_S} s")

    if args.workload != "all":
        sys.exit(bench(args.workload, capture=False).returncode)

    listed = subprocess.run([BINARY, "--list"], capture_output=True,
                            text=True, timeout=60)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in listed.stdout.split():
        done = bench(workload, capture=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        total["correct"] &= result["correct"] and done.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    sys.exit(0 if total["correct"] else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-test of the pimdsm benchmark's digest gate and trace output.

    python3 perfbench/selftest.py

Builds the driver like run.py does, runs its digest self-test, then one
short traced run of each workload. Each traced run
must reproduce its untraced digest, report every per-layer metric named
in BENCHMARK.json, and write a Chrome trace whose spans nest and whose
layer self times add up to the traced wall time. Exits nonzero on any
failure.
"""

import json
import os
import subprocess
import sys

import run

OUT_DIR = os.path.join(run.BUILD_DIR, "selftest")


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    return ok


def self_times(trace):
    """Self seconds per layer, recomputed from the trace events."""
    spans = {e["args"]["id"]: e for e in trace["traceEvents"] if e.get("ph") == "X"}
    child = {i: 0.0 for i in spans}
    for e in spans.values():
        p = e["args"]["parent"]
        if p >= 0:
            child[p] += e["dur"]
    per_layer = {}
    for i, e in spans.items():
        per_layer[e["cat"]] = per_layer.get(e["cat"], 0.0) + (e["dur"] - child[i]) * 1e-6
    return spans, per_layer


def nested(spans):
    """Every span lies inside its parent's interval (0.01 us rounding)."""
    for e in spans.values():
        p = e["args"]["parent"]
        if p < 0:
            continue
        q = spans[p]
        if e["ts"] < q["ts"] - 0.01 or e["ts"] + e["dur"] > q["ts"] + q["dur"] + 0.01:
            return False
    return True


def traced_run(workload, per_layer_names):
    cmd = [run.BINARY, "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", "1", "--out", OUT_DIR]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    ok = check(done.returncode == 0, f"{workload}: traced run exits 0")
    if not ok:
        sys.stderr.write(done.stderr[-4000:])
        return False
    result = json.loads(done.stdout.strip().splitlines()[-1])
    ok &= check(result["correct"] and result["failed"] == 0,
                f"{workload}: traced digest matches the untraced runs")
    metrics = result["metrics"]
    if per_layer_names is not None:
        missing = sorted(set(per_layer_names) - set(metrics))
        extra = sorted(set(metrics) - set(per_layer_names))
        ok &= check(not missing and not extra,
                    f"{workload}: per-layer metrics match BENCHMARK.json"
                    f" (missing {missing}, extra {extra})")
    with open(os.path.join(OUT_DIR, f"{workload}-seed3.trace.json")) as f:
        trace = json.load(f)
    spans, per_layer = self_times(trace)
    roots = [e for e in spans.values() if e["args"]["parent"] < 0]
    ok &= check(len(roots) == 1 and nested(spans), f"{workload}: spans nest under one root")
    wall = roots[0]["dur"] * 1e-6 if roots else 0.0
    total = sum(per_layer.values())
    ok &= check(wall > 0 and abs(total - wall) <= 1e-3 * wall + 1e-6,
                f"{workload}: layer self times {total:.6f} s add up to {wall:.6f} s")
    reported = trace["layerSelfSeconds"]
    ok &= check(all(abs(per_layer.get(k, 0.0) - v) <= 1e-5 + 1e-3 * wall
                    for k, v in reported.items()),
                f"{workload}: file's layerSelfSeconds match the spans")
    ok &= check(all(abs(metrics[f"{k}.self_s"]["value"] - v) <= 1e-9 + 1e-9 * v
                    for k, v in reported.items()),
                f"{workload}: <layer>.self_s metrics match the file")
    ok &= check(trace["otherData"].get("workload") == workload and
                "compiler" in trace["otherData"], f"{workload}: trace carries provenance")
    return ok


def main():
    run.build()
    os.makedirs(OUT_DIR, exist_ok=True)
    ok = check(subprocess.run([run.BINARY, "--selftest"], cwd=run.ROOT,
                              timeout=run.RUN_TIMEOUT_S).returncode == 0,
               "digest self-test")
    names = None
    bench_json = os.path.join(run.ROOT, "BENCHMARK.json")
    if os.path.isfile(bench_json):
        with open(bench_json) as f:
            names = [m["name"] for m in json.load(f)["per_layer"]]
    for workload in ("fft_agg_dsat", "barnes_agg_reuse"):
        ok &= traced_run(workload, names)
    print("perfbench selftest " + ("ok" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

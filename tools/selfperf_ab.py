#!/usr/bin/env python3
"""Judge a change by the simulator's own speed: an A/B of two builds.

    python3 tools/selfperf_ab.py BASE_BENCH HEAD_BENCH

BASE_BENCH and HEAD_BENCH are two bench_selfperf executables on the
same host, say one built from the merge base and one from the change.
The tool runs `--quick` from each PAIRS times, alternating which side
runs first; every run is a separate process in its own temporary
directory. Per row and side it takes the minimum, over the processes,
of the row's median wall time (wall_median_s) and of its peak RSS
(peak_rss_kb). On a shared host a whole process sometimes runs slow;
that only ever adds time, so the minimum is the statistic that holds
still. The head regresses when a row's wall time is more than
WALL_LIMIT times the base's, or its peak RSS more than RSS_LIMIT
times. Wall time is compared, not events/sec, so a change that removes
events counts as a speedup.

Exit status: 0 when every row passes; 1 when a row regressed (named on
stderr; PIMDSM_PERF_WAIVE=1 downgrades this to a warning and exit 0);
2 on a bad command line, a failed run or malformed output.
"""

import json
import os
import subprocess
import sys
import tempfile

# Chosen from repeated A/Bs on a shared 4-vCPU host (see CHANGES.md):
# single processes of one build differ by up to ~1.4x, but the minimum
# over 6 processes per side agreed within 7% in 20 of 20 runs, and a
# planted 20% slowdown or 20% allocation showed in 10 of 10.
PAIRS = 6
WALL_LIMIT = 1.10
RSS_LIMIT = 1.10


def fail(msg):
    print(f"selfperf_ab: {msg}", file=sys.stderr)
    sys.exit(2)


def run(bench):
    """One `bench --quick` process: {row: (wall_median_s, peak_rss_kb)}."""
    with tempfile.TemporaryDirectory(prefix="selfperf_ab.") as cwd:
        try:
            done = subprocess.run([bench, "--quick"], cwd=cwd,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
        except OSError as e:
            fail(f"{bench}: {e}")
        if done.returncode != 0:
            fail(f"{bench} exited {done.returncode}\n{done.stderr}")
        try:
            with open(os.path.join(cwd, "BENCH_selfperf.json")) as f:
                rows = {r["workload"]: (float(r["wall_median_s"]),
                                        int(r["peak_rss_kb"]))
                        for r in json.load(f)["rows"]}
        except (OSError, ValueError, KeyError, TypeError) as e:
            fail(f"{bench}: malformed BENCH_selfperf.json ({e!r})")
    if not rows or any(w <= 0 or kb <= 0 for w, kb in rows.values()):
        fail(f"{bench}: BENCH_selfperf.json needs rows with positive "
             "wall_median_s and peak_rss_kb")
    return rows


def best(runs):
    """Per row, the minimum wall time and peak RSS over @p runs."""
    if any(r.keys() != runs[0].keys() for r in runs):
        fail("one build's runs report different rows")
    return {name: (min(r[name][0] for r in runs),
                   min(r[name][1] for r in runs))
            for name in runs[0]}


def main(argv):
    if len(argv) != 3:
        print("usage: selfperf_ab.py BASE_BENCH HEAD_BENCH",
              file=sys.stderr)
        return 2
    benches = {"base": os.path.abspath(argv[1]),
               "head": os.path.abspath(argv[2])}
    runs = {"base": [], "head": []}
    for i in range(PAIRS):
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            runs[side].append(run(benches[side]))
    base, head = best(runs["base"]), best(runs["head"])
    shared = [name for name in base if name in head]
    if not shared:
        fail("the two builds share no row")

    print(f"min over {PAIRS} processes per side\n"
          f"{'row':<10} {'base(s)':>9} {'head(s)':>9} {'ratio':>6}"
          f" {'base(MB)':>9} {'head(MB)':>9} {'ratio':>6}")
    regressed = []
    for name in shared:
        (bw, brss), (hw, hrss) = base[name], head[name]
        print(f"{name:<10} {bw:9.4f} {hw:9.4f} {hw / bw:6.3f}"
              f" {brss / 1024:9.1f} {hrss / 1024:9.1f} {hrss / brss:6.3f}")
        if hw > WALL_LIMIT * bw:
            regressed.append(f"'{name}' regressed: wall time {hw / bw:.3f}x"
                             f" the base's (limit {WALL_LIMIT}x)")
        if hrss > RSS_LIMIT * brss:
            regressed.append(f"'{name}' regressed: peak RSS {hrss / brss:.3f}x"
                             f" the base's (limit {RSS_LIMIT}x)")
    for side, rows, other in (("base", base, head), ("head", head, base)):
        for name in rows:
            if name not in other:
                print(f"{name:<10} only in the {side}; not compared")

    for line in regressed:
        print(f"selfperf_ab: {line}", file=sys.stderr)
    if not regressed:
        print("selfperf_ab: PASS")
    elif os.environ.get("PIMDSM_PERF_WAIVE") == "1":
        print("selfperf_ab: regression WAIVED via PIMDSM_PERF_WAIVE",
              file=sys.stderr)
    else:
        print("selfperf_ab: FAIL (PIMDSM_PERF_WAIVE=1 overrides, with a "
              "reason in the change)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

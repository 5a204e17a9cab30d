#!/usr/bin/env python3
"""Stands in for the base bench_selfperf in the selfperf_ab tests:
writes fixed rows into BENCH_selfperf.json in the working directory,
only the fields tools/selfperf_ab.py reads."""

import json

ROWS = {"stress": (0.2, 9800), "faults": (0.1, 16600), "fig6": (0.08, 6000)}


def write(rows):
    with open("BENCH_selfperf.json", "w") as f:
        json.dump({"bench": "selfperf", "quick": True,
                   "rows": [{"workload": name, "wall_median_s": wall,
                             "peak_rss_kb": rss}
                            for name, (wall, rss) in rows.items()]}, f)


if __name__ == "__main__":
    write(ROWS)

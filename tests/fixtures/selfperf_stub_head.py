#!/usr/bin/env python3
"""Stands in for the head bench_selfperf in the selfperf_ab tests: the
base stub's rows, changed as SELFPERF_STUB says. "slow" makes fig6 20%
slower, "fat" gives fig6 15% more peak RSS, "fail" exits 3 and
"malformed" writes truncated JSON; unset, the rows equal the base's."""

import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from selfperf_stub_base import ROWS, write  # noqa: E402

mode = os.environ.get("SELFPERF_STUB", "")
wall, rss = ROWS["fig6"]
if mode == "fail":
    sys.exit(3)
if mode == "malformed":
    with open("BENCH_selfperf.json", "w") as f:
        f.write('{"rows": [{"workload": "fig6", "wall_')
    sys.exit(0)
if mode == "slow":
    ROWS["fig6"] = (wall * 1.2, rss)
elif mode == "fat":
    ROWS["fig6"] = (wall, int(rss * 1.15))
write(ROWS)

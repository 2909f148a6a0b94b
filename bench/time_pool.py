"""Time a sweep plan serial (workers = 1) against pooled (workers = auto).

    PYTHONPATH=src python bench/time_pool.py PLAN.ini [REPEATS]

Runs run_sweep on the plan REPEATS times (default 5) per side, alternating
the side that goes first, checks that both sides write the same sweep.csv
bytes, and prints one JSON object: the wall times in s and their medians.
Nothing is written to disk.
"""

import json
import statistics
import sys
import time
from dataclasses import replace

from rwcosmo.cli import parse_sweep_plan
from rwcosmo.sweep import run_sweep, sweep_table_csv


def main(path: str, repeats: int) -> dict:
    plan = parse_sweep_plan(path)[0]
    sides = {"serial": replace(plan, workers=1), "pooled": replace(plan, workers=None)}
    times = {name: [] for name in sides}
    tables = set()
    for i in range(repeats):
        for name in (sorted(sides) if i % 2 == 0 else sorted(sides, reverse=True)):
            start = time.perf_counter()
            rows = run_sweep(sides[name])
            times[name].append(time.perf_counter() - start)
            tables.add(sweep_table_csv(rows))
    if len(tables) != 1:
        raise SystemExit("serial and pooled sweeps wrote different tables")
    return {"plan": path, "rows": plan.size, "repeats": repeats, "wall_s": times,
            "median_s": {name: statistics.median(ts) for name, ts in times.items()}}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else 5), indent=1))

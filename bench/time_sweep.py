"""Time the layers of a sweep_grid op: run_sweep on the benchmark's 16-row
plan (perfbench/workloads.py at its default seed, workers = 1) and its
sweep.csv table.

    PYTHONPATH=src python bench/time_sweep.py [REPEATS]

Each repeat times, once each and in alternating order (reversed on odd
repeats), summed over the twelve rows that have a real branch:
``integrate``, the row run (steps up to FieldFrozen, then the exact frozen
tail); ``as_arrays``, the columns of a freshly built
trajectory; ``verify``, on trajectories whose columns are already built;
``table``, sweep_table_csv of the rows; and the whole op, run_sweep then
sweep_table_csv.  Prints one JSON object: the wall times in s and their
medians over REPEATS (default 15), the rows' step counters and sample count,
``libm_elements``, the elements one op passes through integrator.libm (its
math-module evaluations), and the sha256 of sweep.csv.
"""

import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

from libm_count import libm_elements
from rwcosmo import ModelParams, integrate, make_initial_data, verify
from rwcosmo.initial import NoRealBranch
from rwcosmo.integrator import Trajectory
from rwcosmo.sweep import run_sweep, sweep_table_csv

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads as wl

PLAN = wl.prepare("sweep_grid", wl.DEFAULT_SEED, None)


def fresh(traj: Trajectory) -> Trajectory:
    """A copy of traj with no columns built yet."""
    return Trajectory(params=traj.params, initial=traj.initial, config=traj.config,
                      states=traj.states, events=traj.events, stats=traj.stats)


def main(repeats: int) -> dict:
    config = PLAN.integrator
    runs = []  # one dict per row with a real branch
    for p in PLAN.points():
        params = ModelParams(lam=p["lambda"], mass=p["mass"])
        try:
            data = make_initial_data(params, a0=PLAN.a0, phi0=p["phi0"], chi0=p["chi0"],
                                     rho0=p["rho0"], branch=PLAN.branch)
        except NoRealBranch:
            continue
        runs.append(dict(data=data, params=params, traj=integrate(data, params, config)))
    rows = run_sweep(PLAN)
    built = [fresh(r["traj"]) for r in runs]
    for traj in built:
        traj.as_arrays()

    layers = {
        "integrate": lambda: [integrate(r["data"], r["params"], config) for r in runs],
        "as_arrays": lambda: [fresh(r["traj"]).as_arrays() for r in runs],
        "verify": lambda: [verify(traj) for traj in built],
        "table": lambda: sweep_table_csv(rows),
        "op": lambda: sweep_table_csv(run_sweep(PLAN)),
    }
    wall = {name: [] for name in layers}
    for i in range(repeats):
        for name in (list(layers) if i % 2 == 0 else list(reversed(layers))):
            start = time.perf_counter()
            layers[name]()
            wall[name].append(time.perf_counter() - start)
    return {"repeats": repeats, "wall_s": wall,
            "median_s": {name: statistics.median(ts) for name, ts in wall.items()},
            "rows_integrated": len(runs),
            "steps_accepted": sum(r["traj"].stats.steps_accepted for r in runs),
            "steps_rejected": sum(r["traj"].stats.steps_rejected for r in runs),
            "rhs_evaluations": sum(r["traj"].stats.rhs_evaluations for r in runs),
            "samples": sum(r["traj"].t.size for r in runs),
            "libm_elements": libm_elements(layers["op"]),
            "sweep_csv_sha256": hashlib.sha256(sweep_table_csv(rows).encode()).hexdigest()}


if __name__ == "__main__":
    print(json.dumps(main(int(sys.argv[1]) if len(sys.argv) > 1 else 15), indent=1))

"""Time the layers of a dense_output run, the benchmark's at its default
seed (perfbench/workloads.py): the reference point at tol 1e-8 and
sample_dt 0.001 (10,001 samples).

    PYTHONPATH=src python bench/time_dense.py [REPEATS]

Each repeat times, once each and in alternating order (reversed on odd
repeats): integrate, integrate on the same run in ``kg`` mode (no frozen
tail: every sample is stepped), write_trajectory (into the temporary
directory, overwriting), format_table (the bytes of trajectory.csv, with no
file and no digest), read_trajectory, read_trajectory of the ``kg`` run
(which integrates the ``kg`` run again, stepping every sample), verify, and
the whole op, ``rwcosmo simulate`` then ``rwcosmo verify`` through
cli.main.  Prints one JSON object: the wall times in s and their medians
over REPEATS (default 15), the step counters, ``libm_elements``, the
elements integrate then verify pass through integrator.libm (their
math-module evaluations), the size in bytes and the sha256 of
trajectory.csv, ``fallback_cells``, the cells of trajectory.csv whose text
is fmt's because the table writer's kernel could not prove its digits, the
size in bytes of meta.json (``meta_bytes``), the peak bytes
write_trajectory and read_trajectory allocate on the run by tracemalloc,
and under "kg", the ``kg`` run's counters, sample count, meta.json size and
the sha256 of its states array.  Files go to a temporary directory that is
removed afterwards.
"""

import contextlib
import hashlib
import io
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

from libm_count import libm_elements
from rwcosmo import (IntegratorConfig, ModelParams, integrate, make_initial_data, serialize,
                     verify)
from rwcosmo.cli import main as cli_main
from rwcosmo.serialize import (META_JSON, TRAJECTORY_CSV, read_trajectory,
                               write_trajectory)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads as wl

RUN = wl.dense_input(wl.DEFAULT_SEED)
PARAMS = ModelParams(lam=RUN.lam, mass=RUN.mass)
CONFIG = IntegratorConfig(rel_tol=RUN.tol, abs_tol=RUN.tol, t_end=RUN.t_end,
                          sample_dt=RUN.sample_dt, mode="paper")
KG_CONFIG = replace(CONFIG, mode="kg")


def traced_peak(f) -> int:
    """The peak bytes allocated while ``f()`` runs, by tracemalloc."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fallback_cells(op) -> int:
    """The cells the table writer formats with fmt while ``op()`` runs:
    serialize._fallback_slots is wrapped, for the call only."""
    original = serialize._fallback_slots
    count = 0

    def counted(values, ends):
        nonlocal count
        count += len(values)
        return original(values, ends)

    serialize._fallback_slots = counted
    try:
        op()
    finally:
        serialize._fallback_slots = original
    return count


def main(repeats: int) -> dict:
    data = make_initial_data(PARAMS, a0=RUN.a0, phi0=RUN.phi0, chi0=RUN.chi0, rho0=RUN.rho0,
                             branch="expanding")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        traj = integrate(data, PARAMS, CONFIG)
        kg = integrate(data, PARAMS, KG_CONFIG)
        write_trajectory(tmp / "run", traj, "bench")
        write_trajectory(tmp / "kg", kg, "bench")
        ini = tmp / "dense.ini"
        ini.write_text(RUN.ini_text(tmp / "op"))

        def op():
            with contextlib.redirect_stdout(io.StringIO()):
                if (cli_main(["simulate", str(ini)]), cli_main(["verify", str(tmp / "op")])) != (0, 0):
                    raise SystemExit("simulate or verify failed")

        columns = [traj.t, *traj.states.T]

        def format_table() -> bytes:
            return b"".join(serialize._table_blocks(serialize._CSV_HEADER, columns, ","))

        layers = {
            "integrate": lambda: integrate(data, PARAMS, CONFIG),
            "integrate_kg": lambda: integrate(data, PARAMS, KG_CONFIG),
            "write_trajectory": lambda: write_trajectory(tmp / "run", traj, "bench",
                                                         overwrite=True),
            "format_table": format_table,
            "read_trajectory": lambda: read_trajectory(tmp / "run"),
            "read_trajectory_kg": lambda: read_trajectory(tmp / "kg"),
            "verify": lambda: verify(traj),
            "simulate_verify_op": op,
        }
        times = {name: [] for name in layers}
        for i in range(repeats):
            for name in (list(layers) if i % 2 == 0 else list(reversed(layers))):
                start = time.perf_counter()
                layers[name]()
                times[name].append(time.perf_counter() - start)
        csv_bytes = (tmp / "op" / TRAJECTORY_CSV).read_bytes()
        meta_bytes = {name: (tmp / name / META_JSON).stat().st_size for name in ("run", "kg")}
        peak_bytes = {
            "write_trajectory": traced_peak(lambda: write_trajectory(tmp / "run", traj, "bench",
                                                                     overwrite=True)),
            "read_trajectory": traced_peak(lambda: read_trajectory(tmp / "run"))}
    return {"repeats": repeats, "wall_s": times,
            "median_s": {name: statistics.median(ts) for name, ts in times.items()},
            "steps_accepted": traj.stats.steps_accepted,
            "steps_rejected": traj.stats.steps_rejected,
            "rhs_evaluations": traj.stats.rhs_evaluations,
            "samples": int(traj.t.size),
            "libm_elements": libm_elements(lambda: verify(integrate(data, PARAMS, CONFIG))),
            "trajectory_bytes": len(csv_bytes),
            "trajectory_sha256": hashlib.sha256(csv_bytes).hexdigest(),
            "fallback_cells": fallback_cells(format_table),
            "meta_bytes": meta_bytes["run"],
            "peak_bytes": peak_bytes,
            "kg": {"steps_accepted": kg.stats.steps_accepted,
                   "steps_rejected": kg.stats.steps_rejected,
                   "rhs_evaluations": kg.stats.rhs_evaluations,
                   "samples": int(kg.t.size),
                   "meta_bytes": meta_bytes["kg"],
                   "states_sha256": hashlib.sha256(kg.states.tobytes()).hexdigest()}}


if __name__ == "__main__":
    print(json.dumps(main(int(sys.argv[1]) if len(sys.argv) > 1 else 15), indent=1))

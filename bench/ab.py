"""Time one benchmark op of two source trees against each other in one
interpreter.

    python bench/ab.py TREE_A TREE_B {sweep_grid,dense_output} [PAIRS]

Copies TREE_A/src/rwcosmo and TREE_B/src/rwcosmo into a temporary directory
as the packages ``rwcosmo_a`` and ``rwcosmo_b`` and imports both.  The op is
the benchmark's at its default seed (perfbench/workloads.py): for sweep_grid
``run_sweep`` of the 16-row plan (workers = 1) and its sweep.csv table, for
dense_output ``main(["simulate", ini])`` then ``main(["verify", out])``, each
side writing to its own directory.  After one untimed op per side, each of
PAIRS pairs (at least 2; default 200) times one op of each side, A first on even pairs
and B first on odd ones, so both sides see the same host load.  Prints one
JSON object: per side the median and quartiles of the op's wall time in s,
the ratio of B's median to A's, the number of pairs B took less time, and
for each output (the table, or each file of the run) whether the two sides
wrote the same bytes.
"""

import contextlib
import importlib
import io
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads as wl

SEED = wl.DEFAULT_SEED
DENSE_FILES = ("trajectory.csv", "meta.json", "report.json")


def load(tree: Path, name: str, tmp: Path):
    """The package tree/src/rwcosmo, copied to tmp and imported as ``name``."""
    shutil.copytree(tree / "src" / "rwcosmo", tmp / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def sweep_op(pkg):
    """The sweep_grid op of ``pkg``: a function returning its table's bytes."""
    inp = wl.sweep_input(SEED)
    plan = pkg.sweep.SweepPlan(axes=(("lambda", inp.lambdas), ("mass", inp.masses),
                                     ("chi0", inp.chi0s)),
                               fixed=(("phi0", inp.phi0), ("rho0", inp.rho0)), workers=1)
    return lambda: {"sweep.csv": pkg.sweep.sweep_table_csv(pkg.sweep.run_sweep(plan)).encode()}


def dense_op(pkg, workdir: Path):
    """The dense_output op of ``pkg`` writing under workdir: a function
    returning the bytes of the files it wrote."""
    out = workdir / "out"
    ini = workdir / "dense.ini"
    workdir.mkdir()
    ini.write_text(wl.dense_input(SEED).ini_text(out))

    def op():
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (pkg.cli.main(["simulate", str(ini)]), pkg.cli.main(["verify", str(out)]))
        if codes != (0, 0):
            raise SystemExit(f"simulate or verify exited {codes}")
        return {name: (out / name).read_bytes() for name in DENSE_FILES}
    return op


def quartiles(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3}


def main(tree_a: Path, tree_b: Path, workload: str, pairs: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        try:
            ops = []
            for side, tree in (("a", tree_a), ("b", tree_b)):
                pkg = load(tree, f"rwcosmo_{side}", tmp)
                importlib.import_module(f"rwcosmo_{side}.cli")
                ops.append(sweep_op(pkg) if workload == "sweep_grid"
                           else dense_op(pkg, tmp / f"run_{side}"))
            outputs = [op() for op in ops]
            times = ([], [])
            for i in range(pairs):
                for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                    start = time.perf_counter()
                    ops[side]()
                    times[side].append(time.perf_counter() - start)
        finally:
            sys.path.remove(str(tmp))
    a, b = quartiles(times[0]), quartiles(times[1])
    return {"workload": workload, "pairs": pairs, "a": a, "b": b,
            "ratio_b_over_a": b["median_s"] / a["median_s"],
            "b_wins": sum(tb < ta for ta, tb in zip(*times)),
            "identical": {name: outputs[0][name] == outputs[1][name] for name in outputs[0]}}


if __name__ == "__main__":
    if len(sys.argv) not in (4, 5) or sys.argv[3] not in wl.WORKLOADS \
            or len(sys.argv) == 5 and int(sys.argv[4]) < 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    print(json.dumps(main(Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve(), sys.argv[3],
                          int(sys.argv[4]) if len(sys.argv) == 5 else 200), indent=1))

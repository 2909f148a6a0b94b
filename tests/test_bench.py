"""The timing scripts under bench/ run, and measure the runs they claim to."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_sweep import GRID_SHA256

ROOT = Path(__file__).resolve().parents[1]

#: The sha256 of the dense_output run's trajectory.csv (default seed).
DENSE_SHA256 = "8500d25ca09e4db4d003f2a2a1e3cf315d81fb09344ef4618f9883f4a2421cec"


def run_bench(script, *args, cwd, env=None):
    """The JSON object printed by ``python bench/SCRIPT ARGS`` with src/ on
    the path and the variables ``env`` set."""
    env = {k: v for k, v in os.environ.items() if k != "RWCOSMO_OUTPUT_ROOT"} | (env or {})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "bench" / script), *map(str, args)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_time_dense(tmp_path):
    """The dense_output run: 10,001 samples from 8 steps to the freeze and
    the exact tail, the layers it times, the math-module evaluations of
    integrate and verify (the tail's exp and expm1, Simpson's exp(2 int u),
    exp(nu t) and the Q fit's logs), the size and bytes of its trajectory.csv
    (t and the four states) and the cells of it that fmt formats, the size
    of its meta.json (the run's inputs, stats and events), and the peak
    memory of writing and reading the run.  Its ``kg`` variant steps every
    sample: 242 steps, a meta.json that does not grow with them, and the
    bytes of its states."""
    got = run_bench("time_dense.py", 1, cwd=tmp_path)
    assert list(got["median_s"]) == ["integrate", "integrate_kg", "write_trajectory",
                                     "format_table", "read_trajectory", "read_trajectory_kg",
                                     "verify", "simulate_verify_op"]
    assert (got["steps_accepted"], got["steps_rejected"], got["rhs_evaluations"],
            got["samples"]) == (8, 0, 49, 10001)
    assert got["libm_elements"] == 40562
    assert got["trajectory_bytes"] == 785554
    assert got["trajectory_sha256"] == DENSE_SHA256
    # The cells whose digits the table writer's kernel could not prove.
    assert got["fallback_cells"] == 8
    assert got["meta_bytes"] == 929
    # Streamed a block of rows at a time: writing holds one block, where the
    # whole text took 4.2 MB.  Reading hashes the file 64 KiB at a time and
    # integrates the run again, under three times the (10,001, 5) float table,
    # where parsing the text and its lines took 3.4 MB.
    assert got["peak_bytes"]["write_trajectory"] < 1.5e6
    assert got["peak_bytes"]["read_trajectory"] < 3 * 10001 * 5 * 8
    assert got["kg"] == {
        "steps_accepted": 242, "steps_rejected": 0, "rhs_evaluations": 1453, "samples": 10001,
        "meta_bytes": 895,
        "states_sha256": "3f3e48ca8420c045d2c7709b784761f9d2a201fb93927ea3c978cc02812a2720"}


#: numpy's CPU features above its x86-64 baseline that dispatch loops of
#: their own, among them np.log10's: the last bit of a log10 follows them.
DISPATCHED = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def test_bytes_do_not_follow_numpy_dispatch(tmp_path):
    """With numpy's AVX-512 loops switched off, which changes the bits of
    np.log10, the dense run's trajectory.csv and the sweep_grid table keep
    their pinned bytes: the table writer takes log10 as an estimate only."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    enabled = [name for name in DISPATCHED if __cpu_features__.get(name)]
    if not enabled:
        pytest.skip(f"numpy enables none of {', '.join(DISPATCHED)} on this CPU")
    env = {"NPY_DISABLE_CPU_FEATURES": " ".join(enabled)}
    assert run_bench("time_dense.py", 1, cwd=tmp_path, env=env)["trajectory_sha256"] == \
        DENSE_SHA256
    assert run_bench("time_sweep.py", 1, cwd=tmp_path, env=env)["sweep_csv_sha256"] == \
        GRID_SHA256


def test_time_sweep(tmp_path):
    """The sweep_grid layers: the twelve rows with a real branch step 180
    times before their exact tails, and one op makes 49,502 math-module
    evaluations."""
    got = run_bench("time_sweep.py", 1, cwd=tmp_path)
    assert got["sweep_csv_sha256"] == GRID_SHA256
    assert (got["rows_integrated"], got["steps_accepted"], got["samples"]) == (12, 180, 12012)
    assert got["libm_elements"] == 49502


def test_time_pool(tmp_path):
    """Serial against auto workers on a two-row plan, which both run
    serially: the two sides write the same table."""
    plan = tmp_path / "plan.ini"
    plan.write_text("[axes]\nlambda = 1, 2\n[fixed]\nmass = 1\nphi0 = 1\nchi0 = 0.1\n"
                    "rho0 = 0.05\n[integrator]\nt_end = 2\n")
    got = run_bench("time_pool.py", plan, 1, cwd=tmp_path)
    assert (got["rows"], got["repeats"]) == (2, 1)
    assert {name: len(ts) for name, ts in got["wall_s"].items()} == {"serial": 1, "pooled": 1}


@pytest.mark.parametrize("workload", ["sweep_grid", "dense_output"])
def test_ab(tmp_path, workload):
    """The repository against itself: both sides time every pair and write
    the same bytes."""
    got = run_bench("ab.py", ROOT, ROOT, workload, 2, cwd=tmp_path)
    assert (got["workload"], got["pairs"]) == (workload, 2)
    assert 0 <= got["b_wins"] <= 2 and got["ratio_b_over_a"] > 0.0
    assert got["identical"] == ({"sweep.csv": True} if workload == "sweep_grid" else
                                dict.fromkeys(("trajectory.csv", "meta.json", "report.json"),
                                              True))
    for side in ("a", "b"):
        assert 0.0 < got[side]["q1_s"] <= got[side]["median_s"] <= got[side]["q3_s"]


def test_domain(tmp_path):
    """The calibration recipe's first 12 draws, paper mode at sample_dt
    0.01: all 12 admissible, 7 failed (each on v_quadrature_identity alone),
    4 inconclusive and 1 passed.  The first draw has chi0 = 0, so it freezes
    at t = 0 and takes no step."""
    got = run_bench("domain.py", "-n", 12, "--mode", "paper", "--sample-dt", 0.01, cwd=tmp_path)
    assert (got["seed"], got["draws"], got["admissible"]) == (12345, 12, 12)
    [series] = got["series"]
    assert (series["mode"], series["sample_dt"]) == ("paper", 0.01)
    assert series["counts"] == {"failed": 7, "inconclusive": 4, "passed": 1}
    assert series["failing_checks"] == {"v_quadrature_identity": 7}
    assert len(series["rows"]) == 12
    assert series["rows"][0] == {
        "lam": -2.7266397753283034, "mass": 0.9844371021437711, "phi0": 2.4022280991315657,
        "chi0": 0.0, "rho0": 0.6656278557327691, "status": "failed",
        "failed": ["v_quadrature_identity"], "t_f": 0.0, "steps": 0}


def test_mutants_stay_caught(tmp_path):
    """The verifier's mutation gate: every (mutant, run) pair that
    bench/mutants.py caught when bench/mutants_caught.json (its ``caught``
    block) was committed is caught still, so a change to the verifier may
    add kills but never lose one.  No unmutated run of the harness fails."""
    got = run_bench("mutants.py", cwd=tmp_path)
    assert got["unmutated_failed"] == {}
    committed = json.loads((ROOT / "bench" / "mutants_caught.json").read_text())
    lost = {mutant: sorted(set(runs) - set(got["caught"][mutant]))
            for mutant, runs in committed.items()}
    assert {mutant: runs for mutant, runs in lost.items() if runs} == {}


def test_sloc(tmp_path):
    """The code-line counter leaves out blank lines, comments and docstrings,
    and on src/rwcosmo lists every module, its counts summing to the total."""
    (tmp_path / "m.py").write_text('"""Module docstring."""\n# comment\n\n'
                                   'def f(x):\n    """Doc\n    string."""\n'
                                   '    s = """not a\ndocstring"""\n    return x  # trailing\n')
    assert run_bench("sloc.py", tmp_path, cwd=tmp_path) == {"files": {"m.py": 4}, "total": 4}
    got = run_bench("sloc.py", cwd=tmp_path)
    assert set(got["files"]) == {p.name for p in (ROOT / "src" / "rwcosmo").glob("*.py")}
    assert sum(got["files"].values()) == got["total"]

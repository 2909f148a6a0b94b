"""The timing scripts under bench/ run, and measure the runs they claim to."""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_sweep import GRID_SHA256

ROOT = Path(__file__).resolve().parents[1]


def run_bench(script, *args, cwd):
    """The JSON object printed by ``python bench/SCRIPT ARGS`` with src/ on
    the path."""
    env = {k: v for k, v in os.environ.items() if k != "RWCOSMO_OUTPUT_ROOT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "bench" / script), *map(str, args)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_time_dense(tmp_path):
    """The dense_output run: 10,001 samples from 10 steps to the freeze and
    the exact tail, and the size and bytes of its trajectory.csv (t and the
    five states)."""
    got = run_bench("time_dense.py", 1, cwd=tmp_path)
    assert (got["steps_accepted"], got["steps_rejected"], got["rhs_evaluations"],
            got["samples"]) == (10, 0, 61, 10001)
    assert got["trajectory_bytes"] == 1023782
    assert got["trajectory_sha256"] == \
        "551a0adf701f5ba7194e26c52282c42346d1a0b5a7aaad3e28a8150f961e062a"


def test_time_sweep(tmp_path):
    """The sweep_grid layers: the twelve rows with a real branch step 242
    times before their exact tails."""
    got = run_bench("time_sweep.py", 1, cwd=tmp_path)
    assert got["sweep_csv_sha256"] == GRID_SHA256
    assert (got["rows_integrated"], got["steps_accepted"], got["samples"]) == (12, 242, 12012)


def test_time_pool(tmp_path):
    """Serial against auto workers on a two-row plan, which both run
    serially: the two sides write the same table."""
    plan = tmp_path / "plan.ini"
    plan.write_text("[axes]\nlambda = 1, 2\n[fixed]\nmass = 1\nphi0 = 1\nchi0 = 0.1\n"
                    "rho0 = 0.05\n[integrator]\nt_end = 2\n")
    got = run_bench("time_pool.py", plan, 1, cwd=tmp_path)
    assert (got["rows"], got["repeats"]) == (2, 1)
    assert {name: len(ts) for name, ts in got["wall_s"].items()} == {"serial": 1, "pooled": 1}


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

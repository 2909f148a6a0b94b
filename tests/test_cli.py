"""CLI contract: exit codes, file formats, round trips, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

import rwcosmo
from rwcosmo import IntegratorConfig, ModelParams
from rwcosmo.cli import (EXIT_CONFIG, EXIT_INADMISSIBLE, EXIT_INCONCLUSIVE,
                         EXIT_INTEGRATOR, EXIT_OK, EXIT_VERIFY_FAILED, main,
                         parse_run_config, parse_sweep_plan)
from rwcosmo.integrator import TRAJECTORY_COLUMNS
from rwcosmo.serialize import CorruptTrajectory, read_trajectory, table_text, trajectory_csv_text
from rwcosmo.sweep import SWEEP_PARAMS

from conftest import write_reference_config

TRAJECTORY_HEADER = "t,u,v,phi,chi,rho"
#: sha256 of the reference run's trajectory.csv, and of the same run stepped
#: through its frozen phase.  The float stepper makes them the same on every
#: BLAS kernel.
REFERENCE_TRAJECTORY_SHA256 = (
    "f5a8e5515707c450c487815ea5aea2f19da30da202cfa888fc4fdbff3f1cc0b2")
STEPPED_TRAJECTORY_SHA256 = (
    "cd97f41a0fbd44f66cbe9228d8f438e695a779ba987f1238d621e8799824d3e9")
#: sha256 of the JSON files simulate + verify write for the reference run and
#: its ``kg`` variant.  meta.json records the package version, so a version
#: bump moves its pins.
JSON_SHA256 = {
    "paper": {
        "events.json": "f4dd5c41a5b85ed786852641e4eb4abc5c9aa707eb6cf6dfffb57c738717361b",
        "meta.json": "66127936020be5d60f9b8cba3b657b4ffe94b0f8865652652f2abae5c9cfbe91",
        "report.json": "9ef3290af0986385587e50563e0187869df97150d23dc61e8b904024ccc94a9e",
    },
    "kg": {
        "events.json": "b83d85c7b514f37465d080108e6ff9a1e9d9ac037a4b4f2d98cee19a8b5fae37",
        "meta.json": "5e9b96afa7edf31ee2248c7a1e30102aedd696fbab077a10f95c45163c08f8b6",
        "report.json": "441af5d0bd7021abb54c078a836a322bd3913460d63664bf512410c5c37fb738",
    },
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def first_difference(actual, expected):
    """Short account of where two long texts part; pytest's own diff of two
    ~200 kB strings runs for minutes."""
    a, e = actual.splitlines(), expected.splitlines()
    for i, (x, y) in enumerate(zip(a, e), start=1):
        if x != y:
            return f"line {i} differs: {x!r} != {y!r}"
    return f"the first {min(len(a), len(e))} lines agree; {len(a)} != {len(e)} lines"


@pytest.fixture(scope="module")
def ref_run(tmp_path_factory):
    """One reference CLI run shared by the read-only tests in this module."""
    root = tmp_path_factory.mktemp("cli_ref")
    cfg = write_reference_config(root / "run.ini", str(root / "out"))
    assert main(["simulate", str(cfg)]) == EXIT_OK
    return root / "out"


class TestSimulate:
    def test_reference_exit_zero_and_files(self, ref_run):
        for name in ("trajectory.csv", "events.json", "meta.json"):
            assert (ref_run / name).exists()

    def test_trajectory_header_exact(self, ref_run):
        first = (ref_run / "trajectory.csv").read_text().splitlines()[0]
        assert first == TRAJECTORY_HEADER

    def test_csv_round_trips_doubles(self, ref_run):
        traj = read_trajectory(ref_run)
        lines = (ref_run / "trajectory.csv").read_text().splitlines()
        row1 = dict(zip(lines[0].split(","), lines[1].split(",")))
        cols = traj.as_arrays()
        assert float(row1["u"]) == cols["u"][0]
        assert float(row1["rho"]) == cols["rho"][0]

    def test_reference_counters_and_csv_round_trip(self, ref_run, ref_trajectory):
        """Pinned step counters and trajectory.csv bytes of the reference run;
        reading trajectory.csv back and writing it again reproduces its bytes.

        19 steps to the freeze, then the exact tail: 115 RHS evaluations = 6
        per step and the first stage."""
        st = ref_trajectory.stats
        assert (st.steps_accepted, st.steps_rejected, st.rhs_evaluations) == (19, 0, 115)
        assert len(ref_trajectory.t) == 1001
        text = (ref_run / "trajectory.csv").read_text()
        assert sha256(text) == REFERENCE_TRAJECTORY_SHA256
        for written in (trajectory_csv_text(read_trajectory(ref_run)),
                        trajectory_csv_text(ref_trajectory)):
            assert sha256(written) == sha256(text), first_difference(written, text)

    def test_stepped_reference_pins(self, tmp_path, stepped):
        """The reference run stepped through its frozen phase, the path of
        the runs the exact tail does not cover: 1,956 steps and 11,738 RHS
        evaluations (6 per step, the first stage, and one more after the
        FieldFrozen restart), and its trajectory.csv bytes."""
        cfg = write_reference_config(tmp_path / "run.ini", str(tmp_path / "out"))
        with stepped(), contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", str(cfg)]) == EXIT_OK
        st = read_trajectory(tmp_path / "out").stats
        assert (st.steps_accepted, st.steps_rejected, st.rhs_evaluations) == (1956, 0, 11738)
        assert sha256((tmp_path / "out" / "trajectory.csv").read_text()) == \
            STEPPED_TRAJECTORY_SHA256

    def test_oversized_sample_grid_exits_1(self, tmp_path, capsys):
        """t_end = 10 at sample_dt = 1e-9 would allocate 80 GB of sample
        times: one error line naming MAX_SAMPLES, exit 1, no files."""
        out = tmp_path / "out"
        cfg = write_reference_config(tmp_path / "big.ini", str(out),
                                     **{"sample_dt = 0.01": "sample_dt = 1e-9"})
        capsys.readouterr()
        assert main(["simulate", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "MAX_SAMPLES = 1000000" in err[0], err
        assert not out.exists()

    def test_negative_a0_exits_1_without_files(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_reference_config(tmp_path / "bad.ini", str(out),
                                     **{"a0 = 1": "a0 = -1"})
        assert main(["simulate", str(cfg)]) == EXIT_CONFIG
        assert not out.exists()

    def test_contracting_without_override_exits_2(self, tmp_path):
        cfg = write_reference_config(
            tmp_path / "con.ini", str(tmp_path / "out"),
            **{"branch = expanding": "branch = contracting"})
        assert main(["simulate", str(cfg)]) == EXIT_INADMISSIBLE
        assert not (tmp_path / "out").exists()

    def test_contracting_with_override_exits_3_partial(self, tmp_path):
        cfg = write_reference_config(
            tmp_path / "con.ini", str(tmp_path / "out"),
            **{"branch = expanding": "branch = contracting",
               "mode = paper": "mode = paper\noverride_admissibility = true"})
        assert main(["simulate", str(cfg)]) == EXIT_INTEGRATOR
        events = json.loads((tmp_path / "out" / "events.json").read_text())
        assert any(e["kind"] == "GuardTripped" for e in events)

    def test_step_size_underflow_exits_3_without_files(self, tmp_path, capsys):
        """h_min close to h_max leaves no room to resolve the dynamics: one
        error line, exit 3, nothing written."""
        out = tmp_path / "out"
        cfg = write_reference_config(
            tmp_path / "under.ini", str(out),
            **{"rel_tol = 1e-10": "rel_tol = 1e-14", "abs_tol = 1e-10": "abs_tol = 1e-14",
               "t_end = 10": "t_end = 1\nh_min = 0.05\nh_init = 0.1\nh_max = 0.25"})
        capsys.readouterr()
        assert main(["simulate", str(cfg)]) == EXIT_INTEGRATOR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "rwcosmo: error: integration failed: step size fell below h_min = 0.05"), err
        assert not out.exists()

    def test_unknown_key_exits_1(self, tmp_path):
        for old, new in (("mass = 1", "mass = 1\nmassy = 2"),
                         ("overwrite = true", "overwrite = true\nformats = csv,json")):
            cfg = write_reference_config(tmp_path / "unk.ini", str(tmp_path / "out"),
                                         **{old: new})
            assert main(["simulate", str(cfg)]) == EXIT_CONFIG
            assert not (tmp_path / "out").exists()

    def test_unknown_section_exits_1(self, tmp_path):
        path = tmp_path / "sec.ini"
        write_reference_config(path, str(tmp_path / "out"))
        path.write_text(path.read_text() + "\n[extras]\nfoo = 1\n")
        assert main(["simulate", str(path)]) == EXIT_CONFIG

    def test_missing_config_exits_1(self):
        assert main(["simulate", "no_such_file.ini"]) == EXIT_CONFIG

    def test_undecodable_config_exits_1(self, tmp_path):
        path = tmp_path / "binary.ini"
        path.write_bytes(b"[model]\nlambda = \xff\xfe\n")
        assert main(["simulate", str(path)]) == EXIT_CONFIG

    def test_overwrite_refused_without_flag(self, tmp_path):
        cfg = write_reference_config(tmp_path / "run.ini", str(tmp_path / "out"),
                                     **{"overwrite = true": "overwrite = false",
                                        "t_end = 10": "t_end = 0.1"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        assert main(["simulate", str(cfg)]) == EXIT_CONFIG

    def test_u0_entry_form_solves_rho0(self, tmp_path):
        text = """[model]
lambda = 1
mass = 1

[initial]
a0 = 1
phi0 = 1
chi0 = 0.1
u0 = 2.2322388896903993

[integrator]
t_end = 0.5

[output]
directory = {out}
overwrite = true
"""
        path = tmp_path / "u0.ini"
        path.write_text(text.format(out=tmp_path / "out"))
        assert main(["simulate", str(path)]) == EXIT_OK
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["initial"]["rho0"] == pytest.approx(0.05, rel=1e-12)

    def test_u0_with_rho0_rejected(self, tmp_path):
        """An explicit u0 means rho0 is solved, so giving rho0 too is an error."""
        cfg = write_reference_config(
            tmp_path / "u0.ini", str(tmp_path / "out"),
            **{"branch = expanding": "u0 = 2.0"})
        assert main(["simulate", str(cfg)]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_empty_output_directory_exits_1(self, tmp_path, capsys, monkeypatch):
        """An empty [output] directory would be the working directory: it is
        a config error, reported in one line, and nothing is written."""
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.delenv("RWCOSMO_OUTPUT_ROOT", raising=False)
        cfg = write_reference_config(tmp_path / "run.ini", "", **{"t_end = 10": "t_end = 0.1"})
        capsys.readouterr()
        assert main(["simulate", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("rwcosmo: error:"), err
        assert list(cwd.iterdir()) == []

    def test_output_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RWCOSMO_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg = write_reference_config(tmp_path / "run.ini", "rel_out",
                                     **{"t_end = 10": "t_end = 0.1"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        assert (tmp_path / "root" / "rel_out" / "trajectory.csv").exists()


class TestPortableBytes:
    @pytest.mark.parametrize("mode", sorted(JSON_SHA256))
    def test_json_outputs_pinned(self, tmp_path, mode):
        """events.json, meta.json and report.json of the reference run and
        its kg variant keep their bytes."""
        out = tmp_path / "out"
        cfg = write_reference_config(tmp_path / "run.ini", str(out),
                                     **{"mode = paper": f"mode = {mode}"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        assert main(["verify", str(out)]) == {"paper": EXIT_OK, "kg": EXIT_VERIFY_FAILED}[mode]
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in JSON_SHA256[mode]} == JSON_SHA256[mode]

    def test_outputs_independent_of_blas_kernel(self, tmp_path):
        """The reference simulate + verify writes the same trajectory.csv and
        report.json whether OpenBLAS runs its generic kernel (Prescott, no
        fused multiply-add) or the one it picks for this CPU.  A BLAS that
        ignores OPENBLAS_CORETYPE passes trivially."""
        script = ("import sys; from rwcosmo.cli import main; "
                  "sys.exit(main(['simulate', sys.argv[1]]) or main(['verify', sys.argv[2]]))")
        src = str(Path(rwcosmo.__file__).resolve().parents[1])
        digests = []
        for coretype in ("Prescott", None):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_CORETYPE", "RWCOSMO_OUTPUT_ROOT")}
            if coretype is not None:
                env["OPENBLAS_CORETYPE"] = coretype
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"out_{coretype}"
            cfg = write_reference_config(tmp_path / f"{coretype}.ini", str(out))
            done = subprocess.run([sys.executable, "-c", script, str(cfg), str(out)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == EXIT_OK, done.stderr
            digests.append([hashlib.sha256((out / name).read_bytes()).hexdigest()
                            for name in ("trajectory.csv", "report.json")])
        assert digests[0] == digests[1]

    def test_outputs_independent_of_numpy_simd_loops(self, tmp_path):
        """The dense run (tol 1e-8, sample_dt 0.001) writes the same
        report.json, lnQ_vs_t.dat and summary.txt with numpy's dispatched
        SIMD loops switched off as with the ones it picks for this CPU: the
        verifier takes exp and log from the math module.  Through numpy's
        AVX-512 exp, v_quadrature_identity's margin moved in its 10th digit.
        On a CPU without those extensions both runs take the same loop and
        the test passes trivially."""
        script = ("import sys; from rwcosmo.cli import main; "
                  "sys.exit(main(['simulate', sys.argv[1]]) or main(['verify', sys.argv[2]])"
                  " or main(['report', sys.argv[2]]))")
        src = str(Path(rwcosmo.__file__).resolve().parents[1])
        names = ("trajectory.csv", "report.json", "lnQ_vs_t.dat", "summary.txt")
        digests = []
        for disabled in ("X86_V3 X86_V4 AVX512_ICL AVX512_SPR", None):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("NPY_DISABLE_CPU_FEATURES", "RWCOSMO_OUTPUT_ROOT")}
            if disabled is not None:
                env["NPY_DISABLE_CPU_FEATURES"] = disabled
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"out_{disabled is None}"
            cfg = write_reference_config(
                tmp_path / f"{disabled is None}.ini", str(out),
                **{"rel_tol = 1e-10": "rel_tol = 1e-8", "abs_tol = 1e-10": "abs_tol = 1e-8",
                   "sample_dt = 0.01": "sample_dt = 0.001"})
            done = subprocess.run([sys.executable, "-c", script, str(cfg), str(out)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == EXIT_OK, done.stderr
            digests.append([hashlib.sha256((out / name).read_bytes()).hexdigest()
                            for name in names])
        assert digests[0] == digests[1]


    def test_sweep_independent_of_numpy_simd_loops(self, tmp_path):
        """sweep.csv, exact frozen tails included, comes out the same with
        numpy's dispatched SIMD loops switched off: the tail is computed
        with math-module calls."""
        plan = ("[axes]\nlambda = 1, 3\nchi0 = 0, 0.3\nrho0 = 0, 0.05\n"
                "[fixed]\nmass = 1\nphi0 = 1\n[sweep]\nworkers = 1\n"
                "[output]\ndirectory = {out}\noverwrite = true\n")
        src = str(Path(rwcosmo.__file__).resolve().parents[1])
        tables = []
        for disabled in ("X86_V3 X86_V4 AVX512_ICL AVX512_SPR", None):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("NPY_DISABLE_CPU_FEATURES", "RWCOSMO_OUTPUT_ROOT")}
            if disabled is not None:
                env["NPY_DISABLE_CPU_FEATURES"] = disabled
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"out_{disabled is None}"
            path = tmp_path / f"{disabled is None}.ini"
            path.write_text(plan.format(out=out))
            done = subprocess.run([sys.executable, "-m", "rwcosmo", "sweep", str(path)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == EXIT_OK, done.stderr
            tables.append((out / "sweep.csv").read_text())
        assert tables[0] == tables[1]
        assert tables[0].count(",ok,") == 8


class TestVersion:
    def test_pyproject_version_is_package_version(self):
        """meta.json records rwcosmo.__version__; pyproject.toml spells it too."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == rwcosmo.__version__


class TestStartup:
    def test_cli_import_leaves_out_process_pool(self):
        """concurrent.futures (~20 ms) is imported only when a sweep starts a
        pool, not on every CLI start-up."""
        src = str(Path(rwcosmo.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = "import sys, rwcosmo.cli; print('concurrent.futures' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestVerify:
    def test_reference_exit_zero_and_schema(self, ref_run):
        assert main(["verify", str(ref_run)]) == EXIT_OK
        report = json.loads((ref_run / "report.json").read_text())
        for key in ("nu", "checks", "fits", "L_hat", "H_inf_hat",
                    "C0_hat", "status"):
            assert key in report
        assert report["status"] == "passed"
        assert set(report["fits"]) == {"Q", "rho", "chi2"}
        for entry in report["checks"]:
            assert set(entry) >= {"name", "pass", "margin"}

    def test_truncated_run_exits_5(self, tmp_path):
        cfg = write_reference_config(tmp_path / "t.ini", str(tmp_path / "out"),
                                     **{"t_end = 10": "t_end = 0.1"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        assert main(["verify", str(tmp_path / "out")]) == EXIT_INCONCLUSIVE
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["status"] == "inconclusive"

    def test_kg_run_exits_4_with_hypothesis_note(self, tmp_path):
        cfg = write_reference_config(tmp_path / "kg.ini", str(tmp_path / "out"),
                                     **{"mode = paper": "mode = kg"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        assert main(["verify", str(tmp_path / "out")]) == EXIT_VERIFY_FAILED
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["status"] == "failed"
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert "phi_squared_monotone" in failed
        assert any("hypothesis" in n for n in report["notes"])

    def test_missing_directory_exits_1(self):
        assert main(["verify", "no_such_dir"]) == EXIT_CONFIG

    @pytest.mark.parametrize("column,value", [
        ("v", "0"), ("rho", "-1e-3"), ("u", "nan"), ("t", "inf"), ("chi", "x"),
        ("phi", ""),
    ])
    def test_invalid_state_value_exits_1(self, tmp_path, column, value):
        """A state cell that is not a state value, or any cell that does not
        parse as a number, an empty one included."""
        cfg = write_reference_config(tmp_path / "c.ini", str(tmp_path / "out"),
                                     **{"t_end = 10": "t_end = 0.1"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        path = tmp_path / "out" / "trajectory.csv"
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[TRAJECTORY_HEADER.split(",").index(column)] = value
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_corrupt_csv_exits_1(self, tmp_path):
        cfg = write_reference_config(tmp_path / "c.ini", str(tmp_path / "out"),
                                     **{"t_end = 10": "t_end = 0.1"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        (tmp_path / "out" / "trajectory.csv").write_text("t,u\n0,nonsense\n")
        assert main(["verify", str(tmp_path / "out")]) == EXIT_CONFIG

    @pytest.mark.parametrize("edit,message", [
        (lambda rows: rows[2].pop(), "changed from 6 to 5 at row 3"),
        (lambda rows: rows[2].append("0"), "changed from 6 to 7 at row 3"),
        (lambda rows: [r.append("0") for r in rows], "rows hold 7 values"),
        (lambda rows: [r.pop() for r in rows], "rows hold 5 values"),
    ], ids=["row_of_5", "row_of_7", "all_rows_7", "all_rows_5"])
    def test_row_not_6_fields_exits_1(self, tmp_path, capsys, edit, message):
        """Every data row holds the 6 header fields, t and the five states:
        one error line, exit 1, no report."""
        out = tmp_path / "out"
        cfg = write_reference_config(tmp_path / "c.ini", str(out),
                                     **{"t_end = 10": "t_end = 0.1"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        path = out / "trajectory.csv"
        header, *rows = path.read_text().splitlines()
        rows = [row.split(",") for row in rows]
        edit(rows)
        path.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
        capsys.readouterr()
        assert main(["verify", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("rwcosmo: error: trajectory.csv: "), err
        assert message in err[0]
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_old_twelve_column_file_exits_1(self, tmp_path, capsys, command):
        """A trajectory.csv in the old format, with the derived columns
        a, psi, H, T00, Q and constraint stored beside the states: one
        unexpected-header line, exit 1, nothing written.  Such a run must
        be simulated again."""
        out = tmp_path / "out"
        cfg = write_reference_config(tmp_path / "c.ini", str(out),
                                     **{"t_end = 10": "t_end = 0.1"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        cols = read_trajectory(out).as_arrays()
        old_header = ",".join(TRAJECTORY_COLUMNS)
        (out / "trajectory.csv").write_text(
            table_text(old_header, [cols[name] for name in TRAJECTORY_COLUMNS]))
        before = sorted(out.iterdir())
        capsys.readouterr()
        assert main([command, str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"rwcosmo: error: trajectory.csv: unexpected header {old_header!r}"]
        assert sorted(out.iterdir()) == before

    @pytest.mark.parametrize("edit,row", [
        (lambda t: t[:5] + [t[5] + 1e-3] + t[6:], 6),
        (lambda t: [2.0 * x for x in t], 2),
        (lambda t: t + [0.11], 12),
    ], ids=["one_moved", "all_doubled", "past_t_end"])
    def test_t_off_the_sample_grid_exits_1(self, tmp_path, capsys, edit, row):
        """The t column must be the run's sample grid, exactly: one error
        line naming the first data row off it, exit 1, no report."""
        out = tmp_path / "out"
        cfg = write_reference_config(tmp_path / "c.ini", str(out),
                                     **{"t_end = 10": "t_end = 0.1"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        path = out / "trajectory.csv"
        header, *rows = path.read_text().splitlines()
        times = edit([float(r.split(",", 1)[0]) for r in rows])
        rows += rows[-1:] * (len(times) - len(rows))
        rows = [f"{x!r},{r.split(',', 1)[1]}" for x, r in zip(times, rows)]
        path.write_text("\n".join([header] + rows) + "\n")
        meta = json.loads((out / "meta.json").read_text())
        meta["n_samples"] = len(rows)
        (out / "meta.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["verify", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"rwcosmo: error: trajectory.csv: data row {row} (t = "), err
        assert not (out / "report.json").exists()

    def test_blank_lines(self, tmp_path):
        """Empty lines in trajectory.csv are skipped; a line of only blanks
        is a malformed row, and the header must be the first line."""
        out = tmp_path / "out"
        cfg = write_reference_config(tmp_path / "c.ini", str(out),
                                     **{"t_end = 10": "t_end = 0.1"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        path = out / "trajectory.csv"
        text = path.read_text()
        header = text.splitlines()[0]
        traj = read_trajectory(out)
        path.write_text(text.replace("\n", "\n\n"))
        again = read_trajectory(out)
        assert again.t.tobytes() == traj.t.tobytes()
        assert again.states.tobytes() == traj.states.tobytes()
        for bad, message in ((f"{text} \t\n", "changed from 6 to 1 at row 12"),
                             (f"\n{text}", "unexpected header ''"),
                             (f"{header}\n\n\n", "holds no samples"),
                             ("", "empty file")):
            path.write_text(bad)
            with pytest.raises(CorruptTrajectory, match=message):
                read_trajectory(out)

    @staticmethod
    def verify_edited_meta(tmp_path, capsys, edit, key):
        """Simulate the short reference run, apply ``edit`` to its meta.json
        and verify: one readable error line naming ``key``, exit 1, no report."""
        out = tmp_path / "out"
        cfg = write_reference_config(tmp_path / "c.ini", str(out),
                                     **{"t_end = 10": "t_end = 0.1"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        meta = json.loads((out / "meta.json").read_text())
        edit(meta)
        (out / "meta.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["verify", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("rwcosmo: error: invalid meta.json: "), err
        assert key in err[0] and "KeyError" not in err[0]
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("edit,key", [
        (lambda meta: meta.pop("stats"), "stats"),
        (lambda meta: meta["initial"].update(b0=1.0), "b0"),
        (lambda meta: meta["stats"].update(steps_retried=0), "steps_retried"),
        (lambda meta: meta["params"].update(bogus=2), "bogus"),
        (lambda meta: meta["params"].pop("mass"), "mass"),
    ], ids=["no_stats", "unknown_initial_key", "unknown_stats_key",
            "unknown_params_key", "no_params_mass"])
    def test_meta_keys_are_the_fields(self, tmp_path, capsys, edit, key):
        """meta.json's blocks hold exactly their types' fields (``params``
        exactly lambda and mass): a missing or unknown key is an error."""
        self.verify_edited_meta(tmp_path, capsys, edit, key)

    @pytest.mark.parametrize("edit,key", [
        (lambda meta: meta.update(n_samples=7), "n_samples"),
        (lambda meta: meta.update(n_samples=11.0), "n_samples"),
        (lambda meta: meta.update(guard_tripped=True), "guard_tripped"),
        (lambda meta: meta["initial"].update(a0="x"), "a0"),
        (lambda meta: meta["stats"].update(steps_accepted=3.7), "steps_accepted"),
        (lambda meta: meta["stats"].update(steps_rejected=True), "steps_rejected"),
        (lambda meta: meta["initial"].update(a0=True), "a0 must be a real number, not bool"),
        (lambda meta: meta["initial"].update(chi0=-0.1), "chi0 must be >= 0"),
        (lambda meta: meta["initial"].update(rho0=-0.1), "rho0 must be >= 0"),
        (lambda meta: meta["integrator"].update(rel_tol=False),
         "rel_tol must be a real number, not bool"),
        (lambda meta: meta.update(params=5), "params must be an object, got 5"),
        (lambda meta: meta.update(initial=[1.0]), "initial must be an object, got [1.0]"),
        (lambda meta: meta.update(integrator="paper"),
         'integrator must be an object, got "paper"'),
        (lambda meta: meta.update(stats=None), "stats must be an object, got null"),
    ], ids=["n_samples_not_the_rows", "n_samples_float", "guard_without_event",
            "a0_string", "count_fractional", "count_boolean", "a0_boolean",
            "chi0_negative", "rho0_negative",
            "rel_tol_boolean", "params_not_object", "initial_not_object",
            "integrator_not_object", "stats_not_object"])
    def test_meta_values_checked(self, tmp_path, capsys, edit, key):
        """meta.json's values are checked: each block is an object, a real
        value is not a boolean, a count is a JSON integer, n_samples is the
        number of trajectory.csv rows, guard_tripped agrees with events.json,
        and a bad value is named."""
        self.verify_edited_meta(tmp_path, capsys, edit, key)


    @pytest.mark.parametrize("name,text,message", [
        ("meta.json", "[]", "invalid meta.json: the file must be an object, got []"),
        ("meta.json", "5", "invalid meta.json: the file must be an object, got 5"),
        ("events.json", "5", "invalid events.json: the file must be an array, got 5"),
        ("events.json", '{"t": 0}', 'invalid events.json: the file must be an array, got {"t": 0}'),
        ("events.json", "[5]", "invalid events.json: entry 1 must be an object, got 5"),
    ], ids=["meta_array", "meta_number", "events_number", "events_object", "event_number"])
    def test_whole_file_of_wrong_type_named(self, tmp_path, capsys, name, text, message):
        """A meta.json that is not an object, or an events.json that is not
        an array of objects, is named in one error line (exit 1)."""
        out = tmp_path / "out"
        cfg = write_reference_config(tmp_path / "c.ini", str(out),
                                     **{"t_end = 10": "t_end = 0.1"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        (out / name).write_text(text)
        capsys.readouterr()
        assert main(["verify", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [f"rwcosmo: error: {message}"]
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda e: e.update(t="0.5"), "t must be a real number, not str"),
        (lambda e: e.update(t=True), "t must be a real number, not bool"),
        (lambda e: e.update(t=float("nan")), "t must be finite, got nan"),
        (lambda e: e.update(when=0.5), "unexpected keyword argument 'when'"),
        (lambda e: e.update(kind=5), "kind must be one of FieldFrozen, ChiZeroCrossing, "
                                     "GuardTripped, got 5"),
        (lambda e: e.pop("detail"), "missing 1 required positional argument: 'detail'"),
    ], ids=["t_string", "t_boolean", "t_nan", "unknown_key", "kind_number", "no_detail"])
    def test_event_entries_checked(self, tmp_path, capsys, edit, message):
        """An events.json entry holds exactly Event's fields, each checked by
        Event: one error line naming events.json, exit 1, no report."""
        out = tmp_path / "out"
        cfg = write_reference_config(tmp_path / "c.ini", str(out),
                                     **{"t_end = 10": "t_end = 0.1"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        events = json.loads((out / "events.json").read_text())
        assert [e["kind"] for e in events] == ["FieldFrozen"]
        edit(events[0])
        (out / "events.json").write_text(json.dumps(events))
        capsys.readouterr()
        assert main(["verify", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("rwcosmo: error: invalid events.json: "), err
        assert message in err[0]
        assert not (out / "report.json").exists()


class TestReport:
    def test_emits_summary_and_plot_data(self, ref_run):
        assert main(["report", str(ref_run)]) == EXIT_OK
        for name in ("summary.txt", "a_vs_t.dat", "H_vs_t.dat", "T00_vs_t.dat",
                     "Q_vs_t.dat", "constraint_vs_t.dat", "lnQ_vs_t.dat"):
            assert (ref_run / name).exists()
        summary = (ref_run / "summary.txt").read_text()
        assert "status: passed" in summary

    def test_empty_out_exits_1_without_files(self, tmp_path, capsys, monkeypatch, ref_run):
        """``-o ""`` would be the working directory: the same config error as
        an empty [output] directory, and nothing is written."""
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.delenv("RWCOSMO_OUTPUT_ROOT", raising=False)
        capsys.readouterr()
        assert main(["report", str(ref_run), "-o", ""]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("rwcosmo: error:"), err
        assert list(cwd.iterdir()) == []

    def test_lnq_slope_matches_fitted_rate(self, ref_run):
        assert main(["verify", str(ref_run)]) == EXIT_OK
        assert main(["report", str(ref_run)]) == EXIT_OK
        report = json.loads((ref_run / "report.json").read_text())
        data = np.loadtxt(ref_run / "lnQ_vs_t.dat")
        slope = np.polyfit(data[:, 0], data[:, 1], 1)[0]
        assert slope == pytest.approx(-report["fits"]["Q"]["rate"], rel=1e-9)

    def test_plot_data_matches_trajectory_columns(self, ref_run):
        assert main(["verify", str(ref_run)]) == EXIT_OK
        assert main(["report", str(ref_run)]) == EXIT_OK
        cols = read_trajectory(ref_run).as_arrays()
        for name in ("a", "H", "T00", "Q", "constraint"):
            data = np.loadtxt(ref_run / f"{name}_vs_t.dat")
            assert np.array_equal(data[:, 0], cols["t"])
            assert np.array_equal(data[:, 1], cols[name])
        fit = json.loads((ref_run / "report.json").read_text())["fits"]["Q"]
        t, q = cols["t"], cols["Q"]
        mask = (t >= fit["t_lo"]) & (t <= fit["t_hi"])
        data = np.loadtxt(ref_run / "lnQ_vs_t.dat")
        assert np.array_equal(data[:, 0], t[mask])
        assert np.array_equal(data[:, 1], np.log(q[mask]))

    def test_missing_input_exits_1(self):
        assert main(["report", "definitely_missing"]) == EXIT_CONFIG


class TestSweepCommand:
    PLAN = """[axes]
lambda = {values}

[fixed]
mass = 1
phi0 = 1
chi0 = 0.1
rho0 = 0.05

[sweep]
workers = 1

[integrator]
t_end = 2

[output]
directory = {out}
overwrite = true
"""

    def test_one_by_one_grid_single_row(self, tmp_path):
        plan = tmp_path / "plan.ini"
        plan.write_text(self.PLAN.format(values="1", out=tmp_path / "sw"))
        assert main(["sweep", str(plan)]) == EXIT_OK
        lines = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + one data row

    def test_overwrite_refused_without_flag(self, tmp_path, capsys):
        """An existing sweep.csv is kept, and the sweep exits 1, unless
        overwrite is set."""
        plan = tmp_path / "plan.ini"
        plan.write_text(self.PLAN.format(values="1", out=tmp_path / "sw")
                        .replace("overwrite = true", "overwrite = false"))
        csv_path = tmp_path / "sw" / "sweep.csv"
        csv_path.parent.mkdir()
        csv_path.write_text("earlier table\n")
        capsys.readouterr()
        assert main(["sweep", str(plan)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"rwcosmo: error: refusing to overwrite {csv_path}; set overwrite"]
        assert csv_path.read_text() == "earlier table\n"
        assert sorted(csv_path.parent.iterdir()) == [csv_path]

    def test_stepped_reference_pins(self, tmp_path, stepped):
        """The reference run stepped through its frozen phase, the path of
        the runs the exact tail does not cover: 1,956 steps and 11,738 RHS
        evaluations (6 per step, the first stage, and one more after the
        FieldFrozen restart), and its trajectory.csv bytes."""
        cfg = write_reference_config(tmp_path / "run.ini", str(tmp_path / "out"))
        with stepped(), contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", str(cfg)]) == EXIT_OK
        st = read_trajectory(tmp_path / "out").stats
        assert (st.steps_accepted, st.steps_rejected, st.rhs_evaluations) == (1956, 0, 11738)
        assert sha256((tmp_path / "out" / "trajectory.csv").read_text()) == \
            STEPPED_TRAJECTORY_SHA256

    def test_oversized_sample_grid_exits_1(self, tmp_path, capsys):
        plan = tmp_path / "plan.ini"
        plan.write_text(self.PLAN.format(values="1", out=tmp_path / "sw")
                        .replace("t_end = 2", "t_end = 10\nsample_dt = 1e-9"))
        capsys.readouterr()
        assert main(["sweep", str(plan)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "MAX_SAMPLES = 1000000" in err[0], err
        assert not (tmp_path / "sw").exists()

    def test_unknown_axis_exits_1(self, tmp_path):
        plan = tmp_path / "plan.ini"
        plan.write_text(self.PLAN.format(values="1", out=tmp_path / "sw")
                        .replace("lambda =", "lambdaa ="))
        assert main(["sweep", str(plan)]) == EXIT_CONFIG

    def test_out_of_range_axis_value_exits_1(self, tmp_path):
        plan = tmp_path / "plan.ini"
        plan.write_text(self.PLAN.format(values="1", out=tmp_path / "sw")
                        .replace("lambda = 1\n", "lambda = 1\nmass = -1, 1\n")
                        .replace("mass = 1\n", ""))
        assert main(["sweep", str(plan)]) == EXIT_CONFIG
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("line", ["workers = two", "cap = 1e3"])
    def test_non_integer_sweep_setting_exits_1(self, tmp_path, line):
        plan = tmp_path / "plan.ini"
        plan.write_text(self.PLAN.format(values="1", out=tmp_path / "sw")
                        .replace("workers = 1", line))
        assert main(["sweep", str(plan)]) == EXIT_CONFIG
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_1(self, tmp_path, workers):
        plan = tmp_path / "plan.ini"
        plan.write_text(self.PLAN.format(values="1", out=tmp_path / "sw")
                        .replace("workers = 1", f"workers = {workers}"))
        assert main(["sweep", str(plan)]) == EXIT_CONFIG
        assert not (tmp_path / "sw").exists()

    def test_empty_output_directory_exits_1(self, tmp_path, capsys, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.delenv("RWCOSMO_OUTPUT_ROOT", raising=False)
        plan = tmp_path / "plan.ini"
        plan.write_text(self.PLAN.format(values="1", out=""))
        capsys.readouterr()
        assert main(["sweep", str(plan)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("rwcosmo: error:"), err
        assert list(cwd.iterdir()) == []

    def test_overflowing_point_flagged_not_raised(self, tmp_path):
        """u0 overflows at phi0 = 1e200; that row is flagged, the sweep completes."""
        plan = tmp_path / "plan.ini"
        plan.write_text(self.PLAN.format(values="1", out=tmp_path / "sw")
                        .replace("phi0 = 1\n", "")
                        .replace("lambda = 1\n", "lambda = 1\nphi0 = 1, 1e200\n")
                        .replace("chi0 = 0.1", "chi0 = 0")
                        .replace("rho0 = 0.05", "rho0 = 0"))
        assert main(["sweep", str(plan)]) == EXIT_OK
        text = (tmp_path / "sw" / "sweep.csv").read_text()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["status"] for r in rows] == ["ok", "invalid-data"]
        assert rows[1]["admissible"] == "false"
        assert rows[1]["nu"] == "nan"

    def test_sidecar_holds_timings(self, tmp_path):
        plan = tmp_path / "plan.ini"
        plan.write_text(self.PLAN.format(values="1, 2", out=tmp_path / "sw"))
        assert main(["sweep", str(plan)]) == EXIT_OK
        meta = json.loads((tmp_path / "sw" / "sweep_meta.json").read_text())
        assert meta["rows"] == 2
        assert len(meta["row_wall_times_s"]) == 2


class TestIOErrors:
    @pytest.mark.parametrize("command", ["simulate", "sweep", "report"])
    def test_uncreatable_output_directory_exits_1(self, tmp_path, capsys, ref_run,
                                                  command):
        """An output directory below a regular file cannot be created; every
        command says so in one error line and exits 1, never a traceback."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"
        if command == "simulate":
            cfg = write_reference_config(tmp_path / "run.ini", str(out),
                                         **{"t_end = 10": "t_end = 0.1"})
            argv = ["simulate", str(cfg)]
        elif command == "sweep":
            plan = tmp_path / "plan.ini"
            plan.write_text(TestSweepCommand.PLAN.format(values="1", out=out))
            argv = ["sweep", str(plan)]
        else:
            argv = ["report", str(ref_run), "-o", str(out)]
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("rwcosmo: error:"), err


def _non_default(field):
    if field.type == "float":
        return field.default * 3.0  # keeps h_min <= h_init <= h_max
    if field.type == "bool":
        return not field.default
    return {"mode": "kg"}[field.name]


class TestSchema:
    @pytest.mark.parametrize("parse,text", [
        (parse_run_config, "[model]\nlambda = 1\nmass = 1\n[initial]\na0 = 1\nphi0 = 1\n"
                           "chi0 = 0.1\nrho0 = 0.05\nbranch = expanding\n"),
        (parse_sweep_plan, "[axes]\nlambda = 1\n[fixed]\nmass = 1\nphi0 = 1\n"
                           "chi0 = 0.1\nrho0 = 0.05\n"),
    ], ids=["simulate", "sweep"])
    def test_every_integrator_field_is_a_key(self, tmp_path, parse, text):
        """[integrator] takes every IntegratorConfig field by name and type."""
        values = {f.name: _non_default(f) for f in fields(IntegratorConfig)}
        expected = IntegratorConfig(**values)
        assert all(getattr(expected, f.name) != f.default for f in fields(IntegratorConfig))
        lines = [f"{k} = {str(v).lower() if isinstance(v, bool) else v}"
                 for k, v in values.items()]
        path = tmp_path / "all.ini"
        path.write_text(text + "[integrator]\n" + "\n".join(lines) + "\n")
        parsed = parse(str(path))
        assert (parsed.integrator if parse is parse_run_config else parsed[0].integrator) \
            == expected

    def test_readme_examples_parse(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        run_ini, plan_ini = re.findall(r"```ini\n(.*?)```", readme, re.S)
        (tmp_path / "run.ini").write_text(run_ini)
        (tmp_path / "plan.ini").write_text(plan_ini)
        cfg = parse_run_config(str(tmp_path / "run.ini"))
        assert cfg.params == ModelParams(lam=1.0, mass=1.0)
        assert (cfg.initial.phi0, cfg.initial.chi0, cfg.initial.rho0) == (1.0, 0.1, 0.05)
        assert cfg.integrator.t_end == 10.0 and cfg.directory == "out/reference"
        plan, directory, overwrite = parse_sweep_plan(str(tmp_path / "plan.ini"))
        assert plan.size == 5 and plan.workers is None
        assert (directory, overwrite) == ("sweep_out", True)


#: What the fuzz writes into a key: malformed, out-of-range and in-range
#: values.  "{blocker}/sub" names a directory below a regular file.
FUZZ_VALUES = ("", "abc", "inf", "nan", "-1", "0", "1e400", "1e-160", "true", "two",
               "1,,2", "0.5", "1", "2", "kg", "contracting", "{blocker}/sub")
FUZZ_BASE = {
    "simulate": {
        "model": {"lambda": "1", "mass": "1"},
        "initial": {"a0": "1", "phi0": "1", "chi0": "0.1", "rho0": "0.05",
                    "branch": "expanding"},
        "integrator": {"t_end": "0.5"},
        "output": {"directory": "out", "overwrite": "true"},
    },
    "sweep": {
        "axes": {"lambda": "1"},
        "fixed": {"mass": "1", "phi0": "1", "chi0": "0.1", "rho0": "0.05"},
        "sweep": {"workers": "1"},
        "integrator": {"t_end": "0.5"},
        "output": {"directory": "out", "overwrite": "true"},
    },
}
#: Keys the fuzz draws in each section (solve_rho0 is a removed key).
FUZZ_KEYS = {
    "model": ("lambda", "mass"),
    "initial": ("a0", "phi0", "chi0", "rho0", "branch", "u0", "solve_rho0"),
    "integrator": tuple(f.name for f in fields(IntegratorConfig)),
    "output": ("directory", "overwrite"),
    "axes": SWEEP_PARAMS,
    "fixed": SWEEP_PARAMS + ("a0", "branch"),
    "sweep": ("cap", "workers"),
    "extras": (),
}


@st.composite
def fuzz_case(draw):
    """(command, edits): each edit sets, drops or duplicates a key of the
    command's own sections, or an unknown one, or drops a section."""
    command = draw(st.sampled_from(sorted(FUZZ_BASE)))
    sections = st.sampled_from([*FUZZ_BASE[command]] * 2 + ["extras"])
    edits = []
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["set"] * 4 + ["drop", "duplicate", "drop_section"]))
        section = draw(sections)
        key = draw(st.sampled_from(FUZZ_KEYS[section] + ("bogus",)))
        edits.append((op, section, key, draw(st.sampled_from(FUZZ_VALUES))))
    return command, edits


class TestFuzzMain:
    """``main`` on malformed configs ends in a documented exit code with one
    error line, never a traceback.  Every relative output directory lands
    below a fresh RWCOSMO_OUTPUT_ROOT.  Draws whose t_end/sample_dt exceeds
    1e4 are dropped, as integrate has no step budget yet; a sweep keeps
    ``workers = 1``, so no process pool starts.  Shrinking is skipped: the
    derandomized first counterexample already reproduces."""

    @pytest.mark.filterwarnings("ignore:initial expansion rate u0 is exactly zero")
    @settings(phases=[Phase.explicit, Phase.generate], max_examples=200)
    @given(case=fuzz_case())
    @example(case=("simulate", [("set", "initial", "branch", "contracting")]))
    @example(case=("simulate", [("set", "initial", "branch", "contracting"),
                                ("set", "integrator", "override_admissibility", "true")]))
    @example(case=("simulate", [("drop", "initial", "rho0", ""), ("drop", "initial", "branch", ""),
                                ("set", "initial", "u0", "2")]))
    @example(case=("simulate", [("set", "output", "directory", "{blocker}/sub")]))
    @example(case=("simulate", [("set", "initial", "a0", "1e-160")]))
    @example(case=("sweep", [("set", "fixed", "a0", "1e-160")]))
    @example(case=("sweep", [("set", "output", "directory", "{blocker}/sub")]))
    @example(case=("sweep", [("set", "axes", "phi0", "1,,2"), ("drop", "fixed", "phi0", ""),
                             ("set", "fixed", "branch", "contracting")]))
    def test_exit_code_never_traceback(self, tmp_path_factory, case):
        command, edits = case
        config = {name: dict(keys) for name, keys in FUZZ_BASE[command].items()}
        twice = set()
        for op, section, key, value in edits:
            if op == "drop_section":
                config.pop(section, None)
            elif op == "set":
                config.setdefault(section, {})[key] = value
            elif op == "drop":
                config.get(section, {}).pop(key, None)
            elif key in config.get(section, {}):
                twice.add((section, key))
        if command == "sweep":
            config.setdefault("sweep", {})["workers"] = "1"
            twice.discard(("sweep", "workers"))
        integ = config.get("integrator", {})
        try:
            samples = float(integ.get("t_end", "10")) / float(integ.get("sample_dt", "0.01"))
        except (ValueError, ZeroDivisionError):
            samples = 0.0
        assume(not samples > 1e4)

        root = tmp_path_factory.mktemp("fuzz")
        (root / "blocker").write_text("")
        lines = []
        for section, keys in config.items():
            lines.append(f"[{section}]")
            for key, value in keys.items():
                line = f"{key} = " + value.format(blocker=root / "blocker")
                lines += [line] * (2 if (section, key) in twice else 1)
        path = root / "config.ini"
        path.write_text("\n".join(lines) + "\n")

        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, {"RWCOSMO_OUTPUT_ROOT": str(root)}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
        allowed = {EXIT_OK, EXIT_CONFIG, EXIT_INADMISSIBLE, EXIT_INTEGRATOR}
        assert code in (allowed if command == "simulate" else {EXIT_OK, EXIT_CONFIG})
        errors = err.getvalue().splitlines()
        assert len(errors) == (code != EXIT_OK), errors
        assert all(e.startswith("rwcosmo: error:") for e in errors)

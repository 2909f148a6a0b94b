"""CLI contract: exit codes, file formats, round trips, determinism."""

import contextlib
import csv
import hashlib
import importlib.util
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
from rwcosmo import IntegratorConfig, ModelParams, integrator
from rwcosmo.cli import (EXIT_CONFIG, EXIT_INADMISSIBLE, EXIT_INCONCLUSIVE,
                         EXIT_INTEGRATOR, EXIT_OK, EXIT_VERIFY_FAILED, main,
                         parse_run_config, parse_sweep_plan)
from rwcosmo.integrator import TRAJECTORY_COLUMNS
from rwcosmo.serialize import meta_json_text, read_trajectory, write_table, write_trajectory
from rwcosmo.sweep import SWEEP_PARAMS

from conftest import write_reference_config

README = Path(__file__).resolve().parents[1] / "README.md"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRAJECTORY_HEADER = "t,u,v,phi,chi"
#: sha256 of the reference run's trajectory.csv, and of the same run stepped
#: through its frozen phase.  The float stepper makes them the same on every
#: BLAS kernel.
REFERENCE_TRAJECTORY_SHA256 = (
    "7380c0f72919474c167e65fbd1da08f7a249e33e6cd4da04ff7d31811757c792")
STEPPED_TRAJECTORY_SHA256 = (
    "bc2cb9e76eebbccc967dc96555f6eacdf36d7671f6164e900c5bfda624dc17f7")
#: sha256 of the JSON files simulate + verify write for the reference run and
#: its ``kg`` variant.  meta.json records the package version, so a version
#: bump moves its pins.
JSON_SHA256 = {
    "paper": {
        "meta.json": "5305b7b26862b32d0de325a493540144e1ef787ac2e9f0af756a9d11dba7b006",
        "report.json": "4f678ccff50ed0135678a76ba2d357daafffff91305ef8b950986fddc0029be4",
    },
    "kg": {
        "meta.json": "ab525e88e09bf43dca2be0e55f216002335b3e7f363ba9a2f3df9fd626d6bd65",
        "report.json": "1980bb979222c610c123515a791689f37d169bca8ec92495a186639063139a6e",
    },
}


#: The ``steps`` block of the older meta.json format that carried a step
#: record (its keys, one step's arrays), and the one line that refuses it.
STEP_RECORD = {"t0": [0.0], "h": [0.01], "y1": [1.0] * 4, "quartics": [0.0] * 20,
               "theta": 0.5, "tail": True}
STRAY_STEPS = "the file holds steps, which the run it describes does not"


def older_steps(**edits):
    """A meta.json edit that adds STEP_RECORD with ``edits``."""
    return lambda meta: meta.update(steps={**STEP_RECORD, **edits})


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
        for name in ("trajectory.csv", "meta.json"):
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
        assert cols["rho"][0] == traj.initial.rho0

    def test_reference_counters_and_csv_round_trip(self, ref_run, ref_trajectory, tmp_path):
        """Pinned step counters and trajectory.csv bytes of the reference run;
        reading trajectory.csv back and writing it again reproduces its bytes.

        14 steps to the freeze, then the exact tail: 85 RHS evaluations = 6
        per step and the first stage."""
        st = ref_trajectory.stats
        assert (st.steps_accepted, st.steps_rejected, st.rhs_evaluations) == (14, 0, 85)
        assert len(ref_trajectory.t) == 1001
        text = (ref_run / "trajectory.csv").read_text()
        assert sha256(text) == REFERENCE_TRAJECTORY_SHA256
        for name, traj in (("read", read_trajectory(ref_run)), ("memory", ref_trajectory)):
            write_trajectory(tmp_path / name, traj, rwcosmo.__version__)
            written = (tmp_path / name / "trajectory.csv").read_text()
            assert sha256(written) == sha256(text), first_difference(written, text)

    def test_stepped_reference_pins(self, tmp_path, stepped):
        """The reference run stepped through its frozen phase, the path of
        the runs the exact tail does not cover: 1,152 steps and 6,914 RHS
        evaluations (6 per step, the first stage, and one more after the
        FieldFrozen restart), and its trajectory.csv bytes."""
        cfg = write_reference_config(tmp_path / "run.ini", str(tmp_path / "out"))
        with stepped(), contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", str(cfg)]) == EXIT_OK
            st = read_trajectory(tmp_path / "out").stats
        assert (st.steps_accepted, st.steps_rejected, st.rhs_evaluations) == (1152, 0, 6914)
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
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert any(e["kind"] == "GuardTripped" for e in meta["events"])

    def test_step_size_underflow_exits_3_with_partial_run(self, tmp_path, capsys, monkeypatch):
        """H_MIN close to H_MAX leaves no room to resolve the dynamics: the
        run ends in GuardTripped at t = 0, like any other run limit.  One
        error line, exit 3, and the one-sample run is written; verify notes
        the guard and exits 5."""
        monkeypatch.setattr(integrator, "H_MIN", 0.05)
        monkeypatch.setattr(integrator, "H_INIT", 0.1)
        out = tmp_path / "out"
        cfg = write_reference_config(
            tmp_path / "under.ini", str(out),
            **{"rel_tol = 1e-10": "rel_tol = 1e-14", "abs_tol = 1e-10": "abs_tol = 1e-14",
               "t_end = 10": "t_end = 1"})
        capsys.readouterr()
        assert main(["simulate", str(cfg)]) == EXIT_INTEGRATOR
        assert capsys.readouterr().err.splitlines() == [
            "rwcosmo: error: guard tripped at t = 0 (step size fell below H_MIN = 0.05); "
            f"partial trajectory (1 samples) written to {out}"]
        assert sorted(p.name for p in out.iterdir()) == ["meta.json", "trajectory.csv"]
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[0] == TRAJECTORY_HEADER
        assert main(["verify", str(out)]) == EXIT_INCONCLUSIVE
        notes = json.loads((out / "report.json").read_text())["notes"]
        assert notes[-1] == "integration aborted by guard: t = 0: step size fell below H_MIN = 0.05"

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
        """meta.json and report.json of the reference run and its kg variant
        keep their bytes; simulate writes trajectory.csv and meta.json alone."""
        out = tmp_path / "out"
        cfg = write_reference_config(tmp_path / "run.ini", str(out),
                                     **{"mode = paper": f"mode = {mode}"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        assert sorted(path.name for path in out.iterdir()) == ["meta.json", "trajectory.csv"]
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
        the test passes trivially.  The math module's results still follow
        glibc's pick of FMA variants, which this test leaves as it is."""
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
        with math-module calls.  Those still follow glibc's pick of FMA
        variants of exp and expm1, which this test leaves as it is."""
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
        assert set(report["fits"]) == {"Q"}
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

    @staticmethod
    def simulate_short(tmp_path):
        """The output directory of the reference run simulated to t = 0.1."""
        out = tmp_path / "out"
        cfg = write_reference_config(tmp_path / "c.ini", str(out),
                                     **{"t_end = 10": "t_end = 0.1"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        return out

    @staticmethod
    def assert_csv_refused(out, capsys, command="verify"):
        """``command`` on the run at ``out``, whose trajectory.csv no longer
        has the sha256 simulate recorded: one line naming the file and both
        digests, exit 1, nothing written."""
        recorded = json.loads((out / "meta.json").read_text())["trajectory_sha256"]
        found = hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()
        assert found != recorded
        written = sorted(out.iterdir())
        capsys.readouterr()
        assert main([command, str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"rwcosmo: error: trajectory.csv: sha256 {found} is not meta.json's "
            f"trajectory_sha256 {recorded}: the file was edited"]
        assert sorted(out.iterdir()) == written

    @classmethod
    def verify_edited_csv(cls, tmp_path, capsys, edit, command="verify"):
        """Simulate the short reference run, replace its trajectory.csv text
        by ``edit`` of it and run ``command``: assert_csv_refused.  The
        recorded sha256 is that of the file simulate wrote."""
        out = cls.simulate_short(tmp_path)
        path = out / "trajectory.csv"
        text = path.read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == \
            json.loads((out / "meta.json").read_text())["trajectory_sha256"]
        path.write_text(edit(text))
        cls.assert_csv_refused(out, capsys, command)

    @staticmethod
    def edit_cell(row, column, value):
        """An edit of trajectory.csv text: the ``column`` cell of data row
        ``row`` set to ``value``."""
        def edit(text):
            lines = text.splitlines()
            fields = lines[row].split(",")
            fields[TRAJECTORY_HEADER.split(",").index(column)] = value
            lines[row] = ",".join(fields)
            return "\n".join(lines) + "\n"
        return edit

    @pytest.mark.parametrize("column,value", [
        ("v", "0"), ("u", "nan"), ("t", "inf"), ("chi", "x"),
        ("phi", ""),
    ])
    def test_invalid_state_value_exits_1(self, tmp_path, capsys, column, value):
        """A state cell that is not a state value, or any cell that does not
        parse as a number, an empty one included: the file is not the one
        written."""
        self.verify_edited_csv(tmp_path, capsys, self.edit_cell(3, column, value))

    def test_corrupt_csv_exits_1(self, tmp_path, capsys):
        self.verify_edited_csv(tmp_path, capsys, lambda text: "t,u\n0,nonsense\n")

    def test_perfbench_self_check_fails_the_op(self, tmp_path, capsys, monkeypatch):
        """perfbench's self-check: the 12th significant digit of v bumped in
        the middle row of trajectory.csv, by perfbench/run.py's own
        bump_digit, a different double 1e-11 away, makes verify exit 1 with
        one line naming trajectory.csv and no report.  The harness's
        DenseOutput op with that edit then counts as failed."""
        monkeypatch.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)

        def bump_middle_v(text):
            lines = text.split("\n")
            row = len(lines) // 2
            cells = lines[row].split(",")
            bumped = run.bump_digit(cells[2])
            assert float(bumped) != float(cells[2])
            return self.edit_cell(row, "v", bumped)(text)

        self.verify_edited_csv(tmp_path, capsys, bump_middle_v)
        runner = run.DenseOutput(rwcosmo, 0, tmp_path / "bench")
        with contextlib.redirect_stdout(io.StringIO()):
            failure = runner.self_check(None)
        assert failure.startswith("exit codes simulate=0 verify=1: ") and \
            "trajectory.csv: sha256 " in failure, failure

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[2].pop(),
        lambda rows: rows[2].append("0"),
        lambda rows: [r.append("0") for r in rows],
        lambda rows: [r.pop() for r in rows],
    ], ids=["row_of_4", "row_of_6", "all_rows_6", "all_rows_4"])
    def test_row_not_5_fields_exits_1(self, tmp_path, capsys, edit):
        """A data row of other than the 5 header fields, t and the four
        states: the file is not the one written."""
        def edit_rows(text):
            header, *rows = text.splitlines()
            rows = [row.split(",") for row in rows]
            edit(rows)
            return "\n".join([header] + [",".join(r) for r in rows]) + "\n"

        self.verify_edited_csv(tmp_path, capsys, edit_rows)

    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_old_twelve_column_file_exits_1(self, tmp_path, capsys, command):
        """A trajectory.csv in an old format: the twelve-column one, with the
        derived columns a, psi, rho, H, T00, Q and constraint stored beside
        the states, and the six-column one, with rho stored as a state.
        Each is not the file written: one line, exit 1, nothing written.
        Such a run must be simulated again."""
        out = self.simulate_short(tmp_path)
        cols = read_trajectory(out).as_arrays()
        for names in (TRAJECTORY_COLUMNS, ("t", "u", "v", "phi", "chi", "rho")):
            write_table(out / "trajectory.csv", ",".join(names), [cols[n] for n in names])
            self.assert_csv_refused(out, capsys, command)

    @pytest.mark.parametrize("edit", [
        lambda t: t[:5] + [t[5] + 1e-3] + t[6:],
        lambda t: [2.0 * x for x in t],
        lambda t: t + [0.11],
    ], ids=["one_moved", "all_doubled", "past_t_end"])
    def test_t_off_the_sample_grid_exits_1(self, tmp_path, capsys, edit):
        """A t column off the run's sample grid, or past its end: the file
        is not the one written."""
        def edit_times(text):
            header, *rows = text.splitlines()
            times = edit([float(r.split(",", 1)[0]) for r in rows])
            rows += rows[-1:] * (len(times) - len(rows))
            rows = [f"{x!r},{r.split(',', 1)[1]}" for x, r in zip(times, rows)]
            return "\n".join([header] + rows) + "\n"

        self.verify_edited_csv(tmp_path, capsys, edit_times)

    def test_blank_lines(self, tmp_path, capsys):
        """Empty lines in trajectory.csv, which the old parser skipped, are
        refused like any other edit, as are a line of only blanks, an empty
        line before the header, a header with no rows and an empty file."""
        for bad in (lambda text: text.replace("\n", "\n\n"),
                    lambda text: f"{text} \t\n",
                    lambda text: f"\n{text}",
                    lambda text: text.split("\n", 1)[0] + "\n\n\n",
                    lambda text: ""):
            self.verify_edited_csv(tmp_path, capsys, bad)

    def test_missing_csv_exits_1(self, tmp_path, capsys):
        """A run whose trajectory.csv is gone: one missing-file line."""
        out = self.simulate_short(tmp_path)
        (out / "trajectory.csv").unlink()
        capsys.readouterr()
        assert main(["verify", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"rwcosmo: error: missing file: {out / 'trajectory.csv'}"]
        assert sorted(p.name for p in out.iterdir()) == ["meta.json"]

    @staticmethod
    def verify_edited_meta(tmp_path, capsys, edit, key):
        """Simulate the short reference run, apply ``edit`` to its meta.json
        and verify: one readable error line naming ``key``, exit 1, no report."""
        out = TestVerify.simulate_short(tmp_path)
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
        (lambda meta: meta["integrator"].update(h_init=1e-4), "h_init"),
    ], ids=["no_stats", "unknown_initial_key", "unknown_stats_key",
            "unknown_params_key", "no_params_mass", "removed_integrator_key"])
    def test_meta_keys_are_the_fields(self, tmp_path, capsys, edit, key):
        """meta.json's blocks hold exactly their types' fields (``params``
        exactly lambda and mass): a missing or unknown key is an error, as is
        a step bound or guard, now a constant, in an older run's file."""
        self.verify_edited_meta(tmp_path, capsys, edit, key)

    @pytest.mark.parametrize("edit,key", [
        (lambda meta: meta.update(n_samples=7), "n_samples"),
        (lambda meta: meta.update(n_samples=11.0), "n_samples"),
        (lambda meta: meta["initial"].update(a0="x"), "a0"),
        (lambda meta: meta["stats"].update(steps_accepted=3.7), '"steps_accepted": 3.7'),
        (lambda meta: meta["stats"].update(steps_rejected=True), '"steps_rejected": true'),
        (lambda meta: meta["initial"].update(a0=True), "a0 must be a real number, not bool"),
        (lambda meta: meta["initial"].update(chi0=-0.1), "chi0 must be >= 0"),
        (lambda meta: meta["initial"].update(rho0=-0.1), "rho0 must be >= 0"),
        (lambda meta: meta["integrator"].update(rel_tol=False),
         "rel_tol must be a real number, not bool"),
        (lambda meta: meta.update(params=5), "params must be an object, got 5"),
        (lambda meta: meta.update(initial=[1.0]), "initial must be an object, got [1.0]"),
        (lambda meta: meta.update(integrator="paper"),
         'integrator must be an object, got "paper"'),
        (lambda meta: meta.update(stats=None), "stats is null, where the run it describes has {"),
        (lambda meta: meta["admissibility"].update(lambda_bound_ok=False), "admissibility"),
        (lambda meta: meta["admissibility"].update(bogus=3), "admissibility"),
        (lambda meta: meta["admissibility"].update(u0_positive=1), "admissibility"),
        (lambda meta: meta.update(guard_tripped=True),
         "the file holds guard_tripped, which the run it describes does not"),
        (lambda meta: meta.update(bogus=1),
         "the file holds bogus, which the run it describes does not"),
        (lambda meta: meta.update(version=5), "version must be a string, got 5"),
        (lambda meta: meta.update(package="x"), "package"),
        (lambda meta: meta["integrator"].update(t_end=1), '"t_end": 1}'),
        (lambda meta: meta["integrator"].update(override_admissibility="yes"),
         "override_admissibility must be a bool, got 'yes'"),
        (lambda meta: meta["events"].insert(0, {"t": 0.0, "kind": "GuardTripped", "detail": "x"}),
         'events is [{"detail": "x", "kind": "GuardTripped", "t": 0.0}, {'),
        (older_steps(t0=["0.0"]), STRAY_STEPS),
        (older_steps(h=[1]), STRAY_STEPS),
        (older_steps(h=[0.0]), STRAY_STEPS),
        (older_steps(y1=[1.0] * 3), STRAY_STEPS),
        (older_steps(quartics=[0.0] * 19), STRAY_STEPS),
        (older_steps(theta="0.5"), STRAY_STEPS),
        (older_steps(tail=1), STRAY_STEPS),
        (older_steps(y0=[]), STRAY_STEPS),
        (lambda meta: meta.update(steps=[]), STRAY_STEPS),
        (lambda meta: meta.update(trajectory_sha256=None),
         "trajectory_sha256 must be a string, got null"),
        (lambda meta: meta["integrator"].update(rel_tol=1e-8),
         'stats is {"rhs_evaluations": 85, "steps_accepted": 14, "steps_rejected": 0}, where '
         'the run it describes has {"rhs_evaluations": 55, "steps_accepted": 9, '
         '"steps_rejected": 0}'),
        (lambda meta: meta["initial"].update(rho0=meta["initial"]["rho0"] * (1 + 1e-10)),
         'events is [{"detail": "field velocity reached zero; phi frozen at 1.00350426138", '
         '"kind": "FieldFrozen", "t": 0.07655184661048207}], where the run it describes has '),
    ], ids=["n_samples_not_the_rows", "n_samples_float", "a0_string",
            "count_fractional", "count_boolean", "a0_boolean",
            "chi0_negative", "rho0_negative",
            "rel_tol_boolean", "params_not_object", "initial_not_object",
            "integrator_not_object", "stats_not_object",
            "admissibility_flag_edited", "admissibility_unknown_key",
            "admissibility_flag_as_integer", "guard_tripped_stray",
            "unknown_top_level_key", "version_not_string", "package_not_rwcosmo",
            "float_written_as_int", "override_not_bool", "guard_trip_not_last",
            "steps_t0_string", "steps_h_integer", "steps_h_zero", "steps_y1_short",
            "steps_count_differs", "steps_theta_string", "steps_tail_integer", "steps_unknown_key",
            "steps_not_object", "digest_not_string", "rel_tol_edited", "rho0_edited"])
    def test_meta_values_checked(self, tmp_path, capsys, edit, key):
        """meta.json's values are checked: each input block is an object, a
        real value is not a boolean, version is a string,
        override_admissibility is a bool, and the file is, as JSON and type
        for type, what simulate writes for the run integrate gives on its
        inputs (its stats and events, n_samples the trajectory.csv rows,
        admissibility validate_theorem1's report, a float not written as an
        integer).  A bad value is named, and so is the first block that
        differs from that run's, with both values; a key the writer does not
        write, such as the step record of an older format in any shape, is
        named alone."""
        self.verify_edited_meta(tmp_path, capsys, edit, key)


    @pytest.mark.parametrize("block,text,message", [
        (None, "[]", "invalid meta.json: the file must be an object, got []"),
        (None, "5", "invalid meta.json: the file must be an object, got 5"),
        ("events", "5", "invalid meta.json: events is 5, where the run it describes has {}"),
        ("events", '{"t": 0}',
         'invalid meta.json: events is {"t": 0}, where the run it describes has {}'),
        ("events", "[5]", "invalid meta.json: events is [5], where the run it describes has {}"),
    ], ids=["meta_array", "meta_number", "events_number", "events_object", "event_number"])
    def test_whole_file_of_wrong_type_named(self, tmp_path, capsys, block, text, message):
        """A meta.json that is not an object, or whose events block is not
        the run's, is named in one error line (exit 1), with the events the
        run has in place of ``{}``.  ``block`` None stands for the whole
        file."""
        out = tmp_path / "out"
        cfg = write_reference_config(tmp_path / "c.ini", str(out),
                                     **{"t_end = 10": "t_end = 0.1"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        if block is not None:
            meta = json.loads((out / "meta.json").read_text())
            message = message.replace("{}", json.dumps(meta[block], sort_keys=True))
            text = json.dumps({**meta, block: json.loads(text)})
        (out / "meta.json").write_text(text)
        capsys.readouterr()
        assert main(["verify", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [f"rwcosmo: error: {message}"]
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda e: e.update(t="0.5"), '"t": "0.5"}], where'),
        (lambda e: e.update(t=True), '"t": true}], where'),
        (lambda e: e.update(t=float("nan")), '"t": NaN}], where'),
        (lambda e: e.update(when=0.5), '"when": 0.5}], where'),
        (lambda e: e.update(kind=5), '"kind": 5, "t": '),
        (lambda e: e.pop("detail"), 'events is [{"kind": "FieldFrozen", "t": '),
        (lambda e: e.update(detail=5), 'events is [{"detail": 5, "kind": '),
    ], ids=["t_string", "t_boolean", "t_nan", "unknown_key", "kind_number", "no_detail",
            "detail_number"])
    def test_event_entries_checked(self, tmp_path, capsys, edit, message):
        """An entry of meta.json's events block that is not the run's event
        (a value of another type, a non-finite t, an unknown or missing key)
        is refused: one error line naming the events block and quoting the
        entry, exit 1, no report."""
        def edit_event(meta):
            assert [e["kind"] for e in meta["events"]] == ["FieldFrozen"]
            edit(meta["events"][0])

        self.verify_edited_meta(tmp_path, capsys, edit_event, message)

    @pytest.mark.parametrize("edits,code,holds", [
        pytest.param({}, EXIT_OK, lambda traj: traj.stats.steps_accepted == 14, id="paper"),
        pytest.param({"mode = paper": "mode = kg"}, EXIT_OK,
                     lambda traj: traj.config.mode == "kg", id="kg"),
        pytest.param({"branch = expanding": "branch = contracting",
                      "mode = paper": "mode = paper\noverride_admissibility = true"},
                     EXIT_INTEGRATOR, lambda traj: traj.guard_tripped,
                     id="contracting_override_guard_tripped"),
        pytest.param({"chi0 = 0.1": "chi0 = 0"}, EXIT_OK,
                     lambda traj: traj.stats.steps_accepted == 0, id="chi0_zero_no_step"),
    ])
    def test_meta_is_what_the_read_run_writes(self, tmp_path, edits, code, holds):
        """The meta.json simulate writes is, byte for byte, meta_json_text of
        the run read_trajectory rebuilds from it: the reader's one rule
        accepts every run the writer writes, a partial one included."""
        out = tmp_path / "out"
        cfg = write_reference_config(tmp_path / "run.ini", str(out), **edits)
        assert main(["simulate", str(cfg)]) == code
        traj = read_trajectory(out)
        assert holds(traj)
        csv_sha256 = hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()
        assert meta_json_text(traj, rwcosmo.__version__, csv_sha256).encode() == \
            (out / "meta.json").read_bytes()

    def test_old_format_directory_exits_1(self, tmp_path, capsys):
        """A run directory from before the events joined meta.json (a
        guard_tripped flag, no events block, and events.json beside it) exits
        1 with one line and writes no report: it must be simulated again."""
        out = tmp_path / "out"
        cfg = write_reference_config(tmp_path / "c.ini", str(out),
                                     **{"t_end = 10": "t_end = 0.1"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        meta = json.loads((out / "meta.json").read_text())
        (out / "events.json").write_text(json.dumps(meta.pop("events"), indent=2) + "\n")
        meta["guard_tripped"] = False
        (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        capsys.readouterr()
        assert main(["verify", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "rwcosmo: error: invalid meta.json: missing key 'events'"]
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("command", ["verify", "report"])
    @pytest.mark.parametrize("steps,digest,message", [
        (True, True, STRAY_STEPS),
        (True, False, "no trajectory_sha256: the run was written before meta.json held the "
                      "sha256 of trajectory.csv; simulate it again"),
        (False, False, "no trajectory_sha256: the run was written before meta.json held the "
                       "sha256 of trajectory.csv; simulate it again"),
    ], ids=["step_record", "no_digest", "neither"])
    def test_older_format_exits_1(self, tmp_path, capsys, steps, digest, message, command):
        """A run directory of the format that held a step record (a steps
        block beside the digest), that record with the digest gone, or from
        before either: one short line, exit 1, nothing written."""
        out = self.simulate_short(tmp_path)
        meta = json.loads((out / "meta.json").read_text())
        if steps:
            meta["steps"] = STEP_RECORD
        if not digest:
            del meta["trajectory_sha256"]
        (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        written = sorted(out.iterdir())
        capsys.readouterr()
        assert main([command, str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"rwcosmo: error: invalid meta.json: {message}"]
        assert sorted(out.iterdir()) == written

    @pytest.mark.parametrize("command", ["verify", "report"])
    @pytest.mark.parametrize("name", ["meta.json", "trajectory.csv"])
    def test_non_utf8_byte_exits_1(self, tmp_path, capsys, name, command):
        """A byte that is not UTF-8 in any file of a run: one error line
        naming the file, exit 1, nothing written.  trajectory.csv is not
        decoded: the byte is an edit of the file written."""
        out = self.simulate_short(tmp_path)
        with open(out / name, "ab") as f:
            f.write(b"\xff")
        if name == "trajectory.csv":
            self.assert_csv_refused(out, capsys, command)
            return
        written = sorted(out.iterdir())
        capsys.readouterr()
        assert main([command, str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"rwcosmo: error: invalid {name}: not UTF-8 text (invalid start byte)"]
        assert sorted(out.iterdir()) == written


class TestReport:
    def test_emits_summary_and_plot_data(self, ref_run):
        assert main(["report", str(ref_run)]) == EXIT_OK
        for name in ("summary.txt", "a_vs_t.dat", "H_vs_t.dat", "T00_vs_t.dat",
                     "Q_vs_t.dat", "constraint_vs_t.dat", "lnQ_vs_t.dat"):
            assert (ref_run / name).exists()
        summary = (ref_run / "summary.txt").read_text()
        assert "status: passed" in summary

    def test_unfitted_rates_and_notes_in_summary(self, tmp_path):
        """On the t_end = 0.1 reference run Q has not passed the gate: the
        summary says Q's rate is not fitted and carries verify's note."""
        out = tmp_path / "out"
        cfg = write_reference_config(tmp_path / "c.ini", str(out),
                                     **{"t_end = 10": "t_end = 0.1"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        assert main(["report", str(out)]) == EXIT_OK
        assert (out / "summary.txt").read_text().splitlines()[-3:] == [
            "rate[Q]: not fitted",
            "note: Q(t_end)/Q(0) = 0.415 has not passed the 0.001 gate; "
            "integrate further for conclusive asymptotics",
            "status: inconclusive"]

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
        """An existing sweep.csv or sweep_meta.json is kept, and the sweep
        exits 1, unless overwrite is set."""
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
        # A sidecar alone is kept too.
        csv_path.unlink()
        meta_path = csv_path.parent / "sweep_meta.json"
        meta_path.write_bytes(b"earlier sidecar\n")
        assert main(["sweep", str(plan)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"rwcosmo: error: refusing to overwrite {meta_path}; set overwrite"]
        assert meta_path.read_bytes() == b"earlier sidecar\n"
        assert sorted(csv_path.parent.iterdir()) == [meta_path]

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

    @pytest.mark.parametrize("line", ["workers = two"])
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
        return field.default * 3.0
    if field.type == "bool":
        return not field.default
    return {"mode": "kg"}[field.name]


#: Keys a section no longer takes: solve_rho0 (implied by u0) and the run
#: limits that became module constants.
REMOVED_KEYS = {
    "initial": ("solve_rho0",),
    "integrator": ("h_init", "h_min", "h_max", "max_abs_u", "max_abs_phi", "min_v"),
    "sweep": ("cap",),
}


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

    @pytest.mark.parametrize("section,key", [(section, key) for section in ("integrator", "sweep")
                                             for key in REMOVED_KEYS[section]])
    def test_removed_key_exits_1(self, tmp_path, capsys, section, key):
        """A step bound, guard or row cap, now a module constant, is an
        unknown key: one error line, exit 1, nothing written."""
        out = tmp_path / "out"
        if section == "integrator":
            path = write_reference_config(tmp_path / "run.ini", str(out),
                                          **{"mode = paper": f"mode = paper\n{key} = 1"})
            argv = ["simulate", str(path)]
        else:
            path = tmp_path / "plan.ini"
            path.write_text(TestSweepCommand.PLAN.format(values="1", out=out)
                            .replace("workers = 1", f"workers = 1\n{key} = 1"))
            argv = ["sweep", str(path)]
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"rwcosmo: error: unknown key(s) in [{section}]: {key}"]
        assert not out.exists()

    def test_readme_examples_parse(self, tmp_path):
        readme = README.read_text()
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

    def test_readme_names_every_exit_code(self):
        """README's exit-code sentence names exactly cli's EXIT_* codes, 0 to 5."""
        sentence = README.read_text().split("\nExit codes: ")[1].split("\n\n")[0]
        codes = {v for k, v in vars(rwcosmo.cli).items() if k.startswith("EXIT_")}
        assert [int(c) for c in re.findall(r"`(\d+)`", sentence)] == sorted(codes) == \
            list(range(6))

    def test_readme_run_limits_are_the_modules(self):
        """Each constant README gives a value for (`H_MIN` = 1e-14, `MAX_ROWS`
        = 100,000, ...) has that value in rwcosmo.integrator or
        rwcosmo.sweep, and every other upper-case name README quotes is one
        of theirs too, or an environment variable."""
        text = README.read_text()
        modules = {**vars(rwcosmo.sweep), **vars(rwcosmo.integrator)}
        constant = r"`(?:rwcosmo\.\w+\.)?([A-Z][A-Z0-9]*_[A-Z0-9_]+)`"
        given = re.findall(constant + r"\s+=\s+([\d.,e+-]*\d)", text)
        assert {name for name, _ in given} == {"H_INIT", "H_MIN", "H_MAX", "MAX_STEPS",
                                               "MAX_ABS_U", "MIN_V", "MAX_SAMPLES", "MAX_ROWS"}
        for name, value in given:
            assert modules.get(name) == float(value.replace(",", "")), name
        quoted = set(re.findall(constant, text))
        environment = {rwcosmo.cli.ENV_OUTPUT_ROOT, "OPENBLAS_CORETYPE"}
        assert quoted - environment <= modules.keys()

    def test_readme_names_every_sweep_status(self):
        """README's Sweep plan section lists exactly the STATUS_* values of
        rwcosmo.sweep as a row's status, and names no other hyphenated status."""
        section = README.read_text().split("\n### Sweep plan\n")[1].split("\n## ")[0]
        listed = re.search(r"A row's `status` is one of (.*?)\.", section, re.S).group(1)
        statuses = {v for k, v in vars(rwcosmo.sweep).items() if k.startswith("STATUS_")}
        named = re.findall(r"`([a-z-]+)`", listed)
        assert len(named) == len(statuses) and set(named) == statuses
        assert set(re.findall(r"`([a-z]+(?:-[a-z]+)+)`", section)) <= statuses


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
#: Keys the fuzz draws in each section, the removed ones included.
FUZZ_KEYS = {
    "model": ("lambda", "mass"),
    "initial": ("a0", "phi0", "chi0", "rho0", "branch", "u0") + REMOVED_KEYS["initial"],
    "integrator": tuple(f.name for f in fields(IntegratorConfig)) + REMOVED_KEYS["integrator"],
    "output": ("directory", "overwrite"),
    "axes": SWEEP_PARAMS,
    "fixed": SWEEP_PARAMS + ("a0", "branch"),
    "sweep": ("workers",) + REMOVED_KEYS["sweep"],
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
    1e4 are dropped, as writing up to MAX_SAMPLES rows takes seconds; a sweep
    keeps ``workers = 1``, so no process pool starts.  Shrinking is skipped: the
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

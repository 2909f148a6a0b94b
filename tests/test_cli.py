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
from rwcosmo.serialize import read_trajectory, trajectory_csv_text
from rwcosmo.sweep import SWEEP_PARAMS

from conftest import write_reference_config

TRAJECTORY_HEADER = "t,u,v,a,phi,chi,psi,rho,H,T00,Q,constraint"
#: sha256 of the reference run's trajectory.csv.  The float stepper makes it
#: the same on every BLAS kernel.
REFERENCE_TRAJECTORY_SHA256 = (
    "4394b5f70ce3c19ddbb835061dac33696b1dbb59d1101df35a3300736a90b567")


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
        assert float(row1["psi"]) == cols["psi"][0]

    def test_reference_counters_and_csv_round_trip(self, ref_run, ref_trajectory):
        """Pinned step counters and trajectory.csv bytes of the reference run;
        reading trajectory.csv back and writing it again reproduces its bytes.

        11,738 RHS evaluations = 6 per step, the first stage, and one more
        after the FieldFrozen restart."""
        st = ref_trajectory.stats
        assert (st.steps_accepted, st.steps_rejected, st.rhs_evaluations) == (1956, 0, 11738)
        assert len(ref_trajectory.t) == 1001
        text = (ref_run / "trajectory.csv").read_text()
        assert sha256(text) == REFERENCE_TRAJECTORY_SHA256
        for written in (trajectory_csv_text(read_trajectory(ref_run)),
                        trajectory_csv_text(ref_trajectory)):
            assert sha256(written) == sha256(text), first_difference(written, text)

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

    def test_output_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RWCOSMO_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg = write_reference_config(tmp_path / "run.ini", "rel_out",
                                     **{"t_end = 10": "t_end = 0.1"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        assert (tmp_path / "root" / "rel_out" / "trajectory.csv").exists()


class TestPortableBytes:
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


class TestVerify:
    def test_reference_exit_zero_and_schema(self, ref_run):
        assert main(["verify", str(ref_run)]) == EXIT_OK
        report = json.loads((ref_run / "report.json").read_text())
        for key in ("nu", "checks", "fitted_rates", "L_hat", "H_inf_hat",
                    "C0_hat", "status"):
            assert key in report
        assert report["status"] == "passed"
        assert set(report["fitted_rates"]) == {"Q", "rho", "chi2"}
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
    ])
    def test_invalid_state_value_exits_1(self, tmp_path, column, value):
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


class TestReport:
    def test_emits_summary_and_plot_data(self, ref_run):
        assert main(["report", str(ref_run)]) == EXIT_OK
        for name in ("summary.txt", "H_vs_t.dat", "T00_vs_t.dat", "Q_vs_t.dat",
                     "constraint_vs_t.dat", "lnQ_vs_t.dat"):
            assert (ref_run / name).exists()
        summary = (ref_run / "summary.txt").read_text()
        assert "status: passed" in summary

    def test_lnq_slope_matches_fitted_rate(self, ref_run):
        assert main(["verify", str(ref_run)]) == EXIT_OK
        assert main(["report", str(ref_run)]) == EXIT_OK
        report = json.loads((ref_run / "report.json").read_text())
        data = np.loadtxt(ref_run / "lnQ_vs_t.dat")
        slope = np.polyfit(data[:, 0], data[:, 1], 1)[0]
        assert slope == pytest.approx(-report["fitted_rates"]["Q"], rel=1e-9)

    def test_plot_data_matches_trajectory_columns(self, ref_run):
        assert main(["verify", str(ref_run)]) == EXIT_OK
        assert main(["report", str(ref_run)]) == EXIT_OK
        cols = read_trajectory(ref_run).as_arrays()
        for name in ("H", "T00", "Q", "constraint"):
            data = np.loadtxt(ref_run / f"{name}_vs_t.dat")
            assert np.array_equal(data[:, 0], cols["t"])
            assert np.array_equal(data[:, 1], cols[name])
        window = json.loads((ref_run / "report.json").read_text())["fit_windows"]["Q"]
        t, q = cols["t"], cols["Q"]
        mask = (t >= window["t_lo"]) & (t <= window["t_hi"])
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

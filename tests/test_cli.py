"""CLI contract: exit codes, file formats, round trips, determinism."""

import csv
import hashlib
import io
import json

import numpy as np
import pytest

from rwcosmo.cli import (EXIT_CONFIG, EXIT_INADMISSIBLE, EXIT_INCONCLUSIVE,
                         EXIT_INTEGRATOR, EXIT_OK, EXIT_VERIFY_FAILED, main)
from rwcosmo.serialize import read_trajectory, trajectory_csv_text

from conftest import write_reference_config

TRAJECTORY_HEADER = "t,u,v,a,phi,chi,psi,rho,H,T00,Q,constraint"


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
        """Pinned step counters of the reference run; reading trajectory.csv
        back and writing it again reproduces its bytes."""
        st = ref_trajectory.stats
        assert (st.steps_accepted, st.steps_rejected, st.rhs_evaluations) == (1956, 0, 13692)
        assert len(ref_trajectory.t) == 1001
        text = (ref_run / "trajectory.csv").read_text()
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
solve_rho0 = true

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

    def test_u0_without_solve_rho0_rejected(self, tmp_path):
        cfg = write_reference_config(
            tmp_path / "u0.ini", str(tmp_path / "out"),
            **{"branch = expanding": "u0 = 2.0"})
        assert main(["simulate", str(cfg)]) == EXIT_CONFIG

    def test_output_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RWCOSMO_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg = write_reference_config(tmp_path / "run.ini", "rel_out",
                                     **{"t_end = 10": "t_end = 0.1"})
        assert main(["simulate", str(cfg)]) == EXIT_OK
        assert (tmp_path / "root" / "rel_out" / "trajectory.csv").exists()


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

"""Grid runner: determinism, ordering, admissibility flagging."""

import concurrent.futures
import math
import os
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from rwcosmo import (ModelParams, SweepPlan, integrate, make_initial_data,
                     run_sweep, sweep_table_csv, verify)
from rwcosmo.sweep import (STATUS_GUARD_TRIPPED, STATUS_INVALID_DATA,
                           STATUS_NO_REAL_BRANCH, STATUS_OK, STATUS_SKIPPED,
                           STATUS_STEP_UNDERFLOW, SWEEP_COLUMNS, SweepRow)

from conftest import REF_CONFIG

FAST = replace(REF_CONFIG, t_end=2.0)


def plan_for(axes, fixed, **kwargs):
    kwargs.setdefault("integrator", FAST)
    kwargs.setdefault("workers", 1)
    return SweepPlan(axes=axes, fixed=fixed, **kwargs)


class TestPlanValidation:
    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError, match="unassigned"):
            SweepPlan(axes=(("lambda", (1.0,)),), fixed=(("mass", 1.0),))

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(ValueError, match="both swept and fixed"):
            SweepPlan(axes=(("lambda", (1.0,)),),
                      fixed=(("lambda", 1.0), ("mass", 1.0), ("phi0", 1.0),
                             ("chi0", 0.0), ("rho0", 0.0)))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SweepPlan(axes=(("lambda", ()),),
                      fixed=(("mass", 1.0), ("phi0", 1.0), ("chi0", 0.0),
                             ("rho0", 0.0)))

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            SweepPlan(axes=(("lambda", tuple(float(i) for i in range(10))),
                            ("rho0", tuple(float(i) for i in range(10)))),
                      fixed=(("mass", 1.0), ("phi0", 1.0), ("chi0", 0.0)),
                      cap=50)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            SweepPlan(axes=(("a1", (1.0,)),),
                      fixed=(("lambda", 1.0), ("mass", 1.0), ("phi0", 1.0),
                             ("chi0", 0.0), ("rho0", 0.0)))

    @pytest.mark.parametrize("name,value", [
        ("mass", -1.0), ("chi0", -0.1), ("rho0", -1.0), ("phi0", math.nan),
        ("lambda", math.inf),
    ])
    def test_out_of_range_value_rejected(self, name, value):
        fixed = {"lambda": 1.0, "mass": 1.0, "phi0": 1.0, "chi0": 0.1, "rho0": 0.05}
        del fixed[name]
        with pytest.raises(ValueError, match=name):
            SweepPlan(axes=((name, (1.0, value)),), fixed=tuple(fixed.items()))

    @pytest.mark.parametrize("a0", [0.0, -1.0, math.nan])
    def test_bad_a0_rejected(self, a0):
        with pytest.raises(ValueError, match="a0"):
            SweepPlan(axes=(("lambda", (1.0,)),),
                      fixed=(("mass", 1.0), ("phi0", 1.0), ("chi0", 0.0),
                             ("rho0", 0.0)), a0=a0)


    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            plan_for((("lambda", (1.0,)),),
                     (("mass", 1.0), ("phi0", 1.0), ("chi0", 0.0), ("rho0", 0.0)),
                     workers=workers)


class TestRunSweep:
    def test_degenerate_grid_matches_direct_run(self):
        """A 1x1 grid reproduces a direct simulate+verify bit for bit."""
        plan = plan_for((("lambda", (1.0,)),),
                        (("mass", 1.0), ("phi0", 1.0), ("chi0", 0.1), ("rho0", 0.05)))
        row = run_sweep(plan)[0]
        params = ModelParams(lam=1.0, mass=1.0)
        data = make_initial_data(params, 1.0, 1.0, 0.1, 0.05, "expanding")
        traj = integrate(data, params, FAST)
        report = verify(traj)
        assert row.status == "ok"
        assert row.nu == report.nu
        assert row.L_hat == report.L_hat
        assert row.H_inf_hat == report.H_inf_hat
        assert row.C0_hat == report.C0_hat
        cols = traj.as_arrays()
        assert row.max_constraint == float(np.abs(cols["constraint"]).max())

    def test_lambda_threshold_straddle(self):
        """Rows below lam = -4 pi m^2 phi0^2 ~ -12.566 come back inadmissible."""
        axes = (("lambda", (-14.0, -13.0, -12.0, 0.0, 1.0)),)
        fixed = (("mass", 1.0), ("phi0", 1.0), ("chi0", 0.0), ("rho0", 0.0))
        rows = run_sweep(plan_for(axes, fixed))
        threshold = -4.0 * math.pi
        for row in rows:
            if row.lam < threshold:
                assert not row.admissible
                assert row.status == "no-real-branch"
                assert math.isnan(row.nu)
            else:
                assert row.admissible
                assert row.status == "ok"

    def test_nu_strictly_increasing_along_lambda(self):
        axes = (("lambda", (0.0, 0.5, 1.0, 2.0, 4.0)),)
        fixed = (("mass", 1.0), ("phi0", 1.0), ("chi0", 0.1), ("rho0", 0.05))
        rows = run_sweep(plan_for(axes, fixed))
        nus = [r.nu for r in rows]
        assert all(b > a for a, b in zip(nus, nus[1:]))
        for r in rows:
            assert r.nu == pytest.approx(
                math.sqrt((r.lam + 4.0 * math.pi) / 3.0), rel=1e-14)

    def test_row_order_is_row_major(self):
        axes = (("lambda", (0.0, 1.0)), ("rho0", (0.0, 0.05, 0.1)))
        fixed = (("mass", 1.0), ("phi0", 1.0), ("chi0", 0.1))
        rows = run_sweep(plan_for(axes, fixed))
        combos = [(r.lam, r.rho0) for r in rows]
        assert combos == [(0.0, 0.0), (0.0, 0.05), (0.0, 0.1),
                          (1.0, 0.0), (1.0, 0.05), (1.0, 0.1)]

    def test_permuting_axes_permutes_rows_not_contents(self):
        axes_a = (("lambda", (0.0, 1.0)), ("rho0", (0.0, 0.05)))
        axes_b = (("rho0", (0.0, 0.05)), ("lambda", (0.0, 1.0)))
        fixed = (("mass", 1.0), ("phi0", 1.0), ("chi0", 0.1))
        rows_a = run_sweep(plan_for(axes_a, fixed))
        rows_b = run_sweep(plan_for(axes_b, fixed))
        key = lambda r: (r.lam, r.rho0)
        by_key_a = {key(r): r for r in rows_a}
        by_key_b = {key(r): r for r in rows_b}
        assert sorted(by_key_a) == sorted(by_key_b)
        for k in by_key_a:
            a, b = by_key_a[k], by_key_b[k]
            assert (a.nu, a.L_hat, a.H_inf_hat, a.rate_Q, a.checks_passed) == \
                   (b.nu, b.L_hat, b.H_inf_hat, b.rate_Q, b.checks_passed)

    def test_guard_tripped_rows_flagged_under_override(self):
        axes = (("lambda", (1.0,)),)
        fixed = (("mass", 1.0), ("phi0", 1.0), ("chi0", 0.1), ("rho0", 0.05))
        cfg = replace(FAST, override_admissibility=True)
        plan = SweepPlan(axes=axes, fixed=fixed, branch="contracting",
                         integrator=cfg, workers=1)
        rows = run_sweep(plan)
        assert rows[0].status == "guard-tripped"
        assert not rows[0].admissible
        assert "GuardTripped" in rows[0].events

    def test_skipped_rows_without_override(self):
        axes = (("lambda", (1.0,)),)
        fixed = (("mass", 1.0), ("phi0", 1.0), ("chi0", 0.1), ("rho0", 0.05))
        plan = SweepPlan(axes=axes, fixed=fixed, branch="contracting",
                         integrator=FAST, workers=1)
        rows = run_sweep(plan)
        assert rows[0].status == "skipped"
        assert not rows[0].admissible


class TestDeterminism:
    AXES = (("lambda", (0.5, 1.0, 2.0)), ("rho0", (0.0, 0.05, 0.1)))
    FIXED = (("mass", 1.0), ("phi0", 1.0), ("chi0", 0.1))

    def test_serial_rerun_identical_bytes(self):
        rows1 = run_sweep(plan_for(self.AXES, self.FIXED))
        rows2 = run_sweep(plan_for(self.AXES, self.FIXED))
        assert sweep_table_csv(rows1) == sweep_table_csv(rows2)

    def test_parallel_matches_serial_bytes(self):
        serial = run_sweep(plan_for(self.AXES, self.FIXED, workers=1))
        parallel = run_sweep(plan_for(self.AXES, self.FIXED, workers=2))
        assert sweep_table_csv(serial) == sweep_table_csv(parallel)

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        """workers = 5000 on a 64-row plan asks for one worker per CPU.  A
        stand-in pool records its width and runs nothing, so no process
        starts."""
        widths = []

        class RecordingPool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return []

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        plan = plan_for((("lambda", tuple(float(i) for i in range(64))),),
                        (("mass", 1.0), ("phi0", 1.0), ("chi0", 0.1), ("rho0", 0.05)),
                        workers=5000)
        assert run_sweep(plan) == []
        assert widths == [3]

    def test_17_digit_serialization_round_trips(self):
        rows = run_sweep(plan_for((("lambda", (1.0, -60.0)),),
                                  (("mass", 1.0), ("phi0", 1.0),
                                   ("chi0", 0.1), ("rho0", 0.05))))
        text = sweep_table_csv(rows)
        header, line, flagged = text.strip().split("\n")
        values = dict(zip(header.split(","), line.split(",")))
        assert float(values["nu"]) == rows[0].nu
        assert float(values["L_hat"]) == rows[0].L_hat
        assert values["checks_passed"] in ("true", "false")
        values = dict(zip(header.split(","), flagged.split(",")))
        assert values["status"] == "no-real-branch"
        assert values["admissible"] == values["checks_passed"] == "false"
        for name in ("nu", "rate_Q", "L_hat", "max_constraint"):
            assert values[name] == "nan"
        assert values["events"] == ""

    def test_row_fields_match_columns(self):
        names = [f.name for f in fields(SweepRow)][:len(SWEEP_COLUMNS)]
        assert ["lambda" if n == "lam" else n for n in names] == list(SWEEP_COLUMNS)


SHORT = replace(REF_CONFIG, t_end=0.05, rel_tol=1e-6, abs_tol=1e-6)
STATUSES = {STATUS_OK, STATUS_SKIPPED, STATUS_NO_REAL_BRANCH, STATUS_INVALID_DATA,
            STATUS_GUARD_TRIPPED, STATUS_STEP_UNDERFLOW}
FINITE = st.floats(-1e300, 1e300)
NONNEGATIVE = st.floats(0.0, 1e300)


class TestSweepProperties:
    # mass is bounded because integrate has no step budget: a large mass makes
    # the field oscillate for as many steps as t_end allows.  Shrinking is
    # skipped: on a failing sweep it ran for minutes, and the derandomized
    # first counterexample already reproduces.
    @pytest.mark.filterwarnings("ignore:initial expansion rate u0 is exactly zero")
    @settings(phases=[Phase.explicit, Phase.generate])
    @given(lam=st.lists(FINITE, min_size=1, max_size=2),
           phi0=st.lists(FINITE, min_size=1, max_size=2),
           mass=st.floats(0.0, 10.0), chi0=NONNEGATIVE, rho0=NONNEGATIVE,
           branch=st.sampled_from(["expanding", "contracting"]),
           override=st.booleans())
    def test_accepted_plan_never_raises(self, lam, phi0, mass, chi0, rho0,
                                        branch, override):
        plan = SweepPlan(axes=(("lambda", tuple(lam)), ("phi0", tuple(phi0))),
                         fixed=(("mass", mass), ("chi0", chi0), ("rho0", rho0)),
                         branch=branch, workers=1,
                         integrator=replace(SHORT, override_admissibility=override))
        rows = run_sweep(plan)
        assert [(r.lam, r.phi0) for r in rows] == \
               [(p["lambda"], p["phi0"]) for p in plan.points()]
        assert {r.status for r in rows} <= STATUSES

    def test_numpy_scalar_values_run_as_floats(self):
        """Plan values given as numpy scalars (a float subclass) reach the
        stepper as Python floats: a far-out point overflows without a warning
        and every row equals the one from Python floats."""
        def plan(conv):
            return SweepPlan(axes=(("lambda", (conv(4.4e196), conv(1.0))),
                                   ("rho0", (conv(5.7e299), conv(0.05)))),
                             fixed=(("mass", conv(1.0)), ("chi0", conv(0.1)), ("phi0", conv(1.0))),
                             branch="contracting", workers=1,
                             integrator=replace(SHORT, override_admissibility=True,
                                                t_end=np.float64(0.05)))
        as_numpy, as_float = run_sweep(plan(np.float64)), run_sweep(plan(float))
        assert [r.status for r in as_float] == [STATUS_STEP_UNDERFLOW] * 3 + [STATUS_OK]
        assert sweep_table_csv(as_numpy) == sweep_table_csv(as_float)

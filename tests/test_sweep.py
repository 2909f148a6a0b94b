"""Grid runner: determinism, ordering, admissibility flagging."""

import concurrent.futures
import contextlib
import hashlib
import io
import math
import os
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from rwcosmo import (IntegratorConfig, ModelParams, SweepPlan, fit_decay_rate, integrate,
                     integrator, make_initial_data, nu_rate, run_sweep, sweep_table_csv,
                     verify)
from rwcosmo.cli import main, parse_sweep_plan
from rwcosmo.integrator import (_TINY, FIELD_FROZEN, GUARD_TRIPPED, Event, frozen_tail,
                                sample_times)
from rwcosmo.serialize import read_trajectory
from rwcosmo.sweep import (STATUS_GUARD_TRIPPED, STATUS_INVALID_DATA,
                           STATUS_NO_REAL_BRANCH, STATUS_OK, STATUS_SKIPPED,
                           SWEEP_COLUMNS, MAX_ROWS, POOL_MIN_ROWS, SweepRow)

from conftest import REF_CONFIG, write_reference_config

FAST = replace(REF_CONFIG, t_end=2.0)
ROOT = Path(__file__).resolve().parents[1]


def step_error_bound(full):
    """Bound, in units of one step's error weight, on how far a run stepped
    through its frozen phase can sit from the exact solution.  An accepted step's
    weighted RMS error over its five terms (the four components and the
    density's, twice v's) is at most 1, so each component's local error is
    at most sqrt(5) weights (rel_tol*|y| + abs_tol on u, rel_tol*|y| + _TINY
    on v); on the contracting frozen system the local errors add up at most
    linearly."""
    return math.sqrt(5.0) * full.stats.steps_accepted


def assert_tail_agrees(full, joined):
    """``joined`` (integrate, with the exact tail) against ``full`` (the
    same run stepped through its frozen phase): t, events, phi, chi and
    every sample up to the freeze bit for bit; u and v (and with v the
    density) within the step error bound."""
    assert full.t.tobytes() == joined.t.tobytes()
    assert full.events == joined.events
    a, b = full.states, joined.states
    assert a[:, 2:4].tobytes() == b[:, 2:4].tobytes()
    frozen_at = [e.t for e in full.events if e.kind == FIELD_FROZEN]
    head = full.t <= frozen_at[0] if frozen_at else np.ones(full.t.size, bool)
    assert a[head].tobytes() == b[head].tobytes()
    n, cfg = step_error_bound(full), full.config
    assert np.all(np.abs(b[:, 0] - a[:, 0]) <= n * (cfg.rel_tol * np.abs(a[:, 0]) + cfg.abs_tol))
    assert np.all(np.abs(b[:, 1] - a[:, 1]) <= n * (cfg.rel_tol * a[:, 1] + _TINY))


def full_and_joined(stepped, config, lam=1.0, mass=1.0, phi0=1.0, chi0=0.1, rho0=0.05):
    """The run stepped through its frozen phase, and integrate's run."""
    params = ModelParams(lam=lam, mass=mass)
    data = make_initial_data(params, 1.0, phi0, chi0, rho0, "expanding")
    with stepped():
        full = integrate(data, params, config)
    return full, integrate(data, params, config)


def one_row_plan(params, data, config):
    """A one-row sweep of the point (params, data) under ``config``."""
    return SweepPlan(axes=(("lambda", (params.lam,)),),
                     fixed=(("mass", params.mass), ("phi0", data.phi0), ("chi0", data.chi0),
                            ("rho0", data.rho0)), integrator=config, workers=1)


def record_trial_steps(monkeypatch):
    """The argument tuples of every integrator._trial_step call from here on;
    each ends in the step's ``frozen`` flag."""
    calls = []
    trial_step = integrator._trial_step

    def counted(*args):
        calls.append(args)
        return trial_step(*args)

    monkeypatch.setattr(integrator, "_trial_step", counted)
    return calls


def plan_for(axes, fixed, **kwargs):
    kwargs.setdefault("integrator", FAST)
    kwargs.setdefault("workers", 1)
    return SweepPlan(axes=axes, fixed=fixed, **kwargs)


class TestPlanValidation:
    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError, match="unassigned"):
            SweepPlan(axes=(("lambda", (1.0,)),), fixed=(("mass", 1.0),))

    def test_duplicate_parameter_rejected(self):
        """A name both swept and fixed, swept twice (the second axis would
        overwrite the first in every row) or fixed twice."""
        with pytest.raises(ValueError, match="both swept and fixed"):
            SweepPlan(axes=(("lambda", (1.0,)),),
                      fixed=(("lambda", 1.0), ("mass", 1.0), ("phi0", 1.0),
                             ("chi0", 0.0), ("rho0", 0.0)))
        with pytest.raises(ValueError, match="swept more than once: lambda"):
            SweepPlan(axes=(("lambda", (1.0, 2.0)), ("lambda", (3.0,))),
                      fixed=(("mass", 1.0), ("phi0", 1.0), ("chi0", 0.0), ("rho0", 0.0)))
        with pytest.raises(ValueError, match="fixed more than once: mass"):
            SweepPlan(axes=(("lambda", (1.0,)),),
                      fixed=(("mass", 1.0), ("mass", 2.0), ("phi0", 1.0),
                             ("chi0", 0.0), ("rho0", 0.0)))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SweepPlan(axes=(("lambda", ()),),
                      fixed=(("mass", 1.0), ("phi0", 1.0), ("chi0", 0.0),
                             ("rho0", 0.0)))

    def test_cap_enforced(self):
        """A plan of MAX_ROWS rows builds and one of MAX_ROWS + 1 is refused;
        neither is run."""
        fixed = (("lambda", 1.0), ("mass", 1.0), ("phi0", 1.0), ("chi0", 0.0))
        rho0s = tuple(map(float, range(MAX_ROWS + 1)))
        assert SweepPlan(axes=(("rho0", rho0s[:-1]),), fixed=fixed).size == MAX_ROWS
        with pytest.raises(ValueError, match=f"grid size {MAX_ROWS + 1} exceeds MAX_ROWS"):
            SweepPlan(axes=(("rho0", rho0s),), fixed=fixed)

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

    def test_bad_branch_rejected(self):
        with pytest.raises(ValueError, match="branch must be 'expanding' or 'contracting', "
                                             "got 'sideways'"):
            plan_for((("lambda", (1.0,)),),
                     (("mass", 1.0), ("phi0", 1.0), ("chi0", 0.0), ("rho0", 0.0)),
                     branch="sideways")

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            plan_for((("lambda", (1.0,)),),
                     (("mass", 1.0), ("phi0", 1.0), ("chi0", 0.0), ("rho0", 0.0)),
                     workers=workers)

    @pytest.mark.parametrize("workers", [2.5, 2.0, True, "2"],
                             ids=["fraction", "float", "bool", "string"])
    def test_workers_not_an_integer_rejected(self, workers):
        """Checked with the plan: a float would fail only inside run_sweep,
        and True would run as 1."""
        with pytest.raises(ValueError, match=rf"workers = {workers!r} must be an integer >= 1"):
            plan_for((("lambda", (1.0,)),),
                     (("mass", 1.0), ("phi0", 1.0), ("chi0", 0.0), ("rho0", 0.0)),
                     workers=workers)


class TestRunSweep:
    def test_degenerate_grid_matches_direct_run(self, stepped):
        """A 1x1 grid reproduces verify of integrate bit for bit, and verify
        of the run stepped through its frozen phase within the integration
        error: nu, L_hat, C0_hat, the verdict and the events equal,
        H_inf_hat = 3u within the bound on u."""
        plan = plan_for((("lambda", (1.0,)),),
                        (("mass", 1.0), ("phi0", 1.0), ("chi0", 0.1), ("rho0", 0.05)))
        row = run_sweep(plan)[0]
        params = ModelParams(lam=1.0, mass=1.0)
        data = make_initial_data(params, 1.0, 1.0, 0.1, 0.05, "expanding")
        joined = integrate(data, params, FAST)
        report = verify(joined)
        rates = {f"rate_{k}": (fit.rate if fit is not None else math.nan)
                 for k, fit in report.fits.items()}
        assert row.status == "ok"
        assert (row.nu, row.L_hat, row.H_inf_hat, row.C0_hat, row.verdict) == \
               (report.nu, report.L_hat, report.H_inf_hat, report.C0_hat, report.status)
        assert [float(getattr(row, k)).hex() for k in rates] == \
               [float(v).hex() for v in rates.values()]
        assert row.max_constraint == float(np.abs(joined.as_arrays()["constraint"]).max())

        with stepped():
            full = integrate(data, params, FAST)
        direct = verify(full)
        assert_tail_agrees(full, joined)
        assert (row.nu, row.L_hat, row.C0_hat, row.verdict) == \
               (direct.nu, direct.L_hat, direct.C0_hat, direct.status)
        assert row.events == ";".join(f"{e.kind}@{e.t:.9g}" for e in full.events)
        u_bound = step_error_bound(full) * (FAST.rel_tol * full.states[-1, 0] + FAST.abs_tol)
        assert abs(row.H_inf_hat - direct.H_inf_hat) <= 3.0 * u_bound
        # The tail is on shell: it adds roundoff only to the drift.
        assert row.max_constraint <= float(np.abs(full.as_arrays()["constraint"]).max())

    def test_one_run_for_every_caller(self, tmp_path):
        """A 1x1 plan at the reference point and ``rwcosmo simulate`` on the
        same point run the same integrate: the row equals verify of the
        trajectory simulate wrote, read back, bit for bit."""
        plan = plan_for((("lambda", (1.0,)),),
                        (("mass", 1.0), ("phi0", 1.0), ("chi0", 0.1), ("rho0", 0.05)),
                        integrator=REF_CONFIG)
        row = run_sweep(plan)[0]
        cfg = write_reference_config(tmp_path / "run.ini", str(tmp_path / "out"))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", str(cfg)]) == 0
        traj = read_trajectory(tmp_path / "out")
        report = verify(traj)
        assert [float(getattr(row, f"rate_{k}")).hex() for k in report.fits] == \
               [fit.rate.hex() for fit in report.fits.values()]
        assert (row.L_hat, row.H_inf_hat, row.C0_hat, row.verdict) == \
               (report.L_hat, report.H_inf_hat, report.C0_hat, report.status)
        assert row.max_constraint == float(np.abs(traj.as_arrays()["constraint"]).max())
        assert row.verdict == "passed"

    def test_verdict_tells_inconclusive_from_passed(self):
        """rho0 = 0 leaves Q at its floor: verify says inconclusive, and so
        does the row's verdict, while rho0 = 0.05 reads passed."""
        plan = plan_for((("rho0", (0.0, 0.05)),),
                        (("lambda", 1.0), ("mass", 1.0), ("phi0", 1.0), ("chi0", 0.1)),
                        integrator=REF_CONFIG)
        rows = run_sweep(plan)
        assert [r.verdict for r in rows] == ["inconclusive", "passed"]
        params = ModelParams(lam=1.0, mass=1.0)
        data = make_initial_data(params, 1.0, 1.0, 0.1, 0.0, "expanding")
        assert verify(integrate(data, params, REF_CONFIG)).status == "inconclusive"

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
            assert (a.nu, a.L_hat, a.H_inf_hat, a.rate_Q, a.verdict) == \
                   (b.nu, b.L_hat, b.H_inf_hat, b.rate_Q, b.verdict)

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


#: The 16-row sweep_grid plan of the benchmark (default seed): four rows
#: without a real branch, twelve paper-mode rows that freeze.
GRID_PLAN = SweepPlan(axes=(("lambda", (-60.0, -1.0, 1.0, 3.0)), ("mass", (0.5, 2.0)),
                            ("chi0", (0.0, 0.3))),
                      fixed=(("phi0", 1.0), ("rho0", 0.05)),
                      integrator=IntegratorConfig(), workers=1)
GRID_SHA256 = "4b37cecd3c7321ec6a8a5d2d0613b26c34ccedaa7dd75cd1304a32011cffeb0f"


class TestExactTail:
    def test_grid_table_pinned(self):
        """The sweep_grid table's bytes, exact tails included."""
        assert hashlib.sha256(sweep_table_csv(run_sweep(GRID_PLAN)).encode()).hexdigest() \
            == GRID_SHA256

    def test_grid_rows_keep_status_events_verdict(self, stepped):
        """Every sweep_grid row keeps the status, events and verdict of the
        row stepped through its frozen phase; the 12 rows with a real branch
        freeze."""
        rows = run_sweep(GRID_PLAN)
        with stepped():
            full = run_sweep(GRID_PLAN)
        assert [(r.status, r.events, r.verdict) for r in rows] == \
               [(r.status, r.events, r.verdict) for r in full]
        assert sum(FIELD_FROZEN in r.events for r in rows) == 12

    def test_on_shell_q_fit_clear_of_roundoff(self):
        """On the six chi0 = 0 rows the field is frozen from t = 0, so the
        whole run is the closed form and on shell Q = 24*pi*rho.  Q's fit
        window stops above Q's own roundoff: rate_Q meets the decay rate of
        rho fitted over the same window within 2e-6 (windowed by the
        constraint drift alone, it missed by 1.3e-5 to 7.8e-5)."""
        rows = [r for r in run_sweep(GRID_PLAN) if r.status == STATUS_OK and r.chi0 == 0.0]
        assert len(rows) == 6
        for r in rows:
            params = ModelParams(lam=r.lam, mass=r.mass)
            data = make_initial_data(params, 1.0, r.phi0, r.chi0, r.rho0, "expanding")
            traj = integrate(data, params, GRID_PLAN.integrator)
            fit = verify(traj).fits["Q"]
            cols = traj.as_arrays()
            window = (cols["t"] >= fit.t_lo) & (cols["t"] <= fit.t_hi)
            rate_rho = fit_decay_rate(cols["t"][window], cols["rho"][window]).rate
            assert fit.rate == r.rate_Q
            assert abs(r.rate_Q - rate_rho) <= 2e-6 * rate_rho, (r.lam, r.mass)

    @pytest.mark.parametrize("point", GRID_PLAN.points()[4:],
                             ids=lambda p: "{lambda}-{mass}-{chi0}".format(**p))
    def test_grid_points_agree_with_integrate(self, point, stepped):
        full, joined = full_and_joined(stepped, GRID_PLAN.integrator, lam=point["lambda"],
                                       mass=point["mass"], phi0=point["phi0"],
                                       chi0=point["chi0"], rho0=point["rho0"])
        assert_tail_agrees(full, joined)

    @pytest.mark.parametrize("chi0,rho0", [(0.1, 0.05), (0.0, 0.05), (0.1, 0.0), (0.0, 0.0)],
                             ids=["reference", "chi0_zero", "rho0_zero", "both_zero"])
    def test_reference_point_agrees_with_integrate(self, chi0, rho0, stepped):
        """The reference run (t_end = 10), frozen at t = 0 when chi0 = 0, and
        with u = u_inf in the tail when rho0 = 0."""
        full, joined = full_and_joined(stepped, REF_CONFIG, chi0=chi0, rho0=rho0)
        assert_tail_agrees(full, joined)
        assert full.events[0].kind == FIELD_FROZEN
        assert (full.events[0].t == 0.0) == (chi0 == 0.0)
        assert joined.stats.steps_accepted < full.stats.steps_accepted / 10

    @settings(max_examples=40)
    @given(lam=st.floats(-5.0, 5.0), mass=st.floats(0.05, 3.0), phi0=st.floats(0.05, 3.0),
           chi0=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
           rho0=st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    def test_admissible_draws_agree_with_integrate(self, stepped, lam, mass, phi0, chi0, rho0):
        """Admissible (lambda > -4 pi m^2 phi0^2, phi0 > 0, expanding)
        paper-mode draws, with chi0 and rho0 often exactly 0."""
        assume(nu_rate(ModelParams(lam=lam, mass=mass), phi0) is not None)
        assert_tail_agrees(*full_and_joined(stepped, FAST, lam, mass, phi0, chi0, rho0))

    REF_POINT = {"lambda": 1.0, "mass": 1.0, "phi0": 1.0, "chi0": 0.1, "rho0": 0.05}
    #: case: (point edits, config, integrator limits to set).
    CASES = {
        # Runs the exact tail does not cover.
        "kg": ({}, replace(FAST, mode="kg"), {}),
        "mass_zero": ({"mass": 0.0}, FAST, {}),
        "inadmissible_override": ({"lambda": -14.0, "rho0": 1.0},
                                  replace(FAST, override_admissibility=True), {}),
        "no_freeze_by_t_end": ({}, replace(FAST, t_end=0.05), {}),
        # Theorem-1 runs that freeze.  v(10) = 2.88e-19 on the reference run:
        # below MIN_V = 1e-18 the tail is cut, at 2e-19 it runs to t_end.
        "min_v_reached": ({}, REF_CONFIG, {"MIN_V": 1e-18}),
        "min_v_near": ({}, REF_CONFIG, {"MIN_V": 2e-19}),
        # Frozen at t = 0 with u0 = 1294 above MAX_ABS_U = 1000, and with
        # phi0 = 2e6.
        "u_guard": ({"chi0": 0.0, "rho0": 2e5}, FAST, {}),
        "phi_guard": ({"chi0": 0.0, "mass": 5e-7, "phi0": 2e6}, FAST, {}),
        # The tail itself reaches MIN_V = 1e-300 at t = 0.43.
        "m400": ({"mass": 400.0}, replace(REF_CONFIG, t_end=1.0), {}),
    }
    FALLBACKS = ("kg", "mass_zero", "inadmissible_override", "no_freeze_by_t_end")
    TAILS = ("min_v_reached", "min_v_near", "u_guard", "phi_guard", "m400")
    TRIPPED = ("min_v_reached", "m400")

    def case_run(self, monkeypatch, case):
        """The case's params, initial data and config, with its limits set."""
        edits, config, limits = self.CASES[case]
        for name, value in limits.items():
            monkeypatch.setattr(integrator, name, value)
        point = {**self.REF_POINT, **edits}
        params = ModelParams(lam=point["lambda"], mass=point["mass"])
        data = make_initial_data(params, 1.0, point["phi0"], point["chi0"], point["rho0"],
                                 "expanding")
        return params, data, config

    @pytest.mark.parametrize("case", FALLBACKS)
    def test_fallback_rows_integrate_fully(self, stepped, monkeypatch, case):
        """Runs the tail does not cover are the stepped run bit for bit, and
        their sweep rows write the bytes of the stepped path."""
        params, data, config = self.case_run(monkeypatch, case)
        full, joined = full_and_joined(stepped, config, params.lam, params.mass, data.phi0,
                                       data.chi0, data.rho0)
        assert (full.t.tobytes(), full.states.tobytes(), full.events, full.stats) == \
               (joined.t.tobytes(), joined.states.tobytes(), joined.events, joined.stats)
        plan = one_row_plan(params, data, config)
        rows = run_sweep(plan)
        assert rows[0].status == STATUS_OK
        with stepped():
            assert sweep_table_csv(rows) == sweep_table_csv(run_sweep(plan))

    @pytest.mark.parametrize("case", ["inadmissible_override", "min_v_near", "u_guard"])
    def test_fallback_row_steps_once(self, monkeypatch, case):
        """Each trial step of a row that freezes is taken once, not once more
        in a rerun from t = 0.  A row the tail does not cover steps on from
        the freeze, its frozen trial steps after the unfrozen ones; a
        theorem-1 row stops stepping at the freeze, and u_guard, frozen at
        t = 0, takes no trial step."""
        calls = record_trial_steps(monkeypatch)
        params, data, config = self.case_run(monkeypatch, case)
        traj = integrate(data, params, config)
        stats = traj.stats
        assert len(calls) == stats.steps_accepted + stats.steps_rejected
        assert traj.events[0].kind == FIELD_FROZEN
        flags = [frozen for *_, frozen in calls]
        assert flags == sorted(flags)
        if case in self.FALLBACKS:
            assert 0 < sum(flags) < len(flags)
        elif case == "u_guard":
            assert traj.events[0].t == 0.0 and calls == []
        else:
            assert traj.events[0].t > 0.0 and len(calls) > 0 and not any(flags)

    @pytest.mark.parametrize("case", TAILS)
    def test_theorem1_row_never_steps_after_freeze(self, monkeypatch, case):
        """A theorem-1 run stops stepping at FieldFrozen whatever its u0,
        phi0 or v(t_end): no trial step is a frozen one, and every later
        sample is frozen_tail's, evaluated once.  A tail sample below MIN_V
        ends the run in GuardTripped at that sample's time, the samples
        before it kept, and the sweep row reads guard-tripped; every other
        row reads ok."""
        calls = record_trial_steps(monkeypatch)
        tails = []

        def recorded(*args):
            tails.append(args)
            return frozen_tail(*args)

        monkeypatch.setattr(integrator, "frozen_tail", recorded)
        params, data, config = self.case_run(monkeypatch, case)
        traj = integrate(data, params, config)
        assert len(calls) == traj.stats.steps_accepted + traj.stats.steps_rejected
        assert not any(frozen for *_, frozen in calls)
        [(t_f, y_f, anchor, _, times)] = tails
        assert traj.events[0].kind == FIELD_FROZEN and traj.events[0].t == t_f
        grid = sample_times(config)
        n = grid.size - times.size
        kept = len(traj.states)
        tail = frozen_tail(t_f, y_f, anchor, params, times)
        assert traj.states[n:].tobytes() == tail[:kept - n].tobytes()
        row = run_sweep(one_row_plan(params, data, config))[0]
        if case in self.TRIPPED:
            v = tail[kept - n, 1]
            assert v < integrator.MIN_V <= traj.states[:, 1].min()
            detail = f"v = {v:.6g} fell below {integrator.MIN_V:.6g}"
            assert traj.events[1:] == (Event(grid[kept], GUARD_TRIPPED, detail),)
            assert (row.status, row.verdict) == (STATUS_GUARD_TRIPPED, "")
        else:
            assert (len(traj.events), kept) == (1, grid.size)
            # On u_guard verify's Simpson quadrature of int u on the 0.01
            # grid misses u's fall from 1294 over ~1e-4: v_quadrature_identity
            # reads a relative deviation of 3.28e3 on the exact tail.
            verdict = "failed" if case == "u_guard" else "passed"
            assert (row.status, row.verdict) == (STATUS_OK, verdict)


class TestWideDomain:
    """Admissible data far from the reference point: heavy fields, large
    phi0 and densities, u0 up to 2,000."""

    def test_wide_plan_rows_pass(self):
        """Every row of bench/sweep_wide.ini (u0 from 102 to 1,637) reads ok
        and passes verify."""
        plan, _, _ = parse_sweep_plan(str(ROOT / "bench" / "sweep_wide.ini"))
        rows = run_sweep(plan)
        assert len(rows) == 24
        assert {(r.status, r.verdict) for r in rows} == {(STATUS_OK, "passed")}

    @settings(max_examples=60)
    @given(lam=st.floats(-5.0, 5.0), log_mass=st.floats(-3.0, 2.7),
           log_phi0=st.floats(-2.0, 7.0), log_chi0=st.one_of(st.none(), st.floats(-3.0, 1.0)),
           log_rho0=st.one_of(st.none(), st.floats(-3.0, 5.0)))
    def test_admissible_runs_never_trip(self, lam, log_mass, log_phi0, log_chi0, log_rho0):
        """lambda in [-5, 5], m = 10^[-3, 2.7], phi0 = 10^[-2, 7], chi0 and
        rho0 each 0 or 10^[-3, 1] and 10^[-3, 5], expanding with u0 <= 2,000,
        run over t_end = min(10, 300/u0) at t_end/100: int u dt stays below
        the ~345 at which v reaches MIN_V, and no run ends in GuardTripped."""
        params = ModelParams(lam=lam, mass=10.0 ** log_mass)
        phi0 = 10.0 ** log_phi0
        assume(nu_rate(params, phi0) is not None)
        chi0, rho0 = (0.0 if x is None else 10.0 ** x for x in (log_chi0, log_rho0))
        data = make_initial_data(params, 1.0, phi0, chi0, rho0, "expanding")
        assume(data.u0 <= 2000.0)
        t_end = min(10.0, 300.0 / data.u0)
        traj = integrate(data, params, IntegratorConfig(t_end=t_end, sample_dt=t_end / 100))
        assert not traj.guard_tripped, traj.events[-1]


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

    def test_auto_runs_small_plan_without_pool(self, monkeypatch):
        """workers = auto runs a plan below POOL_MIN_ROWS rows in-process,
        with the same bytes as workers = 1; an explicit workers = 2 still
        asks for a pool."""
        class NoPool:
            def __init__(self, max_workers):
                raise AssertionError(f"pool of {max_workers} started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert len(plan_for(self.AXES, self.FIXED).points()) < POOL_MIN_ROWS
        auto = run_sweep(plan_for(self.AXES, self.FIXED, workers=None))
        serial = run_sweep(plan_for(self.AXES, self.FIXED, workers=1))
        assert sweep_table_csv(auto) == sweep_table_csv(serial)
        with pytest.raises(AssertionError, match="pool of 2 started"):
            run_sweep(plan_for(self.AXES, self.FIXED, workers=2))

    def test_17_digit_serialization_round_trips(self):
        rows = run_sweep(plan_for((("lambda", (1.0, -60.0)),),
                                  (("mass", 1.0), ("phi0", 1.0),
                                   ("chi0", 0.1), ("rho0", 0.05))))
        text = sweep_table_csv(rows)
        header, line, flagged = text.strip().split("\n")
        values = dict(zip(header.split(","), line.split(",")))
        assert float(values["nu"]) == rows[0].nu
        assert float(values["L_hat"]) == rows[0].L_hat
        assert values["verdict"] in ("passed", "failed", "inconclusive")
        values = dict(zip(header.split(","), flagged.split(",")))
        assert values["status"] == "no-real-branch"
        assert values["admissible"] == "false"
        assert values["verdict"] == ""
        for name in ("nu", "rate_Q", "L_hat", "max_constraint"):
            assert values[name] == "nan"
        assert values["events"] == ""

    def test_row_fields_match_columns(self):
        names = [f.name for f in fields(SweepRow)][:len(SWEEP_COLUMNS)]
        assert ["lambda" if n == "lam" else n for n in names] == list(SWEEP_COLUMNS)


SHORT = replace(REF_CONFIG, t_end=0.05, rel_tol=1e-6, abs_tol=1e-6)
STATUSES = {STATUS_OK, STATUS_SKIPPED, STATUS_NO_REAL_BRANCH, STATUS_INVALID_DATA,
            STATUS_GUARD_TRIPPED}
FINITE = st.floats(-1e300, 1e300)
NONNEGATIVE = st.floats(0.0, 1e300)


class TestSweepProperties:
    # A large mass makes the field oscillate for as many steps as MAX_STEPS
    # allows, ~11 s a row, so the budget is cut to 1,000 trial steps here.
    # Shrinking is skipped: on a failing sweep it ran for minutes, and the
    # derandomized first counterexample already reproduces.
    @pytest.mark.filterwarnings("ignore:initial expansion rate u0 is exactly zero")
    @settings(phases=[Phase.explicit, Phase.generate])
    @given(lam=st.lists(FINITE, min_size=1, max_size=2),
           phi0=st.lists(FINITE, min_size=1, max_size=2),
           mass=NONNEGATIVE, chi0=NONNEGATIVE, rho0=NONNEGATIVE,
           branch=st.sampled_from(["expanding", "contracting"]),
           override=st.booleans())
    def test_accepted_plan_never_raises(self, lam, phi0, mass, chi0, rho0,
                                        branch, override):
        plan = SweepPlan(axes=(("lambda", tuple(lam)), ("phi0", tuple(phi0))),
                         fixed=(("mass", mass), ("chi0", chi0), ("rho0", rho0)),
                         branch=branch, workers=1,
                         integrator=replace(SHORT, override_admissibility=override))
        with mock.patch.object(integrator, "MAX_STEPS", 1000):
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
        assert [r.status for r in as_float] == [STATUS_GUARD_TRIPPED] * 3 + [STATUS_OK]
        assert sweep_table_csv(as_numpy) == sweep_table_csv(as_float)

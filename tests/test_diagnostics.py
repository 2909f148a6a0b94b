"""Verification logic: fits, bounds, asymptotics, quadrature."""

import json
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from rwcosmo import (Check, InitialData, IntegratorConfig, ModelParams, diagnostics,
                     fit_decay_rate, integrate, make_initial_data, verify)
from rwcosmo.diagnostics import (STATUS_FAILED, STATUS_INCONCLUSIVE,
                                 STATUS_PASSED, TOL, cumulative_simpson, libm)
from rwcosmo.initial import nu_rate
from rwcosmo.integrator import IntegrationStats, Trajectory, sample_times
from rwcosmo.serialize import report_json_text

from conftest import REF_CONFIG, REF_NU

README = Path(__file__).resolve().parents[1] / "README.md"


def make_fake_trajectory(u_values, params=None):
    """Hand-built trajectory with prescribed u samples (synthetic controls)."""
    params = params or ModelParams(lam=0.0, mass=0.0)
    initial = InitialData(a0=1.0, u0=float(u_values[0]), phi0=0.0, chi0=0.0, rho0=0.0)
    u = np.asarray(u_values, dtype=float)
    zeros = np.zeros_like(u)
    return Trajectory(params=params, initial=initial, config=IntegratorConfig(),
                      states=np.column_stack([u, np.ones_like(u), zeros, zeros]),
                      events=(), stats=IntegrationStats(0, 0, 0))


class TestFitDecayRate:
    def test_exact_exponential(self):
        """Same fit from numpy arrays and from lists."""
        t = np.arange(0.0, 5.01, 0.5)
        y = np.exp(-2.0 * t)
        fits = [fit_decay_rate(t, y), fit_decay_rate(t.tolist(), y.tolist())]
        assert fits[0] == fits[1]
        assert fits[0].rate == pytest.approx(2.0, abs=1e-12)
        assert fits[0].residual < 1e-12

    @pytest.mark.parametrize("t,y", [
        (np.arange(10.0), np.ones(9)),
        (np.zeros((10, 2)), np.ones((10, 2))),
    ], ids=["unequal_lengths", "two_dimensional"])
    def test_mismatched_arrays_rejected(self, t, y):
        with pytest.raises(ValueError, match="1-d and of equal length"):
            fit_decay_rate(t, y)

    def test_exact_line_and_polyfit_agreement(self):
        """The closed-form fit recovers an exact line in ln y and agrees with
        np.polyfit on noisy data."""
        t = np.arange(2.0, 9.01, 0.01)
        fit = fit_decay_rate(t, np.exp(0.7 - 1.5 * t))
        assert fit.rate == pytest.approx(1.5, rel=1e-13)
        assert fit.intercept == pytest.approx(0.7, rel=1e-12)
        rng = np.random.default_rng(7)
        for _ in range(20):
            y = np.exp(rng.normal(1.0, 1.0) - rng.uniform(0.1, 3.0) * t
                       + 0.1 * rng.standard_normal(t.size))
            fit = fit_decay_rate(t, y)
            slope, intercept = np.polyfit(t, np.log(y), 1)
            assert fit.rate == pytest.approx(-slope, rel=1e-9)
            assert fit.intercept == pytest.approx(intercept, rel=1e-9)

    def test_constant_series_rate_zero(self):
        t = np.arange(0.0, 5.01, 0.5)
        fit = fit_decay_rate(t, np.full_like(t, 7.0))
        assert fit.rate == pytest.approx(0.0, abs=1e-14)

    def test_modulated_exponential_within_tolerance(self):
        """y = exp(-2t) (1 + 0.01 sin t) fits to 2 +- 0.02."""
        t = np.arange(0.0, 5.001, 0.1)
        y = np.exp(-2.0 * t) * (1.0 + 0.01 * np.sin(t))
        fit = fit_decay_rate(t, y)
        assert abs(fit.rate - 2.0) <= 0.02

    def test_nonpositive_values_rejected(self):
        t = np.arange(0.0, 1.0, 0.1)
        y = np.exp(-t)
        y[4] = 0.0
        with pytest.raises(ValueError, match="positive"):
            fit_decay_rate(t, y)

    def test_too_few_points_rejected(self):
        t = np.arange(0.0, 0.7, 0.1)  # 7 points
        with pytest.raises(ValueError, match="8 points"):
            fit_decay_rate(t, np.exp(-t))

    def test_affine_equivariance(self):
        """Scaling y by c > 0 changes the intercept, never the rate."""
        t = np.arange(0.0, 3.01, 0.25)
        y = np.exp(-1.3 * t) * (1.0 + 0.05 * np.cos(3 * t))
        base = fit_decay_rate(t, y)
        scaled = fit_decay_rate(t, 17.0 * y)
        assert scaled.rate == pytest.approx(base.rate, rel=1e-12)
        assert scaled.intercept == pytest.approx(base.intercept + math.log(17.0), rel=1e-12)

    def test_window_restricts_points(self):
        """The fit records the first and last times and the number of the
        points it is given, here a slice that leaves out corrupt points."""
        t = np.arange(0.0, 10.01, 0.5)
        y = np.exp(-2.0 * t)
        y[:4] = 1.0  # corrupt early points, sliced off
        fit = fit_decay_rate(t[4:20], y[4:20])
        assert fit.rate == pytest.approx(2.0, abs=1e-12)
        assert (fit.t_lo, fit.t_hi, fit.n_points) == (2.0, 9.5, 16)


def cumulative_simpson_loop(y, dt):
    """Sample-by-sample reference for the vectorized cumulative_simpson."""
    n = y.size
    out = np.zeros(n)
    if n < 2:
        return out
    if n == 2:
        out[1] = 0.5 * dt * (y[0] + y[1])
        return out
    out[1] = dt / 12.0 * (5.0 * y[0] + 8.0 * y[1] - y[2])
    for i in range(2, n):
        if i % 2 == 0:
            out[i] = out[i - 2] + dt / 3.0 * (y[i - 2] + 4.0 * y[i - 1] + y[i])
        else:
            out[i] = out[i - 1] + dt / 12.0 * (-y[i - 2] + 8.0 * y[i - 1] + 5.0 * y[i])
    return out


class TestLibm:
    def test_elementwise_math_module_values(self):
        """Each element is the math module's result; an exp past the largest
        double reads inf, as numpy's exp does, instead of raising."""
        x = np.array([-1e4, -2.5, 0.0, 1.0, 709.0, 710.0, 1e300, np.inf, np.nan])
        got = libm(math.exp, x)
        assert got.tolist()[:5] == [math.exp(v) for v in x[:5].tolist()]
        assert got[5] == got[6] == got[7] == math.inf and math.isnan(got[8])
        y = np.array([1e-300, 0.5, 2.0, 1e300])
        assert libm(math.log, y).tolist() == [math.log(v) for v in y.tolist()]
        assert libm(math.exp, np.array([])).shape == (0,)
        strided = np.linspace(-1.0, 1.0, 9)[::2]  # not contiguous
        assert libm(math.exp, strided).tolist() == [math.exp(v) for v in strided.tolist()]


class TestCumulativeSimpson:
    @pytest.mark.parametrize("n", list(range(40)) + [1001, 10001, 10002])
    def test_bit_identical_to_loop(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-5, 1e-2, 1.0, 1e3, 1e5):
            y = scale * rng.standard_normal(n)
            dt = rng.uniform(1e-4, 1.0)
            fast, loop = cumulative_simpson(y, dt), cumulative_simpson_loop(y, dt)
            assert np.array_equal(fast.view(np.int64), loop.view(np.int64))

    def test_exact_for_quadratics(self):
        t = np.linspace(0.0, 2.0, 21)
        y = 3.0 * t ** 2 - 2.0 * t + 1.0
        exact = t ** 3 - t ** 2 + t
        np.testing.assert_allclose(cumulative_simpson(y, t[1] - t[0]), exact,
                                   rtol=1e-13, atol=1e-13)

    def test_fourth_order_on_exponential(self):
        for n in (101, 201):
            t = np.linspace(0.0, 1.0, n)
            approx = cumulative_simpson(np.exp(t), t[1] - t[0])
            err = np.abs(approx - (np.exp(t) - 1.0)).max()
            assert err < 5.0 * (t[1] - t[0]) ** 4


#: The pointwise bound and monotonicity checks, first in every report.
BOUND_CHECKS = ("u_nonincreasing", "u_lower_bound", "u_upper_bound", "v_positive",
                "v_upper_bound", "t00_nonincreasing", "q_nonnegative",
                "phi_nondecreasing_while_chi_nonneg")


class TestVerifyBounds:
    def test_reference_run_all_pass(self, ref_trajectory):
        checks = verify(ref_trajectory).checks[:len(BOUND_CHECKS)]
        assert tuple(c.name for c in checks) == BOUND_CHECKS
        assert all(c.passed for c in checks)

    def test_increasing_u_fails_with_positive_margin(self):
        traj = make_fake_trajectory([1.0, 1.1, 1.2])
        check = verify(traj).check("u_nonincreasing")
        assert not check.passed
        assert check.margin > 0.0

    def test_u_lower_bound_allows_roundoff_below_nu(self):
        """With chi0 = rho0 = 0 the solved u0 can sit an ulp or two below nu
        (here 4.4e-16); u_lower_bound allows the eps that u_upper_bound does."""
        params = ModelParams(lam=-2.965447593238504, mass=0.8238243543034561)
        data = make_initial_data(params, a0=1.0, phi0=2.2635757842586552, chi0=0.0, rho0=0.0)
        traj = integrate(data, params, IntegratorConfig(t_end=1.0))
        report = verify(traj)
        assert 0.0 < report.nu - data.u0 <= 4.5e-16
        eps = TOL.monotone_eps_factor * traj.config.rel_tol * data.u0
        assert report.check("u_lower_bound") == Check(
            "u_lower_bound", True, report.nu - float(np.min(traj.states[:, 0])) - eps,
            f"eps = {eps:.3g}")
        assert report.status == STATUS_INCONCLUSIVE

    def test_single_sample_monotonicity_vacuous(self):
        report = verify(make_fake_trajectory([1.0]))
        assert report.check("u_nonincreasing").passed
        assert report.check("t00_nonincreasing").passed
        assert report.check("u_upper_bound").passed  # evaluated at the point

    def test_empty_trajectory_rejected(self):
        traj = make_fake_trajectory([1.0])
        empty = replace(traj, states=np.empty((0, 4)))
        with pytest.raises(ValueError, match="no samples"):
            verify(empty)

    def test_margins_finite(self, ref_trajectory, kg_trajectory):
        for traj in (ref_trajectory, kg_trajectory):
            for c in verify(traj).checks:
                assert math.isfinite(c.margin)

    def test_check_names_unique(self, ref_trajectory):
        names = [c.name for c in verify(ref_trajectory).checks]
        assert len(names) == len(set(names))


class TestCheckRule:
    """A check passes exactly when its margin is <= 0; v_positive is stricter."""

    @pytest.mark.parametrize("fixture", ["ref_trajectory", "kg_trajectory",
                                         "truncated_trajectory"])
    def test_passed_iff_margin_nonpositive(self, fixture, request):
        for c in verify(request.getfixturevalue(fixture)).checks:
            if c.name != "v_positive":
                assert c.passed == (c.margin <= 0.0), c

    def test_v_zero_fails_v_positive(self):
        traj = make_fake_trajectory([1.0, 0.9, 0.8])
        states = np.array(traj.states)
        states[-1, 1] = 0.0
        check = verify(replace(traj, states=states)).check("v_positive")
        assert not check.passed
        assert check.margin == 0.0

    @pytest.mark.parametrize("t,detail", [
        pytest.param([0.0, 0.01], "too few samples for quadrature", id="two_samples"),
    ])
    def test_quadrature_vacuous_without_uniform_grid(self, t, detail):
        """Simpson needs three samples of the grid; a trajectory's samples
        are always on its config's grid, so too few is the only way out."""
        traj = make_fake_trajectory(np.linspace(1.0, 0.9, len(t)))
        assert traj.t.tolist() == t
        report = verify(traj)
        assert report.check("v_quadrature_identity") == \
            Check("v_quadrature_identity", True, -TOL.v_oracle_rel, detail)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("sample_dt", [0.01, 0.001, 1e-4])
def test_closed_form_run_not_failed_by_simpson(sample_dt):
    """lambda = m = phi0 = 1, chi0 = 0, rho0 = 2e5 (u0 = 1294) freezes at
    t = 0 and takes no step: the whole run is the exact frozen tail.  Yet u
    falls so fast that Simpson's rule on the samples misses int u, and
    v_quadrature_identity reads 3.28e3, 0.28 and 5.26e-4 at these spacings,
    past its 1e-6: the run verifies failed on Simpson's error alone."""
    params = ModelParams(lam=1.0, mass=1.0)
    data = make_initial_data(params, 1.0, 1.0, 0.0, 2e5, "expanding")
    traj = integrate(data, params, IntegratorConfig(t_end=2.0, sample_dt=sample_dt))
    assert verify(traj).status != STATUS_FAILED


class TestVerifyAsymptotics:
    def test_reference_run_all_pass(self, ref_trajectory):
        report = verify(ref_trajectory)
        names = [c.name for c in report.checks]
        checks = report.checks[names.index("q_envelope"):]
        assert checks and all(c.passed for c in checks)
        assert report.notes == ()
        assert None not in report.fits.values()
        fit = report.fits["Q"]
        assert fit.rate >= 3.0 * REF_NU * 0.95
        assert fit.t_lo < fit.t_hi and fit.n_points >= 8

    def test_truncated_run_inconclusive(self, truncated_trajectory):
        report = verify(truncated_trajectory)
        assert report.checks[-1].name == "v_quadrature_identity"  # no gated check ran
        assert set(report.fits.values()) == {None}
        assert any("gate" in n for n in report.notes)

    def test_growth_verdict_is_the_lower_bound_check(self, ref_trajectory,
                                                     kg_trajectory):
        """a_exponential_lower_bound is the one growth check and its verdict
        is not repeated: no a_growth_ratio check, no a_growth_ok field or
        report.json key."""
        for traj in (ref_trajectory, kg_trajectory):
            report = verify(traj)
            assert not any(c.name == "a_growth_ratio" for c in report.checks)
            assert not hasattr(report, "a_growth_ok")
            assert "a_growth_ok" not in json.loads(report_json_text(report))
        assert verify(ref_trajectory).check("a_exponential_lower_bound").passed
        assert not verify(kg_trajectory).check("a_exponential_lower_bound").passed

    def test_kg_run_fails_phi_square_monotonicity(self, kg_trajectory):
        report = verify(kg_trajectory)
        assert report.status == STATUS_FAILED
        assert not report.check("phi_squared_monotone").passed
        assert report.check("phi_squared_monotone").margin > 0.0
        assert any("hypothesis" in n for n in report.notes)

    def test_frozen_branch_closed_form_limit(self, ref_trajectory):
        """After freezing, H(t_end) matches sqrt(3 (lam + 4 pi m^2 phi_f^2))."""
        report = verify(ref_trajectory)
        phi_f = float(ref_trajectory.as_arrays()["phi"][-1])
        target = math.sqrt(3.0 * (1.0 + 4.0 * math.pi * phi_f ** 2))
        assert abs(report.H_inf_hat - target) <= 1e-3 * target
        assert report.L_hat == phi_f ** 2

    def test_non_positive_c0_fails_h_inf_limit(self):
        """A hand-built run past the Q gate whose limit estimate C0 = lam +
        4 pi m^2 phi(t_end)^2 is negative (lam = -4 pi, m = 1, phi falling
        from 2 to 0.999, u from 10 to 0) fails h_inf_limit outright, with
        margin -C0_hat, as sqrt(3 C0) does not exist."""
        params = ModelParams(lam=-4.0 * math.pi, mass=1.0)
        config = IntegratorConfig(t_end=1.0, sample_dt=0.01)
        t = sample_times(config)
        states = np.column_stack([10.0 * (1.0 - t), np.ones_like(t), 2.0 - 1.001 * t,
                                  np.zeros_like(t)])
        traj = Trajectory(params=params, initial=InitialData(1.0, 10.0, 2.0, 0.0, 0.0),
                          config=config, states=states, events=(),
                          stats=IntegrationStats(0, 0, 0))
        q = traj.as_arrays()["Q"]
        assert abs(q[-1]) < TOL.q_ratio_gate * q[0]
        report = verify(traj)
        c0_hat = params.lam + 4.0 * math.pi * 0.999 ** 2
        assert report.C0_hat == pytest.approx(c0_hat, rel=1e-12) and report.C0_hat < 0.0
        assert report.check("h_inf_limit") == Check("h_inf_limit", False, -report.C0_hat,
                                                    "C0 estimate not positive")
        assert report.status == STATUS_FAILED


def two_exp_margins(traj):
    """The margins of the three exponential checks by the two-exp formulas:
    exp(2 int u) for the v identity, and exp(-3 nu t) for the Q envelope
    apart from exp(nu t) for the growth bound, each through libm.  The
    envelope and the bound only where Q has passed the gate, as in verify."""
    cols = traj.as_arrays()
    t, u, v, q = (cols[k] for k in ("t", "u", "v", "Q"))
    integral_u = cumulative_simpson(u, float(t[1] - t[0]))
    v0, q0 = float(v[0]), float(q[0])
    margins = {
        "v_quadrature_identity": float(np.max(np.abs(
            v * libm(math.exp, 2.0 * integral_u) - v0))) / v0 - TOL.v_oracle_rel,
    }
    if abs(float(q[-1])) < TOL.q_ratio_gate * q0:
        nu = nu_rate(traj.params, traj.initial.phi0)
        q_floor = (24.0 * math.pi * TOL.v_oracle_rel * traj.initial.rho0
                   + 3.0 * TOL.constraint_budget)
        envelope = q0 * libm(math.exp, -3.0 * nu * t) * (1.0 + TOL.envelope_slack) + q_floor
        bound = traj.initial.a0 * libm(math.exp, nu * t) * (1.0 - TOL.a_growth_slack)
        margins["q_envelope"] = float(np.max(q - envelope))
        margins["a_exponential_lower_bound"] = float(np.max(bound - cols["a"]))
    return margins


def assert_two_exp_verdicts(traj, tol=1e-15):
    """verify's exponential checks give the two-exp formulas' pass/fail,
    infinite margins where they give inf (null in report.json), and finite
    margins within ``tol``."""
    report = verify(traj)
    written = {c["name"]: c["margin"] for c in json.loads(report_json_text(report))["checks"]}
    for name, want in two_exp_margins(traj).items():
        got = report.check(name)
        assert got.passed == (want <= 0.0), name
        assert math.isinf(got.margin) == math.isinf(want), name
        if math.isinf(want):
            assert got.margin == want and written[name] is None, name
        else:
            assert abs(got.margin - want) <= tol, name
    return report


def on_shell_run(nu_t_end):
    """A hand-built on-shell run with the frozen field at phi = 1 (nu from
    lambda = m = 1), v = exp(ln(1e307) - 2 nu t), positive until nu t ~ 726,
    so the derived rho is rho0*exp(-4 nu t), and u from the constraint with
    that rho, on 201 samples up to nu*t_end; int u is a little above nu*t."""
    params = ModelParams(lam=1.0, mass=1.0)
    t_end = nu_t_end / REF_NU
    config = IntegratorConfig(t_end=t_end, sample_dt=t_end / 200)
    t = sample_times(config)
    rho = 0.05 * libm(math.exp, -4.0 * REF_NU * t)
    u = np.sqrt(REF_NU * REF_NU + 8.0 * math.pi / 3.0 * rho)
    v = libm(math.exp, math.log(1e307) - 2.0 * REF_NU * t)
    initial = InitialData(a0=1.0 / math.sqrt(float(v[0])), u0=float(u[0]), phi0=1.0, chi0=0.0,
                          rho0=0.05)
    zeros = np.zeros_like(t)
    return Trajectory(params=params, initial=initial, config=config,
                      states=np.column_stack([u, v, np.ones_like(t), zeros]),
                      events=(), stats=IntegrationStats(0, 0, 0))


class TestOneExpPerIdentity:
    """verify takes exp(nu t) once for the Q envelope and the growth bound;
    the two-exp formulas are the oracle."""

    def test_reference_dense_and_kg_runs(self, ref_trajectory, kg_trajectory, ref_initial):
        dense = integrate(ref_initial, ModelParams(lam=1.0, mass=1.0),
                          replace(REF_CONFIG, rel_tol=1e-8, abs_tol=1e-8, sample_dt=0.001))
        for traj in (ref_trajectory, dense, kg_trajectory):
            assert len(two_exp_margins(traj)) == 3
            assert_two_exp_verdicts(traj)

    @pytest.mark.parametrize("nu_t_end,overflows", [
        pytest.param(150.0, set(), id="nu_t_150_none"),
        pytest.param(300.0, {"exp(nu t)**3"}, id="nu_t_300_cube"),
        pytest.param(400.0, {"exp(nu t)**3", "exp(2 int u)"}, id="nu_t_400_cube_2int_u"),
        pytest.param(720.0, {"exp(nu t)**3", "exp(2 int u)", "exp(nu t)"}, id="nu_t_720_all"),
    ])
    def test_past_each_overflow_point(self, nu_t_end, overflows):
        """Past nu t = 236.6 exp(nu t)**3 overflows, past 709.8 exp(nu t);
        past 2 int u = 709.8 exp(2 int u).  Each run keeps the two-exp
        pass/fail and margins, inf where they are."""
        traj = on_shell_run(nu_t_end)
        largest = math.log(np.finfo(float).max)
        two_int_u = 2.0 * float(cumulative_simpson(traj.as_arrays()["u"], traj.config.sample_dt)[-1])
        assert overflows == {name for name, x in (
            ("exp(nu t)**3", 3.0 * nu_t_end), ("exp(nu t)", nu_t_end),
            ("exp(2 int u)", two_int_u)) if x > largest}
        margins = two_exp_margins(traj)
        assert len(margins) == 3
        assert math.isinf(margins["v_quadrature_identity"]) == ("exp(2 int u)" in overflows)
        assert math.isinf(margins["a_exponential_lower_bound"]) == ("exp(nu t)" in overflows)
        assert_two_exp_verdicts(traj)


class TestVerifyReport:
    def test_reference_passes(self, ref_trajectory):
        report = verify(ref_trajectory)
        assert report.status == STATUS_PASSED
        assert all(c.passed for c in report.checks)
        assert report.check("a_exponential_lower_bound").passed
        assert report.nu == pytest.approx(REF_NU, rel=1e-15)

    def test_idempotent(self, ref_trajectory):
        assert verify(ref_trajectory) == verify(ref_trajectory)

    def test_unknown_check_name_raises(self, ref_trajectory):
        with pytest.raises(KeyError, match="no_such_check"):
            verify(ref_trajectory).check("no_such_check")

    def test_one_pass_over_the_columns(self, ref_trajectory, monkeypatch):
        """One verify reads the columns once and derives nu once."""
        calls = []

        def counted(f):
            def wrapper(*args):
                calls.append(f.__name__)
                return f(*args)
            return wrapper

        monkeypatch.setattr(Trajectory, "as_arrays", counted(Trajectory.as_arrays))
        monkeypatch.setattr(diagnostics, "nu_rate", counted(diagnostics.nu_rate))
        verify(ref_trajectory)
        assert sorted(calls) == ["as_arrays", "nu_rate"]

    def test_truncated_inconclusive_status(self, truncated_trajectory):
        report = verify(truncated_trajectory)
        assert report.status == STATUS_INCONCLUSIVE
        assert report.fits == {"Q": None}

    def test_guard_trip_noted(self):
        """verify names the guard that aborted a run: the contracting
        reference data, integrated under override_admissibility, trip
        MAX_ABS_U at t = 0.445605."""
        params = ModelParams(lam=1.0, mass=1.0)
        data = make_initial_data(params, 1.0, 1.0, 0.1, 0.05, "contracting")
        traj = integrate(data, params, replace(REF_CONFIG, override_admissibility=True))
        assert verify(traj).notes[-1] == \
            "integration aborted by guard: t = 0.445605: |u| = 1015.85 exceeded 1000"

    def test_estimates_match_constraint_limit(self, ref_trajectory):
        report = verify(ref_trajectory)
        assert report.C0_hat == pytest.approx(
            1.0 + 4.0 * math.pi * report.L_hat, rel=1e-14)
        assert report.L_hat >= 1.0

    def test_readme_table_names_every_check(self, ref_trajectory):
        """README's check table lists, in report order, exactly the checks
        verify emits on the reference run, which runs every check; each row
        names Tolerances fields that exist, or none."""
        section = README.read_text().split("\n## Checks\n")[1].split("\n## ")[0]
        rows = re.findall(r"^\| `(\w+)` \|.*\| (.*) \|$", section, re.M)
        assert [name for name, _ in rows] == [c.name for c in verify(ref_trajectory).checks]
        assert len(rows) == 16
        tolerance_fields = {f.name for f in fields(TOL)}
        for name, cell in rows:
            named = re.findall(r"`(\w+)`", cell)
            assert (named or cell == "none") and set(named) <= tolerance_fields, name

    def test_rate_fits_avoid_noise_floor(self, ref_trajectory):
        """Q's fit points stop where Q hits its numerical floor."""
        report = verify(ref_trajectory)
        cols = ref_trajectory.as_arrays()
        drift = np.abs(cols["constraint"]).max()
        i_hi = int(round(report.fits["Q"].t_hi / 0.01))
        assert cols["Q"][i_hi] > 100.0 * 3.0 * drift

"""Verification logic: fits, bounds, asymptotics, identity, quadrature."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rwcosmo import (Check, CosmoState, InitialData, IntegratorConfig,
                     ModelParams, Tolerances, derived, fit_decay_rate,
                     q_identity_check, verify, verify_asymptotics,
                     verify_bounds, verify_quadrature)
from rwcosmo.diagnostics import (STATUS_FAILED, STATUS_INCONCLUSIVE,
                                 STATUS_PASSED, cumulative_simpson, libm)
from rwcosmo.integrator import IntegrationStats, Trajectory

from conftest import REF_NU


def make_fake_trajectory(u_values, params=None):
    """Hand-built trajectory with prescribed u samples (synthetic controls)."""
    params = params or ModelParams(lam=0.0, mass=0.0)
    initial = InitialData(a0=1.0, u0=float(u_values[0]), phi0=0.0, chi0=0.0, rho0=0.0)
    u = np.asarray(u_values, dtype=float)
    zeros = np.zeros_like(u)
    return Trajectory(params=params, initial=initial, config=IntegratorConfig(),
                      t=0.01 * np.arange(u.size),
                      states=np.column_stack([u, np.ones_like(u), zeros, zeros, zeros]),
                      events=(), stats=IntegrationStats(0, 0, 0))


class TestFitDecayRate:
    def test_exact_exponential(self):
        """Same fit from an (n, 2) array and from a list of (t, y) tuples."""
        t = np.arange(0.0, 5.01, 0.5)
        y = np.exp(-2.0 * t)
        for series in (np.column_stack([t, y]), list(zip(t.tolist(), y.tolist()))):
            fit = fit_decay_rate(series, (0.0, 5.0))
            assert fit.rate == pytest.approx(2.0, abs=1e-12)
            assert fit.residual < 1e-12

    def test_exact_line_and_polyfit_agreement(self):
        """The closed-form fit recovers an exact line in ln y and agrees with
        np.polyfit on noisy data."""
        t = np.arange(2.0, 9.01, 0.01)
        fit = fit_decay_rate(np.column_stack([t, np.exp(0.7 - 1.5 * t)]), (2.0, 9.0))
        assert fit.rate == pytest.approx(1.5, rel=1e-13)
        assert fit.intercept == pytest.approx(0.7, rel=1e-12)
        rng = np.random.default_rng(7)
        for _ in range(20):
            y = np.exp(rng.normal(1.0, 1.0) - rng.uniform(0.1, 3.0) * t
                       + 0.1 * rng.standard_normal(t.size))
            fit = fit_decay_rate(np.column_stack([t, y]), (2.0, 9.0))
            slope, intercept = np.polyfit(t, np.log(y), 1)
            assert fit.rate == pytest.approx(-slope, rel=1e-9)
            assert fit.intercept == pytest.approx(intercept, rel=1e-9)

    def test_constant_series_rate_zero(self):
        t = np.arange(0.0, 5.01, 0.5)
        series = np.column_stack([t, np.full_like(t, 7.0)])
        fit = fit_decay_rate(series, (0.0, 5.0))
        assert fit.rate == pytest.approx(0.0, abs=1e-14)

    def test_modulated_exponential_within_tolerance(self):
        """y = exp(-2t) (1 + 0.01 sin t) fits to 2 +- 0.02."""
        t = np.arange(0.0, 5.001, 0.1)
        y = np.exp(-2.0 * t) * (1.0 + 0.01 * np.sin(t))
        fit = fit_decay_rate(np.column_stack([t, y]), (0.0, 5.0))
        assert abs(fit.rate - 2.0) <= 0.02

    def test_nonpositive_values_rejected(self):
        t = np.arange(0.0, 1.0, 0.1)
        y = np.exp(-t)
        y[4] = 0.0
        with pytest.raises(ValueError, match="positive"):
            fit_decay_rate(np.column_stack([t, y]), (0.0, 1.0))

    def test_too_few_points_rejected(self):
        t = np.arange(0.0, 0.7, 0.1)  # 7 points
        with pytest.raises(ValueError, match="8 points"):
            fit_decay_rate(np.column_stack([t, np.exp(-t)]), (0.0, 1.0))

    def test_affine_equivariance(self):
        """Scaling y by c > 0 changes the intercept, never the rate."""
        t = np.arange(0.0, 3.01, 0.25)
        y = np.exp(-1.3 * t) * (1.0 + 0.05 * np.cos(3 * t))
        base = fit_decay_rate(np.column_stack([t, y]), (0.0, 3.0))
        scaled = fit_decay_rate(np.column_stack([t, 17.0 * y]), (0.0, 3.0))
        assert scaled.rate == pytest.approx(base.rate, rel=1e-12)
        assert scaled.intercept == pytest.approx(base.intercept + math.log(17.0), rel=1e-12)

    def test_window_restricts_points(self):
        t = np.arange(0.0, 10.01, 0.5)
        y = np.exp(-2.0 * t)
        y[:4] = 1.0  # corrupt early points outside the window
        fit = fit_decay_rate(np.column_stack([t, y]), (2.0, 10.0))
        assert fit.rate == pytest.approx(2.0, abs=1e-12)


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


class TestVerifyBounds:
    def test_reference_run_all_pass(self, ref_trajectory):
        checks = verify_bounds(ref_trajectory)
        assert checks and all(c.passed for c in checks)

    def test_increasing_u_fails_with_positive_margin(self):
        traj = make_fake_trajectory([1.0, 1.1, 1.2])
        check = next(c for c in verify_bounds(traj) if c.name == "u_nonincreasing")
        assert not check.passed
        assert check.margin > 0.0

    def test_single_sample_monotonicity_vacuous(self):
        traj = make_fake_trajectory([1.0])
        checks = {c.name: c for c in verify_bounds(traj)}
        assert checks["u_nonincreasing"].passed
        assert checks["t00_nonincreasing"].passed
        assert checks["u_upper_bound"].passed  # evaluated at the point

    def test_empty_trajectory_rejected(self):
        traj = make_fake_trajectory([1.0])
        empty = replace(traj, t=np.empty(0), states=np.empty((0, 5)))
        with pytest.raises(ValueError, match="no samples"):
            verify_bounds(empty)

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
        check = next(c for c in verify_bounds(replace(traj, states=states))
                     if c.name == "v_positive")
        assert not check.passed
        assert check.margin == 0.0

    @pytest.mark.parametrize("t,detail", [
        ([0.0, 0.01], "too few samples for quadrature"),
        ([0.0, 0.01, 0.03, 0.04], "non-uniform sample grid"),
    ])
    def test_quadrature_vacuous_without_uniform_grid(self, t, detail):
        traj = make_fake_trajectory(np.linspace(1.0, 0.9, len(t)))
        tol = Tolerances()
        assert verify_quadrature(replace(traj, t=np.array(t))) == [
            Check("rho_quadrature_oracle", True, -tol.rho_oracle_rel, detail),
            Check("v_quadrature_identity", True, -tol.v_oracle_rel, detail)]


class TestQIdentity:
    def test_reference_run_at_roundoff(self, ref_trajectory):
        assert q_identity_check(ref_trajectory) <= 1e-13

    def test_holds_on_inadmissible_trajectories(self):
        traj = make_fake_trajectory([1.0, 2.0, 5.0], params=ModelParams(-2.0, 3.0))
        assert q_identity_check(traj) <= 1e-13

    def test_fuzzed_states(self):
        """10^4 random states keep the identity at roundoff."""
        rng = np.random.default_rng(20260810)
        worst = 0.0
        for _ in range(10_000):
            u, phi, chi, lam = rng.uniform(-1.0, 1.0, 4)
            s = CosmoState(t=0.0, u=u, v=rng.uniform(0.01, 2.0), phi=phi,
                           chi=chi, rho=rng.uniform(0.0, 1.0))
            d = derived(s, ModelParams(lam=lam, mass=rng.uniform(0.0, 1.0)))
            dev = abs(d.Q - 24.0 * math.pi * s.rho - 3.0 * d.constraint)
            worst = max(worst, dev / (1.0 + abs(d.Q)))
        assert worst <= 1e-13


class TestVerifyAsymptotics:
    def test_reference_run_all_pass(self, ref_trajectory):
        checks, estimates, fits, _, _, inconclusive = verify_asymptotics(
            ref_trajectory, REF_NU)
        assert not inconclusive
        assert checks and all(c.passed for c in checks)
        assert estimates["L_hat"] >= 1.0
        assert fits["Q"].rate >= 3.0 * REF_NU * 0.95

    def test_truncated_run_inconclusive(self, truncated_trajectory):
        checks, _, _, _, notes, inconclusive = verify_asymptotics(
            truncated_trajectory, REF_NU)
        assert inconclusive
        assert checks == []
        assert any("gate" in n for n in notes)

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


class TestVerifyReport:
    def test_reference_passes(self, ref_trajectory):
        report = verify(ref_trajectory)
        assert report.status == STATUS_PASSED
        assert report.all_passed
        assert report.a_growth_ok
        assert report.nu == pytest.approx(REF_NU, rel=1e-15)

    def test_idempotent(self, ref_trajectory):
        assert verify(ref_trajectory) == verify(ref_trajectory)

    def test_truncated_inconclusive_status(self, truncated_trajectory):
        assert verify(truncated_trajectory).status == STATUS_INCONCLUSIVE

    def test_estimates_match_constraint_limit(self, ref_trajectory):
        report = verify(ref_trajectory)
        assert report.C0_hat == pytest.approx(
            1.0 + 4.0 * math.pi * report.L_hat, rel=1e-14)

    def test_custom_tolerances_in_header(self, truncated_trajectory):
        tol = Tolerances(rate_slack=0.1)
        report = verify(truncated_trajectory, tol)
        assert report.tolerances.rate_slack == 0.1

    def test_rate_fit_windows_avoid_noise_floor(self, ref_trajectory):
        """Fitted windows stop where each series hits its numerical floor."""
        report = verify(ref_trajectory)
        cols = ref_trajectory.as_arrays()
        drift = np.abs(cols["constraint"]).max()
        w = report.fit_windows["Q"]
        i_hi = int(round(w.t_hi / 0.01))
        assert cols["Q"][i_hi] > 100.0 * 3.0 * drift
        # chi2 window must end before the freeze (chi = 0 afterwards)
        w2 = report.fit_windows["chi2"]
        assert w2.t_hi < 0.08
        assert w2.n_points >= 8

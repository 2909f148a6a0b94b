"""Adaptive stepper, events, guards, and solution-level oracles."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from rwcosmo import (CosmoState, InadmissibleInitialData, IntegratorConfig,
                     ModelParams, StepSizeUnderflow, build_state, integrate,
                     make_initial_data, step)
from rwcosmo.diagnostics import cumulative_simpson
from rwcosmo.integrator import (FIELD_FROZEN, CHI_ZERO_CROSSING, GUARD_TRIPPED,
                                _trial_step)
from rwcosmo.model import _rhs_terms

from conftest import REF_CONFIG, REF_PARAMS, REF_NU, reference_initial

#: The ten float fields of IntegratorConfig: steps, tolerances, horizon, guards.
FLOAT_FIELDS = [f.name for f in fields(IntegratorConfig) if f.type == "float"]

FOUR_PI = 4.0 * math.pi
EPS = np.finfo(float).eps

# The numpy stepper the float one replaced: the tableau as arrays and each
# stage sum a matrix product (whose summation order is the BLAS kernel's).
# It stays here as the reference for the float stepper.
_A = (
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])
_RELATIVE = np.array([False, True, False, False, True])
_TINY = 1e-300


def numpy_deriv(y, lam, mass_sq, frozen):
    du, dv, dphi, dchi, drho = _rhs_terms(y[0], y[1], y[2], y[3], y[4], lam, mass_sq)
    if frozen:
        dchi = 0.0
    return np.array([du, dv, dphi, dchi, drho])


def numpy_trial_step(y, h, params, config, frozen):
    lam, mass_sq = params.lam, params.mass_sq
    k = np.empty((7, 5))
    k[0] = numpy_deriv(y, lam, mass_sq, frozen)
    for i in range(1, 6):
        k[i] = numpy_deriv(y + h * (_A[i] @ k[:i]), lam, mass_sq, frozen)
    y1 = y + h * (_A[6] @ k[:6])
    k[6] = numpy_deriv(y1, lam, mass_sq, frozen)
    if not np.all(np.isfinite(y1)):
        return y1, math.inf, k
    err = h * (_E @ k)
    ymax = np.maximum(np.abs(y), np.abs(y1))
    scale = np.where(_RELATIVE, config.rel_tol * ymax + _TINY,
                     config.abs_tol + config.rel_tol * ymax)
    return y1, float(np.sqrt(np.mean((err / scale) ** 2))), k


def term_magnitudes(y, h, params, frozen):
    """The numpy stepper run on absolute values: every weight, state
    component and right-hand-side term replaced by its magnitude.  Returns the
    magnitudes of the terms summed into each stage, into y1 and into the
    error estimate, the scale of the rounding each may carry."""
    lam, m2 = abs(params.lam), params.mass_sq

    def f(z):
        u, v, phi, chi, rho = z
        du = 1.5 * u * u + 0.5 * lam + FOUR_PI * (0.5 * chi * chi + 0.5 * m2 * phi * phi
                                                  + rho / 3.0)
        dchi = 0.0 if frozen else 3.0 * u * chi + m2 * phi
        return np.array([du, 2.0 * u * v, chi, dchi, 4.0 * u * rho])

    y = np.abs(y)
    k = np.empty((7, 5))
    k[0] = f(y)
    for i in range(1, 6):
        k[i] = f(y + h * (np.abs(_A[i]) @ k[:i]))
    y1 = y + h * (np.abs(_A[6]) @ k[:6])
    k[6] = f(y1)
    return k, y1, h * (np.abs(_E) @ k)


def fsal_evaluations(traj):
    """RHS evaluations of an FSAL run: 6 per trial step, the first stage, and
    one more after each FieldFrozen restart (t > 0)."""
    st = traj.stats
    restarts = sum(e.kind == FIELD_FROZEN and e.t > 0.0 for e in traj.events)
    return 6 * (st.steps_accepted + st.steps_rejected) + 1 + restarts


class TestConfig:
    def test_defaults_valid(self):
        IntegratorConfig()

    @pytest.mark.parametrize("kwargs", [
        dict(rel_tol=0.0),
        dict(abs_tol=-1e-10),
        dict(h_min=0.0),
        dict(h_min=1e-2, h_init=1e-3),
        dict(h_init=1.0, h_max=0.5),
        dict(t_end=0.0),
        dict(t_end=-1.0),
        dict(sample_dt=0.0),
        dict(mode="euler"),
        dict(min_v=0.0),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_value_rejected(self, name, value):
        """inf t_end used to overflow inside integrate, and inf sample_dt gave
        a one-sample trajectory; every float field now refuses both."""
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            IntegratorConfig(**{name: value})

    def test_float_fields_stored_as_floats(self):
        assert len(FLOAT_FIELDS) == 10
        config = IntegratorConfig(**{name: np.float64(2.0) for name in ("max_abs_u", "t_end")})
        assert type(config.max_abs_u) is float and type(config.t_end) is float


class TestStep:
    def test_fixed_point_is_exact(self):
        """Zero-dynamics state: any h returns the identical state with zero
        error estimate."""
        s = CosmoState(t=0.0, u=0.0, v=1.0, phi=0.0, chi=0.0, rho=0.0)
        for h in (1e-4, 1e-2, 0.25):
            s1, err, _ = step(s, ModelParams(lam=0.0, mass=1.0), h, IntegratorConfig())
            assert (s1.u, s1.v, s1.phi, s1.chi, s1.rho) == (0.0, 1.0, 0.0, 0.0, 0.0)
            assert err == 0.0

    def test_de_sitter_frozen_point_u_constant(self):
        """Paper mode with chi clamped at 0 and rho = 0: u stays put."""
        lam, m = 1.0, 1.0
        u = math.sqrt((lam + FOUR_PI * m * m) / 3.0)
        s = CosmoState(t=0.0, u=u, v=1.0, phi=1.0, chi=0.0, rho=0.0)
        s1, _, _ = step(s, ModelParams(lam=lam, mass=m), 0.01, IntegratorConfig())
        assert abs(s1.u - u) < 1e-13
        assert s1.chi == 0.0
        assert s1.phi == 1.0

    def test_kg_mode_field_moves_at_chi_zero(self):
        lam, m = 1.0, 1.0
        u = math.sqrt((lam + FOUR_PI) / 3.0)
        s = CosmoState(t=0.0, u=u, v=1.0, phi=1.0, chi=0.0, rho=0.0)
        cfg = IntegratorConfig(mode="kg")
        s1, _, _ = step(s, ModelParams(lam=lam, mass=m), 0.01, cfg)
        assert s1.chi < 0.0

    def test_richardson_halving_ratio(self):
        """Error estimate drops by ~2^5 when h is halved (5th-order pair)."""
        data = reference_initial()
        s = CosmoState(t=0.0, u=data.u0, v=1.0, phi=1.0, chi=0.1, rho=0.05)
        cfg = IntegratorConfig()
        _, e1, _ = step(s, REF_PARAMS, 0.02, cfg)
        _, e2, _ = step(s, REF_PARAMS, 0.01, cfg)
        assert 24.0 <= e1 / e2 <= 40.0

    def test_rejects_h_outside_bounds(self):
        s = CosmoState(t=0.0, u=0.0, v=1.0, phi=0.0, chi=0.0, rho=0.0)
        cfg = IntegratorConfig()
        with pytest.raises(ValueError):
            step(s, REF_PARAMS, cfg.h_max * 2.0, cfg)
        with pytest.raises(ValueError):
            step(s, REF_PARAMS, cfg.h_min / 2.0, cfg)

    def test_suggested_h_is_clamped_growth(self):
        """Suggestion never grows h by more than 5x."""
        s = CosmoState(t=0.0, u=0.1, v=1.0, phi=0.1, chi=0.01, rho=0.0)
        _, _, h_next = step(s, REF_PARAMS, 0.01, IntegratorConfig())
        assert h_next <= 0.05 + 1e-15


class TestTrialStep:
    @pytest.mark.parametrize("frozen", [False, True])
    def test_agrees_with_numpy_stepper(self, frozen):
        """y1, all seven stages and the error norm agree with the numpy
        stepper to 16 eps times the magnitude of the summed terms."""
        rng = np.random.default_rng(20130 + frozen)
        for _ in range(200):
            y = rng.uniform([-2.0, 0.1, -2.0, -1.0, 0.0], [3.0, 2.0, 2.0, 1.0, 1.0])
            params = ModelParams(lam=rng.uniform(-1.0, 3.0), mass=rng.uniform(0.0, 2.0))
            tol = 10.0 ** rng.uniform(-12.0, -4.0)
            config = IntegratorConfig(rel_tol=tol, abs_tol=tol)
            h = 10.0 ** rng.uniform(-4.0, math.log10(0.25))
            ref_y1, ref_norm, ref_k = numpy_trial_step(y, h, params, config, frozen)
            k1 = _rhs_terms(*y.tolist(), params.lam, params.mass_sq, frozen)
            y1, norm, k = _trial_step(y.tolist(), k1, h, params, config, frozen)
            mag_k, mag_y1, mag_err = term_magnitudes(y, h, params, frozen)
            assert np.all(np.abs(np.array(k) - ref_k) <= 16.0 * EPS * mag_k)
            assert np.all(np.abs(np.array(y1) - ref_y1) <= 16.0 * EPS * mag_y1)
            ymax = np.maximum(np.abs(y), np.abs(ref_y1))
            scale = np.where(_RELATIVE, tol * ymax + _TINY, tol + tol * ymax)
            mag_norm = math.sqrt(np.mean((mag_err / scale) ** 2))
            assert abs(norm - ref_norm) <= 16.0 * EPS * mag_norm

    @pytest.mark.parametrize("y", [
        [1e200, 1.0, 1.0, 0.1, 0.05],  # u * u overflows
        [0.5, 1.0, math.nan, 0.1, 0.05],
        [0.5, 1.0, 1.0, math.inf, 0.05],
    ])
    def test_non_finite_step_has_infinite_norm(self, y):
        """Float overflow yields inf/nan without raising, and a non-finite y1
        reads as an infinitely bad step."""
        k1 = _rhs_terms(*y, REF_PARAMS.lam, REF_PARAMS.mass_sq)
        y1, norm, _ = _trial_step(y, k1, 0.01, REF_PARAMS, IntegratorConfig(), False)
        assert not all(map(math.isfinite, y1))
        assert norm == math.inf


class TestFsalCount:
    @pytest.mark.parametrize("run", ["rejecting", "reference", "kg", "frozen_at_start"])
    def test_rhs_evaluations(self, run, request, ref_initial):
        """rhs_evaluations = 6*(accepted + rejected) + 1 + restarts on every
        branch: rejected steps reuse their first stage, accepted ones pass
        their last stage on, a FieldFrozen restart evaluates it afresh."""
        if run == "rejecting":
            cfg = replace(REF_CONFIG, h_init=0.25, t_end=1.0)
            traj = integrate(ref_initial, REF_PARAMS, cfg)
            assert traj.stats.steps_rejected > 0
        elif run == "reference":
            traj = request.getfixturevalue("ref_trajectory")
            assert [e.kind for e in traj.events] == [FIELD_FROZEN] and traj.events[0].t > 0.0
        elif run == "kg":
            traj = request.getfixturevalue("kg_trajectory")
            assert {e.kind for e in traj.events} == {CHI_ZERO_CROSSING}
        else:
            params = ModelParams(lam=1.0, mass=1.0)
            data = make_initial_data(params, 1.0, 1.0, 0.0, 0.05, "expanding")
            traj = integrate(data, params, replace(REF_CONFIG, t_end=1.0))
            assert [(e.kind, e.t) for e in traj.events] == [(FIELD_FROZEN, 0.0)]
        assert traj.stats.rhs_evaluations == fsal_evaluations(traj)


class TestIntegrateReference:
    def test_grid_and_first_sample(self, ref_trajectory, ref_initial):
        cols = ref_trajectory.as_arrays()
        t = cols["t"]
        assert t[0] == 0.0
        assert np.all(np.diff(t) > 0.0)
        assert len(ref_trajectory.t) == 1001
        assert t[-1] == REF_CONFIG.t_end
        assert (cols["u"][0], cols["phi"][0], cols["chi"][0], cols["rho"][0]) == (
            ref_initial.u0, ref_initial.phi0, ref_initial.chi0, ref_initial.rho0)

    def test_constraint_drift_within_budget(self, ref_trajectory):
        cols = ref_trajectory.as_arrays()
        assert np.abs(cols["constraint"]).max() <= 1e-7

    def test_theorem1_bounds(self, ref_trajectory, ref_initial):
        cols = ref_trajectory.as_arrays()
        eps = 10.0 * REF_CONFIG.rel_tol * ref_initial.u0
        u = cols["u"]
        assert np.diff(u).max() <= eps
        assert u.min() >= REF_NU
        assert u.max() <= ref_initial.u0 + eps
        v = cols["v"]
        assert v.min() > 0.0
        assert v.max() <= v[0]

    def test_field_freezing_event(self, ref_trajectory):
        frozen = [e for e in ref_trajectory.events if e.kind == FIELD_FROZEN]
        assert len(frozen) == 1
        assert 0.05 < frozen[0].t < 0.1
        cols = ref_trajectory.as_arrays()
        after = cols["t"] > frozen[0].t
        assert np.all(cols["chi"][after] == 0.0)
        assert np.all(cols["phi"][after] == cols["phi"][after][0])

    def test_energy_monotone(self, ref_trajectory, ref_initial):
        cols = ref_trajectory.as_arrays()
        eps = 10.0 * REF_CONFIG.rel_tol * ref_initial.u0
        assert np.diff(cols["T00"]).max() <= eps

    def test_phi_nondecreasing(self, ref_trajectory):
        cols = ref_trajectory.as_arrays()
        assert np.diff(cols["phi"]).min() >= -1e-12

    def test_rho_quadrature_oracle(self, ref_trajectory, ref_initial):
        """rho(t) = rho0 * exp(-4 int u) with Simpson quadrature on samples."""
        cols = ref_trajectory.as_arrays()
        integral = cumulative_simpson(cols["u"], 0.01)
        oracle = ref_initial.rho0 * np.exp(-4.0 * integral)
        dev = np.abs(cols["rho"] - oracle).max() / ref_initial.rho0
        assert dev <= 1e-6

    def test_v_quadrature_identity(self, ref_trajectory):
        cols = ref_trajectory.as_arrays()
        integral = cumulative_simpson(cols["u"], 0.01)
        dev = np.abs(cols["v"] * np.exp(2.0 * integral) - cols["v"][0]).max() / cols["v"][0]
        assert dev <= 1e-6

    def test_determinism(self, ref_trajectory, ref_initial):
        again = integrate(ref_initial, REF_PARAMS, REF_CONFIG)
        cols, ref_cols = again.as_arrays(), ref_trajectory.as_arrays()
        for name in ref_cols:
            assert cols[name].tobytes() == ref_cols[name].tobytes(), name
        assert again.events == ref_trajectory.events

    def test_columns_read_only(self, ref_trajectory, truncated_trajectory):
        """as_arrays hands out arrays that cannot write into the trajectory,
        and comparing trajectories (by identity) never raises."""
        cols = ref_trajectory.as_arrays()
        for name in ("t", "u", "Q"):
            with pytest.raises(ValueError):
                cols[name][0] = 1.0
        with pytest.raises(ValueError):
            ref_trajectory.states[0, 0] = 1.0
        assert ref_trajectory != truncated_trajectory

    def test_stats_populated(self, ref_trajectory):
        st = ref_trajectory.stats
        assert st.steps_accepted > 0
        assert st.rhs_evaluations == fsal_evaluations(ref_trajectory)


class TestInvariantSubspaces:
    def test_zero_rho_stays_exactly_zero(self):
        params = ModelParams(lam=1.0, mass=1.0)
        data = make_initial_data(params, 1.0, 1.0, 0.1, 0.0, "expanding")
        traj = integrate(data, params, replace(REF_CONFIG, t_end=2.0))
        cols = traj.as_arrays()
        assert np.all(cols["rho"] == 0.0)

    def test_radiation_scaling(self, radiation_trajectory):
        """Pure fluid: rho * a^4 = rho / v^2 is conserved to 1e-8 relative."""
        cols = radiation_trajectory.as_arrays()
        inv = cols["rho"] / cols["v"] ** 2
        assert np.abs(inv / inv[0] - 1.0).max() <= 1e-8

    def test_radiation_needs_override(self):
        """m = phi0 = 0 fails the lambda bound (0 > 0 is false)."""
        params = ModelParams(lam=0.0, mass=0.0)
        data = make_initial_data(params, 1.0, 0.0, 0.0, 1.0, "expanding")
        with pytest.raises(InadmissibleInitialData):
            integrate(data, params, replace(REF_CONFIG, t_end=5.0))


class TestModesAndGuards:
    def test_kg_mode_logs_crossing_and_goes_negative(self, kg_trajectory):
        kinds = [e.kind for e in kg_trajectory.events]
        assert CHI_ZERO_CROSSING in kinds
        assert FIELD_FROZEN not in kinds
        cols = kg_trajectory.as_arrays()
        assert cols["chi"].min() < 0.0

    def test_kg_and_paper_agree_before_crossing(self, ref_trajectory, kg_trajectory):
        """The two continuations are the same trajectory until chi hits 0."""
        ref = ref_trajectory.as_arrays()
        kg = kg_trajectory.as_arrays()
        pre = ref["t"] < 0.07
        np.testing.assert_allclose(ref["u"][pre], kg["u"][pre], rtol=1e-12)
        np.testing.assert_allclose(ref["phi"][pre], kg["phi"][pre], rtol=1e-12)

    def test_contracting_rejected_without_override(self):
        params = ModelParams(lam=1.0, mass=1.0)
        data = make_initial_data(params, 1.0, 1.0, 0.1, 0.05, "contracting")
        with pytest.raises(InadmissibleInitialData):
            integrate(data, params, REF_CONFIG)

    def test_contracting_with_override_trips_guard(self):
        """Collapse blows up u; the guard aborts with a partial trajectory."""
        params = ModelParams(lam=1.0, mass=1.0)
        data = make_initial_data(params, 1.0, 1.0, 0.1, 0.05, "contracting")
        cfg = replace(REF_CONFIG, override_admissibility=True)
        traj = integrate(data, params, cfg)
        assert traj.guard_tripped
        assert 0 < len(traj.t) < 1001
        trip = [e for e in traj.events if e.kind == GUARD_TRIPPED][0]
        assert trip.t < cfg.t_end

    def test_inconsistent_data_rejected(self):
        """Explicit u0 that breaks the constraint is refused outright."""
        from rwcosmo import InitialData
        params = ModelParams(lam=1.0, mass=1.0)
        data = InitialData(a0=1.0, u0=5.0, phi0=1.0, chi0=0.1, rho0=0.05)
        with pytest.raises(ValueError, match="constraint"):
            integrate(data, params, REF_CONFIG)

    def test_immediate_freeze_for_zero_chi0(self):
        """chi0 = 0 with m^2 phi0 > 0 freezes at t = 0 in paper mode."""
        params = ModelParams(lam=1.0, mass=1.0)
        data = make_initial_data(params, 1.0, 1.0, 0.0, 0.05, "expanding")
        traj = integrate(data, params, replace(REF_CONFIG, t_end=1.0))
        frozen = [e for e in traj.events if e.kind == FIELD_FROZEN]
        assert len(frozen) == 1 and frozen[0].t == 0.0
        cols = traj.as_arrays()
        assert np.all(cols["chi"] == 0.0)
        assert np.all(cols["phi"] == 1.0)

    def test_zero_chi0_pushed_up_is_not_frozen(self):
        """chi0 = 0 with m^2 phi0 < 0: the field equation lifts chi, so
        paper mode does not clamp it, and integrate's first step is step()'s."""
        params = ModelParams(lam=1.0, mass=1.0)
        data = make_initial_data(params, 1.0, -0.5, 0.0, 0.05, "expanding")
        cfg = replace(REF_CONFIG, rel_tol=1e-8, abs_tol=1e-8, h_init=0.01,
                      t_end=0.1, override_admissibility=True)
        traj = integrate(data, params, cfg)
        assert traj.events == ()
        s1, _, _ = step(build_state(data), params, 0.01, cfg)
        assert traj.t[1] == s1.t
        assert tuple(traj.states[1]) == (s1.u, s1.v, s1.phi, s1.chi, s1.rho)
        assert s1.chi > 0.0

    def test_underflow_on_hopeless_tolerance(self):
        """h_min close to h_max leaves no room to resolve the dynamics."""
        params = ModelParams(lam=1.0, mass=1.0)
        data = make_initial_data(params, 1.0, 1.0, 0.1, 0.05, "expanding")
        cfg = replace(REF_CONFIG, rel_tol=1e-14, abs_tol=1e-14,
                      h_min=0.05, h_init=0.1, h_max=0.25, t_end=1.0)
        with pytest.raises(StepSizeUnderflow):
            integrate(data, params, cfg)


class TestDenseOutputQuality:
    def test_samples_match_direct_integration(self, ref_trajectory, ref_initial):
        """Interpolated samples agree with a run stopped exactly there."""
        target = 0.34  # a grid time generic for the reference step sequence
        cfg = replace(REF_CONFIG, t_end=target, sample_dt=target)
        direct = integrate(ref_initial, REF_PARAMS, cfg)
        cols = ref_trajectory.as_arrays()
        i = int(round(target / 0.01))
        assert cols["t"][i] == pytest.approx(target, abs=1e-12)
        np.testing.assert_allclose(
            [cols["u"][i], cols["v"][i], cols["phi"][i], cols["chi"][i], cols["rho"][i]],
            direct.states[-1], rtol=1e-8, atol=1e-12)

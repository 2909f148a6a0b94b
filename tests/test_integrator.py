"""Adaptive stepper, events, guards, and solution-level oracles."""

import math
import tracemalloc
from array import array
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from rwcosmo import (CosmoState, InadmissibleInitialData, IntegratorConfig,
                     ModelParams, StepSizeUnderflow, build_state, integrate,
                     make_initial_data, step)
from rwcosmo import integrator
from rwcosmo.diagnostics import cumulative_simpson
from rwcosmo.initial import nu_rate
from rwcosmo.integrator import (FIELD_FROZEN, CHI_ZERO_CROSSING, GUARD_TRIPPED, MAX_SAMPLES,
                                IntegrationStats, frozen_tail, sample_times,
                                _dense_samples, _trial_step, _A21, _A31, _A32, _A41, _A42, _A43,
                                _A51, _A52, _A53, _A54, _A61, _A62, _A63, _A64, _A65,
                                _B1, _B3, _B4, _B5, _B6, _E1, _E3, _E4, _E5, _E6, _E7)
from rwcosmo.model import EIGHT_PI, _rhs_terms

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


def zip_trial_step(y, k1, h, params, config, frozen):
    """The float stepper as first written, one zip per sum; the straight-line
    _trial_step must reproduce it bit for bit."""
    lam, mass_sq = params.lam, params.mass_sq
    k2 = _rhs_terms(*[y0 + h * (_A21 * a) for y0, a in zip(y, k1)],
                    lam, mass_sq, frozen)
    k3 = _rhs_terms(*[y0 + h * (_A31 * a + _A32 * b)
                      for y0, a, b in zip(y, k1, k2)], lam, mass_sq, frozen)
    k4 = _rhs_terms(*[y0 + h * (_A41 * a + _A42 * b + _A43 * c)
                      for y0, a, b, c in zip(y, k1, k2, k3)], lam, mass_sq, frozen)
    k5 = _rhs_terms(*[y0 + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
                      for y0, a, b, c, d in zip(y, k1, k2, k3, k4)],
                    lam, mass_sq, frozen)
    k6 = _rhs_terms(*[y0 + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
                      for y0, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)],
                    lam, mass_sq, frozen)
    y1 = [y0 + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * f)
          for y0, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)]
    k7 = _rhs_terms(*y1, lam, mass_sq, frozen)
    k = (k1, k2, k3, k4, k5, k6, k7)
    if not all(map(math.isfinite, y1)):
        return y1, math.inf, k
    rel_tol, abs_tol = config.rel_tol, config.abs_tol
    floors = (abs_tol, _TINY, abs_tol, abs_tol, _TINY)
    total = 0.0
    for y0, y0_new, a, c, d, e, f, g, floor in zip(y, y1, k1, k3, k4, k5, k6, k7, floors):
        err = h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * f + _E7 * g)
        q = err / (rel_tol * max(abs(y0), abs(y0_new)) + floor)
        total += q * q
    return y1, math.sqrt(total / 5), k


def float_bits(y1, norm, k):
    """A trial step's result as hex strings, equal only when bit-identical."""
    return [x.hex() for x in y1], norm.hex(), [[x.hex() for x in stage] for stage in k]


def random_trial_inputs(frozen):
    """200 random (y, params, config, h) trial-step inputs per frozen value."""
    rng = np.random.default_rng(20130 + frozen)
    for _ in range(200):
        y = rng.uniform([-2.0, 0.1, -2.0, -1.0, 0.0], [3.0, 2.0, 2.0, 1.0, 1.0])
        params = ModelParams(lam=rng.uniform(-1.0, 3.0), mass=rng.uniform(0.0, 2.0))
        tol = 10.0 ** rng.uniform(-12.0, -4.0)
        config = IntegratorConfig(rel_tol=tol, abs_tol=tol)
        h = 10.0 ** rng.uniform(-4.0, math.log10(0.25))
        yield y, params, config, h


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


def fsal_evaluations(traj, restarts=0):
    """RHS evaluations of an FSAL run: 6 per trial step, the first stage, and
    one more per restart, where a run steps on from a FieldFrozen at t > 0."""
    st = traj.stats
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

    def test_sample_count_bounded(self):
        """A grid of more than MAX_SAMPLES samples is refused before anything
        is allocated: t_end = 10 at sample_dt = 1e-9 would be 80 GB."""
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="more than MAX_SAMPLES = 1000000 samples"):
                IntegratorConfig(t_end=10.0, sample_dt=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert sample_times(IntegratorConfig(t_end=MAX_SAMPLES - 1.0, sample_dt=1.0)).size \
            == MAX_SAMPLES
        with pytest.raises(ValueError, match="MAX_SAMPLES"):
            IntegratorConfig(t_end=float(MAX_SAMPLES), sample_dt=1.0)

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
        for y, params, config, h in random_trial_inputs(frozen):
            tol = config.rel_tol
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

    @pytest.mark.parametrize("frozen", [False, True])
    def test_bit_identical_to_zip_stepper(self, frozen):
        """y1, the error norm and all seven stages equal the zip stepper's
        bit for bit: same tableau, same left-to-right sums, same norm."""
        for y, params, config, h in random_trial_inputs(frozen):
            y = y.tolist()
            k1 = _rhs_terms(*y, params.lam, params.mass_sq, frozen)
            assert float_bits(*_trial_step(y, k1, h, params, config, frozen)) == \
                float_bits(*zip_trial_step(y, k1, h, params, config, frozen))

    @pytest.mark.parametrize("y", [
        [1e200, 1.0, 1.0, 0.1, 0.05],  # u * u overflows
        [0.5, 1.0, math.nan, 0.1, 0.05],
        [0.5, 1.0, 1.0, math.inf, 0.05],
        [1e200, 1.0, 1.0, 0.0, 0.05],  # u * u overflows on a frozen field
    ])
    def test_non_finite_step_has_infinite_norm(self, y):
        """Float overflow yields inf/nan without raising, and a non-finite y1
        reads as an infinitely bad step; at chi = 0.0 the frozen step."""
        frozen = y[3] == 0.0
        k1 = _rhs_terms(*y, REF_PARAMS.lam, REF_PARAMS.mass_sq, frozen)
        result = _trial_step(y, k1, 0.01, REF_PARAMS, IntegratorConfig(), frozen)
        y1, norm, _ = result
        assert not all(map(math.isfinite, y1))
        assert norm == math.inf
        assert float_bits(*result) == float_bits(
            *zip_trial_step(y, k1, 0.01, REF_PARAMS, IntegratorConfig(), frozen))


class TestFsalCount:
    @pytest.mark.parametrize("run", ["rejecting", "reference", "stepped_reference", "kg",
                                     "frozen_at_start"])
    def test_rhs_evaluations(self, run, request, ref_initial, stepped):
        """rhs_evaluations = 6*(accepted + rejected) + 1 + restarts on every
        branch: rejected steps reuse their first stage, accepted ones pass
        their last stage on, a FieldFrozen restart evaluates it afresh.  The
        reference run takes the exact tail at the freeze and so never
        restarts; stepped through its frozen phase it restarts once."""
        restarts = 0
        if run == "rejecting":
            cfg = replace(REF_CONFIG, h_init=0.25, t_end=1.0)
            traj = integrate(ref_initial, REF_PARAMS, cfg)
            assert traj.stats.steps_rejected > 0
        elif run == "reference":
            traj = request.getfixturevalue("ref_trajectory")
            assert [e.kind for e in traj.events] == [FIELD_FROZEN] and traj.events[0].t > 0.0
            assert traj.stats == IntegrationStats(19, 0, 115)
        elif run == "stepped_reference":
            with stepped():
                traj = integrate(ref_initial, REF_PARAMS, REF_CONFIG)
            assert traj.stats == IntegrationStats(1956, 0, 11738)
            restarts = 1
        elif run == "kg":
            traj = request.getfixturevalue("kg_trajectory")
            assert {e.kind for e in traj.events} == {CHI_ZERO_CROSSING}
        else:
            params = ModelParams(lam=1.0, mass=1.0)
            data = make_initial_data(params, 1.0, 1.0, 0.0, 0.05, "expanding")
            traj = integrate(data, params, replace(REF_CONFIG, t_end=1.0))
            assert [(e.kind, e.t) for e in traj.events] == [(FIELD_FROZEN, 0.0)]
        assert traj.stats.rhs_evaluations == fsal_evaluations(traj, restarts)


def frozen_tail_loop(t_f, y_f, params, times):
    """The closed form of frozen_tail one sample at a time, on floats with
    math-module calls: the oracle of its bits."""
    _, v_f, phi_f, _, rho_f = y_f
    u_inf = nu_rate(params, phi_f)
    rows = []
    if rho_f == 0.0:
        for t in times:
            rows.append((u_inf, v_f * math.exp(-2.0 * u_inf * (t - t_f)), phi_f, 0.0, 0.0))
    else:
        s_f = math.asinh(u_inf * math.sqrt(3.0 / EIGHT_PI) / math.sqrt(rho_f))
        em_f = math.expm1(-2.0 * s_f)
        for t in times:
            d = 2.0 * u_inf * (t - t_f)
            em = math.expm1(-2.0 * (s_f + d))
            r = math.exp(-d) * (em_f / em)
            rows.append((-u_inf * (2.0 + em) / em, v_f * r, phi_f, 0.0, rho_f * r * r))
    return np.array(rows, dtype=float).reshape(len(rows), 5)


class TestFrozenTail:
    @given(lam=st.floats(-10.0, 10.0), mass=st.floats(0.0, 5.0), phi_f=st.floats(-5.0, 5.0),
           v_f=st.floats(1e-300, 1e3), rho_f=st.one_of(st.just(0.0), st.floats(1e-12, 1e6)),
           t_f=st.floats(0.0, 100.0), n=st.integers(0, 300), width=st.floats(0.0, 40.0),
           late=st.lists(st.floats(0.0, 1e6), max_size=3))
    @example(lam=1.0, mass=1.0, phi_f=1.0, v_f=0.5, rho_f=0.05, t_f=0.08, n=0, width=1.0,
             late=[])
    @example(lam=1.0, mass=1.0, phi_f=1.0, v_f=0.5, rho_f=0.0, t_f=0.08, n=50, width=10.0,
             late=[1e6])
    @example(lam=1.0, mass=1.0, phi_f=1.0, v_f=0.5, rho_f=0.05, t_f=0.0, n=1001, width=20.0,
             late=[200.0, 1e6])
    def test_bits_match_per_sample_loop(self, lam, mass, phi_f, v_f, rho_f, t_f, n, width,
                                        late):
        """Whole-array evaluation gives each sample the bits of the
        one-sample float formula: n times spread over width/u_inf after t_f
        (v falls by up to exp(-2*width)), then late ones up to 1e6 past it;
        rho_f = 0 and no times at all included."""
        params = ModelParams(lam=lam, mass=mass)
        u_inf = nu_rate(params, phi_f)
        assume(u_inf is not None)
        times = (t_f + np.linspace(0.0, width / u_inf, n)).tolist() + [t_f + d for d in late]
        y_f = [1.0, v_f, phi_f, 0.0, rho_f]
        got = frozen_tail(t_f, y_f, params, np.array(times))
        assert got.shape == (len(times), 5)
        assert got.tobytes() == frozen_tail_loop(t_f, y_f, params, times).tobytes()

    @pytest.mark.parametrize("t_end,sample_dt", [(10.0, 0.01), (0.105, 0.01), (0.3, 0.1),
                                                 (0.005, 0.01)])
    def test_sample_times_are_integrate_grid(self, ref_initial, t_end, sample_dt):
        """integrate's t column is sample_times bit for bit: k*sample_dt, the
        last one snapped to t_end (0.3 for 3*0.1 = 0.30000000000000004)."""
        cfg = replace(REF_CONFIG, t_end=t_end, sample_dt=sample_dt)
        traj = integrate(ref_initial, REF_PARAMS, cfg)
        assert traj.t.tolist() == sample_times(cfg).tolist()

    def test_stop_at_freeze(self, monkeypatch, ref_initial, stepped):
        """The reference run stops stepping at FieldFrozen after 19 of the
        1,956 steps it takes stepped through its frozen phase: its samples up
        to there are the stepped run's bit for bit, and the later ones are
        frozen_tail's from the clamped state, evaluated once with the t_end
        probe."""
        with stepped():
            plain = integrate(ref_initial, REF_PARAMS, REF_CONFIG)
        assert plain.stats == IntegrationStats(1956, 0, 11738)
        calls = []

        def recorded(t_f, y_f, params, times):
            calls.append((t_f, y_f, times))
            return frozen_tail(t_f, y_f, params, times)

        monkeypatch.setattr(integrator, "frozen_tail", recorded)
        joined = integrate(ref_initial, REF_PARAMS, REF_CONFIG)
        assert joined.events == plain.events
        assert joined.stats == IntegrationStats(19, 0, 6 * 19 + 1)
        assert joined.t.tobytes() == plain.t.tobytes()
        [(t_f, y_f, times)] = calls
        assert t_f == joined.events[0].t and y_f[3] == 0.0
        n = int(np.sum(joined.t <= t_f))
        assert 0 < n < joined.t.size
        assert times.tolist() == joined.t[n:].tolist() + [REF_CONFIG.t_end]
        assert joined.states[:n].tobytes() == plain.states[:n].tobytes()
        assert joined.states[n:].tobytes() == \
            frozen_tail(t_f, y_f, REF_PARAMS, joined.t[n:]).tobytes()

    @pytest.mark.parametrize("rho0", [0.05, 2.0, 0.0])
    def test_matches_tight_integration(self, rho0, stepped):
        """From data frozen at t = 0 (chi0 = 0), integrate is the closed form
        itself, and it agrees with the frozen phase stepped at tol 1e-13 to
        1e-10 relative."""
        data = make_initial_data(REF_PARAMS, a0=1.0, phi0=1.0, chi0=0.0, rho0=rho0,
                                 branch="expanding")
        cfg = replace(REF_CONFIG, rel_tol=1e-13, abs_tol=1e-13, t_end=3.0)
        with stepped():
            traj = integrate(data, REF_PARAMS, cfg)
        assert traj.events[0].kind == FIELD_FROZEN and traj.events[0].t == 0.0
        assert traj.stats.steps_accepted > 0
        tail = frozen_tail(0.0, traj.states[0].tolist(), REF_PARAMS, traj.t.tolist())
        assert tail[0, 1:].tolist() == traj.states[0, 1:].tolist()
        np.testing.assert_allclose(tail, traj.states, rtol=1e-10, atol=0.0)
        joined = integrate(data, REF_PARAMS, cfg)
        assert joined.stats == IntegrationStats(0, 0, 1)
        assert joined.states[1:].tobytes() == tail[1:].tobytes()

    def test_rho_zero_is_de_sitter(self):
        """rho_f = 0: u = u_inf and v = v_f*exp(-2 u_inf (t - t_f))."""
        u_inf = math.sqrt((1.0 + 4.0 * math.pi * 1.5 ** 2) / 3.0)
        tail = frozen_tail(0.5, [3.0, 0.25, 1.5, 0.0, 0.0], REF_PARAMS, [0.5, 1.0, 2.5])
        assert tail[:, 0].tolist() == [u_inf] * 3
        assert tail[:, 4].tolist() == [0.0] * 3
        assert tail[:, 1].tolist() == [0.25 * math.exp(-2.0 * u_inf * d) for d in (0.0, 0.5, 2.0)]

    def test_late_times_do_not_overflow(self):
        """sinh(s) overflows near s = 710; the ratio through exp and expm1
        does not: u tends to u_inf and v, rho underflow to 0."""
        u_inf = math.sqrt((1.0 + 4.0 * math.pi) / 3.0)
        tail = frozen_tail(0.0, [5.0, 1.0, 1.0, 0.0, 0.05], REF_PARAMS, [200.0, 1e6])
        assert tail[:, 0].tolist() == [u_inf, u_inf]
        assert tail[:, 1].tolist() == tail[:, 4].tolist() == [0.0, 0.0]

    def test_undefined_limit_rejected(self):
        with pytest.raises(ValueError, match="no frozen limit"):
            frozen_tail(0.0, [1.0, 1.0, 1.0, 0.0, 0.05], ModelParams(lam=-20.0, mass=1.0), [1.0])


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

    def test_t_is_the_config_grid(self, ref_trajectory):
        """t is the first len(states) points of sample_times(config), read-only;
        more state rows than the grid has samples are refused."""
        short = replace(ref_trajectory, states=ref_trajectory.states[:3])
        assert short.t.tolist() == sample_times(REF_CONFIG)[:3].tolist()
        assert not short.t.flags.writeable
        longer = np.vstack([ref_trajectory.states, ref_trajectory.states[-1:]])
        with pytest.raises(ValueError, match="1002 state rows, but 1001 grid samples"):
            replace(ref_trajectory, states=longer)

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

    def test_kg_crossings_alternate(self):
        """A heavier field oscillates: kg mode logs 9 crossings, downward
        first (t ~ 0.0927), then upward (t ~ 1.2639), and so on, and chi
        changes sign in that direction between the samples around each."""
        params = ModelParams(lam=1.0, mass=3.0)
        data = make_initial_data(params, a0=1.0, phi0=0.1, chi0=0.1, rho0=0.05)
        traj = integrate(data, params, IntegratorConfig(mode="kg"))
        assert [e.kind for e in traj.events] == [CHI_ZERO_CROSSING] * 9
        assert [e.detail for e in traj.events] == \
            ["downward crossing", "upward crossing"] * 4 + ["downward crossing"]
        assert traj.events[0].t == pytest.approx(0.0927, abs=1e-4)
        assert traj.events[1].t == pytest.approx(1.2639, abs=1e-4)
        chi = traj.as_arrays()["chi"]
        for event in traj.events:
            i = int(np.searchsorted(traj.t, event.t))
            sign = 1.0 if event.detail == "downward crossing" else -1.0
            assert sign * chi[i - 1] > 0.0 > sign * chi[i], event

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


def _sample_trip(t_sample, row):
    return (f"sample at t = {t_sample} violated state invariants "
            f"(finite, v > 0, rho >= 0): {row}")


class TestSampleGuard:
    """A grid sample that breaks the state invariants (finite, v > 0,
    rho >= 0) while its step's ends pass.  No real run found does this, so
    the quartic's k7 weight _D7 is scaled: the interpolant then bulges
    between the ends of a step.  The run must stop at the step holding the
    first bad sample, with that step's counts and the events logged before
    it, whatever the steps after it did.  The pins are those of the
    per-sample dense output that the vectorized pass replaced."""

    @staticmethod
    def pins(traj):
        return (traj.t.size, traj.t[-1], [(e.kind, e.t, e.detail) for e in traj.events],
                (traj.stats.steps_accepted, traj.stats.steps_rejected,
                 traj.stats.rhs_evaluations))

    @pytest.mark.parametrize("mode,crossing,trip_t,row,stats", [
        ("paper", (FIELD_FROZEN, "field velocity reached zero; phi frozen at 1.00349947639"),
         0.21082375295329955, [2.1193991679094157, 0.01694746500315719, 1.0034994763894627,
                               0.0, -0.007221770733731252], (46, 0, 278)),
        ("kg", (CHI_ZERO_CROSSING, "downward crossing"),
         0.21078125862669952, [2.0955173185013707, 0.05014622054283058, 0.9782940675754566,
                               -0.1753033537781239, -0.005975027996899668], (45, 0, 271)),
    ])
    def test_trip_after_crossing(self, monkeypatch, ref_initial, stepped, mode, crossing,
                                 trip_t, row, stats):
        """The third sample (t = 0.21) breaks rho >= 0 in a step after chi's
        zero crossing: the trip is logged at that step's end.  In paper mode
        that step lies in the frozen phase, so the run steps through it."""
        monkeypatch.setattr(integrator, "_D7", integrator._D7 * 1000.0)
        cfg = replace(REF_CONFIG, mode=mode, sample_dt=0.07)
        kind, detail = crossing
        with stepped():
            traj = integrate(ref_initial, REF_PARAMS, cfg)
        assert self.pins(traj) == (
            3, 0.14, [(kind, 0.07546646576958942, detail),
                      (GUARD_TRIPPED, trip_t, _sample_trip(0.21, row))], stats)

    def test_trip_in_crossing_step(self, monkeypatch, ref_initial, stepped):
        """A bad sample before chi's zero crossing in the crossing step (the
        crossing pinned at theta = 0.9) is logged at the crossing, and the
        field does not freeze: the tail taken at the freeze is dropped, and
        the run is the one stepped through the frozen phase."""
        monkeypatch.setattr(integrator, "_D7", integrator._D7 * 1e4)
        monkeypatch.setattr(integrator, "_locate_crossing", lambda *args: 0.9)
        cfg = replace(REF_CONFIG, sample_dt=0.0779)
        want = (1, 0.0, [(GUARD_TRIPPED, 0.07984782624443296, _sample_trip(0.0779, [
            -0.8430702240562344, -21.726716372176043, 0.9759909771868477, -7.174358955342312,
            -1.5495711031471464]))], (19, 0, 115))
        assert self.pins(integrate(ref_initial, REF_PARAMS, cfg)) == want
        with stepped():
            assert self.pins(integrate(ref_initial, REF_PARAMS, cfg)) == want

    def test_negative_rho_at_freeze_steps_on(self, monkeypatch, ref_initial, stepped):
        """The same crossing with no sample before it: the clamped state has
        rho < 0, which has no closed form, so the run steps on from the
        freeze to the stepped run's guard trip instead of raising."""
        monkeypatch.setattr(integrator, "_D7", integrator._D7 * 1e4)
        monkeypatch.setattr(integrator, "_locate_crossing", lambda *args: 0.9)
        cfg = replace(REF_CONFIG, sample_dt=0.2)
        want = (1, 0.0, [(FIELD_FROZEN, 0.07984782624443296,
                          "field velocity reached zero; phi frozen at 0.999932725784"),
                         (GUARD_TRIPPED, 0.08477962471297153, "v = -2.16605 fell below 1e-300")],
                (20, 0, 122))
        assert self.pins(integrate(ref_initial, REF_PARAMS, cfg)) == want
        with stepped():
            assert self.pins(integrate(ref_initial, REF_PARAMS, cfg)) == want

    @pytest.mark.parametrize("max_abs_u", [1e100, 1e3])
    def test_trip_before_later_failure(self, monkeypatch, max_abs_u):
        """The run stops at a bad sample at t = 0.04 even though the steps
        after it go on to a StepSizeUnderflow (max_abs_u = 1e100) or to the
        |u| guard (1e3) at t = 0.80: no raise, no later event, and the
        rejected steps after it are not counted."""
        params = ModelParams(lam=-1.0, mass=0.0)
        data = make_initial_data(params, 1.0, 0.1, 0.1, 0.05, "contracting")
        config = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-8, t_end=10.0, sample_dt=0.01,
                                  override_admissibility=True, max_abs_u=max_abs_u)
        if max_abs_u == 1e100:
            with pytest.raises(StepSizeUnderflow):
                integrate(data, params, config)
        else:
            assert self.pins(integrate(data, params, config)) == (
                81, 0.8, [(GUARD_TRIPPED, 0.8018132875056697, "|u| = 1030.22 exceeded 1000")],
                (133, 0, 799))
        monkeypatch.setattr(integrator, "_D7", integrator._D7 * -100.0)
        assert self.pins(integrate(data, params, config)) == (
            4, 0.03, [(GUARD_TRIPPED, 0.06774022532417254, _sample_trip(0.04, [
                0.4421332551409484, 0.3320103723917067, 0.019888214809044027,
                -0.002974708095073192, -0.02055069004028532]))], (5, 0, 31))


class TestDenseSamples:
    def test_step_end_and_rho_jitter(self):
        """At theta = 1 a sample is the step's y1 itself, except on a step
        whose samples end at a chi crossing, where it is the quartic's value
        (here y0 + (y1 - y0), which rounds u off y1's); a rho in
        (-rho_clamp, 0) reads 0.0 on either."""
        y0 = [53.43152582959241, 1.0, 1.0, 0.1, 1e-12]
        y1 = [-0.10922561189039715, 1.0, 1.0, 0.1, -1e-13]
        segments = array("d", [0.0, 1.0, 1.0, *y0, *y1, *[0.0] * 30])
        for at_end, u in ((1, -0.10922561189039715), (0, -0.1092256118903947)):
            snapshots = np.array([[1, at_end, 0, 0, 0, 0]], dtype=np.int64)
            rows = _dense_samples(segments, snapshots, 1.0, 1e-10)
            assert [x.hex() for x in rows[0].tolist()] == [x.hex() for x in [u, 1.0, 1.0, 0.1, 0.0]]


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

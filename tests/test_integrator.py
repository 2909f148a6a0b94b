"""Adaptive stepper, events, guards, and solution-level oracles."""

import itertools
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from rwcosmo import (CosmoState, InadmissibleInitialData, IntegratorConfig,
                     ModelParams, build_state, integrate, make_initial_data, step)
from rwcosmo import integrator
from rwcosmo.diagnostics import TOL, cumulative_simpson
from rwcosmo.initial import nu_rate
from rwcosmo.integrator import (FIELD_FROZEN, CHI_ZERO_CROSSING, GUARD_TRIPPED, MAX_SAMPLES,
                                IntegrationStats, frozen_tail, sample_times, _sample,
                                _step_quartics, _trial_step, _A21, _A31, _A32, _A41, _A42, _A43,
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
_RELATIVE = np.array([False, True, False, False])
_TINY = 1e-300


def numpy_deriv(y, lam, mass_sq, anchor, frozen):
    du, dv, dphi, dchi = _rhs_terms(y[0], y[1], y[2], y[3], lam, mass_sq, *anchor)
    if frozen:
        dchi = 0.0
    return np.array([du, dv, dphi, dchi])


def numpy_trial_step(y, h, params, anchor, config, frozen):
    """The norm's fifth term is the density's relative error, twice v's."""
    lam, mass_sq = params.lam, params.mass_sq
    k = np.empty((7, 4))
    k[0] = numpy_deriv(y, lam, mass_sq, anchor, frozen)
    for i in range(1, 6):
        k[i] = numpy_deriv(y + h * (_A[i] @ k[:i]), lam, mass_sq, anchor, frozen)
    y1 = y + h * (_A[6] @ k[:6])
    k[6] = numpy_deriv(y1, lam, mass_sq, anchor, frozen)
    if not np.all(np.isfinite(y1)):
        return y1, math.inf, k
    err = h * (_E @ k)
    ymax = np.maximum(np.abs(y), np.abs(y1))
    scale = np.where(_RELATIVE, config.rel_tol * ymax + _TINY,
                     config.abs_tol + config.rel_tol * ymax)
    q = err / scale
    return y1, float(np.sqrt((np.sum(q ** 2) + (2.0 * q[1]) ** 2) / 5)), k


def zip_trial_step(y, k1, h, params, anchor, config, frozen):
    """The float stepper as first written, one zip per sum; the straight-line
    _trial_step must reproduce it bit for bit."""
    lam, mass_sq = params.lam, params.mass_sq
    k2 = _rhs_terms(*[y0 + h * (_A21 * a) for y0, a in zip(y, k1)],
                    lam, mass_sq, *anchor, frozen)
    k3 = _rhs_terms(*[y0 + h * (_A31 * a + _A32 * b)
                      for y0, a, b in zip(y, k1, k2)], lam, mass_sq, *anchor, frozen)
    k4 = _rhs_terms(*[y0 + h * (_A41 * a + _A42 * b + _A43 * c)
                      for y0, a, b, c in zip(y, k1, k2, k3)], lam, mass_sq, *anchor, frozen)
    k5 = _rhs_terms(*[y0 + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
                      for y0, a, b, c, d in zip(y, k1, k2, k3, k4)],
                    lam, mass_sq, *anchor, frozen)
    k6 = _rhs_terms(*[y0 + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
                      for y0, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)],
                    lam, mass_sq, *anchor, frozen)
    y1 = [y0 + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * f)
          for y0, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)]
    k7 = _rhs_terms(*y1, lam, mass_sq, *anchor, frozen)
    k = (k1, k2, k3, k4, k5, k6, k7)
    if not all(map(math.isfinite, y1)):
        return y1, math.inf, k
    rel_tol, abs_tol = config.rel_tol, config.abs_tol
    floors = (abs_tol, _TINY, abs_tol, abs_tol)
    q = [h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * f + _E7 * g)
         / (rel_tol * max(abs(y0), abs(y0_new)) + floor)
         for y0, y0_new, a, c, d, e, f, g, floor in zip(y, y1, k1, k3, k4, k5, k6, k7, floors)]
    q.append(2.0 * q[1])
    total = 0.0
    for x in q:
        total += x * x
    return y1, math.sqrt(total / 5), k


def float_bits(y1, norm, k):
    """A trial step's result as hex strings, equal only when bit-identical."""
    return [x.hex() for x in y1], norm.hex(), [[x.hex() for x in stage] for stage in k]


def random_trial_inputs(frozen):
    """200 random (y, params, anchor, config, h) trial-step inputs per frozen
    value; the anchor (rho0, v0) is the run's start density and v."""
    rng = np.random.default_rng(20130 + frozen)
    for _ in range(200):
        y = rng.uniform([-2.0, 0.1, -2.0, -1.0], [3.0, 2.0, 2.0, 1.0])
        anchor = tuple(rng.uniform([0.0, 0.1], [1.0, 2.0]).tolist())
        params = ModelParams(lam=rng.uniform(-1.0, 3.0), mass=rng.uniform(0.0, 2.0))
        tol = 10.0 ** rng.uniform(-12.0, -4.0)
        config = IntegratorConfig(rel_tol=tol, abs_tol=tol)
        h = 10.0 ** rng.uniform(-4.0, math.log10(0.25))
        yield y, params, anchor, config, h


def term_magnitudes(y, h, params, anchor, frozen):
    """The numpy stepper run on absolute values: every weight, state
    component and right-hand-side term replaced by its magnitude.  Returns the
    magnitudes of the terms summed into each stage, into y1 and into the
    error estimate, the scale of the rounding each may carry."""
    lam, m2 = abs(params.lam), params.mass_sq
    rho0, v0 = anchor

    def f(z):
        u, v, phi, chi = z
        du = 1.5 * u * u + 0.5 * lam + FOUR_PI * (0.5 * chi * chi + 0.5 * m2 * phi * phi
                                                  + rho0 * (v / v0) ** 2 / 3.0)
        dchi = 0.0 if frozen else 3.0 * u * chi + m2 * phi
        return np.array([du, 2.0 * u * v, chi, dchi])

    y = np.abs(y)
    k = np.empty((7, 4))
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
        pytest.param(dict(rel_tol=0.0), id="rel_tol_zero"),
        pytest.param(dict(abs_tol=-1e-10), id="abs_tol_negative"),
        pytest.param(dict(t_end=0.0), id="t_end_zero"),
        pytest.param(dict(t_end=-1.0), id="t_end_negative"),
        pytest.param(dict(sample_dt=0.0), id="sample_dt_zero"),
        pytest.param(dict(mode="euler"), id="mode_unknown"),
        pytest.param(dict(override_admissibility="false"), id="override_string_truthy"),
        pytest.param(dict(override_admissibility=0), id="override_integer"),
        pytest.param(dict(override_admissibility=None), id="override_none"),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        """A non-bool override_admissibility is refused: "false" is truthy
        and would integrate inadmissible data."""
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
        assert len(FLOAT_FIELDS) == 4
        config = IntegratorConfig(**{name: np.float64(2.0) for name in ("abs_tol", "t_end")})
        assert type(config.abs_tol) is float and type(config.t_end) is float


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

    def test_rejects_h_outside_bounds(self, monkeypatch):
        """h must lie in [H_MIN, H_MAX], read when step() is called."""
        s = CosmoState(t=0.0, u=0.0, v=1.0, phi=0.0, chi=0.0, rho=0.0)
        cfg = IntegratorConfig()
        with pytest.raises(ValueError, match="outside"):
            step(s, REF_PARAMS, integrator.H_MAX * 2.0, cfg)
        with pytest.raises(ValueError, match="outside"):
            step(s, REF_PARAMS, integrator.H_MIN / 2.0, cfg)
        step(s, REF_PARAMS, 0.02, cfg)
        monkeypatch.setattr(integrator, "H_MAX", 0.01)
        with pytest.raises(ValueError, match=r"outside \[H_MIN, H_MAX\] = \[1e-14, 0.01\]"):
            step(s, REF_PARAMS, 0.02, cfg)

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
        for y, params, anchor, config, h in random_trial_inputs(frozen):
            tol = config.rel_tol
            ref_y1, ref_norm, ref_k = numpy_trial_step(y, h, params, anchor, config, frozen)
            k1 = _rhs_terms(*y.tolist(), params.lam, params.mass_sq, *anchor, frozen)
            y1, norm, k = _trial_step(y.tolist(), k1, h, params, anchor, config, frozen)
            mag_k, mag_y1, mag_err = term_magnitudes(y, h, params, anchor, frozen)
            assert np.all(np.abs(np.array(k) - ref_k) <= 16.0 * EPS * mag_k)
            assert np.all(np.abs(np.array(y1) - ref_y1) <= 16.0 * EPS * mag_y1)
            ymax = np.maximum(np.abs(y), np.abs(ref_y1))
            scale = np.where(_RELATIVE, tol * ymax + _TINY, tol + tol * ymax)
            mag_q = mag_err / scale
            mag_norm = math.sqrt((np.sum(mag_q ** 2) + (2.0 * mag_q[1]) ** 2) / 5)
            assert abs(norm - ref_norm) <= 16.0 * EPS * mag_norm

    @pytest.mark.parametrize("frozen", [False, True])
    def test_bit_identical_to_zip_stepper(self, frozen):
        """y1, the error norm and all seven stages equal the zip stepper's
        bit for bit: same tableau, same left-to-right sums, same norm."""
        for y, params, anchor, config, h in random_trial_inputs(frozen):
            y = y.tolist()
            k1 = _rhs_terms(*y, params.lam, params.mass_sq, *anchor, frozen)
            assert float_bits(*_trial_step(y, k1, h, params, anchor, config, frozen)) == \
                float_bits(*zip_trial_step(y, k1, h, params, anchor, config, frozen))

    @pytest.mark.parametrize("y", [
        pytest.param([1e200, 1.0, 1.0, 0.1], id="u_squared_overflows"),
        pytest.param([0.5, 1.0, math.nan, 0.1], id="phi_nan"),
        pytest.param([0.5, 1.0, 1.0, math.inf], id="chi_inf"),
        pytest.param([1e200, 1.0, 1.0, 0.0], id="u_squared_overflows_frozen"),
    ])
    def test_non_finite_step_has_infinite_norm(self, y):
        """Float overflow yields inf/nan without raising, and a non-finite y1
        reads as an infinitely bad step; at chi = 0.0 the frozen step."""
        frozen = y[3] == 0.0
        anchor = (0.05, 1.0)
        k1 = _rhs_terms(*y, REF_PARAMS.lam, REF_PARAMS.mass_sq, *anchor, frozen)
        result = _trial_step(y, k1, 0.01, REF_PARAMS, anchor, IntegratorConfig(), frozen)
        y1, norm, _ = result
        assert not all(map(math.isfinite, y1))
        assert norm == math.inf
        assert float_bits(*result) == float_bits(
            *zip_trial_step(y, k1, 0.01, REF_PARAMS, anchor, IntegratorConfig(), frozen))


class TestFsalCount:
    @pytest.mark.parametrize("run", ["rejecting", "reference", "stepped_reference", "kg",
                                     "frozen_at_start"])
    def test_rhs_evaluations(self, run, request, monkeypatch, ref_initial, stepped):
        """rhs_evaluations = 6*(accepted + rejected) + 1 + restarts on every
        branch: rejected steps reuse their first stage, accepted ones pass
        their last stage on, a FieldFrozen restart evaluates it afresh.  The
        reference run takes the exact tail at the freeze and so never
        restarts; stepped through its frozen phase it restarts once."""
        restarts = 0
        if run == "rejecting":
            monkeypatch.setattr(integrator, "H_INIT", 0.25)
            traj = integrate(ref_initial, REF_PARAMS, replace(REF_CONFIG, t_end=1.0))
            assert traj.stats.steps_rejected > 0
        elif run == "reference":
            traj = request.getfixturevalue("ref_trajectory")
            assert [e.kind for e in traj.events] == [FIELD_FROZEN] and traj.events[0].t > 0.0
            assert traj.stats == IntegrationStats(14, 0, 85)
        elif run == "stepped_reference":
            with stepped():
                traj = integrate(ref_initial, REF_PARAMS, REF_CONFIG)
            assert traj.stats == IntegrationStats(1152, 0, 6914)
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


def frozen_tail_loop(t_f, y_f, rho_f, params, times):
    """The closed form of frozen_tail one sample at a time, on floats with
    math-module calls, from the density rho_f at the freeze: the oracle of
    its bits."""
    _, v_f, phi_f, _ = y_f
    u_inf = nu_rate(params, phi_f)
    rows = []
    if rho_f == 0.0:
        for t in times:
            rows.append((u_inf, v_f * math.exp(-2.0 * u_inf * (t - t_f)), phi_f, 0.0))
    else:
        s_f = math.asinh(u_inf * math.sqrt(3.0 / EIGHT_PI) / math.sqrt(rho_f))
        em_f = math.expm1(-2.0 * s_f)
        for t in times:
            d = 2.0 * u_inf * (t - t_f)
            em = math.expm1(-2.0 * (s_f + d))
            r = math.exp(-d) * (em_f / em)
            rows.append((-u_inf * (2.0 + em) / em, v_f * r, phi_f, 0.0))
    return np.array(rows, dtype=float).reshape(len(rows), 4)


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
        rho_f = 0 and no times at all included.  The density is anchored at
        the freeze itself, (rho_f, v_f)."""
        params = ModelParams(lam=lam, mass=mass)
        u_inf = nu_rate(params, phi_f)
        assume(u_inf is not None)
        times = (t_f + np.linspace(0.0, width / u_inf, n)).tolist() + [t_f + d for d in late]
        y_f = [1.0, v_f, phi_f, 0.0]
        got = frozen_tail(t_f, y_f, (rho_f, v_f), params, np.array(times))
        assert got.shape == (len(times), 4)
        assert got.tobytes() == frozen_tail_loop(t_f, y_f, rho_f, params, times).tobytes()

    @pytest.mark.parametrize("t_end,sample_dt", [(10.0, 0.01), (0.105, 0.01), (0.3, 0.1),
                                                 (0.005, 0.01)])
    def test_sample_times_are_integrate_grid(self, ref_initial, t_end, sample_dt):
        """integrate's t column is sample_times bit for bit: k*sample_dt, the
        last one snapped to t_end (0.3 for 3*0.1 = 0.30000000000000004)."""
        cfg = replace(REF_CONFIG, t_end=t_end, sample_dt=sample_dt)
        traj = integrate(ref_initial, REF_PARAMS, cfg)
        assert traj.t.tolist() == sample_times(cfg).tolist()

    def test_stop_at_freeze(self, monkeypatch, ref_initial, stepped):
        """The reference run stops stepping at FieldFrozen after 14 of the
        1,152 steps it takes stepped through its frozen phase: its samples up
        to there are the stepped run's bit for bit, and the later ones are
        frozen_tail's from the clamped state, evaluated once."""
        with stepped():
            plain = integrate(ref_initial, REF_PARAMS, REF_CONFIG)
        assert plain.stats == IntegrationStats(1152, 0, 6914)
        calls = []

        def recorded(t_f, y_f, anchor, params, times):
            calls.append((t_f, y_f, anchor, times))
            return frozen_tail(t_f, y_f, anchor, params, times)

        monkeypatch.setattr(integrator, "frozen_tail", recorded)
        joined = integrate(ref_initial, REF_PARAMS, REF_CONFIG)
        assert joined.events == plain.events
        assert joined.stats == IntegrationStats(14, 0, 6 * 14 + 1)
        assert joined.t.tobytes() == plain.t.tobytes()
        [(t_f, y_f, anchor, times)] = calls
        assert t_f == joined.events[0].t and y_f[3] == 0.0
        assert anchor == (ref_initial.rho0, 1.0)
        n = int(np.sum(joined.t <= t_f))
        assert 0 < n < joined.t.size
        assert times.tolist() == joined.t[n:].tolist()
        assert joined.states[:n].tobytes() == plain.states[:n].tobytes()
        assert joined.states[n:].tobytes() == \
            frozen_tail(t_f, y_f, anchor, REF_PARAMS, joined.t[n:]).tobytes()

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
        tail = frozen_tail(0.0, traj.states[0].tolist(), (rho0, 1.0), REF_PARAMS,
                           traj.t.tolist())
        assert tail[0, 1:].tolist() == traj.states[0, 1:].tolist()
        np.testing.assert_allclose(tail, traj.states, rtol=1e-10, atol=0.0)
        joined = integrate(data, REF_PARAMS, cfg)
        assert joined.stats == IntegrationStats(0, 0, 1)
        assert joined.states[1:].tobytes() == tail[1:].tobytes()

    def test_rho_zero_is_de_sitter(self):
        """rho_f = 0: u = u_inf and v = v_f*exp(-2 u_inf (t - t_f))."""
        u_inf = math.sqrt((1.0 + 4.0 * math.pi * 1.5 ** 2) / 3.0)
        tail = frozen_tail(0.5, [3.0, 0.25, 1.5, 0.0], (0.0, 1.0), REF_PARAMS, [0.5, 1.0, 2.5])
        assert tail[:, 0].tolist() == [u_inf] * 3
        assert tail[:, 1].tolist() == [0.25 * math.exp(-2.0 * u_inf * d) for d in (0.0, 0.5, 2.0)]

    def test_late_times_do_not_overflow(self):
        """sinh(s) overflows near s = 710; the ratio through exp and expm1
        does not: u tends to u_inf and v underflows to 0."""
        u_inf = math.sqrt((1.0 + 4.0 * math.pi) / 3.0)
        tail = frozen_tail(0.0, [5.0, 1.0, 1.0, 0.0], (0.05, 1.0), REF_PARAMS, [200.0, 1e6])
        assert tail[:, 0].tolist() == [u_inf, u_inf]
        assert tail[:, 1].tolist() == [0.0, 0.0]

    def test_undefined_limit_rejected(self):
        with pytest.raises(ValueError, match="no frozen limit"):
            frozen_tail(0.0, [1.0, 1.0, 1.0, 0.0], (0.05, 1.0), ModelParams(lam=-20.0, mass=1.0),
                        [1.0])


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

    def test_states_are_taken_or_copied(self, ref_trajectory):
        """integrate's read-only states back the run as they are, and so
        does any read-only float array that owns its memory; a caller's
        writable array or a view is copied, so writing to it later leaves
        the run's states as they were."""
        assert not ref_trajectory.states.flags.writeable
        assert replace(ref_trajectory, states=ref_trajectory.states).states is \
            ref_trajectory.states
        frozen = ref_trajectory.states.copy()
        frozen.flags.writeable = False
        assert replace(ref_trajectory, states=frozen).states is frozen
        view = ref_trajectory.states[:]
        assert replace(ref_trajectory, states=view).states is not view
        mine = ref_trajectory.states.copy()
        by_hand = replace(ref_trajectory, states=mine)
        mine[:] = 0.0
        assert by_hand.states.tobytes() == ref_trajectory.states.tobytes()
        assert not by_hand.states.flags.writeable

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

    def test_state_columns_are_views(self, ref_trajectory):
        """as_arrays's u, v, phi and chi are the columns of ``states``
        itself: the run holds its states once."""
        cols = ref_trajectory.as_arrays()
        for i, name in enumerate(integrator.STATE_COLUMNS):
            assert np.shares_memory(cols[name], ref_trajectory.states), name
            assert cols[name].tobytes() == ref_trajectory.states[:, i].tobytes(), name

    def test_stats_populated(self, ref_trajectory):
        st = ref_trajectory.stats
        assert st.steps_accepted > 0
        assert st.rhs_evaluations == fsal_evaluations(ref_trajectory)


class TestDenseConstraintBudget:
    """The dense run (the reference point at tol 1e-8, sample_dt 0.001,
    t_end 10) keeps its constraint drift within Tolerances.constraint_budget
    at the reference data and at each corner of +-5 % in (phi0, chi0,
    rho0), the reach of the benchmark's seed jitter.  The density's term in
    the error norm holds it there: with the four evolved terms alone the
    drift read 1.03-1.13e-7."""

    CONFIG = replace(REF_CONFIG, rel_tol=1e-8, abs_tol=1e-8, sample_dt=0.001)

    @pytest.mark.parametrize("scales", [(1.0, 1.0, 1.0)] + list(
        itertools.product((0.95, 1.05), repeat=3)), ids=str)
    def test_within_budget(self, scales):
        phi0, chi0, rho0 = (x * f for x, f in zip((1.0, 0.1, 0.05), scales))
        data = make_initial_data(REF_PARAMS, 1.0, phi0, chi0, rho0, "expanding")
        traj = integrate(data, REF_PARAMS, self.CONFIG)
        assert traj.t.size == 10001
        assert np.abs(traj.as_arrays()["constraint"]).max() <= TOL.constraint_budget


class TestInvariantSubspaces:
    def test_zero_rho_stays_exactly_zero(self):
        params = ModelParams(lam=1.0, mass=1.0)
        data = make_initial_data(params, 1.0, 1.0, 0.1, 0.0, "expanding")
        traj = integrate(data, params, replace(REF_CONFIG, t_end=2.0))
        cols = traj.as_arrays()
        assert np.all(cols["rho"] == 0.0)

    def test_radiation_scaling(self, radiation_trajectory):
        """Pure fluid: u' = -2u^2 on shell, so u = u0/(1 + 2 u0 t) and
        v = v0/(1 + 2 u0 t) in closed form; the run meets both to 1e-8
        relative."""
        cols = radiation_trajectory.as_arrays()
        u0 = radiation_trajectory.initial.u0
        growth = 1.0 + 2.0 * u0 * cols["t"]
        assert np.abs(cols["u"] * growth / u0 - 1.0).max() <= 1e-8
        assert np.abs(cols["v"] * growth / cols["v"][0] - 1.0).max() <= 1e-8

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
        assert traj.events[-1].kind == GUARD_TRIPPED and traj.events[-1].t < cfg.t_end

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

    def test_zero_chi0_pushed_up_is_not_frozen(self, monkeypatch):
        """chi0 = 0 with m^2 phi0 < 0: the field equation lifts chi, so
        paper mode does not clamp it, and integrate's first step is step()'s."""
        monkeypatch.setattr(integrator, "H_INIT", 0.01)
        params = ModelParams(lam=1.0, mass=1.0)
        data = make_initial_data(params, 1.0, -0.5, 0.0, 0.05, "expanding")
        cfg = replace(REF_CONFIG, rel_tol=1e-8, abs_tol=1e-8, t_end=0.1,
                      override_admissibility=True)
        traj = integrate(data, params, cfg)
        assert traj.events == ()
        s1, _, _ = step(build_state(data), params, 0.01, cfg)
        assert traj.t[1] == s1.t
        assert tuple(traj.states[1]) == (s1.u, s1.v, s1.phi, s1.chi)
        assert traj.as_arrays()["rho"][1] == s1.rho
        assert s1.chi > 0.0

    def test_underflow_on_hopeless_tolerance(self, monkeypatch):
        """H_MIN close to H_MAX leaves no room to resolve the dynamics: the
        first trial step is rejected, and the run ends at t = 0 in
        GuardTripped, returned with its one sample and its stats."""
        monkeypatch.setattr(integrator, "H_MIN", 0.05)
        monkeypatch.setattr(integrator, "H_INIT", 0.1)
        params = ModelParams(lam=1.0, mass=1.0)
        data = make_initial_data(params, 1.0, 1.0, 0.1, 0.05, "expanding")
        cfg = replace(REF_CONFIG, rel_tol=1e-14, abs_tol=1e-14, t_end=1.0)
        traj = integrate(data, params, cfg)
        assert traj.guard_tripped
        assert TestSampleGuard.pins(traj) == (
            1, 0.0, [(GUARD_TRIPPED, 0.0, "step size fell below H_MIN = 0.05")], (0, 1, 7))
        assert traj.states.tolist() == [[data.u0, 1.0, 1.0, 0.1]]

    def test_step_budget_ends_run(self, monkeypatch, ref_initial):
        """A run still short of t_end after MAX_STEPS trial steps ends in
        GuardTripped at the last step's end, in either mode; the reference
        run's 14 steps fit a budget of 14 exactly."""
        monkeypatch.setattr(integrator, "MAX_STEPS", 5)
        for mode in ("paper", "kg"):
            traj = integrate(ref_initial, REF_PARAMS, replace(REF_CONFIG, mode=mode))
            assert TestSampleGuard.pins(traj) == (2, 0.01, [
                (GUARD_TRIPPED, 0.016595302092397707, "MAX_STEPS = 5 trial steps taken")],
                (5, 0, 31))
        monkeypatch.setattr(integrator, "MAX_STEPS", 13)
        traj = integrate(ref_initial, REF_PARAMS, REF_CONFIG)
        assert (traj.events[-1].detail, traj.stats.steps_accepted) == (
            "MAX_STEPS = 13 trial steps taken", 13)
        monkeypatch.setattr(integrator, "MAX_STEPS", 14)
        traj = integrate(ref_initial, REF_PARAMS, REF_CONFIG)
        assert not traj.guard_tripped and traj.stats.steps_accepted == 14

    def test_admissible_run_meets_min_v_in_tail(self):
        """Theorem-1 data with a heavy field: m = 400 freezes after one
        accepted step, and its exact tail passes below MIN_V at t = 0.43,
        where int u dt passes ~345.  The run ends there in GuardTripped,
        with the 43 samples before it."""
        params = ModelParams(lam=1.0, mass=400.0)
        data = make_initial_data(params, 1.0, 1.0, 0.1, 0.05, "expanding")
        traj = integrate(data, params, replace(REF_CONFIG, t_end=1.0))
        assert TestSampleGuard.pins(traj) == (43, 0.42, [
            (FIELD_FROZEN, 6.245319585529724e-07,
             "field velocity reached zero; phi frozen at 1.00000003122"),
            (GUARD_TRIPPED, 0.43, "v = 1.71956e-306 fell below 1e-300")], (1, 2, 19))

    def test_guard_trip_is_the_last_event(self, ref_trajectory):
        """A GuardTripped event ends a run: a Trajectory with one before
        another event is refused."""
        trip = integrator.Event(0.01, GUARD_TRIPPED, "x")
        assert replace(ref_trajectory, events=ref_trajectory.events + (trip,)).guard_tripped
        with pytest.raises(ValueError, match="GuardTripped event ends the run"):
            replace(ref_trajectory, events=(trip,) + ref_trajectory.events)

    @pytest.mark.parametrize("kind,detail,error,message", [
        pytest.param("Frozen", "x", ValueError,
                     "kind must be one of FieldFrozen, ChiZeroCrossing, GuardTripped, "
                     "got 'Frozen'", id="kind_unknown"),
        pytest.param(FIELD_FROZEN, 1.0, TypeError, "detail must be a string, not float",
                     id="detail_not_string"),
    ])
    def test_invalid_event_rejected(self, kind, detail, error, message):
        """An Event holds one of the three kinds and a text detail."""
        with pytest.raises(error, match=f"^{message}$"):
            integrator.Event(0.0, kind, detail)


def _sample_trip(t_sample, row):
    return (f"sample at t = {t_sample} violated state invariants "
            f"(finite, v > 0): {row}")


class TestSampleGuard:
    """A grid sample that breaks the state invariants while its step's ends
    pass.  No real run found does this, so the quartic's k7 weight _D7 is
    scaled: the interpolant then bulges between the ends of a step.  Each
    sample is checked as its step is accepted, by the state rule (finite,
    v > 0) on floats.  The run must stop at the step
    holding the first bad sample, with that step's counts and the events
    logged before it, whatever the steps after it would have done."""

    @staticmethod
    def pins(traj):
        return (traj.t.size, traj.t[-1], [(e.kind, e.t, e.detail) for e in traj.events],
                (traj.stats.steps_accepted, traj.stats.steps_rejected,
                 traj.stats.rhs_evaluations))

    @pytest.mark.parametrize("mode,crossing,n,trip_t,row,stats", [
        ("paper", (FIELD_FROZEN, "field velocity reached zero; phi frozen at 1.00348848622"),
         4, 0.12188257976824637, [2.0804768276856356, -0.1843808600136022, 1.0034884862222113,
                                  0.0], (20, 0, 122)),
        ("kg", (CHI_ZERO_CROSSING, "downward crossing"),
         5, 0.15245098104309926, [2.0444439788398983, -0.4307397695679688, 0.9754353164351215,
                                  -0.3209238637599383], (23, 0, 139)),
    ], ids=["paper", "kg"])
    def test_trip_after_crossing(self, monkeypatch, ref_initial, stepped, mode, crossing, n,
                                 trip_t, row, stats):
        """A later sample (t = 0.12 in paper mode, 0.15 in kg mode) breaks
        v > 0 in a step after chi's zero crossing: the trip is logged at that
        step's end.  In paper mode that step lies in the frozen phase, so the
        run steps through it."""
        monkeypatch.setattr(integrator, "_D7", integrator._D7 * 500.0)
        cfg = replace(REF_CONFIG, mode=mode, sample_dt=0.03)
        kind, detail = crossing
        with stepped():
            traj = integrate(ref_initial, REF_PARAMS, cfg)
        assert self.pins(traj) == (
            n, 0.03 * (n - 1), [(kind, 0.07405034499570205, detail),
                                (GUARD_TRIPPED, trip_t, _sample_trip(0.03 * n, row))], stats)

    def test_trip_in_crossing_step(self, monkeypatch, ref_initial, stepped):
        """A bad sample before chi's zero crossing in the crossing step (the
        crossing pinned at theta = 0.9) is logged at the crossing, and the
        field does not freeze: the tail taken at the freeze is dropped, and
        the run is the one stepped through the frozen phase."""
        monkeypatch.setattr(integrator, "_D7", integrator._D7 * 1e4)
        monkeypatch.setattr(integrator, "_locate_crossing", lambda *args: 0.9)
        cfg = replace(REF_CONFIG, sample_dt=0.0779)
        want = (1, 0.0, [(GUARD_TRIPPED, 0.08070400031423312, _sample_trip(0.0779, [
            -2.379314065084977, -33.267828832358, 0.9494664399687821, -10.839994548227741]))],
            (14, 0, 85))
        assert self.pins(integrate(ref_initial, REF_PARAMS, cfg)) == want
        with stepped():
            assert self.pins(integrate(ref_initial, REF_PARAMS, cfg)) == want

    @pytest.mark.parametrize("max_abs_u", [1e100, 1e3])
    def test_trip_before_later_failure(self, monkeypatch, max_abs_u):
        """The run stops at a bad sample at t = 0.03 even though the steps
        after it go on to a step size below H_MIN (MAX_ABS_U = 1e100) or to
        the |u| guard (1e3) at t = 0.80: no later event, and the rejected
        steps after it are not counted."""
        monkeypatch.setattr(integrator, "MAX_ABS_U", max_abs_u)
        params = ModelParams(lam=-1.0, mass=0.0)
        data = make_initial_data(params, 1.0, 0.1, 0.1, 0.05, "contracting")
        config = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-8, t_end=10.0, sample_dt=0.01,
                                  override_admissibility=True)
        assert self.pins(integrate(data, params, config)) == {
            1e100: (81, 0.8, [(GUARD_TRIPPED, 0.8021390307196832,
                               "step size fell below H_MIN = 1e-14")], (456, 1, 2743)),
            1e3: (81, 0.8, [(GUARD_TRIPPED, 0.8018229097071645, "|u| = 1061.43 exceeded 1000")],
                  (123, 0, 739))}[max_abs_u]
        monkeypatch.setattr(integrator, "_D7", integrator._D7 * -300.0)
        assert self.pins(integrate(data, params, config)) == (
            3, 0.02, [(GUARD_TRIPPED, 0.0704587499466682, _sample_trip(0.03, [
                1.2116564692545455, -0.3140118625146997, -0.05713143649065304,
                -0.10270062377330391]))], (5, 0, 31))


class TestDenseSamples:
    def test_step_end(self):
        """At theta = 1 a sample is the step's y1 itself, except on a step
        whose samples end at a chi crossing, where it is the quartic's value
        (here y0 + (y1 - y0), which rounds u off y1's)."""
        y0 = [53.43152582959241, 1.0, 1.0, 0.1]
        y1 = [-0.10922561189039715, 1.0, 1.0, 0.1]
        quartics = _step_quartics(1.0, y0, y1, ([0.0] * 4,) * 7)
        for y_end, u in ((y1, -0.10922561189039715), (None, -0.1092256118903947)):
            row = _sample(quartics, 1.0, y_end)
            assert [x.hex() for x in row] == [x.hex() for x in [u, 1.0, 1.0, 0.1]]


class TestDenseOutputQuality:
    def test_samples_match_direct_integration(self, ref_trajectory, ref_initial):
        """Interpolated samples agree with a run stopped exactly there."""
        target = 0.34  # a grid time generic for the reference step sequence
        cfg = replace(REF_CONFIG, t_end=target, sample_dt=target)
        direct = integrate(ref_initial, REF_PARAMS, cfg)
        cols = ref_trajectory.as_arrays()
        i = int(round(target / 0.01))
        assert cols["t"][i] == pytest.approx(target, abs=1e-12)
        names = ("u", "v", "phi", "chi", "rho")
        np.testing.assert_allclose([cols[k][i] for k in names],
                                   [direct.as_arrays()[k][-1] for k in names],
                                   rtol=1e-8, atol=1e-12)

"""Adaptive integration of the evolution system with dense output and events.

The stepper is the Dormand-Prince 5(4) embedded pair with its standard
quartic continuous extension.  Step control follows the usual safety-factor
rule (safety 0.9, growth factor clamped to [0.2, 5]) on a weighted RMS error
over the five components.

Arithmetic is on plain Python floats in a fixed order, with no BLAS call,
so the output bytes do not depend on the BLAS kernel.  Stage arguments and
y1 are y + h*(a_1*k_1 + a_2*k_2 + ...), the error estimate and the quartic
coefficient h*(w_1*k_1 + ...), each sum left to right over the nonzero
weights; the error norm is sqrt((q_u**2 + q_v**2 + ... + q_rho**2) / 5).
The pair is FSAL: an accepted step's last stage f(y1) is the next step's
first, and a rejected step keeps its first stage, so a run makes
6*(accepted + rejected) + 1 right-hand-side evaluations, plus one per
FieldFrozen restart at t > 0.

Error weights: u, phi and chi use the mixed scale abs_tol + rel_tol*|y|.  The
strictly positive, exponentially decaying components v and rho use the purely
relative scale rel_tol*|y|: under a mixed scale the controller goes blind on
them as soon as they fall below abs_tol, which destroys their relative
accuracy (and with it the quadrature identities v*exp(2*int u) = v0 and
rho = rho0*exp(-4*int u)) and even admits linearly unstable step sizes whose
weighted error looks negligible.  Relative control keeps those tails accurate
to ~rel_tol per step all the way down to the underflow guard.

Two continuations are offered past the point where the field velocity chi
reaches zero:

``paper`` (default)
    The non-decreasing-field continuation: the first downward zero crossing
    of chi is located by bisection on the dense interpolant, logged as a
    ``FieldFrozen`` event, and chi is clamped to exactly 0 from then on.  The
    field (and hence its energy) is frozen; u, v and rho keep evolving.

``kg``
    The classical smooth continuation of the field equation, which lets chi
    go negative.  The crossing is logged as ``ChiZeroCrossing`` and
    integration continues through it.  This mode exists to demonstrate why
    the non-decreasing-field hypothesis matters; the asymptotic checks are
    expected to fail on it.  Crossings are detected per accepted step, so an
    even number of sign changes inside one step goes unlogged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .initial import InitialData, constraint_scale, initial_constraint_residual, build_state, validate_theorem1
from .model import CosmoState, ModelParams, _finite_fields, _rhs_terms, derived_terms

#: Column order shared by Trajectory.as_arrays() and the trajectory CSV.
TRAJECTORY_COLUMNS = ("t", "u", "v", "a", "phi", "chi", "psi", "rho",
                      "H", "T00", "Q", "constraint")
#: Column order of Trajectory.states.
STATE_COLUMNS = ("u", "v", "phi", "chi", "rho")

FIELD_FROZEN = "FieldFrozen"
CHI_ZERO_CROSSING = "ChiZeroCrossing"
GUARD_TRIPPED = "GuardTripped"

# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, Table II.5.2).
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
# 5th-order weights (b2 = b7 = 0); the last stage is f(y1) itself.
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# Difference between 5th- and embedded 4th-order weights (e2 = 0).
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)
# Weights of the quartic dense-output polynomial (d2 = 0).
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075 / 11282082432, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423)

_TINY = 1e-300

_SAFETY = 0.9
_SHRINK_MIN = 0.2
_GROW_MAX = 5.0
_EXPONENT = -0.2  # 1/5th order


class StepSizeUnderflow(RuntimeError):
    """The controller needed a step smaller than h_min."""


class InadmissibleInitialData(ValueError):
    """Data fail the global-existence hypotheses and no override was given."""


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    h_init: float = 1e-4
    h_min: float = 1e-14
    h_max: float = 0.25
    t_end: float = 10.0
    sample_dt: float = 0.01
    mode: str = "paper"  # "paper" | "kg"
    max_abs_u: float = 1e3
    max_abs_phi: float = 1e6
    min_v: float = 1e-300
    override_admissibility: bool = False

    def __post_init__(self) -> None:
        _finite_fields(self, *(f.name for f in fields(self) if f.type == "float"))
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("rel_tol and abs_tol must be > 0")
        if not (0.0 < self.h_min <= self.h_init <= self.h_max):
            raise ValueError("step bounds must satisfy 0 < h_min <= h_init <= h_max")
        if not self.t_end > 0.0:
            raise ValueError("t_end must be > 0")
        if not self.sample_dt > 0.0:
            raise ValueError("sample_dt must be > 0")
        if self.mode not in ("paper", "kg"):
            raise ValueError(f"mode must be 'paper' or 'kg', got {self.mode!r}")
        if not (self.max_abs_u > 0.0 and self.max_abs_phi > 0.0 and self.min_v > 0.0):
            raise ValueError("guard thresholds must be > 0")


@dataclass(frozen=True)
class Event:
    t: float
    kind: str
    detail: str = ""


@dataclass(frozen=True)
class IntegrationStats:
    steps_accepted: int
    steps_rejected: int
    rhs_evaluations: int


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution plus integrator metadata and event log.

    ``t`` holds the sample times and ``states`` the matching (n, 5) rows of
    (u, v, phi, chi, rho); both are private read-only copies.  Samples sit on
    the uniform grid k*sample_dt, k = 0, 1, ...; the first sample is the
    initial state.  In paper mode every sample after a ``FieldFrozen`` event
    has chi exactly 0.  Immutable once returned; equality is identity.
    """

    params: ModelParams
    initial: InitialData
    config: IntegratorConfig
    t: np.ndarray
    states: np.ndarray
    events: tuple[Event, ...]
    stats: IntegrationStats

    def __post_init__(self) -> None:
        t = np.array(self.t, dtype=float)
        states = np.array(self.states, dtype=float).reshape(t.size, 5)
        t.flags.writeable = states.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "states", states)

    def as_arrays(self) -> dict[str, np.ndarray]:
        """Sample columns as read-only numpy arrays, keyed per TRAJECTORY_COLUMNS."""
        return dict(self._columns)

    @cached_property
    def _columns(self) -> dict[str, np.ndarray]:
        u, v, phi, chi, rho = (np.ascontiguousarray(c) for c in self.states.T)
        # numpy's vectorized power can differ from the scalar one in the last
        # bit; the scalar pow keeps a equal to scale_factor(state).  A
        # hand-built state with v <= 0 has no scale factor: a reads nan.
        a = np.fromiter((x ** -0.5 if x > 0.0 else math.nan for x in v.tolist()),
                        float, v.size)
        d = derived_terms(u, phi, chi, rho, self.params)
        cols = {"t": self.t, "u": u, "v": v, "a": a, "phi": phi, "chi": chi,
                "psi": 0.5 * chi * chi, "rho": rho, "H": d.H, "T00": d.T00,
                "Q": d.Q, "constraint": d.constraint}
        for col in cols.values():
            col.flags.writeable = False
        return cols

    @property
    def guard_tripped(self) -> bool:
        return any(e.kind == GUARD_TRIPPED for e in self.events)


def _trial_step(y: Sequence[float], k1: Sequence[float], h: float,
                params: ModelParams, config: IntegratorConfig,
                frozen: bool) -> tuple[list[float], float, tuple]:
    """One trial step from y, given its first stage k1 = f(y).

    Returns (y_new, weighted RMS error norm, the seven stages); the last
    stage is f(y_new).  The norm is infinite when y_new is not finite.
    """
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
    # v and rho (components 1 and 4) get purely relative error control.
    floors = (abs_tol, _TINY, abs_tol, abs_tol, _TINY)
    total = 0.0
    for y0, y0_new, a, c, d, e, f, g, floor in zip(y, y1, k1, k3, k4, k5, k6, k7, floors):
        err = h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * f + _E7 * g)
        q = err / (rel_tol * max(abs(y0), abs(y0_new)) + floor)
        total += q * q
    return y1, math.sqrt(total / 5), k


def _step_factor(norm: float) -> float:
    if norm == 0.0:
        return _GROW_MAX
    return min(_GROW_MAX, max(_SHRINK_MIN, _SAFETY * norm ** _EXPONENT))


class _DenseSegment:
    """Quartic interpolant over one accepted step, exact at both endpoints."""

    def __init__(self, t0: float, h: float, y0: Sequence[float],
                 y1: Sequence[float], k: tuple):
        self.t0 = t0
        self.h = h
        k1, _, k3, k4, k5, k6, k7 = k
        self._r = []
        for y0c, y1c, a, c, d, e, f, g in zip(y0, y1, k1, k3, k4, k5, k6, k7):
            ydiff = y1c - y0c
            bspl = h * a - ydiff
            self._r.append((y0c, ydiff, bspl, ydiff - h * g - bspl,
                            h * (_D1 * a + _D3 * c + _D4 * d + _D5 * e + _D6 * f + _D7 * g)))

    def __call__(self, theta: float) -> list[float]:
        sigma = 1.0 - theta
        return [r0 + theta * (r1 + sigma * (r2 + theta * (r3 + sigma * r4)))
                for r0, r1, r2, r3, r4 in self._r]


def _is_frozen_state(y: Sequence[float], params: ModelParams, mode: str) -> bool:
    # chi == 0 exactly only happens on the clamped continuation (or at a
    # degenerate start); the clamp applies when the field equation would
    # otherwise push chi negative.
    return mode == "paper" and y[3] == 0.0 and params.mass_sq * y[2] >= 0.0


def step(state: CosmoState, params: ModelParams, h: float,
         config: IntegratorConfig) -> tuple[CosmoState, float, float]:
    """One trial step of size h from ``state``.

    Returns (new_state, error_norm, suggested_h).  The error norm is the
    weighted RMS of the embedded-pair difference; values above 1 mean the
    step should be retried with the suggested (smaller) size.  Rejection is
    the caller's job; this function never retries.
    """
    if not (config.h_min <= h <= config.h_max):
        raise ValueError(f"h = {h!r} outside [h_min, h_max] = "
                         f"[{config.h_min!r}, {config.h_max!r}]")
    y = (state.u, state.v, state.phi, state.chi, state.rho)
    frozen = _is_frozen_state(y, params, config.mode)
    k1 = _rhs_terms(*y, params.lam, params.mass_sq, frozen)
    y1, norm, _ = _trial_step(y, k1, h, params, config, frozen)
    new_state = CosmoState(state.t + h, *y1)
    return new_state, norm, h * _step_factor(norm)


def _locate_crossing(dense: _DenseSegment, downward: bool, rel_tol: float) -> float:
    """Bisect the dense interpolant for a sign change of chi.

    Returns theta in (0, 1].  Robust rather than fast: plain bisection, at
    most 60 iterations, stopping once the bracket is below
    rel_tol * max(1, t) in time units.
    """
    sign = 1.0 if downward else -1.0
    lo, hi = 0.0, 1.0
    tol_t = rel_tol * max(1.0, dense.t0 + dense.h)
    for _ in range(60):
        if (hi - lo) * dense.h <= tol_t:
            break
        mid = 0.5 * (lo + hi)
        if sign * dense(mid)[3] > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _guard_violation(y: Sequence[float], config: IntegratorConfig) -> Optional[str]:
    # y is an accepted step's end: finite, since a non-finite one has norm inf.
    if abs(y[0]) > config.max_abs_u:
        return f"|u| = {abs(y[0]):.6g} exceeded {config.max_abs_u:.6g}"
    if abs(y[2]) > config.max_abs_phi:
        return f"|phi| = {abs(y[2]):.6g} exceeded {config.max_abs_phi:.6g}"
    if y[1] < config.min_v:
        return f"v = {y[1]:.6g} fell below {config.min_v:.6g}"
    return None


def integrate(initial: InitialData, params: ModelParams,
              config: IntegratorConfig) -> Trajectory:
    """Advance the system from t = 0 to t_end, sampling every sample_dt.

    Preconditions: the data must pass :func:`validate_theorem1` unless
    ``config.override_admissibility`` is set (exploration of inadmissible
    data, e.g. the contracting branch), and must satisfy the initial
    constraint; violating either raises.  Guard trips abort gracefully: the
    partial trajectory is returned with a ``GuardTripped`` event, never an
    exception.  A genuine step-size collapse raises
    :class:`StepSizeUnderflow`.
    """
    report = validate_theorem1(params, initial)
    if not report.theorem1_applicable and not config.override_admissibility:
        raise InadmissibleInitialData(
            "initial data fail the global-existence hypotheses (lambda_bound_ok="
            f"{report.lambda_bound_ok}, phi0_positive={report.phi0_positive}, u0_positive="
            f"{report.u0_positive}); set override_admissibility = true to integrate anyway")
    resid = initial_constraint_residual(params, initial)
    if abs(resid) > 1e-9 * constraint_scale(params, initial):
        raise ValueError(
            f"initial data violate the Hamiltonian constraint (residual {resid!r}); "
            "construct them with make_initial_data/initial_data_from_u0")

    dt = config.sample_dt
    k_last = int(math.floor(config.t_end / dt + 1e-9))

    state0 = build_state(initial)
    times: list[float] = [0.0]
    rows: list[list[float]] = [[state0.u, state0.v, state0.phi, state0.chi, state0.rho]]
    events: list[Event] = []
    accepted = rejected = 0

    y = rows[0]
    t = 0.0
    frozen = _is_frozen_state(y, params, config.mode)
    k1 = _rhs_terms(*y, params.lam, params.mass_sq, frozen)
    nevals = 1
    if y[3] == 0.0 and params.mass_sq * y[2] > 0.0:
        # The field equation would pull chi negative right away.
        events.append(Event(0.0, FIELD_FROZEN if frozen else CHI_ZERO_CROSSING,
                            "initial field velocity is zero"))

    k_next = 1
    rho_clamp = min(config.abs_tol, 1e-10)

    def emit(dense: _DenseSegment, t_hi: float,
             y_end: Optional[list[float]]) -> Optional[str]:
        """Append grid samples with t_k <= t_hi; returns a failure detail."""
        nonlocal k_next
        while k_next <= k_last:
            t_k = k_next * dt
            if t_k > t_hi + 1e-9 * dt:
                break
            theta = (t_k - dense.t0) / dense.h
            if y_end is not None and theta >= 1.0 - 1e-12:
                row = list(y_end)
            else:
                row = dense(theta)
            t_sample = config.t_end if k_next == k_last and abs(t_k - config.t_end) <= 1e-9 * dt else t_k
            if -rho_clamp < row[4] < 0.0:
                row[4] = 0.0  # interpolation jitter on a vanishing tail
            if not (all(map(math.isfinite, row)) and row[1] > 0.0 and row[4] >= 0.0):
                return (f"sample at t = {t_sample:.6g} violated state invariants "
                        f"(finite, v > 0, rho >= 0): {row}")
            times.append(t_sample)
            rows.append(row)
            k_next += 1
        return None

    h = config.h_init
    while t < config.t_end:
        remaining = config.t_end - t
        h_trial = min(h, remaining)
        end_limited = h_trial < h
        y1, norm, k = _trial_step(y, k1, h_trial, params, config, frozen)
        nevals += 6
        if norm > 1.0:
            rejected += 1
            h = h_trial * _step_factor(norm)
            if h < config.h_min and not end_limited:
                raise StepSizeUnderflow(
                    f"step size fell below h_min = {config.h_min!r} at t = {t:.9g}")
            continue

        accepted += 1
        t1 = config.t_end if h_trial == remaining else t + h_trial
        h = min(config.h_max, max(config.h_min, h_trial * _step_factor(norm)))
        dense = _DenseSegment(t, h_trial, y, y1, k)

        if not frozen and y[3] > 0.0 and y1[3] <= 0.0:
            theta = _locate_crossing(dense, downward=True, rel_tol=config.rel_tol)
            t_star = t + theta * h_trial
            if config.mode == "paper":
                detail = emit(dense, t_star, None)
                if detail is not None:
                    events.append(Event(t_star, GUARD_TRIPPED, detail))
                    break
                y_star = dense(theta)
                y_star[3] = 0.0
                events.append(Event(t_star, FIELD_FROZEN,
                                    f"field velocity reached zero; phi frozen at {y_star[2]:.12g}"))
                frozen = True
                t, y = t_star, y_star
                k1 = _rhs_terms(*y, params.lam, params.mass_sq, frozen)
                nevals += 1
                continue
            events.append(Event(t_star, CHI_ZERO_CROSSING, "downward crossing"))
        elif config.mode == "kg" and y[3] < 0.0 and y1[3] >= 0.0:
            theta = _locate_crossing(dense, downward=False, rel_tol=config.rel_tol)
            events.append(Event(t + theta * h_trial, CHI_ZERO_CROSSING, "upward crossing"))

        detail = _guard_violation(y1, config) or emit(dense, t1, y1)
        if detail is not None:
            events.append(Event(t1, GUARD_TRIPPED, detail))
            break
        t, y, k1 = t1, y1, k[6]

    return Trajectory(
        params=params,
        initial=initial,
        config=config,
        t=times,
        states=rows,
        events=tuple(events),
        stats=IntegrationStats(steps_accepted=accepted, steps_rejected=rejected,
                               rhs_evaluations=nevals),
    )

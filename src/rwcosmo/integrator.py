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
The trial step is written out as straight-line code over named locals
(u ... rho, and ku1 ... kr7 for the stages), component by component in that
order, each stage calling model._rhs_terms.  The pair is FSAL: an accepted
step's last stage f(y1) is the next step's first, and a rejected step keeps
its first stage, so a run makes 6*(accepted + rejected) + 1 right-hand-side
evaluations, plus one per FieldFrozen restart at t > 0 of a run that steps on
from the freeze.

Dense output is deferred.  A step that holds grid samples records its ends,
stages and sample range in flat buffers; after the last step one vectorized
pass (_dense_samples) builds the quartic of every recorded step and
evaluates it at that step's samples.  The quartic is one formula (_quartic,
_interpolate) that runs elementwise on floats and on numpy arrays alike,
with the same operations in the same order, so a sample is the same bits
as a float evaluation; the chi crossing search and the FieldFrozen state
use the float form.  A sample that breaks the state invariants is found
only after the loop, so each recorded step also keeps the step and event
counts it would stop the run with: the run is cut back to them, as if it had
stopped at that step.

The frozen tail.  Once paper mode clamps chi at 0 the field is frozen and
the run follows the frozen system, whose closed form is frozen_tail.  A
paper-mode run on theorem-1 data stops stepping at its FieldFrozen event (at
t = 0 too) and takes every later sample from frozen_tail, evaluated once.
It steps on from the freeze instead, each step _trial_step with ``frozen``
set, when the tail is not safe: on data admitted only by
override_admissibility, when a guard could trip in the tail (|u_f| above
max_abs_u/2, |phi_f| above max_abs_phi/2 or v(t_end) below 2*min_v), or
when the clamped state has rho_f < 0 (interpolated past a bad sample),
which has no closed form.  A run that does not freeze by t_end, and every
``kg`` run, steps to t_end.  simulate, sweep rows and library callers all
run this one integrate().

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
from array import array
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np

from .initial import InitialData, constraint_scale, build_state, nu_rate, validate_theorem1
from .model import (EIGHT_PI, CosmoState, ModelParams, _finite_fields, _rhs_terms, derived,
                    derived_terms)

#: Key order of Trajectory.as_arrays().
TRAJECTORY_COLUMNS = ("t", "u", "v", "a", "phi", "chi", "psi", "rho",
                      "H", "T00", "Q", "constraint")
#: Column order of Trajectory.states.
STATE_COLUMNS = ("u", "v", "phi", "chi", "rho")


def valid_states(states: np.ndarray) -> np.ndarray:
    """Which rows of the (n, 5) ``states`` hold a state: finite, v > 0, rho >= 0."""
    return np.isfinite(states).all(axis=1) & (states[:, 1] > 0.0) & (states[:, 4] >= 0.0)


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

#: Most samples a run may ask for (t_end/sample_dt + 1): 100 times the dense
#: reference run's 10,001, and 8 MB per sampled column.
MAX_SAMPLES = 10**6

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
        # sample_times has floor(t_end/sample_dt + 1e-9) + 1 samples.
        if not self.t_end / self.sample_dt + 1e-9 < MAX_SAMPLES:
            raise ValueError(f"t_end / sample_dt = {self.t_end / self.sample_dt:.6g} asks for "
                             f"more than MAX_SAMPLES = {MAX_SAMPLES} samples")
        if self.mode not in ("paper", "kg"):
            raise ValueError(f"mode must be 'paper' or 'kg', got {self.mode!r}")
        if not (self.max_abs_u > 0.0 and self.max_abs_phi > 0.0 and self.min_v > 0.0):
            raise ValueError("guard thresholds must be > 0")


@dataclass(frozen=True)
class Event:
    """A logged event: its time, one of the three kinds, and a description."""

    t: float
    kind: str
    detail: str

    def __post_init__(self) -> None:
        _finite_fields(self, "t")
        kinds = (FIELD_FROZEN, CHI_ZERO_CROSSING, GUARD_TRIPPED)
        if self.kind not in kinds:
            raise ValueError(f"kind must be one of {', '.join(kinds)}, got {self.kind!r}")
        if not isinstance(self.detail, str):
            raise TypeError(f"detail must be a string, not {type(self.detail).__name__}")


@dataclass(frozen=True)
class IntegrationStats:
    steps_accepted: int
    steps_rejected: int
    rhs_evaluations: int


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution plus integrator metadata and event log.

    ``states``, the (n, 5) rows of (u, v, phi, chi, rho), is the only sampled
    data stored, as a private read-only copy; the sample times ``t`` are
    derived from ``config`` like every other column.  The first sample is the
    initial state.  In paper mode every sample after a ``FieldFrozen`` event
    has chi exactly 0.  Immutable once returned; equality is identity.
    """

    params: ModelParams
    initial: InitialData
    config: IntegratorConfig
    states: np.ndarray
    events: tuple[Event, ...]
    stats: IntegrationStats

    def __post_init__(self) -> None:
        states = np.array(self.states, dtype=float).reshape(-1, 5)
        states.flags.writeable = False
        object.__setattr__(self, "states", states)
        if self.t.size < len(states):
            raise ValueError(f"{len(states)} state rows, but {self.t.size} grid samples")

    @cached_property
    def t(self) -> np.ndarray:
        """The sample times: the first len(states) points of sample_times(config)."""
        t = sample_times(self.config)[:len(self.states)]
        t.flags.writeable = False
        return t

    def as_arrays(self) -> dict[str, np.ndarray]:
        """Sample columns as read-only numpy arrays, keyed per TRAJECTORY_COLUMNS."""
        return dict(self._columns)

    @cached_property
    def _columns(self) -> dict[str, np.ndarray]:
        u, v, phi, chi, rho = (np.ascontiguousarray(c) for c in self.states.T)
        # numpy's vectorized power can differ from the scalar one in the last
        # bit; the scalar pow keeps a equal to CosmoState.a.  A hand-built
        # state with v <= 0 has no scale factor: a reads nan.
        a = np.fromiter(map(pow, np.where(v > 0.0, v, math.nan).tolist(), repeat(-0.5)),
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
    With ``frozen`` (a paper-mode field clamped at chi = 0) every stage has
    dchi = 0.  The one trial step of step() and integrate().
    """
    lam, mass_sq = params.lam, params.mass_sq
    u, v, phi, chi, rho = y
    ku1, kv1, kp1, kc1, kr1 = k1
    k2 = ku2, kv2, kp2, kc2, kr2 = _rhs_terms(
        u + h * (_A21 * ku1), v + h * (_A21 * kv1), phi + h * (_A21 * kp1),
        chi + h * (_A21 * kc1), rho + h * (_A21 * kr1), lam, mass_sq, frozen)
    k3 = ku3, kv3, kp3, kc3, kr3 = _rhs_terms(
        u + h * (_A31 * ku1 + _A32 * ku2), v + h * (_A31 * kv1 + _A32 * kv2),
        phi + h * (_A31 * kp1 + _A32 * kp2), chi + h * (_A31 * kc1 + _A32 * kc2),
        rho + h * (_A31 * kr1 + _A32 * kr2), lam, mass_sq, frozen)
    k4 = ku4, kv4, kp4, kc4, kr4 = _rhs_terms(
        u + h * (_A41 * ku1 + _A42 * ku2 + _A43 * ku3),
        v + h * (_A41 * kv1 + _A42 * kv2 + _A43 * kv3),
        phi + h * (_A41 * kp1 + _A42 * kp2 + _A43 * kp3),
        chi + h * (_A41 * kc1 + _A42 * kc2 + _A43 * kc3),
        rho + h * (_A41 * kr1 + _A42 * kr2 + _A43 * kr3), lam, mass_sq, frozen)
    k5 = ku5, kv5, kp5, kc5, kr5 = _rhs_terms(
        u + h * (_A51 * ku1 + _A52 * ku2 + _A53 * ku3 + _A54 * ku4),
        v + h * (_A51 * kv1 + _A52 * kv2 + _A53 * kv3 + _A54 * kv4),
        phi + h * (_A51 * kp1 + _A52 * kp2 + _A53 * kp3 + _A54 * kp4),
        chi + h * (_A51 * kc1 + _A52 * kc2 + _A53 * kc3 + _A54 * kc4),
        rho + h * (_A51 * kr1 + _A52 * kr2 + _A53 * kr3 + _A54 * kr4), lam, mass_sq, frozen)
    k6 = ku6, kv6, kp6, kc6, kr6 = _rhs_terms(
        u + h * (_A61 * ku1 + _A62 * ku2 + _A63 * ku3 + _A64 * ku4 + _A65 * ku5),
        v + h * (_A61 * kv1 + _A62 * kv2 + _A63 * kv3 + _A64 * kv4 + _A65 * kv5),
        phi + h * (_A61 * kp1 + _A62 * kp2 + _A63 * kp3 + _A64 * kp4 + _A65 * kp5),
        chi + h * (_A61 * kc1 + _A62 * kc2 + _A63 * kc3 + _A64 * kc4 + _A65 * kc5),
        rho + h * (_A61 * kr1 + _A62 * kr2 + _A63 * kr3 + _A64 * kr4 + _A65 * kr5),
        lam, mass_sq, frozen)
    y1 = [u + h * (_B1 * ku1 + _B3 * ku3 + _B4 * ku4 + _B5 * ku5 + _B6 * ku6),
          v + h * (_B1 * kv1 + _B3 * kv3 + _B4 * kv4 + _B5 * kv5 + _B6 * kv6),
          phi + h * (_B1 * kp1 + _B3 * kp3 + _B4 * kp4 + _B5 * kp5 + _B6 * kp6),
          chi + h * (_B1 * kc1 + _B3 * kc3 + _B4 * kc4 + _B5 * kc5 + _B6 * kc6),
          rho + h * (_B1 * kr1 + _B3 * kr3 + _B4 * kr4 + _B5 * kr5 + _B6 * kr6)]
    u1, v1, phi1, chi1, rho1 = y1
    k7 = ku7, kv7, kp7, kc7, kr7 = _rhs_terms(u1, v1, phi1, chi1, rho1, lam, mass_sq, frozen)
    k = (k1, k2, k3, k4, k5, k6, k7)
    if not all(map(math.isfinite, y1)):
        return y1, math.inf, k
    rel_tol, abs_tol = config.rel_tol, config.abs_tol
    # v and rho get purely relative error control.
    qu = h * (_E1 * ku1 + _E3 * ku3 + _E4 * ku4 + _E5 * ku5 + _E6 * ku6 + _E7 * ku7) / (
        rel_tol * max(abs(u), abs(u1)) + abs_tol)
    qv = h * (_E1 * kv1 + _E3 * kv3 + _E4 * kv4 + _E5 * kv5 + _E6 * kv6 + _E7 * kv7) / (
        rel_tol * max(abs(v), abs(v1)) + _TINY)
    qp = h * (_E1 * kp1 + _E3 * kp3 + _E4 * kp4 + _E5 * kp5 + _E6 * kp6 + _E7 * kp7) / (
        rel_tol * max(abs(phi), abs(phi1)) + abs_tol)
    qc = h * (_E1 * kc1 + _E3 * kc3 + _E4 * kc4 + _E5 * kc5 + _E6 * kc6 + _E7 * kc7) / (
        rel_tol * max(abs(chi), abs(chi1)) + abs_tol)
    qr = h * (_E1 * kr1 + _E3 * kr3 + _E4 * kr4 + _E5 * kr5 + _E6 * kr6 + _E7 * kr7) / (
        rel_tol * max(abs(rho), abs(rho1)) + _TINY)
    return y1, math.sqrt((qu * qu + qv * qv + qp * qp + qc * qc + qr * qr) / 5), k


def _step_factor(norm: float) -> float:
    if norm == 0.0:
        return _GROW_MAX
    return min(_GROW_MAX, max(_SHRINK_MIN, _SAFETY * norm ** _EXPONENT))


def _quartic(h, y0, y1, k1, k3, k4, k5, k6, k7) -> tuple:
    """Coefficients (r0, ..., r4) of the quartic dense output of a step of
    size h from y0 to y1 with stages k1, k3, ..., k7 (d2 = 0).

    Elementwise: one component of one step as floats, or any number of them
    as numpy arrays, with the same operations in the same order and so the
    same bits.  Exact at both ends of the step.
    """
    ydiff = y1 - y0
    bspl = h * k1 - ydiff
    return (y0, ydiff, bspl, ydiff - h * k7 - bspl,
            h * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6 + _D7 * k7))


def _interpolate(r: tuple, theta):
    """The quartic with coefficients r at theta in [0, 1]; elementwise as _quartic."""
    r0, r1, r2, r3, r4 = r
    sigma = 1.0 - theta
    return r0 + theta * (r1 + sigma * (r2 + theta * (r3 + sigma * r4)))


def _step_quartics(h: float, y0: Sequence[float], y1: Sequence[float],
                   k: tuple) -> list[tuple]:
    """The five components' _quartic coefficients of one step, as floats."""
    k1, _, k3, k4, k5, k6, k7 = k
    return [_quartic(h, *c) for c in zip(y0, y1, k1, k3, k4, k5, k6, k7)]


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


def _locate_crossing(chi: tuple, t1: float, h: float, downward: bool,
                     rel_tol: float) -> float:
    """Bisect chi's quartic over a step of size h ending at t1 for a sign change.

    Returns theta in (0, 1].  Robust rather than fast: plain bisection, at
    most 60 iterations, stopping once the bracket is below
    rel_tol * max(1, t1) in time units.
    """
    sign = 1.0 if downward else -1.0
    lo, hi = 0.0, 1.0
    tol_t = rel_tol * max(1.0, t1)
    for _ in range(60):
        if (hi - lo) * h <= tol_t:
            break
        mid = 0.5 * (lo + hi)
        if sign * _interpolate(chi, mid) > 0.0:
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


def sample_times(config: IntegratorConfig) -> np.ndarray:
    """The sample grid of :func:`integrate`: k*sample_dt for k = 0, 1, ...
    up to t_end, the last sample snapped to t_end when within 1e-9*sample_dt."""
    dt = config.sample_dt
    k_last = int(math.floor(config.t_end / dt + 1e-9))
    grid = np.arange(k_last + 1) * dt  # each float(k) * dt, as in float code
    if k_last > 0 and abs(grid[-1] - config.t_end) <= 1e-9 * dt:
        grid[-1] = config.t_end
    return grid


#: Floats recorded per sample-holding step: t0, h, t_hi (the end of its
#: samples, and the time a guard trip in them is logged at), y0, y1 and the
#: stages k1, k3, ..., k7.
_SEGMENT = 3 + 8 * 5
#: Counts recorded per sample-holding step: its last grid index, 1 if a
#: sample at its end is y1 itself (0 on a crossing step, whose samples end at
#: the crossing), and the accepted, rejected and right-hand-side counts and
#: the number of events when its samples are taken.
_SNAPSHOT = 6


def _dense_samples(segments: array, snapshots: np.ndarray, dt: float,
                   rho_clamp: float) -> np.ndarray:
    """The (n, 5) states at the grid samples k = 1, ..., n of the recorded steps.

    Sample k lies in the first step whose last grid index is >= k, at
    theta = (k*dt - t0) / h.  Within 1e-12 of the end of a step whose
    snapshot says so, it is that step's y1; a rho in (-rho_clamp, 0) reads
    0.0 (interpolation jitter on a vanishing tail).
    """
    seg = np.frombuffer(segments).reshape(-1, _SEGMENT)
    grid_k = np.arange(1, snapshots[-1, 0] + 1)
    which = np.searchsorted(snapshots[:, 0], grid_k)
    theta = (grid_k * dt - seg[which, 0]) / seg[which, 1]
    y0, y1, *stages = (seg[:, i:i + 5] for i in range(3, _SEGMENT, 5))
    rows = _interpolate([c[which] for c in _quartic(seg[:, 1:2], y0, y1, *stages)],
                        theta[:, None])
    at_end = (theta >= 1.0 - 1e-12) & (snapshots[which, 1] == 1)
    rows[at_end] = y1[which[at_end]]
    rho = rows[:, 4]
    rho[(-rho_clamp < rho) & (rho < 0.0)] = 0.0
    return rows


def integrate(initial: InitialData, params: ModelParams,
              config: IntegratorConfig) -> Trajectory:
    """Advance the system from t = 0 to t_end, sampling every sample_dt.

    A paper-mode run on theorem-1 data takes its samples after FieldFrozen
    from frozen_tail when that is safe (module docstring); the stats and
    events are those of the steps taken.

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
    state0 = build_state(initial)
    resid = derived(state0, params).constraint
    if abs(resid) > 1e-9 * constraint_scale(params, initial):
        raise ValueError(
            f"initial data violate the Hamiltonian constraint (residual {resid!r}); "
            "construct them with make_initial_data/initial_data_from_u0")

    dt = config.sample_dt
    grid = sample_times(config)
    k_last = grid.size - 1

    events: list[Event] = []
    accepted = rejected = 0

    y = row0 = [state0.u, state0.v, state0.phi, state0.chi, state0.rho]
    t = 0.0
    frozen = _is_frozen_state(y, params, config.mode)
    k1 = _rhs_terms(*y, params.lam, params.mass_sq, frozen)
    nevals = 1
    k_next = 1

    def take_tail(t_f: float, y_f: list[float]) -> Optional[np.ndarray]:
        """frozen_tail at the samples from k_next on, if it is safe there.

        A crossing state interpolated past a bad sample may have rho_f < 0,
        which has no closed form; the run then steps on to its cut-back."""
        if not (report.theorem1_applicable and y_f[4] >= 0.0
                and nu_rate(params, y_f[2]) is not None
                and 2.0 * abs(y_f[0]) <= config.max_abs_u
                and 2.0 * abs(y_f[2]) <= config.max_abs_phi):
            return None
        # The last row probes v at t_end.
        rows = frozen_tail(t_f, y_f, params, np.append(grid[k_next:], config.t_end))
        return rows[:-1] if rows[-1, 1] >= 2.0 * config.min_v else None

    tail = None
    if y[3] == 0.0 and params.mass_sq * y[2] > 0.0:
        # The field equation would pull chi negative right away.
        events.append(Event(0.0, FIELD_FROZEN if frozen else CHI_ZERO_CROSSING,
                            "initial field velocity is zero"))
        if frozen:
            tail = take_tail(0.0, y)

    # The sample-holding steps, for _dense_samples: _SEGMENT floats and
    # _SNAPSHOT counts each.
    segments = array("d")
    snapshots = array("q")

    def hold(t0: float, h_step: float, y0: list[float], y1: list[float], k: tuple,
             t_hi: float, at_end: int) -> None:
        """Record the step if grid samples t_k <= t_hi fall in it."""
        nonlocal k_next
        # The last k with k*dt <= lim; k*dt rises with k, so the quotient
        # is at most a step or two off.
        lim = t_hi + 1e-9 * dt
        k_end = min(k_last, int(lim / dt))
        while k_end >= k_next and k_end * dt > lim:
            k_end -= 1
        while k_end < k_last and (k_end + 1) * dt <= lim:
            k_end += 1
        if k_end >= k_next:
            k1, _, k3, k4, k5, k6, k7 = k
            segments.extend((t0, h_step, t_hi, *y0, *y1, *k1, *k3, *k4, *k5, *k6, *k7))
            snapshots.extend((k_end, at_end, accepted, rejected, nevals, len(events)))
            k_next = k_end + 1

    h = config.h_init
    underflow = None
    try:
        while tail is None and t < config.t_end:
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

            if not frozen and y[3] > 0.0 and y1[3] <= 0.0:
                quartics = _step_quartics(h_trial, y, y1, k)
                theta = _locate_crossing(quartics[3], t + h_trial, h_trial, True,
                                         config.rel_tol)
                t_star = t + theta * h_trial
                if config.mode == "paper":
                    hold(t, h_trial, y, y1, k, t_star, 0)
                    y_star = [_interpolate(q, theta) for q in quartics]
                    y_star[3] = 0.0
                    events.append(Event(t_star, FIELD_FROZEN,
                                        f"field velocity reached zero; phi frozen at {y_star[2]:.12g}"))
                    frozen = True
                    t, y = t_star, y_star
                    tail = take_tail(t, y)
                    if tail is not None:
                        break
                    k1 = _rhs_terms(*y, params.lam, params.mass_sq, frozen)
                    nevals += 1
                    continue
                events.append(Event(t_star, CHI_ZERO_CROSSING, "downward crossing"))
            elif config.mode == "kg" and y[3] < 0.0 and y1[3] >= 0.0:
                chi = _step_quartics(h_trial, y, y1, k)[3]
                theta = _locate_crossing(chi, t + h_trial, h_trial, False, config.rel_tol)
                events.append(Event(t + theta * h_trial, CHI_ZERO_CROSSING, "upward crossing"))

            detail = _guard_violation(y1, config)
            if detail is not None:
                events.append(Event(t1, GUARD_TRIPPED, detail))
                break
            hold(t, h_trial, y, y1, k, t1, 1)
            t, y, k1 = t1, y1, k[6]
    except StepSizeUnderflow as exc:
        underflow = exc  # unless a sample before it broke the invariants

    samples = np.empty((0, 5))
    if snapshots:
        snaps = np.frombuffer(snapshots, dtype=np.int64).reshape(-1, _SNAPSHOT)
        samples = _dense_samples(segments, snaps, dt, min(config.abs_tol, 1e-10))
        ok = valid_states(samples)
        if not ok.all():
            # The run stops at the step holding the first bad sample.
            j = int(np.argmin(ok))
            s = int(np.searchsorted(snaps[:, 0], j + 1))
            accepted, rejected, nevals, n_events = snaps[s, 2:].tolist()
            del events[n_events:]
            events.append(Event(segments[s * _SEGMENT + 2], GUARD_TRIPPED,
                                f"sample at t = {grid[j + 1]:.6g} violated state invariants "
                                f"(finite, v > 0, rho >= 0): {samples[j].tolist()}"))
            samples = samples[:j]
            tail = underflow = None
    if underflow is not None:
        raise underflow
    if tail is not None:
        samples = np.concatenate((samples, tail))

    return Trajectory(
        params=params,
        initial=initial,
        config=config,
        states=np.concatenate(([row0], samples)),
        events=tuple(events),
        stats=IntegrationStats(steps_accepted=accepted, steps_rejected=rejected,
                               rhs_evaluations=nevals),
    )


def libm(f: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """``f`` (math.exp, math.expm1, math.log) of each element of the 1-d
    array ``x``; a result past the largest double reads inf, as numpy's does.

    numpy's exp and log run a SIMD loop picked for the CPU at run time, and
    the last bit of their results follows that pick; the math module's do
    not, so trajectories and reports come out the same on every CPU.
    """
    values = x.tolist()
    try:
        return np.fromiter(map(f, values), float, len(values))
    except OverflowError:
        return np.array([_inf_on_overflow(f, v) for v in values], dtype=float)


def _inf_on_overflow(f: Callable[[float], float], v: float) -> float:
    try:
        return f(v)
    except OverflowError:
        return math.inf


def frozen_tail(t_f: float, y_f: Sequence[float], params: ModelParams,
                times: np.ndarray) -> np.ndarray:
    """The (n, 5) states at the n ``times`` (a 1-d array or list, each >= t_f)
    of the frozen paper-mode system started from the clamped state y_f at
    t_f, in closed form.

    With chi = 0 and phi = phi_f the system is u' = -2(u^2 - u_inf^2) on
    shell, v' = -2uv and rho' = -4u*rho, with u_inf = nu_rate(params, phi_f)
    (ValueError when that is undefined).  So u = u_inf*coth(s), v = v_f*r
    and rho = rho_f*r^2, where s = s_f + 2 u_inf (t - t_f) and
    r = sinh(s_f)/sinh(s).  The phase s_f comes from
    rho_f = 3 u_inf^2 / (8 pi sinh^2(s_f)) through asinh (from u_f through
    atanh it would cancel once u_f is near u_inf), and coth and r go through
    exp and expm1 of -2s, so no large s overflows.  At rho_f = 0 the phase
    is s_f = inf: expm1(-inf) = -1 gives u = u_inf, r = exp(-2 u_inf (t - t_f))
    and rho = 0.  A negative rho_f has no closed form (ValueError).

    One pass over the whole array: the arithmetic is numpy's, in the
    operation order of the one-sample formula (IEEE +, -, * and / round the
    same either way), and exp and expm1 are the math module's through libm,
    so each element has the bits of a float evaluation and the bytes do not
    depend on numpy's SIMD loops.
    """
    _, v_f, phi_f, _, rho_f = y_f
    u_inf = nu_rate(params, phi_f)
    if u_inf is None:
        raise ValueError(f"lambda + 4 pi m^2 phi_f^2 <= 0 at phi_f = {phi_f!r}: no frozen limit")
    t = np.asarray(times, dtype=float)
    rows = np.zeros((t.size, 5))
    s_f = (math.asinh(u_inf * math.sqrt(3.0 / EIGHT_PI) / math.sqrt(rho_f))
           if rho_f != 0.0 else math.inf)
    em_f = math.expm1(-2.0 * s_f)
    d = (2.0 * u_inf) * (t - t_f)
    em = libm(math.expm1, -2.0 * (s_f + d))  # exp(-2s) - 1, in [-1, 0)
    r = libm(math.exp, -d) * (em_f / em)
    rows[:, 0] = (-u_inf * (2.0 + em)) / em
    rows[:, 1] = v_f * r
    rows[:, 2] = phi_f
    rows[:, 4] = (rho_f * r) * r + 0.0  # + 0.0: a rho_f of -0.0 reads 0.0, as 0.0 does
    return rows

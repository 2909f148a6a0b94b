"""Adaptive integration of the evolution system with dense output and events.

The stepper is the Dormand-Prince 5(4) embedded pair with its standard
quartic continuous extension.  Step control follows the usual safety-factor
rule (safety 0.9, growth factor clamped to [0.2, 5]) on a weighted RMS error.
It evolves the four components (u, v, phi, chi); the fluid density is
model.density of v, anchored at the run's start state, in every stage and
every sample.

Arithmetic is on plain Python floats in a fixed order, with no BLAS call,
so the output bytes do not depend on the BLAS kernel.  Stage arguments and
y1 are y + h*(a_1*k_1 + a_2*k_2 + ...), the error estimate and the quartic
coefficient h*(w_1*k_1 + ...), each sum left to right over the nonzero
weights; the error norm is sqrt((q_u**2 + q_v**2 + q_phi**2 + q_chi**2 +
q_rho**2) / 5) with q_rho = 2*q_v, the relative error of rho0*(v/v0)**2.
The trial step is written out as straight-line code over named locals
(u ... chi, and ku1 ... kc7 for the stages), component by component in that
order, each stage calling model._rhs_terms.  The pair is FSAL: an accepted
step's last stage f(y1) is the next step's first, and a rejected step keeps
its first stage, so a run makes 6*(accepted + rejected) + 1 right-hand-side
evaluations, plus one per FieldFrozen restart at t > 0 of a run that steps on
from the freeze.

Dense output is sampled as each step is accepted: the step's grid samples
come from its quartic (_quartic, _interpolate) on floats, and the first one
that breaks the state invariants stops the run at that step with a
GuardTripped event.  The chi crossing search and the FieldFrozen state use
the same quartic.  integrate maps its inputs to the run bit for bit, and
that is how read_trajectory rebuilds a written run: it integrates again.

The frozen tail.  Once paper mode clamps chi at 0 the field is frozen and
the run follows the frozen system, whose closed form is frozen_tail.  A
paper-mode run on theorem-1 data stops stepping at its FieldFrozen event (at
t = 0 too) and takes every later sample from frozen_tail, evaluated once.
In the tail u falls toward u_inf > 0 and phi is constant, so only MIN_V can
end it: the first tail sample with v < MIN_V ends the run in GuardTripped at
that sample's time.  Only a run on data admitted by override_admissibility
steps on from the freeze, each step _trial_step with ``frozen`` set.  A run
that does not freeze by t_end, and every ``kg`` run, steps to t_end.
simulate, sweep rows and library callers all run this one integrate().

Error weights: u, phi and chi use the mixed scale abs_tol + rel_tol*|y|.  The
strictly positive, exponentially decaying v uses the purely relative scale
rel_tol*|y|: under a mixed scale the controller goes blind on it as soon as it
falls below abs_tol, which destroys its relative accuracy (and with it the
quadrature identity v*exp(2*int u) = v0) and even admits linearly unstable
step sizes whose weighted error looks negligible.  Relative control keeps
that tail accurate to ~rel_tol per step all the way down to the underflow
guard.  The norm's density term q_rho = 2*q_v is needed: with the four
evolved terms alone the dense reference run (tol 1e-8, sample_dt 0.001)
drifts past Tolerances.constraint_budget.

Two continuations are offered past the point where the field velocity chi
reaches zero:

``paper`` (default)
    The non-decreasing-field continuation: the first downward zero crossing
    of chi is located by bisection on the dense interpolant, logged as a
    ``FieldFrozen`` event, and chi is clamped to exactly 0 from then on.  The
    field (and hence its energy) is frozen; u and v keep evolving.

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
from typing import Callable, Optional, Sequence

import numpy as np

from .initial import InitialData, constraint_scale, build_state, nu_rate, validate_theorem1
from .model import (EIGHT_PI, CosmoState, ModelParams, _finite_fields, _rhs_terms, density,
                    derived, derived_terms)

#: Key order of Trajectory.as_arrays().
TRAJECTORY_COLUMNS = ("t", "u", "v", "a", "phi", "chi", "psi", "rho",
                      "H", "T00", "Q", "constraint")
#: Column order of Trajectory.states.
STATE_COLUMNS = ("u", "v", "phi", "chi")


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

#: The first trial step, and the bounds of every step.
H_INIT = 1e-4
H_MIN = 1e-14
H_MAX = 0.25
#: Run limits: a step size below H_MIN, MAX_STEPS trial steps short of t_end,
#: a step ending at u < -MAX_ABS_U (a collapse) or v < MIN_V, or a frozen-tail
#: sample with v < MIN_V ends the run in GuardTripped.  Of the two guards a
#: theorem-1 run meets only MIN_V, once int u dt passes ln(v0/MIN_V)/2, ~345
#: for v0 = 1.
#: MAX_STEPS is 4,000 times the dense kg run's 242 steps: a kg run at m = 1e4,
#: phi0 = 0.01 reached it at t = 12.4 after 10.8 s (2-CPU Xeon, Python 3.11).
MAX_STEPS = 10**6
MAX_ABS_U = 1e3
MIN_V = 1e-300

_SAFETY = 0.9
_SHRINK_MIN = 0.2
_GROW_MAX = 5.0
_EXPONENT = -0.2  # 1/5th order


class InadmissibleInitialData(ValueError):
    """Data fail the global-existence hypotheses and no override was given."""


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    t_end: float = 10.0
    sample_dt: float = 0.01
    mode: str = "paper"  # "paper" | "kg"
    override_admissibility: bool = False

    def __post_init__(self) -> None:
        _finite_fields(self, *(f.name for f in fields(self) if f.type == "float"))
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("rel_tol and abs_tol must be > 0")
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
        if type(self.override_admissibility) is not bool:
            raise ValueError(f"override_admissibility must be a bool, "
                             f"got {self.override_admissibility!r}")


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

    ``states``, the (n, 4) rows of (u, v, phi, chi), is the sampled data
    held, read-only.  A float array that owns its memory and is read-only
    already (integrate's) is taken as it is, and must not be made writable
    again; anything else is copied, so a caller's writable array or view
    does not back the run.  The sample times ``t`` and the density are
    derived, from ``config`` and ``initial``, like every other column.  The
    first sample is the initial state.  In paper mode every sample after a
    ``FieldFrozen`` event has chi exactly 0.  A ``GuardTripped`` event, if
    any, is the last event.  Immutable once returned; equality is identity.
    """

    params: ModelParams
    initial: InitialData
    config: IntegratorConfig
    states: np.ndarray
    events: tuple[Event, ...]
    stats: IntegrationStats

    def __post_init__(self) -> None:
        states = self.states
        if not (isinstance(states, np.ndarray) and states.dtype == float
                and states.shape[1:] == (4,) and states.base is None
                and not states.flags.writeable):
            states = _read_only(np.array(states, dtype=float).reshape(-1, 4))
        object.__setattr__(self, "states", states)
        if self.t.size < len(states):
            raise ValueError(f"{len(states)} state rows, but {self.t.size} grid samples")
        if any(e.kind == GUARD_TRIPPED for e in self.events[:-1]):
            raise ValueError(f"a {GUARD_TRIPPED} event ends the run: it must be the last event")

    @cached_property
    def t(self) -> np.ndarray:
        """The sample times: the first len(states) points of sample_times(config)."""
        t = sample_times(self.config)[:len(self.states)]
        t.flags.writeable = False
        return t

    def as_arrays(self) -> dict[str, np.ndarray]:
        """Sample columns as read-only numpy arrays, keyed per TRAJECTORY_COLUMNS;
        u, v, phi and chi are views of ``states``."""
        return dict(self._columns)

    @cached_property
    def _columns(self) -> dict[str, np.ndarray]:
        u, v, phi, chi = self.states.T
        # A hand-built state far from v0 may overflow: rho reads inf, or nan
        # at rho0 = 0 and v = inf, as a float evaluation does.
        state0 = build_state(self.initial)
        with np.errstate(over="ignore", invalid="ignore"):
            rho = density(state0.rho, state0.v, v)
        # IEEE sqrt and / are correctly rounded, in numpy's loops as in
        # scalar code and on every CPU, so a equals CosmoState.a bit for bit.
        # A hand-built state with v <= 0 has no scale factor: a reads nan.
        a = 1.0 / np.sqrt(np.where(v > 0.0, v, math.nan))
        d = derived_terms(u, phi, chi, rho, self.params)
        cols = {"t": self.t, "u": u, "v": v, "a": a, "phi": phi, "chi": chi,
                "psi": 0.5 * chi * chi, "rho": rho, "H": d.H, "T00": d.T00,
                "Q": d.Q, "constraint": d.constraint}
        for col in cols.values():
            col.flags.writeable = False
        return cols

    @property
    def guard_tripped(self) -> bool:
        """Whether a run limit ended the run: its last event is GuardTripped."""
        return bool(self.events) and self.events[-1].kind == GUARD_TRIPPED


def _trial_step(y: Sequence[float], k1: Sequence[float], h: float,
                params: ModelParams, anchor: tuple[float, float], config: IntegratorConfig,
                frozen: bool) -> tuple[list[float], float, tuple]:
    """One trial step from y, given its first stage k1 = f(y).

    Returns (y_new, weighted RMS error norm, the seven stages); the last
    stage is f(y_new).  ``anchor`` is the run's (rho0, v0), from which every
    stage takes its density.  The norm is infinite when y_new is not finite.
    With ``frozen`` (a paper-mode field clamped at chi = 0) every stage has
    dchi = 0.  The one trial step of step() and integrate().
    """
    lam, mass_sq = params.lam, params.mass_sq
    rho0, v0 = anchor
    u, v, phi, chi = y
    ku1, kv1, kp1, kc1 = k1
    k2 = ku2, kv2, kp2, kc2 = _rhs_terms(
        u + h * (_A21 * ku1), v + h * (_A21 * kv1), phi + h * (_A21 * kp1),
        chi + h * (_A21 * kc1), lam, mass_sq, rho0, v0, frozen)
    k3 = ku3, kv3, kp3, kc3 = _rhs_terms(
        u + h * (_A31 * ku1 + _A32 * ku2), v + h * (_A31 * kv1 + _A32 * kv2),
        phi + h * (_A31 * kp1 + _A32 * kp2), chi + h * (_A31 * kc1 + _A32 * kc2),
        lam, mass_sq, rho0, v0, frozen)
    k4 = ku4, kv4, kp4, kc4 = _rhs_terms(
        u + h * (_A41 * ku1 + _A42 * ku2 + _A43 * ku3),
        v + h * (_A41 * kv1 + _A42 * kv2 + _A43 * kv3),
        phi + h * (_A41 * kp1 + _A42 * kp2 + _A43 * kp3),
        chi + h * (_A41 * kc1 + _A42 * kc2 + _A43 * kc3), lam, mass_sq, rho0, v0, frozen)
    k5 = ku5, kv5, kp5, kc5 = _rhs_terms(
        u + h * (_A51 * ku1 + _A52 * ku2 + _A53 * ku3 + _A54 * ku4),
        v + h * (_A51 * kv1 + _A52 * kv2 + _A53 * kv3 + _A54 * kv4),
        phi + h * (_A51 * kp1 + _A52 * kp2 + _A53 * kp3 + _A54 * kp4),
        chi + h * (_A51 * kc1 + _A52 * kc2 + _A53 * kc3 + _A54 * kc4),
        lam, mass_sq, rho0, v0, frozen)
    k6 = ku6, kv6, kp6, kc6 = _rhs_terms(
        u + h * (_A61 * ku1 + _A62 * ku2 + _A63 * ku3 + _A64 * ku4 + _A65 * ku5),
        v + h * (_A61 * kv1 + _A62 * kv2 + _A63 * kv3 + _A64 * kv4 + _A65 * kv5),
        phi + h * (_A61 * kp1 + _A62 * kp2 + _A63 * kp3 + _A64 * kp4 + _A65 * kp5),
        chi + h * (_A61 * kc1 + _A62 * kc2 + _A63 * kc3 + _A64 * kc4 + _A65 * kc5),
        lam, mass_sq, rho0, v0, frozen)
    y1 = [u + h * (_B1 * ku1 + _B3 * ku3 + _B4 * ku4 + _B5 * ku5 + _B6 * ku6),
          v + h * (_B1 * kv1 + _B3 * kv3 + _B4 * kv4 + _B5 * kv5 + _B6 * kv6),
          phi + h * (_B1 * kp1 + _B3 * kp3 + _B4 * kp4 + _B5 * kp5 + _B6 * kp6),
          chi + h * (_B1 * kc1 + _B3 * kc3 + _B4 * kc4 + _B5 * kc5 + _B6 * kc6)]
    u1, v1, phi1, chi1 = y1
    k7 = ku7, kv7, kp7, kc7 = _rhs_terms(u1, v1, phi1, chi1, lam, mass_sq, rho0, v0, frozen)
    k = (k1, k2, k3, k4, k5, k6, k7)
    if not all(map(math.isfinite, y1)):
        return y1, math.inf, k
    rel_tol, abs_tol = config.rel_tol, config.abs_tol
    # v gets purely relative error control.
    qu = h * (_E1 * ku1 + _E3 * ku3 + _E4 * ku4 + _E5 * ku5 + _E6 * ku6 + _E7 * ku7) / (
        rel_tol * max(abs(u), abs(u1)) + abs_tol)
    qv = h * (_E1 * kv1 + _E3 * kv3 + _E4 * kv4 + _E5 * kv5 + _E6 * kv6 + _E7 * kv7) / (
        rel_tol * max(abs(v), abs(v1)) + _TINY)
    qp = h * (_E1 * kp1 + _E3 * kp3 + _E4 * kp4 + _E5 * kp5 + _E6 * kp6 + _E7 * kp7) / (
        rel_tol * max(abs(phi), abs(phi1)) + abs_tol)
    qc = h * (_E1 * kc1 + _E3 * kc3 + _E4 * kc4 + _E5 * kc5 + _E6 * kc6 + _E7 * kc7) / (
        rel_tol * max(abs(chi), abs(chi1)) + abs_tol)
    qr = 2.0 * qv  # the density's: rho = rho0*(v/v0)**2 has twice v's relative error
    return y1, math.sqrt((qu * qu + qv * qv + qp * qp + qc * qc + qr * qr) / 5), k


def _step_factor(norm: float) -> float:
    if norm == 0.0:
        return _GROW_MAX
    return min(_GROW_MAX, max(_SHRINK_MIN, _SAFETY * norm ** _EXPONENT))


def _quartic(h, y0, y1, k1, k3, k4, k5, k6, k7) -> tuple:
    """Coefficients (r0, ..., r4) of the quartic dense output of one
    component of a step of size h from y0 to y1 with stages k1, k3, ..., k7
    (d2 = 0).  Exact at both ends of the step.
    """
    ydiff = y1 - y0
    bspl = h * k1 - ydiff
    return (y0, ydiff, bspl, ydiff - h * k7 - bspl,
            h * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6 + _D7 * k7))


def _interpolate(r: tuple, theta):
    """The quartic with coefficients r at theta in [0, 1]."""
    r0, r1, r2, r3, r4 = r
    sigma = 1.0 - theta
    return r0 + theta * (r1 + sigma * (r2 + theta * (r3 + sigma * r4)))


def _step_quartics(h: float, y0: Sequence[float], y1: Sequence[float],
                   k: tuple) -> list[tuple]:
    """The four components' _quartic coefficients of one step, as floats."""
    k1, _, k3, k4, k5, k6, k7 = k
    return [_quartic(h, *c) for c in zip(y0, y1, k1, k3, k4, k5, k6, k7)]


def _sample(quartics: Sequence[tuple], theta: float,
            y_end: Optional[Sequence[float]]) -> list[float]:
    """The state at theta of a step with _step_quartics ``quartics``.

    Within 1e-12 of the step's end it is y_end, the step's y1, itself (None
    on a step whose samples end at a chi crossing).
    """
    if y_end is not None and theta >= 1.0 - 1e-12:
        return list(y_end)
    return [_interpolate(q, theta) for q in quartics]


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
    the caller's job; this function never retries.  The density is anchored
    at ``state``: the new state's rho is density(state.rho, state.v, v).
    """
    if not (H_MIN <= h <= H_MAX):
        raise ValueError(f"h = {h!r} outside [H_MIN, H_MAX] = [{H_MIN!r}, {H_MAX!r}]")
    y = (state.u, state.v, state.phi, state.chi)
    anchor = (state.rho, state.v)
    frozen = _is_frozen_state(y, params, config.mode)
    k1 = _rhs_terms(*y, params.lam, params.mass_sq, *anchor, frozen)
    y1, norm, _ = _trial_step(y, k1, h, params, anchor, config, frozen)
    new_state = CosmoState(state.t + h, *y1, density(*anchor, y1[1]))
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


def _guard_violation(y: Sequence[float]) -> Optional[str]:
    # y is an accepted step's end: finite, since a non-finite one has norm inf.
    # On shell u' = -8 pi psi - (16 pi / 3) rho <= 0: u never rises past u0,
    # so only a collapse passes the u guard.
    if y[0] < -MAX_ABS_U:
        return f"|u| = {abs(y[0]):.6g} exceeded {MAX_ABS_U:.6g}"
    if y[1] < MIN_V:
        return f"v = {y[1]:.6g} fell below {MIN_V:.6g}"
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


def integrate(initial: InitialData, params: ModelParams,
              config: IntegratorConfig) -> Trajectory:
    """Advance the system from t = 0 to t_end, sampling every sample_dt.

    A paper-mode run on theorem-1 data takes its samples after FieldFrozen
    from frozen_tail (module docstring); the stats are those of the steps
    taken.  The run is a function of the three arguments, bit for bit:
    read_trajectory rebuilds a written run by calling integrate again.

    Preconditions: the data must pass :func:`validate_theorem1` unless
    ``config.override_admissibility`` is set (exploration of inadmissible
    data, e.g. the contracting branch), and must satisfy the initial
    constraint; violating either raises.  Every other input returns a
    Trajectory.  A run limit ends the run early with a ``GuardTripped``
    event, its last, and the partial trajectory up to it: a step size below
    H_MIN, MAX_STEPS trial steps, a step ending at u < -MAX_ABS_U or
    v < MIN_V, a frozen-tail sample with v < MIN_V, or a grid sample that
    breaks the state invariants.
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

    y = [state0.u, state0.v, state0.phi, state0.chi]
    anchor = (state0.rho, state0.v)
    rows = [y]
    t = 0.0
    frozen = _is_frozen_state(y, params, config.mode)
    k1 = _rhs_terms(*y, params.lam, params.mass_sq, *anchor, frozen)
    nevals = 1
    k_next = 1

    def take_tail(t_f: float, y_f: list[float]) -> Optional[np.ndarray]:
        """frozen_tail at the samples from k_next on, up to the first with
        v < MIN_V, which ends the run; None on data it does not cover."""
        if not (report.theorem1_applicable and nu_rate(params, y_f[2]) is not None):
            return None
        states = frozen_tail(t_f, y_f, anchor, params, grid[k_next:])
        n = int(np.argmax(np.append(states[:, 1] < MIN_V, True)))  # the first v < MIN_V
        if n < len(states):
            events.append(Event(float(grid[k_next + n]), GUARD_TRIPPED,
                                _guard_violation(states[n])))
        return states[:n]

    tail = None
    if y[3] == 0.0 and params.mass_sq * y[2] > 0.0:
        # The field equation would pull chi negative right away.
        events.append(Event(0.0, FIELD_FROZEN if frozen else CHI_ZERO_CROSSING,
                            "initial field velocity is zero"))
        if frozen:
            tail = take_tail(0.0, y)

    h = H_INIT
    while tail is None and t < config.t_end:
        if accepted + rejected == MAX_STEPS:
            events.append(Event(t, GUARD_TRIPPED, f"MAX_STEPS = {MAX_STEPS} trial steps taken"))
            break
        remaining = config.t_end - t
        h_trial = min(h, remaining)
        end_limited = h_trial < h
        y1, norm, k = _trial_step(y, k1, h_trial, params, anchor, config, frozen)
        nevals += 6
        if norm > 1.0:
            rejected += 1
            h = h_trial * _step_factor(norm)
            if h < H_MIN and not end_limited:
                events.append(Event(t, GUARD_TRIPPED, f"step size fell below H_MIN = {H_MIN!r}"))
                break
            continue

        accepted += 1
        t1 = config.t_end if h_trial == remaining else t + h_trial
        h = min(H_MAX, max(H_MIN, h_trial * _step_factor(norm)))

        # A frozen chi is exactly 0, and only kg mode takes chi below 0.
        downward = y[3] > 0.0 >= y1[3]
        if downward or y[3] < 0.0 <= y1[3]:
            quartics = _step_quartics(h_trial, y, y1, k)
            theta = _locate_crossing(quartics[3], t + h_trial, h_trial, downward,
                                     config.rel_tol)
            t_star = t + theta * h_trial
            if downward and config.mode == "paper":
                k_next, detail = _emit(rows, grid, dt, k_next, t, h_trial, quartics, None, t_star)
                if detail is not None:
                    events.append(Event(t_star, GUARD_TRIPPED, detail))
                    break
                y_star = [_interpolate(q, theta) for q in quartics]
                y_star[3] = 0.0
                events.append(Event(t_star, FIELD_FROZEN,
                                    f"field velocity reached zero; phi frozen at {y_star[2]:.12g}"))
                frozen = True
                t, y = t_star, y_star
                tail = take_tail(t, y)
                if tail is None:  # step on from the freeze
                    k1 = _rhs_terms(*y, params.lam, params.mass_sq, *anchor, frozen)
                    nevals += 1
                continue
            events.append(Event(t_star, CHI_ZERO_CROSSING,
                                f"{'downward' if downward else 'upward'} crossing"))

        detail = _guard_violation(y1)
        if detail is None and k_next <= k_last and k_next * dt <= t1 + 1e-9 * dt:
            # The step holds a grid sample: only then are its quartics taken.
            quartics = _step_quartics(h_trial, y, y1, k)
            k_next, detail = _emit(rows, grid, dt, k_next, t, h_trial, quartics, y1, t1)
        if detail is not None:
            events.append(Event(t1, GUARD_TRIPPED, detail))
            break
        t, y, k1 = t1, y1, k[6]

    return Trajectory(
        params=params,
        initial=initial,
        config=config,
        states=_read_only(np.array(rows) if tail is None else np.concatenate((rows, tail))),
        events=tuple(events),
        stats=IntegrationStats(steps_accepted=accepted, steps_rejected=rejected,
                               rhs_evaluations=nevals),
    )


def _emit(rows: list, grid: np.ndarray, dt: float, k: int, t0: float, h: float,
          quartics: Sequence, y_end: Optional[Sequence[float]],
          t_hi: float) -> tuple[int, Optional[str]]:
    """Append to ``rows`` the samples of the step of size h from t0 with
    _step_quartics ``quartics`` at the points k, k + 1, ... up to t_hi of
    the sample ``grid``, whose spacing is ``dt``.

    Returns the next grid index and, at the first sample that breaks the
    state invariants (not appended), its failure detail.  ``y_end`` is as
    for _sample.
    """
    lim = t_hi + 1e-9 * dt
    n = grid.size
    while k < n and k * dt <= lim:
        row = _sample(quartics, (k * dt - t0) / h, y_end)
        # A state is finite, with v > 0.
        if not (all(map(math.isfinite, row)) and row[1] > 0.0):
            return k, (f"sample at t = {grid[k]:.6g} violated state invariants "
                       f"(finite, v > 0): {row}")
        rows.append(row)
        k += 1
    return k, None


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: a Trajectory takes it without a copy."""
    a.flags.writeable = False
    return a


def libm(f: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """``f`` (math.exp, math.expm1, math.log) of each element of the 1-d
    array ``x``; a result past the largest double reads inf, as numpy's does.

    numpy's exp and log run a SIMD loop picked for the CPU at run time, and
    the last bit of their results follows that pick; the math module's do
    not, so the bytes do not depend on numpy's loops.  They still depend on
    glibc, which picks FMA variants of exp, expm1 and log (and pow) at run
    time: a rare argument changes its last bit on a CPU without FMA.
    """
    values = memoryview(np.ascontiguousarray(x, dtype=float))
    try:
        return np.fromiter(map(f, values), float, len(values))
    except OverflowError:
        return np.array([_inf_on_overflow(f, v) for v in values], dtype=float)


def _inf_on_overflow(f: Callable[[float], float], v: float) -> float:
    try:
        return f(v)
    except OverflowError:
        return math.inf


def frozen_tail(t_f: float, y_f: Sequence[float], anchor: tuple[float, float],
                params: ModelParams, times: np.ndarray) -> np.ndarray:
    """The (n, 4) states at the n ``times`` (a 1-d array or list, each >= t_f)
    of the frozen paper-mode system started from the clamped state y_f at
    t_f, in closed form; ``anchor`` is the run's (rho0, v0).

    With chi = 0 and phi = phi_f the system is u' = -2(u^2 - u_inf^2) on
    shell and v' = -2uv, with u_inf = nu_rate(params, phi_f) (ValueError
    when that is undefined).  So u = u_inf*coth(s) and v = v_f*r, where
    s = s_f + 2 u_inf (t - t_f) and r = sinh(s_f)/sinh(s).  The phase s_f
    comes from the density rho_f = density(rho0, v0, v_f) =
    3 u_inf^2 / (8 pi sinh^2(s_f)) through asinh (from u_f through atanh it
    would cancel once u_f is near u_inf), and coth and r go through exp and
    expm1 of -2s, so no large s overflows.  At rho_f = 0 the phase is
    s_f = inf: expm1(-inf) = -1 gives u = u_inf and r = exp(-2 u_inf (t - t_f)).

    One pass over the whole array: the arithmetic is numpy's, in the
    operation order of the one-sample formula (IEEE +, -, * and / round the
    same either way), and exp and expm1 are the math module's through libm,
    so each element has the bits of a float evaluation and the bytes do not
    depend on numpy's SIMD loops.
    """
    _, v_f, phi_f, _ = y_f
    u_inf = nu_rate(params, phi_f)
    if u_inf is None:
        raise ValueError(f"lambda + 4 pi m^2 phi_f^2 <= 0 at phi_f = {phi_f!r}: no frozen limit")
    t = np.asarray(times, dtype=float)
    rows = np.zeros((t.size, 4))
    rho_f = density(*anchor, v_f)
    s_f = (math.asinh(u_inf * math.sqrt(3.0 / EIGHT_PI) / math.sqrt(rho_f))
           if rho_f != 0.0 else math.inf)
    em_f = math.expm1(-2.0 * s_f)
    d = (2.0 * u_inf) * (t - t_f)
    em = libm(math.expm1, -2.0 * (s_f + d))  # exp(-2s) - 1, in [-1, 0)
    r = libm(math.exp, -d) * (em_f / em)
    rows[:, 0] = (-u_inf * (2.0 + em)) / em
    rows[:, 1] = v_f * r
    rows[:, 2] = phi_f
    return rows

"""Adaptive integration of the evolution system with dense output and events.

The stepper is the Dormand-Prince 5(4) embedded pair with its standard
quartic continuous extension.  Step control follows the usual safety-factor
rule (safety 0.9, growth factor clamped to [0.2, 5]) on a weighted RMS error
over the five components.

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
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .initial import InitialData, constraint_scale, initial_constraint_residual, build_state, validate_theorem1
from .model import CosmoState, ModelParams, _rhs_terms, derived_terms

#: Column order shared by Trajectory.as_arrays() and the trajectory CSV.
TRAJECTORY_COLUMNS = ("t", "u", "v", "a", "phi", "chi", "psi", "rho",
                      "H", "T00", "Q", "constraint")
#: Column order of Trajectory.states.
STATE_COLUMNS = ("u", "v", "phi", "chi", "rho")

FIELD_FROZEN = "FieldFrozen"
CHI_ZERO_CROSSING = "ChiZeroCrossing"
GUARD_TRIPPED = "GuardTripped"

# Dormand-Prince 5(4) tableau.
_A = (
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
# Difference between 5th- and embedded 4th-order weights.
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])
# Weights of the quartic dense-output polynomial.
_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
               -10690763975 / 1880347072, 701980252875 / 199316789632,
               -1453857185 / 822651844, 69997945 / 29380423])

# v and rho (indices 1 and 4) get purely relative error control.
_RELATIVE = np.array([False, True, False, False, True])
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


def _deriv(y: np.ndarray, lam: float, mass_sq: float, frozen: bool) -> np.ndarray:
    du, dv, dphi, dchi, drho = _rhs_terms(y[0], y[1], y[2], y[3], y[4], lam, mass_sq)
    if frozen:
        dchi = 0.0
    return np.array([du, dv, dphi, dchi, drho])


# A trial step that overflows comes back non-finite and is rejected, so
# overflow on far-out data is an expected outcome rather than a warning.
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore")


def _trial_step(y: np.ndarray, h: float, params: ModelParams,
                config: IntegratorConfig, frozen: bool) -> tuple[np.ndarray, float, np.ndarray]:
    """One trial step: (y_new, weighted RMS error norm, stages).

    The norm is infinite when y_new is not finite.
    """
    lam, mass_sq = params.lam, params.mass_sq
    k = np.empty((7, 5))
    k[0] = _deriv(y, lam, mass_sq, frozen)
    for i in range(1, 6):
        k[i] = _deriv(y + h * (_A[i] @ k[:i]), lam, mass_sq, frozen)
    y1 = y + h * (_A[6] @ k[:6])
    k[6] = _deriv(y1, lam, mass_sq, frozen)
    if not np.all(np.isfinite(y1)):
        return y1, math.inf, k
    err = h * (_E @ k)
    ymax = np.maximum(np.abs(y), np.abs(y1))
    scale = np.where(_RELATIVE, config.rel_tol * ymax + _TINY,
                     config.abs_tol + config.rel_tol * ymax)
    return y1, float(np.sqrt(np.mean((err / scale) ** 2))), k


def _step_factor(norm: float) -> float:
    if norm == 0.0:
        return _GROW_MAX
    return min(_GROW_MAX, max(_SHRINK_MIN, _SAFETY * norm ** _EXPONENT))


class _DenseSegment:
    """Quartic interpolant over one accepted step, exact at both endpoints."""

    def __init__(self, t0: float, h: float, y0: np.ndarray, y1: np.ndarray,
                 k: np.ndarray):
        self.t0 = t0
        self.h = h
        ydiff = y1 - y0
        bspl = h * k[0] - ydiff
        self._r = (y0, ydiff, bspl, ydiff - h * k[6] - bspl, h * (_D @ k))

    def __call__(self, theta: float) -> np.ndarray:
        r0, r1, r2, r3, r4 = self._r
        sigma = 1.0 - theta
        return r0 + theta * (r1 + sigma * (r2 + theta * (r3 + sigma * r4)))


def _is_frozen_state(y: np.ndarray, params: ModelParams, mode: str) -> bool:
    # chi == 0 exactly only happens on the clamped continuation (or at a
    # degenerate start); the clamp applies when the field equation would
    # otherwise push chi negative.
    return mode == "paper" and y[3] == 0.0 and params.mass_sq * y[2] >= 0.0


@_QUIET_OVERFLOW
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
    y = np.array([state.u, state.v, state.phi, state.chi, state.rho])
    frozen = _is_frozen_state(y, params, config.mode)
    y1, norm, _ = _trial_step(y, h, params, config, frozen)
    new_state = CosmoState(state.t + h, *y1.tolist())
    return new_state, norm, h * _step_factor(norm)


def _locate_crossing(dense: _DenseSegment, component: int, downward: bool,
                     rel_tol: float) -> float:
    """Bisect the dense interpolant for a sign change of one component.

    Returns theta in (0, 1].  Robust rather than fast: plain bisection, at
    most 60 iterations, stopping once the bracket is below
    rel_tol * max(1, t) in time units.
    """
    sign = 1.0 if downward else -1.0

    def g(theta: float) -> float:
        return sign * float(dense(theta)[component])

    lo, hi = 0.0, 1.0
    tol_t = rel_tol * max(1.0, dense.t0 + dense.h)
    for _ in range(60):
        if (hi - lo) * dense.h <= tol_t:
            break
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _guard_violation(y: np.ndarray, config: IntegratorConfig) -> Optional[str]:
    if not np.all(np.isfinite(y)):
        return "non-finite state component"
    if abs(y[0]) > config.max_abs_u:
        return f"|u| = {abs(y[0]):.6g} exceeded {config.max_abs_u:.6g}"
    if abs(y[2]) > config.max_abs_phi:
        return f"|phi| = {abs(y[2]):.6g} exceeded {config.max_abs_phi:.6g}"
    if y[1] < config.min_v:
        return f"v = {y[1]:.6g} fell below {config.min_v:.6g}"
    return None


@_QUIET_OVERFLOW
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
            "initial data fail the global-existence hypotheses "
            f"({report}); set override_admissibility to integrate anyway")
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
    accepted = rejected = nevals = 0

    y = np.array(rows[0])
    t = 0.0
    frozen = _is_frozen_state(y, params, config.mode)
    if y[3] == 0.0 and params.mass_sq * y[2] > 0.0:
        # The field equation would pull chi negative right away.
        events.append(Event(0.0, FIELD_FROZEN if frozen else CHI_ZERO_CROSSING,
                            "initial field velocity is zero"))

    k_next = 1
    rho_clamp = min(config.abs_tol, 1e-10)

    def emit(dense: _DenseSegment, t_hi: float, y_end: Optional[np.ndarray]) -> Optional[str]:
        """Append grid samples with t_k <= t_hi; returns a failure detail."""
        nonlocal k_next
        while k_next <= k_last:
            t_k = k_next * dt
            if t_k > t_hi + 1e-9 * dt:
                break
            theta = (t_k - dense.t0) / dense.h
            if y_end is not None and theta >= 1.0 - 1e-12:
                row = y_end.tolist()
            else:
                row = dense(theta).tolist()
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
        y1, norm, k = _trial_step(y, h_trial, params, config, frozen)
        nevals += 7
        if norm > 1.0:
            rejected += 1
            h = h_trial * _step_factor(norm)
            if h < config.h_min and not end_limited:
                raise StepSizeUnderflow(
                    f"step size fell below h_min = {config.h_min!r} at t = {t:.9g}")
            continue

        accepted += 1
        t1 = config.t_end if h_trial == remaining else t + h_trial
        dense = _DenseSegment(t, h_trial, y, y1, k)

        if not frozen and y[3] > 0.0 and y1[3] <= 0.0:
            theta = _locate_crossing(dense, 3, downward=True, rel_tol=config.rel_tol)
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
                h = min(config.h_max, max(config.h_min, h_trial * _step_factor(norm)))
                continue
            events.append(Event(t_star, CHI_ZERO_CROSSING, "downward crossing"))
        elif config.mode == "kg" and y[3] < 0.0 and y1[3] >= 0.0:
            theta = _locate_crossing(dense, 3, downward=False, rel_tol=config.rel_tol)
            events.append(Event(t + theta * h_trial, CHI_ZERO_CROSSING, "upward crossing"))

        guard = _guard_violation(y1, config)
        if guard is not None:
            events.append(Event(t1, GUARD_TRIPPED, guard))
            break

        detail = emit(dense, t1, y1)
        if detail is not None:
            events.append(Event(t1, GUARD_TRIPPED, detail))
            break

        t, y = t1, y1
        h = min(config.h_max, max(config.h_min, h_trial * _step_factor(norm)))

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

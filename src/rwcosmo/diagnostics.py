"""Trajectory verification: bounds, quadrature oracles, decay rates, limits.

:func:`verify` is the one entry point.  In one pass it reads the
trajectory's columns, derives each run fact (nu, the monotonicity slack
eps, the Q noise floor, the limit estimates) once, and builds the checks in
report order: pointwise bounds and monotonicity, the v quadrature identity,
the Q identity, then, once Q has decayed past the gate, the decay envelope,
fitted rates, limits and growth bound.  Margins follow one convention
throughout: margin <= 0 means the check passes, and a positive margin
measures the worst violation.  Two checks are stricter than their margin:
``v_positive`` fails at v = 0 (margin -0.0) and ``h_inf_limit`` fails
whenever the C0 estimate is not positive (margin -C0_hat).

Two numerical floors appear below.  The constraint residual never vanishes
exactly in floating point, so the monitor Q = 24*pi*rho + 3*constraint
bottoms out at a noise level; the Q >= 0 and envelope checks allow an
explicit budget-derived floor for it, and decay-rate fits are windowed to
the part of each series that sits at least two orders of magnitude above the
measured constraint drift, and for Q also above Q's own roundoff.  Inside
those windows everything is tested at full stated tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .initial import nu_rate
from .integrator import Trajectory, libm
from .model import EIGHT_PI, FOUR_PI, TWENTY_FOUR_PI

STATUS_PASSED = "passed"
STATUS_FAILED = "failed"
STATUS_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Tolerances:
    """Verification tolerances; stated in every report header.

    ``monotone_eps_factor`` scales rel_tol*u0 into the slack allowed on
    monotonicity comparisons.  ``envelope_slack`` pads the proven pointwise
    envelope Q0*exp(-3 nu t); ``rate_slack`` relaxes the fitted-rate lower
    bound 3*nu; ``h_inf_rel`` is the relative tolerance on the late-time
    expansion rate; ``constraint_budget`` is the acceptable constraint drift
    for a reference-accuracy run and feeds the Q noise floor.
    """

    envelope_slack: float = 1e-2
    rate_slack: float = 0.05
    h_inf_rel: float = 1e-3
    t00_limit_abs: float = 1e-6
    a_growth_slack: float = 1e-3
    v_oracle_rel: float = 1e-6
    constraint_budget: float = 1e-7
    q_identity_tol: float = 1e-13
    q_ratio_gate: float = 1e-3
    monotone_eps_factor: float = 10.0


#: The tolerances of every check.
TOL = Tolerances()

#: Q's roundoff floor in units of eps times its term scale, for the rate fit.
Q_ROUNDOFF = 100.0


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    margin: float
    detail: str = ""


def _check(name: str, margin: float, detail: str = "") -> Check:
    """A check decided by its margin: it passes when margin <= 0."""
    margin = float(margin)
    return Check(name, margin <= 0.0, margin, detail)


class DecayFit(NamedTuple):
    """A log-linear fit and the points it used: ``n_points`` samples from
    ``t_lo`` to ``t_hi``."""

    rate: float
    intercept: float
    residual: float
    t_lo: float
    t_hi: float
    n_points: int


@dataclass(frozen=True)
class VerificationReport:
    """``fits`` holds the Q, rho and chi2 decay fits, None where none ran."""

    nu: Optional[float]
    checks: tuple[Check, ...]
    fits: dict[str, Optional[DecayFit]]
    L_hat: float
    H_inf_hat: float
    C0_hat: float
    status: str
    notes: tuple[str, ...] = ()

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def fit_decay_rate(t: Sequence[float], y: Sequence[float]) -> DecayFit:
    """Least-squares line through the points (t, ln y).

    Returns rate = -slope, the intercept, the RMS residual of the fit, and
    the first and last times and the number of the points.  Requires y > 0
    and at least 8 points.
    Affine-equivariant: scaling y by c > 0 shifts the intercept only.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.ndim != 1 or t.shape != y.shape:
        raise ValueError("t and y must be 1-d and of equal length")
    if t.size < 8:
        raise ValueError(f"need >= 8 points, got {t.size}")
    if np.any(y <= 0.0):
        raise ValueError("series must be strictly positive")
    z = libm(math.log, y)
    # Centred closed form: unlike np.polyfit, no LAPACK kernel picks the bytes.
    t_mean, z_mean = np.mean(t), np.mean(z)
    dt = t - t_mean
    slope = np.sum(dt * (z - z_mean)) / np.sum(dt * dt)
    intercept = z_mean - slope * t_mean
    resid = float(np.sqrt(np.mean((z - (slope * t + intercept)) ** 2)))
    return DecayFit(rate=float(-slope), intercept=float(intercept), residual=resid,
                    t_lo=float(t[0]), t_hi=float(t[-1]), n_points=int(t.size))


def cumulative_simpson(y: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled y, composite-Simpson order.

    Odd endpoints use the quadratic through the three nearest samples, so
    every prefix integral is fourth-order accurate.
    """
    n = y.size
    out = np.zeros(n)
    if n < 2:
        return out
    if n == 2:
        out[1] = 0.5 * dt * (y[0] + y[1])
        return out
    out[1] = dt / 12.0 * (5.0 * y[0] + 8.0 * y[1] - y[2])
    # Even prefixes: running sum of Simpson panels, left to right from
    # out[0] = 0; odd prefixes: the preceding even prefix plus the end panel.
    out[2::2] = dt / 3.0 * (y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    out[::2] = np.add.accumulate(out[::2])
    out[3::2] = out[2:-1:2] + dt / 12.0 * (-y[1:-2:2] + 8.0 * y[2:-1:2] + 5.0 * y[3::2])
    return out


def _largest(values: np.ndarray) -> float:
    """Largest of ``values``; 0 when there are none (fewer than two samples)."""
    return float(np.max(values)) if values.size else 0.0


def _v_quadrature_check(t: np.ndarray, u: np.ndarray, v: np.ndarray) -> Check:
    """Independent quadrature oracle for v: v(t)*exp(2 int u) must return
    v0, with the integral taken by composite Simpson on the samples, the
    deviation measured relative to v0.  The density is derived from v, so
    this is its oracle too.  With fewer than three samples (of the run's
    uniform grid) it passes vacuously, saying why.
    """
    if t.size < 3:
        return _check("v_quadrature_identity", -TOL.v_oracle_rel,
                      "too few samples for quadrature")
    growth = libm(math.exp, 2.0 * cumulative_simpson(u, float(t[1] - t[0])))
    v0 = float(v[0])
    vdev = float(np.max(np.abs(v * growth - v0))) / v0
    return _check("v_quadrature_identity", vdev - TOL.v_oracle_rel,
                  f"max relative deviation {vdev:.3g}")


def _decay_window(y: np.ndarray, floor) -> Optional[slice]:
    """Sample range (a slice) for a log-linear fit on a decaying series.

    Uses the contiguous prefix where the series stays above 100x its
    numerical floor (a number, or one per sample); fits the last half of
    that prefix when it still holds 8 points, otherwise the whole prefix.
    Returns None when fewer than 8 usable points exist.
    """
    bad = np.flatnonzero(~(y > 100.0 * floor))
    end = int(bad[0]) if bad.size else y.size
    if end < 8:
        return None
    start = end // 2
    if end - start < 8:
        start = 0
    return slice(start, end)


def verify(traj: Trajectory) -> VerificationReport:
    """Full verification of one trajectory, in one pass over its columns.

    The late-time checks need enough dynamic range: when Q has not decayed
    past the gate factor none runs, which makes the verdict inconclusive,
    not failed.  Idempotent and side-effect free; raises ValueError on a
    trajectory without samples.
    """
    if traj.t.size == 0:
        raise ValueError("trajectory has no samples")
    cols = traj.as_arrays()
    params, initial = traj.params, traj.initial
    t, u, v, phi, chi, rho, q = (cols[k] for k in ("t", "u", "v", "phi", "chi", "rho", "Q"))
    nu = nu_rate(params, initial.phi0)
    eps = TOL.monotone_eps_factor * traj.config.rel_tol * abs(initial.u0)
    # On-shell Q = 24*pi*rho; its numerical floor combines the budget of v's
    # oracle, which the density follows, with three times the constraint
    # budget (Q = 24*pi*rho + 3*C).
    q_floor = TWENTY_FOUR_PI * TOL.v_oracle_rel * initial.rho0 + 3.0 * TOL.constraint_budget
    # Limit estimates: L = phi^2 at the last sample, and C0 = lam + 4*pi*m^2*L,
    # whose sqrt(3*C0) is the late-time H.
    l_hat = float(phi[-1] * phi[-1])
    c0_hat = params.lam + FOUR_PI * params.mass_sq * l_hat
    h_end = float(cols["H"][-1])
    # The term scale of Q = H^2 - 24*pi*T00 - 3*lambda and of the identity
    # Q = 24*pi*rho + 3*C: both cancel terms of this size, so their roundoff
    # is a few eps times it.  It is 0 only on the static run, u = T00 = rho =
    # lambda = 0.
    q_scale = np.maximum(cols["H"] ** 2 + TWENTY_FOUR_PI * (np.abs(cols["T00"]) + rho)
                         + 3.0 * abs(params.lam), np.finfo(float).tiny)

    # Pointwise bounds and monotonicity; on a single sample the monotonicity
    # checks pass vacuously and the bounds are still evaluated at the point.
    checks = [_check("u_nonincreasing", _largest(np.diff(u)) - eps, f"eps = {eps:.3g}")]
    if nu is not None:
        checks.append(_check("u_lower_bound", nu - np.min(u) - eps, f"eps = {eps:.3g}"))
    # phi may not decrease while the field velocity is nonnegative.
    phi_drops = (phi[:-1] - phi[1:])[(chi[:-1] >= 0.0) & (chi[1:] >= 0.0)]
    checks += [
        _check("u_upper_bound", np.max(u) - (initial.u0 + eps)),
        # Strict: v = 0 must fail, though its margin -min(v) reads -0.0 there.
        Check("v_positive", bool(np.min(v) > 0.0), float(-np.min(v))),
        _check("v_upper_bound", np.max(v) - float(v[0])),
        _check("t00_nonincreasing", _largest(np.diff(cols["T00"])) - eps, f"eps = {eps:.3g}"),
        _check("q_nonnegative", -q_floor - float(np.min(q)), f"noise floor = {q_floor:.3g}"),
        _check("phi_nondecreasing_while_chi_nonneg", _largest(phi_drops) - eps,
               f"eps = {eps:.3g}"),
    ]
    checks.append(_v_quadrature_check(t, u, v))
    # Pure algebra, independent of integration error: sits at roundoff for
    # any trajectory, including inadmissible ones.
    identity_dev = float(np.max(np.abs(q - TWENTY_FOUR_PI * rho - 3.0 * cols["constraint"])
                                / q_scale))
    checks.append(_check("q_identity", identity_dev - TOL.q_identity_tol,
                         f"max |Q - 24 pi rho - 3 C|/scale = {identity_dev:.3g}"))

    notes: list[str] = []
    if np.any(chi < 0.0):
        notes.append("non-decreasing-field hypothesis violated (chi < 0 encountered); "
                     "failures below indicate the hypothesis matters, not a defect "
                     "of the verified statements")
    fits: dict[str, Optional[DecayFit]] = dict.fromkeys(("Q", "rho", "chi2"))

    q0 = float(q[0])
    skip = ""
    if nu is None:
        skip = "decay rate nu undefined for these data; asymptotic checks skipped"
    elif q0 <= q_floor:
        skip = "initial Q sits at the numerical floor; decay unobservable"
    elif abs(float(q[-1])) >= TOL.q_ratio_gate * q0:
        skip = (f"Q(t_end)/Q(0) = {float(q[-1]) / q0:.3g} has not passed the "
                f"{TOL.q_ratio_gate:g} gate; integrate further for conclusive asymptotics")
    if skip:
        notes.append(skip)
    else:
        # One exp(nu t) for the envelope and the growth bound; where its cube
        # overflows (nu t past ~237) the envelope reads the floor, as the
        # underflowed exp(-3 nu t) makes it.
        e_nu_t = libm(math.exp, nu * t)
        with np.errstate(over="ignore"):
            envelope = q0 / (e_nu_t * e_nu_t * e_nu_t) * (1.0 + TOL.envelope_slack) + q_floor
        checks.append(_check("q_envelope", np.max(q - envelope),
                             f"Q <= Q0*exp(-3 nu t)*(1+{TOL.envelope_slack:g}) "
                             f"+ floor {q_floor:.3g}"))

        # Fit windows clip at 100x the measured constraint drift, mapped into
        # each series through its constraint coefficient; Q's floor is also
        # at least Q_ROUNDOFF*eps times its term scale, per sample.
        drift = max(float(np.max(np.abs(cols["constraint"]))), 1e-15)
        rate_floor = 3.0 * nu * (1.0 - TOL.rate_slack)
        for name, series, series_floor in (
            ("Q", q, np.maximum(3.0 * drift, Q_ROUNDOFF * np.finfo(float).eps * q_scale)),
            ("rho", rho, drift / EIGHT_PI),
            ("chi2", chi ** 2, drift / FOUR_PI),
        ):
            span = _decay_window(series, series_floor)
            if span is None:
                notes.append(f"{name}: insufficient data above the noise floor for a rate fit")
                continue
            fit = fits[name] = fit_decay_rate(t[span], series[span])
            checks.append(_check(f"{name}_decay_rate", rate_floor - fit.rate,
                                 f"fitted {fit.rate:.6g} vs required {rate_floor:.6g}"))

        checks.append(_check("phi_squared_monotone", _largest(np.diff(-(phi * phi))) - eps,
                             f"eps = {eps:.3g}"))
        checks.append(_check("L_at_least_initial", initial.phi0 * initial.phi0 - eps - l_hat))
        t00_dev = abs(float(cols["T00"][-1]) - 0.5 * params.mass_sq * l_hat)
        checks.append(_check("t00_limit", t00_dev - TOL.t00_limit_abs,
                             f"|T00(t_end) - m^2 L/2| = {t00_dev:.3g}"))
        if c0_hat > 0.0:
            h_target = math.sqrt(3.0 * c0_hat)
            h_dev = abs(h_end - h_target)
            checks.append(_check("h_inf_limit", h_dev - TOL.h_inf_rel * h_target,
                                 f"H(t_end) = {h_end:.9g}, sqrt(3 C0) = {h_target:.9g}"))
        else:
            # Fails outright: at C0_hat = 0 the margin -C0_hat reads -0.0.
            checks.append(Check("h_inf_limit", False, float(-c0_hat),
                                "C0 estimate not positive"))
        bound = initial.a0 * e_nu_t * (1.0 - TOL.a_growth_slack)
        checks.append(_check("a_exponential_lower_bound", np.max(bound - cols["a"]),
                             f"a >= a0*exp(nu t)*(1-{TOL.a_growth_slack:g})"))

    if traj.guard_tripped:
        trip = traj.events[-1]
        notes.append(f"integration aborted by guard: t = {trip.t:.6g}: {trip.detail}")

    failed = not all(c.passed for c in checks)
    status = STATUS_FAILED if failed else STATUS_INCONCLUSIVE if skip else STATUS_PASSED
    return VerificationReport(nu=nu, checks=tuple(checks), fits=fits, L_hat=l_hat,
                              H_inf_hat=h_end, C0_hat=c0_hat, status=status,
                              notes=tuple(notes))

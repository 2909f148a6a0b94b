"""Trajectory verification: bounds, quadrature oracles, decay rates, limits.

Every check is a pure function of the trajectory; margins follow one
convention throughout: margin <= 0 means the check passes, and a positive
margin measures the worst violation.  Two checks are stricter than their
margin: ``v_positive`` fails at v = 0 (margin -0.0) and ``h_inf_limit``
fails whenever the C0 estimate is not positive (margin -C0_hat).

Two numerical floors appear below.  The constraint residual never vanishes
exactly in floating point, so the monitor Q = 24*pi*rho + 3*constraint
bottoms out at a noise level; the Q >= 0 and envelope checks allow an
explicit budget-derived floor for it, and decay-rate fits are windowed to
the part of each series that sits at least two orders of magnitude above the
measured constraint drift.  Inside those windows everything is tested at
full stated tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .initial import validate_theorem1
from .integrator import GUARD_TRIPPED, Trajectory
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
    rho_oracle_rel: float = 1e-6
    v_oracle_rel: float = 1e-6
    constraint_budget: float = 1e-7
    q_identity_tol: float = 1e-13
    q_ratio_gate: float = 1e-3
    monotone_eps_factor: float = 10.0


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


def libm(f: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """``f`` (math.exp, math.log) of each element of the 1-d array ``x``; a
    result past the largest double reads inf, as numpy's does.

    numpy's exp and log run a SIMD loop picked for the CPU at run time, and
    the last bit of their results follows that pick; the math module's do
    not, so the reports come out the same on every CPU.
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


class DecayFit(NamedTuple):
    rate: float
    intercept: float
    residual: float


@dataclass(frozen=True)
class FitWindow:
    t_lo: float
    t_hi: float
    n_points: int


@dataclass(frozen=True)
class VerificationReport:
    nu: Optional[float]
    tolerances: Tolerances
    checks: tuple[Check, ...]
    fitted_rates: dict[str, Optional[DecayFit]]
    fit_windows: dict[str, Optional[FitWindow]]
    L_hat: float
    H_inf_hat: float
    C0_hat: float
    a_growth_ok: bool
    status: str
    notes: tuple[str, ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def fit_decay_rate(series: Sequence[tuple[float, float]],
                   window: tuple[float, float]) -> DecayFit:
    """Least-squares line through (t, ln y) inside [t_lo, t_hi].

    Returns (rate, intercept, residual) with rate = -slope and residual the
    RMS of the fit.  Requires y > 0 and at least 8 points inside the window.
    Affine-equivariant: scaling y by c > 0 shifts the intercept only.
    """
    t_lo, t_hi = window
    pts = np.asarray(series, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("series must be a sequence of (t, y) pairs")
    mask = (pts[:, 0] >= t_lo) & (pts[:, 0] <= t_hi)
    t = pts[mask, 0]
    y = pts[mask, 1]
    if t.size < 8:
        raise ValueError(f"need >= 8 points in window, got {t.size}")
    if np.any(y <= 0.0):
        raise ValueError("series must be strictly positive inside the window; "
                         "shrink the window before the data hit numerical zero")
    z = libm(math.log, y)
    # Centred closed form: unlike np.polyfit, no LAPACK kernel picks the bytes.
    dt = t - np.mean(t)
    slope = np.sum(dt * (z - np.mean(z))) / np.sum(dt * dt)
    intercept = np.mean(z) - slope * np.mean(t)
    resid = float(np.sqrt(np.mean((z - (slope * t + intercept)) ** 2)))
    return DecayFit(rate=float(-slope), intercept=float(intercept), residual=resid)


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


def _monotone_eps(traj: Trajectory, tol: Tolerances) -> float:
    return tol.monotone_eps_factor * traj.config.rel_tol * abs(traj.initial.u0)


def _require_samples(traj: Trajectory) -> dict[str, np.ndarray]:
    if traj.t.size == 0:
        raise ValueError("trajectory has no samples")
    return traj.as_arrays()


def _worst_increase(series: np.ndarray) -> float:
    """Largest sample-to-sample increase; 0 for fewer than two samples."""
    diffs = np.diff(series)
    return float(np.max(diffs)) if diffs.size else 0.0


def verify_bounds(traj: Trajectory, tol: Tolerances = Tolerances()) -> list[Check]:
    """Pointwise bounds and monotonicity along the trajectory.

    Monotonicity checks on a single-sample trajectory pass vacuously; the
    bound checks are still evaluated at the point.
    """
    cols = _require_samples(traj)
    eps = _monotone_eps(traj, tol)
    u = cols["u"]
    v = cols["v"]
    phi = cols["phi"]
    chi = cols["chi"]
    u0 = traj.initial.u0
    v0 = float(v[0])
    nu = validate_theorem1(traj.params, traj.initial).nu

    worst_du = _worst_increase(u)
    checks = [
        _check("u_nonincreasing", worst_du - eps, f"eps = {eps:.3g}"),
        _check("u_upper_bound", np.max(u) - (u0 + eps)),
        # Strict: v = 0 must fail, though its margin -min(v) reads -0.0 there.
        Check("v_positive", bool(np.min(v) > 0.0), float(-np.min(v))),
        _check("v_upper_bound", np.max(v) - v0),
    ]
    if nu is not None:
        checks.insert(1, _check("u_lower_bound", nu - np.min(u)))

    worst_dt00 = _worst_increase(cols["T00"])
    checks.append(_check("t00_nonincreasing", worst_dt00 - eps, f"eps = {eps:.3g}"))

    q_floor = _q_noise_floor(traj, tol)
    min_q = float(np.min(cols["Q"]))
    checks.append(_check("q_nonnegative", -q_floor - min_q,
                         f"noise floor = {q_floor:.3g}"))

    # phi may not decrease while the field velocity is nonnegative.
    both_nonneg = (chi[:-1] >= 0.0) & (chi[1:] >= 0.0)
    drops = (phi[:-1] - phi[1:])[both_nonneg]
    worst_drop = float(np.max(drops)) if drops.size else 0.0
    checks.append(_check("phi_nondecreasing_while_chi_nonneg", worst_drop - eps,
                         f"eps = {eps:.3g}"))
    return checks


def verify_quadrature(traj: Trajectory, tol: Tolerances = Tolerances()) -> list[Check]:
    """Independent quadrature oracles for the v and rho components.

    rho(t) must match rho0*exp(-4 int u) and v(t)*exp(2 int u) must return
    v0, with the integral taken by composite Simpson on the samples.
    Deviations are measured relative to rho0 and v0.
    """
    cols = _require_samples(traj)
    t = cols["t"]
    dt = float(t[1] - t[0]) if t.size >= 3 else math.nan
    if not (t.size >= 3 and np.allclose(np.diff(t), dt, rtol=1e-6, atol=1e-12)):
        detail = ("too few samples for quadrature" if t.size < 3
                  else "non-uniform sample grid")
        return [_check("rho_quadrature_oracle", -tol.rho_oracle_rel, detail),
                _check("v_quadrature_identity", -tol.v_oracle_rel, detail)]
    integral_u = cumulative_simpson(cols["u"], dt)
    rho0 = float(cols["rho"][0])
    if rho0 > 0.0:
        oracle = rho0 * libm(math.exp, -4.0 * integral_u)
        dev = float(np.max(np.abs(cols["rho"] - oracle))) / rho0
    else:
        dev = float(np.max(np.abs(cols["rho"])))  # rho must stay identically 0
    v0 = float(cols["v"][0])
    vdev = float(np.max(np.abs(cols["v"] * libm(math.exp, 2.0 * integral_u) - v0))) / v0
    return [_check("rho_quadrature_oracle", dev - tol.rho_oracle_rel,
                   f"max relative deviation {dev:.3g}"),
            _check("v_quadrature_identity", vdev - tol.v_oracle_rel,
                   f"max relative deviation {vdev:.3g}")]


def q_identity_check(traj: Trajectory) -> float:
    """Worst normalized deviation of Q - 24*pi*rho - 3*constraint.

    Pure algebra, independent of integration error; must sit at roundoff
    (<= 1e-13) for any trajectory, including inadmissible ones.
    """
    cols = _require_samples(traj)
    dev = np.abs(cols["Q"] - TWENTY_FOUR_PI * cols["rho"] - 3.0 * cols["constraint"])
    return float(np.max(dev / (1.0 + np.abs(cols["Q"]))))


def _q_noise_floor(traj: Trajectory, tol: Tolerances) -> float:
    # On-shell Q = 24*pi*rho; its numerical floor combines the density oracle
    # budget with three times the constraint budget (Q = 24*pi*rho + 3*C).
    return (TWENTY_FOUR_PI * tol.rho_oracle_rel * traj.initial.rho0
            + 3.0 * tol.constraint_budget)


def _decay_window(t: np.ndarray, y: np.ndarray, floor: float) -> Optional[tuple[float, float]]:
    """Window for a log-linear fit on a decaying series.

    Uses the contiguous prefix where the series stays above 100x its
    numerical floor; fits the last half of that prefix when it still holds 8
    points, otherwise the whole prefix.  Returns None when fewer than 8
    usable points exist.
    """
    cutoff = 100.0 * floor
    bad = np.flatnonzero(~(y > cutoff))
    end = int(bad[0]) if bad.size else y.size
    if end < 8:
        return None
    start = end // 2
    if end - start < 8:
        start = 0
    return float(t[start]), float(t[end - 1])


def verify_asymptotics(traj: Trajectory, nu: Optional[float],
                       tol: Tolerances = Tolerances(),
                       ) -> tuple[list[Check], dict, dict, dict, list[str], bool]:
    """Late-time checks: decay envelope, fitted rates, limits, growth.

    Returns (checks, estimates, fits, windows, notes, inconclusive).  The
    decay-based checks need enough dynamic range: when Q has not decayed
    past the gate factor the result is inconclusive, not a failure.
    """
    cols = _require_samples(traj)
    t = cols["t"]
    q = cols["Q"]
    phi = cols["phi"]
    eps = _monotone_eps(traj, tol)
    notes: list[str] = []
    fits: dict[str, Optional[DecayFit]] = {}
    windows: dict[str, Optional[FitWindow]] = {}

    l_hat = float(phi[-1] * phi[-1])
    h_end = float(cols["H"][-1])
    c0_hat = traj.params.lam + FOUR_PI * traj.params.mass_sq * l_hat
    estimates = {"L_hat": l_hat, "H_inf_hat": h_end, "C0_hat": c0_hat}

    if np.any(cols["chi"] < 0.0):
        notes.append("non-decreasing-field hypothesis violated (chi < 0 encountered); "
                     "failures below indicate the hypothesis matters, not a defect "
                     "of the verified statements")

    q_floor = _q_noise_floor(traj, tol)
    q0 = float(q[0])
    inconclusive = False
    if nu is None:
        notes.append("decay rate nu undefined for these data; asymptotic checks skipped")
        inconclusive = True
    elif q0 <= q_floor:
        notes.append("initial Q sits at the numerical floor; decay unobservable")
        inconclusive = True
    elif abs(float(q[-1])) >= tol.q_ratio_gate * q0:
        notes.append(f"Q(t_end)/Q(0) = {float(q[-1]) / q0:.3g} has not passed the "
                     f"{tol.q_ratio_gate:g} gate; integrate further for conclusive asymptotics")
        inconclusive = True
    if inconclusive:
        return [], estimates, fits, windows, notes, True

    envelope = q0 * libm(math.exp, -3.0 * nu * t) * (1.0 + tol.envelope_slack) + q_floor
    checks = [_check("q_envelope", np.max(q - envelope),
                     f"Q <= Q0*exp(-3 nu t)*(1+{tol.envelope_slack:g}) "
                     f"+ floor {q_floor:.3g}")]

    # Fit windows clip at 100x the measured constraint drift, mapped into
    # each series through its constraint coefficient.
    drift = max(float(np.max(np.abs(cols["constraint"]))), 1e-15)
    rate_floor = 3.0 * nu * (1.0 - tol.rate_slack)
    for name, series, series_floor in (
        ("Q", q, 3.0 * drift),
        ("rho", cols["rho"], drift / EIGHT_PI),
        ("chi2", cols["chi"] ** 2, drift / FOUR_PI),
    ):
        window = _decay_window(t, series, series_floor)
        if window is None:
            fits[name] = None
            windows[name] = None
            notes.append(f"{name}: insufficient data above the noise floor for a rate fit")
            continue
        fit = fit_decay_rate(np.column_stack([t, series]), window)
        fits[name] = fit
        windows[name] = FitWindow(t_lo=window[0], t_hi=window[1],
                                  n_points=int(np.sum((t >= window[0]) & (t <= window[1]))))
        checks.append(_check(f"{name}_decay_rate", rate_floor - fit.rate,
                             f"fitted {fit.rate:.6g} vs required {rate_floor:.6g}"))

    worst_drop = _worst_increase(-(phi * phi))
    checks.append(_check("phi_squared_monotone", worst_drop - eps, f"eps = {eps:.3g}"))

    phi0_sq = traj.initial.phi0 * traj.initial.phi0
    checks.append(_check("L_at_least_initial", phi0_sq - eps - l_hat))

    t00_target = 0.5 * traj.params.mass_sq * l_hat
    t00_dev = abs(float(cols["T00"][-1]) - t00_target)
    checks.append(_check("t00_limit", t00_dev - tol.t00_limit_abs,
                         f"|T00(t_end) - m^2 L/2| = {t00_dev:.3g}"))

    if c0_hat > 0.0:
        h_target = math.sqrt(3.0 * c0_hat)
        h_dev = abs(h_end - h_target)
        checks.append(_check("h_inf_limit", h_dev - tol.h_inf_rel * h_target,
                             f"H(t_end) = {h_end:.9g}, sqrt(3 C0) = {h_target:.9g}"))
    else:
        # Fails outright: at C0_hat = 0 the margin -C0_hat reads -0.0.
        checks.append(Check("h_inf_limit", False, float(-c0_hat),
                            "C0 estimate not positive"))

    a0 = traj.initial.a0
    bound = a0 * libm(math.exp, nu * t) * (1.0 - tol.a_growth_slack)
    checks.append(_check("a_exponential_lower_bound", np.max(bound - cols["a"]),
                         f"a >= a0*exp(nu t)*(1-{tol.a_growth_slack:g})"))
    ratio = float(cols["a"][-1]) / a0
    target = math.exp(nu * float(t[-1]))
    checks.append(_check("a_growth_ratio", target - ratio,
                         f"a(t_end)/a0 = {ratio:.6g} vs exp(nu t_end) = {target:.6g}"))

    return checks, estimates, fits, windows, notes, False


def verify(traj: Trajectory, tol: Tolerances = Tolerances()) -> VerificationReport:
    """Full verification of one trajectory.

    Idempotent and side-effect free; running it twice on the same trajectory
    produces identical reports.
    """
    nu = validate_theorem1(traj.params, traj.initial).nu
    checks = verify_bounds(traj, tol)
    checks += verify_quadrature(traj, tol)

    identity_dev = q_identity_check(traj)
    checks.append(_check("q_identity", identity_dev - tol.q_identity_tol,
                         f"max |Q - 24 pi rho - 3 C|/(1+|Q|) = {identity_dev:.3g}"))

    asym_checks, estimates, fits, windows, notes, inconclusive = \
        verify_asymptotics(traj, nu, tol)
    checks += asym_checks

    if traj.guard_tripped:
        trips = [e for e in traj.events if e.kind == GUARD_TRIPPED]
        notes.append("integration aborted by guard: " +
                     "; ".join(f"t = {e.t:.6g}: {e.detail}" for e in trips))

    growth_names = ("a_exponential_lower_bound", "a_growth_ratio")
    growth = [c for c in checks if c.name in growth_names]
    a_growth_ok = bool(growth) and all(c.passed for c in growth)

    if any(not c.passed for c in checks):
        status = STATUS_FAILED
    elif inconclusive:
        status = STATUS_INCONCLUSIVE
    else:
        status = STATUS_PASSED

    return VerificationReport(
        nu=nu,
        tolerances=tol,
        checks=tuple(checks),
        fitted_rates={k: fits.get(k) for k in ("Q", "rho", "chi2")},
        fit_windows={k: windows.get(k) for k in ("Q", "rho", "chi2")},
        L_hat=estimates["L_hat"],
        H_inf_hat=estimates["H_inf_hat"],
        C0_hat=estimates["C0_hat"],
        a_growth_ok=a_growth_ok,
        status=status,
        notes=tuple(notes),
    )

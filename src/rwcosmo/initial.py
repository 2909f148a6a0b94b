"""Construction and validation of constraint-consistent Cauchy data.

The initial expansion rate is pinned to the data through the same Hamiltonian
constraint the evolution preserves,

    3 u0**2 - lam = 8*pi*(chi0**2/2 + m**2 phi0**2 / 2 + rho0),

which leaves exactly two branches u0 = +/- sqrt(...): an expanding and a
contracting one.  Note the normalization: equivalent forms of this relation
that absorb the one-half factors into the coefficients circulate in the
literature; this package uses the form above everywhere, so that the initial
constraint and the evolved constraint are the same expression.

The global-existence guarantee (and everything the diagnostics module
verifies) applies when

    lam > -4*pi*m**2*phi0**2,   phi0 > 0,   u0 > 0,

with chi0 >= 0 and rho0 >= 0, which InitialData requires of all data;
:func:`validate_theorem1` reports the three flags above and the associated
rate nu = sqrt((lam + 4*pi*m**2*phi0**2)/3), which bounds the Hubble rate
from below and sets the proven decay envelope exp(-3*nu*t).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Literal, Optional

from .model import (EIGHT_PI, FOUR_PI, CosmoState, ModelParams, derived_terms,
                    _finite_fields, _require_finite)

Branch = Literal["expanding", "contracting"]

#: Relative tolerance to which constructed data satisfy the constraint.
CONSTRUCTION_TOL = 1e-12


class NoRealBranch(ValueError):
    """The data admit no real solution of the initial constraint."""


class NegativeDensity(ValueError):
    """The constraint would force a negative fluid density."""


@dataclass(frozen=True)
class InitialData:
    """Cauchy data (a0, u0, phi0, chi0, rho0).

    chi0 >= 0 is required: runs always start inside the non-decreasing-field
    hypothesis class (``kg`` mode may leave it later).  Constructed instances
    (see :func:`make_initial_data` / :func:`initial_data_from_u0`) satisfy
    the initial constraint to within ``CONSTRUCTION_TOL`` relative.
    """

    a0: float
    u0: float
    phi0: float
    chi0: float
    rho0: float

    def __post_init__(self) -> None:
        _finite_fields(self, "a0", "u0", "phi0", "chi0", "rho0")
        if self.a0 <= 0.0:
            raise ValueError(f"a0 must be > 0, got {self.a0!r}")
        a0_sq = self.a0 * self.a0
        if a0_sq == 0.0 or not math.isfinite(1.0 / a0_sq):
            raise ValueError(f"a0 = {self.a0!r} is too small: v0 = 1/a0**2 overflows")
        if self.chi0 < 0.0:
            raise ValueError(f"chi0 must be >= 0, got {self.chi0!r}")
        if self.rho0 < 0.0:
            raise ValueError(f"rho0 must be >= 0, got {self.rho0!r}")


@dataclass(frozen=True)
class AdmissibilityReport:
    """Per-hypothesis flags for the global-existence theorem.

    ``nu`` is present exactly when ``lambda_bound_ok`` holds, and is then
    strictly positive.
    """

    lambda_bound_ok: bool
    phi0_positive: bool
    u0_positive: bool
    theorem1_applicable: bool
    nu: Optional[float]


def nu_rate(params: ModelParams, phi0: float) -> Optional[float]:
    """Rate nu = sqrt((lam + 4*pi*m**2*phi0**2)/3), or None when undefined."""
    radicand = (params.lam + FOUR_PI * params.mass_sq * phi0 * phi0) / 3.0
    if radicand <= 0.0:
        return None
    return math.sqrt(radicand)


def solve_u0(params: ModelParams, phi0: float, chi0: float, rho0: float,
             branch: Branch = "expanding") -> float:
    """Expansion rate solving the initial constraint for the given branch.

    u0 = +/- sqrt((lam + 8*pi*(chi0**2/2 + m**2 phi0**2/2 + rho0))/3); the two
    branches are exact negatives of each other.  Raises :class:`NoRealBranch`
    when the radicand is negative.  A zero radicand is a valid but degenerate
    corner (u0 = 0 fails the u0 > 0 hypothesis); the expanding branch then
    emits a warning.
    """
    if branch not in ("expanding", "contracting"):
        raise ValueError(f"branch must be 'expanding' or 'contracting', got {branch!r}")
    _require_finite(phi0=phi0, chi0=chi0, rho0=rho0)
    if chi0 < 0.0:
        raise ValueError(f"chi0 must be >= 0, got {chi0!r}")
    if rho0 < 0.0:
        raise ValueError(f"rho0 must be >= 0, got {rho0!r}")
    # C(u) = 3u**2 + C(0), so u0**2 = -C(0)/3; "0.0 -" keeps a zero radicand +0.0.
    radicand = 0.0 - derived_terms(0.0, phi0, chi0, rho0, params).constraint / 3.0
    if radicand < 0.0:
        raise NoRealBranch(
            f"initial constraint has no real solution: lam + 8*pi*(T00 + rho0) = "
            f"{3.0 * radicand!r} < 0")
    root = math.sqrt(radicand)
    if root == 0.0 and branch == "expanding":
        warnings.warn("initial expansion rate u0 is exactly zero; the u0 > 0 "
                      "hypothesis of the global-existence guarantee fails",
                      stacklevel=2)
    return root if branch == "expanding" else -root


def solve_rho0(params: ModelParams, phi0: float, chi0: float, u0: float) -> float:
    """Fluid density that closes the constraint at a prescribed u0.

    Convenient for sweeps pinned at a chosen expansion rate.  Raises
    :class:`NegativeDensity` when the constraint forces rho0 < 0.
    """
    _require_finite(phi0=phi0, chi0=chi0, u0=u0)
    # C = C_vacuum - 8*pi*(T00 + rho) vanishes at rho0 = C_vacuum/(8*pi) - T00.
    vacuum = derived_terms(u0, 0.0, 0.0, 0.0, params).constraint
    rho0 = vacuum / EIGHT_PI - derived_terms(u0, phi0, chi0, 0.0, params).T00
    if rho0 < 0.0:
        raise NegativeDensity(
            f"constraint forces rho0 = {rho0!r} < 0 for u0 = {u0!r}")
    return rho0


def make_initial_data(params: ModelParams, a0: float, phi0: float, chi0: float,
                      rho0: float, branch: Branch = "expanding") -> InitialData:
    """Constraint-consistent data with u0 solved from the given branch."""
    u0 = solve_u0(params, phi0, chi0, rho0, branch)
    return InitialData(a0=a0, u0=u0, phi0=phi0, chi0=chi0, rho0=rho0)


def initial_data_from_u0(params: ModelParams, a0: float, phi0: float,
                         chi0: float, u0: float) -> InitialData:
    """Constraint-consistent data with rho0 solved from a prescribed u0."""
    rho0 = solve_rho0(params, phi0, chi0, u0)
    return InitialData(a0=a0, u0=u0, phi0=phi0, chi0=chi0, rho0=rho0)


def build_state(data: InitialData) -> CosmoState:
    """State at t = 0: (u0, v0 = 1/a0**2, phi0, chi0, rho0)."""
    return CosmoState(t=0.0, u=data.u0, v=1.0 / (data.a0 * data.a0),
                      phi=data.phi0, chi=data.chi0, rho=data.rho0)


def constraint_scale(params: ModelParams, data: InitialData) -> float:
    """Natural magnitude against which the initial residual is compared."""
    t00 = derived_terms(data.u0, data.phi0, data.chi0, data.rho0, params).T00
    return 1.0 + abs(params.lam) + EIGHT_PI * (t00 + data.rho0)


def validate_theorem1(params: ModelParams, data: InitialData) -> AdmissibilityReport:
    """Flags for each hypothesis of the global-existence theorem.

    Reports, never raises: inadmissible data simply produce False flags.
    """
    nu = nu_rate(params, data.phi0)
    lambda_bound_ok = nu is not None
    phi0_positive = data.phi0 > 0.0
    u0_positive = data.u0 > 0.0
    applicable = lambda_bound_ok and phi0_positive and u0_positive
    return AdmissibilityReport(
        lambda_bound_ok=lambda_bound_ok,
        phi0_positive=phi0_positive,
        u0_positive=u0_positive,
        theorem1_applicable=applicable,
        nu=nu,
    )

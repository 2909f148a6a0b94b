"""State types and the first-order evolution system on the flat
Robertson-Walker background.

The evolved variables are the Hubble rate u = adot/a, the inverse squared
scale factor v = 1/a**2 and the scalar field phi with velocity chi = phidot.
Geometrized units (G = c = 1) throughout.  The fluid is pure radiation:
rho' = -4 u rho and v' = -2 u v give rho = rho0*(v/v0)**2 (rho ∝ a**-4) along
every solution, so its density is :func:`density` of v, anchored at the
run's start state (v0, rho0).  The density, the field's kinetic energy
psi = chi**2/2 and the scale factor a = v**(-1/2) are always derived, never
evolved or stored, so these relations hold identically.

The evolution system is

    du/dt   = -(3/2) u**2 + lam/2 - 4*pi*(psi - m**2 phi**2 / 2 + rho/3)
    dv/dt   = -2 u v
    dphi/dt = chi
    dchi/dt = -3 u chi - m**2 phi

subject to the Hamiltonian constraint

    3 u**2 - lam = 8*pi*(psi + m**2 phi**2 / 2 + rho),

whose residual is the basic numerical-quality monitor.  The chi equation is
the damped-oscillator form of the field equation; unlike the equivalent
evolution of psi itself (which involves sqrt(psi)), it stays Lipschitz at
chi = 0, the point where the field stops growing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

FOUR_PI = 4.0 * math.pi
EIGHT_PI = 8.0 * math.pi
TWENTY_FOUR_PI = 24.0 * math.pi


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        try:
            if isinstance(value, bool):  # math.isfinite would read it as 0 or 1
                raise TypeError
            finite = math.isfinite(value)
        except TypeError:
            raise TypeError(f"{name} must be a real number, not {type(value).__name__}") from None
        if not finite:
            raise ValueError(f"{name} must be finite, got {value!r}")


def _finite_fields(obj: object, *names: str) -> None:
    """Require the named fields of a frozen dataclass to be finite and store
    them as Python floats: numpy scalars would make the float stepper's
    arithmetic slow and let it warn on overflow."""
    _require_finite(**{name: getattr(obj, name) for name in names})
    for name in names:
        object.__setattr__(obj, name, float(getattr(obj, name)))


@dataclass(frozen=True)
class ModelParams:
    """Fixed physical constants: cosmological constant and scalar-field mass.

    ``lam`` may take any finite value (admissibility of a given data set is a
    separate check, see :func:`rwcosmo.initial.validate_theorem1`); ``mass``
    must be nonnegative.
    """

    lam: float
    mass: float

    def __post_init__(self) -> None:
        _finite_fields(self, "lam", "mass")
        if self.mass < 0.0:
            raise ValueError(f"mass must be >= 0, got {self.mass!r}")

    @property
    def mass_sq(self) -> float:
        return self.mass * self.mass


@dataclass(frozen=True)
class CosmoState:
    """Instantaneous state (t, u, v, phi, chi, rho); rho is the density at
    the state, which fixes the density's anchor for :func:`rhs` and a step.

    Invariants: every component finite, v > 0, rho >= 0.  chi may take either
    sign; negative chi only occurs when integrating the classical field
    continuation (``kg`` mode), outside the non-decreasing-field hypothesis.
    """

    t: float
    u: float
    v: float
    phi: float
    chi: float
    rho: float

    def __post_init__(self) -> None:
        _finite_fields(self, "t", "u", "v", "phi", "chi", "rho")
        if self.v <= 0.0:
            raise ValueError(f"v must be > 0, got {self.v!r}")
        if self.rho < 0.0:
            raise ValueError(f"rho must be >= 0, got {self.rho!r}")

    @property
    def psi(self) -> float:
        """Field kinetic energy chi**2 / 2."""
        return 0.5 * self.chi * self.chi

    @property
    def a(self) -> float:
        """Scale factor v**(-1/2), as 1/sqrt(v)."""
        return 1.0 / math.sqrt(self.v)


@dataclass(frozen=True)
class DerivedQuantities:
    """Algebraic functionals of a state, or columns of them along a trajectory.

    H          -- mean curvature 3*u
    T00        -- field energy psi + m**2 phi**2 / 2
    Q          -- H**2 - 24*pi*T00 - 3*lam, the decay monitor
    constraint -- residual of the Hamiltonian constraint (0 on exact solutions)

    The identity Q - 24*pi*rho = 3*constraint holds for every state, on-shell
    or not, up to floating-point roundoff.
    """

    H: float
    T00: float
    Q: float
    constraint: float


class StateDeriv(NamedTuple):
    du: float
    dv: float
    dphi: float
    dchi: float


def density(rho0, v0, v):
    """The radiation density at v of a run that starts at (v0, rho0):
    rho0*w*w with w = v/v0.  The one formula for rho, on floats and on numpy
    arrays alike; at v = v0 it is rho0 bit for bit, and rho0 = 0 gives 0."""
    w = v / v0
    return rho0 * w * w


def _rhs_terms(u: float, v: float, phi: float, chi: float, lam: float, mass_sq: float,
               rho0: float, v0: float, frozen: bool = False) -> tuple[float, float, float, float]:
    # Shared scalar core; the adaptive stepper calls this directly, with the
    # run's density anchor (rho0, v0) and ``frozen`` set once the field is
    # frozen (chi clamped at 0, dchi = 0).
    psi = 0.5 * chi * chi
    du = -1.5 * u * u + 0.5 * lam - FOUR_PI * (psi - 0.5 * mass_sq * phi * phi
                                               + density(rho0, v0, v) / 3.0)
    dchi = 0.0 if frozen else -3.0 * u * chi - mass_sq * phi
    return (du, -2.0 * u * v, chi, dchi)


def rhs(state: CosmoState, params: ModelParams) -> StateDeriv:
    """Time derivative of the evolved components (u, v, phi, chi); the
    density follows v.

    The system is autonomous: the result depends on the state components
    only, never on ``state.t``.  Inputs are guaranteed finite by the type
    invariants, so the derivative is always finite.
    """
    return StateDeriv(*_rhs_terms(state.u, state.v, state.phi, state.chi, params.lam,
                                  params.mass_sq, state.rho, state.v))


def derived_terms(u, phi, chi, rho, params: ModelParams) -> DerivedQuantities:
    """H, T00, Q and the constraint residual of the components (u, phi, chi, rho).

    The one formula for each quantity.  It runs elementwise on floats and on
    numpy arrays alike, with the same operations in the same order, so a
    column computed from arrays equals the per-state values bit for bit.

    The residual C = 3u**2 - lam - 8*pi*(T00 + rho) vanishes exactly on
    solutions of the constrained system; along the numerical flow it obeys
    dC/dt = -3*u*C, so for expanding data (u > 0) the integrator's local
    errors are damped rather than amplified.
    """
    t00 = 0.5 * chi * chi + 0.5 * params.mass_sq * phi * phi
    h = 3.0 * u
    q = h * h - TWENTY_FOUR_PI * t00 - 3.0 * params.lam
    c = 3.0 * u * u - params.lam - EIGHT_PI * (t00 + rho)
    return DerivedQuantities(H=h, T00=t00, Q=q, constraint=c)


def derived(state: CosmoState, params: ModelParams) -> DerivedQuantities:
    """All algebraic functionals of a state in one pass."""
    return derived_terms(state.u, state.phi, state.chi, state.rho, params)

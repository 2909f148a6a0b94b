"""State types and the first-order evolution system on the flat
Robertson-Walker background.

Dynamical variables are the Hubble rate u = adot/a, the inverse squared scale
factor v = 1/a**2, the scalar field phi with velocity chi = phidot, and the
fluid density rho.  Geometrized units (G = c = 1) throughout.  The field's
kinetic energy psi = chi**2/2 and the scale factor a = v**(-1/2) are always
derived from the stored components, never stored themselves, so the relations
psi = chi**2/2 and a = v**(-1/2) hold identically.

The evolution system is

    du/dt   = -(3/2) u**2 + lam/2 - 4*pi*(psi - m**2 phi**2 / 2 + rho/3)
    dv/dt   = -2 u v
    dphi/dt = chi
    dchi/dt = -3 u chi - m**2 phi
    drho/dt = -4 u rho

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
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


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
        _require_finite(lam=self.lam, mass=self.mass)
        if self.mass < 0.0:
            raise ValueError(f"mass must be >= 0, got {self.mass!r}")

    @property
    def mass_sq(self) -> float:
        return self.mass * self.mass


@dataclass(frozen=True)
class CosmoState:
    """Instantaneous state (t, u, v, phi, chi, rho).

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
        _require_finite(t=self.t, u=self.u, v=self.v, phi=self.phi,
                        chi=self.chi, rho=self.rho)
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
        """Scale factor v**(-1/2)."""
        return self.v ** -0.5


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
    drho: float


def _rhs_terms(u: float, v: float, phi: float, chi: float, rho: float,
               lam: float, mass_sq: float) -> tuple[float, float, float, float, float]:
    # Shared scalar core; the adaptive stepper calls this directly.
    psi = 0.5 * chi * chi
    du = -1.5 * u * u + 0.5 * lam - FOUR_PI * (psi - 0.5 * mass_sq * phi * phi + rho / 3.0)
    return (du, -2.0 * u * v, chi, -3.0 * u * chi - mass_sq * phi, -4.0 * u * rho)


def rhs(state: CosmoState, params: ModelParams) -> StateDeriv:
    """Time derivative of (u, v, phi, chi, rho).

    The system is autonomous: the result depends on the state components
    only, never on ``state.t``.  Inputs are guaranteed finite by the type
    invariants, so the derivative is always finite.
    """
    return StateDeriv(*_rhs_terms(state.u, state.v, state.phi, state.chi,
                                  state.rho, params.lam, params.mass_sq))


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


def constraint_residual(state: CosmoState, params: ModelParams) -> float:
    """Residual of the Hamiltonian constraint at ``state`` (see derived_terms)."""
    return derived(state, params).constraint


def derived(state: CosmoState, params: ModelParams) -> DerivedQuantities:
    """All algebraic functionals of a state in one pass."""
    return derived_terms(state.u, state.phi, state.chi, state.rho, params)


def scale_factor(state: CosmoState) -> float:
    """Scale factor a = v**(-1/2); rejects v <= 0."""
    if state.v <= 0.0:
        raise ValueError(f"v must be > 0, got {state.v!r}")
    return state.v ** -0.5

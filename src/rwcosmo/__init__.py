"""Flat Robertson-Walker cosmology with a massive scalar field, a perfect
fluid and a cosmological constant.

The package evolves the homogeneous Einstein-scalar-fluid system as a
five-component first-order ODE system with an adaptive embedded Runge-Kutta
pair, monitors the Hamiltonian constraint along the way, and verifies the
expansion bounds and late-time asymptotics that hold for expanding data with
a non-decreasing field.
"""

from .model import (
    FOUR_PI,
    EIGHT_PI,
    TWENTY_FOUR_PI,
    ModelParams,
    CosmoState,
    DerivedQuantities,
    StateDeriv,
    rhs,
    constraint_residual,
    derived,
    scale_factor,
)
from .initial import (
    InitialData,
    AdmissibilityReport,
    NoRealBranch,
    NegativeDensity,
    nu_rate,
    solve_u0,
    solve_rho0,
    make_initial_data,
    initial_data_from_u0,
    build_state,
    validate_theorem1,
    initial_constraint_residual,
)
from .integrator import (
    IntegratorConfig,
    Trajectory,
    Event,
    IntegrationStats,
    InadmissibleInitialData,
    StepSizeUnderflow,
    TRAJECTORY_COLUMNS,
    step,
    integrate,
)
from .diagnostics import (
    Tolerances,
    Check,
    DecayFit,
    VerificationReport,
    fit_decay_rate,
    verify_bounds,
    verify_quadrature,
    verify_asymptotics,
    q_identity_check,
    verify,
)
from .sweep import SweepPlan, SweepRow, run_sweep, sweep_table_csv

__version__ = "0.1.0"

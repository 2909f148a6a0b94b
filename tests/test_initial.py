"""Initial data construction, branch selection, admissibility validation."""

import math
from dataclasses import fields

import numpy as np
import pytest

from rwcosmo import (AdmissibilityReport, InitialData, ModelParams, NegativeDensity, NoRealBranch,
                     build_state, derived, initial_data_from_u0,
                     make_initial_data, nu_rate, solve_rho0,
                     solve_u0, validate_theorem1)
from rwcosmo.initial import CONSTRUCTION_TOL, constraint_scale

RNG = np.random.default_rng(3)

FOUR_PI = 4.0 * math.pi


class TestSolveU0:
    def test_field_only_expanding(self):
        """phi0=1, m=1, nothing else: u0 = sqrt(4 pi / 3)."""
        u0 = solve_u0(ModelParams(lam=0.0, mass=1.0), phi0=1.0, chi0=0.0,
                      rho0=0.0, branch="expanding")
        assert u0 == pytest.approx(math.sqrt(FOUR_PI / 3.0), rel=1e-15)
        assert u0 == pytest.approx(2.04665, abs=1e-5)

    def test_branches_are_exact_negatives(self):
        params = ModelParams(lam=0.3, mass=1.7)
        for _ in range(50):
            phi0 = RNG.uniform(-2, 2)
            chi0 = RNG.uniform(0, 2)
            rho0 = RNG.uniform(0, 2)
            plus = solve_u0(params, phi0, chi0, rho0, "expanding")
            minus = solve_u0(params, phi0, chi0, rho0, "contracting")
            assert minus == -plus
            assert plus >= 0.0

    def test_no_real_branch(self):
        """lam = -13 with phi0 = 1, m = 1: radicand (-13 + 4 pi)/3 < 0."""
        with pytest.raises(NoRealBranch):
            solve_u0(ModelParams(lam=-13.0, mass=1.0), phi0=1.0, chi0=0.0,
                     rho0=0.0)

    def test_zero_radicand_warns_on_expanding(self):
        """lam exactly at -8 pi T00 gives u0 = 0 and a warning."""
        params = ModelParams(lam=-FOUR_PI, mass=1.0)  # 8 pi * (phi0^2/2) = 4 pi
        with pytest.warns(UserWarning):
            u0 = solve_u0(params, phi0=1.0, chi0=0.0, rho0=0.0, branch="expanding")
        assert u0 == 0.0

    def test_rejects_negative_chi0(self):
        with pytest.raises(ValueError):
            solve_u0(ModelParams(0.0, 1.0), phi0=1.0, chi0=-0.1, rho0=0.0)

    def test_rejects_unknown_branch(self):
        with pytest.raises(ValueError):
            solve_u0(ModelParams(0.0, 1.0), 1.0, 0.0, 0.0, branch="sideways")


class TestSolveRho0:
    def test_round_trip_with_solve_u0(self):
        params = ModelParams(lam=1.0, mass=1.0)
        u0 = solve_u0(params, phi0=1.0, chi0=0.1, rho0=0.05)
        rho0 = solve_rho0(params, phi0=1.0, chi0=0.1, u0=u0)
        assert rho0 == pytest.approx(0.05, rel=1e-12)

    def test_negative_density_raises(self):
        """u0 too small for the field energy forces rho0 < 0."""
        with pytest.raises(NegativeDensity):
            solve_rho0(ModelParams(lam=0.0, mass=1.0), phi0=1.0, chi0=0.0, u0=0.1)

    def test_from_u0_constructor_is_constraint_consistent(self):
        params = ModelParams(lam=0.5, mass=2.0)
        data = initial_data_from_u0(params, a0=2.0, phi0=0.7, chi0=0.2, u0=3.0)
        c = derived(build_state(data), params).constraint
        assert abs(c) <= CONSTRUCTION_TOL * constraint_scale(params, data)


class TestBuildState:
    @pytest.mark.parametrize("a0,v0", [(1.0, 1.0), (2.0, 0.25)])
    def test_v_is_inverse_square(self, a0, v0):
        data = InitialData(a0=a0, u0=1.0, phi0=0.0, chi0=0.0, rho0=0.0)
        assert build_state(data).v == v0

    @pytest.mark.parametrize("a0", [0.5, 1.0, 7.0])
    def test_scale_factor_round_trip(self, a0):
        data = InitialData(a0=a0, u0=1.0, phi0=0.0, chi0=0.0, rho0=0.0)
        assert build_state(data).a == pytest.approx(a0, rel=1e-15)

    def test_components_copied_verbatim(self):
        data = InitialData(a0=1.0, u0=2.5, phi0=1.5, chi0=0.3, rho0=0.1)
        s = build_state(data)
        assert (s.t, s.u, s.phi, s.chi, s.rho) == (0.0, 2.5, 1.5, 0.3, 0.1)

    def test_nonpositive_a0_rejected(self):
        with pytest.raises(ValueError):
            InitialData(a0=-1.0, u0=1.0, phi0=0.0, chi0=0.0, rho0=0.0)
        with pytest.raises(ValueError):
            InitialData(a0=0.0, u0=1.0, phi0=0.0, chi0=0.0, rho0=0.0)

    @pytest.mark.parametrize("a0", [1e-160, 1e-200, 5e-324])
    def test_a0_with_overflowing_v0_rejected(self, a0):
        """v0 = 1/a0**2 must be finite: build_state used to fail inside
        integrate on such data (inf, or a division by an underflowed zero)."""
        with pytest.raises(ValueError, match="a0"):
            InitialData(a0=a0, u0=1.0, phi0=0.0, chi0=0.0, rho0=0.0)
        data = InitialData(a0=1e-154, u0=1.0, phi0=0.0, chi0=0.0, rho0=0.0)
        assert math.isfinite(build_state(data).v)


class TestConstraintConsistency:
    def test_constructed_data_satisfy_constraint(self):
        """For any admissible draw, the induced state has residual ~0."""
        for _ in range(200):
            params = ModelParams(lam=RNG.uniform(-1, 3), mass=RNG.uniform(0, 2))
            phi0 = RNG.uniform(-2, 2)
            chi0 = RNG.uniform(0, 2)
            rho0 = RNG.uniform(0, 2)
            try:
                data = make_initial_data(params, a0=RNG.uniform(0.5, 3), phi0=phi0,
                                         chi0=chi0, rho0=rho0, branch="expanding")
            except NoRealBranch:
                continue
            c = derived(build_state(data), params).constraint
            assert abs(c) <= CONSTRUCTION_TOL * constraint_scale(params, data)


class TestValidateTheorem1:
    def test_reference_data_admissible(self):
        params = ModelParams(lam=1.0, mass=1.0)
        data = make_initial_data(params, 1.0, 1.0, 0.1, 0.05, "expanding")
        rep = validate_theorem1(params, data)
        assert rep.theorem1_applicable
        assert rep.nu == pytest.approx(math.sqrt((1.0 + FOUR_PI) / 3.0), rel=1e-15)

    def test_negative_phi0_flagged(self):
        params = ModelParams(lam=0.0, mass=1.0)
        data = make_initial_data(params, 1.0, -1.0, 0.0, 0.0, "expanding")
        rep = validate_theorem1(params, data)
        assert not rep.phi0_positive
        assert not rep.theorem1_applicable
        assert rep.lambda_bound_ok  # 0 > -4 pi still holds
        assert rep.nu is not None

    def test_contracting_branch_flagged(self):
        params = ModelParams(lam=1.0, mass=1.0)
        data = make_initial_data(params, 1.0, 1.0, 0.1, 0.05, "contracting")
        rep = validate_theorem1(params, data)
        assert not rep.u0_positive
        assert not rep.theorem1_applicable

    @pytest.mark.parametrize("name", ["chi0", "rho0"])
    def test_sign_hypotheses_are_data_invariants(self, name):
        """chi0 >= 0 and rho0 >= 0 need no flag: InitialData refuses data
        without them, and the report flags the other three hypotheses."""
        values = dict(a0=1.0, u0=1.0, phi0=1.0, chi0=0.0, rho0=0.0)
        values[name] = -1e-300
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            InitialData(**values)
        assert [f.name for f in fields(AdmissibilityReport)] == [
            "lambda_bound_ok", "phi0_positive", "u0_positive", "theorem1_applicable", "nu"]

    def test_lambda_bound_violation_has_no_nu(self):
        params = ModelParams(lam=-13.0, mass=1.0)
        data = InitialData(a0=1.0, u0=1.0, phi0=1.0, chi0=0.0, rho0=0.0)
        rep = validate_theorem1(params, data)
        assert not rep.lambda_bound_ok
        assert rep.nu is None

    def test_nu_positive_when_present(self):
        for _ in range(100):
            params = ModelParams(lam=RNG.uniform(-20, 5), mass=RNG.uniform(0, 2))
            phi0 = RNG.uniform(-2, 2)
            nu = nu_rate(params, phi0)
            if nu is not None:
                assert nu > 0.0

    def test_u0_at_least_nu_when_applicable(self):
        """The constraint makes u0 >= nu whenever the hypotheses hold."""
        for _ in range(200):
            params = ModelParams(lam=RNG.uniform(-5, 5), mass=RNG.uniform(0, 2))
            phi0 = RNG.uniform(0.01, 2)
            chi0 = RNG.uniform(0, 2)
            rho0 = RNG.uniform(0, 2)
            try:
                data = make_initial_data(params, 1.0, phi0, chi0, rho0, "expanding")
            except NoRealBranch:
                continue
            rep = validate_theorem1(params, data)
            if rep.theorem1_applicable:
                assert data.u0 >= rep.nu * (1.0 - 1e-14)

    def test_equality_when_field_alone(self):
        """u0 = nu exactly when chi0 = rho0 = 0."""
        params = ModelParams(lam=1.0, mass=1.0)
        data = make_initial_data(params, 1.0, 1.0, 0.0, 0.0, "expanding")
        rep = validate_theorem1(params, data)
        assert data.u0 == pytest.approx(rep.nu, rel=1e-15)

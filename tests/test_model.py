"""Core model: types, right-hand side, constraint, derived functionals."""

import math

import numpy as np
import pytest

from rwcosmo import (CosmoState, InitialData, IntegrationStats, IntegratorConfig,
                     ModelParams, Trajectory, derived, rhs)
from rwcosmo.model import density

RNG = np.random.default_rng(42)

FOUR_PI = 4.0 * math.pi
EIGHT_PI = 8.0 * math.pi


def random_state(rng, lo=-2.0, hi=2.0):
    u, phi, chi = rng.uniform(lo, hi, 3)
    return CosmoState(t=0.0, u=u, v=rng.uniform(0.1, 2.0), phi=phi, chi=chi,
                      rho=rng.uniform(0.0, 2.0))


class TestTypes:
    def test_params_reject_negative_mass(self):
        with pytest.raises(ValueError):
            ModelParams(lam=0.0, mass=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_params_reject_non_finite_lambda(self, bad):
        with pytest.raises(ValueError):
            ModelParams(lam=bad, mass=1.0)

    @pytest.mark.parametrize("value", [
        pytest.param("x", id="x"), pytest.param(None, id="None"), pytest.param([1.0], id="list"),
    ])
    def test_non_number_named_in_error(self, value):
        with pytest.raises(TypeError, match="^mass must be a real number, not "):
            ModelParams(lam=1.0, mass=value)

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_is_not_a_real_number(self, value):
        """math.isfinite takes a bool as 0 or 1; a real field refuses it."""
        with pytest.raises(TypeError, match="^lam must be a real number, not bool$"):
            ModelParams(lam=value, mass=1.0)

    @pytest.mark.parametrize("field,value", [
        ("u", math.nan), ("v", math.inf), ("phi", math.nan),
        ("chi", -math.inf), ("rho", math.nan),
    ])
    def test_state_rejects_non_finite(self, field, value):
        kwargs = dict(t=0.0, u=1.0, v=1.0, phi=1.0, chi=0.0, rho=0.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            CosmoState(**kwargs)

    def test_state_rejects_nonpositive_v(self):
        with pytest.raises(ValueError):
            CosmoState(t=0.0, u=0.0, v=0.0, phi=0.0, chi=0.0, rho=0.0)

    def test_state_rejects_negative_rho(self):
        with pytest.raises(ValueError):
            CosmoState(t=0.0, u=0.0, v=1.0, phi=0.0, chi=0.0, rho=-1e-9)

    def test_psi_is_half_chi_squared(self):
        s = CosmoState(t=0.0, u=0.0, v=1.0, phi=0.0, chi=0.3, rho=0.0)
        assert s.psi == 0.5 * 0.3 * 0.3

    def test_state_is_immutable(self):
        s = CosmoState(t=0.0, u=0.0, v=1.0, phi=0.0, chi=0.0, rho=0.0)
        with pytest.raises(AttributeError):
            s.u = 1.0


class TestRhs:
    def test_fluid_dominated_point(self):
        """u=1, v=1, rho=2, field off: dv=-2, dchi=0 and the u equation keeps
        its fluid term -4*pi*rho/3."""
        s = CosmoState(t=0.0, u=1.0, v=1.0, phi=0.0, chi=0.0, rho=2.0)
        d = rhs(s, ModelParams(lam=0.0, mass=1.0))
        assert d.dv == -2.0
        assert d.dchi == 0.0
        assert d.dphi == 0.0
        assert d.du == pytest.approx(-1.5 - EIGHT_PI / 3.0, rel=1e-15)

    def test_flat_static_vacuum_is_fixed_point(self):
        s = CosmoState(t=0.0, u=0.0, v=1.0, phi=0.0, chi=0.0, rho=0.0)
        d = rhs(s, ModelParams(lam=0.0, mass=1.0))
        assert d == (0.0, 0.0, 0.0, 0.0)

    def test_de_sitter_frozen_field_point(self):
        """With chi=rho=0 and u = sqrt((lam+4 pi m^2 phi^2)/3), du/dt = 0 and
        the field equation still pulls: dchi/dt = -m^2 phi."""
        lam, m, phi = 1.0, 1.0, 1.0
        u = math.sqrt((lam + FOUR_PI * m * m * phi * phi) / 3.0)
        s = CosmoState(t=0.0, u=u, v=1.0, phi=phi, chi=0.0, rho=0.0)
        d = rhs(s, ModelParams(lam=lam, mass=m))
        assert abs(d.du) < 1e-15
        assert d.dchi == pytest.approx(-m * m * phi, rel=1e-15)

    def test_autonomous(self):
        """Same components at different t give bitwise identical derivatives."""
        params = ModelParams(lam=0.7, mass=1.3)
        s1 = CosmoState(t=0.0, u=0.4, v=0.9, phi=1.1, chi=0.2, rho=0.3)
        s2 = CosmoState(t=57.0, u=0.4, v=0.9, phi=1.1, chi=0.2, rho=0.3)
        assert rhs(s1, params) == rhs(s2, params)

    def test_log_derivative_structure(self):
        """dv/dt / v = -2u, and the density anchored at the state follows
        the radiation law drho/dt / rho = -4u along the flow (by central
        differences)."""
        params = ModelParams(lam=-0.5, mass=2.0)
        eps = 1e-7
        for _ in range(100):
            s = random_state(RNG)
            if s.rho == 0.0:
                continue
            d = rhs(s, params)
            np.testing.assert_allclose(d.dv / s.v, -2.0 * s.u, rtol=1e-14)
            drho = (density(s.rho, s.v, s.v + eps * d.dv)
                    - density(s.rho, s.v, s.v - eps * d.dv)) / (2.0 * eps)
            np.testing.assert_allclose(drho / s.rho, -4.0 * s.u, rtol=1e-7, atol=1e-7)


class TestConstraint:
    def test_zero_state_zero_lambda(self):
        s = CosmoState(t=0.0, u=0.0, v=1.0, phi=0.0, chi=0.0, rho=0.0)
        assert derived(s, ModelParams(lam=0.0, mass=1.0)).constraint == 0.0

    def test_pure_lambda_balance(self):
        """3 u^2 = lam with everything else off."""
        s = CosmoState(t=0.0, u=1.0, v=1.0, phi=0.0, chi=0.0, rho=0.0)
        assert derived(s, ModelParams(lam=3.0, mass=1.0)).constraint == 0.0

    def test_field_balance(self):
        """u = sqrt(4 pi / 3) balances phi=1, m=1: 3u^2 = 4 pi."""
        u = math.sqrt(FOUR_PI / 3.0)
        s = CosmoState(t=0.0, u=u, v=1.0, phi=1.0, chi=0.0, rho=0.0)
        c = derived(s, ModelParams(lam=0.0, mass=1.0)).constraint
        assert abs(c) < 1e-14

    def test_propagation_rate_is_minus_3u(self):
        """The directional derivative of the residual along the flow equals
        -3*u*C at any state, on-shell or not (checked by central finite
        differences).  The density moves with v: drho/dt = 2*rho*(dv/dt)/v."""
        params = ModelParams(lam=0.8, mass=1.5)
        eps = 1e-7
        for _ in range(50):
            s = random_state(RNG)
            d = rhs(s, params)
            grad_dot_f = 0.0
            for comp, dot in (("u", d.du), ("v", d.dv), ("phi", d.dphi),
                              ("chi", d.dchi), ("rho", 2.0 * s.rho * d.dv / s.v)):
                kw = {k: getattr(s, k) for k in ("t", "u", "v", "phi", "chi", "rho")}
                kw[comp] = getattr(s, comp) + eps
                c_plus = derived(CosmoState(**kw), params).constraint
                kw[comp] = getattr(s, comp) - eps
                if comp == "rho" and kw[comp] < 0.0:
                    # one-sided difference at the rho >= 0 boundary
                    kw[comp] = getattr(s, comp)
                    c_minus = derived(CosmoState(**kw), params).constraint
                    grad_dot_f += (c_plus - c_minus) / eps * dot
                    continue
                c_minus = derived(CosmoState(**kw), params).constraint
                grad_dot_f += (c_plus - c_minus) / (2.0 * eps) * dot
            c = derived(s, params).constraint
            np.testing.assert_allclose(grad_dot_f, -3.0 * s.u * c,
                                       rtol=1e-5, atol=1e-5)


class TestDerived:
    def test_pure_expansion(self):
        s = CosmoState(t=0.0, u=2.0, v=1.0, phi=0.0, chi=0.0, rho=0.0)
        d = derived(s, ModelParams(lam=0.0, mass=1.0))
        assert d.H == 6.0
        assert d.T00 == 0.0
        assert d.Q == 36.0

    def test_static_field_energy(self):
        s = CosmoState(t=0.0, u=0.0, v=1.0, phi=1.0, chi=0.0, rho=0.0)
        d = derived(s, ModelParams(lam=0.0, mass=1.0))
        assert d.T00 == 0.5
        assert d.Q == pytest.approx(-12.0 * math.pi, rel=1e-15)

    def test_on_shell_q_equals_24_pi_rho(self):
        """On a constraint-satisfying state, Q = 24*pi*rho."""
        params = ModelParams(lam=0.0, mass=1.0)
        rho = 0.05
        u = math.sqrt((EIGHT_PI * (0.5 + rho)) / 3.0)  # phi=1, chi=0
        s = CosmoState(t=0.0, u=u, v=1.0, phi=1.0, chi=0.0, rho=rho)
        d = derived(s, params)
        assert abs(d.constraint) < 1e-13
        np.testing.assert_allclose(d.Q, 24.0 * math.pi * rho, rtol=1e-10)

    def test_h_is_three_u(self):
        for _ in range(20):
            s = random_state(RNG)
            d = derived(s, ModelParams(lam=0.3, mass=0.7))
            assert d.H == 3.0 * s.u

    def test_identity_q_24pirho_3c_fuzz(self):
        """Q - 24*pi*rho - 3*C stays at roundoff for arbitrary states."""
        rng = np.random.default_rng(20260810)
        worst = 0.0
        for _ in range(2000):
            u, phi, chi, lam = rng.uniform(-1.0, 1.0, 4)
            s = CosmoState(t=0.0, u=u, v=rng.uniform(0.01, 2.0), phi=phi,
                           chi=chi, rho=rng.uniform(0.0, 1.0))
            d = derived(s, ModelParams(lam=lam, mass=rng.uniform(0.0, 1.0)))
            dev = abs(d.Q - 24.0 * math.pi * s.rho - 3.0 * d.constraint)
            worst = max(worst, dev / (1.0 + abs(d.Q)))
        assert worst <= 1e-13

    def test_t00_chain_rule(self):
        """d(T00)/dt through the flow equals -2*H*psi."""
        params = ModelParams(lam=0.4, mass=1.2)
        for _ in range(100):
            s = random_state(RNG)
            d = rhs(s, params)
            t00_dot = s.chi * d.dchi + params.mass_sq * s.phi * d.dphi
            np.testing.assert_allclose(t00_dot, -2.0 * (3.0 * s.u) * s.psi,
                                       rtol=1e-12, atol=1e-13)


class TestScaleFactor:
    @pytest.mark.parametrize("v,a", [(1.0, 1.0), (0.25, 2.0), (1.0 / 9.0, 3.0)])
    def test_inverse_square_relation(self, v, a):
        s = CosmoState(t=0.0, u=0.0, v=v, phi=0.0, chi=0.0, rho=0.0)
        assert s.a == pytest.approx(a, rel=1e-15)

    def test_matches_property(self):
        """A trajectory's a column equals CosmoState.a bit for bit.  A
        hand-built state with v = 0 or v < 0 has no scale factor (nan), and
        v = inf reads 1/sqrt(inf) = 0."""
        vs = [0.37, 1.0 / 3.0, 2.5e-7, 0.0, -0.0, -4.0, -math.inf, math.inf]
        traj = Trajectory(params=ModelParams(lam=0.0, mass=0.0),
                          initial=InitialData(a0=1.0, u0=0.0, phi0=0.0, chi0=0.0, rho0=0.0),
                          config=IntegratorConfig(),
                          states=[[0.0, v, 0.0, 0.0] for v in vs], events=(),
                          stats=IntegrationStats(0, 0, 0))
        a = traj.as_arrays()["a"].tolist()
        assert a[:3] == [CosmoState(t=0.0, u=0.0, v=v, phi=0.0, chi=0.0, rho=0.0).a
                         for v in vs[:3]]
        assert all(map(math.isnan, a[3:7]))
        assert a[7] == 0.0 and math.copysign(1.0, a[7]) == 1.0

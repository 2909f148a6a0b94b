"""Acceptance suite: one test per criterion, at the stated tolerances.

Reference run: lam = 1, m = 1, phi0 = 1, chi0 = 0.1, rho0 = 0.05, expanding
branch, rel_tol = abs_tol = 1e-10, t_end = 10, sample_dt = 0.01, paper mode.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``).
"""

import math
from contextlib import contextmanager
import numpy as np
import pytest

from rwcosmo import (CosmoState, ModelParams, NoRealBranch, derived,
                     solve_u0, step, verify)
from rwcosmo.cli import (EXIT_INADMISSIBLE, EXIT_OK, EXIT_VERIFY_FAILED, main)
from rwcosmo.diagnostics import cumulative_simpson

from conftest import REF_CONFIG, REF_NU, REF_PARAMS, write_reference_config

EPS_MONO = 10.0 * REF_CONFIG.rel_tol  # times u0, per criterion 3
Q_NOISE_FLOOR = 24.0 * math.pi * 1e-6 * 0.05 + 3.0 * 1e-7  # criterion 5 floor


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def test_01_algebraic_identity_fuzz():
    """max over 1e4 fuzzed states of |Q - 24 pi rho - 3C|/(1+|Q|) <= 1e-13."""
    with criterion(1, "algebraic identity"):
        rng = np.random.default_rng(20260810)
        worst = 0.0
        for _ in range(10_000):
            u, phi, chi, lam = rng.uniform(-1.0, 1.0, 4)
            s = CosmoState(t=0.0, u=u, v=rng.uniform(0.01, 2.0), phi=phi,
                           chi=chi, rho=rng.uniform(0.0, 1.0))
            d = derived(s, ModelParams(lam=lam, mass=rng.uniform(0.0, 1.0)))
            dev = abs(d.Q - 24.0 * math.pi * s.rho - 3.0 * d.constraint)
            worst = max(worst, dev / (1.0 + abs(d.Q)))
        assert worst <= 1e-13


def test_02_constraint_propagation(ref_trajectory):
    """max_t |constraint| <= 1e-7 on the reference run."""
    with criterion(2, "constraint propagation"):
        drift = np.abs(ref_trajectory.as_arrays()["constraint"]).max()
        assert drift <= 1e-7


def test_03_theorem1_bounds(ref_trajectory, ref_initial):
    """u non-increasing within eps; nu <= u <= u0 + eps; 0 < v <= v0."""
    with criterion(3, "expansion bounds"):
        cols = ref_trajectory.as_arrays()
        eps = EPS_MONO * ref_initial.u0
        assert np.diff(cols["u"]).max() <= eps
        assert cols["u"].min() >= REF_NU
        assert cols["u"].max() <= ref_initial.u0 + eps
        assert cols["v"].min() > 0.0
        assert cols["v"].max() <= cols["v"][0]


def test_04_rho_quadrature_oracle(ref_trajectory, ref_initial):
    """The density is rho0*(v/v0)^2, rho0 itself (bit for bit) at t = 0,
    and max_t |rho - rho0 exp(-4 int u)| / rho0 <= 1e-6 (Simpson on
    samples)."""
    with criterion(4, "density quadrature oracle"):
        cols = ref_trajectory.as_arrays()
        rho, v = cols["rho"], cols["v"]
        assert rho[0] == ref_initial.rho0
        np.testing.assert_allclose(rho, ref_initial.rho0 * (v / v[0]) ** 2, rtol=4e-16, atol=0.0)
        integral = cumulative_simpson(cols["u"], REF_CONFIG.sample_dt)
        oracle = ref_initial.rho0 * np.exp(-4.0 * integral)
        assert np.abs(rho - oracle).max() / ref_initial.rho0 <= 1e-6


def test_05_decay_envelope_and_rates(ref_trajectory):
    """Q <= Q0 exp(-3 nu t) * 1.01 on every sample (above the documented
    noise floor of the Q expression); Q's fitted rate >= 3 nu * 0.95."""
    with criterion(5, "decay envelope and rates"):
        cols = ref_trajectory.as_arrays()
        q = cols["Q"]
        envelope = q[0] * np.exp(-3.0 * REF_NU * cols["t"]) * 1.01
        assert np.all(q <= envelope + Q_NOISE_FLOOR)
        # the envelope is binding (not floor-dominated) over >= 12 e-folds
        binding = envelope > Q_NOISE_FLOOR
        assert np.all(q[binding] <= envelope[binding] + Q_NOISE_FLOOR)
        assert 3.0 * REF_NU * cols["t"][binding].max() > 12.0

        fit = verify(ref_trajectory).fits["Q"]
        assert fit is not None, "no Q fit"
        assert fit.rate >= 3.0 * REF_NU * 0.95, f"Q rate {fit.rate}"


def test_06_asymptotic_limits(ref_trajectory, ref_initial):
    """phi^2 monotone until freezing; T00(t_end) -> m^2 L/2 within 1e-6;
    H(t_end) -> sqrt(3 (lam + 4 pi m^2 L)) within 1e-3 relative."""
    with criterion(6, "asymptotic limits"):
        cols = ref_trajectory.as_arrays()
        eps = EPS_MONO * ref_initial.u0
        assert np.diff(cols["phi"] ** 2).min() >= -eps
        l_hat = cols["phi"][-1] ** 2
        assert abs(cols["T00"][-1] - 0.5 * l_hat) <= 1e-6
        h_target = math.sqrt(3.0 * (1.0 + 4.0 * math.pi * l_hat))
        assert abs(cols["H"][-1] - h_target) <= 1e-3 * h_target


def test_07_scale_factor_growth(ref_trajectory, ref_initial):
    """a(t) >= a0 exp(nu t) * 0.999 everywhere; a(t_end)/a0 >= exp(10 nu)."""
    with criterion(7, "scale-factor growth"):
        cols = ref_trajectory.as_arrays()
        bound = ref_initial.a0 * np.exp(REF_NU * cols["t"]) * 0.999
        assert np.all(cols["a"] >= bound)
        assert cols["a"][-1] / ref_initial.a0 >= math.exp(REF_NU * 10.0)


def test_08_radiation_reduction(radiation_trajectory):
    """m = 0, phi0 = chi0 = 0, lam = 0, rho0 = 1: u and v follow the closed
    form u0/(1 + 2 u0 t) and v0/(1 + 2 u0 t) to 1e-8 relative over [0, 5]."""
    with criterion(8, "radiation reduction oracle"):
        cols = radiation_trajectory.as_arrays()
        assert cols["t"][-1] == 5.0
        u0 = radiation_trajectory.initial.u0
        growth = 1.0 + 2.0 * u0 * cols["t"]
        assert np.abs(cols["u"] * growth / u0 - 1.0).max() <= 1e-8
        assert np.abs(cols["v"] * growth / cols["v"][0] - 1.0).max() <= 1e-8


def test_09_integrator_order(ref_initial):
    """Richardson step-halving ratio of the error estimate in [24, 40]."""
    with criterion(9, "integrator order"):
        s = CosmoState(t=0.0, u=ref_initial.u0, v=1.0, phi=1.0, chi=0.1,
                       rho=0.05)
        _, e1, _ = step(s, REF_PARAMS, 0.02, REF_CONFIG)
        _, e2, _ = step(s, REF_PARAMS, 0.01, REF_CONFIG)
        assert 24.0 <= e1 / e2 <= 40.0


def test_10_negative_controls(tmp_path):
    """Contracting branch exits 2; kg-mode verification exits 4 with a
    hypothesis-violation note; lam below -4 pi m^2 phi0^2 has no real
    branch and exits 2."""
    with criterion(10, "negative controls"):
        con = write_reference_config(
            tmp_path / "con.ini", str(tmp_path / "out_con"),
            **{"branch = expanding": "branch = contracting"})
        assert main(["simulate", str(con)]) == EXIT_INADMISSIBLE

        kg = write_reference_config(tmp_path / "kg.ini", str(tmp_path / "out_kg"),
                                    **{"mode = paper": "mode = kg"})
        assert main(["simulate", str(kg)]) == EXIT_OK
        assert main(["verify", str(tmp_path / "out_kg")]) == EXIT_VERIFY_FAILED
        import json
        report = json.loads((tmp_path / "out_kg" / "report.json").read_text())
        assert not next(c for c in report["checks"]
                        if c["name"] == "phi_squared_monotone")["pass"]
        assert any("hypothesis" in n for n in report["notes"])

        with pytest.raises(NoRealBranch):
            solve_u0(ModelParams(lam=-13.0, mass=1.0), 1.0, 0.0, 0.0)
        low = write_reference_config(
            tmp_path / "low.ini", str(tmp_path / "out_low"),
            **{"lambda = 1": "lambda = -13", "chi0 = 0.1": "chi0 = 0",
               "rho0 = 0.05": "rho0 = 0"})
        assert main(["simulate", str(low)]) == EXIT_INADMISSIBLE


SWEEP_PLAN = """[axes]
lambda = 0.5, 1, 2
rho0 = 0, 0.05, 0.1

[fixed]
mass = 1
phi0 = 1
chi0 = 0.1

[sweep]
workers = 2

[integrator]
t_end = 5

[output]
directory = {out}
overwrite = true
"""


def test_11_determinism(tmp_path):
    """Reference run and a 3x3 sweep are byte-identical across executions."""
    with criterion(11, "determinism"):
        for tag in ("a", "b"):
            cfg = write_reference_config(tmp_path / f"run_{tag}.ini",
                                         str(tmp_path / f"out_{tag}"))
            assert main(["simulate", str(cfg)]) == EXIT_OK
        csv_a = (tmp_path / "out_a" / "trajectory.csv").read_bytes()
        csv_b = (tmp_path / "out_b" / "trajectory.csv").read_bytes()
        assert csv_a == csv_b

        for tag in ("a", "b"):
            plan = tmp_path / f"plan_{tag}.ini"
            plan.write_text(SWEEP_PLAN.format(out=tmp_path / f"sw_{tag}"))
            assert main(["sweep", str(plan)]) == EXIT_OK
        sw_a = (tmp_path / "sw_a" / "sweep.csv").read_bytes()
        sw_b = (tmp_path / "sw_b" / "sweep.csv").read_bytes()
        assert sw_a == sw_b

"""Seeded inputs of the rwcosmo benchmark workloads.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  The seed fixes the inputs; the default
seed uses the reference values exactly, any other seed jitters them by at
most 5 % so that the work per operation stays comparable across seeds.

This module imports rwcosmo only inside :func:`prepare`, so it can be loaded
by a fresh interpreter that times ``import rwcosmo.cli`` itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
WORKLOADS = ("dense_output", "sweep_grid")

#: The paper/README reference point (lambda, mass, a0, phi0, chi0, rho0).
REFERENCE_POINT = dict(lam=1.0, mass=1.0, a0=1.0, phi0=1.0, chi0=0.1, rho0=0.05)
#: Integrator tolerance and sample spacing of dense_output.
DENSE_TOL = 1e-8
DENSE_SAMPLE_DT = 0.001
T_END = 10.0
JITTER = 0.05

# sweep_grid: lambda(4) x mass(2) x chi0(2), phi0 and rho0 fixed.  The first
# lambda admits no real branch for either mass, so its four rows are flagged
# at no cost; the other three satisfy lambda > -4*pi*m**2*phi0**2 for both
# masses and are integrated with the default (reference) integrator.
SWEEP_LAMBDAS = (-60.0, -1.0, 1.0, 3.0)
SWEEP_MASSES = (0.5, 2.0)
SWEEP_CHI0_DRAW = 0.3
SWEEP_PHI0 = 1.0
SWEEP_RHO0 = 0.05

STATUS_OK = "ok"
STATUS_NO_REAL_BRANCH = "no-real-branch"
STATUS_SKIPPED = "skipped"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _jitter(rng: random.Random, x: float, seed: int) -> float:
    if seed == DEFAULT_SEED:
        return x
    return x * (1.0 + rng.uniform(-JITTER, JITTER))


@dataclass(frozen=True)
class RunInput:
    """One simulate-and-verify run on the expanding branch in paper mode."""

    lam: float
    mass: float
    a0: float
    phi0: float
    chi0: float
    rho0: float
    tol: float
    sample_dt: float
    t_end: float = T_END

    def ini_text(self, out_dir: Path) -> str:
        # repr() round-trips every double, so the CLI parses back the exact
        # values the harness integrates for its reference trajectory.
        return "\n".join([
            "[model]",
            f"lambda = {self.lam!r}",
            f"mass = {self.mass!r}",
            "[initial]",
            f"a0 = {self.a0!r}",
            f"phi0 = {self.phi0!r}",
            f"chi0 = {self.chi0!r}",
            f"rho0 = {self.rho0!r}",
            "branch = expanding",
            "[integrator]",
            f"rel_tol = {self.tol!r}",
            f"abs_tol = {self.tol!r}",
            f"t_end = {self.t_end!r}",
            f"sample_dt = {self.sample_dt!r}",
            "mode = paper",
            "[output]",
            f"directory = {out_dir}",
            "overwrite = true",
            "",
        ])


@dataclass(frozen=True)
class SweepInput:
    lambdas: tuple[float, ...]
    masses: tuple[float, ...]
    chi0s: tuple[float, ...]
    phi0: float = SWEEP_PHI0
    rho0: float = SWEEP_RHO0

    def points(self) -> list[tuple[float, float, float]]:
        """(lambda, mass, chi0) in the row-major order run_sweep promises."""
        return [(lam, m, chi0) for lam in self.lambdas for m in self.masses
                for chi0 in self.chi0s]

    def expected_status(self, lam: float, mass: float, chi0: float) -> str:
        """Row status implied by the data alone (expanding branch)."""
        energy = 0.5 * chi0 * chi0 + 0.5 * mass * mass * self.phi0 * self.phi0 + self.rho0
        if lam + 8.0 * math.pi * energy < 0.0:
            return STATUS_NO_REAL_BRANCH
        if lam + 4.0 * math.pi * mass * mass * self.phi0 * self.phi0 > 0.0:
            return STATUS_OK
        return STATUS_SKIPPED


def dense_input(seed: int) -> RunInput:
    rng = _rng("dense_output", seed)
    p = REFERENCE_POINT
    return RunInput(lam=p["lam"], mass=p["mass"], a0=p["a0"],
                    phi0=_jitter(rng, p["phi0"], seed),
                    chi0=_jitter(rng, p["chi0"], seed),
                    rho0=_jitter(rng, p["rho0"], seed),
                    tol=DENSE_TOL, sample_dt=DENSE_SAMPLE_DT)


def sweep_input(seed: int) -> SweepInput:
    rng = _rng("sweep_grid", seed)
    lambdas = tuple(_jitter(rng, lam, seed) for lam in SWEEP_LAMBDAS)
    return SweepInput(lambdas=lambdas, masses=SWEEP_MASSES,
                      chi0s=(0.0, _jitter(rng, SWEEP_CHI0_DRAW, seed)))


def prepare(workload: str, seed: int, workdir: Path):
    """Build what one operation consumes; every CLI call pays this.

    dense_output: write the run INI and parse it with the CLI's own parser;
    returns (ini_path, out_dir).  sweep_grid: returns the SweepPlan with
    ``workers=1``.  A worker pool as wide as the host's cores timed the
    host's other load, not the sweep: its latency spread past 25 % across
    runs of the same code, so the timed sweep runs in-process.
    """
    if workload == "sweep_grid":
        from rwcosmo.sweep import SweepPlan
        inp = sweep_input(seed)
        return SweepPlan(axes=(("lambda", inp.lambdas), ("mass", inp.masses),
                               ("chi0", inp.chi0s)),
                         fixed=(("phi0", inp.phi0), ("rho0", inp.rho0)),
                         workers=1)
    from rwcosmo.cli import parse_run_config
    workdir.mkdir(parents=True, exist_ok=True)
    out_dir = workdir / "out"
    ini = workdir / f"{workload}.ini"
    ini.write_text(dense_input(seed).ini_text(out_dir))
    parse_run_config(str(ini))
    return ini, out_dir

"""Parameter-grid runner: integrate + verify over a cartesian product.

Rows are independent and may be evaluated by a process pool; results are
always emitted in row-major order over the declared axes, so the output table
is deterministic regardless of execution parallelism.  Wall-clock timings are
kept on the in-memory rows but never serialized into the table (they would
break byte-level determinism); the CLI writes them to a sidecar file.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, fields
from itertools import product
from typing import Optional

from .diagnostics import verify
from .initial import NoRealBranch, make_initial_data, validate_theorem1
from .integrator import IntegratorConfig, InadmissibleInitialData, integrate
from .model import ModelParams
from .serialize import fmt

SWEEP_PARAMS = ("lambda", "mass", "phi0", "chi0", "rho0")

STATUS_OK = "ok"
STATUS_SKIPPED = "skipped"
STATUS_NO_REAL_BRANCH = "no-real-branch"
STATUS_GUARD_TRIPPED = "guard-tripped"
STATUS_INVALID_DATA = "invalid-data"

#: Fewest rows for which ``workers = auto`` starts a process pool; smaller
#: plans run serially, as the pool's start-up outweighs its gain there, and
#: larger ones gain.  Medians of bench/time_pool.py (alternating repeats,
#: 2-CPU host) in two series, serial against pooled: 16 rows 0.057/0.062 s
#: against 0.087/0.058 s, 20 rows 0.073/0.080 against 0.057/0.066, 24 rows
#: 0.090/0.093 against 0.080/0.072, bench/sweep_256.ini 0.444/0.273 against
#: 0.254/0.203 (pooled faster in 26 of 30 pairs), bench/sweep_1024.ini
#: 1.29/1.21 against 0.76/0.73 (30 of 30).
POOL_MIN_ROWS = 20
MAX_ROWS = 100_000  #: Most rows a plan may have.

#: Column order of the sweep table (timings intentionally excluded).
SWEEP_COLUMNS = ("lambda", "mass", "phi0", "chi0", "rho0", "admissible",
                 "status", "nu", "rate_Q", "rate_rho", "rate_chi2", "L_hat",
                 "H_inf_hat", "C0_hat", "max_constraint", "verdict",
                 "events")


@dataclass(frozen=True)
class SweepPlan:
    """Cartesian grid over a subset of (lambda, mass, phi0, chi0, rho0).

    ``axes`` is an ordered tuple of (name, values); every parameter not on an
    axis must appear in ``fixed``.  Row order is row-major over the declared
    axis order; a plan has at most MAX_ROWS rows.  ``workers`` (at least 1)
    asks for a process pool, which run_sweep caps at the CPU count; None
    (``auto``) asks for one worker per CPU on plans of POOL_MIN_ROWS rows or
    more and runs smaller plans serially.
    """

    axes: tuple[tuple[str, tuple[float, ...]], ...]
    fixed: tuple[tuple[str, float], ...] = ()
    a0: float = 1.0
    branch: str = "expanding"
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        axis_names = [name for name, _ in self.axes]
        fixed_names = [name for name, _ in self.fixed]
        if not self.axes:
            raise ValueError("plan needs at least one axis")
        for name, values in self.axes:
            if not values:
                raise ValueError(f"axis {name!r} is empty")
        unknown = [n for n in axis_names + fixed_names if n not in SWEEP_PARAMS]
        if unknown:
            raise ValueError(f"unknown sweep parameter(s): {', '.join(unknown)}")
        for kind, names in (("swept", axis_names), ("fixed", fixed_names)):
            repeated = sorted({n for n in names if names.count(n) > 1})
            if repeated:
                raise ValueError(f"parameter(s) {kind} more than once: {', '.join(repeated)}")
        dupes = set(axis_names) & set(fixed_names)
        if dupes:
            raise ValueError(f"parameter(s) both swept and fixed: {', '.join(sorted(dupes))}")
        missing = [n for n in SWEEP_PARAMS if n not in axis_names + fixed_names]
        if missing:
            raise ValueError(f"unassigned sweep parameter(s): {', '.join(missing)}")
        if self.size > MAX_ROWS:
            raise ValueError(f"grid size {self.size} exceeds MAX_ROWS = {MAX_ROWS}")
        if self.branch not in ("expanding", "contracting"):
            raise ValueError(f"branch must be 'expanding' or 'contracting', got {self.branch!r}")
        # ModelParams and InitialData would raise on these inside a row.
        values = [(name, v) for name, vs in self.axes for v in vs]
        for name, value in values + list(self.fixed) + [("a0", self.a0)]:
            if not math.isfinite(value):
                raise ValueError(f"{name} = {value!r} must be finite")
            if name in ("mass", "chi0", "rho0") and value < 0.0:
                raise ValueError(f"{name} = {value!r} must be >= 0")
        if not self.a0 > 0.0:
            raise ValueError(f"a0 = {self.a0!r} must be > 0")
        if self.workers is not None and (type(self.workers) is not int or self.workers < 1):
            raise ValueError(f"workers = {self.workers!r} must be an integer >= 1 (or auto)")

    @property
    def size(self) -> int:
        return math.prod(len(values) for _, values in self.axes)

    def points(self) -> list[dict[str, float]]:
        """Grid points in row-major order over the declared axes."""
        names = [name for name, _ in self.axes]
        return [{**dict(self.fixed), **dict(zip(names, combo))}
                for combo in product(*(values for _, values in self.axes))]


@dataclass(frozen=True)
class SweepRow:
    """One table row; the fields before ``wall_time`` are SWEEP_COLUMNS in order.

    A flagged row leaves the fields it does not reach at their defaults:
    nan, or "" for text.
    """

    lam: float
    mass: float
    phi0: float
    chi0: float
    rho0: float
    admissible: bool
    status: str
    nu: float = math.nan
    rate_Q: float = math.nan
    rate_rho: float = math.nan
    rate_chi2: float = math.nan
    L_hat: float = math.nan
    H_inf_hat: float = math.nan
    C0_hat: float = math.nan
    max_constraint: float = math.nan
    verdict: str = ""  # verify's status; empty on a flagged (unverified) row
    events: str = ""
    wall_time: float = 0.0


def _evaluate_point(args: tuple) -> SweepRow:
    point, a0, branch, config = args
    start = time.perf_counter()
    lam, mass = point["lambda"], point["mass"]
    phi0, chi0, rho0 = point["phi0"], point["chi0"], point["rho0"]

    def row(admissible: bool, status: str, **kw) -> SweepRow:
        return SweepRow(lam=lam, mass=mass, phi0=phi0, chi0=chi0, rho0=rho0,
                        admissible=admissible, status=status,
                        wall_time=time.perf_counter() - start, **kw)

    params = ModelParams(lam=lam, mass=mass)
    try:
        data = make_initial_data(params, a0=a0, phi0=phi0, chi0=chi0,
                                 rho0=rho0, branch=branch)
    except NoRealBranch:
        return row(False, STATUS_NO_REAL_BRANCH)
    except ValueError:  # e.g. u0 overflows for large mass * phi0
        return row(False, STATUS_INVALID_DATA)
    adm = validate_theorem1(params, data)  # the admissible and nu columns
    nu = adm.nu if adm.nu is not None else math.nan
    try:
        traj = integrate(data, params, config)
    except InadmissibleInitialData:
        return row(False, STATUS_SKIPPED, nu=nu)
    events = ";".join(f"{e.kind}@{e.t:.9g}" for e in traj.events)
    if traj.guard_tripped:
        return row(adm.theorem1_applicable, STATUS_GUARD_TRIPPED, nu=nu, events=events)
    report = verify(traj)
    cols = traj.as_arrays()
    rates = {f"rate_{name}": fit.rate if fit is not None else math.nan
             for name, fit in report.fits.items()}
    return row(adm.theorem1_applicable, STATUS_OK, nu=nu, **rates,
               L_hat=report.L_hat, H_inf_hat=report.H_inf_hat,
               C0_hat=report.C0_hat,
               max_constraint=float(abs(cols["constraint"]).max()),
               verdict=report.status, events=events)


def run_sweep(plan: SweepPlan) -> list[SweepRow]:
    """Evaluate every grid point; never aborts on per-point failures.

    Points that cannot be run come back flagged (skipped / no-real-branch /
    invalid-data), and so do runs a run limit ended (guard-tripped), rather
    than raising.  The returned list is in plan order whether or not a
    worker pool was used.  The pool has one worker per row at most, and no
    more than the CPU count (its default width).
    """
    points = plan.points()
    args = [(p, plan.a0, plan.branch, plan.integrator) for p in points]
    cpus = os.cpu_count() or 1
    workers = plan.workers
    if workers is None:
        workers = cpus if len(args) >= POOL_MIN_ROWS else 1
    workers = min(workers, cpus, len(args))
    if workers == 1:
        return [_evaluate_point(a) for a in args]
    # Imported here: concurrent.futures adds ~20 ms to every CLI start-up.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_evaluate_point, args, chunksize=max(1, len(args) // (4 * workers))))


def _fmt_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return x
    return fmt(x)


def sweep_table_csv(rows: list[SweepRow]) -> str:
    """Deterministic CSV of the sweep table (wall times excluded)."""
    names = [f.name for f in fields(SweepRow)[:len(SWEEP_COLUMNS)]]
    lines = [",".join(SWEEP_COLUMNS)]
    for r in rows:
        lines.append(",".join(_fmt_value(getattr(r, name)) for name in names))
    return "\n".join(lines) + "\n"

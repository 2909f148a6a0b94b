"""Command-line front end: simulate, verify, sweep, report.

Configuration is flat INI (sections model / initial / integrator / output
for simulate; axes / fixed / sweep / integrator / output for sweep).  One
section reader parses each key by its type name and rejects unknown
sections and keys outright, since a silently ignored typo in a physics
parameter is the worst failure mode.  ``[integrator]`` takes its keys and
types from ``IntegratorConfig``'s fields.  Each value is then checked once,
by the type it builds (ModelParams, InitialData, IntegratorConfig,
SweepPlan), and admissibility is decided by ``integrate`` alone.

Exit codes: 0 ok, 1 usage/config error or an I/O error in any command,
2 inadmissible data, 3 a run limit ended the run (partial outputs are
written), 4 verification failure, 5 inconclusive verification.
The single recognized environment variable, RWCOSMO_OUTPUT_ROOT, prefixes
relative output directories.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from . import __version__
from .diagnostics import (STATUS_FAILED, STATUS_INCONCLUSIVE, TOL,
                          VerificationReport, verify)
from .initial import (InitialData, NegativeDensity, NoRealBranch,
                      initial_data_from_u0, make_initial_data)
from .integrator import (InadmissibleInitialData, IntegratorConfig, Trajectory,
                         integrate, libm)
from .model import ModelParams
from .serialize import (CorruptTrajectory, read_trajectory, write_table,
                        write_report, write_trajectory)
from .sweep import SWEEP_PARAMS, SweepPlan, run_sweep, sweep_table_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INADMISSIBLE = 2
EXIT_INTEGRATOR = 3
EXIT_VERIFY_FAILED = 4
EXIT_INCONCLUSIVE = 5

ENV_OUTPUT_ROOT = "RWCOSMO_OUTPUT_ROOT"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Parsed simulate configuration: constraint-consistent initial data
    (u0 solved from ``branch``, or rho0 solved from an explicit ``u0``)."""

    params: ModelParams
    initial: InitialData
    integrator: IntegratorConfig
    directory: str
    overwrite: bool = False


def _err(msg: str) -> None:
    print(f"rwcosmo: error: {msg}", file=sys.stderr)


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError("not a boolean") from None


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(",") if v.strip())


def _workers(raw: str) -> Optional[int]:
    return None if raw == "auto" else int(raw)


#: Parser of an INI value, by the type name of the field it fills.
_PARSERS: dict[str, Callable[[str], Any]] = {"float": float, "bool": _bool, "str": str}
_INTEGRATOR = {f.name: _PARSERS[f.type] for f in fields(IntegratorConfig)}
_OUTPUT = {"directory": str, "overwrite": _bool}


def _read_ini(path: str, known: Sequence[str], required: Sequence[str]
              ) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r") as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc
    unknown = set(cp.sections()) - set(known)
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(sorted(unknown))}")
    for name in required:
        if not cp.has_section(name):
            raise ConfigError(f"missing required section [{name}]")
    return cp


def _section(cp: configparser.ConfigParser, name: str,
             schema: dict[str, Callable[[str], Any]],
             required: Sequence[str] = ()) -> dict[str, Any]:
    """The keys of [name] present in the file, in file order, each parsed by
    its schema entry; unknown and missing required keys are config errors."""
    keys = cp.options(name) if cp.has_section(name) else []
    unknown = [k for k in keys if k not in schema]
    if unknown:
        raise ConfigError(f"unknown key(s) in [{name}]: {', '.join(sorted(unknown))}")
    missing = [k for k in required if k not in keys]
    if missing:
        raise ConfigError(f"missing required key(s) in [{name}]: {', '.join(missing)}")
    values = {}
    for key in keys:
        raw = cp.get(name, key)
        try:
            values[key] = schema[key](raw)
        except ValueError as exc:
            raise ConfigError(f"[{name}] {key} = {raw!r}: {exc}") from exc
    return values


def _build(what: str, factory: Callable[..., Any], *args, **kwargs) -> Any:
    """``factory(...)``, the value check of the type it builds reported as a
    ConfigError on ``what``; data without a real branch or with a negative
    density pass through as they are."""
    try:
        return factory(*args, **kwargs)
    except (NoRealBranch, NegativeDensity):
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _integrator(cp: configparser.ConfigParser) -> IntegratorConfig:
    values = _section(cp, "integrator", _INTEGRATOR)
    return _build("[integrator] section", IntegratorConfig, **values)


def _output(cp: configparser.ConfigParser, default: str) -> tuple[str, bool]:
    out = _section(cp, "output", _OUTPUT)
    return out.get("directory", default), out.get("overwrite", False)


def parse_run_config(path: str) -> RunConfig:
    """Parse a simulate configuration and build its initial data.

    Raises ConfigError, or NoRealBranch/NegativeDensity when the constraint
    cannot be solved for the given data.
    """
    cp = _read_ini(path, ("model", "initial", "integrator", "output"),
                   ("model", "initial"))
    model = _section(cp, "model", {"lambda": float, "mass": float}, ("lambda", "mass"))
    initial = _section(cp, "initial", {"a0": float, "phi0": float, "chi0": float,
                                       "rho0": float, "u0": float, "branch": str},
                       ("a0", "phi0", "chi0"))
    if ("branch" in initial) == ("u0" in initial):
        raise ConfigError("[initial] needs exactly one of branch = expanding|contracting "
                          "(with rho0) or u0 (rho0 is then solved, so leave it out)")
    if ("rho0" in initial) != ("branch" in initial):
        raise ConfigError("[initial] rho0 goes with branch; with u0 it is solved "
                          "from the constraint and must be left out")
    params = _build("[model] section", ModelParams, lam=model["lambda"], mass=model["mass"])
    integrator = _integrator(cp)
    directory, overwrite = _output(cp, "out")
    entry = make_initial_data if "branch" in initial else initial_data_from_u0
    data = _build("[initial] section", entry, params, **initial)
    return RunConfig(params=params, initial=data, integrator=integrator,
                     directory=directory, overwrite=overwrite)


def resolve_output_dir(directory: str) -> Path:
    """The path of an ``[output] directory`` or ``-o`` value.  An empty one
    would be the working directory, more likely a typo: a ConfigError."""
    if not directory.strip():
        raise ConfigError("output directory must not be empty")
    root = os.environ.get(ENV_OUTPUT_ROOT)
    path = Path(directory)
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def cmd_simulate(config_path: str) -> int:
    try:
        cfg = parse_run_config(config_path)
    except (NoRealBranch, NegativeDensity) as exc:
        _err(f"inadmissible initial data: {exc}")
        return EXIT_INADMISSIBLE

    out_dir = resolve_output_dir(cfg.directory)
    try:
        traj = integrate(cfg.initial, cfg.params, cfg.integrator)
    except InadmissibleInitialData as exc:
        _err(str(exc))
        return EXIT_INADMISSIBLE

    write_trajectory(out_dir, traj, __version__, overwrite=cfg.overwrite)
    if traj.guard_tripped:
        trip = traj.events[-1]
        _err(f"guard tripped at t = {trip.t:.6g} ({trip.detail}); partial "
             f"trajectory ({len(traj.t)} samples) written to {out_dir}")
        return EXIT_INTEGRATOR
    print(f"wrote {len(traj.t)} samples to {out_dir}")
    return EXIT_OK


def cmd_verify(traj_dir: str) -> int:
    traj = read_trajectory(traj_dir)
    report = verify(traj)
    write_report(traj_dir, report)
    failed = [c.name for c in report.checks if not c.passed]
    for note in report.notes:
        print(f"note: {note}")
    print(f"status: {report.status}" +
          (f" (failed: {', '.join(failed)})" if failed else ""))
    if report.status == STATUS_FAILED:
        return EXIT_VERIFY_FAILED
    if report.status == STATUS_INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def parse_sweep_plan(path: str) -> tuple[SweepPlan, str, bool]:
    """Parse a sweep plan file; returns (plan, output directory, overwrite)."""
    cp = _read_ini(path, ("axes", "fixed", "sweep", "integrator", "output"), ("axes",))
    axes = _section(cp, "axes", dict.fromkeys(SWEEP_PARAMS, _floats))
    fixed = _section(cp, "fixed", {**dict.fromkeys(SWEEP_PARAMS, float),
                                   "a0": float, "branch": str})
    initial = {k: fixed.pop(k) for k in ("a0", "branch") if k in fixed}
    sweep = _section(cp, "sweep", {"workers": _workers})
    integrator = _integrator(cp)
    directory, overwrite = _output(cp, "sweep_out")
    plan = _build("sweep plan", SweepPlan, axes=tuple(axes.items()),
                  fixed=tuple(fixed.items()), integrator=integrator, **initial, **sweep)
    return plan, directory, overwrite


def cmd_sweep(plan_path: str) -> int:
    plan, directory, overwrite = parse_sweep_plan(plan_path)
    out_dir = resolve_output_dir(directory)
    csv_path, meta_path = out_dir / "sweep.csv", out_dir / "sweep_meta.json"
    existing = [path for path in (csv_path, meta_path) if path.exists()]
    if existing and not overwrite:
        _err(f"refusing to overwrite {existing[0]}; set overwrite")
        return EXIT_CONFIG
    start = time.perf_counter()
    rows = run_sweep(plan)
    elapsed = time.perf_counter() - start
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path.write_text(sweep_table_csv(rows))
    sidecar = {
        "total_wall_time_s": elapsed,
        "rows": len(rows),
        "row_wall_times_s": [r.wall_time for r in rows],
    }
    meta_path.write_text(json.dumps(sidecar, indent=2) + "\n")
    print(f"wrote {len(rows)} rows to {csv_path}")
    return EXIT_OK


def _write_plot_data(out_dir: Path, traj: Trajectory, report: VerificationReport) -> None:
    """Two-column gnuplot files for each derived quantity, plus ln Q."""
    cols = traj.as_arrays()
    t, q = cols["t"], cols["Q"]
    for name in ("a", "H", "T00", "Q", "constraint"):
        write_table(out_dir / f"{name}_vs_t.dat", f"# t {name}", [t, cols[name]], sep=" ")

    # ln Q over the fit window used for the reported decay rate, so the
    # file's least-squares slope reproduces -rate_Q.
    mask = q > 0.0
    fit = report.fits["Q"]
    if fit is not None:
        mask &= (t >= fit.t_lo) & (t <= fit.t_hi)
    write_table(out_dir / "lnQ_vs_t.dat", "# t lnQ", [t[mask], libm(math.log, q[mask])], sep=" ")


def cmd_report(traj_dir: str, out: Optional[str] = None) -> int:
    out_dir = resolve_output_dir(out) if out is not None else Path(traj_dir)
    traj = read_trajectory(traj_dir)
    report = verify(traj)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_plot_data(out_dir, traj, report)

    lines = ["rwcosmo run summary",
             "===================",
             f"lambda = {traj.params.lam:g}, mass = {traj.params.mass:g}",
             f"a0 = {traj.initial.a0:g}, u0 = {traj.initial.u0:.9g}, "
             f"phi0 = {traj.initial.phi0:g}, chi0 = {traj.initial.chi0:g}, "
             f"rho0 = {traj.initial.rho0:g}",
             f"mode = {traj.config.mode}, t_end = {traj.config.t_end:g}, "
             f"samples = {len(traj.t)}",
             f"nu = {report.nu:.9g}" if report.nu is not None else "nu = undefined",
             f"L_hat = {report.L_hat:.9g}, H_inf_hat = {report.H_inf_hat:.9g}, "
             f"C0_hat = {report.C0_hat:.9g}",
             "",
             "tolerances: " + ", ".join(f"{k}={v:g}" for k, v in asdict(TOL).items()),
             "",
             f"{'check':40s} {'pass':5s} margin"]
    for c in report.checks:
        lines.append(f"{c.name:40s} {str(c.passed):5s} {c.margin:.6g}")
    for name, fit in report.fits.items():
        if fit is None:
            lines.append(f"rate[{name}]: not fitted")
        else:
            lines.append(f"rate[{name}] = {fit.rate:.6g} (residual {fit.residual:.3g}, "
                         f"window [{fit.t_lo:g}, {fit.t_hi:g}], {fit.n_points} pts)")
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(f"status: {report.status}")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")
    print(f"wrote summary and plot data to {out_dir}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rwcosmo",
        description="Simulate and verify flat Robertson-Walker cosmologies "
                    "with a massive scalar field, perfect fluid and "
                    "cosmological constant.")
    parser.add_argument("--version", action="version", version=f"rwcosmo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate a configured run")
    p_sim.add_argument("config", help="INI run configuration")
    p_sim.set_defaults(run=lambda a: cmd_simulate(a.config))

    p_ver = sub.add_parser("verify", help="verify a simulated trajectory")
    p_ver.add_argument("directory", help="directory written by simulate")
    p_ver.set_defaults(run=lambda a: cmd_verify(a.directory))

    p_swp = sub.add_parser("sweep", help="run a parameter grid")
    p_swp.add_argument("plan", help="INI sweep plan")
    p_swp.set_defaults(run=lambda a: cmd_sweep(a.plan))

    p_rep = sub.add_parser("report", help="render summary and plot data")
    p_rep.add_argument("directory", help="directory written by simulate")
    p_rep.add_argument("-o", "--out", default=None, help="output directory "
                       "(default: the trajectory directory)")
    p_rep.set_defaults(run=lambda a: cmd_report(a.directory, a.out))

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, CorruptTrajectory, OSError) as exc:
        # OSError: e.g. an output directory that cannot be created
        _err(str(exc))
        return EXIT_CONFIG


def console_main() -> None:
    sys.exit(main())

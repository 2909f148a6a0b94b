"""Command-line front end: simulate, verify, sweep, report.

Configuration is flat INI (sections model / initial / integrator / output).
Parsing is strict: unknown sections or keys are rejected outright, since a
silently ignored typo in a physics parameter is the worst failure mode.

Exit codes: 0 ok, 1 usage/config/IO error, 2 inadmissible data,
3 integrator failure, 4 verification failure, 5 inconclusive verification.
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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .diagnostics import (STATUS_FAILED, STATUS_INCONCLUSIVE,
                          VerificationReport, verify)
from .initial import (InitialData, NegativeDensity, NoRealBranch,
                      initial_data_from_u0, make_initial_data,
                      validate_theorem1)
from .integrator import (InadmissibleInitialData, IntegratorConfig,
                         StepSizeUnderflow, Trajectory, integrate)
from .model import ModelParams
from .serialize import (CorruptTrajectory, read_trajectory, table_text,
                        write_report, write_trajectory)
from .sweep import SWEEP_PARAMS, SweepPlan, run_sweep, sweep_table_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INADMISSIBLE = 2
EXIT_INTEGRATOR = 3
EXIT_VERIFY_FAILED = 4
EXIT_INCONCLUSIVE = 5

ENV_OUTPUT_ROOT = "RWCOSMO_OUTPUT_ROOT"

_MODEL_KEYS = {"lambda", "mass"}
_INITIAL_KEYS = {"a0", "phi0", "chi0", "rho0", "branch", "u0", "solve_rho0"}
_INTEGRATOR_KEYS = {"rel_tol", "abs_tol", "h_init", "h_min", "h_max", "t_end",
                    "sample_dt", "mode", "max_abs_u", "max_abs_phi", "min_v",
                    "override_admissibility"}
_OUTPUT_KEYS = {"directory", "overwrite"}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Parsed simulate configuration.

    Exactly one of two entry forms is populated: ``branch`` (u0 solved from
    the constraint) or ``u0`` with the solve_rho0 switch (rho0 solved from
    the constraint).
    """

    params: ModelParams
    a0: float
    phi0: float
    chi0: float
    rho0: Optional[float]
    branch: Optional[str]
    u0: Optional[float]
    integrator: IntegratorConfig
    directory: str
    overwrite: bool = False


def _err(msg: str) -> None:
    print(f"rwcosmo: error: {msg}", file=sys.stderr)


def _read_ini(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc
    return cp


def _check_keys(cp: configparser.ConfigParser, section: str, allowed: set[str]) -> None:
    unknown = set(cp.options(section)) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")


def _get_float(cp, section: str, key: str, default: Optional[float] = None,
               required: bool = False) -> Optional[float]:
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"missing required key {key!r} in [{section}]")
        return default
    raw = cp.get(section, key)
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r} must be finite")
    return value


def _get_int(cp, section: str, key: str, default: Optional[int] = None) -> Optional[int]:
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from exc


def _get_bool(cp, section: str, key: str, default: bool = False) -> bool:
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key).strip().lower()
    if raw in ("true", "yes", "on", "1"):
        return True
    if raw in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"[{section}] {key} = {raw!r} is not a boolean")


def _parse_integrator(cp, section: str = "integrator") -> IntegratorConfig:
    defaults = IntegratorConfig()
    if not cp.has_section(section):
        return defaults
    _check_keys(cp, section, _INTEGRATOR_KEYS)
    kwargs = {}
    for key in ("rel_tol", "abs_tol", "h_init", "h_min", "h_max", "t_end",
                "sample_dt", "max_abs_u", "max_abs_phi", "min_v"):
        value = _get_float(cp, section, key)
        if value is not None:
            kwargs[key] = value
    if cp.has_option(section, "mode"):
        kwargs["mode"] = cp.get(section, "mode").strip()
    kwargs["override_admissibility"] = _get_bool(cp, section, "override_admissibility",
                                                 defaults.override_admissibility)
    try:
        return IntegratorConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid [integrator] section: {exc}") from exc


def parse_run_config(path: str) -> RunConfig:
    cp = _read_ini(path)
    known = {"model", "initial", "integrator", "output"}
    unknown = set(cp.sections()) - known
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(sorted(unknown))}")
    for required in ("model", "initial"):
        if not cp.has_section(required):
            raise ConfigError(f"missing required section [{required}]")
    _check_keys(cp, "model", _MODEL_KEYS)
    _check_keys(cp, "initial", _INITIAL_KEYS)
    if cp.has_section("output"):
        _check_keys(cp, "output", _OUTPUT_KEYS)

    try:
        params = ModelParams(lam=_get_float(cp, "model", "lambda", required=True),
                             mass=_get_float(cp, "model", "mass", required=True))
    except ValueError as exc:
        raise ConfigError(f"invalid [model] section: {exc}") from exc

    a0 = _get_float(cp, "initial", "a0", required=True)
    phi0 = _get_float(cp, "initial", "phi0", required=True)
    chi0 = _get_float(cp, "initial", "chi0", required=True)
    branch = cp.get("initial", "branch").strip() if cp.has_option("initial", "branch") else None
    u0 = _get_float(cp, "initial", "u0")
    solve_rho0_flag = _get_bool(cp, "initial", "solve_rho0", False)

    if branch is not None and u0 is not None:
        raise ConfigError("[initial] give either branch or u0, not both")
    if branch is None and u0 is None:
        raise ConfigError("[initial] needs either branch = expanding|contracting "
                          "or u0 with solve_rho0 = true")
    if u0 is not None and not solve_rho0_flag:
        raise ConfigError("[initial] explicit u0 requires solve_rho0 = true")
    if solve_rho0_flag and u0 is None:
        raise ConfigError("[initial] solve_rho0 = true requires an explicit u0")
    if solve_rho0_flag and cp.has_option("initial", "rho0"):
        raise ConfigError("[initial] rho0 must be omitted when solve_rho0 = true")
    if branch is not None and branch not in ("expanding", "contracting"):
        raise ConfigError(f"[initial] branch must be expanding or contracting, got {branch!r}")
    rho0 = _get_float(cp, "initial", "rho0", required=branch is not None)

    integrator = _parse_integrator(cp)

    directory = "out"
    overwrite = False
    if cp.has_section("output"):
        if cp.has_option("output", "directory"):
            directory = cp.get("output", "directory").strip()
        overwrite = _get_bool(cp, "output", "overwrite", False)

    return RunConfig(params=params, a0=a0, phi0=phi0, chi0=chi0, rho0=rho0,
                     branch=branch, u0=u0, integrator=integrator,
                     directory=directory, overwrite=overwrite)


def resolve_output_dir(directory: str) -> Path:
    root = os.environ.get(ENV_OUTPUT_ROOT)
    path = Path(directory)
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def _build_initial(cfg: RunConfig) -> InitialData:
    if cfg.branch is not None:
        return make_initial_data(cfg.params, a0=cfg.a0, phi0=cfg.phi0,
                                 chi0=cfg.chi0, rho0=cfg.rho0, branch=cfg.branch)
    return initial_data_from_u0(cfg.params, a0=cfg.a0, phi0=cfg.phi0,
                                chi0=cfg.chi0, u0=cfg.u0)


def cmd_simulate(config_path: str) -> int:
    try:
        cfg = parse_run_config(config_path)
    except ConfigError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    try:
        data = _build_initial(cfg)
    except (NoRealBranch, NegativeDensity) as exc:
        _err(f"inadmissible initial data: {exc}")
        return EXIT_INADMISSIBLE
    except ValueError as exc:
        _err(f"invalid initial data: {exc}")
        return EXIT_CONFIG

    adm = validate_theorem1(cfg.params, data)
    if not adm.theorem1_applicable and not cfg.integrator.override_admissibility:
        _err("initial data fail the global-existence hypotheses "
             f"(lambda_bound_ok={adm.lambda_bound_ok}, phi0_positive={adm.phi0_positive}, "
             f"u0_positive={adm.u0_positive}); set override_admissibility = true to explore")
        return EXIT_INADMISSIBLE

    out_dir = resolve_output_dir(cfg.directory)
    try:
        traj = integrate(data, cfg.params, cfg.integrator)
    except StepSizeUnderflow as exc:
        _err(f"integration failed: {exc}")
        return EXIT_INTEGRATOR
    except InadmissibleInitialData as exc:
        _err(str(exc))
        return EXIT_INADMISSIBLE

    try:
        write_trajectory(out_dir, traj, __version__, overwrite=cfg.overwrite)
    except FileExistsError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    except OSError as exc:
        _err(f"cannot write outputs: {exc}")
        return EXIT_CONFIG

    if traj.guard_tripped:
        trip = next(e for e in traj.events if e.kind == "GuardTripped")
        _err(f"guard tripped at t = {trip.t:.6g} ({trip.detail}); partial "
             f"trajectory ({len(traj.t)} samples) written to {out_dir}")
        return EXIT_INTEGRATOR
    print(f"wrote {len(traj.t)} samples to {out_dir}")
    return EXIT_OK


def cmd_verify(traj_dir: str) -> int:
    try:
        traj = read_trajectory(traj_dir)
    except CorruptTrajectory as exc:
        _err(str(exc))
        return EXIT_CONFIG
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
    cp = _read_ini(path)
    known = {"axes", "fixed", "sweep", "integrator", "output"}
    unknown = set(cp.sections()) - known
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(sorted(unknown))}")
    if not cp.has_section("axes"):
        raise ConfigError("missing required section [axes]")
    _check_keys(cp, "axes", set(SWEEP_PARAMS))
    axes = []
    for name in cp.options("axes"):
        raw = cp.get("axes", name)
        try:
            values = tuple(float(v.strip()) for v in raw.split(",") if v.strip())
        except ValueError as exc:
            raise ConfigError(f"[axes] {name} = {raw!r}: {exc}") from exc
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"[axes] {name} holds non-finite values")
        axes.append((name, values))

    fixed = []
    a0 = 1.0
    branch = "expanding"
    if cp.has_section("fixed"):
        _check_keys(cp, "fixed", set(SWEEP_PARAMS) | {"a0", "branch"})
        for name in cp.options("fixed"):
            if name == "branch":
                branch = cp.get("fixed", "branch").strip()
            elif name == "a0":
                a0 = _get_float(cp, "fixed", "a0")
            else:
                fixed.append((name, _get_float(cp, "fixed", name)))

    cap = 100_000
    workers: Optional[int] = None
    if cp.has_section("sweep"):
        _check_keys(cp, "sweep", {"cap", "workers"})
        cap = _get_int(cp, "sweep", "cap", cap)
        if cp.get("sweep", "workers", fallback="auto").strip() != "auto":
            workers = _get_int(cp, "sweep", "workers")

    integrator = _parse_integrator(cp)

    directory = "sweep_out"
    overwrite = False
    if cp.has_section("output"):
        _check_keys(cp, "output", {"directory", "overwrite"})
        if cp.has_option("output", "directory"):
            directory = cp.get("output", "directory").strip()
        overwrite = _get_bool(cp, "output", "overwrite", False)

    try:
        plan = SweepPlan(axes=tuple(axes), fixed=tuple(fixed), a0=a0,
                         branch=branch, integrator=integrator, cap=cap,
                         workers=workers)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return plan, directory, overwrite


def cmd_sweep(plan_path: str) -> int:
    try:
        plan, directory, overwrite = parse_sweep_plan(plan_path)
    except ConfigError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    out_dir = resolve_output_dir(directory)
    csv_path = out_dir / "sweep.csv"
    if csv_path.exists() and not overwrite:
        _err(f"refusing to overwrite {csv_path}; set overwrite")
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
    (out_dir / "sweep_meta.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    print(f"wrote {len(rows)} rows to {csv_path}")
    return EXIT_OK


def _write_plot_data(out_dir: Path, traj: Trajectory, report: VerificationReport) -> None:
    """Two-column gnuplot files for each derived quantity, plus ln Q."""
    cols = traj.as_arrays()
    t, q = cols["t"], cols["Q"]
    for name in ("H", "T00", "Q", "constraint"):
        (out_dir / f"{name}_vs_t.dat").write_text(
            table_text(f"# t {name}", [t, cols[name]], sep=" "))

    # ln Q over the fit window used for the reported decay rate, so the
    # file's least-squares slope reproduces -rate_Q.
    mask = q > 0.0
    window = report.fit_windows.get("Q")
    if window is not None:
        mask &= (t >= window.t_lo) & (t <= window.t_hi)
    (out_dir / "lnQ_vs_t.dat").write_text(
        table_text("# t lnQ", [t[mask], np.log(q[mask])], sep=" "))


def cmd_report(traj_dir: str, out: Optional[str] = None) -> int:
    try:
        traj = read_trajectory(traj_dir)
    except CorruptTrajectory as exc:
        _err(str(exc))
        return EXIT_CONFIG
    report = verify(traj)
    out_dir = resolve_output_dir(out) if out is not None else Path(traj_dir)
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
             "tolerances: " + ", ".join(f"{k}={v:g}" for k, v in
                                        report.tolerances.as_dict().items()),
             "",
             f"{'check':40s} {'pass':5s} margin"]
    for c in report.checks:
        lines.append(f"{c.name:40s} {str(c.passed):5s} {c.margin:.6g}")
    for name, fit in report.fitted_rates.items():
        if fit is None:
            lines.append(f"rate[{name}]: not fitted")
        else:
            w = report.fit_windows[name]
            lines.append(f"rate[{name}] = {fit.rate:.6g} (residual {fit.residual:.3g}, "
                         f"window [{w.t_lo:g}, {w.t_hi:g}], {w.n_points} pts)")
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

    p_ver = sub.add_parser("verify", help="verify a simulated trajectory")
    p_ver.add_argument("directory", help="directory written by simulate")

    p_swp = sub.add_parser("sweep", help="run a parameter grid")
    p_swp.add_argument("plan", help="INI sweep plan")

    p_rep = sub.add_parser("report", help="render summary and plot data")
    p_rep.add_argument("directory", help="directory written by simulate")
    p_rep.add_argument("-o", "--out", default=None, help="output directory "
                       "(default: the trajectory directory)")

    args = parser.parse_args(argv)
    if args.command == "simulate":
        return cmd_simulate(args.config)
    if args.command == "verify":
        return cmd_verify(args.directory)
    if args.command == "sweep":
        return cmd_sweep(args.plan)
    if args.command == "report":
        return cmd_report(args.directory, args.out)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_CONFIG


def console_main() -> None:
    sys.exit(main())

"""Flat-file serialization of trajectories and reports.

All floats are written with 17 significant digits, which round-trips IEEE
doubles exactly; reading a trajectory back reproduces the in-memory values
bit for bit.  Output is fully deterministic: identical runs produce identical
bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .diagnostics import VerificationReport
from .initial import InitialData, validate_theorem1
from .integrator import (STATE_COLUMNS, TRAJECTORY_COLUMNS, Event,
                         IntegrationStats, IntegratorConfig, Trajectory)
from .model import ModelParams

TRAJECTORY_CSV = "trajectory.csv"
EVENTS_JSON = "events.json"
META_JSON = "meta.json"
REPORT_JSON = "report.json"


class CorruptTrajectory(ValueError):
    """A trajectory directory is missing files or fails to parse."""


#: The one spelling of a float in every table and config the package writes.
_FLOAT = "%.17g"


def fmt(x: float) -> str:
    """17-significant-digit decimal form of a double (exact round trip)."""
    return _FLOAT % (x,)


def table_text(header: str, columns: Sequence[np.ndarray], sep: str = ",") -> str:
    """``header`` line, then one line per row of the equal-length ``columns``."""
    row = sep.join([_FLOAT] * len(columns))
    lines = [header]
    lines += [row % values for values in zip(*(c.tolist() for c in columns))]
    return "\n".join(lines) + "\n"


def trajectory_csv_text(traj: Trajectory) -> str:
    cols = traj.as_arrays()
    return table_text(",".join(TRAJECTORY_COLUMNS),
                      [cols[name] for name in TRAJECTORY_COLUMNS])


def events_json_text(traj: Trajectory) -> str:
    payload = [{"t": e.t, "kind": e.kind, "detail": e.detail} for e in traj.events]
    return json.dumps(payload, indent=2) + "\n"


def meta_json_text(traj: Trajectory, version: str) -> str:
    adm = validate_theorem1(traj.params, traj.initial)
    payload = {
        "package": "rwcosmo",
        "version": version,
        "params": {"lambda": traj.params.lam, "mass": traj.params.mass},
        "initial": {
            "a0": traj.initial.a0,
            "u0": traj.initial.u0,
            "phi0": traj.initial.phi0,
            "chi0": traj.initial.chi0,
            "rho0": traj.initial.rho0,
        },
        "admissibility": {
            "lambda_bound_ok": adm.lambda_bound_ok,
            "phi0_positive": adm.phi0_positive,
            "u0_positive": adm.u0_positive,
            "chi0_nonneg": adm.chi0_nonneg,
            "rho0_nonneg": adm.rho0_nonneg,
            "theorem1_applicable": adm.theorem1_applicable,
            "nu": adm.nu,
        },
        "integrator": asdict(traj.config),
        "stats": {
            "steps_accepted": traj.stats.steps_accepted,
            "steps_rejected": traj.stats.steps_rejected,
            "rhs_evaluations": traj.stats.rhs_evaluations,
        },
        "n_samples": len(traj.t),
        "guard_tripped": traj.guard_tripped,
    }
    return json.dumps(payload, indent=2) + "\n"


def write_trajectory(directory: Union[str, Path], traj: Trajectory, version: str,
                     overwrite: bool = False) -> list[Path]:
    """Write trajectory.csv, events.json and meta.json.

    Refuses to clobber existing files unless ``overwrite`` is set.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    targets = {
        TRAJECTORY_CSV: trajectory_csv_text(traj),
        EVENTS_JSON: events_json_text(traj),
        META_JSON: meta_json_text(traj, version),
    }
    if not overwrite:
        existing = [name for name in targets if (directory / name).exists()]
        if existing:
            raise FileExistsError(
                f"refusing to overwrite {', '.join(existing)} in {directory}; "
                "set overwrite")
    written = []
    for name, text in targets.items():
        path = directory / name
        path.write_text(text)
        written.append(path)
    return written


def _parse_states(text: str) -> tuple[np.ndarray, np.ndarray]:
    """(t, states) columns of trajectory.csv text; derived columns are ignored."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CorruptTrajectory(f"{TRAJECTORY_CSV}: empty file")
    if tuple(lines[0].split(",")) != TRAJECTORY_COLUMNS:
        raise CorruptTrajectory(f"{TRAJECTORY_CSV}: unexpected header {lines[0]!r}")
    if len(lines) == 1:
        raise CorruptTrajectory(f"{TRAJECTORY_CSV} holds no samples")
    try:
        table = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise CorruptTrajectory(f"{TRAJECTORY_CSV}: {exc}") from exc
    if table.shape[1] != len(TRAJECTORY_COLUMNS):
        raise CorruptTrajectory(f"{TRAJECTORY_CSV}: rows hold {table.shape[1]} values")
    t = table[:, TRAJECTORY_COLUMNS.index("t")]
    states = table[:, [TRAJECTORY_COLUMNS.index(c) for c in STATE_COLUMNS]]
    bad = ~(np.isfinite(t) & np.isfinite(states).all(axis=1)
            & (states[:, 1] > 0.0) & (states[:, 4] >= 0.0))
    if bad.any():
        raise CorruptTrajectory(f"{TRAJECTORY_CSV}: data row {int(np.argmax(bad)) + 1} is "
                                "not a state (finite, v > 0, rho >= 0)")
    return t, states


def read_trajectory(directory: Union[str, Path]) -> Trajectory:
    """Rebuild a Trajectory from a directory written by write_trajectory."""
    directory = Path(directory)
    try:
        meta = json.loads((directory / META_JSON).read_text())
        events_raw = json.loads((directory / EVENTS_JSON).read_text())
        csv_text = (directory / TRAJECTORY_CSV).read_text()
    except FileNotFoundError as exc:
        raise CorruptTrajectory(f"missing file: {exc.filename}") from exc
    except json.JSONDecodeError as exc:
        raise CorruptTrajectory(f"invalid JSON in {directory}: {exc}") from exc

    try:
        params = ModelParams(lam=float(meta["params"]["lambda"]),
                             mass=float(meta["params"]["mass"]))
        ini = meta["initial"]
        initial = InitialData(a0=float(ini["a0"]), u0=float(ini["u0"]),
                              phi0=float(ini["phi0"]), chi0=float(ini["chi0"]),
                              rho0=float(ini["rho0"]))
        config = IntegratorConfig(**meta["integrator"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptTrajectory(f"invalid meta.json: {exc}") from exc

    t, states = _parse_states(csv_text)

    try:
        events = tuple(Event(t=float(e["t"]), kind=str(e["kind"]),
                             detail=str(e.get("detail", ""))) for e in events_raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptTrajectory(f"invalid events.json: {exc}") from exc

    stats_raw = meta.get("stats", {})
    stats = IntegrationStats(
        steps_accepted=int(stats_raw.get("steps_accepted", 0)),
        steps_rejected=int(stats_raw.get("steps_rejected", 0)),
        rhs_evaluations=int(stats_raw.get("rhs_evaluations", 0)),
    )
    return Trajectory(params=params, initial=initial, config=config,
                      t=t, states=states, events=events, stats=stats)


def _fit_to_json(fit) -> Optional[dict]:
    if fit is None:
        return None
    return {"rate": fit.rate, "intercept": fit.intercept, "residual": fit.residual}


def report_json_text(report: VerificationReport) -> str:
    payload = {
        "nu": report.nu,
        "tolerances": asdict(report.tolerances),
        "checks": [{"name": c.name, "pass": c.passed, "margin": _json_safe(c.margin),
                    "detail": c.detail} for c in report.checks],
        "fitted_rates": {k: (v.rate if v is not None else None)
                         for k, v in report.fitted_rates.items()},
        "fit_details": {k: _fit_to_json(v) for k, v in report.fitted_rates.items()},
        "fit_windows": {k: (asdict(w) if w is not None else None)
                        for k, w in report.fit_windows.items()},
        "L_hat": report.L_hat,
        "H_inf_hat": report.H_inf_hat,
        "C0_hat": report.C0_hat,
        "a_growth_ok": report.a_growth_ok,
        "status": report.status,
        "notes": list(report.notes),
    }
    return json.dumps(payload, indent=2) + "\n"


def _json_safe(x: float) -> Optional[float]:
    # JSON has no Infinity/NaN literals; margins are finite by construction,
    # this is a belt for degenerate hand-built trajectories.
    return x if math.isfinite(x) else None


def write_report(directory: Union[str, Path], report: VerificationReport) -> Path:
    path = Path(directory) / REPORT_JSON
    path.write_text(report_json_text(report))
    return path

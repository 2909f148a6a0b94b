"""Flat-file serialization of trajectories and reports.

trajectory.csv stores ``t,u,v,phi,chi,rho`` and nothing derived from them.
All floats are written with 17 significant digits, which round-trips IEEE
doubles exactly; reading a trajectory back reproduces the in-memory values
bit for bit.  Output is fully deterministic: identical runs produce identical
bytes.  A table (trajectory.csv, the report's .dat files) formats each
distinct bit pattern of a column once per chunk of rows and reuses the text,
which writes the same bytes as formatting every value.

Each JSON block that mirrors a type is that type's fields, in declaration
order: ``initial`` (InitialData), ``admissibility`` (AdmissibilityReport),
``integrator`` (IntegratorConfig) and ``stats`` (IntegrationStats) in
meta.json, the entries of events.json (Event), and ``fit_details``
(DecayFit) and ``fit_windows`` (FitWindow) in report.json.  The reader
rebuilds meta.json's blocks through the same types, so a missing or unknown
key is an error and the types' own checks validate the values; meta.json
must hold an object and events.json an array of objects; ``params``
holds exactly lambda and mass, every count is a JSON integer, and
``n_samples`` and ``guard_tripped`` must agree with the other two files.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .diagnostics import TOL, VerificationReport
from .initial import InitialData, validate_theorem1
from .integrator import (STATE_COLUMNS, Event, IntegrationStats,
                         IntegratorConfig, Trajectory, sample_times, valid_states)
from .model import ModelParams

TRAJECTORY_CSV = "trajectory.csv"
EVENTS_JSON = "events.json"
META_JSON = "meta.json"
REPORT_JSON = "report.json"
_CSV_HEADER = ",".join(("t",) + STATE_COLUMNS)


class CorruptTrajectory(ValueError):
    """A trajectory directory is missing files or fails to parse."""


#: The one spelling of a float in every table and config the package writes.
_FLOAT = "%.17g"


def fmt(x: float) -> str:
    """17-significant-digit decimal form of a double (exact round trip)."""
    return _FLOAT % (x,)


#: Rows per chunk of table_text: bounds the cells held at once.
_CHUNK = 2048


def table_text(header: str, columns: Sequence[np.ndarray], sep: str = ",") -> str:
    """``header`` line, then one line per row of the equal-length float ``columns``.

    Column by column, in chunks of _CHUNK rows, each distinct value (bit
    pattern, so -0.0 and 0.0 stay apart) is formatted once and its text
    shared by the rows that hold it: the bytes of formatting every value.
    """
    lines = [header]
    n = len(columns[0]) if columns else 0
    for start in range(0, n, _CHUNK):
        cells = []
        for column in columns:
            chunk = np.ascontiguousarray(column[start:start + _CHUNK], dtype=np.float64)
            bits, index = np.unique(chunk.view(np.uint64), return_inverse=True)
            text = list(map(_FLOAT.__mod__, bits.view(np.float64).tolist()))
            index = index.tolist()
            cells.append(itemgetter(*index)(text) if len(index) > 1 else (text[index[0]],))
        lines += map(sep.join, zip(*cells))
    return "\n".join(lines) + "\n"


def trajectory_csv_text(traj: Trajectory) -> str:
    return table_text(_CSV_HEADER, [traj.t, *traj.states.T])


def events_json_text(traj: Trajectory) -> str:
    return json.dumps([asdict(e) for e in traj.events], indent=2) + "\n"


def meta_json_text(traj: Trajectory, version: str) -> str:
    payload = {
        "package": "rwcosmo",
        "version": version,
        "params": {"lambda": traj.params.lam, "mass": traj.params.mass},
        "initial": asdict(traj.initial),
        "admissibility": asdict(validate_theorem1(traj.params, traj.initial)),
        "integrator": asdict(traj.config),
        "stats": asdict(traj.stats),
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


def _parse_states(text: str, grid: np.ndarray) -> np.ndarray:
    """The (n, 5) states of trajectory.csv text.

    The header is the first line and must be exactly ``t,u,v,phi,chi,rho``;
    every row holds those six numbers.  Empty lines are skipped, and a line
    of only blanks is a malformed row.  The t column must be a prefix of the
    run's sample ``grid``, exactly: the 17-digit writer round-trips it.
    """
    lines = text.splitlines()
    if not lines:
        raise CorruptTrajectory(f"{TRAJECTORY_CSV}: empty file")
    if lines[0] != _CSV_HEADER:
        raise CorruptTrajectory(f"{TRAJECTORY_CSV}: unexpected header {lines[0]!r}")
    rows = lines[1:]
    if not any(rows):
        raise CorruptTrajectory(f"{TRAJECTORY_CSV} holds no samples")
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise CorruptTrajectory(f"{TRAJECTORY_CSV}: {exc}") from exc
    if table.shape[1] != 1 + len(STATE_COLUMNS):
        raise CorruptTrajectory(f"{TRAJECTORY_CSV}: rows hold {table.shape[1]} values")
    t, states = table[:, 0], table[:, 1:]
    bad = ~valid_states(states)
    if bad.any():
        raise CorruptTrajectory(f"{TRAJECTORY_CSV}: data row {int(np.argmax(bad)) + 1} is "
                                "not a state (finite, v > 0, rho >= 0)")
    off = np.flatnonzero(t[:grid.size] != grid[:t.size])
    if off.size or t.size > grid.size:
        k = int(off[0]) if off.size else grid.size
        raise CorruptTrajectory(f"{TRAJECTORY_CSV}: data row {k + 1} (t = {float(t[k])!r}) "
                                f"is off the sample grid of {META_JSON}'s integrator block")
    return states


@contextmanager
def _parsing(name: str) -> Iterator[None]:
    try:
        yield
    except KeyError as exc:
        raise CorruptTrajectory(f"invalid {name}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CorruptTrajectory(f"invalid {name}: {exc}") from exc


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

    with _parsing(META_JSON):
        _expect(meta, dict, "the file")
        raw_params = dict(_block(meta, "params"))
        params = ModelParams(lam=raw_params.pop("lambda"), mass=raw_params.pop("mass"))
        if raw_params:
            raise ValueError(f"unknown params key(s): {', '.join(sorted(raw_params))}")
        initial = InitialData(**_block(meta, "initial"))
        config = IntegratorConfig(**_block(meta, "integrator"))
        stats = IntegrationStats(**{k: _count(k, v) for k, v in _block(meta, "stats").items()})
        n_samples = _count("n_samples", meta["n_samples"])
        guard_tripped = meta["guard_tripped"]

    states = _parse_states(csv_text, sample_times(config))

    with _parsing(EVENTS_JSON):
        entries = [_expect(e, dict, f"entry {i}")
                   for i, e in enumerate(_expect(events_raw, list, "the file"), start=1)]
        events = tuple(Event(t=float(e["t"]), kind=str(e["kind"]),
                             detail=str(e.get("detail", ""))) for e in entries)

    traj = Trajectory(params=params, initial=initial, config=config,
                      states=states, events=events, stats=stats)
    if n_samples != len(states):
        raise CorruptTrajectory(f"invalid {META_JSON}: n_samples = {n_samples}, but "
                                f"{TRAJECTORY_CSV} holds {len(states)} samples")
    if guard_tripped is not traj.guard_tripped:
        raise CorruptTrajectory(f"invalid {META_JSON}: guard_tripped = "
                                f"{json.dumps(guard_tripped)} disagrees with {EVENTS_JSON}")
    return traj


def _expect(value: object, kind: type, name: str):
    """``value``, which JSON must have given as an object (dict) or an array (list)."""
    if type(value) is not kind:
        raise ValueError(f"{name} must be {'an object' if kind is dict else 'an array'}, "
                         f"got {json.dumps(value)}")
    return value


def _block(meta: dict, name: str) -> dict:
    """A block of meta.json: a JSON object."""
    return _expect(meta[name], dict, name)


def _count(name: str, value: object) -> int:
    """A count read from JSON: an integer, never a float or a boolean."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {json.dumps(value)}")
    return value


def report_json_text(report: VerificationReport) -> str:
    payload = {
        "nu": report.nu,
        "tolerances": asdict(TOL),
        "checks": [{"name": c.name, "pass": c.passed, "margin": _json_safe(c.margin),
                    "detail": c.detail} for c in report.checks],
        "fitted_rates": {k: (v.rate if v is not None else None)
                         for k, v in report.fitted_rates.items()},
        "fit_details": {k: (v._asdict() if v is not None else None)
                        for k, v in report.fitted_rates.items()},
        "fit_windows": {k: (asdict(w) if w is not None else None)
                        for k, w in report.fit_windows.items()},
        "L_hat": report.L_hat,
        "H_inf_hat": report.H_inf_hat,
        "C0_hat": report.C0_hat,
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

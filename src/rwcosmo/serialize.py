"""Flat-file serialization of trajectories and reports.

trajectory.csv stores ``t,u,v,phi,chi`` and nothing derived from them.
All floats are written with 17 significant digits, which round-trips IEEE
doubles exactly; reading a trajectory back reproduces the in-memory values
bit for bit.  Output is fully deterministic: identical runs produce identical
bytes.  A table (trajectory.csv, the report's .dat files) streams to its
file a block of 2,048 rows at a time, each block one ``%`` over its rows'
template, in which a column constant over the block (by bit pattern) stands
as its text: the bytes of formatting every value.  read_trajectory parses
trajectory.csv from the open file; neither side holds the whole text.

A run is two files: trajectory.csv and meta.json, which holds every other
fact of the run, its events included.  Each JSON block that mirrors a type is
that type's fields, in declaration order: ``initial`` (InitialData),
``admissibility`` (AdmissibilityReport), ``integrator`` (IntegratorConfig),
``stats`` (IntegrationStats) and the entries of ``events`` (Event) in
meta.json, and the entries of ``fits`` (DecayFit) in report.json.  The reader
rebuilds the run from meta.json's blocks through those types (``params``
through ModelParams), whose own checks name a bad value, and ``version`` must
be a string.  The file must then equal, as JSON and type for type, the
meta.json written for that run under that version: one rule that covers
``admissibility``, ``n_samples`` against the rows, ``package`` and any key
the writer does not write.
"""

from __future__ import annotations

import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, TextIO, TypeVar, Union

import numpy as np

from .diagnostics import TOL, VerificationReport
from .initial import InitialData, validate_theorem1
from .integrator import (STATE_COLUMNS, Event, IntegrationStats,
                         IntegratorConfig, Trajectory, sample_times, valid_states)
from .model import ModelParams

TRAJECTORY_CSV = "trajectory.csv"
META_JSON = "meta.json"
REPORT_JSON = "report.json"
_CSV_HEADER = ",".join(("t",) + STATE_COLUMNS)
_T = TypeVar("_T")


class CorruptTrajectory(ValueError):
    """A trajectory directory is missing files or fails to parse."""


#: The one spelling of a float in every table and config the package writes.
_FLOAT = "%.17g"


def fmt(x: float) -> str:
    """17-significant-digit decimal form of a double (exact round trip)."""
    return _FLOAT % (x,)


#: Rows per block of a table: bounds the text and the cells held at once.
_BLOCK = 2048


def _table_blocks(header: str, columns: Sequence[np.ndarray], sep: str) -> Iterator[str]:
    """The ``header`` line, then the text of each block of _BLOCK rows of
    the equal-length float ``columns``, one line per row.

    A block is one ``%`` over its rows' template.  A column whose values in
    the block share one bit pattern (so -0.0 and 0.0 stay apart) enters the
    template as its text, every other cell as ``%.17g``: the bytes of
    formatting every value.
    """
    yield header + "\n"
    n = len(columns[0]) if columns else 0
    for start in range(0, n, _BLOCK):
        block = np.column_stack([column[start:start + _BLOCK] for column in columns])
        bits = block.view(np.uint64)
        constant = (bits == bits[0]).all(axis=0)
        row = sep.join(fmt(x) if same else _FLOAT
                       for x, same in zip(block[0].tolist(), constant.tolist()))
        yield (row + "\n") * len(block) % tuple(block[:, ~constant].ravel().tolist())


def write_table(path: Path, header: str, columns: Sequence[np.ndarray], sep: str = ",") -> None:
    """Write the ``header`` line, then one ``sep``-separated line per row of
    the equal-length float ``columns``, to ``path`` a block at a time."""
    with open(path, "w") as f:
        f.writelines(_table_blocks(header, columns, sep))


def meta_json_text(traj: Trajectory, version: str) -> str:
    payload = {
        "package": "rwcosmo",
        "version": version,
        "params": {"lambda": traj.params.lam, "mass": traj.params.mass},
        "initial": asdict(traj.initial),
        "admissibility": asdict(validate_theorem1(traj.params, traj.initial)),
        "integrator": asdict(traj.config),
        "stats": asdict(traj.stats),
        "events": [asdict(e) for e in traj.events],
        "n_samples": len(traj.t),
    }
    return json.dumps(payload, indent=2) + "\n"


def write_trajectory(directory: Union[str, Path], traj: Trajectory, version: str,
                     overwrite: bool = False) -> list[Path]:
    """Write trajectory.csv and meta.json.

    Refuses to clobber existing files unless ``overwrite`` is set.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / name for name in (TRAJECTORY_CSV, META_JSON)]
    if not overwrite:
        existing = [path.name for path in paths if path.exists()]
        if existing:
            raise FileExistsError(
                f"refusing to overwrite {', '.join(existing)} in {directory}; "
                "set overwrite")
    write_table(paths[0], _CSV_HEADER, [traj.t, *traj.states.T])
    paths[1].write_text(meta_json_text(traj, version))
    return paths


def _parse_states(csv: TextIO, grid: np.ndarray) -> np.ndarray:
    """The (n, 4) states of the open trajectory.csv ``csv``.

    The header is the first line and must be exactly ``t,u,v,phi,chi``;
    every row holds those five numbers.  Empty lines are skipped, and a line
    of only blanks is a malformed row.  The t column must be a prefix of the
    run's sample ``grid``, exactly: the 17-digit writer round-trips it.
    """
    line = csv.readline()
    if not line:
        raise CorruptTrajectory(f"{TRAJECTORY_CSV}: empty file")
    header = line.rstrip("\n")
    if header != _CSV_HEADER:
        raise CorruptTrajectory(f"{TRAJECTORY_CSV}: unexpected header {header!r}")
    try:
        with warnings.catch_warnings():
            # Only empty lines after the header: no samples, named below.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(csv, delimiter=",", comments=None, ndmin=2)
    except UnicodeDecodeError:
        raise  # also a ValueError: _read names the file
    except ValueError as exc:
        raise CorruptTrajectory(f"{TRAJECTORY_CSV}: {exc}") from exc
    if not table.size:
        raise CorruptTrajectory(f"{TRAJECTORY_CSV} holds no samples")
    if table.shape[1] != 1 + len(STATE_COLUMNS):
        raise CorruptTrajectory(f"{TRAJECTORY_CSV}: rows hold {table.shape[1]} values")
    t, states = table[:, 0], table[:, 1:]
    bad = ~valid_states(states)
    if bad.any():
        raise CorruptTrajectory(f"{TRAJECTORY_CSV}: data row {int(np.argmax(bad)) + 1} is "
                                "not a state (finite, v > 0)")
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


def _read(path: Path, parse: Callable[[TextIO], _T]) -> _T:
    """``parse`` of the file at ``path``, opened as UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as f:
            return parse(f)
    except FileNotFoundError as exc:
        raise CorruptTrajectory(f"missing file: {exc.filename}") from exc
    except UnicodeDecodeError as exc:
        raise CorruptTrajectory(f"invalid {path.name}: not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise CorruptTrajectory(f"invalid JSON in {path.parent}: {exc}") from exc


def read_trajectory(directory: Union[str, Path]) -> Trajectory:
    """Rebuild a Trajectory from a directory written by write_trajectory."""
    directory = Path(directory)
    meta = _read(directory / META_JSON, json.load)

    with _parsing(META_JSON):
        _expect(meta, dict, "the file")
        p = _block(meta, "params")
        params = ModelParams(lam=p["lambda"], mass=p["mass"])
        initial = InitialData(**_block(meta, "initial"))
        config = IntegratorConfig(**_block(meta, "integrator"))
        stats = IntegrationStats(**_block(meta, "stats"))
        events = tuple(Event(**_expect(e, dict, f"event {i}"))
                       for i, e in enumerate(_expect(meta["events"], list, "events"), start=1))
        version = _expect(meta["version"], str, "version")

    grid = sample_times(config)
    states = _read(directory / TRAJECTORY_CSV, lambda csv: _parse_states(csv, grid))
    with _parsing(META_JSON):
        traj = Trajectory(params=params, initial=initial, config=config,
                          states=states, events=events, stats=stats)
        written = json.loads(meta_json_text(traj, version))
        # Type for type, key by key: 1 is neither 1.0 nor true.
        for key in [*written, *(k for k in meta if k not in written)]:
            found = json.dumps(meta[key], sort_keys=True)
            expected = json.dumps(written[key], sort_keys=True) if key in written else None
            if found != expected:
                raise ValueError(f"{key} is {found}, where the run it describes has "
                                 f"{expected or 'no ' + key}")
    return traj


def _expect(value: object, kind: type, name: str):
    """``value``, which JSON must have given as a ``kind``: dict, list or str."""
    if type(value) is not kind:
        what = {dict: "an object", list: "an array", str: "a string"}[kind]
        raise ValueError(f"{name} must be {what}, got {json.dumps(value)}")
    return value


def _block(meta: dict, name: str) -> dict:
    """A block of meta.json: a JSON object."""
    return _expect(meta[name], dict, name)


def report_json_text(report: VerificationReport) -> str:
    payload = {
        "nu": report.nu,
        "tolerances": asdict(TOL),
        "checks": [{"name": c.name, "pass": c.passed, "margin": _json_safe(c.margin),
                    "detail": c.detail} for c in report.checks],
        "fits": {k: (fit._asdict() if fit is not None else None)
                 for k, fit in report.fits.items()},
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

"""Flat-file serialization of trajectories and reports.

trajectory.csv stores ``t,u,v,phi,chi`` and nothing derived from them.
All floats are written with 17 significant digits, which round-trips IEEE
doubles exactly.  Output is fully deterministic: identical runs produce
identical bytes.  A table (trajectory.csv, the report's .dat files) streams
to its file a block of 2,048 rows at a time, each block one ``%`` over its
rows' template, in which a column constant over the block (by bit pattern)
stands as its text: the bytes of formatting every value.

A run is two files: trajectory.csv and meta.json, which holds every other
fact of the run: its events, the StepRecord of its steps (``steps``) and
the sha256 of trajectory.csv (``trajectory_sha256``), which write_trajectory
takes of the blocks as it writes them.  Each JSON block that mirrors a type
is that type's fields, in declaration order: ``initial`` (InitialData),
``admissibility`` (AdmissibilityReport), ``integrator`` (IntegratorConfig),
``stats`` (IntegrationStats) and the entries of ``events`` (Event) in
meta.json, and the entries of ``fits`` (DecayFit) in report.json; ``steps``
is StepRecord.to_json, one flat array per entry field.  The reader rebuilds
the run from meta.json's blocks through those types (``params`` through
ModelParams, ``steps`` through StepRecord.from_json), whose own checks name
a bad value, and ``version`` must be a string; the states come from the
step record through resample, integrate's own sampler, bit for bit.
trajectory.csv is not parsed: its sha256 must be the recorded one, so any
edit of its bytes is refused.  The file must then equal, as JSON and type
for type, the meta.json written for that run under that version: one rule
that covers ``admissibility``, ``n_samples``, ``package`` and any key the
writer does not write.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .diagnostics import TOL, VerificationReport
from .initial import InitialData, validate_theorem1
from .integrator import (STATE_COLUMNS, Event, IntegrationStats, IntegratorConfig,
                         StepRecord, Trajectory, resample)
from .model import ModelParams

TRAJECTORY_CSV = "trajectory.csv"
META_JSON = "meta.json"
REPORT_JSON = "report.json"
_CSV_HEADER = ",".join(("t",) + STATE_COLUMNS)


class CorruptTrajectory(ValueError):
    """A trajectory directory is missing files, fails to parse, or holds a
    trajectory.csv other than the one written."""


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


def write_table(path: Path, header: str, columns: Sequence[np.ndarray], sep: str = ",",
                digest=None) -> None:
    """Write the ``header`` line, then one ``sep``-separated line per row of
    the equal-length float ``columns``, to ``path`` a block at a time; each
    block also goes to ``digest.update`` when a hashlib ``digest`` is given."""
    with open(path, "wb") as f:
        for block in _table_blocks(header, columns, sep):
            data = block.encode()
            f.write(data)
            if digest is not None:
                digest.update(data)


def _meta_payload(traj: Trajectory, version: str, trajectory_sha256: str) -> dict:
    """meta.json's keys but ``steps``, in order."""
    return {
        "package": "rwcosmo",
        "version": version,
        "params": {"lambda": traj.params.lam, "mass": traj.params.mass},
        "initial": asdict(traj.initial),
        "admissibility": asdict(validate_theorem1(traj.params, traj.initial)),
        "integrator": asdict(traj.config),
        "stats": asdict(traj.stats),
        "events": [asdict(e) for e in traj.events],
        "n_samples": len(traj.t),
        "trajectory_sha256": trajectory_sha256,
    }


def meta_json_text(traj: Trajectory, version: str, trajectory_sha256: str) -> str:
    """The meta.json of ``traj`` (which must hold its StepRecord), whose
    trajectory.csv has that sha256: indented JSON whose last block,
    ``steps``, holds one compact array per line."""
    steps = ",\n".join(f"    {json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
                        for key, value in traj.steps.to_json().items())
    text = json.dumps(_meta_payload(traj, version, trajectory_sha256), indent=2)
    return text[:-len("\n}")] + f',\n  "steps": {{\n{steps}\n  }}\n}}\n'


def write_trajectory(directory: Union[str, Path], traj: Trajectory, version: str,
                     overwrite: bool = False) -> list[Path]:
    """Write trajectory.csv and meta.json.

    Refuses to clobber existing files unless ``overwrite`` is set, and a
    ``traj`` without a StepRecord (read_trajectory could not rebuild it).
    """
    if traj.steps is None:
        raise ValueError("the run holds no step record, from which read_trajectory "
                         "rebuilds its states: write a run that integrate returned")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / name for name in (TRAJECTORY_CSV, META_JSON)]
    if not overwrite:
        existing = [path.name for path in paths if path.exists()]
        if existing:
            raise FileExistsError(
                f"refusing to overwrite {', '.join(existing)} in {directory}; "
                "set overwrite")
    import hashlib  # here, not at the top: only a run written or read takes a digest
    digest = hashlib.sha256()
    write_table(paths[0], _CSV_HEADER, [traj.t, *traj.states.T], digest=digest)
    paths[1].write_text(meta_json_text(traj, version, digest.hexdigest()))
    return paths


@contextmanager
def _parsing(name: str) -> Iterator[None]:
    try:
        yield
    except KeyError as exc:
        raise CorruptTrajectory(f"invalid {name}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CorruptTrajectory(f"invalid {name}: {exc}") from exc


def _read_meta(path: Path) -> object:
    """The JSON value of the meta.json at ``path``, read as UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError as exc:
        raise CorruptTrajectory(f"missing file: {exc.filename}") from exc
    except UnicodeDecodeError as exc:
        raise CorruptTrajectory(f"invalid {path.name}: not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise CorruptTrajectory(f"invalid JSON in {path.parent}: {exc}") from exc


def _sha256(path: Path) -> str:
    """The sha256 of the file at ``path``, read 64 KiB at a time."""
    import hashlib  # here, not at the top: only a run written or read takes a digest
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 16), b""):
                digest.update(chunk)
    except FileNotFoundError as exc:
        raise CorruptTrajectory(f"missing file: {exc.filename}") from exc
    return digest.hexdigest()


def read_trajectory(directory: Union[str, Path]) -> Trajectory:
    """Rebuild a Trajectory from a directory written by write_trajectory.

    The run comes from meta.json alone, its states from its StepRecord
    through resample.  trajectory.csv is not parsed: its sha256 must equal
    meta.json's ``trajectory_sha256``, else CorruptTrajectory names the file.
    """
    directory = Path(directory)
    meta = _read_meta(directory / META_JSON)

    with _parsing(META_JSON):
        _expect(meta, dict, "the file")
        missing = [key for key in ("trajectory_sha256", "steps") if key not in meta]
        if missing:
            raise ValueError(f"no {' and no '.join(missing)}: the run was written before "
                             "meta.json held its steps; simulate it again")
        p = _block(meta, "params")
        params = ModelParams(lam=p["lambda"], mass=p["mass"])
        initial = InitialData(**_block(meta, "initial"))
        config = IntegratorConfig(**_block(meta, "integrator"))
        stats = IntegrationStats(**_block(meta, "stats"))
        events = tuple(Event(**_expect(e, dict, f"event {i}"))
                       for i, e in enumerate(_expect(meta["events"], list, "events"), start=1))
        steps = StepRecord.from_json(_block(meta, "steps"))
        version = _expect(meta["version"], str, "version")
        recorded = _expect(meta["trajectory_sha256"], str, "trajectory_sha256")

    csv_sha256 = _sha256(directory / TRAJECTORY_CSV)
    if csv_sha256 != recorded:
        raise CorruptTrajectory(f"{TRAJECTORY_CSV}: sha256 {csv_sha256} is not meta.json's "
                                f"trajectory_sha256 {recorded}: the file was edited")
    with _parsing(META_JSON):
        traj = Trajectory(params=params, initial=initial, config=config,
                          states=resample(initial, params, config, steps), events=events,
                          stats=stats, steps=steps)
        # StepRecord.from_json took ``steps`` as to_json writes it, float for float.
        written = _meta_payload(traj, version, recorded)
        # Type for type, key by key: 1 is neither 1.0 nor true.
        for key in [*written, *(k for k in meta if k not in written and k != "steps")]:
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

"""Flat-file serialization of trajectories and reports.

trajectory.csv stores ``t,u,v,phi,chi`` and nothing derived from them.
All floats are written with 17 significant digits, which round-trips IEEE
doubles exactly.  Output is fully deterministic: identical runs produce
identical bytes.  A table (trajectory.csv, the report's .dat files) streams
to its file a block of 1,024 rows at a time.  A column constant over the
block (by bit pattern) is its fmt text in every row.  The block's other
cells go through one numpy pass: N = round(|x|*10**(16-k)), the 17 digits,
from Dekker's exact TwoProduct of |x| with a double-double power of ten (k
from log10, an estimate only); N's ASCII digits by multiply-shift in uint64
lanes; and the ``%g`` layout (fixed notation for -4 <= k < 17, else
d.ddde+XX; trailing zeros and a bare point dropped) as NUL-padded words
that bytes.translate compacts.  A cell keeps that text only when its
digits are proven: 1e-270 < |x| < 1e270, the product's head at least 32
inside [1e16, 1e17] and its fraction at least 1e-9 from a rounding tie.
+-0 are laid out directly and every other cell is fmt's own text, so each
cell's bytes are ``'%.17g' % x`` whatever loops numpy picks for the CPU.

A run is two files: trajectory.csv and meta.json, which holds every other
fact of the run: its inputs, its events and the sha256 of trajectory.csv
(``trajectory_sha256``), which write_trajectory takes of the blocks as it
writes them.  Each JSON block that mirrors a type is that type's fields, in
declaration order: ``initial`` (InitialData), ``admissibility``
(AdmissibilityReport), ``integrator`` (IntegratorConfig), ``stats``
(IntegrationStats) and the entries of ``events`` (Event) in meta.json, and
the entries of ``fits`` (DecayFit) in report.json.  A run is its inputs:
the reader builds ``params``, ``initial`` and ``integrator`` through their
types (ModelParams, InitialData, IntegratorConfig), whose own checks name a
bad value, and integrates them again, bit for bit the run written.
``version`` must be a string.  trajectory.csv is not parsed: its sha256
must be the recorded one, so any edit of its bytes is refused.  The file
must then equal, as JSON and type for type, the meta.json written for that
run under that version: one rule that covers ``admissibility``, ``stats``,
``events``, ``n_samples``, ``package`` and any key the writer does not
write.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict
from functools import cache
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .diagnostics import TOL, VerificationReport
from .initial import InitialData, validate_theorem1
from .integrator import STATE_COLUMNS, IntegratorConfig, Trajectory, integrate
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


#: Rows per block of a table.  A block's slots, its text and the kernel's
#: temporaries (a few dozen arrays of one word per varying cell) are held
#: at once, so the block size bounds a write's memory: the dense run's
#: write peaks at 1.17 MB with 1,024 rows, at 2.1 MB with 2,048 (tracemalloc).
_BLOCK = 1024

#: The bytes of a cell's slot: 4 little-endian words that hold its text
#: (at most 24 characters), NULs, and the byte after it (sep or newline).
_SLOT = 32
_ASCII_ZEROS = 0x3030303030303030
_SPLITTER = 134217729.0  # 2**27 + 1: Dekker's split of a double into 26-bit halves
#: The exponents k = floor(log10|x|) the kernel takes, from _K_MIN: those of
#: 1e-270 < |x| < 1e270, on which no product of its TwoProduct under- or
#: overflows.
_K_MIN, _K_COUNT = -270, 540


def _word(text: str) -> int:
    """The little-endian word of up to 8 ASCII characters."""
    return int.from_bytes(text.encode(), "little")


def _halves(bits: int) -> tuple[int, int]:
    """The low and high words of a 128-bit int: two slot words as one."""
    return bits & 0xFFFFFFFFFFFFFFFF, bits >> 64


@cache
def _kernel_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's tables, built on its first use.

    ``pow10``: rows hi, lo and hi's Dekker halves of the double-double
    10**(16-k) for each k from _K_MIN, hi + lo within 2**-106 relative, by
    int arithmetic (an int/int division rounds correctly).  ``by_k``: rows
    the sign word's prefix ("0.", "0.0", ... of fixed notation at k < 0,
    byte 0 left for the sign), the last word's "e+XX" (exponent notation,
    bytes 1 to 5), and the digits before the point (k + 1, 0 at k < 0, 1
    in exponent notation).  ``layout``, by before*18 + s, s significant
    digits: the two digit words' masks before the point and after it (up
    to the last digit kept: trailing zeros of a fraction go) and their
    point bytes.
    """
    hi, lo = [], []
    for k in range(_K_MIN, _K_MIN + _K_COUNT):
        if k <= 16:
            exact = 10 ** (16 - k)
            hi.append(float(exact))
            lo.append(float(exact - int(hi[-1])))
        else:
            den = 10 ** (k - 16)
            hi.append(1 / den)
            num, two = hi[-1].as_integer_ratio()
            lo.append((two - num * den) / (den * two))
    hi = np.array(hi)
    scaled = hi * _SPLITTER
    head = scaled - (scaled - hi)
    pow10 = np.stack([hi, lo, head, hi - head])
    ks = range(_K_MIN, _K_MIN + _K_COUNT)
    by_k = np.array([[_word("\0" + "0." + "0" * (-k - 1)) if -4 <= k < 0 else 0 for k in ks],
                     [0 if -4 <= k < 17 else _word("\0e%+03d" % k) for k in ks],
                     [max(k + 1, 0) if -4 <= k < 17 else 1 for k in ks]], dtype=np.uint64)
    layout = np.zeros((6, 18 * 18), dtype=np.uint64)
    for before in range(18):
        for s in range(1, 18):
            # Of the 16 digits after the first: those kept, those before the point.
            kept = (1 << 8 * (max(s, before) - 1)) - 1
            point = before - 1 if 0 < before < s else None
            whole = (1 << 8 * point) - 1 if point is not None else kept
            dot = ord(".") << 8 * point if point is not None else 0
            layout[:, before * 18 + s] = [*_halves(kept & whole), *_halves(kept & ~whole),
                                          *_halves(dot)]
    for table in (pow10, by_k, layout):
        table.flags.writeable = False  # shared by every caller
    return pow10, by_k, layout


def _significand(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(proven, k, N) of the magnitudes ``a`` (changed in place): N =
    round(a*10**(16-k)), the 17 digits of ``%.17g``, and k its exponent,
    where ``proven``; elsewhere N = 0 and k = 0, the digits of 0.

    k comes from log10, an estimate only: a times the double-double
    10**(16-k), by Dekker's exact TwoProduct, is head + tail within 1e-13.
    N is proven when a is in (1e-270, 1e270), the head at least 32 inside
    [1e16, 1e17] (so k was right and N has 17 digits) and the tail's
    fraction at least 1e-9 from a tie.
    """
    proven = (a > 1e-270) & (a < 1e270)
    np.copyto(a, 1.0, where=~proven)
    k = np.log10(a)
    np.floor(k, out=k)
    # Into the table, so that k names the power a is scaled by, which the
    # head then proves or refutes: log10 of a just below 1e270 can read 270.
    np.clip(k, _K_MIN, _K_MIN + _K_COUNT - 1, out=k)
    k = k.astype(np.int64)
    p_hi, p_lo, b_hi, b_lo = _kernel_tables()[0].take(k - _K_MIN, axis=1)
    scaled = a * _SPLITTER
    a_hi = scaled - (scaled - a)
    a_lo = a - a_hi
    head = a * p_hi
    # The exact error of head (Dekker), then a times the power's low part.
    tail = ((a_hi * b_hi - head) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo + a * p_lo
    rounded = np.rint(tail)
    proven &= np.abs(np.abs(tail - rounded) - 0.5) >= 1e-9
    proven &= (head >= 1e16 + 32) & (head <= 1e17 - 32)
    unproven = ~proven
    head[unproven] = 0.0
    rounded[unproven] = 0.0
    k[unproven] = 0
    n = head.astype(np.uint64)
    n += rounded.astype(np.int64).view(np.uint64)
    return proven, k, n


def _ascii_digits(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, words) of the integers ``n`` below 1e17 (changed in place):
    the first of 17 digits, and the (2, len(n)) words of the next 8 and the
    last 8 as byte values 0 to 9, the first in the low byte.  Multiply-shift
    in uint64 lanes splits 8 digits as 4 + 4, 2 + 2 and 1 + 1."""
    first = n // 10 ** 16
    n -= first * 10 ** 16
    words = np.empty((2, len(n)), dtype=np.uint64)
    np.floor_divide(n, 10 ** 8, out=words[0])
    np.subtract(n, words[0] * 10 ** 8, out=words[1])
    top = (words * 109951163) >> 40  # // 10**4, exact below 10**8
    words -= top * 10000
    words <<= 32
    words |= top
    top = ((words * 10486) >> 20) & 0x0000007F0000007F  # // 100 in each 32-bit lane
    words -= top * 100
    words <<= 16
    words |= top
    top = ((words * 103) >> 10) & 0x000F000F000F000F  # // 10 in each 16-bit lane
    words -= top * 10
    words <<= 8
    words |= top
    return first, words


def _significant(digits: np.ndarray) -> np.ndarray:
    """The significant digits of 17-digit numbers, of their last 16 as the
    (2, n) byte-value words ``digits``: 1 + the bytes up to the last
    nonzero."""
    nonzero = (digits + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080
    nonzero |= nonzero >> 8
    nonzero |= nonzero >> 16
    nonzero |= nonzero >> 32
    # The flags' sum, in the top byte: at most 8, so no carry crosses a byte.
    count = ((nonzero >> 7) * 0x0101010101010101) >> 56
    return np.where(count[1] > 0, count[1] + 9, count[0] + 1)


def _cell_slots(values: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The (rows, cols, 4) slots of the float ``values`` (rows, cols): each
    cell's ``%.17g`` text, then its column's end byte, byte 7 of ``ends``.

    A slot's words: the sign, fixed notation's "0.000" at k < 0 and the
    first digit in byte 7; the next 8 digits, then the last 8, each with
    the point inserted where it falls (the byte it pushes out carried to
    the next word); and the carried byte, "e+XX" and the end byte.  The
    layout masks keep the digits before the point and the fraction's up to
    its last nonzero.  A cell the kernel did not prove is fmt's text, but
    +-0, which it lays out as such.
    """
    _, by_k, layout = _kernel_tables()
    x = values.ravel()
    with np.errstate(all="ignore"):
        proven, k, n = _significand(np.abs(x))
    prefix, exponent, before = by_k.take(k - _K_MIN, axis=1)
    first, digits = _ascii_digits(n)
    whole1, whole2, frac1, frac2, dot1, dot2 = layout.take(
        before * 18 + _significant(digits), axis=1)
    digits |= _ASCII_ZEROS
    word1, word2 = digits
    frac1 &= word1
    frac2 &= word2
    slots = np.empty((*values.shape, 4), dtype="<u8")
    flat = slots.reshape(-1, 4)
    first += 0x30
    first <<= 56
    flat[:, 0] = first | prefix | np.signbit(x) * np.uint64(ord("-"))
    flat[:, 1] = (word1 & whole1) | dot1 | (frac1 << 8)
    flat[:, 2] = (word2 & whole2) | dot2 | (frac2 << 8) | (frac1 >> 56)
    flat[:, 3] = (frac2 >> 56) | exponent
    slots[..., 3] |= ends
    fallback = np.flatnonzero(~proven & (x != 0))
    if fallback.size:
        flat[fallback] = _fallback_slots(x[fallback], flat[fallback, 3])
    return slots


def _text_slot(text: str, end: int) -> np.ndarray:
    """The slot of ``text``, then the byte 7 of the word ``end``."""
    return np.frombuffer(text.encode().ljust(_SLOT - 1, b"\0") + bytes([end >> 56]),
                         dtype="<u8")


def _fallback_slots(values: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The slots of the cells the kernel did not prove: fmt of each value."""
    return np.array([_text_slot(fmt(x), end) for x, end in zip(values.tolist(), ends.tolist())])


def _table_blocks(header: str, columns: Sequence[np.ndarray], sep: str) -> Iterator[bytes]:
    """The ``header`` line, then the text of each block of _BLOCK rows of
    the equal-length float ``columns``, one line per row, as UTF-8 bytes.

    A column whose values in the block share one bit pattern (so -0.0 and
    0.0 stay apart) is its fmt text in every row, the others' cells are
    _cell_slots's: each a 32-byte slot with NULs where no text is, which
    bytes.translate deletes.
    """
    yield (header + "\n").encode()
    n = len(columns[0]) if columns else 0
    ends = np.array([ord(sep)] * (len(columns) - 1) + [ord("\n")], dtype=np.uint64) << 56
    for start in range(0, n, _BLOCK):
        block = np.column_stack([column[start:start + _BLOCK] for column in columns])
        bits = block.view(np.uint64)
        constant = (bits == bits[0]).all(axis=0)
        slots = np.empty((len(block), len(columns), 4), dtype="<u8")
        for i in np.flatnonzero(constant).tolist():
            slots[:, i] = _text_slot(fmt(block[0, i]), int(ends[i]))
        if not constant.all():
            slots[:, ~constant] = _cell_slots(block[:, ~constant], ends[~constant])
        yield slots.tobytes().translate(None, b"\0")


def write_table(path: Path, header: str, columns: Sequence[np.ndarray], sep: str = ",",
                digest=None) -> None:
    """Write the ``header`` line, then one ``sep``-separated line per row of
    the equal-length float ``columns``, to ``path`` a block at a time; each
    block also goes to ``digest.update`` when a hashlib ``digest`` is given.
    ``sep`` is one ASCII character."""
    with open(path, "wb") as f:
        for data in _table_blocks(header, columns, sep):
            f.write(data)
            if digest is not None:
                digest.update(data)


def _meta_payload(traj: Trajectory, version: str, trajectory_sha256: str) -> dict:
    """meta.json's keys, in order."""
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
    """The meta.json of ``traj``, whose trajectory.csv has that sha256."""
    return json.dumps(_meta_payload(traj, version, trajectory_sha256), indent=2) + "\n"


def write_trajectory(directory: Union[str, Path], traj: Trajectory, version: str,
                     overwrite: bool = False) -> list[Path]:
    """Write trajectory.csv and meta.json.

    Refuses to clobber existing files unless ``overwrite`` is set.
    read_trajectory gives back integrate's run for the inputs of ``traj``:
    a run built by hand reads back as that run, or not at all when its
    ``stats``, ``events`` or sample count differ from that run's.
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

    The run is integrate's for meta.json's ``params``, ``initial`` and
    ``integrator``.  trajectory.csv is not parsed: its sha256 must equal
    meta.json's ``trajectory_sha256``, else CorruptTrajectory names the file.
    """
    directory = Path(directory)
    meta = _read_meta(directory / META_JSON)

    with _parsing(META_JSON):
        _expect(meta, dict, "the file")
        if "trajectory_sha256" not in meta:
            raise ValueError("no trajectory_sha256: the run was written before meta.json "
                             "held the sha256 of trajectory.csv; simulate it again")
        p = _block(meta, "params")
        params = ModelParams(lam=p["lambda"], mass=p["mass"])
        initial = InitialData(**_block(meta, "initial"))
        config = IntegratorConfig(**_block(meta, "integrator"))
        version = _expect(meta["version"], str, "version")
        recorded = _expect(meta["trajectory_sha256"], str, "trajectory_sha256")

    csv_sha256 = _sha256(directory / TRAJECTORY_CSV)
    if csv_sha256 != recorded:
        raise CorruptTrajectory(f"{TRAJECTORY_CSV}: sha256 {csv_sha256} is not meta.json's "
                                f"trajectory_sha256 {recorded}: the file was edited")
    with _parsing(META_JSON):
        traj = integrate(initial, params, config)
        written = _meta_payload(traj, version, recorded)
        # Type for type, key by key: 1 is neither 1.0 nor true.
        for key, value in written.items():
            found = json.dumps(meta[key], sort_keys=True)
            expected = json.dumps(value, sort_keys=True)
            if found != expected:
                raise ValueError(f"{key} is {found}, where the run it describes has {expected}")
        stray = next((key for key in meta if key not in written), None)
        if stray is not None:
            raise ValueError(f"the file holds {stray}, which the run it describes does not")
    return traj


def _expect(value: object, kind: type, name: str):
    """``value``, which JSON must have given as a ``kind``: dict or str."""
    if type(value) is not kind:
        what = {dict: "an object", str: "a string"}[kind]
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

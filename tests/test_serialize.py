"""The table writer: one text per block of rows, the bytes of one per value;
the trajectory files it writes, and read_trajectory, which rebuilds each run
bit for bit by integrating its inputs again, in bounded memory."""

import contextlib
import hashlib
import math
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rwcosmo import (IntegrationStats, IntegratorConfig, ModelParams, integrate, integrator,
                     make_initial_data, nu_rate)
from rwcosmo.integrator import GUARD_TRIPPED, Trajectory
from rwcosmo.serialize import (_BLOCK, CorruptTrajectory, fmt, meta_json_text, read_trajectory,
                               write_table, write_trajectory)

from conftest import REF_CONFIG, REF_PARAMS, reference_initial


def celled_table_text(header, columns, sep=","):
    """The bytes write_table must write: every cell formatted on its own."""
    lines = [header]
    lines += [sep.join(fmt(x) for x in row) for row in zip(*(c.tolist() for c in columns))]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("table") / "table.dat"


def written(path, header, columns, sep=","):
    """The text write_table writes to ``path``."""
    write_table(path, header, columns, sep=sep)
    return path.read_text()


def assert_same_lines(got, want):
    """``got == want``, compared line by line: a failing == on the whole
    text would have the assertion diff two texts of up to 400 kB."""
    got, want = got.split("\n"), want.split("\n")
    bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert bad is None, f"line {bad}: {got[bad]!r} != {want[bad]!r}"
    assert len(got) == len(want)


#: Signed zeros, nans with other payloads and signs, infinities, the
#: smallest subnormal and normal doubles, the largest double, and values
#: whose 17-digit forms switch between fixed and exponent notation.
SPECIAL_BITS = np.array([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310,
                         2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e-5,
                         1e16, 1e17, 123456789.0], dtype=np.float64).view(np.uint64).tolist()
SPECIAL_BITS += [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                 0x7FF8DEADBEEF0001]


def neighbours(x):
    """The doubles ``x`` and the ones just below and above each."""
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, np.nextafter(x, -math.inf), np.nextafter(x, math.inf)])


#: The table writer's hard cases: powers of ten from 1e-30 to 1e30 and
#: 1e+-270 (the ends of the kernel's range), each signed and with its
#: neighbours, and values just inside those ends, whose log10 rounds to
#: +-270; 17-digit ties, which %.17g rounds half-even: 1 + 2**-17 =
#: 1.00000762939453125 and m / 2**(17 - k) for odd m, k from -8 to 14, that
#: put the tie in [10**k, 10**(k + 1)); and values about the switch from
#: fixed to exponent notation, at k = -5/-4 and 16/17.
HARD_CASES = np.concatenate([
    neighbours([10.0 ** e for e in range(-30, 31)] + [1e270, 1e-270]),
    [1e270 * (1 - 1e-14), 1e270 * (1 - 5e-15), 1e-270 * (1 + 1e-14)],
    [1 + 2**-17] + [(int(u * 10.0**k * 2**(17 - k)) | 1) / 2**(17 - k)
                    for k in range(-8, 15) for u in (1.5, 3.7, 9.1)],
    neighbours([9.99995e-5, 1.2345e-4, 9.87654321e-5, 99999999999999984.0,
                12345678901234568.0, 1.2345678901234568e17, 9.999999999999998e16])])
HARD_CASES = np.concatenate([HARD_CASES, -HARD_CASES])
SPECIAL_BITS += HARD_CASES.view(np.uint64).tolist()

values = st.one_of(st.sampled_from(SPECIAL_BITS),
                   st.floats(allow_nan=False).map(
                       lambda x: int(np.array(x, dtype=np.float64).view(np.uint64))))
lengths = st.one_of(st.sampled_from([0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]),
                    st.integers(0, 40))


@st.composite
def tables(draw):
    """Equal-length columns drawn from a small palette of bit patterns, in
    runs of repeated values, some columns strided views."""
    n = draw(lengths)
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        palette = draw(st.lists(values, min_size=1, max_size=6))
        if draw(st.booleans()):
            palette += [0, 1 << 63]  # 0.0 and -0.0 in one column
        palette = np.array(palette, dtype=np.uint64)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        runs = rng.integers(1, draw(st.sampled_from([2, 50, 4000])), size=n + 1)
        index = np.repeat(rng.integers(0, palette.size, size=runs.size), runs)[:n]
        column = palette[index].view(np.float64)
        if draw(st.booleans()):
            column = np.repeat(column, 2)[::2]
        columns.append(column)
    return columns


@given(columns=tables(), sep=st.sampled_from([",", " "]))
def test_bytes_equal_rowwise_writer(table_path, columns, sep):
    """write_table writes the bytes of formatting each cell for any columns."""
    assert_same_lines(written(table_path, "# header", columns, sep),
                      celled_table_text("# header", columns, sep))


def test_distinct_zeros_and_nans_keep_their_text(table_path):
    """-0.0 and 0.0 share no text; nans of every payload read nan."""
    bits = np.array([0, 1 << 63, 0x7FF8000000000000, 0xFFF8000000000001, 0, 1 << 63],
                    dtype=np.uint64)
    assert written(table_path, "x", [bits.view(np.float64)]) == "x\n0\n-0\nnan\nnan\n0\n-0\n"


#: Row counts about the block size: one row; one block short of a row, one
#: block, one block and a row; the same about two blocks; four blocks and a
#: row.
SIZES = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1,
         4 * _BLOCK + 1]


def edge_columns(n):
    """Columns whose blocks are constant but for their last row, mix -0.0
    with 0.0, are -0.0 or nan throughout, or cycle through nan, +-inf, a
    subnormal and +-1e300, through signed zeros, subnormals and 1e300, or
    through HARD_CASES; and a ramp, a constant and standard normal draws."""
    rows = np.arange(n)
    last_of_block = np.full(n, 0.25)
    last_of_block[_BLOCK - 1::_BLOCK] = last_of_block[-1] = 0.5
    return [rows * 1e-3, last_of_block, np.where(rows % 3 == 0, -0.0, 0.0),
            np.full(n, -0.0), np.full(n, math.nan), np.full(n, 1 / 3),
            np.resize([math.nan, math.inf, -math.inf, 5e-324, 1e300, -1e300], n),
            np.resize([0.0, -0.0, 1e-310, 5e-324, 1.0, 1e300], n),
            np.resize(HARD_CASES, n), np.random.default_rng(n).standard_normal(n)]


@pytest.mark.parametrize("sep", [",", " "])
@pytest.mark.parametrize("n", SIZES)
def test_blocks_write_every_cells_bytes(tmp_path, n, sep):
    """write_table writes the bytes of formatting each cell, on either side
    of each block boundary."""
    columns = edge_columns(n)
    assert_same_lines(written(tmp_path / "table.dat", "# t x", columns, sep),
                      celled_table_text("# t x", columns, sep))


def test_raw_bit_patterns_write_their_bytes(tmp_path):
    """A column of 10**5 seeded raw 64-bit patterns (nans, infinities,
    subnormals, any exponent) is written as fmt writes each cell."""
    columns = [np.random.default_rng(2013).integers(0, 2**64, 10**5, dtype=np.uint64)
               .view(np.float64)]
    assert_same_lines(written(tmp_path / "table.dat", "x", columns),
                      celled_table_text("x", columns))


@pytest.mark.parametrize("n", SIZES)
def test_cells_parse_back_bit_exactly(tmp_path, n):
    """Each cell write_table writes parses back to its double bit for bit:
    signed zeros, subnormals, +-inf, 1e300 and random doubles; a nan cell
    reads nan."""
    columns = edge_columns(n)
    lines = written(tmp_path / "table.dat", "# t x", columns).splitlines()[1:]
    back = np.array([[float(cell) for cell in line.split(",")] for line in lines])
    want = np.column_stack(columns)
    assert np.array_equal(np.isnan(back), np.isnan(want))
    number = ~np.isnan(want)
    assert (back.view(np.uint64)[number] == want.view(np.uint64)[number]).all()


def rebuilt(tmp, traj):
    """Write ``traj`` into ``tmp``, read it back and check the rebuild: the
    run's states, events and stats, bit for bit, and the same two files
    when the read run is written again.  Returns the rebuilt run."""
    tmp = Path(tmp)
    write_trajectory(tmp / "a", traj, "test")
    back = read_trajectory(tmp / "a")
    assert back.states.tobytes() == traj.states.tobytes()
    assert back.t.tobytes() == traj.t.tobytes()
    assert (back.events, back.stats) == (traj.events, traj.stats)
    write_trajectory(tmp / "b", back, "test")
    for name in ("trajectory.csv", "meta.json"):
        assert (tmp / "b" / name).read_bytes() == (tmp / "a" / name).read_bytes(), name
    return back


@pytest.mark.parametrize("n", SIZES)
def test_trajectory_round_trips_bit_exactly(tmp_path, n):
    """write_trajectory then read_trajectory gives back every state bit for
    bit, in both modes, on runs of as many samples as about the writer's
    block size."""
    for mode in ("paper", "kg"):
        config = IntegratorConfig(t_end=max(n - 1, 0.5) * 1e-3, sample_dt=1e-3, mode=mode)
        traj = integrate(reference_initial(), REF_PARAMS, config)
        assert traj.t.size == n
        rebuilt(tmp_path / mode, traj)


def test_hand_built_run_reads_back_as_integrated(tmp_path):
    """A run is its inputs.  A Trajectory built by hand is written as it
    is, its own states in trajectory.csv; with integrate's stats, events and
    sample count for its inputs it reads back as integrate's run, and with
    other stats it is refused, naming the block."""
    traj = integrate(reference_initial(), REF_PARAMS, replace(REF_CONFIG, t_end=0.1))
    states = traj.states * 2.0
    by_hand = Trajectory(params=traj.params, initial=traj.initial, config=traj.config,
                         states=states, events=traj.events, stats=traj.stats)
    write_trajectory(tmp_path / "same", by_hand, "test")
    assert (tmp_path / "same" / "trajectory.csv").read_text().splitlines()[1] == \
        ",".join(map(fmt, [0.0, *states[0]]))
    assert read_trajectory(tmp_path / "same").states.tobytes() == traj.states.tobytes()
    write_trajectory(tmp_path / "other", replace(by_hand, stats=IntegrationStats(0, 0, 1)),
                     "test")
    with pytest.raises(CorruptTrajectory, match="^invalid meta.json: stats is "):
        read_trajectory(tmp_path / "other")


def test_run_is_two_files(tmp_path):
    """write_trajectory writes trajectory.csv and meta.json, whose events
    read back equal.  It refuses to overwrite either file, and a stale
    events.json beside them neither stops it nor is read."""
    (tmp_path / "events.json").write_text("stale")
    traj = integrate(reference_initial(), REF_PARAMS, IntegratorConfig(t_end=0.1))
    assert [e.kind for e in traj.events] == ["FieldFrozen"]
    assert write_trajectory(tmp_path, traj, "test") == [tmp_path / "trajectory.csv",
                                                        tmp_path / "meta.json"]
    assert read_trajectory(tmp_path).events == traj.events
    with pytest.raises(FileExistsError, match="overwrite trajectory.csv, meta.json in"):
        write_trajectory(tmp_path, traj, "test")
    (tmp_path / "trajectory.csv").unlink()
    with pytest.raises(FileExistsError, match="overwrite meta.json in"):
        write_trajectory(tmp_path, traj, "test")


@settings(max_examples=40)
@given(lam=st.floats(-5.0, 5.0), mass=st.floats(0.05, 3.0), phi0=st.floats(0.05, 3.0),
       chi0=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
       rho0=st.one_of(st.just(0.0), st.floats(0.0, 2.0)), mode=st.sampled_from(["paper", "kg"]))
def test_meta_is_what_the_read_run_writes(lam, mass, phi0, chi0, rho0, mode):
    """For admissible draws (lambda > -4 pi m^2 phi0^2, phi0 > 0, expanding)
    in both modes, meta_json_text of the run read back equals the meta.json
    written, byte for byte."""
    params = ModelParams(lam=lam, mass=mass)
    assume(nu_rate(params, phi0) is not None)
    data = make_initial_data(params, a0=1.0, phi0=phi0, chi0=chi0, rho0=rho0, branch="expanding")
    traj = integrate(data, params, IntegratorConfig(t_end=0.1, mode=mode))
    with tempfile.TemporaryDirectory() as tmp:
        write_trajectory(tmp, traj, "test")
        csv_sha256 = hashlib.sha256((Path(tmp) / "trajectory.csv").read_bytes()).hexdigest()
        assert meta_json_text(read_trajectory(tmp), "test", csv_sha256).encode() == \
            (Path(tmp) / "meta.json").read_bytes()


@settings(max_examples=60)
@given(lam=st.floats(-5.0, 5.0), mass=st.floats(0.05, 3.0), phi0=st.floats(0.05, 3.0),
       chi0=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
       rho0=st.one_of(st.just(0.0), st.floats(0.0, 2.0)), mode=st.sampled_from(["paper", "kg"]),
       sample_dt=st.sampled_from([0.1, 0.01, 0.001]))
def test_rebuild_is_the_run(lam, mass, phi0, chi0, rho0, mode, sample_dt):
    """For admissible draws in both modes at three sample spacings, the run
    read back has integrate's states bit for bit, and writing it again
    writes the same trajectory.csv and meta.json."""
    params = ModelParams(lam=lam, mass=mass)
    assume(nu_rate(params, phi0) is not None)
    data = make_initial_data(params, a0=1.0, phi0=phi0, chi0=chi0, rho0=rho0, branch="expanding")
    traj = integrate(data, params, IntegratorConfig(t_end=2.0, sample_dt=sample_dt, mode=mode))
    with tempfile.TemporaryDirectory() as tmp:
        rebuilt(tmp, traj)


def reference_run(**edits):
    return integrate(reference_initial(), REF_PARAMS, replace(REF_CONFIG, **edits))


def run_of(lam, mass, phi0, chi0, rho0, **edits):
    params = ModelParams(lam=lam, mass=mass)
    data = make_initial_data(params, 1.0, phi0, chi0, rho0, "expanding")
    return integrate(data, params, replace(REF_CONFIG, **edits))


def tripped(detail):
    return lambda traj: traj.events[-1].kind == GUARD_TRIPPED and \
        traj.events[-1].detail.startswith(detail)


#: Runs at the edges of integrate, each with what shows it took that edge
#: (patches on integrator, whether it runs under ``stepped``, the run, the
#: edge): frozen at t = 0 with no step; stepped through the frozen phase; an
#: exact tail cut at MIN_V (m = 400); a sample trip in a step after the
#: freeze and in the freeze step itself (the quartic's weight _D7 scaled,
#: the crossing pinned); the step budget ending a run in either mode.
NAMED_RUNS = [
    pytest.param({}, False, lambda: run_of(1.0, 1.0, 1.0, 0.0, 0.05),
                 lambda traj: traj.stats.steps_accepted == 0 and traj.t.size == 1001,
                 id="chi0_zero"),
    pytest.param({}, True, reference_run,
                 lambda traj: traj.stats.steps_accepted == 1152, id="stepped"),
    pytest.param({}, False, lambda: run_of(1.0, 400.0, 1.0, 0.1, 0.05, t_end=1.0),
                 tripped("v = 1.71956e-306 fell below 1e-300"), id="min_v_cut"),
    pytest.param(dict(_D7=integrator._D7 * 500.0), True, lambda: reference_run(sample_dt=0.03),
                 tripped("sample at t = 0.12 violated"), id="sample_trip_after_freeze"),
    pytest.param(dict(_D7=integrator._D7 * 1e4, _locate_crossing=lambda *args: 0.9), False,
                 lambda: reference_run(sample_dt=0.0779), tripped("sample at t = 0.0779 violated"),
                 id="sample_trip_in_freeze_step"),
    pytest.param(dict(MAX_STEPS=5), False, reference_run, tripped("MAX_STEPS = 5"),
                 id="max_steps_paper"),
    pytest.param(dict(MAX_STEPS=5), False, lambda: reference_run(mode="kg"),
                 tripped("MAX_STEPS = 5"), id="max_steps_kg"),
]


@pytest.mark.parametrize("patches,step_on,run,took_edge", NAMED_RUNS)
def test_named_run_rebuilds(tmp_path, monkeypatch, stepped, patches, step_on, run, took_edge):
    """Each named run, integrated and read back under its patches, has its
    states bit for bit and writes the same files again
    (test_rebuild_is_the_run's checks)."""
    with monkeypatch.context() as patch:
        for attr, value in patches.items():
            patch.setattr(integrator, attr, value)
        with stepped() if step_on else contextlib.nullcontext():
            traj = run()
            assert took_edge(traj)
            rebuilt(tmp_path, traj)


@pytest.fixture(scope="module")
def long_run():
    """The reference point sampled every 1e-4 to t = 20: 200,001 samples."""
    traj = integrate(reference_initial(), REF_PARAMS, IntegratorConfig(t_end=20.0, sample_dt=1e-4))
    assert traj.t.size == 200_001
    return traj


def traced_peak(f):
    """The peak bytes allocated while ``f()`` runs, by tracemalloc."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_trajectory_memory_bounded(tmp_path, long_run):
    """Writing streams a block at a time: the 9.6 MB run is written in less
    than 4 MB, where formatting the whole text took 69 MB."""
    assert traced_peak(lambda: write_trajectory(tmp_path, long_run, "test")) < 4e6


def test_read_takes_resampled_states(tmp_path, long_run):
    """read_trajectory's run holds the states integrate samples again at
    read time, not a copy: reading peaks within 10% of the (n, 4) states
    above integrate alone."""
    write_trajectory(tmp_path, long_run, "test")
    alone = traced_peak(lambda: integrate(long_run.initial, long_run.params, long_run.config))
    assert traced_peak(lambda: read_trajectory(tmp_path)) < alone + 0.1 * long_run.states.nbytes


def test_read_trajectory_memory_bounded(tmp_path, long_run):
    """Reading hashes trajectory.csv 64 KiB at a time and integrates the run
    again: a peak under three times the (n, 5) float table, where the text
    and its lines took 63 MB."""
    write_trajectory(tmp_path, long_run, "test")
    assert traced_peak(lambda: read_trajectory(tmp_path)) < 3 * long_run.t.size * 5 * 8

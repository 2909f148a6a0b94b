"""The table writer: one text per distinct value, the bytes of one per value."""

import math

import numpy as np
from hypothesis import given, strategies as st

from rwcosmo.serialize import _CHUNK, table_text


def rowwise_table_text(header, columns, sep=","):
    """The row-wise writer table_text replaced: every value formatted with
    one %.17g row template per row."""
    row = sep.join(["%.17g"] * len(columns))
    lines = [header]
    lines += [row % values for values in zip(*(c.tolist() for c in columns))]
    return "\n".join(lines) + "\n"


#: Signed zeros, nans with other payloads and signs, infinities, the
#: smallest subnormal and normal doubles, the largest double, and values
#: whose 17-digit forms switch between fixed and exponent notation.
SPECIAL_BITS = np.array([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310,
                         2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e-5,
                         1e16, 1e17, 123456789.0], dtype=np.float64).view(np.uint64).tolist()
SPECIAL_BITS += [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                 0x7FF8DEADBEEF0001]

values = st.one_of(st.sampled_from(SPECIAL_BITS),
                   st.floats(allow_nan=False).map(
                       lambda x: int(np.array(x, dtype=np.float64).view(np.uint64))))
lengths = st.one_of(st.sampled_from([0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]),
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


@given(tables(), st.sampled_from([",", " "]))
def test_bytes_equal_rowwise_writer(columns, sep):
    """table_text writes the row-wise writer's bytes for any columns."""
    got = table_text("# header", columns, sep=sep).split("\n")
    want = rowwise_table_text("# header", columns, sep).split("\n")
    # Compared line by line: a failing == on the whole text would have the
    # assertion diff two texts of up to 400 kB.
    bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert bad is None, f"line {bad}: {got[bad]!r} != {want[bad]!r}"
    assert len(got) == len(want)


def test_distinct_zeros_and_nans_keep_their_text():
    """-0.0 and 0.0 share no text; nans of every payload read nan."""
    bits = np.array([0, 1 << 63, 0x7FF8000000000000, 0xFFF8000000000001, 0, 1 << 63],
                    dtype=np.uint64)
    assert table_text("x", [bits.view(np.float64)]) == "x\n0\n-0\nnan\nnan\n0\n-0\n"

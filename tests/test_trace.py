"""Trace container: rectangularity, CSV round-trip, deterministic bytes,
packed storage."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distagm import agm
from distagm.trace import _BLOCK_ROWS, RunTrace, TraceRecorder
from oracles import trace_csv_bytes


def _nan_bits(values: np.ndarray) -> bytes:
    """The bits of a float column, every NaN written as one NaN."""
    return np.where(np.isnan(values), np.nan, values).tobytes()


def assert_same_column(got: np.ndarray, expected: np.ndarray):
    """Equal cell for cell with the same dtype: a float column bit for bit,
    and NaN equal to NaN in a float or an object column."""
    assert got.dtype == expected.dtype and got.shape == expected.shape
    if expected.dtype == object:
        assert all(a == b or (a != a and b != b)
                   for a, b in zip(got, expected))
    else:
        assert _nan_bits(got) == _nan_bits(expected)


def make_trace():
    tr = RunTrace(["k", "gap", "label"], metadata={"seed": 3, "h": 0.25})
    tr.append(0, 1.0, "start")
    tr.append(1, 1.0 / 3.0, "mid")
    tr.append(2, np.nan, "end")
    return tr


def test_row_mismatch_rejected():
    """A row holds one value per column, in column order; a row of another
    length is refused and nothing is appended."""
    tr = RunTrace(["a", "b"])
    with pytest.raises(ValueError, match="1 values for the 2 columns"):
        tr.append(1.0)
    with pytest.raises(ValueError, match="3 values for the 2 columns"):
        tr.append(1.0, 2.0, 3.0)
    assert len(tr) == 0
    tr.append(1.0, 2.0)
    assert tr.column("b")[-1] == 2.0


def test_column_and_last():
    tr = make_trace()
    np.testing.assert_allclose(tr.column("k"), [0.0, 1.0, 2.0])
    assert tr.column("label")[-1] == "end"
    assert len(tr) == 3


def test_csv_roundtrip(tmp_path):
    tr = make_trace()
    path = tmp_path / "trace.csv"
    tr.write_csv(path)
    back = RunTrace.read_csv(path)
    assert back.columns == tr.columns
    assert back.metadata == {"seed": 3, "h": 0.25}
    np.testing.assert_allclose(back.column("gap")[:2], tr.column("gap")[:2],
                               rtol=0)
    assert np.isnan(back.column("gap")[2])
    assert list(back.column("label")) == ["start", "mid", "end"]


def test_metadata_types_roundtrip(tmp_path):
    meta = {"seed": 9, "diverged_at": -12, "h": 0.1, "tiny": 5e-324,
            "threshold": 1.2345678901234567e-7, "hash": "5af5945f5a9f240f",
            "problem": "synthetic-gaussian(seed=0)", "padded": "007",
            "short_float": "9e9"}
    tr = RunTrace(["k"], metadata=meta)
    tr.append(0)
    path = tmp_path / "meta.csv"
    tr.write_csv(path)
    back = RunTrace.read_csv(path)
    assert back.metadata == meta
    assert {k: type(v) for k, v in back.metadata.items()} == \
        {k: type(v) for k, v in meta.items()}


def test_write_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    make_trace().write_csv(p1)
    make_trace().write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_full_precision_floats(tmp_path):
    tr = RunTrace(["x"])
    tr.append(1.0 / 3.0)
    path = tmp_path / "p.csv"
    tr.write_csv(path)
    assert RunTrace.read_csv(path).column("x")[0] == 1.0 / 3.0


def test_controller_trace_roundtrip(tmp_path, ring5, controller_quadratic,
                                    x0_ring5):
    """A read-back trace, a packed block and the rows after it, reads every
    column as the written trace does, NaN and the quoted case labels
    (``w>0,r>=0`` contains the delimiter) included."""
    obj, opt = controller_quadratic
    params = agm.AdaptiveParams(h=1.0, beta=0.1, oracle_mode="practical")
    tr = agm.adaptive_run(params, obj, ring5, x0_ring5,
                          iters=_BLOCK_ROWS + 30, opt=opt)
    assert any("," in case for case in tr.column("case"))
    path = tmp_path / "dist_agm_trace.csv"
    tr.write_csv(path)
    back = RunTrace.read_csv(path)
    assert back.columns == tr.columns and len(back) == len(tr)
    for name in tr.columns:
        assert_same_column(back.column(name), tr.column(name))


def test_ragged_row_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("# seed=1\nk,gap\n0,1.0\n1,0.5,extra\n")
    with pytest.raises(ValueError, match="3 fields"):
        RunTrace.read_csv(path)


_FLOATS = st.one_of(
    st.floats(), st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324,
                                  2.2250738585072009e-308]))
_CELLS = {
    # np.float32 is no float subclass: it is written as the float it holds
    "float": st.one_of(_FLOATS, _FLOATS.map(np.float64),
                       st.floats(width=32).map(np.float32)),
    # ints at float64's last exact int, where "%.17g" and "%d" part
    "int": st.one_of(st.integers(-2 ** 70, 2 ** 70), st.booleans(),
                     st.sampled_from([2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1,
                                      -2 ** 53 - 1, np.int64(2 ** 53 + 1)]),
                     st.booleans().map(np.bool_),
                     st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)),
    # the delimiter, the quote and both line breaks, and empty strings
    "str": st.text(st.sampled_from(["a", ",", '"', "\n", "\r", " ", "é"]),
                   max_size=4),
}
_CELLS["mixed"] = st.one_of(*_CELLS.values())


@st.composite
def _traces(draw):
    """(columns, rows): up to four columns, each of one kind of cell or
    mixed, and a few rows, up to three packed blocks of ``_BLOCK_ROWS`` rows,
    or a count at a block's edge. A column cycles through up to eight drawn
    cells."""
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), max_size=4))
    n_rows = draw(st.one_of(
        st.integers(0, 8), st.integers(250, 600),
        st.sampled_from([_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                         2 * _BLOCK_ROWS])))
    columns = []
    for kind in kinds:
        cells = draw(st.lists(_CELLS[kind], min_size=1, max_size=8))
        columns.append([cells[i % len(cells)] for i in range(n_rows)])
    rows = list(zip(*columns)) if columns else [()] * n_rows
    return [f"c{j}" for j in range(len(kinds))], rows


@settings(max_examples=50, deadline=None)
# ints past 2^53 in a column of their own and beside a str: "%d" and
# "%.17g" part there
@example(trace=(["c0", "c1"], [(2 ** 53 + 1, "a,b"), (np.int64(-2 ** 63), 1)]),
         metadata={})
@given(trace=_traces(), metadata=st.dictionaries(
    st.sampled_from(["seed", "h", "label"]),
    st.one_of(st.integers(), st.floats(), st.text(max_size=3)), max_size=2))
def test_write_csv_matches_a_cell_by_cell_writer(trace, metadata,
                                                 tmp_path_factory):
    """The block-wise writer writes the bytes of a stdlib csv writer fed
    one formatted cell at a time, for float, int, bool and str columns,
    numpy scalars, non-finite and subnormal floats, strings that need
    quoting, and columns of mixed types. The trace is also written halfway,
    which packs a short block before the rows that follow. Each column
    reads as its cells did: a float array, an object array when the first
    cell is a str, and ValueError when a later str does not parse as a
    float."""
    columns, rows = trace
    tr = RunTrace(columns, metadata)
    path = tmp_path_factory.mktemp("csv") / "trace.csv"
    for row in rows[:len(rows) // 2]:
        tr.append(*row)
    tr.write_csv(path)
    for row in rows[len(rows) // 2:]:
        tr.append(*row)
    tr.write_csv(path)
    assert path.read_bytes() == trace_csv_bytes(columns, rows, metadata)
    for j, name in enumerate(columns):
        cells = [row[j] for row in rows]
        if cells and isinstance(cells[0], str):
            expected = np.asarray(cells, dtype=object)
        else:
            try:
                expected = np.asarray(cells, dtype=float)
            except ValueError:
                with pytest.raises(ValueError):
                    tr.column(name)
                continue
        assert_same_column(tr.column(name), expected)


def test_one_column_empty_string_is_quoted(tmp_path):
    """A row whose one field is empty is written as "" (an empty line would
    read back as no row), in a str column and in a mixed one."""
    rows = [("",), ("a,b",), ("",), (1.5,)]
    for kept in (rows[:3], rows):
        tr = RunTrace(["label"])
        for row in kept:
            tr.append(*row)
        tr.write_csv(tmp_path / "one.csv")
        assert (tmp_path / "one.csv").read_bytes() == trace_csv_bytes(
            ["label"], kept, {})
    assert (tmp_path / "one.csv").read_text().splitlines()[1] == '""'


def agm_rows_trace() -> RunTrace:
    """A 10001-row trace of dist_agm rows, appended one at a time."""
    tr = RunTrace(TraceRecorder.COLUMNS)
    for k in range(10001):
        x = 0.5 * k
        tr.append(k, x + 1.0, x + 2.0, x + 3.0, x + 4.0, x + 5.0, x + 6.0,
                  "w>0,r>=0", x + 7.0, x + 8.0, True, False)
    return tr


def test_appended_rows_are_packed():
    """``agm_rows_trace`` holds at most 150 bytes a row: the float cells as
    float64 and the case label as one reference (a row tuple with its float
    objects takes 368)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tr = agm_rows_trace()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tr) == 10001 and tr.column("V_k")[-1] == 5006.0
    assert held <= 150 * len(tr), held / len(tr)


def test_read_csv_streams_the_file(tmp_path):
    """Reading ``agm_rows_trace`` back peaks at no more than 1.5 times what
    the read trace holds: the file is parsed a line at a time, not held as
    a list of lines first (which peaked at 1.9 times)."""
    path = tmp_path / "trace.csv"
    agm_rows_trace().write_csv(path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        back = RunTrace.read_csv(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(back) == 10001 and back.column("V_k")[-1] == 5006.0
    assert peak - before <= 1.5 * (held - before), (peak - before) / (
        held - before)


def held_bytes(make):
    """What the object ``make()`` returns holds, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = make()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return made, held


def test_read_csv_shares_repeated_labels(tmp_path):
    """A trace read back holds at most 1.1 times what the recorded trace
    holds: each distinct case label is one str, as in the recorded trace,
    not one str a row (1.5 times)."""
    path = tmp_path / "trace.csv"
    recorded, recorded_held = held_bytes(agm_rows_trace)
    recorded.write_csv(path)
    back, back_held = held_bytes(lambda: RunTrace.read_csv(path))
    assert list(back.column("case")) == list(recorded.column("case"))
    assert back_held <= 1.1 * recorded_held, back_held / recorded_held

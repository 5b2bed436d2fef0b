"""What a run records: per-iteration traces with deterministic CSV emission,
the discrete runs' recorder with their schemas and divergence guard, and the
error that stops a run which leaves the finite range, carrying its trace."""

from __future__ import annotations

import csv
import io
import math
import struct
from array import array
from contextlib import AbstractContextManager
from itertools import chain

import numpy as np

__all__ = ["RunTrace", "TraceRecorder", "DivergenceError"]


class DivergenceError(RuntimeError):
    """A run that left the finite range. ``at`` is where it stopped: the
    iteration k of a discrete run, or the last accepted t of the flow;
    ``trace`` is the run's trace up to its last recorded row."""

    def __init__(self, msg, at=None, trace=None):
        super().__init__(msg)
        self.at = at
        self.trace = trace


# Storage. Appended rows wait in a short list; each full block of
# ``_BLOCK_ROWS`` of them is packed column by column. A column whose cells
# all convert becomes one float64 ``array('d')`` segment (8 bytes a cell, no
# float object kept); any other column (str labels, mixed cells) stays the
# tuple of its cells. ``write_csv`` writes a block with one row format:
# "%.17g" for a float64 segment, "%s" for ``_format_cell`` of each tuple
# cell, so a 10k-row trace costs one block of Python objects to write.
_BLOCK_ROWS = 256
# An int cell of this magnitude or more may not survive float64 ("%d" and
# "%.17g" agree on every int below it).
_EXACT_INT = 2.0 ** 53
_FLOAT_MAX = float(np.finfo(float).max)


def _has_large(raw: bytes) -> bool:
    """Whether packed float64s hold a magnitude of ``_EXACT_INT`` or more;
    NaN compares False, where ``max`` could skip the values after it."""
    return bool((np.abs(np.frombuffer(raw)) >= _EXACT_INT).any())


def _pack_columns(columns) -> tuple:
    """One segment per column of a block (a tuple of cells each): a float64
    ``array('d')`` when every cell converts and none is a non-float at or
    above ``_EXACT_INT``, otherwise the tuple itself."""
    columns = tuple(columns)
    if not columns:
        return ()
    pack = struct.Struct(f"{len(columns[0])}d").pack
    packed = []
    for cells in columns:
        try:
            packed.append(pack(*cells))
        except struct.error:  # a str, or an int past the float range
            packed.append(None)
    # only a block holding a large value reads the types of its cells
    if _has_large(b"".join(filter(None, packed))):
        packed = [None if raw and _has_large(raw) and not all(
            isinstance(cell, (float, np.floating)) for cell in cells) else raw
            for cells, raw in zip(columns, packed)]
    return tuple([cells if raw is None else array("d", raw)
                  for cells, raw in zip(columns, packed)])


def _format_cell(cell) -> str:
    """One cell of a tuple segment as written: a str as it is, an int or
    bool with "%d" (a bool is 1 or 0), any other number with "%.17g" ("nan"
    for NaN)."""
    if isinstance(cell, str):
        return cell
    if isinstance(cell, (int, np.integer, np.bool_)):
        return "%d" % cell
    return "%.17g" % cell


class _Quoter(dict):
    """Formatted cell -> the field the stdlib csv writer writes for it in a
    row of ``width`` fields (a lone empty field is quoted), each distinct
    cell quoted once, by the csv module itself."""

    def __init__(self, width):
        super().__init__()
        self._buf = io.StringIO(newline="")
        self._writer = csv.writer(self._buf, lineterminator="\n")
        self._pad = ("",) if width > 1 else ()

    def __missing__(self, cell):
        self._buf.seek(0)
        self._buf.truncate()
        self._writer.writerow((cell, *self._pad))
        field = self[cell] = self._buf.getvalue()[:-1 - len(self._pad)]
        return field


def _parse_meta(text: str):
    """A metadata value as written: an int or float when ``text`` is exactly
    how that number prints, otherwise the string itself (so ``007`` and
    ``9e9`` stay strings)."""
    for kind in (int, float):
        try:
            value = kind(text)
        except ValueError:
            continue
        if str(value) == text:
            return value
    return text


class RunTrace:
    """Column-oriented record of one run plus self-describing metadata.

    Rows are appended one iteration at a time, as values in ``columns``
    order; a row of another length is refused, so every trace is rectangular.
    Rows are kept as packed column segments (see ``_BLOCK_ROWS``), not as
    row tuples. Metadata is written as leading ``# key=value`` comment lines,
    keeping the CSV a single plot-ready file. A field with a comma (case
    labels) is quoted.
    """

    def __init__(self, columns, metadata=None):
        self.columns = list(columns)
        self.metadata = dict(metadata or {})
        # one tuple of column segments per packed block, of _BLOCK_ROWS rows
        # or fewer (a tail packed by write_csv)
        self._blocks = []
        self._packed_rows = 0
        self._pending = []  # rows not yet packed, fewer than _BLOCK_ROWS

    def append(self, *row):
        if len(row) != len(self.columns):
            raise ValueError(f"row mismatch: {len(row)} values for the "
                             f"{len(self.columns)} columns {self.columns}")
        self._pending.append(row)
        if len(self._pending) == _BLOCK_ROWS:
            self._pack()

    def _pack(self):
        """Pack the pending rows into one block."""
        self._blocks.append(_pack_columns(zip(*self._pending)))
        self._packed_rows += len(self._pending)
        self._pending = []

    def __len__(self):
        return self._packed_rows + len(self._pending)

    def column(self, name) -> np.ndarray:
        i = self.columns.index(name)
        segments = [block[i] for block in self._blocks]
        if self._pending:
            segments.append(tuple(row[i] for row in self._pending))
        if not segments:
            return np.empty(0)
        if isinstance(segments[0][0], str):
            return np.asarray(list(chain.from_iterable(segments)),
                              dtype=object)
        return np.concatenate([
            np.frombuffer(seg) if type(seg) is array
            else np.asarray(seg, dtype=float) for seg in segments])

    def write_csv(self, path):
        if self._pending:  # a written trace is often kept: pack its tail
            self._pack()
        quoted = _Quoter(len(self.columns))
        with open(path, "w", newline="") as fh:
            for key in sorted(self.metadata):
                fh.write(f"# {key}={self.metadata[key]}\n")
            csv.writer(fh, lineterminator="\n").writerow(self.columns)
            if not self.columns:  # one empty line per row
                fh.write("\n" * len(self))
                return
            for block in self._blocks:
                row_format = ",".join([
                    "%.17g" if type(seg) is array else "%s"
                    for seg in block]) + "\n"
                cells = [seg if type(seg) is array else
                         list(map(quoted.__getitem__, map(_format_cell, seg)))
                         for seg in block]
                fh.write(row_format * len(block[0])
                         % tuple(chain.from_iterable(zip(*cells))))

    @staticmethod
    def read_csv(path) -> "RunTrace":
        """Inverse of ``write_csv``: the file is read a line at a time and
        its rows are appended, each distinct non-float cell as one shared
        str. Raises ValueError on a row whose field count differs from the
        header's."""
        metadata = {}

        def data_lines(fh):
            for line in fh:
                if line.startswith("# "):
                    key, _, val = line[2:].rstrip("\n").partition("=")
                    metadata[key] = _parse_meta(val)
                else:
                    yield line

        labels = {}
        with open(path, newline="") as fh:
            rows = (row for row in csv.reader(data_lines(fh)) if row)
            header = next(rows, [])
            trace = RunTrace(header)
            for n, row in enumerate(rows, start=1):
                if len(row) != len(header):
                    raise ValueError(f"{path}: data row {n} has {len(row)} "
                                     f"fields, the header {len(header)}")
                parsed = []
                for v in row:
                    try:
                        parsed.append(float(v))
                    except ValueError:
                        parsed.append(labels.setdefault(v, v))
                trace.append(*parsed)
        trace.metadata = metadata  # a comment line may follow the header
        return trace


class TraceRecorder(AbstractContextManager):
    """Trace schema, row builder and divergence guard of every discrete run.

    Each row holds the columns the run computes: dist_agm's ``COLUMNS``, or
    a baseline's ``BASELINE_COLUMNS``, whose step is in the metadata. An
    ``F_gap`` not within ``DIVERGENCE_FACTOR`` times the first row's
    (floored at the objective's rounding noise, capped at the largest float;
    NaN and inf included, on the first row too) raises DivergenceError,
    which leaving the context carries the partial trace, as ``agm.step``'s
    does."""

    COLUMNS = ("k", "F_gap_plus", "F_gap", "grad_norm", "laplacian_norm",
               "s_k", "V_k", "case", "w", "r", "monotonicity_ok",
               "fallback_flag")
    BASELINE_COLUMNS = ("k", "F_gap", "grad_norm", "laplacian_norm")
    DIVERGENCE_FACTOR = 1e6

    def __init__(self, columns, metadata: dict, f_star: float):
        self.trace = RunTrace(columns, metadata)
        self._gap = self.trace.columns.index("F_gap")
        self._floor = 1e-12 * (1.0 + abs(f_star))
        self._limit = None

    @staticmethod
    def norm(v: np.ndarray) -> float:
        """``np.linalg.norm(v)`` of a float array, bit for bit, without its
        dispatch: the square root of v.v over v's entries in memory order."""
        if v.ndim != 1 or not v.flags.c_contiguous:
            v = v.ravel("K")
        return math.sqrt(float(v.dot(v)))

    def __call__(self, k, gap, grad, lx):
        """A ``BASELINE_COLUMNS`` row from the gradient and L X."""
        self.record(k, gap, self.norm(grad), self.norm(lx))

    def record(self, *row):
        """One row, in the trace's column order."""
        self.trace.append(*row)
        gap = row[self._gap]
        if self._limit is None:
            # capped at the largest float, so that a first gap of inf (a
            # start whose cost overflows) is out of bounds too
            self._limit = min(self.DIVERGENCE_FACTOR * max(gap, self._floor),
                              _FLOAT_MAX)
        if not gap <= self._limit:
            k = row[0]
            raise DivergenceError(f"gap {gap:.3g} out of bounds at iteration "
                                  f"{k}", at=k, trace=self.trace)

    def __exit__(self, kind, err, tb):
        if isinstance(err, DivergenceError):
            err.trace = self.trace

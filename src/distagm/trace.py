"""Per-iteration run traces and deterministic CSV emission."""

from __future__ import annotations

import csv
import math

import numpy as np

__all__ = ["RunTrace"]


def _fmt(v) -> str:
    if type(v) is not float:  # most cells are floats and skip the chain
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, str):
            return v
        v = float(v)
    return "nan" if math.isnan(v) else format(v, ".17g")


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

    Rows are appended one iteration at a time; missing columns are not
    allowed so every trace is rectangular. Metadata is written as leading
    ``# key=value`` comment lines, keeping the CSV a single plot-ready file.
    A field that contains a comma (a controller case label) is quoted.
    """

    def __init__(self, columns, metadata=None):
        self.columns = list(columns)
        self.metadata = dict(metadata or {})
        self._rows = []

    @classmethod
    def from_columns(cls, columns: dict, metadata=None) -> "RunTrace":
        """A trace whose rows zip the equal-length sequences in ``columns``."""
        trace = cls(columns, metadata)
        trace._rows = [list(r) for r in zip(*columns.values(), strict=True)]
        return trace

    def append(self, **row):
        if set(row) != set(self.columns):
            missing = set(self.columns) - set(row)
            extra = set(row) - set(self.columns)
            raise ValueError(f"row mismatch: missing={missing}, extra={extra}")
        self._rows.append([row[c] for c in self.columns])

    def __len__(self):
        return len(self._rows)

    def column(self, name) -> np.ndarray:
        i = self.columns.index(name)
        vals = [r[i] for r in self._rows]
        if vals and isinstance(vals[0], str):
            return np.asarray(vals, dtype=object)
        return np.asarray(vals, dtype=float)

    def last(self, name):
        return self._rows[-1][self.columns.index(name)]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            for key in sorted(self.metadata):
                fh.write(f"# {key}={self.metadata[key]}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.columns)
            writer.writerows([_fmt(v) for v in row] for row in self._rows)

    @staticmethod
    def read_csv(path) -> "RunTrace":
        """Inverse of ``write_csv``. Raises ValueError on a row whose field
        count differs from the header's."""
        metadata, lines = {}, []
        with open(path, newline="") as fh:
            for line in fh:
                if line.startswith("# "):
                    key, _, val = line[2:].rstrip("\n").partition("=")
                    metadata[key] = _parse_meta(val)
                else:
                    lines.append(line)
        rows = [row for row in csv.reader(lines) if row]
        header = rows.pop(0) if rows else []
        trace = RunTrace(header, metadata)
        for n, row in enumerate(rows, start=1):
            if len(row) != len(header):
                raise ValueError(f"{path}: data row {n} has {len(row)} "
                                 f"fields, the header {len(header)}")
            parsed = []
            for v in row:
                try:
                    parsed.append(float(v))
                except ValueError:
                    parsed.append(v)
            trace._rows.append(parsed)
        return trace

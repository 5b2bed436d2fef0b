"""Per-iteration run traces and deterministic CSV emission."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["RunTrace"]


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    x = float(v)
    if math.isnan(x):
        return "nan"
    return format(x, ".17g")


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
    """

    def __init__(self, columns, metadata=None):
        self.columns = list(columns)
        self.metadata = dict(metadata or {})
        self._rows = []

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
        with open(path, "w") as fh:
            for key in sorted(self.metadata):
                fh.write(f"# {key}={self.metadata[key]}\n")
            fh.write(",".join(self.columns) + "\n")
            for row in self._rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")

    @staticmethod
    def read_csv(path) -> "RunTrace":
        metadata, header, rows = {}, None, []
        with open(path) as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line.startswith("# "):
                    key, _, val = line[2:].partition("=")
                    metadata[key] = _parse_meta(val)
                elif header is None:
                    header = line.split(",")
                elif line:
                    rows.append(line.split(","))
        trace = RunTrace(header or [], metadata)
        for row in rows:
            parsed = []
            for v in row:
                try:
                    parsed.append(float(v))
                except ValueError:
                    parsed.append(v)
            trace._rows.append(parsed)
        return trace

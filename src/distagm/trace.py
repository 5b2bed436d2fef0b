"""Per-iteration run traces, deterministic CSV emission, and the error that
stops a run which leaves the finite range, carrying its partial trace."""

from __future__ import annotations

import csv

import numpy as np

__all__ = ["RunTrace", "DivergenceError"]


class DivergenceError(RuntimeError):
    """A run that left the finite range. ``at`` is where it stopped: the
    iteration k of a discrete run, or the last accepted t of the flow;
    ``trace`` is the run's trace up to its last recorded row."""

    def __init__(self, msg, at=None, trace=None):
        super().__init__(msg)
        self.at = at
        self.trace = trace


# Rows formatted at once by ``write_csv``. A 10k-row trace formatted whole
# raises peak RSS by about 5 MB, and 256-row blocks still raised
# logistic_compare's by 0.4 MB; 64-row blocks keep it within 0.1 MB and
# write as fast.
_BLOCK_ROWS = 64


def _format_column(cells) -> list:
    """The cells of one column as written: a float column with one "%.17g"
    format ("nan" for NaN), an int or bool column with one "%d" (a bool is 1
    or 0), a str column as it is (the csv writer quotes it), a column of
    mixed types cell by cell, and any other number as a float."""
    kinds = set(map(type, cells))
    if all(issubclass(kind, float) for kind in kinds):
        spec = "%.17g"
    elif all(issubclass(kind, (int, np.integer, np.bool_)) for kind in kinds):
        spec = "%d"
    elif all(issubclass(kind, str) for kind in kinds):
        return cells
    elif len(kinds) > 1:
        return [_format_column((cell,))[0] for cell in cells]
    else:
        return _format_column(tuple(map(float, cells)))
    return (",".join([spec] * len(cells)) % cells).split(",")


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
    Metadata is written as leading ``# key=value`` comment lines, keeping the
    CSV a single plot-ready file. A field with a comma (case labels) is quoted.
    """

    def __init__(self, columns, metadata=None):
        self.columns = list(columns)
        self.metadata = dict(metadata or {})
        self._rows = []

    @classmethod
    def from_columns(cls, columns: dict, metadata=None) -> "RunTrace":
        """A trace whose rows zip the equal-length sequences in ``columns``."""
        trace = cls(columns, metadata)
        trace._rows = list(zip(*columns.values(), strict=True))
        return trace

    def append(self, *row):
        if len(row) != len(self.columns):
            raise ValueError(f"row mismatch: {len(row)} values for the "
                             f"{len(self.columns)} columns {self.columns}")
        self._rows.append(row)

    def __len__(self):
        return len(self._rows)

    def column(self, name) -> np.ndarray:
        i = self.columns.index(name)
        vals = [r[i] for r in self._rows]
        if vals and isinstance(vals[0], str):
            return np.asarray(vals, dtype=object)
        return np.asarray(vals, dtype=float)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            for key in sorted(self.metadata):
                fh.write(f"# {key}={self.metadata[key]}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.columns)
            for start in range(0, len(self._rows), _BLOCK_ROWS):
                block = self._rows[start:start + _BLOCK_ROWS]
                columns = list(map(_format_column, zip(*block)))
                # a trace with no columns writes one empty line per row
                writer.writerows(zip(*columns) if columns else block)

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

"""CSV/JSON import and export.

All floats are written with 17 significant digits so that a write/read
cycle reproduces the binary doubles exactly; no file carries timestamps,
keeping repeated runs byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .curves import TimeSet
from .measure import Staircase

__all__ = [
    "write_staircase_csv",
    "read_staircase_csv",
    "field_writer",
    "write_field_csv",
    "read_field_csv",
    "write_snapshot_csv",
    "read_snapshot_csv",
    "write_timeset_csv",
    "read_timeset_csv",
    "write_continuity_csv",
    "read_continuity_csv",
    "write_json",
]


# rows formatted per ``%`` and written per ``write``; bounds the text held at once
_BLOCK_ROWS = 1024


def _write_table(path, header: str, columns) -> None:
    """Write equal-length ``columns`` as CSV rows under ``header``.

    A numeric column is written as ``"%.17g" % x`` writes each float, 17
    significant digits; a column of str is written as it is, so a caller
    can pass fields it formatted earlier.  Each block of ``_BLOCK_ROWS``
    rows is formatted by one ``%`` over a flat tuple and written by one
    ``write``: the per-row Python work this saves leaves about the cost of
    the float conversions themselves, ~1 µs per float.
    """
    text = [len(c) > 0 and isinstance(c[0], str) for c in columns]
    cols = [c if t else np.asarray(c, dtype=float) for c, t in zip(columns, text)]
    row = ",".join("%s" if t else "%.17g" for t in text) + "\n"
    k, n = len(cols), len(cols[0]) if cols else 0
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, n - start)
            flat = [None] * (rows * k)
            for j, (col, t) in enumerate(zip(cols, text)):
                part = col[start:start + rows]
                flat[j::k] = part if t else part.tolist()
            fh.write(row * rows % tuple(flat))


def _read_table(path, expected_header: str) -> dict:
    """One float array per header column; a header-only file gives empty ones."""
    names = expected_header.split(",")
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if header != expected_header:
            raise ValueError(f"unexpected header {header!r} in {path}")
        start = fh.tell()
        line = fh.readline()
        while line and not line.strip():
            line = fh.readline()
        if not line:  # loadtxt would warn and return shape (0, 1)
            return {name: np.empty(0) for name in names}
        fh.seek(start)
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError(f"{data.shape[1]} columns under header {expected_header!r} in {path}")
    return {name: data[:, i] for i, name in enumerate(names)}


def write_staircase_csv(path, stair: Staircase) -> None:
    _write_table(path, "v,S", (stair.params, stair.values))


def read_staircase_csv(path) -> dict:
    return _read_table(path, "v,S")


def field_writer(grid, chart):
    """``write(path, values)`` of fields on ``grid`` and ``chart`` as ``v,S,re,im``
    rows; the ``v,S`` fields are formatted here, once, for every file it writes."""
    vs = list(map("%.17g,%.17g".__mod__, zip(grid.params.tolist(), chart.values.tolist())))

    def write(path, values) -> None:
        _write_table(path, "v,S,re,im", (vs, np.real(values), np.imag(values)))

    return write


def write_field_csv(path, field) -> None:
    field_writer(field.grid, field.chart)(path, field.values)


def read_field_csv(path) -> dict:
    return _read_table(path, "v,S,re,im")


def write_snapshot_csv(path, psi) -> None:
    """Write psi as a field CSV: |psi|^2 is re^2 + im^2 of its 17-digit fields."""
    write_field_csv(path, psi.field)


def read_snapshot_csv(path) -> dict:
    return read_field_csv(path)


def write_timeset_csv(path, ts: TimeSet) -> None:
    _write_table(path, "lo,hi", (ts.kept_intervals[:, 0], ts.kept_intervals[:, 1]))


def read_timeset_csv(path) -> dict:
    return _read_table(path, "lo,hi")


def write_continuity_csv(path, rows) -> None:
    """rows: iterable of (tau, residual_max, residual_l2, total_probability)."""
    cols = list(zip(*rows)) if rows else ([], [], [], [])
    _write_table(path, "tau,residual_max,residual_l2,total_probability", cols)


def read_continuity_csv(path) -> dict:
    return _read_table(path, "tau,residual_max,residual_l2,total_probability")


def write_json(path, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")

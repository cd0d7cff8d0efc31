"""File formats: the HOTP1 tensor container and the one CSV dialect.

HOTP1 layout, all little-endian:

    bytes 0..3   magic b"HOTP"
    byte  4      format version (1)
    byte  5      tensor order r
    next 4*r     dims as u32
    rest         float64 coefficients, row-major

Every CSV the package writes is comma-separated, one row per newline-ended
line. Floats are written as their repr, so they read back bit for bit;
report and figure rows may also hold integers, `true`/`false`, or an empty
cell for a missing value. Readers skip blank lines, parse cells with
float() (so surrounding whitespace, `1_000`, `inf` and `nan` all parse),
and name the line and column of the first cell that does not.

Feature CSV holds one vector per row. A header row is optional and is
recognized by a non-numeric cell; when its last column is named `weight`,
in any letter case, that column supplies per-row weights. Matrix CSV is
plain numeric rows with no header.
"""

from __future__ import annotations

import csv
import math
import struct
from pathlib import Path

import numpy as np

from .errors import InputError
from .tensor import MAX_ORDER, DenseTensor, FeatureSet

MAGIC = b"HOTP"
VERSION = 1
_HEADER = struct.Struct("<4sBB")


def write_tensor(path, t: DenseTensor) -> None:
    payload = np.ascontiguousarray(t.data, dtype="<f8").tobytes()
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, t.order))
        f.write(struct.pack(f"<{t.order}I", *t.dims))
        f.write(payload)


def read_tensor(path) -> DenseTensor:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise InputError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, order = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise InputError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise InputError(f"{path}: unsupported version {version}")
    if not 1 <= order <= MAX_ORDER:
        raise InputError(f"{path}: unsupported order {order}")
    dims_end = _HEADER.size + 4 * order
    if len(raw) < dims_end:
        raise InputError(f"{path}: truncated dims block")
    dims = struct.unpack_from(f"<{order}I", raw, _HEADER.size)
    if any(d == 0 for d in dims):
        raise InputError(f"{path}: zero dimension in {dims}")
    count = math.prod(dims)
    expected = dims_end + 8 * count
    if len(raw) != expected:
        raise InputError(f"{path}: expected {expected} bytes, got {len(raw)}")
    data = np.frombuffer(raw, dtype="<f8", offset=dims_end, count=count).reshape(dims)
    return DenseTensor(data)


def _cell(c) -> str:
    """One CSV cell: None is empty, str as is, bool true/false, int as
    digits, and anything else as the repr of its float."""
    if c is None:
        return ""
    if isinstance(c, str):
        return c
    if isinstance(c, bool):
        return "true" if c else "false"
    if isinstance(c, (int, np.integer)):
        return str(int(c))
    return repr(float(c))


def write_csv(path, header, rows) -> None:
    """Write an optional header row, then the rows, one line each."""
    with open(path, "w", newline="") as f:
        if header:
            f.write(",".join(map(_cell, header)) + "\n")
        f.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def _read_rows(path) -> list:
    """The non-empty rows of a CSV file, each with its 1-based line number."""
    with open(path, newline="") as f:
        rows = [(line, row) for line, row in enumerate(csv.reader(f), 1) if row]
    if not rows:
        raise InputError(f"{path}: no rows")
    return rows


def _parse_rows(path, rows: list, ncols: int) -> np.ndarray:
    """Parse (line, row) pairs of ncols numeric cells into a 2-d array.

    float() strips surrounding whitespace itself; only a row that fails is
    searched cell by cell, to name the first bad cell.
    """
    out = []
    for line, row in rows:
        if len(row) != ncols:
            raise InputError(f"{path}: line {line}: expected {ncols} columns, got {len(row)}")
        try:
            out.append(list(map(float, row)))
        except ValueError:
            for col, cell in enumerate(row, 1):
                try:
                    float(cell)
                except ValueError:
                    raise InputError(f"{path}: line {line}, column {col}: "
                                     f"could not parse {cell.strip()!r} as a number") from None
    return np.asarray(out)


def read_features_csv(path) -> FeatureSet:
    """Load a feature CSV, honoring an optional trailing weight column."""
    rows = _read_rows(path)
    first = rows[0][1]
    try:
        list(map(float, first))
        has_header = False
    except ValueError:
        has_header = True
    has_weights = has_header and first[-1].strip().lower() == "weight"
    if has_header:
        rows = rows[1:]
        if not rows:
            raise InputError(f"{path}: header but no data rows")
    data = _parse_rows(path, rows, len(first))
    if data.shape[1] - has_weights < 1:
        raise InputError(f"{path}: rows have no feature columns")
    if has_weights:
        return FeatureSet(data[:, :-1], data[:, -1])
    return FeatureSet(data)


def write_features_csv(path, features: FeatureSet, include_weights: bool = False) -> None:
    header = [f"f{j}" for j in range(features.dim)]
    rows = features.vectors
    if include_weights:
        header.append("weight")
        rows = np.column_stack([rows, features.weights])
    write_csv(path, header, rows.tolist())


def read_matrix_csv(path) -> np.ndarray:
    """Load a headerless numeric CSV as a 2-d array."""
    rows = _read_rows(path)
    return _parse_rows(path, rows, len(rows[0][1]))


def write_matrix_csv(path, m) -> None:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise InputError(f"expected a matrix, got ndim {m.ndim}")
    write_csv(path, None, m.tolist())

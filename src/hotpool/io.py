"""File formats: the HOTP1 tensor container and the one CSV and JSON dialect.

HOTP1 layout, all little-endian:

    bytes 0..3   magic b"HOTP"
    byte  4      format version (1)
    byte  5      tensor order r
    next 4*r     dims as u32
    rest         float64 coefficients, row-major

Every CSV the package writes is comma-separated, one row per newline-ended
line. Floats are written as their repr, so they read back bit for bit;
report and figure rows may also hold integers, `true`/`false`, or an empty
cell for a missing value. Readers skip blank lines and accept what float()
does (surrounding whitespace, `1_000`, `inf`, `nan`). Valid unquoted files take
numpy's C reader; the row parser names the line and column of the first bad cell.

Every JSON document the package prints or writes is json_text's: sorted keys, indent 2.

Feature CSV holds one vector per row. A header row is optional and is
recognized by a non-numeric cell; when its last column is named `weight`,
in any letter case, that column supplies per-row weights. Matrix CSV is
plain numeric rows with no header.
"""

from __future__ import annotations

import csv
import json
import math
import re
import struct
from contextlib import suppress
from itertools import islice
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


_CSV_BLOCK = 4096  # rows of a float64 array converted to Python floats at a time


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
    """Write an optional header row, then the rows, one line each. A float64
    array is converted to lists a block of rows at a time, so its cells are
    never all held as Python floats at once."""
    f8 = isinstance(rows, np.ndarray) and rows.dtype == np.float64  # repr is _cell for floats
    cell = repr if f8 else _cell
    blocks = [rows] if not f8 else (
        rows[s : s + _CSV_BLOCK].tolist() for s in range(0, len(rows), _CSV_BLOCK))
    with open(path, "w", newline="") as f:
        if header:
            f.write(",".join(map(_cell, header)) + "\n")
        for block in blocks:
            f.writelines(",".join(map(cell, row)) + "\n" for row in block)


def json_text(doc) -> str:
    """doc as JSON text in the package's one dialect (see the module docstring)."""
    return json.dumps(doc, sort_keys=True, indent=2)


def _read_rows(path) -> list:
    """The non-empty rows of a CSV file, each with its 1-based line number."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            return [(line, row) for line, row in enumerate(reader, 1) if row]
        except csv.Error as exc:  # such as a cell over csv.field_size_limit()
            raise InputError(f"{path}: line {reader.line_num}: {exc}") from None


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


def _read_numeric(path, header: bool) -> tuple[np.ndarray, list | None]:
    """The data rows as a 2-d array, and the header row or None. np.loadtxt
    reads a valid file; any other, or one holding a quote or a 0x1c-0x1f
    character (loadtxt strips those and float() does not), takes _parse_rows."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: byte {exc.start} is not valid {exc.encoding} text") from None
    fast = not any(c in text for c in '"\x1c\x1d\x1e\x1f')
    rows = ([(text.count("\n", 0, m.start()) + 1, m.group().split(","))
             for m in islice(re.finditer("[^\n]+", text), 2)] if fast else _read_rows(path))
    if not rows:
        raise InputError(f"{path}: no rows")
    first = rows[0][1]
    try:  # with header set, a first row that float() refuses is the header
        has_header = header and not list(map(float, first))
    except ValueError:
        has_header = True
    if has_header and len(rows) == 1:
        raise InputError(f"{path}: header but no data rows")
    data = None
    if fast:
        with suppress(ValueError), open(path) as f:
            data = np.loadtxt(f, delimiter=",", ndmin=2, comments=None,
                              skiprows=rows[0][0] - 1 + has_header, dtype=np.float64)
    if data is None or data.shape[1] != len(first):
        data = _parse_rows(path, (_read_rows(path) if fast else rows)[has_header:], len(first))
    return data, first if has_header else None


def read_features_csv(path) -> FeatureSet:
    """Load a feature CSV, honoring an optional trailing weight column."""
    data, header = _read_numeric(path, header=True)
    if header and header[-1].strip().lower() == "weight":
        if data.shape[1] < 2:
            raise InputError(f"{path}: rows have no feature columns")
        return FeatureSet(data[:, :-1], data[:, -1])
    return FeatureSet(data)


def write_features_csv(path, features: FeatureSet, include_weights: bool = False) -> None:
    header = [f"f{j}" for j in range(features.dim)]
    if include_weights:
        write_csv(path, header + ["weight"], np.column_stack([features.vectors, features.weights]))
    else:
        write_csv(path, header, features.vectors)


def read_matrix_csv(path) -> np.ndarray:
    """Load a headerless numeric CSV as a 2-d array."""
    return _read_numeric(path, header=False)[0]


def write_matrix_csv(path, m) -> None:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise InputError(f"expected a matrix, got ndim {m.ndim}")
    write_csv(path, None, m)

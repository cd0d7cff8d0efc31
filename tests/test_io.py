import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from hotpool import DenseTensor, FeatureSet, InputError, io
from hotpool.io import (
    read_features_csv,
    read_matrix_csv,
    read_tensor,
    write_features_csv,
    write_csv,
    write_matrix_csv,
    write_tensor,
)

READERS = pytest.mark.parametrize(
    "reader", [read_features_csv, read_matrix_csv], ids=lambda f: f.__name__
)


@pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 2), (2, 2, 2, 2)])
def test_tensor_roundtrip(tmp_path, shape):
    rng = np.random.default_rng(sum(shape))
    t = DenseTensor(rng.normal(size=shape))
    p = tmp_path / "t.hotp"
    write_tensor(p, t)
    back = read_tensor(p)
    assert back.dims == t.dims
    assert np.array_equal(back.data, t.data)


def test_tensor_header_layout(tmp_path):
    t = DenseTensor(np.arange(6.0).reshape(2, 3))
    p = tmp_path / "t.hotp"
    write_tensor(p, t)
    raw = p.read_bytes()
    assert raw[:4] == b"HOTP"
    assert raw[4] == 1
    assert raw[5] == 2
    assert len(raw) == 6 + 4 * 2 + 8 * 6
    assert raw[6 + 4 * 2:] == np.arange(6.0).reshape(2, 3).astype("<f8").tobytes()


def test_tensor_bad_magic(tmp_path):
    p = tmp_path / "t.hotp"
    write_tensor(p, DenseTensor(np.zeros((2, 2))))
    raw = bytearray(p.read_bytes())
    raw[:4] = b"NOPE"
    p.write_bytes(bytes(raw))
    with pytest.raises(InputError, match="magic"):
        read_tensor(p)


def test_tensor_bad_version(tmp_path):
    p = tmp_path / "t.hotp"
    write_tensor(p, DenseTensor(np.zeros((2, 2))))
    raw = bytearray(p.read_bytes())
    raw[4] = 9
    p.write_bytes(bytes(raw))
    with pytest.raises(InputError, match="version"):
        read_tensor(p)


def test_tensor_truncated_payload(tmp_path):
    p = tmp_path / "t.hotp"
    write_tensor(p, DenseTensor(np.zeros((2, 2))))
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(InputError, match="bytes"):
        read_tensor(p)


def test_tensor_zero_dim(tmp_path):
    import struct

    p = tmp_path / "t.hotp"
    p.write_bytes(struct.pack("<4sBB", b"HOTP", 1, 2) + struct.pack("<2I", 2, 0))
    with pytest.raises(InputError, match="zero"):
        read_tensor(p)


def test_features_csv_headerless(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    fs = read_features_csv(p)
    assert fs.count == 2 and fs.dim == 2
    assert_allclose(fs.weights, [1.0, 1.0])


def test_features_csv_with_weight_column(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("f0,f1,weight\n1.0,2.0,0.5\n3.0,4.0,2.0\n")
    fs = read_features_csv(p)
    assert fs.dim == 2
    assert_allclose(fs.weights, [0.5, 2.0])


def test_features_csv_header_without_weight(tmp_path):
    # a header whose last column is not `weight` carries no weights
    p = tmp_path / "f.csv"
    p.write_text("a,b,c\n1,2,3\n")
    fs = read_features_csv(p)
    assert fs.dim == 3
    assert_allclose(fs.weights, [1.0])


@READERS
def test_features_csv_parse_error_coordinates(tmp_path, reader):
    p = tmp_path / "f.csv"
    p.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(InputError, match=r"line 2, column 2"):
        reader(p)
    # blank lines still count, the cell shows without its whitespace, and
    # the width check comes first
    p.write_text("1.0,2.0\n\n3.0, oops \n")
    with pytest.raises(
        InputError, match=r"f\.csv: line 3, column 2: could not parse 'oops' as a number$"
    ):
        reader(p)
    p.write_text("1.0,2.0\n\n3.0, oops ,x\n")
    with pytest.raises(InputError, match=r"line 3: expected 2 columns, got 3$"):
        reader(p)


@READERS
def test_features_csv_ragged_row(tmp_path, reader):
    p = tmp_path / "f.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(InputError, match=r"line 2: expected 2 columns, got 1$"):
        reader(p)


@READERS
def test_csv_accepts_what_float_accepts(tmp_path, reader):
    p = tmp_path / "f.csv"
    p.write_text(" 1.5 ,1_000\r\n\n-0.0,\t3e0 \n")
    back = reader(p)
    vectors = back.vectors if reader is read_features_csv else back
    assert vectors.tolist() == [[1.5, 1000.0], [-0.0, 3.0]]
    assert np.signbit(vectors[1, 0])


def test_features_csv_empty(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("")
    with pytest.raises(InputError, match="no rows"):
        read_features_csv(p)


def test_features_csv_weight_header_any_case(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text(" a , WEIGHT \n1.0,0.5\n2.0,0.25\n")
    fs = read_features_csv(p)
    assert fs.vectors.tolist() == [[1.0], [2.0]]
    assert fs.weights.tolist() == [0.5, 0.25]
    p.write_text("weight\n1.0\n")
    with pytest.raises(InputError, match="no feature columns"):
        read_features_csv(p)
    p.write_text("a,weight\n")
    with pytest.raises(InputError, match="header but no data rows"):
        read_features_csv(p)


def test_write_csv_cell_rules(tmp_path):
    p = tmp_path / "r.csv"
    rows = [
        [None, "x", True, False, 3, np.int64(-4), 0.1, np.float64(2.5), np.float32(0.5)],
        [1e-310, -0.0, 1e22, float("inf"), float("nan"), 7, "", None, 12345678901234567890],
    ]
    write_csv(p, list("abcdefghi"), rows)
    assert p.read_bytes() == (
        b"a,b,c,d,e,f,g,h,i\n"
        b",x,true,false,3,-4,0.1,2.5,0.5\n"
        b"1e-310,-0.0,1e+22,inf,nan,7,,,12345678901234567890\n"
    )
    write_csv(p, None, [[1.0, 2]])
    assert p.read_bytes() == b"1.0,2\n"


def test_features_csv_roundtrip_with_weights(tmp_path):
    rng = np.random.default_rng(2)
    fs = FeatureSet(rng.normal(size=(4, 3)), weights=rng.uniform(0.1, 2.0, size=4))
    p = tmp_path / "f.csv"
    write_features_csv(p, fs, include_weights=True)
    back = read_features_csv(p)
    assert np.array_equal(back.vectors, fs.vectors)
    assert np.array_equal(back.weights, fs.weights)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False),
))
@example(np.array([[0.1, -0.0, 5e-324, 1.7976931348623157e308]]))
def test_matrix_csv_roundtrip_exact(tmp_path, m):
    # repr-based formatting must survive the decimal roundtrip bit for bit
    p = tmp_path / "m.csv"
    write_matrix_csv(p, m)
    assert p.read_text() == "".join(",".join(map(repr, row)) + "\n" for row in m.tolist())
    back = read_matrix_csv(p)
    assert back.shape == m.shape
    assert back.tobytes() == m.tobytes()


def test_matrix_csv_rejects_vector():
    with pytest.raises(InputError):
        write_matrix_csv("unused.csv", np.zeros(3))


# --- the loadtxt reader against the row parser -------------------------------

def _row_parser(path, header: bool):
    """The readers' contract written with the row parser alone: what
    read_features_csv (header=True) and read_matrix_csv return or raise."""
    rows = io._read_rows(path)
    if not rows:
        raise InputError(f"{path}: no rows")
    first = rows[0][1]
    try:
        list(map(float, first))
        has_header = False
    except ValueError:
        has_header = header
    if has_header and len(rows) == 1:
        raise InputError(f"{path}: header but no data rows")
    data = io._parse_rows(path, rows[has_header:], len(first))
    if not header:
        return data
    if has_header and first[-1].strip().lower() == "weight":
        if data.shape[1] < 2:
            raise InputError(f"{path}: rows have no feature columns")
        return FeatureSet(data[:, :-1], data[:, -1])
    return FeatureSet(data)


def _outcome(read, *args):
    """The bytes a reader returns, or the class and message it raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = read(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, FeatureSet):
        return got.vectors.shape, got.vectors.tobytes(), got.weights.tobytes()
    return got.shape, got.tobytes()


_PAD = st.sampled_from(["", "", "", " ", "\t", "\xa0", "\x0c", "\x0b", "\u2007", "\x1c", "\x1f"])
_NUMBER = st.one_of(
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1_000", "inf", "-Infinity", "nan", "-nan", "+1e5", ".5", "1.", "-0.0",
                     "5e-324", "1e999", "١"]),
)
_WORD = st.sampled_from(['"1"', '"1,2"', '"', "#", "# 1", "1#", "a", "f0", "weight", "WEIGHT",
                         " Weight ", "", " ", "1 2", "0x10", "1d0", "\x00"])


@st.composite
def _csv_texts(draw):
    """CSV texts around valid grids: padded cells, headers, blank and
    whitespace-only lines, every line ending, and a few bad cells."""
    width = draw(st.integers(1, 4))
    cell = st.tuples(_PAD, _NUMBER, _PAD).map("".join)
    lines = [[draw(cell) for _ in range(width)] for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):  # a header, perhaps of another width
        head = max(1, width + draw(st.sampled_from([0, 0, 1, -1])))
        lines.insert(0, [draw(st.one_of(_WORD, cell)) for _ in range(head)])
    for _ in range(draw(st.integers(0, 2))):  # damage: a bad cell, a wider or a narrower row
        if lines:
            row = draw(st.sampled_from(lines))
            spot = draw(st.integers(0, len(row)))
            if draw(st.booleans()):
                row.insert(spot, draw(_WORD))
            elif draw(st.booleans()):
                row[spot - 1] = draw(_WORD)
            elif len(row) > 1:
                del row[spot - 1]
    text = [",".join(row) for row in lines]
    for _ in range(draw(st.integers(0, 2))):
        text.insert(draw(st.integers(0, len(text))), draw(st.sampled_from(["", "", " ", "\t"])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(text) + draw(st.sampled_from(["", end]))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_texts())
@example("a,b\n")
@example("\n\r\n")
@example(" WEIGHT \n1.0\n")
@example("\n\nf0,weight\n\n1,2\r\n3,4")
@example('"1",2\n3,4\n')
@example('"a\nb",weight\n1,2\n')
@example("1,2,\n3,4,\n")
@example("1\x1c,2\n")
@example("# 1,2\n3,4\n")
@example("1,2\n \n3,4\n")
@example("a,b\n1,2,3\n4,5,6\n")
def test_readers_match_the_row_parser(tmp_path, text):
    p = tmp_path / "f.csv"
    p.write_text(text, newline="")
    assert _outcome(read_features_csv, p) == _outcome(_row_parser, p, True)
    assert _outcome(read_matrix_csv, p) == _outcome(_row_parser, p, False)


def test_valid_files_never_take_the_row_parser(tmp_path, monkeypatch):
    # the slow path stays an error path: canonical files must not reach it
    def refuse(*args):
        raise AssertionError("row parser called on a valid file")

    rng = np.random.default_rng(5)
    fs = FeatureSet(rng.normal(size=(20, 6)), weights=rng.uniform(0.1, 2.0, size=20))
    write_features_csv(tmp_path / "w.csv", fs, include_weights=True)
    write_features_csv(tmp_path / "f.csv", fs)
    write_matrix_csv(tmp_path / "m.csv", fs.vectors)
    (tmp_path / "b.csv").write_text("\n 1.5 ,-inf\r\n\n\xa02,3e0\t\n")
    monkeypatch.setattr(io, "_read_rows", refuse)
    monkeypatch.setattr(io, "_parse_rows", refuse)
    back = read_features_csv(tmp_path / "w.csv")
    assert back.vectors.tobytes() == fs.vectors.tobytes()
    assert back.weights.tobytes() == fs.weights.tobytes()
    assert read_features_csv(tmp_path / "f.csv").vectors.tobytes() == fs.vectors.tobytes()
    assert read_matrix_csv(tmp_path / "m.csv").tobytes() == fs.vectors.tobytes()
    assert read_matrix_csv(tmp_path / "b.csv").tolist() == [[1.5, -np.inf], [2.0, 3.0]]


def test_quoted_files_are_read_by_the_csv_module_once(tmp_path, monkeypatch):
    calls = []
    read_rows = io._read_rows
    monkeypatch.setattr(io, "_read_rows", lambda path: calls.append(path) or read_rows(path))
    p = tmp_path / "q.csv"
    p.write_text('f0,"f1",weight\n1,"2",0.5\n3,4e0,2\n')
    back = read_features_csv(p)
    assert back.vectors.tolist() == [[1.0, 2.0], [3.0, 4.0]] and back.weights.tolist() == [0.5, 2.0]
    assert calls == [p]


def test_array_writers_match_the_cell_formatter(tmp_path):
    m = np.array([[-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308],
                  [1.0, -3.0, 1e16, 0.1, 1 / 3]])
    fs = FeatureSet(m, weights=[0.5, 2.0])
    write_matrix_csv(tmp_path / "m.csv", m)
    write_features_csv(tmp_path / "f.csv", fs)
    write_features_csv(tmp_path / "w.csv", fs, include_weights=True)
    header = [f"f{j}" for j in range(5)]
    for name, head, rows in [("m", None, m), ("f", header, m),
                             ("w", header + ["weight"], np.column_stack([m, fs.weights]))]:
        write_csv(tmp_path / "cells.csv", head, rows.tolist())  # a list takes _cell
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
    assert (tmp_path / "m.csv").read_bytes() == (
        b"-0.0,5e-324,2.2250738585072014e-308,1e+308,-1e+308\n"
        b"1.0,-3.0,1e+16,0.1,0.3333333333333333\n"
    )

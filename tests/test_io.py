import numpy as np
import pytest
from numpy.testing import assert_allclose

from hotpool import DenseTensor, FeatureSet, InputError
from hotpool.io import (
    read_features_csv,
    read_matrix_csv,
    read_tensor,
    write_features_csv,
    write_matrix_csv,
    write_tensor,
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


def test_features_csv_parse_error_coordinates(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(InputError, match=r"line 2, column 2"):
        read_features_csv(p)


def test_features_csv_ragged_row(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(InputError, match="line 2"):
        read_features_csv(p)


def test_features_csv_empty(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("")
    with pytest.raises(InputError, match="no rows"):
        read_features_csv(p)


def test_features_csv_roundtrip_with_weights(tmp_path):
    rng = np.random.default_rng(2)
    fs = FeatureSet(rng.normal(size=(4, 3)), weights=rng.uniform(0.1, 2.0, size=4))
    p = tmp_path / "f.csv"
    write_features_csv(p, fs, include_weights=True)
    back = read_features_csv(p)
    assert np.array_equal(back.vectors, fs.vectors)
    assert np.array_equal(back.weights, fs.weights)


def test_matrix_csv_roundtrip_exact(tmp_path):
    # repr-based formatting must survive the decimal roundtrip bit for bit
    rng = np.random.default_rng(9)
    m = rng.normal(size=(3, 5))
    m[0, 0] = 0.1
    p = tmp_path / "m.csv"
    write_matrix_csv(p, m)
    assert np.array_equal(read_matrix_csv(p), m)


def test_matrix_csv_rejects_vector():
    with pytest.raises(InputError):
        write_matrix_csv("unused.csv", np.zeros(3))

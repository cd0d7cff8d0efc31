import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hotpool import (
    DenseTensor,
    FeatureSet,
    HosvdFactors,
    InputError,
    SketchPlan,
    check_supersymmetric,
    frobenius_norm,
    inner,
    mode_product,
    outer_power,
    pool,
    refold,
    sym_eig,
    unfold,
)


def test_outer_power_basis_vector():
    t = outer_power([1.0, 0.0, 0.0], 2)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert_allclose(t.data, expected)
    assert t.supersymmetric


def test_outer_power_equal_coordinates():
    x = np.ones(3) / np.sqrt(3.0)
    t = outer_power(x, 3)
    assert t.dims == (3, 3, 3)
    assert_allclose(t.data, np.full((3, 3, 3), 3.0 ** -1.5), rtol=1e-15)


def test_outer_power_hand_entry():
    t = outer_power([1.0, 2.0], 3)
    # x2 * x2 * x1
    assert t.data[1, 1, 0] == 4.0


def test_outer_power_rejects_bad_inputs():
    with pytest.raises(InputError):
        outer_power([], 2)
    with pytest.raises(InputError):
        outer_power([1.0, 2.0], 1)
    with pytest.raises(InputError):
        outer_power([1.0, 2.0], 5)


def test_pool_single_vector():
    fs = FeatureSet([[1.0, 0.0]])
    t = pool(fs, 2)
    assert_allclose(t.data, [[1.0, 0.0], [0.0, 0.0]])


def test_pool_orthogonal_average():
    fs = FeatureSet([[1.0, 0.0], [0.0, 1.0]])
    t = pool(fs, 2)
    assert_allclose(t.data, np.diag([0.5, 0.5]))


def test_pool_weighted_matches_direct_sum():
    """Weighted order-3 pooling against an explicit loop."""
    rng = np.random.default_rng(11)
    phi = rng.normal(size=(2, 4))
    w = np.array([2.0, 1.0])
    fs = FeatureSet(phi, weights=w)
    t = pool(fs, 3)
    expected = np.zeros((4, 4, 4))
    for n in range(2):
        expected += w[n] ** 3 * np.einsum("i,j,k->ijk", phi[n], phi[n], phi[n])
    expected /= 2.0
    assert_allclose(t.data, expected, rtol=1e-13)


def test_pool_centers_on_mean():
    rng = np.random.default_rng(3)
    phi = rng.normal(size=(5, 3))
    mu = rng.normal(size=3)
    got = pool(FeatureSet(phi, mean=mu), 2)
    want = pool(FeatureSet(phi - mu), 2)
    assert_allclose(got.data, want.data, atol=1e-15)


def test_pool_is_permutation_invariant():
    rng = np.random.default_rng(7)
    phi = rng.normal(size=(6, 3))
    w = rng.uniform(0.5, 2.0, size=6)
    perm = rng.permutation(6)
    a = pool(FeatureSet(phi, weights=w), 3)
    b = pool(FeatureSet(phi[perm], weights=w[perm]), 3)
    # summation order may differ, so allow rounding-level slack
    assert_allclose(a.data, b.data, atol=1e-13)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_pool_output_is_supersymmetric(r):
    rng = np.random.default_rng(r)
    fs = FeatureSet(rng.normal(size=(5, 3)), weights=rng.uniform(0, 1, size=5))
    t = pool(fs, r)
    assert t.supersymmetric
    assert check_supersymmetric(t)


def _slice_pool(phi, w, r):
    """Order-r pooling written slice by slice: T[i, ..., :, :] is the sum
    over n of w_n^r phi_ni ... (phi_n phi_n^T), one (d, d) slice per
    leading index."""
    n, d = phi.shape
    out = np.empty((d,) * r)
    for idx in np.ndindex(*(d,) * (r - 2)):
        c = w**r * np.prod(phi[:, list(idx)], axis=1)
        out[idx] = (phi * c[:, None]).T @ phi
    return out / n


def _block_boundary_cases():
    """(r, d, N) with N in {1, b-1, b, b+1, 3b+2} for the row block b = d^(r-2)."""
    for r, d in ((2, 5), (3, 4), (4, 3)):
        b = d ** (r - 2)
        for n in sorted({max(1, m) for m in (1, b - 1, b, b + 1, 3 * b + 2)}):
            yield r, d, n


@pytest.mark.parametrize("r,d,n", list(_block_boundary_cases()))
def test_pool_matches_slice_reference_across_blocks(r, d, n):
    """Weighted, centered pooling against the slice-by-slice sum, at every
    row-block boundary of the blocked products."""
    rng = np.random.default_rng([r, d, n])
    phi = rng.normal(size=(n, d))
    w = rng.uniform(0.3, 1.7, size=n)
    mu = 0.5 * rng.normal(size=d)
    t = pool(FeatureSet(phi, weights=w, mean=mu), r)
    want = _slice_pool(phi - mu, w, r)
    assert np.max(np.abs(t.data - want)) <= 1e-12 * np.max(np.abs(want))
    assert check_supersymmetric(t)


def test_check_supersymmetric_rejects_asymmetric():
    a = np.zeros((2, 2, 2))
    a[0, 1, 1] = 1.0
    assert not check_supersymmetric(DenseTensor(a))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(2, 3), st.integers(0, 2**32 - 1),
       st.floats(0.0, 3.0), st.sampled_from([1.0, 50.0]))
def test_check_supersymmetric_bounds_every_permutation(r, d, seed, noise, scale):
    # a symmetric tensor plus noise near the tolerance: whenever the adjacent
    # transpositions pass, every permutation lies within tol
    rng = np.random.default_rng(seed)
    a = outer_power(rng.normal(size=d), r).data * scale
    a = a + noise * 1e-12 * scale * rng.uniform(-1.0, 1.0, size=a.shape)
    if not check_supersymmetric(DenseTensor(a)):
        return
    atol = 1e-12 * max(1.0, float(np.max(np.abs(a))))
    for perm in itertools.permutations(range(r)):
        assert np.max(np.abs(a - a.transpose(perm))) <= atol


@pytest.mark.parametrize("r", [2, 3, 4])
def test_check_supersymmetric_rejects_one_broken_transposition(r):
    # x (x) ... (x) x (x) y is symmetric under every adjacent swap but the last
    x, y = np.array([1.0, 0.5]), np.array([0.5, -1.0])
    a = y
    for _ in range(r - 1):
        a = np.multiply.outer(x, a)
    for k in range(r - 2):
        assert np.array_equal(a, a.swapaxes(k, k + 1))
    assert not check_supersymmetric(DenseTensor(a))


def test_check_supersymmetric_edge_is_tol_over_word_length():
    # at r = 3 each adjacent swap is held to tol/3: one entry off by
    # 0.3*tol passes, 0.4*tol (accepted before by the all-permutation check) fails
    for delta, ok in ((0.3e-12, True), (0.4e-12, False)):
        a = np.zeros((2, 2, 2))
        a[0, 1, 0] = delta
        assert check_supersymmetric(DenseTensor(a)) is ok


def test_frobenius_norm_basics():
    assert frobenius_norm(DenseTensor(np.zeros((2, 2)))) == 0.0
    x = np.array([3.0, 4.0]) / 5.0
    assert_allclose(frobenius_norm(outer_power(x, 3)), 1.0, rtol=1e-14)
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2, 2))
    assert_allclose(frobenius_norm(DenseTensor(a)), np.sqrt((a**2).sum()), rtol=1e-15)


def test_inner_basics():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3, 3))
    b = rng.normal(size=(3, 3, 3))
    ta, tb = DenseTensor(a), DenseTensor(b)
    assert inner(ta, DenseTensor(np.zeros((3, 3, 3)))) == 0.0
    assert inner(outer_power([1, 0], 3), outer_power([0, 1], 3)) == 0.0
    assert_allclose(inner(ta, tb), (a * b).sum(), rtol=1e-13)
    assert inner(ta, ta) == frobenius_norm(ta) ** 2 or np.isclose(
        inner(ta, ta), frobenius_norm(ta) ** 2, rtol=1e-15
    )


def test_inner_shape_mismatch():
    with pytest.raises(InputError):
        inner(DenseTensor(np.zeros((2, 2))), DenseTensor(np.zeros((3, 3))))


@pytest.mark.parametrize("r", [2, 3, 4])
def test_inner_of_outer_powers_is_dot_power(r):
    rng = np.random.default_rng(r + 10)
    x = rng.normal(size=4)
    y = rng.normal(size=4)
    got = inner(outer_power(x, r), outer_power(y, r))
    assert_allclose(got, np.dot(x, y) ** r, rtol=1e-10)


def test_mode_product_self_contraction():
    x = np.array([2.0, -1.0, 2.0]) / 3.0
    t = outer_power(x, 3)
    m = mode_product(t, x, 1)
    assert_allclose(m.data, np.outer(x, x), rtol=1e-14)
    assert m.supersymmetric


def test_mode_product_basis_slice():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 3, 3))
    t = DenseTensor(a)
    got = mode_product(t, [0.0, 1.0, 0.0], 1)
    assert_allclose(got.data, a[1, :, :], atol=1e-15)


def test_mode_product_matches_loop():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 3, 4))
    v = rng.normal(size=3)
    got = mode_product(DenseTensor(a), v, 2)
    expected = np.zeros((2, 4))
    for i in range(2):
        for j in range(3):
            for k in range(4):
                expected[i, k] += a[i, j, k] * v[j]
    assert_allclose(got.data, expected, rtol=1e-13)


def test_mode_product_errors():
    t = DenseTensor(np.zeros((2, 2, 2)))
    with pytest.raises(InputError):
        mode_product(t, [1.0, 2.0], 4)
    with pytest.raises(InputError):
        mode_product(t, [1.0, 2.0, 3.0], 1)


def test_unfold_rank_one():
    x = np.array([1.0, 2.0, -1.0])
    t = outer_power(x, 3)
    m1 = unfold(t, 1)
    outer = np.outer(x, x)
    assert_allclose(m1, np.outer(x, outer.ravel(order="F")), rtol=1e-14)


def test_unfoldings_share_singular_values():
    rng = np.random.default_rng(6)
    t = pool(FeatureSet(rng.normal(size=(6, 4))), 3)
    svs = [np.linalg.svd(unfold(t, mode), compute_uv=False) for mode in (1, 2, 3)]
    assert_allclose(svs[0], svs[1], rtol=1e-10)
    assert_allclose(svs[0], svs[2], rtol=1e-10)


@pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4), (2, 2, 3, 2)])
def test_unfold_refold_roundtrip(shape):
    rng = np.random.default_rng(len(shape))
    a = rng.normal(size=shape)
    t = DenseTensor(a)
    for mode in range(1, len(shape) + 1):
        back = refold(unfold(t, mode), mode, shape)
        assert np.array_equal(back.data, a)


def test_refold_shape_check():
    with pytest.raises(InputError):
        refold(np.zeros((3, 5)), 1, (3, 2, 2))


@pytest.mark.parametrize("r", [3.0, 2.5, "3", None, 1, 5, np.int64(5)])
def test_order_must_be_an_integer_in_range(r):
    fs = FeatureSet(np.eye(2))
    with pytest.raises(InputError, match="order must be an integer in 2..4"):
        pool(fs, r)
    with pytest.raises(InputError, match="order must be an integer in 2..4"):
        outer_power([1.0, 2.0], r)


def test_numpy_integer_order_accepted():
    x = np.array([1.0, 2.0])
    assert outer_power(x, np.int64(3)).dims == (2, 2, 2)
    assert pool(FeatureSet([x]), np.int32(2)).dims == (2, 2)


def _record_arrays():
    f = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    sq = np.asfortranarray(np.array([[2.0, 1.0], [1.0, 3.0]]))
    buckets, signs = np.array([1, 2, 1]), np.array([1.0, -1.0, 1.0])
    fs = FeatureSet(f, np.ones(2), np.zeros(3))
    plan = SketchPlan(3, 2, buckets, signs)
    eig = sym_eig(sq)
    hf = HosvdFactors(sq, f, 1.0)
    return [
        (fs.vectors, f), (fs.weights, None), (fs.mean, None),
        (DenseTensor(f).data, f), (hf.core, sq), (hf.factor, f),
        (eig.values, None), (eig.vectors, None),
        (plan.buckets, buckets), (plan.signs, signs),
    ]


def test_records_own_read_only_c_arrays():
    # every record copies into a fresh C-ordered array that cannot be written
    for arr, source in _record_arrays():
        assert not arr.flags.writeable
        assert arr.flags.c_contiguous
        if source is not None:
            assert not np.shares_memory(arr, source)
            assert np.array_equal(arr, source)
    assert _record_arrays()[-2][0].dtype == np.int64


def test_feature_set_validation():
    with pytest.raises(InputError):
        FeatureSet(np.zeros((0, 3)))
    with pytest.raises(InputError):
        FeatureSet([[1.0, 2.0]], weights=[-1.0])
    with pytest.raises(InputError):
        FeatureSet([[1.0, 2.0]], mean=[0.0, 0.0, 0.0])
    with pytest.raises(InputError):
        FeatureSet([[np.nan, 0.0]])
    fs = FeatureSet([[1.0, 2.0], [3.0, 4.0]])
    assert fs.count == 2 and fs.dim == 2
    assert_allclose(fs.weights, [1.0, 1.0])
    assert not fs.vectors.flags.writeable


def test_dense_tensor_validation():
    with pytest.raises(InputError):
        DenseTensor(np.zeros((2, 2, 2, 2, 2)))
    with pytest.raises(InputError):
        DenseTensor(np.array(1.0))
    with pytest.raises(InputError):
        DenseTensor(np.full((2, 2), np.inf))


def test_pool_kernel_linearization():
    # inner of two pooled tensors equals the weighted polynomial kernel sum
    rng = np.random.default_rng(12)
    phi = rng.normal(size=(3, 4))
    psi = rng.normal(size=(2, 4))
    r = 3
    a = pool(FeatureSet(phi), r)
    b = pool(FeatureSet(psi), r)
    direct = np.mean(np.dot(phi, psi.T) ** r)
    assert_allclose(inner(a, b), direct, rtol=1e-12)


def test_supersymmetry_across_all_permutations():
    rng = np.random.default_rng(13)
    t = pool(FeatureSet(rng.normal(size=(4, 3))), 4)
    for perm in itertools.permutations(range(4)):
        assert_allclose(t.data, t.data.transpose(perm), atol=1e-12)

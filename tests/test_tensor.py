import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hotpool import (
    DenseTensor,
    DomainError,
    EigenDecomposition,
    FeatureSet,
    HosvdFactors,
    InputError,
    PnSpec,
    SketchPlan,
    apply_epn_core,
    check_supersymmetric,
    frobenius_norm,
    hosvd_supersym,
    inner,
    mode_product,
    outer_power,
    pool,
    reconstruct,
    refold,
    sym_eig,
    unfold,
    unfolded_factor_vjp,
)
from hotpool import cli, hosvd, sketch, spectral, tensor


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


def _outer_pool(phi, w, r):
    """(1/N) sum_n w_n^r phi_n x ... x phi_n, one outer product per row."""
    return sum(w_n**r * functools.reduce(np.multiply.outer, [p] * r)
               for p, w_n in zip(phi, w)) / len(phi)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(1, 4), st.integers(1, 60),
       st.integers(0, 2**32 - 1))
@example(3, 4, 16, 0)  # N at the row block d^2,
@example(3, 4, 17, 1)  # one past it,
@example(4, 3, 28, 2)  # and over three blocks
def test_pool_matches_outer_products_and_mirrors_pairs(r, d, n, seed):
    """Weighted, centered pooling against the outer-product sum, with N
    below d and above d^(r-2) and d^2; the pair scheme makes T equal
    T.swapaxes(0, 1) bit for bit."""
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=(n, d))
    w = rng.uniform(0.0, 1.7, size=n)
    mu = 0.5 * rng.normal(size=d)
    t = pool(FeatureSet(phi, weights=w, mean=mu), r).data
    want = _outer_pool(phi - mu, w, r)
    assert np.max(np.abs(t - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)
    assert np.array_equal(t, t.swapaxes(0, 1))


def test_pool_peak_memory_within_result_plus_input():
    """Rows are summed in blocks, so at N = 20,000 the temporaries stay
    small next to the input and the result."""
    rng = np.random.default_rng(6)
    fs = FeatureSet(rng.normal(size=(20_000, 8)), weights=rng.uniform(0.1, 1.0, size=20_000))
    tracemalloc.start()
    try:
        t = pool(fs, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (t.data.nbytes + fs.vectors.nbytes)


def _pool_peak(fs, r):
    """tracemalloc peak of a second pool(fs, r), after the first has built its maps."""
    pool(fs, r)
    tracemalloc.start()
    try:
        pool(fs, r)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("r,n,d", [(2, 2000, 128), (3, 8000, 8), (4, 8000, 8)])
def test_only_identity_mean_and_weights_skip_the_centred_copy(r, n, d):
    """The default mean and weights, or a mean of +0.0 entries and unit weights, are read in
    place at every order (at r = 2 one phi^T phi on the stored vectors); a -0.0 mean entry or
    a weight one ulp above 1 makes the (N, d) centred copy."""
    x = np.random.default_rng([32, r]).normal(size=(n, d))
    ulp = np.ones(n)
    ulp[n // 2] = np.nextafter(1.0, 2.0)
    assert _pool_peak(FeatureSet(x), r) < n * d * 8 / 2
    assert _pool_peak(FeatureSet(x, weights=np.ones(n), mean=np.zeros(d)), r) < n * d * 8 / 2
    assert _pool_peak(FeatureSet(x, mean=np.full(d, -0.0)), r) >= n * d * 8
    assert _pool_peak(FeatureSet(x, weights=ulp), r) >= n * d * 8


def _centred_weighted_pool(features, r):
    """pool's body before it read default features in place, verbatim: every call centres
    and weights a fresh copy of the vectors."""
    phi = features.vectors - features.mean
    w = features.weights
    n, d = phi.shape
    if r == 2:
        phi *= w[:, None]  # phi is a fresh array, so q needs no second buffer
        data = phi.T @ phi
    elif r == 3:
        data = np.empty((d, d, d))
        for s in range(0, n, d * d):
            x, w3 = phi[s : s + d * d], w[s : s + d * d] ** 3
            xt = np.ascontiguousarray(x.T)  # so no GEMM below takes a transposed operand
            for i in range(d):
                part = (xt[i:] * (xt[i] * w3)) @ x
                data[i, i:] = part if s == 0 else data[i, i:] + part
        for i in range(d):
            data[i + 1 :, i] = data[i, i + 1 :]
    else:
        i, j = divmod(tensor._sym_packing(d, 2)[0], d)
        for s in range(0, n, d * d):
            xt = np.ascontiguousarray(phi[s : s + d * d].T)
            p = xt[i]
            p *= w[s : s + d * d] ** 2
            p *= xt[j]
            gram = p @ p.T if s == 0 else gram + p @ p.T
        del p, xt  # before the d^4 gather
        gram /= n  # m_2^2 divisions before the gather, not d^4 after it
        pair = tensor._sym_tables(d, 2)[0]
        # take along the last axis keeps the gather C-order, so the record adopts it uncopied
        return np.take(gram[pair], pair, axis=2)
    data /= n
    return data


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 4]),
       st.integers(1, 8).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d * d + 3))),
       st.integers(0, 2**32 - 1))
@example(3, (2, 7), 0)  # N = d^2 + 3 at r = 3,
@example(4, (3, 12), 1)  # and past one d^2 row block at r = 4
def test_pool_is_bitwise_the_centred_weighted_formula(r, dn, seed):
    """Default features, read in place, pool to the bits of the centring and weighting
    formula; so do a -0.0 mean and a weight one ulp above 1, which take that pass. Rows hold
    zeros of both signs, whole zero rows included, and N runs past the d^2 row block."""
    d, n = dn
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    x[rng.random((n, d)) < 0.3] = 0.0
    x[rng.random(n) < 0.2] = 0.0
    x = np.where(x == 0.0, np.copysign(0.0, rng.normal(size=(n, d))), x)
    ulp = np.ones(n)
    ulp[rng.integers(n)] = np.nextafter(1.0, 2.0)
    for fs in (FeatureSet(x), FeatureSet(x, mean=np.full(d, -0.0)), FeatureSet(x, weights=ulp)):
        got = pool(fs, r).data
        want = _centred_weighted_pool(fs, r)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


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
    u = np.asfortranarray(f.T)  # a (3, 2) factor for the 2 x 2 core
    hf = HosvdFactors(sq, u, 1.0)
    return [
        (fs.vectors, f), (fs.weights, None), (fs.mean, None),
        (DenseTensor(f).data, f), (hf.core, sq), (hf.factor, u),
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


def test_record_arrays_cannot_be_made_writable():
    # a record's arrays are views of its read-only copy, so the flag stays off
    arrays = _record_arrays()
    assert len(arrays) == 10
    for arr, _ in arrays:
        with pytest.raises(ValueError):
            arr.flags.writeable = True


def test_adopted_arrays_stay_frozen():
    # pool, hosvd_supersym, apply_epn_core, reconstruct, outer_power and
    # unfolded_factor_vjp hand records the arrays they just built, reshaped or
    # gathered ones included, and the buffer a view shares is frozen with it;
    # a record's core, expanded anew on each access, is frozen the same way
    rng = np.random.default_rng(14)
    arrays = []
    for r in (2, 3, 4):
        t = pool(FeatureSet(rng.normal(size=(20, 4))), r)
        f = hosvd_supersym(t)
        g = apply_epn_core(f, PnSpec("sigme", 4))
        assert f.core is not f.core and "core" not in vars(g)
        arrays += [t.data, f.entries, g.entries, f.core, g.core, reconstruct(g).data,
                   outer_power(np.ones(3), r).data]
    arrays.append(unfolded_factor_vjp(pool(FeatureSet(rng.normal(size=(20, 4))), 3),
                                      rng.normal(size=(4, 4))).data)
    for arr in arrays:
        assert arr.flags.c_contiguous and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flags.writeable = True


def test_adoption_never_copies(monkeypatch, tmp_path):
    """Every array the library hands a record as _Fresh is already C-order float64, so
    adopting it copies nothing: pool -> hosvd -> epn -> reconstruct -> dot at r = 2, 3, 4,
    and the CLI's `pool -r 4`."""
    fresh, owned = [], tensor._owned

    def spy(a, name, dtype=np.float64):
        if isinstance(a, tensor._Fresh):
            fresh.append((name, a.array.dtype, a.array.flags.c_contiguous))
        return owned(a, name, dtype)

    for module in (tensor, hosvd, spectral, sketch):
        monkeypatch.setattr(module, "_owned", spy)
    x = np.random.default_rng(16).normal(size=(30, 5))
    for r in (2, 3, 4):
        f = hosvd_supersym(pool(FeatureSet(x), r))
        g = apply_epn_core(f, PnSpec("sigme", 4))
        hosvd.tpe_dot_factored(g, f)
        hosvd.tpe_distance(reconstruct(g), reconstruct(f))
    src = tmp_path / "f.csv"
    np.savetxt(src, x, delimiter=",")
    assert cli.main(["pool", str(src), "-r", "4", "--out", str(tmp_path / "t.hotp")]) == 0
    assert {name for name, *_ in fresh} == {"tensor", "core", "weights", "mean"}
    assert all(dtype == np.float64 and c_order for _, dtype, c_order in fresh), fresh


def test_order4_pool_peak_memory_below_two_and_a_half_results():
    """The pair Gram is gathered straight into a C-order result, which the record adopts
    without a d^4 copy."""
    fs = FeatureSet(np.random.default_rng(17).normal(size=(500, 24)))
    assert _pool_peak(fs, 4) < 2.5 * 24**4 * 8


def test_records_compare_by_identity():
    """Records hold arrays, so == is identity, as for any object, and `in` works."""
    def pair(make):
        return make(), make()

    for a, b in (pair(lambda: FeatureSet(np.ones((2, 2)))),
                 pair(lambda: DenseTensor(np.ones(3))),
                 pair(lambda: HosvdFactors(np.eye(2), np.eye(2), 1.0)),
                 pair(lambda: EigenDecomposition(np.ones(2), np.eye(2))),
                 pair(lambda: SketchPlan(3, 2, np.array([1, 2, 1]), np.ones(3)))):
        assert a == a and not a == b and a != b
        assert a in [b, a] and a not in [b] and len({a, b}) == 2


def test_adopted_arrays_are_checked_finite():
    huge = HosvdFactors(np.full((2, 2, 2), 1e300), np.full((3, 2), 1e10), 1.0)
    for build in (lambda: pool(FeatureSet(np.full((3, 2), 1e120)), 3), lambda: reconstruct(huge)):
        with np.errstate(over="ignore"), pytest.raises(InputError, match="tensor must be finite"):
            build()


def test_a_hand_set_flag_is_checked_once():
    """tpe_distance and hosvd_supersym trust the flag, so a flag on data the library did
    not build is verified when the tensor is made; the library's own results are not."""
    a = np.random.default_rng(15).normal(size=(3, 3, 3))
    with pytest.raises(DomainError, match="flagged super-symmetric is not"):
        DenseTensor(a, supersymmetric=True)
    sym = sum(a.transpose(p) for p in itertools.permutations(range(3)))
    assert DenseTensor(sym, supersymmetric=True).supersymmetric
    assert not DenseTensor(a).supersymmetric
    assert mode_product(outer_power(np.ones(3), 3), np.ones(3), 1).supersymmetric


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

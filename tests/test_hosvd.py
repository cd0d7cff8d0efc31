import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hotpool import (
    DenseTensor,
    DomainError,
    FeatureSet,
    HosvdFactors,
    InputError,
    PnSpec,
    apply_epn_core,
    core_coefficient,
    core_coefficient_grad,
    detector_likelihood,
    frobenius_norm,
    hosvd_supersym,
    inner,
    kappa_for_order,
    outer_power,
    pool,
    reconstruct,
    tpe_distance,
    tpe_dot,
    tpe_dot_factored,
)
from hotpool.hosvd import _all_modes


def _pooled(seed, d, n=None):
    rng = np.random.default_rng(seed)
    n = 2 * d if n is None else n
    return pool(FeatureSet(rng.normal(size=(n, d))), 3)


def test_kappa_values():
    assert kappa_for_order(2) == 0.5
    assert_allclose(kappa_for_order(3), 3.0 ** -1.5, rtol=1e-16)
    assert kappa_for_order(4) == 0.0625
    with pytest.raises(InputError):
        kappa_for_order(1)


def test_hosvd_rank_one():
    x = np.array([2.0, 1.0, -2.0]) / 3.0
    f = hosvd_supersym(outer_power(x, 3))
    assert f.rank == 1
    assert_allclose(abs(f.core[0, 0, 0]), 1.0, rtol=1e-12)
    assert_allclose(np.abs(f.factor[:, 0]), np.abs(x), atol=1e-12)


def test_hosvd_zero_tensor():
    f = hosvd_supersym(DenseTensor(np.zeros((3, 3, 3)), supersymmetric=True))
    assert f.rank == 0
    back = reconstruct(f)
    assert np.array_equal(back.data, np.zeros((3, 3, 3)))


def test_hosvd_roundtrip_and_energy():
    t = _pooled(31, 6)
    f = hosvd_supersym(t)
    assert_allclose(f.factor.T @ f.factor, np.eye(f.rank), atol=1e-10)
    back = reconstruct(f)
    rel = frobenius_norm(DenseTensor(back.data - t.data)) / frobenius_norm(t)
    assert rel < 1e-9
    # orthogonal mode products preserve the coefficient energy
    assert abs(np.linalg.norm(f.core.ravel()) - frobenius_norm(t)) < 1e-9


def test_hosvd_rejects_asymmetric():
    a = np.zeros((3, 3, 3))
    a[0, 1, 2] = 1.0
    with pytest.raises(DomainError):
        hosvd_supersym(DenseTensor(a))


def test_hosvd_truncates_low_rank():
    # features spanning a 2-dimensional subspace of R^5
    rng = np.random.default_rng(32)
    basis = rng.normal(size=(2, 5))
    coeffs = rng.normal(size=(8, 2))
    t = pool(FeatureSet(coeffs @ basis), 3)
    f = hosvd_supersym(t)
    assert f.rank == 2
    rel = frobenius_norm(DenseTensor(reconstruct(f).data - t.data)) / frobenius_norm(t)
    assert rel < 1e-9


def test_core_coefficient_basics():
    u = np.zeros(4)
    u[0] = 1.0
    fs = FeatureSet([u])
    assert_allclose(core_coefficient(fs, u, u, u), 1.0, rtol=1e-15)
    v = np.zeros(4)
    v[1] = 1.0
    assert core_coefficient(FeatureSet([v]), u, u, u) == 0.0
    with pytest.raises(DomainError):
        core_coefficient(fs, 2.0 * u, u, u)


def test_core_coefficient_matches_hosvd_entry():
    rng = np.random.default_rng(33)
    fs = FeatureSet(rng.normal(size=(10, 5)))
    f = hosvd_supersym(pool(fs, 3))
    for (a, b, c) in [(0, 0, 0), (1, 2, 0), (3, 1, 4)]:
        got = core_coefficient(fs, f.factor[:, a], f.factor[:, b], f.factor[:, c])
        assert_allclose(got, f.core[a, b, c], atol=1e-9)


def test_core_entries_bounded_for_unit_features():
    """Off-diagonal core entries of unit-norm pools stay within kappa."""
    rng = np.random.default_rng(34)
    phi = rng.normal(size=(12, 5))
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    f = hosvd_supersym(pool(FeatureSet(phi), 3))
    k = f.rank
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if len({a, b, c}) == 3:
                    assert abs(f.core[a, b, c]) <= f.kappa + 1e-9


def _entry_bound(idx, r):
    """prod_k (m_k/r)^(m_k/2) over the multiplicities m_k of the index values."""
    return math.prod((m / r) ** (m / 2) for m in np.unique(idx, return_counts=True)[1])


@pytest.mark.parametrize("r", [2, 3, 4])
def test_core_entries_within_per_entry_bound(r):
    """Unit-norm, roughly aligned sets with weights <= 1: every core entry is
    within its per-entry bound, and repeated-index entries exceed kappa."""
    rng = np.random.default_rng(70 + r)
    phi = np.abs(rng.normal(size=(40, 5))) + 1.0
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    f = hosvd_supersym(pool(FeatureSet(phi, weights=rng.uniform(0.9, 1.0, size=40)), r))
    for idx in np.ndindex(f.core.shape):
        assert abs(f.core[idx]) <= _entry_bound(idx, r) + 1e-12
    assert np.max(np.abs(f.core)) > f.kappa


def test_per_entry_bound_attained():
    """x = sqrt(2/3) u + sqrt(1/3) v attains the (i, i, j) bound 2/(3 sqrt 3)."""
    u, v = np.eye(4)[0], np.eye(4)[1]
    x = np.sqrt(2.0 / 3.0) * u + np.sqrt(1.0 / 3.0) * v
    got = core_coefficient(FeatureSet([x]), u, u, v)
    assert_allclose(got, _entry_bound((0, 0, 1), 3), rtol=1e-14)
    assert_allclose(got, 2.0 / (3.0 * np.sqrt(3.0)), rtol=1e-14)


def test_detector_likelihood_values():
    k = 0.5
    assert detector_likelihood(0.0, k, 8) == 0.0
    assert detector_likelihood(k, k, 8) == 1.0
    assert detector_likelihood(0.5 * k, k, 2) == 0.75
    assert detector_likelihood(-0.5 * k, k, 2) == -0.75


def test_detector_likelihood_monotonicity():
    k = kappa_for_order(3)
    lams = np.linspace(0.0, k, 30)
    out = [detector_likelihood(l, k, 5) for l in lams]
    assert np.all(np.diff(out) > 0)
    ns = [1, 2, 4, 8, 16]
    out = [detector_likelihood(0.3 * k, k, n) for n in ns]
    assert np.all(np.diff(out) > 0)
    assert all(-1.0 <= v <= 1.0 for v in out)


def test_nan_direction_is_a_domain_error():
    # a NaN norm fails every comparison, so the unit check must not pass it
    u = np.array([1.0, 0.0, 0.0])
    fs = FeatureSet(np.eye(3))
    bad = np.array([np.nan, 0.0, 0.0])
    for fn in (core_coefficient, core_coefficient_grad):
        with pytest.raises(DomainError, match="unit norm"):
            fn(fs, u, bad, u)


_E0, _E1, _E2 = np.eye(3)


@pytest.mark.parametrize("fn", [core_coefficient, core_coefficient_grad])
@pytest.mark.parametrize("dirs, error, message", [
    ((2.0 * _E0, _E1, _E2), DomainError, "u must have unit norm"),
    ((_E0, 0.5 * _E1, _E2), DomainError, "v must have unit norm"),
    ((_E0, _E1, [np.nan, 0.0, 0.0]), DomainError, "w must have unit norm"),
    ((_E0, _E1, np.eye(3)), InputError, "w must be a vector"),
    ((_E0[:2], _E1[:2], _E2[1:]), InputError,
     "direction vectors must match the feature dimension"),
    ((_E0, _E1, [0.0, 0.0, 0.0, 1.0]), InputError,
     "direction vectors must match the feature dimension"),
])
def test_direction_validation_messages(fn, dirs, error, message):
    with pytest.raises(error) as info:
        fn(FeatureSet(np.eye(3)), *dirs)
    assert str(info.value) == message


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_detector_likelihood_rejects_non_finite(lam):
    with pytest.raises(DomainError, match="finite"):
        detector_likelihood(lam, 0.5, 3)


def test_detector_likelihood_clamp_and_errors():
    with pytest.warns(RuntimeWarning):
        assert detector_likelihood(0.5 + 1e-6, 0.5, 3) == 1.0
    # a sub-tolerance excess clamps silently
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert detector_likelihood(0.5 + 1e-12, 0.5, 3) == 1.0
    with pytest.raises(DomainError):
        detector_likelihood(0.1, 0.0, 3)
    with pytest.raises(DomainError):
        detector_likelihood(0.1, 0.5, 0.5)


def test_apply_epn_core_zero_and_peak():
    f = hosvd_supersym(DenseTensor(np.zeros((3, 3, 3)), supersymmetric=True))
    out = apply_epn_core(HosvdFactors(np.zeros((2, 2, 2)), np.eye(3, 2), f.kappa),
                         PnSpec("maxexp", 5))
    assert np.array_equal(out.core, np.zeros((2, 2, 2)))

    k = kappa_for_order(3)
    core = np.zeros((2, 2, 2))
    core[0, 0, 0] = k
    out = apply_epn_core(HosvdFactors(core, np.eye(3, 2), k), PnSpec("maxexp", 7))
    assert out.core[0, 0, 0] == 1.0
    assert np.all(out.core.ravel()[1:] == 0.0)


def test_apply_epn_core_smooth_vs_saturating():
    # eta' = 2*eta matches the slope at zero; the worst-case difference over
    # the full coefficient range sits near the origin at about 0.1238
    k = kappa_for_order(3)
    grid = np.linspace(-k, k, 100_001)
    base = HosvdFactors(grid, np.eye(1), k)
    hard = apply_epn_core(base, PnSpec("maxexp", 20))
    soft = apply_epn_core(base, PnSpec("sigme", 40))
    diff = float(np.max(np.abs(hard.core - soft.core)))
    assert_allclose(diff, 0.1237935033, atol=1e-6)


def test_apply_epn_core_rejects_even_kinds():
    f = HosvdFactors(np.zeros((2, 2, 2)), np.eye(3, 2), kappa_for_order(3))
    for kind, param in [("gamma", 0.5), ("hdp", 0.2), ("grassmann", 1)]:
        with pytest.raises(DomainError, match="odd"):
            apply_epn_core(f, PnSpec(kind, param))


def test_apply_epn_core_kappa_excess():
    k = kappa_for_order(3)
    over = HosvdFactors(np.full((1, 1, 1), k + 1e-6), np.eye(3, 1), k)
    with pytest.raises(DomainError, match="kappa"):
        apply_epn_core(over, PnSpec("maxexp", 4))
    near = HosvdFactors(np.full((1, 1, 1), k + 1e-12), np.eye(3, 1), k)
    out = apply_epn_core(near, PnSpec("maxexp", 4))
    assert out.core[0, 0, 0] == 1.0


def test_reconstruct_single_entry():
    rng = np.random.default_rng(35)
    q, _ = np.linalg.qr(rng.normal(size=(5, 3)))
    core = np.zeros((3, 3, 3))
    core[1, 0, 2] = -0.7
    t = reconstruct(HosvdFactors(core, q, kappa_for_order(3)))
    want = -0.7 * np.einsum("i,j,k->ijk", q[:, 1], q[:, 0], q[:, 2])
    assert_allclose(t.data, want, atol=1e-14)


def test_reconstruct_shape_check():
    with pytest.raises(InputError):
        reconstruct(HosvdFactors(np.zeros((2, 2, 2)), np.eye(4, 3), kappa_for_order(3)))


@pytest.mark.parametrize("r", [2, 3, 4])
def test_rank_zero_products(r):
    """A zero tensor factors to rank 0, and every product with it is zero."""
    zero = hosvd_supersym(DenseTensor(np.zeros((4,) * r), supersymmetric=True))
    one = hosvd_supersym(outer_power(np.array([2.0, 1.0, -2.0, 0.0]) / 3.0, r))
    assert (zero.rank, one.rank) == (0, 1)
    assert tpe_dot_factored(zero, one) == 0.0
    assert tpe_dot_factored(one, zero) == 0.0
    for spec in (PnSpec("maxexp", 4), PnSpec("sigme", 4)):
        back = reconstruct(apply_epn_core(zero, spec))
        assert np.array_equal(back.data, np.zeros((4,) * r))


@pytest.mark.parametrize("r", [2, 3, 4])
def test_all_modes_non_square_factor(r):
    """Every-mode product with a (d, d') factor, d' < d, on an asymmetric
    tensor, against per-axis tensordot."""
    rng = np.random.default_rng(80 + r)
    a = rng.normal(size=(5,) * r)
    mat = rng.normal(size=(5, 3))
    want = a
    for axis in range(r):
        want = np.moveaxis(np.tensordot(want, mat, axes=([axis], [0])), -1, axis)
    got = _all_modes(a, mat)
    assert got.shape == (3,) * r
    assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def _epn_pipeline(seed, d):
    f = hosvd_supersym(_pooled(seed, d))
    return apply_epn_core(f, PnSpec("sigme", 6))


def test_tpe_dot_self_is_squared_norm():
    g = reconstruct(_epn_pipeline(36, 4))
    assert_allclose(tpe_dot(g, g), frobenius_norm(g) ** 2, rtol=1e-13)


def test_tpe_dot_disjoint_blocks():
    a = np.zeros(4)
    a[0] = 1.0
    b = np.zeros(4)
    b[2] = 1.0
    assert tpe_dot(outer_power(a, 3), outer_power(b, 3)) == 0.0


def test_tpe_dot_factored_matches_dense():
    for seed in range(5):
        fx = _epn_pipeline(40 + seed, 5)
        fy = _epn_pipeline(50 + seed, 5)
        dense = tpe_dot(reconstruct(fx), reconstruct(fy))
        assert abs(tpe_dot_factored(fx, fy) - dense) < 1e-9


def test_tpe_dot_factored_mismatch_errors():
    fx = _epn_pipeline(41, 4)
    fy = _epn_pipeline(42, 5)
    with pytest.raises(InputError):
        tpe_dot_factored(fx, fy)


def test_subspace_expansion_with_distinct_factors():
    """The alignment double sum holds with three unrelated factor sets."""
    rng = np.random.default_rng(43)
    d, k = 5, 2

    def build():
        u, _ = np.linalg.qr(rng.normal(size=(d, k)))
        v, _ = np.linalg.qr(rng.normal(size=(d, k)))
        w, _ = np.linalg.qr(rng.normal(size=(d, k)))
        c = rng.normal(size=(k, k, k))
        dense = np.einsum("pqr,ip,jq,kr->ijk", c, u, v, w)
        return c, (u, v, w), dense

    c1, (u1, v1, w1), g1 = build()
    c2, (u2, v2, w2), g2 = build()
    direct = float(np.sum(g1 * g2))
    total = 0.0
    for p in range(k):
        for q in range(k):
            for r in range(k):
                for pp in range(k):
                    for qq in range(k):
                        for rr in range(k):
                            total += (
                                c1[p, q, r]
                                * c2[pp, qq, rr]
                                * np.dot(u1[:, p], u2[:, pp])
                                * np.dot(v1[:, q], v2[:, qq])
                                * np.dot(w1[:, r], w2[:, rr])
                            )
    assert abs(total - direct) < 1e-9


def test_tpe_distance_metric_properties():
    ga = reconstruct(_epn_pipeline(44, 4))
    gb = reconstruct(_epn_pipeline(45, 4))
    gc = reconstruct(_epn_pipeline(46, 4))
    assert tpe_distance(ga, ga) == 0.0
    assert tpe_distance(ga, gb) == tpe_distance(gb, ga)
    assert tpe_distance(ga, gb) > 0
    lhs = tpe_distance(ga, gc)
    rhs = tpe_distance(ga, gb) + tpe_distance(gb, gc)
    assert lhs <= rhs + 1e-9
    assert_allclose(
        tpe_distance(ga, gb),
        np.linalg.norm((ga.data - gb.data).ravel()),
        rtol=1e-14,
    )
    with pytest.raises(InputError):
        tpe_distance(ga, reconstruct(_epn_pipeline(47, 5)))


def _ref_core(core, kappa, spec):
    """The core maps written out: signed saturation and tanh of core/kappa."""
    x = core / kappa
    if spec.kind == "maxexp":
        x = np.clip(x, -1.0, 1.0)
        return np.sign(x) * (1.0 - (1.0 - np.abs(x)) ** spec.param)
    return np.tanh(0.5 * spec.param * x)


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("spec", [PnSpec("maxexp", 1.0), PnSpec("maxexp", 7.5),
                                  PnSpec("sigme", 1.0), PnSpec("sigme", 40.0)])
def test_apply_epn_core_matches_reference_exactly(r, spec):
    k = kappa_for_order(r)
    rng = np.random.default_rng(100 + r)
    core = rng.uniform(-k, k, size=(3,) * r)
    flat = core.reshape(-1)
    # exact peaks, signed zeros, and a sub-tolerance excess that is clipped
    flat[:5] = [k, -k, 0.0, -0.0, k + 1e-12]
    f = HosvdFactors(core, np.eye(4, 3), k)
    got = apply_epn_core(f, spec).core
    assert np.array_equal(got, _ref_core(core, k, spec))


def test_apply_epn_core_pooled_matches_reference_exactly():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(40, 4))
    x *= 0.5 / np.linalg.norm(x, axis=1, keepdims=True)
    for r in (2, 3, 4):
        f = hosvd_supersym(pool(FeatureSet(x), r))
        for spec in (PnSpec("maxexp", 6.0), PnSpec("sigme", 6.0)):
            assert np.array_equal(apply_epn_core(f, spec).core, _ref_core(f.core, f.kappa, spec))


def test_detector_likelihood_matches_reference_exactly():
    for kappa in (kappa_for_order(3), 0.5, 2.0):
        for n in (1, 2, 3.5, 20):
            for lam in np.linspace(-kappa, kappa, 41):
                ref = float(np.sign(lam) * (1.0 - (1.0 - abs(lam) / kappa) ** n))
                assert detector_likelihood(lam, kappa, n) == ref

import ast
import dataclasses
import itertools
import math
import tracemalloc
from collections import Counter, OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hotpool import (
    DenseTensor,
    DomainError,
    FeatureSet,
    HosvdFactors,
    InputError,
    PnSpec,
    apply_epn_core,
    check_supersymmetric,
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
import hotpool
from hotpool import hosvd, tensor
from hotpool.hosvd import _all_modes
from hotpool.spectral import _OPS
from hotpool.tensor import _sym_packing, _sym_tables


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
    # the full coefficient range sits near the origin at about 0.1238. The grid is the
    # upper triangle of a symmetric (447, 447) core, padded with zeros
    k = kappa_for_order(3)
    core = np.zeros((447, 447))
    iu = np.triu_indices(447)
    core[iu] = np.concatenate([np.linspace(-k, k, 100_001), np.zeros(iu[0].size - 100_001)])
    core.T[iu] = core[iu]
    base = HosvdFactors(core, np.eye(447), k)
    hard = apply_epn_core(base, PnSpec("maxexp", 20))
    soft = apply_epn_core(base, PnSpec("sigme", 40))
    diff = float(np.max(np.abs(hard.core - soft.core)))
    assert_allclose(diff, 0.1237935033, atol=1e-6)


def test_apply_epn_core_maps_every_pointwise_kind():
    """Even kinds keep each sign too; grassmann, not a pointwise map, is refused."""
    k = kappa_for_order(3)
    f = HosvdFactors(_symmetric([-k / 4, 0.0, -0.0, 4 * k], 2, 3), np.eye(3, 2), k)
    gamma = apply_epn_core(f, PnSpec("gamma", 0.5)).entries
    assert gamma.tolist() == [-0.5, 0.0, -0.0, 2.0] and np.signbit(gamma[2])
    hdp = apply_epn_core(f, PnSpec("hdp", 0.2)).entries
    assert_allclose(hdp, [-math.exp(-0.8), 0.0, -0.0, math.exp(-0.05)], rtol=1e-15)
    assert np.signbit(hdp).tolist() == [True, False, True, False]
    with pytest.raises(DomainError) as exc:
        apply_epn_core(f, PnSpec("grassmann", 1))
    assert str(exc.value) == "grassmann is a subspace projector, not a pointwise map"


def test_apply_epn_core_kappa_excess():
    k = kappa_for_order(3)
    over = HosvdFactors(np.full((1, 1, 1), k + 1e-6), np.eye(3, 1), k)
    with pytest.raises(DomainError, match="kappa"):
        apply_epn_core(over, PnSpec("maxexp", 4))
    near = HosvdFactors(np.full((1, 1, 1), k + 1e-12), np.eye(3, 1), k)
    out = apply_epn_core(near, PnSpec("maxexp", 4))
    assert out.core[0, 0, 0] == 1.0


def test_reconstruct_single_entry():
    """One sorted tuple, (0, 1, 2), set on each of its six index permutations."""
    rng = np.random.default_rng(35)
    q, _ = np.linalg.qr(rng.normal(size=(5, 3)))
    core = np.zeros((3, 3, 3))
    for p in itertools.permutations(range(3)):
        core[p] = -0.7
    t = reconstruct(HosvdFactors(core, q, kappa_for_order(3)))
    want = -0.7 * sum(np.einsum("i,j,k->ijk", *q[:, list(p)].T)
                      for p in itertools.permutations(range(3)))
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
    got = _all_modes(a, mat, r)
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
    # a core that does not match its own factor, or a factor that is not a matrix, is
    # refused where the record is made
    with pytest.raises(InputError, match=r"core dims \(2, 2, 2\) do not match factor rank 3"):
        HosvdFactors(np.ones((2, 2, 2)), np.eye(4, 3), kappa_for_order(3))
    packed = HosvdFactors(np.ones((2, 2, 2)), np.eye(4, 2), kappa_for_order(3))
    with pytest.raises(InputError, match="core dims"):
        HosvdFactors(hosvd._Packed(packed.entries, (2, 2, 2)), np.eye(4, 3), 1.0)
    for factor in (np.ones(2), np.ones((4, 2, 1))):
        with pytest.raises(InputError, match="factor must be a matrix"):
            HosvdFactors(np.ones((2, 2, 2)), factor, kappa_for_order(3))


def _sym_record(rng, r, d, dprime):
    """A record with a super-symmetric random core and a random (d, d') factor."""
    core = rng.normal(size=(dprime,) * r)
    core = sum(core.transpose(p) for p in itertools.permutations(range(r)))
    return HosvdFactors(core, rng.normal(size=(d, dprime)), kappa_for_order(r))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(1, 6), st.data(), st.integers(0, 2**32 - 1))
def test_tpe_dot_factored_matches_dense_on_packed_records(r, d, data, seed):
    rng = np.random.default_rng(seed)
    fx = _sym_record(rng, r, d, data.draw(st.integers(0, d)))
    fy = _sym_record(rng, r, d, data.draw(st.integers(0, d)))
    tx, ty = reconstruct(fx), reconstruct(fy)
    dense = tpe_dot(tx, ty)
    tol = 1e-12 * frobenius_norm(tx) * frobenius_norm(ty)
    for a, b in ((fx, fy), (fy, fx)):
        got = tpe_dot_factored(a, b)
        assert abs(got - dense) <= tol
        assert tpe_dot_factored(a, b) == got


def _count_ambient_builds(monkeypatch):
    """Record, in order, each record whose d^r ambient tensor hosvd builds."""
    calls = []
    ambient = hosvd._ambient
    monkeypatch.setattr(hosvd, "_ambient", lambda f: calls.append(f) or ambient(f))
    return calls


def test_gallery_dots_build_each_record_once(monkeypatch):
    query = _epn_pipeline(60, 4)
    gallery = [_epn_pipeline(61 + k, 4) for k in range(8)]
    calls = _count_ambient_builds(monkeypatch)
    first = [tpe_dot_factored(query, e) for e in gallery]
    assert [tpe_dot_factored(query, e) for e in gallery] == first
    assert calls == [query] + gallery


def test_query_ambient_tensor_built_once(monkeypatch):
    """reconstruct memoizes on the record, and the query's first dot gathers
    from that reconstruction instead of forming the ambient tensor again."""
    query = _epn_pipeline(60, 4)
    gallery = [_epn_pipeline(61 + k, 4) for k in range(8)]
    calls = _count_ambient_builds(monkeypatch)
    rec = reconstruct(query)
    assert reconstruct(query) is rec
    dots = [tpe_dot_factored(query, e) for e in gallery]
    assert sum(f is query for f in calls) == 1
    assert query._packed is rec._packed  # one packed vector per reconstruction
    assert len(calls) == 9 and len({id(f) for f in calls}) == 9
    assert dots == [tpe_dot_factored(e, query) for e in gallery]


def test_reconstructed_query_dot_peak_memory_below_one_ambient_tensor():
    rng = np.random.default_rng(62)
    g, e = (apply_epn_core(hosvd_supersym(pool(FeatureSet(rng.normal(size=(40, 24))), 4)),
                           PnSpec("sigme", 4)) for _ in range(2))
    tpe_dot_factored(e, e)
    reconstruct(g)
    tracemalloc.start()
    try:
        tpe_dot_factored(g, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24**4 * 8


def test_records_carry_the_supersymmetric_flag():
    """Every record is super-symmetric, so none carries a flag; its reconstruction does."""
    f = _epn_pipeline(63, 4)
    assert "supersymmetric" not in {field.name for field in dataclasses.fields(HosvdFactors)}
    assert not hasattr(f, "supersymmetric")
    assert reconstruct(f).supersymmetric
    built = HosvdFactors(f.core, f.factor, f.kappa)  # a dense core, checked and packed
    assert np.array_equal(built.entries, f.entries) and built.core_shape == f.core_shape
    assert reconstruct(apply_epn_core(built, PnSpec("sigme", 4))).supersymmetric
    assert tpe_dot_factored(built, f) == tpe_dot_factored(f, f)


def test_factored_dot_refuses_unflagged_asymmetric_core():
    """An asymmetric core is refused when the record is built, before any dot; a core
    within check_supersymmetric's tolerance is packed and keeps its sorted-tuple entries."""
    rng = np.random.default_rng(0)
    core = rng.normal(size=(3, 3, 3))
    assert not check_supersymmetric(DenseTensor(core))
    with pytest.raises(DomainError, match="core is not super-symmetric"):
        HosvdFactors(core, np.eye(3), 1.0)
    near = _sym_record(rng, 3, 3, 3).core.copy()
    near[0, 1, 2] += 1e-14
    flat = _sym_packing(3, 3)[0]
    assert np.array_equal(HosvdFactors(near, np.eye(3), 1.0).entries, near.ravel()[flat])


def _sorted_tuples(d, r):
    """Flat positions and counts r!/prod m_k! of the sorted index tuples, from itertools."""
    tuples = list(itertools.combinations_with_replacement(range(d), r))
    flat = [int(np.ravel_multi_index(t, (d,) * r)) for t in tuples]
    counts = [math.factorial(r) // math.prod(math.factorial(m) for m in Counter(t).values())
              for t in tuples]
    return flat, counts


def _symmetric(values, d, r):
    """The (d,)*r array whose entry at every index tuple is values[q], q the number of the
    tuple's sorted form: exactly super-symmetric, written without tensor's maps."""
    number = {t: q for q, t in enumerate(itertools.combinations_with_replacement(range(d), r))}
    out = np.empty((d,) * r)
    for idx in np.ndindex(out.shape):
        out[idx] = values[number[tuple(sorted(idx))]]
    return out


def test_sym_index_lists_sorted_tuples_and_multinomials():
    for d, r in itertools.product(range(1, 6), range(5)):
        flat, count = _sym_packing.__wrapped__(d, r)  # the builder, past the store
        assert (flat.tolist(), count.tolist()) == _sorted_tuples(d, r)


def test_sym_index_peak_memory_below_one_ambient_tensor():
    tracemalloc.start()
    try:
        _sym_packing.__wrapped__(24, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24**4 * 8


@pytest.mark.parametrize("d, r", [(24, 4), (64, 3)])
@pytest.mark.parametrize("spec", [PnSpec("maxexp", 20.0), PnSpec("sigme", 4.0)])
def test_apply_epn_core_peak_memory_below_twice_the_output(d, r, spec):
    rng = np.random.default_rng(64)
    x = rng.normal(size=(2 * d, d))
    x *= 0.5 / np.linalg.norm(x, axis=1, keepdims=True)
    f = hosvd_supersym(pool(FeatureSet(x), r))
    apply_epn_core(f, spec)  # builds the maps
    tracemalloc.start()
    try:
        out = apply_epn_core(f, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.rank == d and peak <= 2 * out.core.nbytes


@pytest.mark.parametrize("d, r", [(48, 3), (64, 3), (24, 4)])
def test_sym_map_builds_peak_below_four_times_the_kept_bytes(d, r):
    """Every m-length array a build holds is in its smallest dtype (indices < d, runs <= r,
    table entries < m_k): 0.65 and 0.80 MiB at (64, 3), not 2.11 and 2.38 MiB in intp."""
    for build in (_sym_packing.__wrapped__, _sym_tables.__wrapped__):
        tracemalloc.start()
        try:
            kept = sum(a.nbytes for a in build(d, r))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * kept


def test_sym_maps_are_compact_read_only_and_complete():
    for d, r in [(32, 3), (64, 3), (24, 4), (3, 2), (1, 4), (80, 3)]:
        flat, count = _sym_packing(d, r)
        tables = _sym_tables(d, r)
        m = math.comb(d + r - 1, r)
        assert (flat.tolist(), count.tolist()) == _sorted_tuples(d, r)
        assert flat.dtype == np.min_scalar_type(d**r - 1) and count.dtype == np.uint8
        assert [t.shape for t in tables] == [(math.comb(d + k - 2, k - 1), d) for k in range(2, r + 1)]
        assert tables[-1].dtype == (np.uint8 if m <= 256 else np.uint16 if m <= 65536 else np.uint32)
        for a in (flat, count, *tables):
            with pytest.raises(ValueError):
                a.flags.writeable = True
        # gathering the numbers 0 .. m-1 through the tables numbers every index tuple by its
        # sorted tuple
        number = np.arange(m)
        for t in reversed(tables):
            number = number[t]
        ordered = np.sort(np.unravel_index(np.arange(d**r), (d,) * r), axis=0)
        assert np.array_equal(flat[number.ravel()], np.ravel_multi_index(ordered, (d,) * r))
    assert [t.shape for t in _sym_tables(0, 3)] == [(0, 0), (0, 0)]  # a rank-0 core


def test_sym_maps_are_bounded_by_bytes(monkeypatch):
    monkeypatch.setattr(tensor, "_maps", OrderedDict())
    monkeypatch.setattr(tensor, "_MAP_BYTES", 240_000)
    first = _sym_tables(24, 4)
    assert sum(t.nbytes for t in first) == 140_352
    assert sum(a.nbytes for a in _sym_packing(24, 4)) == 87_750
    assert _sym_tables(24, 4) is first  # a hit, now the most recently used
    _sym_packing(32, 3)  # 17,952 bytes more: the least recently used goes
    assert list(tensor._maps) == [("_sym_tables", 24, 4), ("_sym_packing", 32, 3)]
    assert sum(t.nbytes for t in _sym_tables(64, 3)) > 240_000  # returned, not kept
    assert list(tensor._maps) == [("_sym_tables", 24, 4), ("_sym_packing", 32, 3)]


def test_factored_dot_builds_no_tables(monkeypatch):
    """A rank-truncated record's packed dot builds no tables at the ambient shape: it
    expands the core's rows through the core shape's tables and reads only the ambient
    packing. hosvd_supersym reads the maps of the (r-1)-tuples alone, at d for its first
    product's rows and at d' for its last product's columns; apply_epn_core reads none."""
    monkeypatch.setattr(tensor, "_maps", OrderedDict())
    x = np.random.default_rng(5).normal(size=(5, 9))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    f = hosvd_supersym(pool(FeatureSet(x), 3))
    factored = [("_sym_packing", 9, 2), ("_sym_tables", 9, 2), ("_sym_packing", 5, 2)]
    assert f.rank == 5 and list(tensor._maps) == factored
    g = apply_epn_core(f, PnSpec("sigme", 4.0))
    assert list(tensor._maps) == factored
    tpe_dot_factored(f, f)
    maps = factored + [("_sym_tables", 5, 3), ("_sym_tables", 5, 2), ("_sym_packing", 9, 3)]
    assert list(tensor._maps) == maps
    tpe_dot_factored(g, f)
    assert set(tensor._maps) == set(maps)


def test_packed_map_keeps_the_kappa_refusal():
    f = hosvd_supersym(outer_power(np.eye(3)[0], 3))
    assert f.entries.shape == (1,) and abs(f.core.item()) == 1.0
    with pytest.raises(DomainError, match="exceeds kappa"):
        apply_epn_core(f, PnSpec("maxexp", 4))
    g = apply_epn_core(f, PnSpec("sigme", 4))
    assert g.entries.shape == (1,) and g.core_shape == (1, 1, 1)


def test_flagged_records_have_cubic_cores():
    """Every record's core is super-symmetric, so a dense core must be cubic of order 2..4."""
    for core in (np.zeros((2, 3, 3)), np.zeros(2), np.zeros(()), np.zeros((2,) * 5)):
        with pytest.raises(InputError, match="a core must be cubic of order 2 to 4, not"):
            HosvdFactors(core, np.eye(3, 2), 1.0)


def test_sorted_index_layout_is_defined_in_tensor_alone():
    """The sorted tuples are numbered in one place: the maps are defined in tensor only,
    _sym_index is gone, and no other module builds a pair numbering of its own."""
    defined, triu = set(), set()
    for path in sorted(Path(hotpool.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in (
                    "_sym_index", "_sym_packing", "_sym_tables"):
                defined.add((path.stem, node.name))
            if isinstance(node, ast.Call) and "triu_indices" in (
                    getattr(node.func, "attr", None), getattr(node.func, "id", None)):
                triu.add(path.stem)
    assert defined == {("tensor", "_sym_packing"), ("tensor", "_sym_tables")}
    assert triu <= {"tensor"}


def test_core_expansion_is_defined_in_tensor_alone():
    """A packed core is laid out densely in one place: _sym_expand is defined in tensor
    only, and no other module reads the insertion tables it gathers through."""
    defined, tables = set(), set()
    for path in sorted(Path(hotpool.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "_sym_expand":
                defined.add(path.stem)
            if "_sym_tables" in (getattr(node, "id", None), getattr(node, "attr", None),
                                 getattr(node, "name", None)):
                tables.add(path.stem)
    assert defined == {"tensor"} and tables == {"tensor"}


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
    values = rng.uniform(-k, k, size=math.comb(r + 2, r))
    # exact peaks, signed zeros, and a sub-tolerance excess that is clipped
    values[:5] = [k, -k, 0.0, -0.0, k + 1e-12]
    core = _symmetric(values, 3, r)
    f = HosvdFactors(core, np.eye(4, 3), k)
    got = apply_epn_core(f, spec).core
    assert np.array_equal(got, _ref_core(core, k, spec))


def _assert_packed_map(f, spec):
    """A flagged record's map: exact on its sorted-tuple entries, exactly
    super-symmetric, and within rounding of the map of every entry."""
    got = apply_epn_core(f, spec).core
    want = _ref_core(f.core, f.kappa, spec)
    flat = _sym_packing(f.core.shape[0], f.order)[0]
    assert got.shape == want.shape
    assert np.array_equal(got.ravel()[flat], want.ravel()[flat])
    assert got.size == 0 or check_supersymmetric(DenseTensor(got), tol=0)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-14


@settings(max_examples=80, deadline=None)
@given(r=st.sampled_from([2, 3, 4]), d=st.integers(1, 6), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_packed_records_match_the_dense_references(r, d, data, seed):
    """A record built from an exactly super-symmetric core gives that core back bit for bit,
    and reconstruct, apply_epn_core and tpe_dot_factored match dense references."""
    rng = np.random.default_rng(seed)
    dprime = data.draw(st.integers(0, min(d, 6)))
    k = kappa_for_order(r)
    cores = [_symmetric(rng.uniform(-k, k, size=math.comb(dprime + r - 1, r)), dprime, r)
             for _ in range(2)]
    factors = [rng.normal(size=(d, dprime)) for _ in range(2)]
    fx, fy = (HosvdFactors(c, u, k) for c, u in zip(cores, factors))
    assert np.array_equal(fx.core, cores[0]) and fx.core.shape == (dprime,) * r
    refs = []
    for f, core, u in zip((fx, fy), cores, factors):
        ref = core
        for axis in range(r):
            ref = np.moveaxis(np.tensordot(ref, u, axes=([axis], [1])), -1, axis)
        got = reconstruct(f).data
        assert got.shape == (d,) * r
        scale = max(1.0, np.max(np.abs(ref), initial=0.0))
        assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * scale
        refs.append(ref)
    for spec in (PnSpec("maxexp", 7.5), PnSpec("sigme", 4.0)):
        assert np.array_equal(apply_epn_core(fx, spec).core, _ref_core(cores[0], k, spec))
    dense = float(np.vdot(*refs))
    assert abs(tpe_dot_factored(fx, fy) - dense) <= 1e-12 * (
        np.linalg.norm(refs[0]) * np.linalg.norm(refs[1]) + 1e-300)


def _dense_modes(a, mat):
    """Every axis of a contracted in turn with mat's first axis, each step one dense GEMM
    over all d^(r-1) rows: the reference the symmetric end steps are held to."""
    for _ in range(a.ndim):
        rest = a.shape[1:]
        a = (a.reshape(a.shape[0], math.prod(rest)).T @ mat).reshape(rest + (mat.shape[1],))
    return a


@settings(max_examples=120, deadline=None)
@given(r=st.sampled_from([2, 3, 4]), d=st.integers(1, 9), data=st.data(),
       weights=st.sampled_from(["ones", "uniform", "zeros"]), seed=st.integers(0, 2**32 - 1))
def test_symmetric_end_steps_match_the_dense_products(r, d, data, weights, seed):
    """hosvd_supersym's packed entries equal the dense projection through its own factor,
    and reconstruct the dense mode products of the record's core, to 1e-13 of the largest
    entry. Pools of n < d rows give rank-truncated records, zero weights rank-0 ones, and
    hand-built records take any d' <= d."""
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(1, d + 2))
    w = {"ones": np.ones(n), "uniform": rng.uniform(size=n), "zeros": np.zeros(n)}[weights]
    t = pool(FeatureSet(rng.normal(size=(n, d)), w), r)
    f = hosvd_supersym(t)
    assert f.rank <= min(n, d) and (weights != "zeros" or f.rank == 0)
    projected = _dense_modes(t.data, f.factor).ravel()[_sorted_tuples(f.rank, r)[0]]
    err = np.max(np.abs(f.entries - projected), initial=0.0)
    assert err <= 1e-13 * np.max(np.abs(projected), initial=0.0)
    dprime = data.draw(st.integers(0, d))
    u = np.linalg.qr(rng.normal(size=(d, d)))[0][:, :dprime]
    k = kappa_for_order(r)
    core = _symmetric(rng.uniform(-k, k, size=math.comb(dprime + r - 1, r)), dprime, r)
    for record in (f, HosvdFactors(core, u, k)):
        want = _dense_modes(record.core, record.factor.T)
        got = reconstruct(record).data
        assert got.shape == want.shape == (d,) * r
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * np.max(np.abs(want), initial=0.0)


def test_normalized_record_holds_no_dense_core():
    """A record from apply_epn_core(hosvd_supersym(pool(X, 4))) at d = 24 holds its m =
    17,550 distinct core entries and its factor, 145 KB, not a 24^4 core (2.65 MB)."""
    x = np.random.default_rng(65).normal(size=(500, 24))
    x *= 0.5 / np.linalg.norm(x, axis=1, keepdims=True)
    f = hosvd_supersym(pool(FeatureSet(x), 4))
    apply_epn_core(f, PnSpec("sigme", 4.0))  # any map this shape needs is built
    tracemalloc.start()
    try:
        g = apply_epn_core(f, PnSpec("sigme", 4.0))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 * 8 * math.comb(27, 4)
    assert g.rank == 24 and g.entries.shape == (math.comb(27, 4),)
    assert all(a.size < 24**4 for a in vars(g).values() if isinstance(a, np.ndarray))


def test_packed_distance_matches_the_dense_one():
    """Flagged tensors take the packed distance, memoized per tensor and within rounding of
    the dense one; unflagged ones, such as tensors read from files, the dense path exactly."""
    ga, gb = reconstruct(_epn_pipeline(67, 5)), reconstruct(_epn_pipeline(68, 5))
    dense = float(np.linalg.norm((ga.data - gb.data).ravel()))
    got = tpe_distance(ga, gb)
    assert abs(got - dense) <= 1e-14 * dense
    assert ga._packed is vars(ga)["_packed"] and tpe_distance(gb, ga) == got
    plain_a, plain_b = DenseTensor(ga.data), DenseTensor(gb.data)
    assert tpe_distance(plain_a, plain_b) == dense and "_packed" not in vars(plain_a)
    for r in (2, 3, 4):
        x = np.random.default_rng(69).normal(size=(3, 6))
        ta, tb = pool(FeatureSet(x), r), outer_power(x[0], r)
        assert_allclose(tpe_distance(ta, tb), np.linalg.norm(ta.data - tb.data), rtol=1e-13)


def test_packed_distance_makes_no_ambient_temporary():
    x = np.random.default_rng(70).normal(size=(60, 24))
    ga, gb = (reconstruct(apply_epn_core(hosvd_supersym(pool(FeatureSet(y), 4)),
                                         PnSpec("sigme", 4.0))) for y in (x[:30], x[30:]))
    tpe_distance(gb, gb)
    tracemalloc.start()
    try:
        tpe_distance(ga, gb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24**4 * 8 / 4


def test_apply_epn_core_pooled_matches_reference_exactly():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(40, 4))
    x *= 0.5 / np.linalg.norm(x, axis=1, keepdims=True)
    for r in (2, 3, 4):
        f = hosvd_supersym(pool(FeatureSet(x), r))
        for spec in (PnSpec("maxexp", 6.0), PnSpec("sigme", 6.0)):
            _assert_packed_map(f, spec)


@settings(max_examples=80, deadline=None)
@given(r=st.sampled_from([2, 3, 4]), d=st.integers(1, 6), n=st.integers(1, 8),
       spec=st.sampled_from([PnSpec("maxexp", 1.0), PnSpec("maxexp", 7.5),
                             PnSpec("sigme", 1.0), PnSpec("sigme", 40.0)]),
       weights=st.sampled_from(["ones", "uniform", "zeros"]), centered=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_packed_map_matches_the_dense_map(r, d, n, spec, weights, centered, seed):
    """Pools of n < d rows give rank-truncated cores and zero weights rank-0
    ones; rows are scaled so that every core entry is within kappa."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    mean = rng.normal(size=d) if centered else np.zeros(d)
    scale = 0.45 / np.max(np.linalg.norm(x - mean, axis=1))
    w = {"ones": np.ones(n), "uniform": rng.uniform(size=n), "zeros": np.zeros(n)}[weights]
    f = hosvd_supersym(pool(FeatureSet(scale * x, w, scale * mean), r))
    assert f.rank <= min(n, d) and (weights != "zeros" or f.rank == 0)
    _assert_packed_map(f, spec)


def test_detector_likelihood_matches_reference_exactly():
    for kappa in (kappa_for_order(3), 0.5, 2.0):
        for n in (1, 2, 3.5, 20):
            for lam in np.linspace(-kappa, kappa, 41):
                ref = float(np.sign(lam) * (1.0 - (1.0 - abs(lam) / kappa) ** n))
                assert detector_likelihood(lam, kappa, n) == ref


def _odd_map_before(coef, kappa, spec):
    """apply_epn_core's map before every pointwise kind took the signed map: tanh for sigme,
    the clipped signed saturation for maxexp, verbatim."""
    g = _OPS[spec.kind].g
    x = coef / kappa
    if spec.kind == "sigme":
        return g(x, spec.param)
    np.clip(x, -1.0, 1.0, out=x)
    sign = np.sign(x)
    return sign * g(np.abs(x, out=x), spec.param)


# a parameter range inside each pointwise kind's range in _OPS
_PARAMS = {"gamma": (0.05, 1.0), "maxexp": (1.0, 64.0), "asinhe": (0.05, 1.0),
           "sigme": (1.0, 64.0), "hdp": (0.01, 5.0)}


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(_PARAMS)), r=st.sampled_from([2, 3, 4]),
       d=st.integers(1, 5), data=st.data())
def test_core_map_is_the_signed_map_of_every_pointwise_kind(kind, r, d, data):
    """Each sorted-tuple entry c of a core, on rank-0 and rank-truncated records, maps to
    sgn(c) g(min(|c|/kappa, hi)) with g and hi from _OPS, and keeps its sign bit, a -0.0's
    included. maxexp and sigme give the old odd map's bytes, except that maxexp no longer
    takes sgn(-0.0) = +0.0."""
    assert set(_PARAMS) == set(_OPS)
    op, k = _OPS[kind], kappa_for_order(r)
    hi = op.domain[1]
    top = k if hi < math.inf else 4 * k  # maxexp refuses |c| beyond kappa
    dprime = data.draw(st.integers(0, d), label="rank")
    m = math.comb(dprime + r - 1, r)
    entry = st.one_of(st.floats(-top, top),
                      st.sampled_from([0.0, -0.0, k, -k, k + 1e-12, -k - 1e-12, 5e-324]))
    entries = np.array(data.draw(st.lists(entry, min_size=m, max_size=m), label="entries"),
                       dtype=np.float64)
    spec = PnSpec(kind, data.draw(st.floats(*_PARAMS[kind]), label="param"))
    f = HosvdFactors(hosvd._Packed(entries, (dprime,) * r), np.eye(d, dprime), k)
    got = apply_epn_core(f, spec).entries
    want = np.sign(entries) * op.g(np.minimum(np.abs(entries) / k, hi), spec.param)
    assert got.shape == (m,) and np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(entries))
    if kind in ("maxexp", "sigme"):
        old = _odd_map_before(entries, k, spec)
        keep = ~((entries == 0.0) & np.signbit(entries)) if kind == "maxexp" else slice(None)
        assert got[keep].tobytes() == old[keep].tobytes()

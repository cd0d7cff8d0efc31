import ast
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import hotpool
from hotpool import (
    DegenerateSpectrumError,
    DomainError,
    FeatureSet,
    InputError,
    PnSpec,
    core_coefficient,
    core_coefficient_grad,
    eig_value_grad,
    eig_vector_grad,
    epn_matrix,
    epn_matrix_vjp,
    finite_diff_oracle,
    pool,
    sym_eig,
    unfolded_factor_vjp,
)
from hotpool import spectral
from hotpool.gradients import EIG_GAP_REL, _check_simple, _gap_inverse, _pinv_shifted
from hotpool.spectral import SPSD_KINDS, _pn_deriv, _spsd_values, pn_scalar


def _spd(seed, d, lo=0.2, hi=0.95):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    vals = np.sort(rng.uniform(lo, hi, size=d))[::-1]
    return q @ np.diag(vals) @ q.T


def _rel_err(analytic, numeric):
    numeric = np.asarray(numeric)
    return np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-300)


def test_eig_value_grad_diagonal():
    assert_allclose(eig_value_grad(np.diag([3.0, 1.0]), 1), [[1.0, 0.0], [0.0, 0.0]])


def test_eig_value_grad_trace_identity():
    x = _spd(60, 5)
    total = sum(eig_value_grad(x, i) for i in range(1, 6))
    assert_allclose(total, np.eye(5), atol=1e-10)


def test_eig_value_grad_finite_diff():
    x = _spd(61, 6)
    for i in (1, 3, 6):
        oracle = finite_diff_oracle(lambda m, k=i: np.float64(sym_eig(m).values[k - 1]), x)
        assert _rel_err(eig_value_grad(x, i), oracle.jac) < 1e-6


@pytest.mark.parametrize("i,pair", [(None, "2 and 3"), (2, "3 and 2"), (1, "2 and 3")])
def test_check_simple_messages(i, pair):
    values = np.array([3.0, 2.0, 2.0 - 1e-9, 1.0])
    with pytest.raises(DegenerateSpectrumError) as exc:
        _check_simple(values, i)
    assert str(exc.value) == (
        f"eigenvalues {pair} are separated by 1.000e-09, "
        "below 1e-06 of the spectral radius 3.000e+00"
    )
    _check_simple(values, 0)


def test_eig_value_grad_degenerate():
    with pytest.raises(DegenerateSpectrumError, match="1 and 2"):
        eig_value_grad(np.diag([2.0, 2.0, 1.0]), 1)
    # a repeated pair away from the queried index is fine
    g = eig_value_grad(np.diag([2.0, 1.0, 1.0]), 1)
    assert_allclose(g, np.outer([1, 0, 0], [1, 0, 0]), atol=1e-12)
    with pytest.raises(DegenerateSpectrumError):
        eig_value_grad(np.diag([2.0, 1.0, 1.0]), 2)


def test_eig_value_grad_index_validation():
    with pytest.raises(InputError):
        eig_value_grad(np.diag([2.0, 1.0]), 0)
    with pytest.raises(InputError):
        eig_value_grad(np.diag([2.0, 1.0]), 3)


def test_eig_vector_grad_finite_diff_diagonal():
    x = np.diag([0.9, 0.55, 0.2])
    for i in range(1, 4):
        for j in range(1, 4):
            oracle = finite_diff_oracle(
                lambda m, a=i, b=j: np.float64(sym_eig(m).vectors[a - 1, b - 1]), x
            )
            err = np.linalg.norm(eig_vector_grad(x, i, j) - oracle.jac)
            assert err < 1e-5 * max(np.linalg.norm(oracle.jac), 1.0)


def test_eig_vector_grad_finite_diff_random():
    x = _spd(62, 5)
    for (i, j) in [(1, 1), (2, 4), (5, 3)]:
        oracle = finite_diff_oracle(
            lambda m, a=i, b=j: np.float64(sym_eig(m).vectors[a - 1, b - 1]), x
        )
        assert _rel_err(eig_vector_grad(x, i, j), oracle.jac) < 1e-5


def test_eig_vector_grad_scaling():
    x = _spd(82, 4)
    c = 2.7
    g1 = eig_vector_grad(x, 2, 3)
    g2 = eig_vector_grad(c * x, 2, 3)
    assert_allclose(g2, g1 / c, rtol=1e-9)


def test_shifted_pseudoinverse_annihilates_direction():
    x = _spd(64, 6)
    eig = sym_eig(x)
    for j in range(6):
        p = _pinv_shifted(eig, j)
        assert np.linalg.norm(eig.vectors[:, j] @ p) < 1e-10
        # and it inverts (lambda_j I - X) on the complement
        shifted = eig.values[j] * np.eye(6) - x
        proj = np.eye(6) - np.outer(eig.vectors[:, j], eig.vectors[:, j])
        assert np.linalg.norm(p @ shifted - proj) < 1e-8


def test_eig_vector_grad_repeated_pair_elsewhere():
    # only gaps to the queried eigenvalue enter; an exact tie elsewhere is fine
    g = eig_vector_grad(np.diag([2.0, 1.0, 1.0]), 2, 1)
    assert_allclose(g, [[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]], atol=1e-15)
    with pytest.raises(DegenerateSpectrumError):
        eig_vector_grad(np.diag([2.0, 1.0, 1.0]), 1, 2)


def _loop_epn_vjp(x, spec, upstream):
    """Reference per-column form: the eigenvalue term plus, for each j,
    g(lambda_j) sym(P_j W u_j u_j^T) twice, with P_j the shifted pseudo-inverse."""
    eig = sym_eig(x)
    vals = eig.values
    if spec.kind in SPSD_KINDS:
        vals = _spsd_values(vals, spec.kind)
    g = pn_scalar(vals, spec)
    gp = _pn_deriv(vals, spec)
    w = 0.5 * (upstream + upstream.T)
    b = eig.vectors.T @ w @ eig.vectors
    out = (eig.vectors * (gp * np.diag(b))) @ eig.vectors.T
    for j in range(x.shape[0]):
        u_j = eig.vectors[:, j]
        block = np.outer(_pinv_shifted(eig, j) @ (w @ u_j), u_j)
        out = out + g[j] * (block + block.T)
    return out


def _loop_factor_vjp(t, upstream):
    """Reference per-column form: sum_j P_j ubar_j u_j^T, then the M1 step."""
    m1 = t.data.reshape(t.dims[0], -1, order="F")
    eig = sym_eig(m1 @ m1.T)
    g_raw = np.zeros_like(upstream)
    for j in range(upstream.shape[0]):
        g_raw += np.outer(_pinv_shifted(eig, j) @ upstream[:, j], eig.vectors[:, j])
    return ((g_raw + g_raw.T) @ m1).reshape(t.dims, order="F")


_POINTWISE_SPECS = [
    PnSpec("gamma", 0.7),
    PnSpec("maxexp", 4),
    PnSpec("asinhe", 0.9),
    PnSpec("sigme", 4),
    PnSpec("hdp", 0.3),
]


@pytest.mark.parametrize("d", [2, 5, 16])
@pytest.mark.parametrize("spec", _POINTWISE_SPECS, ids=lambda s: s.kind)
def test_epn_vjp_matches_loop_reference(spec, d):
    x = _spd(90 + d, d)
    up = np.random.default_rng(91 + d).normal(size=(d, d))
    want = _loop_epn_vjp(x, spec, up)
    got = epn_matrix_vjp(x, spec, up)
    assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


@pytest.mark.parametrize("d", [2, 5, 16])
def test_unfolded_factor_vjp_matches_loop_reference(d):
    rng = np.random.default_rng(92 + d)
    t = pool(FeatureSet(rng.normal(size=(2 * d, d))), 3)
    up = rng.normal(size=(d, d))
    want = _loop_factor_vjp(t, up)
    got = unfolded_factor_vjp(t, up).data
    assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


def test_epn_vjp_hdp_tiny_eigenvalue_is_finite():
    # x^2 underflows below ~1e-154; the floor keeps g' at its true value 0
    x = np.diag([1.0, 0.5, 1e-200])
    spec = PnSpec("hdp", 0.2)
    got = epn_matrix_vjp(x, spec, np.eye(3))
    assert np.all(np.isfinite(got))
    assert got[2, 2] == 0.0
    assert_allclose(np.diag(got)[:2], _pn_deriv(np.array([1.0, 0.5]), spec), rtol=1e-15)


def test_epn_vjp_maxexp_takes_g_prime_at_one_within_the_slack():
    # pn_scalar clamps an excess of 1e-12 above 1; g' must too, or 0 ** 1.5 turns NaN
    spec = PnSpec("maxexp", 2.5)
    got = epn_matrix_vjp(np.diag([1 + 5e-13, 0.5, 0.2]), spec, np.eye(3))
    assert_allclose(got, np.diag(_pn_deriv(np.array([1.0, 0.5, 0.2]), spec)), rtol=1e-15)


def test_epn_vjp_identity_spec_symmetrizes():
    x = _spd(65, 5)
    rng = np.random.default_rng(66)
    up = rng.normal(size=(5, 5))
    got = epn_matrix_vjp(x, PnSpec("gamma", 1.0), up)
    assert_allclose(got, 0.5 * (up + up.T), atol=1e-12)


def test_epn_vjp_commuting_diagonal_case():
    vals = np.array([0.9, 0.6, 0.3])
    x = np.diag(vals)
    up = np.diag([2.0, -1.0, 0.5])
    spec = PnSpec("sigme", 3)
    got = epn_matrix_vjp(x, spec, up)
    th = np.tanh(0.5 * 3 * vals)
    gp = 0.5 * 3 * (1.0 - th * th)
    assert_allclose(got, np.diag(gp * np.diag(up)), atol=1e-12)


def test_epn_vjp_trace_gradient():
    # upstream = I makes the vjp the gradient of sum_i g(lambda_i)
    x = _spd(67, 6)
    spec = PnSpec("sigme", 4)
    got = epn_matrix_vjp(x, spec, np.eye(6))
    eig = sym_eig(x)
    th = np.tanh(0.5 * 4 * eig.values)
    gp = 0.5 * 4 * (1.0 - th * th)
    want = (eig.vectors * gp) @ eig.vectors.T
    assert np.linalg.norm(got - want) < 1e-9


@pytest.mark.parametrize("spec", _POINTWISE_SPECS, ids=lambda s: s.kind)
def test_epn_vjp_finite_diff(spec):
    x = _spd(68, 6)
    rng = np.random.default_rng(69)
    up = rng.normal(size=(6, 6))
    up = 0.5 * (up + up.T)
    oracle = finite_diff_oracle(lambda m: epn_matrix(m, spec), x)
    assert _rel_err(epn_matrix_vjp(x, spec, up), oracle.vjp(up)) < 1e-5


def test_epn_vjp_asymmetric_upstream_is_symmetrized():
    x = _spd(70, 4)
    rng = np.random.default_rng(71)
    up = rng.normal(size=(4, 4))
    spec = PnSpec("asinhe", 0.8)
    a = epn_matrix_vjp(x, spec, up)
    b = epn_matrix_vjp(x, spec, 0.5 * (up + up.T))
    assert_allclose(a, b, atol=1e-14)


def test_epn_vjp_after_forward_runs_one_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    monkeypatch.setattr(spectral, "_last_eig", (None, None))
    x = _spd(41, 6)
    upstream = np.random.default_rng(41).normal(size=(6, 6))
    spec = PnSpec("sigme", 4.0)
    epn_matrix(x, spec)
    grad = epn_matrix_vjp(x, spec, upstream)
    assert calls == [(6, 6)]
    # and the reused decomposition gives the bits of a fresh one
    spectral._last_eig = (None, None)
    assert np.array_equal(epn_matrix_vjp(x, spec, upstream), grad)
    assert len(calls) == 2


def test_epn_vjp_rejections():
    x = _spd(72, 4)
    with pytest.raises(DomainError):
        epn_matrix_vjp(x, PnSpec("grassmann", 1), np.eye(4))
    # an exact tie is not refused: the derivative exists there and matches the oracle
    tie, spec = np.diag([0.5, 0.5, 0.1]), PnSpec("sigme", 2)
    up = np.random.default_rng(72).normal(size=(3, 3))
    oracle = finite_diff_oracle(lambda m: epn_matrix(m, spec), tie)
    assert _rel_err(epn_matrix_vjp(tie, spec, up), oracle.vjp(up)) < 1e-6
    with pytest.raises(InputError):
        epn_matrix_vjp(x, PnSpec("sigme", 2), np.eye(3))
    with pytest.raises(DomainError):
        epn_matrix_vjp(np.diag([1.4, 0.7, 0.2]), PnSpec("maxexp", 3), np.eye(3))


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(_POINTWISE_SPECS), d=st.integers(2, 6),
       case=st.sampled_from(["exact", "triple", "split 0.5", "split 2"]),
       seed=st.integers(0, 2**32 - 1))
def test_epn_vjp_matches_finite_differences_at_ties(spec, d, case, seed):
    """Q diag(lambda) Q^T with lambda_2 (and lambda_3) tied to lambda_1, or split
    from it by 0.5 or 2 times the near-pair threshold, on either side of it."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    lam = rng.uniform(0.2, 0.95, size=d)
    radius = np.delete(lam, 1).max()  # lambda_2 is set below lambda_1, so this stays the radius
    if case.startswith("split"):
        # the pair's scale: lambda_1 itself, or for maxexp its distance from 1 within the radius
        scale = min(1.0 - lam[0], radius) if spec.kind == "maxexp" else lam[0]
        lam[1] = lam[0] - float(case.split()[1]) * EIG_GAP_REL * scale
    else:
        lam[1:3 if case == "triple" else 2] = lam[0]
    x = q @ np.diag(lam) @ q.T
    x = 0.5 * (x + x.T)
    up = rng.normal(size=(d, d))
    oracle = finite_diff_oracle(lambda m: epn_matrix(m, spec), x)
    assert _rel_err(epn_matrix_vjp(x, spec, up), oracle.vjp(up)) < 1e-6


def _rotated(rng, lam):
    q, _ = np.linalg.qr(rng.normal(size=(len(lam), len(lam))))
    x = q @ np.diag(lam) @ q.T
    return q, 0.5 * (x + x.T)


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(_POINTWISE_SPECS), d=st.integers(2, 6),
       factor=st.sampled_from([1.01, 2.0, 6.5, 1e3]), seed=st.integers(0, 2**32 - 1))
def test_epn_vjp_is_the_divided_difference_wherever_check_simple_accepts(spec, d, factor, seed):
    """A gap just above EIG_GAP_REL of the radius keeps the divided difference
    bit for bit: off the diagonal no entry is a midpoint derivative."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.2, 0.95, size=d)
    lam[1] = lam[0] - factor * EIG_GAP_REL * np.delete(lam, 1).max()
    q, x = _rotated(rng, lam)
    up = rng.normal(size=(d, d))
    eig = sym_eig(x)
    _check_simple(eig.values)
    loewner = np.subtract.outer(*2 * [pn_scalar(eig.values, spec)]) * _gap_inverse(eig.values)
    np.fill_diagonal(loewner, _pn_deriv(eig.values, spec))
    u, w = eig.vectors, 0.5 * (up + up.T)
    assert np.array_equal(epn_matrix_vjp(x, spec, up), u @ (loewner * (u.T @ w @ u)) @ u.T)


def _decimal_loewner(lam, spec):
    """Loewner matrix of g at the exact float values lam in 40-digit decimal
    arithmetic: divided differences between distinct values, g' at ties."""
    p = Decimal(spec.param)
    g, dg = {
        "gamma": (lambda x: x**p, lambda x: p * x ** (p - 1)),
        "maxexp": (lambda x: 1 - (1 - x) ** p, lambda x: p * (1 - x) ** (p - 1)),
        "hdp": (lambda x: (-p / x).exp(), lambda x: p / x**2 * (-p / x).exp()),
    }[spec.kind]
    with localcontext() as ctx:
        ctx.prec = 40
        xs = [Decimal(float(v)) for v in lam]
        return np.array([[float(dg(a) if a == b else (g(a) - g(b)) / (a - b)) for b in xs]
                         for a in xs])


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["gamma 0.5", "gamma 0.7", "hdp", "maxexp 1.5", "maxexp 2.5"]),
       d=st.integers(3, 6), dist=st.floats(1e-7, 3e-6), ratio=st.sampled_from([1.0, 1.5, 5.0]),
       seed=st.integers(0, 2**32 - 1))
def test_epn_vjp_near_a_singular_point_matches_exact_divided_differences(kind, d, dist, ratio, seed):
    """Two eigenvalues at dist and ratio * dist from where g is singular, 0 for
    gamma and hdp and 1 for maxexp, next to a radius of 1: their gap is about
    their own size, far below EIG_GAP_REL of the radius. Finite differences
    would step out of the domain, so the reference is the Daleckii-Krein form
    at the exact eigenvalues."""
    name, _, param = kind.partition(" ")
    spec = PnSpec(name, float(param) if param else dist)  # hdp's time constant sits at the cluster
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.2, 0.95, size=d)
    lam[:3] = 1.0, dist, ratio * dist
    if name == "maxexp":
        lam[1:3] = 1.0 - lam[1:3]
        lam[0] = 0.1
    q, x = _rotated(rng, lam)
    up = rng.normal(size=(d, d))
    w = 0.5 * (up + up.T)
    want = q @ (_decimal_loewner(lam, spec) * (q.T @ w @ q)) @ q.T
    assert _rel_err(epn_matrix_vjp(x, spec, up), want) < 1e-6


@pytest.mark.parametrize("lam, spec, pair, entry", [
    ([1.0, 5e-6, 1e-6], PnSpec("gamma", 0.5), (1, 2), (np.sqrt(5e-6) - np.sqrt(1e-6)) / 4e-6),
    ([1.0, 1.0 - 5e-6, 0.5], PnSpec("maxexp", 1.5), (0, 1), np.sqrt(5e-6)),
])
def test_epn_vjp_keeps_a_gap_as_wide_as_its_pair(lam, spec, pair, entry):
    # on a diagonal input in descending order, the upstream e_j e_k^T + e_k e_j^T
    # reads the Loewner entry L[j, k] off the (j, k) entry of the result
    up = np.zeros((3, 3))
    up[pair] = up[pair[::-1]] = 1.0
    got = epn_matrix_vjp(np.diag(lam), spec, up)
    assert_allclose(got[pair], entry, rtol=1e-7)


def test_check_simple_is_called_only_where_the_derivative_blows_up():
    callers = set()
    for path in sorted(Path(hotpool.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check_simple"
                   for node in ast.walk(top)):
                callers.add((path.stem, getattr(top, "name", None)))
    assert callers == {("gradients", "eig_value_grad"), ("gradients", "eig_vector_grad"),
                       ("gradients", "unfolded_factor_vjp")}


def test_degenerate_error_is_a_domain_error():
    assert issubclass(DegenerateSpectrumError, DomainError)


def _factor_loss(arr, upstream):
    m1 = arr.reshape(arr.shape[0], -1, order="F")
    eig = sym_eig(m1 @ m1.T)
    return float(np.sum(upstream * eig.vectors))


def test_unfolded_factor_vjp_zero_upstream():
    rng = np.random.default_rng(73)
    t = pool(FeatureSet(rng.normal(size=(8, 4))), 3)
    out = unfolded_factor_vjp(t, np.zeros((4, 4)))
    assert np.array_equal(out.data, np.zeros((4, 4, 4)))


def _factor_fd(t, upstream, h=1e-6):
    """Central differences of _factor_loss, one tensor entry at a time."""
    fd = np.zeros(t.dims)
    for idx in np.ndindex(*t.dims):
        plus = t.data.copy()
        plus[idx] += h
        minus = t.data.copy()
        minus[idx] -= h
        fd[idx] = (_factor_loss(plus, upstream) - _factor_loss(minus, upstream)) / (2 * h)
    return fd


@pytest.mark.parametrize("r", [2, 3, 4])
def test_unfolded_factor_vjp_finite_diff(r):
    rng = np.random.default_rng(74)
    t = pool(FeatureSet(rng.normal(size=(8, 4))), r)
    upstream = rng.normal(size=(4, 4))
    got = unfolded_factor_vjp(t, upstream)
    assert _rel_err(got.data, _factor_fd(t, upstream)) < 1e-4


def test_unfolded_factor_vjp_permutation_symmetrized():
    """Symmetrizing the sensitivity does not change super-symmetric probes."""
    import itertools

    rng = np.random.default_rng(75)
    t = pool(FeatureSet(rng.normal(size=(8, 4))), 3)
    upstream = rng.normal(size=(4, 4))
    g = unfolded_factor_vjp(t, upstream).data
    gs = np.mean([g.transpose(p) for p in itertools.permutations(range(3))], axis=0)
    raw = rng.normal(size=(4, 4, 4))
    direction = np.mean([raw.transpose(p) for p in itertools.permutations(range(3))], axis=0)
    lhs = float(np.sum(g * direction))
    assert_allclose(float(np.sum(gs * direction)), lhs, rtol=1e-12)
    h = 1e-6
    fd = (
        _factor_loss(t.data + h * direction, upstream)
        - _factor_loss(t.data - h * direction, upstream)
    ) / (2 * h)
    assert abs(lhs - fd) < 1e-4 * max(abs(fd), 1.0)


def test_unfolded_factor_vjp_validation():
    rng = np.random.default_rng(76)
    # order 2 is not refused: the formula uses only the mode-1 rows
    t = pool(FeatureSet(rng.normal(size=(6, 3))), 2)
    upstream = rng.normal(size=(3, 3))
    assert _rel_err(unfolded_factor_vjp(t, upstream).data, _factor_fd(t, upstream)) < 1e-4
    t3 = pool(FeatureSet(rng.normal(size=(6, 3))), 3)
    with pytest.raises(InputError):
        unfolded_factor_vjp(t3, np.zeros((2, 2)))


def test_core_grad_orthogonal_features():
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    w = np.array([0.0, 0.0, 1.0])
    fs = FeatureSet([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    g = core_coefficient_grad(fs, u, v, w)
    # phi_1 = 0 kills every product; phi_2 has no v/w component
    assert_allclose(g[0], np.zeros(3), atol=1e-15)
    assert_allclose(g[1], np.zeros(3), atol=1e-15)


def test_core_grad_cube_case():
    u = np.array([0.6, 0.8, 0.0])
    fs = FeatureSet([u])
    g = core_coefficient_grad(fs, u, u, u)
    assert g.shape == (1, 3)
    assert_allclose(g[0], 3.0 * u, rtol=1e-14)


def test_core_grad_finite_diff():
    rng = np.random.default_rng(77)
    phi = rng.normal(size=(5, 4))
    dirs = np.linalg.qr(rng.normal(size=(4, 3)))[0].T
    u, v, w = dirs[0], dirs[1], dirs[2]
    fs = FeatureSet(phi)
    g = core_coefficient_grad(fs, u, v, w)
    h = 1e-6
    fd = np.zeros_like(phi)
    for n in range(5):
        for k in range(4):
            plus = phi.copy()
            plus[n, k] += h
            minus = phi.copy()
            minus[n, k] -= h
            fd[n, k] = (
                core_coefficient(FeatureSet(plus), u, v, w)
                - core_coefficient(FeatureSet(minus), u, v, w)
            ) / (2 * h)
    assert _rel_err(g, fd) < 1e-7


def test_core_grad_unit_norm_check():
    fs = FeatureSet([[1.0, 0.0]])
    with pytest.raises(DomainError):
        core_coefficient_grad(fs, [2.0, 0.0], [1.0, 0.0], [0.0, 1.0])


def test_finite_diff_oracle_identity_is_symmetrizer():
    d = 3
    oracle = finite_diff_oracle(lambda m: m, np.diag([0.7, 0.4, 0.1]))
    want = np.zeros((d, d, d, d))
    for c in range(d):
        for e in range(d):
            s = np.zeros((d, d))
            if c == e:
                s[c, c] = 1.0
            else:
                s[c, e] = 0.5
                s[e, c] = 0.5
            want[:, :, c, e] = s
    assert_allclose(oracle.jac, want, atol=1e-9)


def test_finite_diff_oracle_square_map():
    x = np.diag([0.8, 0.3])
    oracle = finite_diff_oracle(lambda m: m @ m, x)
    d = 2
    want = np.zeros((d, d, d, d))
    for c in range(d):
        for e in range(d):
            s = np.zeros((d, d))
            if c == e:
                s[c, c] = 1.0
            else:
                s[c, e] = 0.5
                s[e, c] = 0.5
            want[:, :, c, e] = s @ x + x @ s
    # central differences are exact for quadratics up to rounding
    assert_allclose(oracle.jac, want, atol=1e-9)


def test_finite_diff_oracle_second_order_accuracy():
    x = _spd(78, 3, lo=0.3, hi=1.0)

    def cube(m):
        return m @ m @ m

    d = 3
    want = np.zeros((d, d, d, d))
    for c in range(d):
        for e in range(d):
            s = np.zeros((d, d))
            if c == e:
                s[c, c] = 1.0
            else:
                s[c, e] = 0.5
                s[e, c] = 0.5
            want[:, :, c, e] = s @ x @ x + x @ s @ x + x @ x @ s
    err_h = np.linalg.norm(finite_diff_oracle(cube, x, h=1e-3).jac - want)
    err_h2 = np.linalg.norm(finite_diff_oracle(cube, x, h=5e-4).jac - want)
    assert 3.9 < err_h / err_h2 < 4.1


def test_finite_diff_oracle_vjp_contraction():
    x = _spd(79, 4)
    spec = PnSpec("gamma", 0.5)
    oracle = finite_diff_oracle(lambda m: epn_matrix(m, spec), x)
    rng = np.random.default_rng(80)
    up = rng.normal(size=(4, 4))
    manual = np.einsum("ab,abce->ce", up, oracle.jac)
    assert_allclose(oracle.vjp(up), manual, rtol=1e-12)
    with pytest.raises(InputError):
        oracle.vjp(np.zeros((3, 3)))


def test_finite_diff_oracle_validation():
    with pytest.raises(InputError):
        finite_diff_oracle(lambda m: m, np.zeros((2, 3)))
    with pytest.raises(DomainError):
        finite_diff_oracle(lambda m: m, np.eye(2), h=0.0)
    with pytest.raises(DomainError):
        finite_diff_oracle(lambda m: m * np.nan, np.eye(2))

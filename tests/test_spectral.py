import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hotpool import (
    DegenerateSpectrumError,
    DomainError,
    InputError,
    PnSpec,
    epn_matrix,
    grassmann_map,
    heat_kernel,
    normalize_spectrum,
    pn_scalar,
    precision_laplacian,
    sym_eig,
)
import hotpool
from hotpool import spectral
from hotpool.spectral import _OPS, GRASSMANN_SEP_TOL, KINDS, SPSD_KINDS, _pn_deriv


def _spd(seed, d, lo=0.2, hi=0.95):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    vals = np.sort(rng.uniform(lo, hi, size=d))[::-1]
    return q @ np.diag(vals) @ q.T


def test_sym_eig_identity():
    eig = sym_eig(np.eye(3))
    assert_allclose(eig.values, [1.0, 1.0, 1.0])
    assert_allclose(eig.vectors @ eig.vectors.T, np.eye(3), atol=1e-12)


def test_sym_eig_diagonal_with_sign_fix():
    eig = sym_eig(np.diag([3.0, 1.0]))
    assert_allclose(eig.values, [3.0, 1.0])
    assert_allclose(eig.vectors, np.eye(2), atol=1e-15)


def test_sym_eig_reconstructs():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(8, 8))
    x = a + a.T
    eig = sym_eig(x)
    back = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
    assert np.linalg.norm(back - x) / np.linalg.norm(x) < 1e-9
    assert np.all(np.diff(eig.values) <= 0)
    assert_allclose(eig.vectors.T @ eig.vectors, np.eye(8), atol=1e-10)
    # gauge: the dominant component of every column points up
    lead = np.argmax(np.abs(eig.vectors), axis=0)
    assert np.all(eig.vectors[lead, np.arange(8)] >= 0)


def test_sym_eig_symmetrizes_without_overflow():
    # 0.5 * (x + x.T) overflows here although both eigenvalues are floats;
    # pytest turns the RuntimeWarning it would raise into an error
    eig = sym_eig(np.diag([1e308, -1e308]))
    assert eig.values.tolist() == [1e308, -1e308]
    assert np.array_equal(eig.vectors, np.eye(2))
    # and for normal floats the halves sum to the same bits as the half sum
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6))
    x = a + a.T + 1e-12 * rng.normal(size=(6, 6))
    assert np.array_equal(0.5 * x + 0.5 * x.T, 0.5 * (x + x.T))


def test_sym_eig_rejects_bad_input():
    with pytest.raises(DomainError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        sym_eig(np.full((2, 2), np.nan))
    with pytest.raises(InputError):
        sym_eig(np.zeros((2, 3)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_sym_eig_reuses_only_the_exact_last_input(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    x = a + a.T
    x[0, -1] = x[-1, 0] = 0.0
    first = sym_eig(x)
    assert sym_eig(x.copy()) is first
    # a fresh decomposition of the same bytes gives the same bits
    spectral._last_eig = (None, None)
    fresh = sym_eig(x)
    assert fresh is not first
    assert fresh.values.tobytes() == first.values.tobytes()
    assert fresh.vectors.tobytes() == first.vectors.tobytes()
    # the sign of a zero, a change in place and another shape all miss
    z = x.copy()
    z[0, -1] = z[-1, 0] = -0.0
    assert sym_eig(z) is not fresh
    x[0, 0] += 1.0
    moved = sym_eig(x)
    assert moved is not fresh
    assert_allclose(moved.values.sum(), np.trace(x), atol=1e-10 * (1.0 + np.abs(x).sum()))
    with pytest.raises(InputError):
        sym_eig(x.reshape(1, -1) if d > 1 else x.reshape(1, 1, 1))
    assert sym_eig(np.pad(x, (0, 1))).values.shape == (d + 1,)
    # checks still run right after a valid call, and a refused input is
    # never remembered
    asym, inf = x.copy(), x.copy()
    asym[-1, 0] += 1.0 if d > 1 else np.nan
    inf[0, 0] = np.inf
    for bad in (asym, inf):
        sym_eig(x)
        for _ in range(2):
            with pytest.raises(DomainError):
                sym_eig(bad)


def test_pn_scalar_values():
    assert pn_scalar(0.5, PnSpec("maxexp", 2)) == 0.75
    assert pn_scalar(0.25, PnSpec("gamma", 0.5)) == 0.5
    assert_allclose(pn_scalar(0.2, PnSpec("hdp", 0.2)), math.exp(-1.0), rtol=1e-15)
    assert pn_scalar(0.0, PnSpec("hdp", 0.3)) == 0.0
    assert pn_scalar(0.0, PnSpec("sigme", 7)) == 0.0
    # the upper slack clamps to 1; hdp maps signed zeros and a subnormal to zero
    assert pn_scalar(1.0 + 1e-13, PnSpec("maxexp", 3.0)) == 1.0
    assert pn_scalar(np.array([0.0, -0.0, 1e-310]), PnSpec("hdp", 0.2)).tolist() == [0.0] * 3


def test_pn_scalar_odd_extensions():
    lam = np.linspace(-2.0, 2.0, 41)
    for spec in (PnSpec("sigme", 3), PnSpec("asinhe", 0.8)):
        out = pn_scalar(lam, spec)
        assert_allclose(out, -pn_scalar(-lam, spec), atol=1e-15)


def test_sigme_matches_logistic_form():
    # the shifted logistic 2/(1+exp(-p*x)) - 1 is the reference definition
    rng = np.random.default_rng(14)
    x = rng.normal(scale=3.0, size=100)
    p = 4.0
    got = pn_scalar(x, PnSpec("sigme", p))
    ref = 2.0 / (1.0 + np.exp(-p * x)) - 1.0
    assert_allclose(got, ref, atol=1e-15)


def test_maxexp_monotone_with_fixed_points():
    lam = np.linspace(0.0, 1.0, 1001)
    out = pn_scalar(lam, PnSpec("maxexp", 7))
    assert out[0] == 0.0
    assert out[-1] == 1.0
    # non-strict near 1 where (1 - lam)^7 underflows past the last ulp
    assert np.all(np.diff(out) >= 0)
    assert np.all(np.diff(out[lam <= 0.9]) > 0)


def test_pn_scalar_domain_errors():
    for lam, spec, message in [
        (-0.1, PnSpec("gamma", 0.5), "gamma requires nonnegative eigenvalues"),
        (-0.1, PnSpec("maxexp", 2), "maxexp requires nonnegative eigenvalues"),
        (1.2, PnSpec("maxexp", 2),
         "maxexp requires eigenvalues <= 1; normalize the spectrum first"),
        (-0.5, PnSpec("hdp", 0.2), "hdp requires nonnegative eigenvalues"),
        (np.inf, PnSpec("sigme", 2), "eigenvalues must be finite"),
        (0.5, PnSpec("grassmann", 1), "grassmann is a subspace projector, not a pointwise map"),
    ]:
        with pytest.raises(DomainError) as exc:
            pn_scalar(lam, spec)
        assert str(exc.value) == message


def test_pn_spec_validation():
    with pytest.raises(InputError):
        PnSpec("fourier", 1.0)
    for kind, bad in [
        ("gamma", 0.0),
        ("gamma", 1.5),
        ("maxexp", 0.5),
        ("sigme", 0.0),
        ("hdp", 0.0),
        ("grassmann", 1.5),
        ("grassmann", 0),
    ]:
        with pytest.raises(DomainError):
            PnSpec(kind, bad)


# each pointwise kind's parameter interval as the paper states it
_PARAM_INTERVALS = {
    "gamma": (0.0, 1.0, "(]"),
    "asinhe": (0.0, 1.0, "(]"),
    "maxexp": (1.0, math.inf, "[)"),
    "sigme": (1.0, math.inf, "[)"),
    "hdp": (0.0, math.inf, "()"),
}


def _refused(kind, x):
    with pytest.raises(DomainError, match=f"^{kind} (parameter|time constant) must "):
        PnSpec(kind, x)


def test_pn_spec_interval_edges():
    assert set(_PARAM_INTERVALS) == set(_OPS)
    for kind, (lo, hi, ends) in _PARAM_INTERVALS.items():
        if ends[0] == "[":
            assert PnSpec(kind, lo).param == lo
        else:
            _refused(kind, lo)
        _refused(kind, np.nextafter(lo, -math.inf))
        assert PnSpec(kind, np.nextafter(lo, math.inf)).param > lo
        if hi < math.inf:
            assert PnSpec(kind, hi).param == hi
            _refused(kind, np.nextafter(hi, math.inf))


@given(st.sampled_from(sorted(_PARAM_INTERVALS)), st.floats(allow_nan=False))
def test_pn_spec_accepts_exactly_its_interval(kind, x):
    lo, hi, ends = _PARAM_INTERVALS[kind]
    inside = math.isfinite(x) and (x >= lo if ends[0] == "[" else x > lo) and x <= hi
    if inside:
        assert PnSpec(kind, x).param == x
    else:
        _refused(kind, x)


def test_normalize_spectrum():
    assert_allclose(normalize_spectrum([2.0, 2.0]), [0.5, 0.5])
    assert_allclose(normalize_spectrum([3.0, -1.0]), [0.75, -0.25])
    rng = np.random.default_rng(15)
    v = rng.normal(size=9)
    out = normalize_spectrum(v)
    assert abs(np.abs(out).sum() - 1.0) < 1e-12
    with pytest.raises(DomainError):
        normalize_spectrum(np.zeros(3))


def test_epn_matrix_diagonal_case():
    got = epn_matrix(np.diag([0.5, 0.5]), PnSpec("maxexp", 2))
    assert_allclose(got, np.diag([0.75, 0.75]), atol=1e-15)


def test_epn_matrix_identity_power():
    x = _spd(16, 5)
    assert_allclose(epn_matrix(x, PnSpec("gamma", 1.0)), x, atol=1e-12)


def test_epn_matrix_normalize_flag():
    x = _spd(17, 4, lo=1.0, hi=3.0)
    eig = sym_eig(x)
    got = epn_matrix(x, PnSpec("maxexp", 4), normalize=True)
    vals = normalize_spectrum(eig.values)
    want = eig.vectors @ np.diag(pn_scalar(vals, PnSpec("maxexp", 4))) @ eig.vectors.T
    assert_allclose(got, want, atol=1e-12)


def test_epn_matrix_errors():
    with pytest.raises(DomainError):
        epn_matrix(np.diag([2.0, 0.5]), PnSpec("maxexp", 2))
    with pytest.raises(DomainError):
        epn_matrix(np.diag([1.0, -0.5]), PnSpec("gamma", 0.5))


def test_epn_matrix_sigme_accepts_indefinite():
    x = np.diag([1.5, -0.5])
    got = epn_matrix(x, PnSpec("sigme", 2))
    assert_allclose(got, np.diag(np.tanh([1.5, -0.5])), atol=1e-14)


def test_epn_matrix_output_symmetric():
    x = _spd(18, 6)
    g = epn_matrix(x, PnSpec("gamma", 0.4))
    assert np.array_equal(g, g.T)


def test_epn_matrix_equivariance_single_kind():
    x = _spd(19, 5)
    rng = np.random.default_rng(20)
    r, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    spec = PnSpec("hdp", 0.3)
    left = epn_matrix(r @ x @ r.T, spec)
    right = r @ epn_matrix(x, spec) @ r.T
    assert np.linalg.norm(left - right) < 1e-9


def _whitening_distances(x, specs):
    eig = sym_eig(x)
    ieff = eig.vectors @ eig.vectors.T
    return [np.linalg.norm(epn_matrix(x, s) - ieff) for s in specs]


def test_whitening_limits_monotone():
    """Pushing any of the three maps to its extreme flattens the spectrum."""
    x = _spd(21, 6, lo=0.1, hi=0.95)
    dists = _whitening_distances(x, [PnSpec("maxexp", 2.0**k) for k in range(1, 10)])
    assert np.all(np.diff(dists) < 0)
    dists = _whitening_distances(x, [PnSpec("gamma", 2.0**-k) for k in range(1, 10)])
    assert np.all(np.diff(dists) < 0)
    dists = _whitening_distances(x, [PnSpec("hdp", 2.0**-k) for k in range(1, 10)])
    assert np.all(np.diff(dists) < 0)


def test_grassmann_map_basic():
    p = grassmann_map(np.diag([3.0, 2.0, 1.0]), 1)
    want = np.zeros((3, 3))
    want[0, 0] = 1.0
    assert_allclose(p, want, atol=1e-14)


def test_grassmann_map_projector_properties():
    x = _spd(22, 6, lo=0.1, hi=2.0)
    p = grassmann_map(x, 2)
    assert np.linalg.norm(p @ p - p) < 1e-10
    assert abs(np.trace(p) - 2.0) < 1e-10
    # brute force from the sorted eigenvectors
    eig = sym_eig(x)
    u = eig.vectors[:, :2]
    assert_allclose(p, u @ u.T, atol=1e-12)


def test_grassmann_map_errors():
    with pytest.raises(DomainError):
        grassmann_map(np.diag([3.0, 2.0, 1.0]), 3)
    with pytest.raises(DegenerateSpectrumError, match="separated by only"):
        grassmann_map(np.diag([2.0, 2.0 - 5e-9, 1.0]), 1)
    with pytest.raises(DomainError):
        grassmann_map(np.diag([3.0, 2.0, 1.0]), 0)


@pytest.mark.parametrize("q", [1, 2])
def test_grassmann_map_is_scale_invariant(q):
    x = _spd(14, 4)
    want = grassmann_map(x, q)
    for scale in (1e-9, 1e9):
        assert_allclose(grassmann_map(scale * x, q), want, atol=1e-12)
    # a relative gap of 0.5 is well separated at any scale
    for scale in (1e-9, 1.0, 1e9):
        assert_allclose(grassmann_map(scale * np.diag([2.0, 1.0, 0.5]), 1),
                        np.diag([1.0, 0.0, 0.0]), atol=1e-15)


def test_grassmann_separation_is_relative_to_the_top_eigenvalue():
    top = 1e9
    sep = 0.5 * GRASSMANN_SEP_TOL * top
    with pytest.raises(DegenerateSpectrumError, match="separated by only"):
        grassmann_map(np.diag([top, top - sep, 1.0]), 1)
    sep = 2.0 * GRASSMANN_SEP_TOL * top
    grassmann_map(np.diag([top, top - sep, 1.0]), 1)


def test_precision_laplacian_basics():
    assert_allclose(precision_laplacian(np.eye(3)), np.eye(3), atol=1e-14)
    assert_allclose(
        precision_laplacian(np.diag([0.5, 0.25])), np.diag([2.0, 4.0]), rtol=1e-14
    )
    x = _spd(23, 7, lo=0.3, hi=2.0)
    q = precision_laplacian(x)
    assert np.linalg.norm(q @ x - np.eye(7)) < 1e-8


def test_precision_laplacian_singular():
    x = np.diag([1.0, 0.0])
    with pytest.raises(DomainError):
        precision_laplacian(x)
    q = precision_laplacian(x, allow_pseudo=True)
    # pseudo-inverse acts as inverse on the retained subspace only
    assert_allclose(q, np.diag([1.0, 0.0]), atol=1e-14)


def test_heat_kernel_diagonal():
    k = heat_kernel(np.diag([1.0, 2.0]), 1.0)
    assert_allclose(k, np.diag([math.exp(-1.0), math.exp(-2.0)]), rtol=1e-14)


def test_heat_kernel_small_time_limit():
    q = _spd(24, 5, lo=0.5, hi=3.0)
    for t in (1e-4, 1e-6, 1e-8):
        assert np.linalg.norm(heat_kernel(q, t) - np.eye(5)) < 2 * t * np.linalg.norm(q)
    with pytest.raises(DomainError):
        heat_kernel(q, 0.0)


def test_heat_kernel_semigroup():
    q = _spd(25, 6, lo=0.2, hi=2.5)
    s, t = 0.4, 0.9
    left = heat_kernel(q, s) @ heat_kernel(q, t)
    right = heat_kernel(q, s + t)
    assert np.linalg.norm(left - right) < 1e-9


def test_heat_kernel_matches_expm():
    q = _spd(26, 6, lo=0.2, hi=2.5)
    t = 0.7
    assert np.linalg.norm(heat_kernel(q, t) - scipy.linalg.expm(-t * q)) < 1e-9


def test_heat_kernel_of_precision_is_spectral_decay():
    # expm(-t X^-1) and the pointwise map exp(-t/lambda) must coincide
    x = _spd(27, 6, lo=0.3, hi=1.0)
    t = 0.2
    left = heat_kernel(precision_laplacian(x), t)
    right = epn_matrix(x, PnSpec("hdp", t))
    assert np.linalg.norm(left - right) < 1e-10


def test_asinhe_matrix_form_matches_logm():
    # asinh(A) = log(A + sqrt(A^2 + I)) evaluated with dense matrix functions
    x = _spd(28, 5)
    gp = 0.8
    a = gp * x
    ref = scipy.linalg.logm(a + scipy.linalg.sqrtm(a @ a + np.eye(5)))
    got = epn_matrix(x, PnSpec("asinhe", gp))
    assert np.linalg.norm(got - np.real(ref)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    st.floats(min_value=1.0, max_value=64.0),
)
def test_sigme_bounded_and_odd(lam, p):
    spec = PnSpec("sigme", p)
    y = pn_scalar(lam, spec)
    assert -1.0 <= y <= 1.0
    assert math.isclose(y, -pn_scalar(-lam, spec), abs_tol=1e-15)


def test_kinds_and_spsd_kinds_from_the_table():
    assert KINDS == ("gamma", "maxexp", "asinhe", "sigme", "hdp", "grassmann")
    assert SPSD_KINDS == {"gamma", "maxexp", "hdp", "grassmann"}


@pytest.mark.parametrize("kind,param", [
    ("gamma", 0.5), ("maxexp", 4.0), ("asinhe", 1.0), ("sigme", 4.0), ("hdp", 0.2),
])
def test_empty_spectrum_maps_to_empty(kind, param):
    spec = PnSpec(kind, param)
    for f in (pn_scalar, _pn_deriv):
        out = f(np.empty(0), spec)
        assert isinstance(out, np.ndarray)
        assert out.shape == (0,) and out.dtype == np.float64


def test_pn_deriv_rejections():
    for kind, param in [("gamma", 0.5), ("hdp", 0.2)]:
        with pytest.raises(DomainError, match=f"{kind} derivative needs a strictly positive"):
            _pn_deriv(np.array([0.5, 0.0]), PnSpec(kind, param))
    with pytest.raises(DomainError) as exc:
        _pn_deriv(np.array([0.5]), PnSpec("grassmann", 1))
    assert str(exc.value) == "grassmann is a subspace projector, not a pointwise map"


# (x range, parameter range) inside each kind's domain
_DERIV_RANGES = {
    "gamma": ((1e-2, 5.0), (0.05, 1.0)),
    "maxexp": ((1e-3, 0.99), (1.0, 64.0)),
    "asinhe": ((-10.0, 10.0), (0.05, 1.0)),
    "sigme": ((-10.0, 10.0), (1.0, 64.0)),
    "hdp": ((1e-2, 5.0), (0.01, 5.0)),
}


@pytest.mark.parametrize("kind", sorted(_DERIV_RANGES))
@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_pn_deriv_matches_central_difference(kind, u, v):
    (x_lo, x_hi), (p_lo, p_hi) = _DERIV_RANGES[kind]
    x = x_lo + u * (x_hi - x_lo)
    spec = PnSpec(kind, p_lo + v * (p_hi - p_lo))
    h = 1e-7
    fd = (pn_scalar(x + h, spec) - pn_scalar(x - h, spec)) / (2.0 * h)
    an = float(_pn_deriv(np.array([x]), spec)[0])
    assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))


@pytest.mark.parametrize("t", [1e-6, 1e-3, 0.2, 1.0, 300.0])
def test_hdp_deriv_floor_is_exact(t):
    # above the floor the derivative is bit for bit ((t/x)/x) e^(-t/x), and
    # within 5e-16 relative of the t/x**2 form wherever that is a normal float;
    # below it, 0
    rng = np.random.default_rng(int(t * 1e6) % 2**32)
    x = t / 1000.0 * 10.0 ** rng.uniform(0.0, 6.0, size=20_000)
    x = np.concatenate([[t / 1000.0], x])
    got = _pn_deriv(x, PnSpec("hdp", t))
    assert np.array_equal(got, (t / x) / x * np.exp(-t / x))
    assert_allclose(got, (t / x**2) * np.exp(-t / x), rtol=5e-16, atol=np.finfo(float).tiny)
    tiny = np.array([5e-324, 1e-310, 1e-200, 1e-155, t / 1000.0 * (1.0 - 1e-15)])
    assert np.array_equal(_pn_deriv(tiny, PnSpec("hdp", t)), np.zeros(5))


def test_hdp_deriv_at_tiny_time_constant():
    # t/x**2 would overflow here: x**2 underflows to 0 below x ~ 1e-154
    got = _pn_deriv(np.array([1e-200, 3e-200]), PnSpec("hdp", 1e-200))
    assert_allclose(got, [math.exp(-1.0) * 1e200, math.exp(-1.0 / 3.0) / 9.0 * 1e200],
                    rtol=1e-15)


def test_maps_halve_before_they_add():
    """Symmetrizing U diag(v) U^T as out + out^T overflowed where the result is finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv = precision_laplacian(np.diag([6e-309, 1e-300]))
        big = epn_matrix(np.diag([1.7e308, 1.0]), PnSpec("gamma", 1.0))
    assert np.isfinite(inv).all() and np.isfinite(big).all()
    assert_allclose(np.diag(inv), [1.0 / 6e-309, 1e300], rtol=1e-15)
    assert big[0, 0] == 1.7e308 and big[1, 1] == 1.0 and big[0, 1] == big[1, 0] == 0.0


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_halving_first_leaves_spd_outputs_unchanged(d, seed, scale):
    """On SPD inputs of moderate scale 0.5 out + 0.5 out^T is 0.5 (out + out^T) bit for bit."""
    x = scale * _spd(seed, d)
    eig = sym_eig(x)

    def before(vals):
        out = (eig.vectors * vals) @ eig.vectors.T
        return 0.5 * (out + out.T)

    for kind, param in [("gamma", 0.5), ("maxexp", 4.0), ("asinhe", 1.0), ("sigme", 4.0),
                        ("hdp", 0.2)]:
        got = epn_matrix(x, PnSpec(kind, param), normalize=True)
        want = before(pn_scalar(normalize_spectrum(eig.values), PnSpec(kind, param)))
        assert got.tobytes() == want.tobytes()
    assert precision_laplacian(x).tobytes() == before(1.0 / eig.values).tobytes()
    assert heat_kernel(x, 0.3).tobytes() == before(np.exp(-0.3 * eig.values)).tobytes()


def _compares_kind_with_a_literal(node) -> bool:
    """A comparison of some .kind attribute with a string or a tuple, list or set of them."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]

    def literal(n):
        if isinstance(n, (ast.Tuple, ast.List, ast.Set)):
            return all(literal(e) for e in n.elts)
        return isinstance(n, ast.Constant) and isinstance(n.value, str)

    return (any(isinstance(n, ast.Attribute) and n.attr == "kind" for n in operands)
            and any(literal(n) for n in operands))


def test_only_spectral_branches_on_a_kind_name():
    """Every other module reads a kind's map, domain and refusal from spectral's table."""
    found = set()
    for path in sorted(Path(hotpool.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if _compares_kind_with_a_literal(node):
                found.add(path.stem)
    assert found == {"spectral"}

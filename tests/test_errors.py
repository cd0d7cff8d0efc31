"""Every input check, scalar and array, with the exact message each bad value gets."""

import ast
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hotpool
from hotpool import (
    DenseTensor,
    DomainError,
    EigenDecomposition,
    FeatureSet,
    HosvdFactors,
    InputError,
    PnSpec,
    SketchPlan,
    alpha_of_eta,
    check_supersymmetric,
    detector_curve,
    detector_likelihood,
    eig_value_grad,
    eig_vector_grad,
    epn_matrix_vjp,
    eta_of_t,
    eta_of_t_exact,
    finite_diff_oracle,
    gamma_of_t,
    grassmann_map,
    heat_kernel,
    kappa_for_order,
    make_plan,
    normalize_spectrum,
    ode_residual_gamma,
    ode_residual_maxexp,
    outer_power,
    pn_scalar,
    pool,
    pushforward_spectrum,
    sym_eig,
    t_of_eta,
    t_of_gamma,
    unfolded_factor_vjp,
    verify_gamma_bound,
    y_of_eta,
)
from hotpool.errors import _check_int, _check_real
from hotpool.sketch import plan_from_json
from hotpool.tensor import mode_product, refold, unfold


def _tensor3():
    return DenseTensor(np.zeros((2, 2, 2)))


# site -> (call with the checked parameter as its argument, parameter name,
# {finite bad value: exact message})
_REAL_SITES = {
    "t_of_eta": (t_of_eta, "eta", {0.5: "eta must be >= 1, got 0.5"}),
    "eta_of_t": (eta_of_t, "t", {
        0.0: "t must lie in (0, 0.395494], got 0.0",
        0.4: "t must lie in (0, 0.395494], got 0.4",
    }),
    "eta_of_t_exact": (eta_of_t_exact, "t", {
        -1.0: "t must lie in (0, 0.395494], got -1.0",
        0.4: "t must lie in (0, 0.395494], got 0.4",
    }),
    "gamma_of_t": (gamma_of_t, "t", {0.0: "t must be positive, got 0.0"}),
    "t_of_gamma": (t_of_gamma, "gamma", {
        0.0: "gamma must lie in (0, 1], got 0.0",
        1.5: "gamma must lie in (0, 1], got 1.5",
    }),
    "alpha_of_eta": (alpha_of_eta, "eta", {0.0: "eta must be >= 1, got 0.0"}),
    "y_of_eta": (y_of_eta, "eta", {-2.0: "eta must be >= 1, got -2.0"}),
    "sweep_step": (lambda x: verify_gamma_bound(lam_step=x), "lambda step", {
        0.0: "lambda step must lie in (0, 0.1], got 0.0",
        0.2: "lambda step must lie in (0, 0.1], got 0.2",
    }),
    "sweep_scale": (lambda x: verify_gamma_bound(t_scale=x), "t scale",
                    {-1.0: "t scale must be positive, got -1.0"}),
    "ode_maxexp_lam": (lambda x: ode_residual_maxexp(x, 0.2), "eigenvalue", {
        0.0: "eigenvalue must lie in (0, 1), got 0.0",
        1.0: "eigenvalue must lie in (0, 1), got 1.0",
    }),
    "ode_maxexp_t": (lambda x: ode_residual_maxexp(0.5, x), "t", {}),
    "ode_maxexp_h": (lambda x: ode_residual_maxexp(0.5, 0.2, h=x), "step",
                     {0: "step must be positive, got 0.0"}),
    "ode_maxexp_coeff": (lambda x: ode_residual_maxexp(0.5, 0.2, coeff_scale=x),
                         "coefficient scale", {}),
    "ode_gamma_lam": (lambda x: ode_residual_gamma(x, 0.2), "Laplacian eigenvalue",
                      {0.0: "Laplacian eigenvalue must be positive, got 0.0"}),
    "ode_gamma_t": (lambda x: ode_residual_gamma(2.0, x), "time",
                    {-0.5: "time must be positive, got -0.5"}),
    "ode_gamma_coeff": (lambda x: ode_residual_gamma(2.0, 0.2, coeff_scale=x),
                        "coefficient scale", {}),
    "detector_curve_eta": (lambda x: detector_curve([0.5], x), "eta",
                           {0: "eta must be >= 1, got 0.0"}),
    "detector_curve_kappa": (lambda x: detector_curve([0.5], 2.0, x), "kappa",
                             {0: "kappa must be positive, got 0.0"}),
    "detector_likelihood_kappa": (lambda x: detector_likelihood(0.1, x, 2.0), "kappa",
                                  {-1: "kappa must be positive, got -1.0"}),
    "detector_likelihood_n": (lambda x: detector_likelihood(0.1, 1.0, x), "exponent",
                              {0.5: "exponent must be >= 1, got 0.5"}),
    "detector_likelihood_lam": (lambda x: detector_likelihood(x, 1.0, 2.0), "coefficient", {}),
    "pnspec_gamma": (lambda x: PnSpec("gamma", x), "gamma parameter", {
        0.0: "gamma parameter must lie in (0, 1], got 0.0",
        1.5: "gamma parameter must lie in (0, 1], got 1.5",
    }),
    "pnspec_asinhe": (lambda x: PnSpec("asinhe", x), "asinhe parameter", {
        -0.5: "asinhe parameter must lie in (0, 1], got -0.5",
        2: "asinhe parameter must lie in (0, 1], got 2.0",
    }),
    "pnspec_maxexp": (lambda x: PnSpec("maxexp", x), "maxexp parameter",
                      {0.5: "maxexp parameter must be >= 1, got 0.5"}),
    "pnspec_sigme": (lambda x: PnSpec("sigme", x), "sigme parameter",
                     {0.0: "sigme parameter must be >= 1, got 0.0"}),
    "pnspec_hdp": (lambda x: PnSpec("hdp", x), "hdp time constant",
                   {0.0: "hdp time constant must be positive, got 0.0"}),
    "pnspec_grassmann": (lambda x: PnSpec("grassmann", x), "grassmann rank", {
        0.0: "grassmann rank must be an integer >= 1, got 0.0",
        1.5: "grassmann rank must be an integer >= 1, got 1.5",
    }),
    "heat_kernel": (lambda x: heat_kernel(np.eye(2), x), "diffusion time",
                    {0: "diffusion time must be positive, got 0.0"}),
    "finite_diff_oracle": (lambda x: finite_diff_oracle(np.trace, np.eye(2), x), "step",
                           {-1e-5: "step must be positive, got -1e-05"}),
    "hosvd_factors_kappa": (lambda x: HosvdFactors(np.eye(2), np.eye(2), x), "kappa", {
        0: "kappa must be positive, got 0.0",
        -1: "kappa must be positive, got -1.0",
    }),
    "check_supersymmetric_tol": (lambda x: check_supersymmetric(_tensor3(), x), "tolerance",
                                 {-1: "tolerance must be >= 0, got -1.0"}),
}

_NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("site, x, message", [
    *[(site, x, msg) for site, (_, _, bad) in _REAL_SITES.items() for x, msg in bad.items()],
    *[(site, x, f"{name} must be finite, got {x}")
      for site, (_, name, _) in _REAL_SITES.items() for x in _NON_FINITE],
], ids=str)
def test_real_parameter_messages(site, x, message):
    call = _REAL_SITES[site][0]
    with pytest.raises(DomainError) as exc:
        call(x)
    assert str(exc.value) == message


@given(
    site=st.sampled_from(sorted(_REAL_SITES)),
    x=st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]),
    box=st.sampled_from([float, np.float64, np.float32, np.float16, np.array]),
)
def test_every_real_parameter_refuses_non_finite(site, x, box):
    call, name, _ = _REAL_SITES[site]
    with pytest.raises(DomainError, match=f"^{name} must be finite, got "):
        call(box(x))


def _plan_text(d, d_prime, seed):
    return json.dumps({"d": d, "d_prime": d_prime, "seed": seed, "rng_name": "philox4x64"})


_INT_SITES = [
    (lambda: pool(FeatureSet(np.ones((2, 2))), 5), "order must be an integer in 2..4, got 5"),
    (lambda: outer_power([1.0, 2.0], 2.0), "order must be an integer in 2..4, got 2.0"),
    (lambda: mode_product(_tensor3(), [1.0, 0.0], 0), "mode must be an integer in 1..3, got 0"),
    (lambda: unfold(_tensor3(), 4), "mode must be an integer in 1..3, got 4"),
    (lambda: refold(np.zeros((2, 4)), 1.0, (2, 2, 2)), "mode must be an integer in 1..3, got 1.0"),
    (lambda: eig_value_grad(np.diag([3.0, 2.0, 1.0]), 0),
     "index must be an integer in 1..3, got 0"),
    (lambda: eig_vector_grad(np.diag([3.0, 2.0, 1.0]), 4, 1),
     "entry index must be an integer in 1..3, got 4"),
    (lambda: eig_vector_grad(np.diag([3.0, 2.0, 1.0]), 1, 1.5),
     "eigenvector index must be an integer in 1..3, got 1.5"),
    (lambda: kappa_for_order(6), "order must be an integer in 2..4, got 6"),
    (lambda: kappa_for_order(2.5), "order must be an integer in 2..4, got 2.5"),
    (lambda: kappa_for_order(math.nan), "order must be an integer in 2..4, got nan"),
    (lambda: pushforward_spectrum([0.5], PnSpec("maxexp", 2.0), bins=0),
     "bins must be an integer >= 1, got 0"),
    (lambda: make_plan(0, 1, 0), "input dim must be an integer >= 1, got 0"),
    (lambda: make_plan(8.0, 4, 1), "input dim must be an integer >= 1, got 8.0"),
    (lambda: make_plan(8, 0, 1), "output dim must be an integer >= 1, got 0"),
    (lambda: make_plan(8, 4, -1), "seed must be an integer >= 0, got -1"),
    (lambda: make_plan(8, 4, True), "seed must be an integer >= 0, got True"),
    (lambda: mode_product(_tensor3(), [1.0, 0.0], True),
     "mode must be an integer in 1..3, got True"),
    (lambda: SketchPlan(-1, 1, (), ()), "input dim must be an integer >= 1, got -1"),
    (lambda: SketchPlan(2, 1, (1, 1), (1.0, 1.0), seed=-2),
     "seed must be an integer >= 0, got -2"),
    (lambda: plan_from_json(_plan_text(8, 4, 1.5)), "seed must be an integer >= 0, got 1.5"),
    (lambda: plan_from_json(_plan_text(8, "4", 1)),
     "output dim must be an integer >= 1, got '4'"),
]


# grassmann's subspace rank is an operator parameter with its own DomainError
_RANK_SITES = [0, -1, 1.5, 2.0, True, np.True_, "2", None]


@pytest.mark.parametrize("q", _RANK_SITES, ids=repr)
def test_subspace_rank_messages(q):
    with pytest.raises(DomainError) as exc:
        grassmann_map(np.diag([3.0, 2.0, 1.0]), q)
    assert str(exc.value) == f"subspace rank must be an integer >= 1, got {q}"


@pytest.mark.parametrize("call, message", _INT_SITES, ids=[m for _, m in _INT_SITES])
def test_integer_parameter_messages(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


@given(st.floats(allow_nan=False, allow_infinity=False),
       st.sampled_from([(0.0, math.inf, "()"), (1.0, math.inf, "[)"), (0.0, 1.0, "(]"),
                        (0.0, 1.0, "()"), (-1.0, 2.0, "[]"), (-math.inf, math.inf, "()")]))
def test_check_real_follows_its_brackets(x, interval):
    lo, hi, ends = interval
    inside = (lo <= x if ends[0] == "[" else lo < x) and (x <= hi if ends[1] == "]" else x < hi)
    if inside:
        assert _check_real(x, "p", *interval) == x
    else:
        with pytest.raises(DomainError, match=r"^p must (be|lie) .*, got "):
            _check_real(x, "p", *interval)


def test_check_real_wording():
    for interval, rule in [
        ((0.0,), "be positive"),
        ((1.0, math.inf, "[)"), "be >= 1"),
        ((2.0,), "be > 2"),
        ((0.0, 0.5, "[)"), "lie in [0, 0.5)"),
    ]:
        with pytest.raises(DomainError) as exc:
            _check_real(-3, "p", *interval)
        assert str(exc.value) == f"p must {rule}, got -3.0"


def test_check_int_returns_a_python_int():
    got = _check_int(np.int32(3), "k", 1, 3)
    assert got == 3 and type(got) is int
    for bad in (0, 4, 2.0, "2", None):
        with pytest.raises(InputError, match=r"^k must be an integer in 1\.\.3, got "):
            _check_int(bad, "k", 1, 3)


def test_check_int_without_upper_bound():
    assert _check_int(10**30, "k", 1) == 10**30
    for bad in (0, -5, 1.0, math.inf, "3"):
        with pytest.raises(InputError) as exc:
            _check_int(bad, "k", 1)
        assert str(exc.value) == f"k must be an integer >= 1, got {bad!r}"


# site -> (call with the checked array as its argument, a valid array for it,
# error class, exact message for any non-finite entry). SketchPlan's buckets
# are int64 and cannot hold one.
_ARRAY_SITES = {
    "FeatureSet.vectors": (FeatureSet, np.ones((3, 2)), InputError, "vectors must be finite"),
    "FeatureSet.weights": (lambda a: FeatureSet(np.ones((3, 2)), a), np.ones(3), InputError,
                           "weights must be finite"),
    "FeatureSet.mean": (lambda a: FeatureSet(np.ones((3, 2)), mean=a), np.zeros(2), InputError,
                        "mean must be finite"),
    "DenseTensor": (DenseTensor, np.ones((2, 2, 2)), InputError, "tensor must be finite"),
    "HosvdFactors.core": (lambda a: HosvdFactors(a, np.eye(2), 0.5), np.ones((2, 2)),
                          InputError, "core must be finite"),
    "HosvdFactors.factor": (lambda a: HosvdFactors(np.ones((2, 2)), a, 0.5), np.eye(2),
                            InputError, "factor must be finite"),
    "EigenDecomposition.values": (lambda a: EigenDecomposition(a, np.eye(3)), np.ones(3),
                                  InputError, "values must be finite"),
    "EigenDecomposition.vectors": (lambda a: EigenDecomposition(np.ones(3), a), np.eye(3),
                                   InputError, "vectors must be finite"),
    "SketchPlan.signs": (lambda a: SketchPlan(3, 2, (1, 2, 1), a), np.ones(3), InputError,
                         "signs must be finite"),
    "sym_eig": (sym_eig, np.eye(3), DomainError, "matrix must be finite"),
    "pn_scalar": (lambda a: pn_scalar(a, PnSpec("sigme", 2.0)), np.full(4, 0.5), DomainError,
                  "eigenvalues must be finite"),
    "normalize_spectrum": (normalize_spectrum, np.full(4, 0.5), DomainError,
                           "eigenvalues must be finite"),
    "epn_matrix_vjp": (lambda a: epn_matrix_vjp(np.diag([3.0, 2.0, 1.0]), PnSpec("sigme", 2.0), a),
                       np.eye(3), DomainError, "upstream must be finite"),
    "unfolded_factor_vjp": (
        lambda a: unfolded_factor_vjp(pool(FeatureSet(np.diag([3.0, 2.0, 1.0])), 3), a),
        np.eye(3), DomainError, "upstream must be finite"),
    "MatrixGradient.vjp": (lambda a: finite_diff_oracle(lambda m: m, np.eye(2)).vjp(a),
                           np.eye(2), DomainError, "upstream must be finite"),
    "finite_diff_oracle": (lambda a: finite_diff_oracle(np.trace, a), np.eye(2), DomainError,
                           "matrix must be finite"),
    "pushforward_spectrum": (lambda a: pushforward_spectrum(a, PnSpec("maxexp", 2.0)),
                             np.full(4, 0.5), DomainError, "samples must be finite"),
    "detector_curve": (lambda a: detector_curve(a, 2.0), np.full(4, 0.5), DomainError,
                       "theta grid must be finite"),
}


@pytest.mark.parametrize("site", sorted(_ARRAY_SITES))
def test_array_messages(site):
    call, valid, error, message = _ARRAY_SITES[site]
    call(valid)
    bad = valid.copy()
    bad.flat[0] = math.nan
    with pytest.raises(ValueError) as exc:
        call(bad)
    assert type(exc.value) is error and str(exc.value) == message


@given(site=st.sampled_from(sorted(_ARRAY_SITES)), x=st.sampled_from(_NON_FINITE),
       data=st.data())
def test_every_array_refuses_non_finite_anywhere(site, x, data):
    call, valid, error, message = _ARRAY_SITES[site]
    bad = valid.copy()
    bad.flat[data.draw(st.integers(0, bad.size - 1), label="position")] = x
    with pytest.raises(ValueError) as exc:
        call(bad)
    assert type(exc.value) is error and str(exc.value) == message


# the only lines outside errors that call isfinite, per module and top-level
# definition: the oracle's check of f's output, the SVG writer's filter of
# unplottable points (two lines) and the CLI's own --theta-step check, none
# of them an array refusal of the library
_ISFINITE_ALLOWED = Counter({
    ("gradients", "finite_diff_oracle"): 1,
    ("cli", "_write_svg"): 2,
    ("cli", "_figure_fig4b"): 1,
})


def _calls_isfinite(node) -> bool:
    return isinstance(node, ast.Call) and "isfinite" in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None))


def test_isfinite_is_called_only_in_errors():
    found = Counter()
    for path in sorted(Path(hotpool.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for top in ast.parse(path.read_text()).body:
            lines = {node.lineno for node in ast.walk(top) if _calls_isfinite(node)}
            if lines:
                found[(path.stem, getattr(top, "name", None))] += len(lines)
    assert found == _ISFINITE_ALLOWED

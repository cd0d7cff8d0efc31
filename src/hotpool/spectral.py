"""Spectral operators on symmetric matrices.

The power-normalization family acts elementwise on eigenvalues of an SPSD
matrix X = U diag(lambda) U^T:

    gamma     g(x) = x^gamma          gamma in (0, 1]
    maxexp    g(x) = 1 - (1 - x)^eta  eta >= 1, needs spectrum in [0, 1]
    asinhe    g(x) = asinh(gamma' x)  gamma' in (0, 1], odd, any real x
    sigme     g(x) = 2/(1+e^(-eta' x)) - 1 = tanh(eta' x / 2), eta' >= 1, odd
    hdp       g(x) = e^(-t/x) for x > 0, g(0) = 0, t > 0
    grassmann rank-q eigenspace projector, not a pointwise map

The private table _OPS is the one definition of this family: each kind's
domain, parameter name and range, map g(x, p) and derivative g'(x, p). g
and g' check nothing, so callers with validated input call them directly;
pn_scalar and _pn_deriv are the checked entry points, and _pointwise the one
refusal of grassmann: this is the only module that branches on a kind's name.

The matrix map is epn_matrix(X) = U diag(g(lambda)) U^T.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, DomainError, InputError, _check_finite, _check_real
from .tensor import _owned

# domains of the pointwise maps
_UNIT = (0.0, 1.0)
_HALF_LINE = (0.0, math.inf)
_REAL = (-math.inf, math.inf)

# param holds the parameter's name, then its interval as _check_real takes it
_Op = namedtuple("_Op", "domain param g dg")


def _hdp_floor(x, t):
    # below x = t/1000, e^(-t/x) underflows to 0 anyway, so the floor is exact for
    # g and g'; it keeps 0, -0.0 and tiny x from dividing by zero or giving inf * 0
    return np.maximum(x, t / 1000.0)


def _hdp_dg(x, t):
    x = _hdp_floor(x, t)
    q = t / x  # t / x**2 would overflow: x**2 underflows to 0 below x ~ 1e-154
    return q / x * np.exp(-q)


_OPS = {
    "gamma": _Op(_HALF_LINE, ("gamma parameter", 0.0, 1.0, "(]"),
                 lambda x, p: x**p, lambda x, p: p * x ** (p - 1.0)),
    "maxexp": _Op(_UNIT, ("maxexp parameter", 1.0, math.inf, "[)"),
                  lambda x, p: 1.0 - (1.0 - x) ** p,
                  lambda x, p: p * (1.0 - x) ** (p - 1.0)),
    "asinhe": _Op(_REAL, ("asinhe parameter", 0.0, 1.0, "(]"),
                  lambda x, p: np.arcsinh(p * x),
                  lambda x, p: p / np.sqrt(1.0 + (p * x) ** 2)),
    # tanh(p*x/2) equals 2/(1+exp(-p*x)) - 1 and never overflows
    "sigme": _Op(_REAL, ("sigme parameter", 1.0, math.inf, "[)"),
                 lambda x, p: np.tanh(0.5 * p * x),
                 lambda x, p: 0.5 * p * (1.0 - np.square(np.tanh(0.5 * p * x)))),
    "hdp": _Op(_HALF_LINE, ("hdp time constant", 0.0),
               lambda x, t: np.exp(-t / _hdp_floor(x, t)), _hdp_dg),
}

KINDS = (*_OPS, "grassmann")

# kinds whose domain is the SPSD cone; tiny negative eigenvalues from
# rounding are clamped to zero up to this bound
SPSD_KINDS = frozenset({k for k, op in _OPS.items() if op.domain != _REAL} | {"grassmann"})
SPSD_EIG_TOL = 1e-10

# relative symmetry tolerance for sym_eig
SYM_TOL = 1e-10

# minimum eigengap between the q-th and (q+1)-th eigenvalues, relative to
# the largest eigenvalue, for a rank-q projector to count as well defined
GRASSMANN_SEP_TOL = 1e-8

# slack when checking spectra against an upper bound of 1
_UPPER_SLACK = 1e-12
_last_eig = (None, None)  # sym_eig's slot: the last checked input's key and record


@dataclass(frozen=True)
class PnSpec:
    """An operator kind plus its single parameter.

    For grassmann the parameter is the integer subspace rank q >= 1.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown operator kind {self.kind!r}; choose from {KINDS}")
        op = _OPS.get(self.kind)
        p = _check_real(self.param, *(op.param if op else ("grassmann rank",)))
        if op is None and (p != int(p) or p < 1):
            raise DomainError(f"grassmann rank must be an integer >= 1, got {self.param}")
        object.__setattr__(self, "param", p)


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues in descending order with matching orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        for name in ("values", "vectors"):
            object.__setattr__(self, name, _owned(getattr(self, name), name))


def sym_eig(x) -> EigenDecomposition:
    """Eigendecomposition with a deterministic gauge.

    Asymmetry beyond SYM_TOL (relative to the largest entry) is rejected;
    below it the input is symmetrized. Eigenvalues come out descending and
    each eigenvector is flipped so its largest-magnitude component is
    nonnegative, with ties broken by the lowest index. One slot keeps the
    last record, keyed on the input's shape and float64 bytes: a call on the
    same matrix, as epn_matrix_vjp after epn_matrix, returns that read-only
    record without a second eigh. Any other byte, -0.0 for 0.0, misses.
    """
    global _last_eig
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] < 1:
        raise InputError(f"expected a square matrix, got shape {x.shape}")
    key = (x.shape, x.tobytes())
    last_key, last = _last_eig  # one read: a concurrent write can only cause a miss
    if last_key == key:
        return last
    _check_finite(x, "matrix", DomainError)
    scale = max(1.0, float(np.max(np.abs(x))))
    if np.max(np.abs(x - x.T)) > SYM_TOL * scale:
        raise DomainError("matrix is not symmetric within tolerance")
    vals, vecs = np.linalg.eigh(0.5 * x + 0.5 * x.T)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    lead = np.argmax(np.abs(vecs), axis=0)
    flip = vecs[lead, np.arange(vecs.shape[1])] < 0
    vecs[:, flip] *= -1.0
    eig = EigenDecomposition(vals, vecs)
    _last_eig = (key, eig)
    return eig


def _pointwise(spec: PnSpec) -> _Op:
    """The _OPS entry of spec's kind, or DomainError for grassmann, which has none."""
    op = _OPS.get(spec.kind)
    if op is None:
        raise DomainError("grassmann is a subspace projector, not a pointwise map")
    return op


def pn_scalar(lam, spec: PnSpec):
    """Apply the pointwise map to a scalar or array of eigenvalues.

    The values are checked against the kind's domain in _OPS; an excess of
    at most 1e-12 above a finite upper end is clamped before g is applied.
    """
    op = _pointwise(spec)
    arr = _check_finite(np.asarray(lam, dtype=np.float64), "eigenvalues", DomainError)
    lo, hi = op.domain
    if np.any(arr < lo):
        raise DomainError(f"{spec.kind} requires nonnegative eigenvalues")
    if np.any(arr > hi + _UPPER_SLACK):
        raise DomainError(
            f"{spec.kind} requires eigenvalues <= {hi:g}; normalize the spectrum first"
        )
    out = op.g(np.minimum(arr, hi), spec.param)
    return float(out) if arr.ndim == 0 else out


def _pn_deriv(values: np.ndarray, spec: PnSpec) -> np.ndarray:
    """g'(lambda) for differentiable kinds, taken at a finite upper end above it.

    The half-line kinds need a strictly positive spectrum: gamma's
    p x^(p-1) is singular at zero and hdp's (t/x^2) e^(-t/x) undefined.
    """
    op = _pointwise(spec)
    if op.domain == _HALF_LINE and np.any(values <= 0.0):
        raise DomainError(f"{spec.kind} derivative needs a strictly positive spectrum")
    return op.dg(np.minimum(values, op.domain[1]), spec.param)


def normalize_spectrum(values) -> np.ndarray:
    """Divide by the trace norm sum(|lambda_i|)."""
    values = _check_finite(np.asarray(values, dtype=np.float64), "eigenvalues", DomainError)
    total = float(np.sum(np.abs(values)))
    if total <= 0.0:
        raise DomainError("cannot normalize an all-zero spectrum")
    return values / total


def _spsd_values(vals: np.ndarray, kind: str) -> np.ndarray:
    if vals.min() < -SPSD_EIG_TOL:
        raise DomainError(
            f"{kind} requires an SPSD matrix; min eigenvalue {vals.min():.3e}"
        )
    return np.clip(vals, 0.0, None)


def _rank_cutoff(vals: np.ndarray) -> float:
    """Eigenvalues at or below d * eps * max(lambda_max, 0) count as zero.

    vals must be in descending order, as sym_eig returns them.
    """
    return vals.shape[0] * np.finfo(np.float64).eps * max(float(vals[0]), 0.0)


def _eig_compose(vecs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """U diag(vals) U^T, halved before it is symmetrized, so a finite result cannot overflow."""
    out = (vecs * vals) @ vecs.T
    out *= 0.5
    return out + out.T


def epn_matrix(x, spec: PnSpec, normalize: bool = False) -> np.ndarray:
    """Eigenvalue power normalization of a symmetric matrix.

    With normalize=True the spectrum is trace-normalized before the map,
    which is how maxexp inputs are usually brought into [0, 1].
    """
    if spec.kind == "grassmann":
        return grassmann_map(x, int(spec.param))
    eig = sym_eig(x)
    vals = eig.values
    if spec.kind in SPSD_KINDS:
        vals = _spsd_values(vals, spec.kind)
    if normalize:
        vals = normalize_spectrum(vals)
    return _eig_compose(eig.vectors, pn_scalar(vals, spec))


def grassmann_map(x, q: int) -> np.ndarray:
    """Orthogonal projector onto the span of the top-q eigenvectors."""
    if isinstance(q, bool) or not isinstance(q, (int, np.integer)) or q < 1:
        raise DomainError(f"subspace rank must be an integer >= 1, got {q}")
    eig = sym_eig(x)
    vals = _spsd_values(eig.values, "grassmann")
    if vals[0] <= 0.0:
        raise DomainError("zero matrix has no leading eigenspace")
    rank = int(np.sum(vals > _rank_cutoff(vals)))
    if q >= rank:
        raise DomainError(f"subspace rank {q} must be below the matrix rank {rank}")
    sep = vals[q - 1] - vals[q]
    if sep <= GRASSMANN_SEP_TOL * vals[0]:
        raise DegenerateSpectrumError(
            f"eigenvalues {q} and {q + 1} are separated by only {sep:.3e}; "
            "the projector is not well defined"
        )
    u = eig.vectors[:, :q]
    return u @ u.T


def precision_laplacian(x, allow_pseudo: bool = False) -> np.ndarray:
    """Inverse of an SPSD matrix through its eigendecomposition.

    Rank-deficient inputs are rejected unless allow_pseudo is set, in which
    case eigenvalues at or below the rank cutoff d*eps*lambda_max invert
    to zero.
    """
    eig = sym_eig(x)
    vals = _spsd_values(eig.values, "precision_laplacian")
    if vals[0] <= 0.0:
        raise DomainError("cannot invert the zero matrix")
    small = vals <= _rank_cutoff(vals)
    if small.any() and not allow_pseudo:
        raise DomainError(
            "matrix is rank deficient; pass allow_pseudo=True for a pseudo-inverse"
        )
    return _eig_compose(eig.vectors, np.where(small, 0.0, 1.0 / np.where(small, 1.0, vals)))


def heat_kernel(q, t: float) -> np.ndarray:
    """exp(-t*Q) for an SPSD generator Q and diffusion time t > 0."""
    t = _check_real(t, "diffusion time", 0.0)
    eig = sym_eig(q)
    vals = _spsd_values(eig.values, "heat_kernel")
    return _eig_compose(eig.vectors, np.exp(-t * vals))

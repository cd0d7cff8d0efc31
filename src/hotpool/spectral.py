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
domain, map g(x, p) and derivative g'(x, p). g and g' check nothing, so
callers with validated input call them directly; pn_scalar and _pn_deriv
are the checked entry points.

The matrix map is epn_matrix(X) = U diag(g(lambda)) U^T.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, DomainError, InputError
from .tensor import _owned

# domains of the pointwise maps
_UNIT = (0.0, 1.0)
_HALF_LINE = (0.0, math.inf)
_REAL = (-math.inf, math.inf)

_Op = namedtuple("_Op", "domain g dg")


def _hdp_floor(x, t):
    # below x = t/1000, e^(-t/x) underflows to 0 anyway, so the floor is exact for
    # g and g'; it keeps 0, -0.0 and tiny x from dividing by zero or giving inf * 0
    return np.maximum(x, t / 1000.0)


def _hdp_dg(x, t):
    x = _hdp_floor(x, t)
    return (t / x**2) * np.exp(-t / x)


_OPS = {
    "gamma": _Op(_HALF_LINE, lambda x, p: x**p, lambda x, p: p * x ** (p - 1.0)),
    "maxexp": _Op(_UNIT, lambda x, p: 1.0 - (1.0 - x) ** p,
                  lambda x, p: p * (1.0 - x) ** (p - 1.0)),
    "asinhe": _Op(_REAL, lambda x, p: np.arcsinh(p * x),
                  lambda x, p: p / np.sqrt(1.0 + (p * x) ** 2)),
    # tanh(p*x/2) equals 2/(1+exp(-p*x)) - 1 and never overflows
    "sigme": _Op(_REAL, lambda x, p: np.tanh(0.5 * p * x),
                 lambda x, p: 0.5 * p * (1.0 - np.square(np.tanh(0.5 * p * x)))),
    "hdp": _Op(_HALF_LINE, lambda x, t: np.exp(-t / _hdp_floor(x, t)), _hdp_dg),
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
        p = float(self.param)
        if not np.isfinite(p):
            raise DomainError("parameter must be finite")
        if self.kind in ("gamma", "asinhe") and not 0.0 < p <= 1.0:
            raise DomainError(f"{self.kind} parameter must lie in (0, 1], got {p}")
        if self.kind in ("maxexp", "sigme") and p < 1.0:
            raise DomainError(f"{self.kind} parameter must be >= 1, got {p}")
        if self.kind == "hdp" and p <= 0.0:
            raise DomainError(f"hdp time constant must be positive, got {p}")
        if self.kind == "grassmann" and (p != int(p) or p < 1):
            raise DomainError(f"grassmann rank must be an integer >= 1, got {self.param}")
        object.__setattr__(self, "param", p)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in descending order with matching orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        for name in ("values", "vectors"):
            object.__setattr__(self, name, _owned(getattr(self, name)))


def sym_eig(x) -> EigenDecomposition:
    """Eigendecomposition with a deterministic gauge.

    Asymmetry beyond SYM_TOL (relative to the largest entry) is rejected;
    below it the input is symmetrized. Eigenvalues come out descending and
    each eigenvector is flipped so its largest-magnitude component is
    nonnegative, with ties broken by the lowest index.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] < 1:
        raise InputError(f"expected a square matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError("matrix contains non-finite entries")
    scale = max(1.0, float(np.max(np.abs(x))))
    if np.max(np.abs(x - x.T)) > SYM_TOL * scale:
        raise DomainError("matrix is not symmetric within tolerance")
    vals, vecs = np.linalg.eigh(0.5 * (x + x.T))
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    lead = np.argmax(np.abs(vecs), axis=0)
    flip = vecs[lead, np.arange(vecs.shape[1])] < 0
    vecs[:, flip] *= -1.0
    return EigenDecomposition(vals, vecs)


def pn_scalar(lam, spec: PnSpec):
    """Apply the pointwise map to a scalar or array of eigenvalues.

    The values are checked against the kind's domain in _OPS; an excess of
    at most 1e-12 above a finite upper end is clamped before g is applied.
    """
    if spec.kind == "grassmann":
        raise DomainError("grassmann is a subspace projector, not a pointwise map")
    arr = np.asarray(lam, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError("eigenvalues must be finite")
    op = _OPS[spec.kind]
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
    """Pointwise derivative g'(lambda) for differentiable kinds.

    The half-line kinds need a strictly positive spectrum: gamma's
    p x^(p-1) is singular at zero and hdp's (t/x^2) e^(-t/x) undefined.
    """
    op = _OPS.get(spec.kind)
    if op is None:
        raise DomainError(f"{spec.kind} has no pointwise derivative")
    if op.domain == _HALF_LINE and np.any(values <= 0.0):
        raise DomainError(f"{spec.kind} derivative needs a strictly positive spectrum")
    return op.dg(values, spec.param)


def normalize_spectrum(values) -> np.ndarray:
    """Divide by the trace norm sum(|lambda_i|)."""
    values = np.asarray(values, dtype=np.float64)
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
    g = pn_scalar(vals, spec)
    out = (eig.vectors * g) @ eig.vectors.T
    return 0.5 * (out + out.T)


def grassmann_map(x, q: int) -> np.ndarray:
    """Orthogonal projector onto the span of the top-q eigenvectors."""
    if not isinstance(q, (int, np.integer)) or q < 1:
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
    inv = np.where(small, 0.0, 1.0 / np.where(small, 1.0, vals))
    out = (eig.vectors * inv) @ eig.vectors.T
    return 0.5 * (out + out.T)


def heat_kernel(q, t: float) -> np.ndarray:
    """exp(-t*Q) for an SPSD generator Q and diffusion time t > 0."""
    if not t > 0:
        raise DomainError(f"diffusion time must be positive, got {t}")
    eig = sym_eig(q)
    vals = _spsd_values(eig.values, "heat_kernel")
    out = (eig.vectors * np.exp(-t * vals)) @ eig.vectors.T
    return 0.5 * (out + out.T)

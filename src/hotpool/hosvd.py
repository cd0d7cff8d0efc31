"""Shared-factor HOSVD of super-symmetric tensors and core normalization.

A super-symmetric order-r tensor T factors as T = G x_1 U x_2 U ... x_r U
with a single orthonormal factor U (d x d') and core G (d' x ... x d').
U comes from the eigenvectors of the mode-1 Gram matrix M1 M1^T, truncated
at the rank cutoff d * eps * lambda_max.

For a pooled tensor of unit-norm vectors with weights <= 1 and no
centering, a core entry whose index values occur with multiplicities
m_1, ..., m_k is bounded by prod_k (m_k/r)^(m_k/2), and the bound is
attained. That is kappa = (1/sqrt(r))^r only when all indices differ: it
is 2/(3 sqrt(3)) for (i, i, j) at r=3 and 1 on the diagonal. The single
constant kappa calibrates the signed saturation maps detector_likelihood
and apply_epn_core, so repeated-index entries can exceed it even for
unit-norm inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .spectral import _OPS, EigenDecomposition, PnSpec, _rank_cutoff, sym_eig
from .tensor import DenseTensor, FeatureSet, _owned, check_supersymmetric, inner

# soft ceiling on |coefficient| - kappa before clamping warns
KAPPA_EXCESS_TOL = 1e-9

# unit-norm tolerance for direction vectors
_UNIT_TOL = 1e-8


def kappa_for_order(r: int) -> float:
    """Peak magnitude (1/sqrt(r))^r of an all-distinct-index core entry
    for unit-norm inputs (see the module docstring for the other entries)."""
    if r < 2:
        raise InputError(f"order must be >= 2, got {r}")
    return float(r ** (-r / 2.0))


@dataclass(frozen=True)
class HosvdFactors:
    """Core tensor, shared factor matrix, and the order's kappa."""

    core: np.ndarray
    factor: np.ndarray
    kappa: float

    def __post_init__(self):
        for name in ("core", "factor"):
            object.__setattr__(self, name, _owned(getattr(self, name)))

    @property
    def order(self) -> int:
        return self.core.ndim

    @property
    def rank(self) -> int:
        return self.factor.shape[1]


def _all_modes(a: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Contract every axis of a, in turn, with the first axis of mat.

    Each step is one GEMM that contracts the leading axis and appends the
    new one last, so after a.ndim steps the axes are back in order without
    a moveaxis copy. Shapes are explicit products rather than -1, which
    numpy cannot infer when an axis has size 0 (a rank-0 core).
    """
    for _ in range(a.ndim):
        rest = a.shape[1:]
        a = (a.reshape(a.shape[0], math.prod(rest)).T @ mat).reshape(rest + (mat.shape[1],))
    return a


def _mode1_gram(data: np.ndarray) -> tuple[np.ndarray, EigenDecomposition]:
    """Mode-1 rows M1 = data.reshape(d, -1) and the eigenbasis of M1 M1^T.

    M1 is a column permutation of unfold(t, 1), so this is the same Gram
    without a copy; the shared HOSVD factor and its derivative both use it.
    """
    m1 = data.reshape(data.shape[0], -1)
    return m1, sym_eig(m1 @ m1.T)


def hosvd_supersym(t: DenseTensor) -> HosvdFactors:
    """Factor a super-symmetric tensor with one shared orthonormal basis."""
    if t.order < 2:
        raise InputError("hosvd needs order >= 2")
    if not (t.supersymmetric or check_supersymmetric(t)):
        raise DomainError("tensor is not super-symmetric")
    eig = _mode1_gram(t.data)[1]
    dprime = int(np.sum(eig.values > _rank_cutoff(eig.values)))
    u = eig.vectors[:, :dprime]
    return HosvdFactors(_all_modes(t.data, u), u, kappa_for_order(t.order))


def reconstruct(f: HosvdFactors) -> DenseTensor:
    """Map a core back to the ambient space through the shared factor."""
    if f.factor.ndim != 2:
        raise InputError("factor must be a matrix")
    dprime = f.factor.shape[1]
    if any(s != dprime for s in f.core.shape):
        raise InputError(
            f"core dims {f.core.shape} do not match factor rank {dprime}"
        )
    return DenseTensor(_all_modes(f.core, f.factor.T), supersymmetric=True)


def _unit(vec, name: str) -> np.ndarray:
    v = np.asarray(vec, dtype=np.float64)
    if v.ndim != 1:
        raise InputError(f"{name} must be a vector")
    if not abs(np.linalg.norm(v) - 1.0) <= _UNIT_TOL:
        raise DomainError(f"{name} must have unit norm")
    return v


def _project(features: FeatureSet, u, v, w) -> tuple[np.ndarray, ...]:
    """Check the unit directions u, v, w; return them and phi @ u, phi @ v, phi @ w."""
    u, v, w = _unit(u, "u"), _unit(v, "v"), _unit(w, "w")
    phi = features.vectors
    if phi.shape[1] != u.shape[0] or v.shape[0] != u.shape[0] or w.shape[0] != u.shape[0]:
        raise InputError("direction vectors must match the feature dimension")
    return u, v, w, phi @ u, phi @ v, phi @ w


def core_coefficient(features: FeatureSet, u, v, w) -> float:
    """Third-order pooled coefficient along directions u, v, w.

    Computed from the raw vectors: (1/N) sum_n <phi_n,u><phi_n,v><phi_n,w>.
    Weights and the stored mean do not enter here.
    """
    *_, pu, pv, pw = _project(features, u, v, w)
    return float(np.mean(pu * pv * pw))


def detector_likelihood(lam: float, kappa: float, n: float) -> float:
    """Signed saturation sgn(lam) * (1 - (1 - |lam|/kappa)^n).

    |lam| is clamped to kappa; an excess beyond KAPPA_EXCESS_TOL triggers a
    warning because kappa bounds only coefficients along distinct orthonormal
    directions of unit-norm inputs (see the module docstring).
    """
    if not kappa > 0:
        raise DomainError(f"kappa must be positive, got {kappa}")
    if not n >= 1:
        raise DomainError(f"exponent must be >= 1, got {n}")
    lam = float(lam)
    if not math.isfinite(lam):
        raise DomainError(f"coefficient must be finite, got {lam}")
    mag = abs(lam)
    if mag > kappa:
        if mag - kappa > KAPPA_EXCESS_TOL:
            warnings.warn(
                f"coefficient magnitude {mag:.6g} exceeds kappa {kappa:.6g}; clamped",
                RuntimeWarning,
                stacklevel=2,
            )
        mag = kappa
    return float(np.sign(lam) * _OPS["maxexp"].g(mag / kappa, n))


def apply_epn_core(f: HosvdFactors, spec: PnSpec) -> HosvdFactors:
    """Normalize core coefficients with an odd (sign-preserving) map.

    maxexp uses the signed saturation sgn(x)*(1-(1-|x|/kappa)^eta) and
    requires |coefficients| <= kappa up to KAPPA_EXCESS_TOL. sigme applies
    tanh(eta' x / (2 kappa)) and needs no clamping. Even maps would erase
    coefficient signs, so other kinds are rejected.
    """
    if spec.kind not in ("maxexp", "sigme"):
        raise DomainError(
            f"core normalization needs an odd operator (maxexp or sigme), got {spec.kind}"
        )
    g = _OPS[spec.kind].g
    x = f.core / f.kappa
    if spec.kind == "maxexp":
        excess = float(np.max(np.abs(f.core))) - f.kappa if f.core.size else 0.0
        if excess > KAPPA_EXCESS_TOL:
            raise DomainError(
                f"core coefficient exceeds kappa by {excess:.3e}; kappa bounds only "
                "all-distinct-index entries, and a repeated-index entry can exceed it "
                "even for unit-norm inputs (use sigme)"
            )
        np.clip(x, -1.0, 1.0, out=x)
        sign = np.sign(x)
        out = sign * g(np.abs(x, out=x), spec.param)
    else:
        out = g(x, spec.param)
    return HosvdFactors(out, f.factor, f.kappa)


def tpe_dot(gx: DenseTensor, gy: DenseTensor) -> float:
    """Inner product of two normalized pooled tensors."""
    return inner(gx, gy)


def tpe_dot_factored(fx: HosvdFactors, fy: HosvdFactors) -> float:
    """Same inner product evaluated in factored form.

    Equals sum over core index pairs of the cores weighted by products of
    C = Ux^T Uy, one factor per mode, so it never forms the ambient tensors.
    """
    if fx.order != fy.order:
        raise InputError(f"order mismatch: {fx.order} vs {fy.order}")
    if fx.factor.shape[0] != fy.factor.shape[0]:
        raise InputError("factors live in different ambient dimensions")
    c = fx.factor.T @ fy.factor
    return float(np.dot(fx.core.ravel(), _all_modes(fy.core, c.T).ravel()))


def tpe_distance(gx: DenseTensor, gy: DenseTensor) -> float:
    """Frobenius distance between two normalized pooled tensors."""
    if gx.dims != gy.dims:
        raise InputError(f"shape mismatch: {gx.dims} vs {gy.dims}")
    return float(np.linalg.norm((gx.data - gy.data).ravel()))

"""Shared-factor HOSVD of super-symmetric tensors and core normalization.

A super-symmetric order-r tensor T factors as T = G x_1 U x_2 U ... x_r U
with a single orthonormal factor U (d x d') and core G (d' x ... x d').
U comes from the eigenvectors of the mode-1 Gram matrix M1 M1^T, truncated
at the rank cutoff d * eps * lambda_max. A record holds its core packed, one entry per
sorted index tuple of tensor's layout, and tensor._sym_expand lays it out densely for core,
and row by row for reconstruct. Record arrays cannot be made writable again (writing via
.base is unsupported), so a record's reconstruction and packed-vector memos stay valid.

For a pooled tensor of unit-norm vectors with weights <= 1 and no
centering, a core entry whose index values occur with multiplicities
m_1, ..., m_k is bounded by prod_k (m_k/r)^(m_k/2), and the bound is
attained. That is kappa = (1/sqrt(r))^r only when all indices differ: it
is 2/(3 sqrt(3)) for (i, i, j) at r=3 and 1 on the diagonal. The single
constant kappa scales the signed map sgn(c) g(min(|c|/kappa, hi)) of apply_epn_core
(every pointwise kind) and detector_likelihood (maxexp), so repeated-index entries can
exceed it even for unit-norm inputs: maxexp, whose domain ends at 1, refuses such a core.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, _check_int, _check_real
from .spectral import EigenDecomposition, PnSpec, _pointwise, _rank_cutoff, sym_eig
from .tensor import (MAX_ORDER, DenseTensor, FeatureSet, _Fresh, _owned, _pack_rows,
                     _packed_vector, _sym_expand, _sym_packing, _sym_rows, check_supersymmetric,
                     inner)

# soft ceiling on |coefficient| - kappa before clamping warns
KAPPA_EXCESS_TOL = 1e-9

# unit-norm tolerance for direction vectors
_UNIT_TOL = 1e-8


def kappa_for_order(r: int) -> float:
    """Peak magnitude (1/sqrt(r))^r of an all-distinct-index core entry
    for unit-norm inputs (see the module docstring for the other entries)."""
    r = _check_int(r, "order", 2, MAX_ORDER)
    return float(r ** (-r / 2.0))


@dataclass(frozen=True)
class _Packed:
    """A core as its sorted-tuple entries, just built here from a super-symmetric one:
    HosvdFactors adopts them unchecked, as _owned adopts a _Fresh array without a copy."""
    entries: np.ndarray
    shape: tuple[int, ...]


@dataclass(frozen=True, init=False, eq=False)
class HosvdFactors:
    """Super-symmetric core, shared factor matrix, and the order's kappa.

    The core is held as its m = binom(d'+r-1, r) distinct entries, one per sorted index
    tuple in tensor._sym_packing order, with its shape (d',)*r. core expands them to the
    dense array on each access, read-only and never kept. A dense core given to the
    constructor is checked once and packed: InputError unless it is cubic of order 2 to
    MAX_ORDER, DomainError unless check_supersymmetric holds. Every record is checked for
    a (d, d') factor matrix with the core's d' (InputError).
    """

    entries: np.ndarray
    core_shape: tuple[int, ...]
    factor: np.ndarray
    kappa: float

    def __init__(self, core, factor, kappa: float):
        if isinstance(core, _Packed):
            entries, shape = _Fresh(core.entries), core.shape
        else:
            a = _owned(core, "core")
            shape = a.shape
            if not 2 <= a.ndim <= MAX_ORDER or len(set(shape)) > 1:
                raise InputError(f"a core must be cubic of order 2 to {MAX_ORDER}, not {shape}")
            if a.size and not check_supersymmetric(DenseTensor(_Fresh(a))):
                raise DomainError("core is not super-symmetric")
            entries = _Fresh(a.ravel()[_sym_packing(shape[0], a.ndim)[0]])
        u = _owned(factor, "factor")
        if u.ndim != 2:
            raise InputError("factor must be a matrix")
        if shape[0] != u.shape[1]:
            raise InputError(f"core dims {shape} do not match factor rank {u.shape[1]}")
        for name, value in (("entries", _owned(entries, "core")), ("core_shape", shape),
                            ("factor", u), ("kappa", _check_real(kappa, "kappa", 0.0))):
            object.__setattr__(self, name, value)

    @property
    def core(self) -> np.ndarray:
        return _sym_expand(self.entries, self.core_shape[0], self.order)

    @property
    def order(self) -> int:
        return len(self.core_shape)

    @property
    def rank(self) -> int:
        return self.factor.shape[1]

    @functools.cached_property
    def _dense(self) -> DenseTensor:
        return DenseTensor(_Fresh(_ambient(self)), supersymmetric=True)

    @functools.cached_property
    def _packed(self) -> np.ndarray:
        dense = self.__dict__.get("_dense")  # share a reconstruction's packed vector
        return _packed_vector(_ambient(self)) if dense is None else dense._packed


def _all_modes(a: np.ndarray, mat: np.ndarray, steps: int) -> np.ndarray:
    """Contract the leading axis of a, steps times in turn, with the first axis of mat.

    Each step is one GEMM that contracts the leading axis and appends the
    new one last, so after a.ndim steps the axes are back in order without
    a moveaxis copy. Shapes are explicit products rather than -1, which
    numpy cannot infer when an axis has size 0 (a rank-0 core).
    """
    for _ in range(steps):
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
    """Factor a super-symmetric tensor with one shared orthonormal basis.

    The core is T x_1 U^T ... x_r U^T, and every partial product is symmetric in the axes
    not yet contracted, so the end steps run on distinct slices only: the first product on
    the m_(r-1) = binom(d+r-2, r-1) distinct rows of T.reshape(d^(r-1), d), expanded back
    by whole rows; the middle r - 2 are dense GEMMs; the last runs on the m'_(r-1) distinct
    columns, and the packed entries are read off its (m'_(r-1), d') rows.
    """
    if t.order < 2:
        raise InputError("hosvd needs order >= 2")
    if not (t.supersymmetric or check_supersymmetric(t)):
        raise DomainError("tensor is not super-symmetric")
    eig = _mode1_gram(t.data)[1]
    d, r = t.dims[0], t.order
    dprime = int(np.sum(eig.values > _rank_cutoff(eig.values)))
    u = eig.vectors[:, :dprime]
    # each step rebinds a, so no row or column temporary outlives its step
    a = _all_modes(_sym_expand(t.data.reshape(-1, d)[_sym_packing(d, r - 1)[0]] @ u, d, r - 1),
                   u, r - 2)
    a = a.reshape(d, math.prod(a.shape[1:]))[:, _sym_packing(dprime, r - 1)[0]]
    a = a.T @ u
    entries = _pack_rows(a, dprime, r)
    return HosvdFactors(_Packed(entries, (dprime,) * r), u, kappa_for_order(r))


def _ambient(f: HosvdFactors) -> np.ndarray:
    """The d^r tensor of a record: the first mode product on the core's m_(r-1) distinct
    rows, expanded, then the other r - 1 through the factor."""
    dprime, r, ut = f.rank, f.order, f.factor.T
    return _all_modes(_sym_expand(_sym_rows(f.entries, dprime, r) @ ut, dprime, r - 1), ut, r - 1)


def reconstruct(f: HosvdFactors) -> DenseTensor:
    """Map a core back to the ambient space through the shared factor, flagged
    super-symmetric. Memoized on the record, which holds the d^r tensor while it lives."""
    return f._dense


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
    """Signed saturation sgn(lam) * (1 - (1 - |lam|/kappa)^n), apply_epn_core's maxexp map.

    |lam| is clamped to kappa; an excess beyond KAPPA_EXCESS_TOL triggers a
    warning because kappa bounds only coefficients along distinct orthonormal
    directions of unit-norm inputs (see the module docstring).
    """
    kappa = _check_real(kappa, "kappa", 0.0)
    n = _check_real(n, "exponent", 1.0, ends="[)")
    lam = _check_real(lam, "coefficient")
    if abs(lam) - kappa > KAPPA_EXCESS_TOL:
        warnings.warn(f"coefficient magnitude {abs(lam):.6g} exceeds kappa {kappa:.6g}; clamped",
                      RuntimeWarning, stacklevel=2)
    return float(_signed_map(np.clip(lam, -kappa, kappa), kappa, PnSpec("maxexp", n)))


def apply_epn_core(f: HosvdFactors, spec: PnSpec) -> HosvdFactors:
    """Normalize core coefficients with the signed map sgn(c) * g(min(|c|/kappa, hi)).

    g is the kind's map and hi the upper end of its domain, from spectral._OPS, so every
    pointwise kind applies and keeps each sign: maxexp is the signed saturation, sigme
    tanh(eta' c / (2 kappa)), gamma the signed power normalization; grassmann is refused.
    maxexp, bounded at 1, requires |coefficients| <= kappa up to KAPPA_EXCESS_TOL.

    The check and the map see only the record's m = binom(d'+r-1, r) sorted-tuple
    entries, and the new record holds the mapped entries as they are.
    """
    out = _signed_map(f.entries, f.kappa, spec)
    return HosvdFactors(_Packed(out, f.core_shape), f.factor, f.kappa)


def _signed_map(coef: np.ndarray, kappa: float, spec: PnSpec) -> np.ndarray:
    """copysign(g(min(|c|/kappa, hi)), c) for each entry c of an array or numpy scalar.

    The sign bit is kept, a -0.0's included. A kind with a finite upper end hi refuses
    max |c| - kappa above KAPPA_EXCESS_TOL and clamps the rest.
    """
    op = _pointwise(spec)
    hi = op.domain[1]
    x = np.abs(coef) / kappa
    if hi < math.inf:
        excess = float(np.max(np.abs(coef))) - kappa if coef.size else 0.0
        if excess > KAPPA_EXCESS_TOL:
            raise DomainError(f"core coefficient exceeds kappa by {excess:.3e}; kappa bounds "
                              "only all-distinct-index entries, and a repeated-index entry can "
                              "exceed it even for unit-norm inputs (use sigme)")
        x = np.minimum(x, hi)
    return np.copysign(op.g(x, spec.param), coef)


def tpe_dot(gx: DenseTensor, gy: DenseTensor) -> float:
    """Inner product of two normalized pooled tensors."""
    return inner(gx, gy)


def tpe_dot_factored(fx: HosvdFactors, fy: HosvdFactors) -> float:
    """Same inner product for super-symmetric cores, as one dot of m-vectors.

    A record's first dot memoizes its m = binom(d+r-1, r) sorted-index entries
    times sqrt(multiplicity), held until it is freed, gathered from reconstruct's memo or
    a transient d^r ambient tensor: dearer than a 2r d'^(r+1) core transform if d' << d,
    but once per record.
    """
    if fx.order != fy.order:
        raise InputError(f"order mismatch: {fx.order} vs {fy.order}")
    if fx.factor.shape[0] != fy.factor.shape[0]:
        raise InputError("factors live in different ambient dimensions")
    return float(np.dot(fx._packed, fy._packed))


def tpe_distance(gx: DenseTensor, gy: DenseTensor) -> float:
    """Frobenius distance between two normalized pooled tensors.

    When both are flagged super-symmetric and cubic it is sqrt(sum count (a - b)^2) over
    the sorted index tuples: the distance of their packed vectors, which each tensor
    memoizes. Unflagged tensors, such as those read from files, take the dense difference.
    """
    if gx.dims != gy.dims:
        raise InputError(f"shape mismatch: {gx.dims} vs {gy.dims}")
    if gx.supersymmetric and gy.supersymmetric and len(set(gx.dims)) == 1:
        return float(np.linalg.norm(gx._packed - gy._packed))
    return float(np.linalg.norm((gx.data - gy.data).ravel()))

"""Dense tensors, weighted outer-product pooling, and mode arithmetic.

Order-r pooling of N feature vectors phi_n with weights w_n and mean mu:

    T = (1/N) * sum_n w_n^r * (phi_n - mu) x ... x (phi_n - mu)   (r factors)

The result is super-symmetric: invariant under any permutation of its indices.
Orders above 4 are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

MAX_ORDER = 4
SUPERSYM_TOL = 1e-12


def _owned(a, dtype=np.float64):
    """Copy into a fresh C-contiguous read-only array."""
    out = np.array(a, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FeatureSet:
    """N feature vectors with per-vector weights and a shared mean.

    vectors has shape (N, d). weights defaults to all ones, mean to zeros;
    both are validated and all arrays are copied and marked read-only.
    """

    vectors: np.ndarray
    weights: np.ndarray | None = None
    mean: np.ndarray | None = None

    def __post_init__(self):
        v = _owned(self.vectors)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise InputError("vectors must be a nonempty (N, d) array")
        if not np.all(np.isfinite(v)):
            raise InputError("vectors contain non-finite entries")
        n, d = v.shape
        w = _owned(np.ones(n) if self.weights is None else self.weights)
        if w.shape != (n,):
            raise InputError(f"weights must have shape ({n},), got {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise InputError("weights must be finite and nonnegative")
        m = _owned(np.zeros(d) if self.mean is None else self.mean)
        if m.shape != (d,):
            raise InputError(f"mean must have shape ({d},), got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InputError("mean contains non-finite entries")
        for name, arr in (("vectors", v), ("weights", w), ("mean", m)):
            object.__setattr__(self, name, arr)

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class DenseTensor:
    """A dense real tensor stored row-major.

    The supersymmetric flag is set by constructors that guarantee the
    property (outer_power, pool); consumers that need it re-verify when the
    flag is absent.
    """

    data: np.ndarray
    supersymmetric: bool = False

    def __post_init__(self):
        a = _owned(self.data)
        if a.ndim < 1 or a.ndim > MAX_ORDER:
            raise InputError(f"tensor order must be 1..{MAX_ORDER}, got {a.ndim}")
        if any(s < 1 for s in a.shape):
            raise InputError("tensor dimensions must be positive")
        if not np.all(np.isfinite(a)):
            raise InputError("tensor contains non-finite entries")
        object.__setattr__(self, "data", a)

    @property
    def order(self) -> int:
        return self.data.ndim

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape


def check_supersymmetric(t: DenseTensor, tol: float = SUPERSYM_TOL) -> bool:
    """True when every index permutation leaves the tensor unchanged.

    The comparison is absolute with tolerance tol, scaled up only when the
    largest coefficient magnitude exceeds 1. Only the r - 1 adjacent
    transpositions are compared, each at tol / (r(r-1)/2): every
    permutation is a product of at most r(r-1)/2 of them, so by the
    triangle inequality every permutation stays within tol.
    """
    a = t.data
    r = t.order
    if r < 2 or len(set(a.shape)) != 1:
        return False
    atol = tol * max(1.0, float(np.max(np.abs(a)))) / (r * (r - 1) // 2)
    return all(np.max(np.abs(a - a.swapaxes(k, k + 1))) <= atol for k in range(r - 1))


def _check_order(r):
    if not isinstance(r, (int, np.integer)) or not 2 <= r <= MAX_ORDER:
        raise InputError(f"order must be an integer in 2..{MAX_ORDER}, got {r}")


def outer_power(x, r: int) -> DenseTensor:
    """r-fold outer product of a vector with itself."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise InputError("outer_power expects a nonempty vector")
    _check_order(r)
    data = x
    for _ in range(r - 1):
        data = np.multiply.outer(data, x)
    return DenseTensor(data, supersymmetric=True)


def _khatri_rao(x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Rows scale_n * (x_n outer x_n), flattened to shape (len(x), d*d)."""
    n, d = x.shape
    return ((x * scale[:, None])[:, :, None] * x[:, None, :]).reshape(n, d * d)


def pool(features: FeatureSet, r: int) -> DenseTensor:
    """Order-r weighted pooling of a feature set (see module docstring).

    Every order is a matrix product: r=2 is q^T q with q = w*phi, r=3 is
    (w^3 phi (.) phi)^T phi and r=4 is q^T q with q = w^2 phi (.) phi, where
    (.) is the row-wise Khatri-Rao product. For r >= 3 the rows are summed
    in blocks of d^(r-2), so the (block, d^2) Khatri-Rao buffer never holds
    more entries than the result.
    """
    _check_order(r)
    phi = features.vectors - features.mean
    w = features.weights
    n, d = phi.shape
    if r == 2:
        q = phi * w[:, None]
        data = q.T @ q
    else:
        block = d ** (r - 2)
        data = np.zeros((d * d, block))
        for s in range(0, n, block):
            x, ws = phi[s : s + block], w[s : s + block]
            if r == 3:
                data += _khatri_rao(x, ws**3).T @ x
            else:
                q = _khatri_rao(x, ws**2)
                data += q.T @ q
    data /= n
    return DenseTensor(data.reshape((d,) * r), supersymmetric=True)


def frobenius_norm(t: DenseTensor) -> float:
    return float(np.linalg.norm(t.data.ravel()))


def inner(a: DenseTensor, b: DenseTensor) -> float:
    """Frobenius inner product; shapes must match exactly."""
    if a.dims != b.dims:
        raise InputError(f"shape mismatch: {a.dims} vs {b.dims}")
    return float(np.dot(a.data.ravel(), b.data.ravel()))


def _check_mode(mode: int, order: int):
    if not isinstance(mode, (int, np.integer)) or not 1 <= mode <= order:
        raise InputError(f"mode must be in 1..{order}, got {mode}")


def mode_product(t: DenseTensor, v, mode: int) -> DenseTensor:
    """Contract mode `mode` (1-based) with a vector, dropping that mode."""
    _check_mode(mode, t.order)
    if t.order < 2:
        raise InputError("mode_product needs order >= 2")
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (t.dims[mode - 1],):
        raise InputError(f"vector length {v.shape} does not match mode size {t.dims[mode - 1]}")
    data = np.tensordot(t.data, v, axes=([mode - 1], [0]))
    keep_flag = t.supersymmetric and data.ndim >= 2
    return DenseTensor(data, supersymmetric=keep_flag)


def unfold(t: DenseTensor, mode: int) -> np.ndarray:
    """Mode unfolding to a (d_mode, prod(rest)) matrix.

    Rows carry the chosen mode; the remaining axes are flattened with the
    earliest one varying fastest, so for an order-3 tensor the mode-1
    unfolding is the slice stack [T[:,:,0], T[:,:,1], ...].
    """
    _check_mode(mode, t.order)
    a = np.moveaxis(t.data, mode - 1, 0)
    return a.reshape(a.shape[0], -1, order="F")


def refold(m, mode: int, dims) -> DenseTensor:
    """Inverse of unfold for the given mode and full dims tuple."""
    m = np.asarray(m, dtype=np.float64)
    dims = tuple(int(s) for s in dims)
    _check_mode(mode, len(dims))
    rest = dims[: mode - 1] + dims[mode:]
    if m.ndim != 2 or m.shape != (dims[mode - 1], math.prod(rest)):
        raise InputError(
            f"matrix shape {m.shape} does not refold into dims {dims} along mode {mode}"
        )
    a = m.reshape((dims[mode - 1],) + rest, order="F")
    return DenseTensor(np.moveaxis(a, 0, mode - 1))

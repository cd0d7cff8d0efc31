"""Analytic derivatives through eigendecomposition, matrix maps, and cores.

Eigenvalue, eigenvector and shared-factor derivatives need a simple
spectrum: an eigengap at or below 1e-6 of the spectral radius is a hard
error, since they genuinely blow up there. epn_matrix_vjp is defined at every
symmetric X, ties included. A VJP run right after its forward map on the
same matrix reuses that map's sym_eig.

The finite-difference oracle perturbs symmetric coordinates: the (c, e) and
(e, c) entries move jointly by h/2 each, so analytic formulas must report
the symmetrized sensitivity to match, and all of them here do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DomainError,
    InputError,
    _check_finite,
    _check_int,
    _check_real,
)
from .hosvd import _mode1_gram, _project
from .spectral import (
    SPSD_KINDS,
    EigenDecomposition,
    PnSpec,
    _pn_deriv,
    _pointwise,
    _spsd_values,
    pn_scalar,
    sym_eig,
)
from .tensor import DenseTensor, FeatureSet, _Fresh

EIG_GAP_REL = 1e-6


def _check_simple(values: np.ndarray, i: int | None = None) -> None:
    """Reject eigengaps at or below EIG_GAP_REL relative to the radius.

    With i given only gaps involving that (0-based) index matter; otherwise
    every pair must be separated.
    """
    scale = max(float(np.max(np.abs(values))), np.finfo(np.float64).tiny)
    diffs = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(diffs, np.inf)
    rows = diffs if i is None else diffs[[i]]
    a, b = np.unravel_index(int(np.argmin(rows)), rows.shape)
    gap = rows[a, b]
    if gap <= EIG_GAP_REL * scale:
        first = a + 1 if i is None else i + 1
        raise DegenerateSpectrumError(
            f"eigenvalues {first} and {b + 1} are separated by {gap:.3e}, "
            f"below {EIG_GAP_REL:g} of the spectral radius {scale:.3e}"
        )


def eig_value_grad(x, i: int) -> np.ndarray:
    """Sensitivity of the i-th (1-based, descending) eigenvalue: u_i u_i^T."""
    eig = sym_eig(x)
    d = eig.values.shape[0]
    i = _check_int(i, "index", 1, d)
    _check_simple(eig.values, i - 1)
    u = eig.vectors[:, i - 1]
    return np.outer(u, u)


def _gap_inverse(values: np.ndarray) -> np.ndarray:
    """Divided-difference matrix F[j, k] = 1 / (lambda_j - lambda_k).

    Entries with lambda_j == lambda_k, the diagonal among them, are zero:
    the pseudo-inverse convention. epn_matrix_vjp overwrites every near
    pair; the other callers run _check_simple first.
    """
    diff = values[:, None] - values[None, :]
    return np.divide(1.0, diff, out=np.zeros_like(diff), where=diff != 0.0)


def _pinv_shifted(eig: EigenDecomposition, j: int) -> np.ndarray:
    """Pseudo-inverse of (lambda_j I - X) that annihilates direction j."""
    return (eig.vectors * _gap_inverse(eig.values)[j]) @ eig.vectors.T


def eig_vector_grad(x, i: int, j: int) -> np.ndarray:
    """Sensitivity of eigenvector entry u_ij under symmetric perturbations.

    Built from the shifted pseudo-inverse P_j = (lambda_j I - X)^+ as
    sym(P_j e_i u_j^T); the gauge is the deterministic sign convention of
    sym_eig, so finite differences on the same convention agree.
    """
    eig = sym_eig(x)
    d = eig.values.shape[0]
    i = _check_int(i, "entry index", 1, d)
    j = _check_int(j, "eigenvector index", 1, d)
    _check_simple(eig.values, j - 1)
    p = _pinv_shifted(eig, j - 1)
    g = np.outer(p[:, i - 1], eig.vectors[:, j - 1])
    return 0.5 * (g + g.T)


def _checked_upstream(upstream, shape: tuple) -> np.ndarray:
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != shape:
        raise InputError(f"upstream must have shape {shape}, got {upstream.shape}")
    return _check_finite(upstream, "upstream", DomainError)


def epn_matrix_vjp(x, spec: PnSpec, upstream) -> np.ndarray:
    """Pull an output sensitivity back through the eigenvalue map.

    Differentiates X -> U g(diag(lambda)) U^T without spectrum
    normalization, in the Daleckii-Krein form U (L o U^T W U) U^T with W
    the symmetrized upstream, o the entrywise product, and the Loewner
    matrix L_jk = (g(lambda_j) - g(lambda_k)) / (lambda_j - lambda_k). The
    diagonal of L carries the eigenvalue term, the rest the eigenvector term.

    Near pairs, the diagonal among them, take g' at their midpoint, so ties
    need no eigengap. A pair is near when its gap is at most EIG_GAP_REL
    times its scale: the larger distance of the two from 0, or for a kind with a
    finite upper end hi (maxexp's 1), which rounds on that scale, from hi but at
    most the spectral radius. The midpoint and W halve before they add.
    The midpoint's error grows as (gap / scale)^2, the divided difference's
    rounding as scale / gap. Pairs that _check_simple accepts are not near.
    """
    hi = _pointwise(spec).domain[1]
    eig = sym_eig(x)
    upstream = _checked_upstream(upstream, eig.vectors.shape)
    vals = eig.values
    if spec.kind in SPSD_KINDS:
        vals = _spsd_values(vals, spec.kind)
    g = pn_scalar(vals, spec)
    loewner = (g[:, None] - g[None, :]) * _gap_inverse(eig.values)
    scale = np.minimum(np.abs(hi - vals), vals[0]) if hi < np.inf else np.abs(vals)
    near = np.abs(vals[:, None] - vals) <= EIG_GAP_REL * np.maximum(scale[:, None], scale)
    loewner[near] = _pn_deriv((0.5 * vals[:, None] + 0.5 * vals)[near], spec)
    w = 0.5 * upstream + 0.5 * upstream.T
    u = eig.vectors
    return u @ (loewner * (u.T @ w @ u)) @ u.T


def unfolded_factor_vjp(t: DenseTensor, upstream) -> DenseTensor:
    """Pull a sensitivity on the shared factor back to the tensor.

    The factor U collects eigenvectors of the mode-1 Gram S = M1 M1^T with
    M1 = T.reshape(d, -1). S and U come from hosvd, the same code that
    hosvd_supersym factors with. The chain runs U <- S <- M1 <- T. The S
    step is G = U (F^T o U^T Ubar) U^T with Ubar the upstream, o the
    entrywise product and F_jk = 1 / (lambda_j - lambda_k) (zero diagonal),
    the M1 step is d(S) = dM M1^T + M1 dM^T, so Mbar = (G + G^T) M1, and
    Mbar reshapes back to the dims of T, at any order.
    """
    m1, eig = _mode1_gram(t.data)
    upstream = _checked_upstream(upstream, eig.vectors.shape)
    _check_simple(eig.values)
    u = eig.vectors
    g_raw = u @ (_gap_inverse(eig.values).T * (u.T @ upstream)) @ u.T
    mbar = (g_raw + g_raw.T) @ m1
    return DenseTensor(_Fresh(mbar.reshape(t.dims)))


def core_coefficient_grad(features: FeatureSet, u, v, w) -> np.ndarray:
    """Per-vector sensitivities of the pooled third-order coefficient.

    Returns an (N, d) array whose n-th row is
    (1/N) [<phi_n,v><phi_n,w> u + <phi_n,u><phi_n,w> v + <phi_n,u><phi_n,v> w]
    with the directions held fixed.
    """
    u, v, w, pu, pv, pw = _project(features, u, v, w)
    n = features.count
    return (np.outer(pv * pw, u) + np.outer(pu * pw, v) + np.outer(pu * pv, w)) / n


@dataclass(frozen=True)
class MatrixGradient:
    """Numeric Jacobian of a map on symmetric matrices.

    jac has shape out_shape + (d, d); entry [..., c, e] is the derivative
    of the output along the symmetrized coordinate direction (c, e).
    """

    jac: np.ndarray

    def vjp(self, upstream) -> np.ndarray:
        out_ndim = self.jac.ndim - 2
        upstream = _checked_upstream(upstream, self.jac.shape[:out_ndim])
        return np.tensordot(upstream, self.jac, axes=out_ndim)


def finite_diff_oracle(f, x, h: float = 1e-5) -> MatrixGradient:
    """Central-difference Jacobian of f over symmetric coordinates.

    Off-diagonal directions perturb (c, e) and (e, c) jointly by h/2 each;
    diagonal directions perturb the single entry by h. The result of f must
    be a finite scalar or array of fixed shape.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise InputError(f"expected a square matrix, got shape {x.shape}")
    _check_finite(x, "matrix", DomainError)
    h = _check_real(h, "step", 0.0)
    d = x.shape[0]
    base = np.asarray(f(x), dtype=np.float64)
    jac = np.zeros(base.shape + (d, d))
    for c in range(d):
        for e in range(c, d):
            s = np.zeros((d, d))
            if c == e:
                s[c, c] = 1.0
            else:
                s[c, e] = 0.5
                s[e, c] = 0.5
            plus = np.asarray(f(x + h * s), dtype=np.float64)
            minus = np.asarray(f(x - h * s), dtype=np.float64)
            if not (np.all(np.isfinite(plus)) and np.all(np.isfinite(minus))):
                raise DomainError(f"map returned non-finite values near coordinate ({c}, {e})")
            step = (plus - minus) / (2.0 * h)
            jac[..., c, e] = step
            jac[..., e, c] = step
    return MatrixGradient(jac)

"""Analytic derivatives through eigendecomposition, matrix maps, and cores.

All eigen-derivative formulas assume a simple spectrum: an eigengap at or
below 1e-6 relative to the spectral radius is a hard error rather than a
jitter, since the underlying derivative genuinely blows up there. Callers
holding nearly-degenerate inputs should perturb them deliberately.

The finite-difference oracle perturbs symmetric coordinates: the (c, e) and
(e, c) entries move jointly by h/2 each, so analytic formulas must report
the symmetrized sensitivity to match, and all of them here do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, DomainError, InputError
from .hosvd import _mode1_gram, _project
from .spectral import (
    SPSD_KINDS,
    EigenDecomposition,
    PnSpec,
    _pn_deriv,
    _spsd_values,
    pn_scalar,
    sym_eig,
)
from .tensor import DenseTensor, FeatureSet

EIG_GAP_REL = 1e-6


def _check_simple(values: np.ndarray, i: int | None = None) -> None:
    """Reject eigengaps at or below EIG_GAP_REL relative to the radius.

    With i given only gaps involving that (0-based) index matter; otherwise
    every pair must be separated.
    """
    d = values.shape[0]
    if d < 2:
        return
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


def _check_index(i: int, d: int, name: str = "index") -> int:
    if not isinstance(i, (int, np.integer)) or not 1 <= i <= d:
        raise InputError(f"{name} must be in 1..{d}, got {i}")
    return int(i)


def eig_value_grad(x, i: int) -> np.ndarray:
    """Sensitivity of the i-th (1-based, descending) eigenvalue: u_i u_i^T."""
    eig = sym_eig(x)
    d = eig.values.shape[0]
    i = _check_index(i, d)
    _check_simple(eig.values, i - 1)
    u = eig.vectors[:, i - 1]
    return np.outer(u, u)


def _gap_inverse(values: np.ndarray) -> np.ndarray:
    """Divided-difference matrix F[j, k] = 1 / (lambda_j - lambda_k).

    Entries with lambda_j == lambda_k, the diagonal among them, are zero:
    the pseudo-inverse convention. Callers that need every gap run
    _check_simple first.
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
    i = _check_index(i, d, "entry index")
    j = _check_index(j, d, "eigenvector index")
    _check_simple(eig.values, j - 1)
    p = _pinv_shifted(eig, j - 1)
    g = np.outer(p[:, i - 1], eig.vectors[:, j - 1])
    return 0.5 * (g + g.T)


def _checked_upstream(upstream, d: int) -> np.ndarray:
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (d, d):
        raise InputError(f"upstream must have shape ({d}, {d}), got {upstream.shape}")
    if not np.all(np.isfinite(upstream)):
        raise DomainError("upstream contains non-finite entries")
    return upstream


def epn_matrix_vjp(x, spec: PnSpec, upstream) -> np.ndarray:
    """Pull an output sensitivity back through the eigenvalue map.

    Differentiates X -> U g(diag(lambda)) U^T without spectrum
    normalization, in the Daleckii-Krein form U (L o U^T W U) U^T with W
    the symmetrized upstream, o the entrywise product, and the Loewner
    matrix L_jk = (g(lambda_j) - g(lambda_k)) / (lambda_j - lambda_k),
    L_jj = g'(lambda_j). The diagonal of L carries the eigenvalue term,
    the rest the eigenvector term.
    """
    if spec.kind == "grassmann":
        raise DomainError("grassmann has no pointwise derivative")
    eig = sym_eig(x)
    upstream = _checked_upstream(upstream, eig.values.shape[0])
    _check_simple(eig.values)
    vals = eig.values
    if spec.kind in SPSD_KINDS:
        vals = _spsd_values(vals, spec.kind)
    g = pn_scalar(vals, spec)
    loewner = (g[:, None] - g[None, :]) * _gap_inverse(eig.values)
    np.fill_diagonal(loewner, _pn_deriv(vals, spec))
    w = 0.5 * (upstream + upstream.T)
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
    Mbar reshapes back to the dims of T.
    """
    if t.order != 3:
        raise InputError(f"expected an order-3 tensor, got order {t.order}")
    m1, eig = _mode1_gram(t.data)
    upstream = _checked_upstream(upstream, eig.values.shape[0])
    _check_simple(eig.values)
    u = eig.vectors
    g_raw = u @ (_gap_inverse(eig.values).T * (u.T @ upstream)) @ u.T
    mbar = (g_raw + g_raw.T) @ m1
    return DenseTensor(mbar.reshape(t.dims))


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
        upstream = np.asarray(upstream, dtype=np.float64)
        out_ndim = self.jac.ndim - 2
        if upstream.shape != self.jac.shape[:out_ndim]:
            raise InputError(
                f"upstream shape {upstream.shape} does not match output "
                f"shape {self.jac.shape[:out_ndim]}"
            )
        return np.tensordot(upstream, self.jac, axes=(
            tuple(range(out_ndim)), tuple(range(out_ndim))
        ))


def finite_diff_oracle(f, x, h: float = 1e-5) -> MatrixGradient:
    """Central-difference Jacobian of f over symmetric coordinates.

    Off-diagonal directions perturb (c, e) and (e, c) jointly by h/2 each;
    diagonal directions perturb the single entry by h. The result of f must
    be a finite scalar or array of fixed shape.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise InputError(f"expected a square matrix, got shape {x.shape}")
    if not (np.isfinite(h) and h > 0):
        raise DomainError(f"step must be positive, got {h}")
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

"""Dense tensors, weighted outer-product pooling, and mode arithmetic.

Order-r pooling of N feature vectors phi_n with weights w_n and mean mu:

    T = (1/N) * sum_n w_n^r * (phi_n - mu) x ... x (phi_n - mu)   (r factors)

The result is super-symmetric: invariant under any permutation of its indices.
Orders above 4 are out of scope. The packed layout, one entry per sorted index tuple
i_1 <= ... <= i_r in lexicographic order, is this module's (_sym_packing, _sym_tables):
_sym_expand lays packed entries out densely, _sym_rows and _pack_rows convert them to and
from rows of one free last index, and _packed_vector packs a dense array.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, _check_finite, _check_int, _check_real

MAX_ORDER = 4
SUPERSYM_TOL = 1e-12


@dataclass(frozen=True)
class _Fresh:
    """An array the library has just built and holds nowhere else, for a record to adopt."""
    array: np.ndarray


def _owned(a, name: str, dtype=np.float64):
    """Read-only view, never re-writable, of a fresh C-order copy; InputError unless finite.
    A _Fresh array is adopted instead, converted only if not C-order dtype, and frozen
    with the buffer it views (a reshape or a gather leaves one)."""
    fresh = isinstance(a, _Fresh)
    out = np.asarray(a.array, dtype, order="C") if fresh else np.array(a, dtype, order="C")
    _check_finite(out, name, InputError).flags.writeable = False
    if fresh and isinstance(out.base, np.ndarray):
        out.base.flags.writeable = False
    return out.view()


@dataclass(frozen=True, eq=False)
class FeatureSet:
    """N feature vectors with per-vector weights and a shared mean.

    vectors has shape (N, d). weights defaults to all ones, mean to zeros; all three are
    checked finite and marked read-only, given arrays copied and the built defaults adopted.
    """

    vectors: np.ndarray
    weights: np.ndarray | None = None
    mean: np.ndarray | None = None

    def __post_init__(self):
        v = _owned(self.vectors, "vectors")
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise InputError("vectors must be a nonempty (N, d) array")
        n, d = v.shape
        w = _owned(_Fresh(np.ones(n)) if self.weights is None else self.weights, "weights")
        if w.shape != (n,):
            raise InputError(f"weights must have shape ({n},), got {w.shape}")
        if np.any(w < 0):
            raise InputError("weights must be finite and nonnegative")
        m = _owned(_Fresh(np.zeros(d)) if self.mean is None else self.mean, "mean")
        if m.shape != (d,):
            raise InputError(f"mean must have shape ({d},), got {m.shape}")
        for name, arr in (("vectors", v), ("weights", w), ("mean", m)):
            object.__setattr__(self, name, arr)

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True, eq=False)
class DenseTensor:
    """A dense real tensor stored row-major.

    The supersymmetric flag is set by constructors that guarantee the
    property (outer_power, pool, reconstruct); a flag set on data the library
    did not just build is checked once (DomainError unless check_supersymmetric).
    Consumers that need the property re-verify when the flag is absent.
    """

    data: np.ndarray
    supersymmetric: bool = False

    def __post_init__(self):
        checked = self.supersymmetric and not isinstance(self.data, _Fresh)
        a = _owned(self.data, "tensor")
        if a.ndim < 1 or a.ndim > MAX_ORDER:
            raise InputError(f"tensor order must be 1..{MAX_ORDER}, got {a.ndim}")
        if any(s < 1 for s in a.shape):
            raise InputError("tensor dimensions must be positive")
        object.__setattr__(self, "data", a)
        if checked and not check_supersymmetric(self):
            raise DomainError("tensor flagged super-symmetric is not super-symmetric")

    @property
    def order(self) -> int:
        return self.data.ndim

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @functools.cached_property
    def _packed(self) -> np.ndarray:
        """_packed_vector(data) for a flagged cubic tensor, made on first use and kept."""
        return _packed_vector(self.data)


def check_supersymmetric(t: DenseTensor, tol: float = SUPERSYM_TOL) -> bool:
    """True when every index permutation leaves the tensor unchanged.

    The comparison is absolute with tolerance tol, scaled up only when the
    largest coefficient magnitude exceeds 1. Only the r - 1 adjacent
    transpositions are compared, each at tol / (r(r-1)/2): every
    permutation is a product of at most r(r-1)/2 of them, so by the
    triangle inequality every permutation stays within tol.
    """
    tol = _check_real(tol, "tolerance", 0.0, ends="[)")
    a = t.data
    r = t.order
    if r < 2 or len(set(a.shape)) != 1:
        return False
    atol = tol * max(1.0, float(np.max(np.abs(a)))) / (r * (r - 1) // 2)
    return all(np.max(np.abs(a - a.swapaxes(k, k + 1))) <= atol for k in range(r - 1))


def outer_power(x, r: int) -> DenseTensor:
    """r-fold outer product of a vector with itself."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise InputError("outer_power expects a nonempty vector")
    _check_int(r, "order", 2, MAX_ORDER)
    data = x
    for _ in range(r - 1):
        data = np.multiply.outer(data, x)
    return DenseTensor(_Fresh(data), supersymmetric=True)


def _index_dtype(n: int) -> np.dtype:
    """Smallest unsigned dtype that holds 0 .. n - 1."""
    return np.min_scalar_type(max(n - 1, 0))


def _kept(a: np.ndarray, dtype) -> np.ndarray:
    """A copy of a in dtype over an immutable bytes buffer, so the writeable flag cannot be
    set again on it or on any view of it: the cached maps are shared by every caller."""
    return np.frombuffer(a.astype(dtype, copy=False).tobytes(), dtype).reshape(a.shape)


# bytes of index maps kept across calls, over every shape: room for every d' <= 64 at r = 3
# and every d' <= 24 at r = 4 at once (9.0 MiB), not for (64, 4) alone (15.1 MiB).
# descriptor's shapes (32, 3), (64, 3), (24, 4), and (24, 2) for its order-4 pools, hold
# 0.75 MiB; building them raises a fresh process's RSS by 2.8 MiB
_MAP_BYTES = 12 << 20
_maps: OrderedDict = OrderedDict()
_maps_lock = threading.Lock()


def _cached_maps(build):
    """Memoize build(d, r)'s tuple of read-only arrays in _maps, which every such builder
    shares. The least recently used go first once _maps holds more than _MAP_BYTES; maps
    bigger than that alone are not kept, so their shape is rebuilt on every call."""

    @functools.wraps(build)
    def cached(d: int, r: int) -> tuple[np.ndarray, ...]:
        key = (build.__name__, d, r)
        with _maps_lock:
            if key in _maps:
                _maps.move_to_end(key)
                return _maps[key]
        maps = build(d, r)
        size = sum(a.nbytes for a in maps)
        with _maps_lock:
            if size <= _MAP_BYTES:
                _maps[key] = maps
            while sum(a.nbytes for kept in _maps.values() for a in kept) > _MAP_BYTES:
                _maps.popitem(last=False)
        return maps

    return cached


def _grown(last: np.ndarray, v: np.ndarray):
    """One level longer: each sorted tuple, with last index last[q], takes every index
    v >= last[q]. The new tuples are the True cells, in row-major order, of the returned
    (len(last), d) mask; also returned are their last indices and spread(a), which repeats
    a per-tuple array over each tuple's new ones."""
    grow = v >= last[:, None]
    return grow, np.broadcast_to(v, grow.shape)[grow], (
        lambda a: np.broadcast_to(a[:, None], grow.shape)[grow])


@_cached_maps
def _sym_packing(d: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat (d,)*r positions of the m sorted tuples i_1 <= ... <= i_r, in order, and their
    counts r!/prod m_k!, grown by each v >= the last index in O(m). Each is kept in its
    smallest unsigned dtype (counts uint8): 5 bytes per sorted tuple at (64, 3) and (24, 4).
    The build holds each m-length array in its own smallest dtype too: last indices < d,
    run lengths <= r."""
    v = np.arange(d, dtype=_index_dtype(d))
    last, run = np.zeros(1, v.dtype), np.zeros(1, np.uint8)
    flat = np.zeros(1, _index_dtype(max(d**r, d + 1)))  # room for the step's factor d
    count = np.ones(1, _index_dtype(math.factorial(r) + 1))  # holds count * k <= k!
    for k in range(1, r + 1):
        new, spread = _grown(last, v)[1:]
        flat = spread(flat)
        flat *= d
        flat += new
        run = np.where(new == spread(last), spread(run) + 1, 1)
        count = spread(count) * k // run  # exact: the quotient is a multinomial
        last = new
    return _kept(flat, _index_dtype(d**r)), _kept(count, count.dtype)


@_cached_maps
def _sym_tables(d: int, r: int) -> tuple[np.ndarray, ...]:
    """Insertion tables T_2 .. T_r of the sorted tuples, numbered in _sym_packing's order:
    T_k[q, v] is the number of sorted(u + (v,)) among the sorted k-tuples, u the q-th sorted
    (k-1)-tuple. Gathering m values through T_r, then T_(r-1), ..., T_2 lays them out as the
    (d,)*r super-symmetric tensor (_sym_expand), with m_(k-1) d entries in T_k, not d^r.

    Level by level: (u, v) is already sorted when v >= u's last index, and then numbered
    base[u] + v; otherwise it sorts to sorted(u[:-1] + (v,)), which T_(k-1) numbers, followed
    by u's last index. Each table is built in the smallest unsigned dtype for its m_k (uint16
    while m_k <= 65,536), and so is every array the build holds."""
    v = np.arange(d, dtype=_index_dtype(d))
    last, prefix, tables = v, np.zeros(d, np.uint8), (v[None],)
    for _ in range(2, r + 1):
        grow, new, spread = _grown(last, v)
        reps = np.count_nonzero(grow, axis=1)
        dtype = _index_dtype(int(reps.sum()))
        base = (np.cumsum(reps) - reps - last).astype(dtype)  # >= 0: tuple q is >= last[q]-th
        t = base[tables[-1][prefix]]
        t += last[:, None]  # may wrap where v >= last, which np.add then overwrites
        np.add(base[:, None], v, out=t, where=grow)
        tables += (_kept(t, dtype),)
        prefix, last = spread(np.arange(last.size, dtype=_index_dtype(last.size))), new
    return tables[1:]


def _sym_expand(entries: np.ndarray, d: int, r: int) -> np.ndarray:
    """The (d,)*r + trailing array, super-symmetric in its first r axes, whose sorted-tuple
    entries, in _sym_packing order, are entries (m, *trailing): fresh on each call, and
    read-only for good (a view of a frozen array). At r = 1 that is entries itself, frozen.
    The insertion tables _sym_tables(d, r) are composed into one (d,)*r index first, so the
    values are gathered once, by whole trailing blocks, with no intermediate of their own."""
    tables = _sym_tables(d, r)
    out = entries
    if tables:
        index = tables[-1]
        for t in reversed(tables[:-1]):
            index = index[t]
        out = entries[index]
    out.setflags(write=False)  # unlike flags.writeable, holds no memory while out lives
    return out.view()


def _sym_rows(entries: np.ndarray, d: int, r: int) -> np.ndarray:
    """The (m_(r-1), d) rows of r-tuple entries, r >= 2: row q holds the entries at
    sorted(u_q + (v,)) for v = 0 .. d-1, u_q the q-th sorted (r-1)-tuple. Gathered through
    the last insertion table, so _sym_expand(rows, d, r - 1) is _sym_expand(entries, d, r)."""
    return entries[_sym_tables(d, r)[-1]]


def _pack_rows(rows: np.ndarray, d: int, r: int) -> np.ndarray:
    """The sorted r-tuple entries, in _sym_packing(d, r) order, of (m_(r-1), d) rows laid
    out as _sym_rows lays them out: the cells v >= the last index of u_q, row by row."""
    last = _sym_packing(d, r - 1)[0] % max(d, 1)
    return rows[np.arange(d, dtype=last.dtype) >= last[:, None]]  # one dtype: no cast buffers


def _packed_vector(a: np.ndarray) -> np.ndarray:
    """sqrt(count) times each sorted-tuple entry of a cubic super-symmetric array of order
    >= 2, so that the dot of two such vectors is the Frobenius inner product of the arrays."""
    flat, count = _sym_packing(a.shape[0], a.ndim)
    return np.sqrt(count, dtype=np.float64) * a.ravel()[flat]


def pool(features: FeatureSet, r: int) -> DenseTensor:
    """Order-r weighted pooling of a feature set (see module docstring).

    Only index pairs i <= j are computed, and T equals T.swapaxes(0, 1)
    exactly: r=2 is q^T q with q = w*phi; r=3 fills T[i, i:, :] with
    (w^3 phi_i phi_{i:})^T phi and mirrors it to T[i:, i, :]; r=4 gathers the Gram of
    the packed pair products w^2 phi_i phi_j, divided by N, through the pair table
    _sym_tables(d, 2)[0] into a C-order array.
    For r >= 3 rows are summed in blocks of d^2, so no temporary outsizes the result.
    When every mean entry is +0.0 and every weight 1, phi - mu and w*phi are phi bit for bit,
    so the vectors are read in place: r=2 is one phi^T phi, with no (N, d) temporary.
    """
    _check_int(r, "order", 2, MAX_ORDER)
    w, mean = features.weights, features.mean
    # all bits zero: a -0.0 entry would turn a -0.0 feature into +0.0, so it is subtracted
    plain = not mean.view(np.uint64).any() and bool(np.all(w == 1.0))
    phi = features.vectors if plain else features.vectors - mean
    n, d = phi.shape
    if r == 2:
        if not plain:
            phi *= w[:, None]  # phi is a fresh array, so q needs no second buffer
        data = phi.T @ phi
    elif r == 3:
        data = np.empty((d, d, d))
        for s in range(0, n, d * d):
            x, w3 = phi[s : s + d * d], w[s : s + d * d] ** 3
            xt = np.ascontiguousarray(x.T)  # so no GEMM below takes a transposed operand
            for i in range(d):
                part = (xt[i:] * (xt[i] * w3)) @ x
                data[i, i:] = part if s == 0 else data[i, i:] + part
        for i in range(d):
            data[i + 1 :, i] = data[i, i + 1 :]
    else:
        i, j = divmod(_sym_packing(d, 2)[0], d)
        for s in range(0, n, d * d):
            xt = np.ascontiguousarray(phi[s : s + d * d].T)
            p = xt[i]
            p *= w[s : s + d * d] ** 2
            p *= xt[j]
            gram = p @ p.T if s == 0 else gram + p @ p.T
        del p, xt  # before the d^4 gather
        gram /= n  # m_2^2 divisions before the gather, not d^4 after it
        pair = _sym_tables(d, 2)[0]
        # take along the last axis keeps the gather C-order, so the record adopts it uncopied
        return DenseTensor(_Fresh(np.take(gram[pair], pair, axis=2)), supersymmetric=True)
    data /= n
    return DenseTensor(_Fresh(data), supersymmetric=True)


def frobenius_norm(t: DenseTensor) -> float:
    return float(np.linalg.norm(t.data.ravel()))


def inner(a: DenseTensor, b: DenseTensor) -> float:
    """Frobenius inner product; shapes must match exactly."""
    if a.dims != b.dims:
        raise InputError(f"shape mismatch: {a.dims} vs {b.dims}")
    return float(np.dot(a.data.ravel(), b.data.ravel()))


def mode_product(t: DenseTensor, v, mode: int) -> DenseTensor:
    """Contract mode `mode` (1-based) with a vector, dropping that mode."""
    _check_int(mode, "mode", 1, t.order)
    if t.order < 2:
        raise InputError("mode_product needs order >= 2")
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (t.dims[mode - 1],):
        raise InputError(f"vector length {v.shape} does not match mode size {t.dims[mode - 1]}")
    data = np.tensordot(t.data, v, axes=([mode - 1], [0]))
    keep_flag = t.supersymmetric and data.ndim >= 2
    return DenseTensor(_Fresh(data), supersymmetric=keep_flag)


def unfold(t: DenseTensor, mode: int) -> np.ndarray:
    """Mode unfolding to a (d_mode, prod(rest)) matrix.

    Rows carry the chosen mode; the remaining axes are flattened with the
    earliest one varying fastest, so for an order-3 tensor the mode-1
    unfolding is the slice stack [T[:,:,0], T[:,:,1], ...].
    """
    _check_int(mode, "mode", 1, t.order)
    a = np.moveaxis(t.data, mode - 1, 0)
    return a.reshape(a.shape[0], -1, order="F")


def refold(m, mode: int, dims) -> DenseTensor:
    """Inverse of unfold for the given mode and full dims tuple."""
    m = np.asarray(m, dtype=np.float64)
    dims = tuple(int(s) for s in dims)
    _check_int(mode, "mode", 1, len(dims))
    rest = dims[: mode - 1] + dims[mode:]
    if m.ndim != 2 or m.shape != (dims[mode - 1], math.prod(rest)):
        raise InputError(
            f"matrix shape {m.shape} does not refold into dims {dims} along mode {mode}"
        )
    a = m.reshape((dims[mode - 1],) + rest, order="F")
    return DenseTensor(np.moveaxis(a, 0, mode - 1))

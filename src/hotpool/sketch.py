"""Count-sketch plans for compressing feature vectors.

A plan hashes each of the d input coordinates to one of d' buckets and
flips its sign with probability 1/2:

    sk(x)_j = sum over i with h_i = j of s_i * x_i

Inner products are preserved in expectation over plans. Plans are fully
determined by (d, d', seed); serialized plans carry only those plus the
generator name, and h, s are regenerated on load. The generator is pinned
to a counter-based algorithm so plans reproduce across platforms: buckets
are drawn first as integers uniform on [1, d'], then signs from uniform
bits, both from one Philox stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError, _check_int
from .io import json_text
from .tensor import _owned

RNG_NAME = "philox4x64"


@dataclass(frozen=True, eq=False)
class SketchPlan:
    """Bucket and sign assignments for one sketch projection.

    buckets holds 1-based bucket indices. seed is None only for hand-built
    plans, which cannot be serialized.
    """

    input_dim: int
    output_dim: int
    buckets: np.ndarray
    signs: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        d, d_prime = _check_dims(self.input_dim, self.output_dim)
        seed = None if self.seed is None else _check_int(self.seed, "seed", 0)
        b = _owned(self.buckets, "buckets", np.int64)
        s = _owned(self.signs, "signs")
        if b.shape != (d,) or s.shape != (d,):
            raise InputError("buckets and signs must both have length d")
        if b.min() < 1 or b.max() > d_prime:
            raise InputError("bucket indices must lie in 1..d'")
        if not np.all(np.isin(s, (-1.0, 1.0))):
            raise InputError("signs must be +1 or -1")
        for name, value in zip(("input_dim", "output_dim", "buckets", "signs", "seed"),
                               (d, d_prime, b, s, seed)):
            object.__setattr__(self, name, value)


def _check_dims(d, d_prime) -> tuple[int, int]:
    """(d, d') as ints, or InputError unless 1 <= d' <= d."""
    d, d_prime = _check_int(d, "input dim", 1), _check_int(d_prime, "output dim", 1)
    if d_prime > d:
        raise InputError(f"output dim {d_prime} exceeds input dim {d}")
    return d, d_prime


def make_plan(d: int, d_prime: int, seed: int) -> SketchPlan:
    """Draw a plan from the seeded counter-based generator."""
    d, d_prime = _check_dims(d, d_prime)
    seed = _check_int(seed, "seed", 0)
    gen = np.random.Generator(np.random.Philox(seed))
    buckets = gen.integers(1, d_prime + 1, size=d)
    signs = np.where(gen.integers(0, 2, size=d) == 1, 1.0, -1.0)
    return SketchPlan(d, d_prime, buckets, signs, seed)


def apply(plan: SketchPlan, x) -> np.ndarray:
    """Project a length-d vector, or each row of an (N, d) block, to length d'.

    One flat index per (row, coordinate) keeps np.add.at on its fast 1-D
    path; each row still adds its coordinates in order, so a block gives
    bit-for-bit the rows of the per-vector calls.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != plan.input_dim:
        raise InputError(
            f"vector length {x.shape} does not match plan input dim {plan.input_dim}"
        )
    rows = x.reshape(-1, plan.input_dim)
    n, k = rows.shape[0], plan.output_dim
    out = np.zeros(n * k)
    np.add.at(out, (np.arange(n)[:, None] * k + (plan.buckets - 1)).ravel(),
              (plan.signs * rows).ravel())
    return out.reshape(x.shape[:-1] + (k,))


def plan_json(plan: SketchPlan) -> str:
    if plan.seed is None:
        raise InputError("hand-built plans have no seed and cannot be serialized")
    doc = {
        "d": plan.input_dim,
        "d_prime": plan.output_dim,
        "seed": plan.seed,
        "rng_name": RNG_NAME,
    }
    return json_text(doc)


def plan_from_json(text: str) -> SketchPlan:
    return make_plan(*_plan_fields(text))


def _plan_fields(text: str) -> tuple[int, int, int]:
    """(d, d', seed) of a serialized plan, checked as make_plan checks them."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"plan is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("plan JSON must be an object")
    missing = {"d", "d_prime", "seed", "rng_name"} - set(doc)
    if missing:
        raise InputError(f"plan JSON is missing keys: {sorted(missing)}")
    if doc["rng_name"] != RNG_NAME:
        raise InputError(
            f"plan was drawn with generator {doc['rng_name']!r}; "
            f"this build supports {RNG_NAME!r}"
        )
    return (*_check_dims(doc["d"], doc["d_prime"]), _check_int(doc["seed"], "seed", 0))

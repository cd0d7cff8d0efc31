"""Seeded inputs for the benchmark workloads.

Every array comes from a generator keyed by (seed, stream, index), so the
same seed always yields the same bytes and items never share inputs. The
program under test only ever receives these arrays, or CSVs written from
them with round-trip `repr` floats.

Two kinds of feature sets are drawn, both with unit-norm rows:

- signed: isotropic Gaussian rows;
- rectified: |Gaussian| rows, nonnegative like CNN activations.

Nothing here picks, re-seeds or filters draws. Which kind of set each
workload draws is fixed per cycle position (see workloads.py).
"""

from __future__ import annotations

import numpy as np

# stream ids keep the workloads' draws independent of each other
DESCRIPTOR, BACKPROP, CLI, GALLERY, SAMPLE = 1, 2, 3, 5, 6


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, keys)]))


def unit_rows(rng: np.random.Generator, n: int, d: int, rectified: bool) -> np.ndarray:
    z = rng.standard_normal((n, d))
    if rectified:
        z = np.abs(z)
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def write_csv(path, rows: np.ndarray) -> None:
    """Feature CSV with a header and `repr` floats, as hotpool.io reads it."""
    d = rows.shape[1]
    lines = [",".join(f"f{j}" for j in range(d))]
    lines.extend(",".join(map(repr, map(float, row))) for row in rows)
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")

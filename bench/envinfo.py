"""The environment every result records."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def _blas() -> dict:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        info = {}
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    # the thread count is asked of the loaded OpenBLAS itself
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in _THREAD_SYMBOLS:
            if hasattr(handle, sym):
                getattr(handle, sym).restype = ctypes.c_int
                out["threads"] = getattr(handle, sym)()
                return out
    return out


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _tree_digest(src: Path) -> str:
    """sha256 over src/**/*.py, so a checkout without git still names its code."""
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    return {
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(root),
        "src_sha256": _tree_digest(root / "src"),
    }

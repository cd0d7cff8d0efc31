"""Span recorder for the traced run.

Tracing wraps the public functions listed in TRACED by replacing their
module attributes, so calls made through the module (including calls the
CLI makes, and calls within the same module) open a span. Nothing inside
hotpool changes. Spans stay in memory and are written out at the end.

A span is [name, start, end, parent, item, failed, extra]: parent is the
index of the enclosing span or None, item is the benchmark item id, and
extra holds the sizes a layer rate needs (e.g. N, d, r for pool).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time

TRACED = {
    "tensor": ("FeatureSet", "pool"),
    "spectral": ("epn_matrix",),
    "hosvd": ("hosvd_supersym", "apply_epn_core", "reconstruct", "tpe_dot_factored",
              "tpe_distance"),
    "gradients": ("epn_matrix_vjp", "unfolded_factor_vjp"),
    "sketch": ("make_plan", "apply"),
    "io": ("read_features_csv", "write_features_csv", "read_tensor", "write_tensor"),
    "analysis": ("verify_maxexp_bound", "verify_gamma_bound", "verify_combined_bound",
                 "verify_maxexp_ode", "verify_gamma_ode", "pushforward_spectrum",
                 "detector_curve"),
}
CLI_COMMANDS = ("pool", "epn", "distance", "sketch", "verify", "figure")


def traced_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    return names + [f"cli.{c}" for c in CLI_COMMANDS]


def _pool_extra(args, kwargs, out):
    features = args[0] if args else kwargs["features"]
    r = args[1] if len(args) > 1 else kwargs["r"]
    return {"n": features.count, "d": features.dim, "r": r}


def _csv_extra(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _hosvd_extra(args, kwargs, out):
    return {"rank": out.rank, "d": out.factor.shape[0]}


_EXTRA = {
    "tensor.pool": _pool_extra,
    "io.read_features_csv": _csv_extra,
    "hosvd.hosvd_supersym": _hosvd_extra,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.items: list[tuple[int, float, float]] = []
        self._stack: list[int] = []
        self.item: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.item, False, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        extra = _EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.item is None:  # calls made by output checks are not traced
                return fn(*args, **kwargs)
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if extra is not None:
                rec[6] = extra(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every traced module attribute for its wrapper, then restore."""
        saved = []
        targets = [(f"hotpool.{mod}", fn, f"{mod}.{fn}")
                   for mod, fns in TRACED.items() for fn in fns]
        targets += [("hotpool.cli", f"cmd_{c}", f"cli.{c}") for c in CLI_COMMANDS]
        try:
            for modname, attr, name in targets:
                mod = importlib.import_module(modname)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "item", "failed", "extra")
        with open(path, "w") as f:
            for item, start, end in self.items:
                f.write(json.dumps({"item": item, "start": start, "end": end}) + "\n")
            for rec in self.spans:
                f.write(json.dumps(dict(zip(keys, rec))) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are sequential, so direct children never overlap one another
    and always lie inside their parent.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def untraced_gap(items, spans) -> float:
    """Item time not covered by any top-level span."""
    covered = sum(s[2] - s[1] for s in spans if s[3] is None)
    return sum(e - s for _, s, e in items) - covered


def layer_metrics(tracer: Tracer, n_items: int, wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: calls, self ms per item and share of wall time."""
    selfs = self_times(tracer.spans)
    calls = {n: 0 for n in traced_names()}
    self_s = {n: 0.0 for n in traced_names()}
    for rec, st in zip(tracer.spans, selfs):
        calls[rec[0]] += 1
        self_s[rec[0]] += st
    m: dict[str, tuple[float, str]] = {}
    for n in traced_names():
        m[f"{n}.calls_per_item"] = (calls[n] / n_items, "count")
        m[f"{n}.ms_per_item"] = (1e3 * self_s[n] / n_items, "ms")
        m[f"{n}.share"] = (self_s[n] / wall, "fraction")

    def by(name):
        return [(rec, st) for rec, st in zip(tracer.spans, selfs)
                if rec[0] == name and rec[6] is not None]

    # computed, not counted by hardware: one multiply-add per term of
    # N * d^r, counted as 2 flops
    pools = by("tensor.pool")
    flops = sum(2.0 * x["n"] * x["d"] ** x["r"] for x in (rec[6] for rec, _ in pools))
    m["tensor.pool.gflop_per_s"] = (_rate(flops / 1e9, sum(st for _, st in pools)), "GFLOP/s")
    reads = by("io.read_features_csv")
    m["io.read_features_csv.mb_per_s"] = (
        _rate(sum(rec[6]["bytes"] for rec, _ in reads) / 1e6, sum(st for _, st in reads)), "MB/s")
    ranks = [rec[6]["rank"] / rec[6]["d"] for rec, _ in by("hosvd.hosvd_supersym")]
    m["hosvd.hosvd_supersym.rank_ratio"] = (sum(ranks) / len(ranks) if ranks else 0.0, "ratio")
    m["sketch.apply.rows_per_s"] = (_rate(calls["sketch.apply"], self_s["sketch.apply"]), "1/s")
    m["trace.gap_share"] = (untraced_gap(tracer.items, tracer.spans) / wall, "fraction")
    return m


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0

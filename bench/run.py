"""hotpool benchmark: three seeded workloads, checked outputs, a traced run.

    python3 bench/run.py --workload {descriptor,backprop,cli} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a hotpool checkout. hotpool is imported from that
checkout's src/ (as do the set-up probes), so each commit is measured
from its own tree; without src/hotpool the script exits 1 and prints no
result.

Each workload is a closed loop with one client, run in whole cycles for
about S seconds (see workloads.py for the items and why each workload
exists). Each cycle position is one fixed configuration (sizes, operator,
command), run once per cycle on fresh inputs. With --trace 0 the last
stdout line holds the end-to-end metrics:

    items_per_s      completed items over the summed item time
    latency_p50_ms   median item time of the completed items
    setup_s          median over 9 fresh interpreters, spread evenly over
                     the run, of importing hotpool and running item 0
    peak_rss_mb      peak RSS of the benchmark process, which runs hotpool

Both timings are over every item of the run, as a user would meet them.
On a 2-vCPU VM the host switches between speeds about 35% apart, every
second or so and sometimes for a whole run, so these figures vary from
run to run by about 0.1 to 0.2 (IQR/median). Best-of-k statistics were
tried: they agreed better while the host was calm and worse while it was
not, and they hide a slowdown that hits only some runs of an item. The
90th percentile of item time (a 35 s run holds about 140 to 600 items,
so at least 14 lie beyond it) is printed above the result line but is
not a result metric: a slow spell covering a tenth of a run moves it
directly, and over ten runs of backprop it spread by 0.41. The cycles
are built so that the median and the p90 fall inside one configuration's
times rather than in the gap between two.

error_rate (failed / attempted, with the exception classes) is printed
above it. No item is expected to fail, and any failure also makes the
result incorrect, so it is carried by the `attempted` and `failed` keys
rather than as a metric. With --trace 1 the loop alternates untraced and
traced cycles and reports per-layer metrics (see tracing.py) plus
trace.overhead, the traced items per second over the untraced ones. Full
results and spans are written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

# One BLAS thread, set before numpy loads and inherited by every child: on
# a few shared cores a second BLAS thread times the scheduler as much as
# the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 9
E2E_UNITS = {"items_per_s": "1/s", "latency_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def use_tree_src() -> None:
    if not (SRC / "hotpool" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'hotpool'} not found; run from the root of a hotpool checkout")
    sys.path.insert(0, str(SRC))
    import hotpool

    if Path(hotpool.__file__).resolve().parent != (SRC / "hotpool").resolve():
        sys.exit(f"error: imported hotpool from {hotpool.__file__}, not from {SRC}")


class Tally:
    """Per-item records (item id, seconds, error class or None) of one loop."""

    def __init__(self):
        self.items: list[tuple[int, float, str | None]] = []
        self.wrong: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def busy(self) -> float:
        return sum(dt for _, dt, _ in self.items)

    @property
    def latencies(self) -> list[float]:
        return [dt for _, dt, err in self.items if err is None]

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def errors(self) -> Counter:
        return Counter(err for _, _, err in self.items if err is not None)

    @property
    def rate(self) -> float:
        return self.completed / self.busy if self.busy > 0 else 0.0


def run_cycle(wl, st, first: int, tally: Tally, tracer=None, between=None) -> None:
    """Run items first .. first+cycle-1; only wl.run is timed, and
    `between` runs after each item.

    An exception, a CLI exit other than 0 or a failed check is a failed
    item and a wrong answer: no item of any workload is expected to fail.
    """
    for i in range(first, first + wl.cycle):
        a = wl.prepare(st, i)
        out, err = None, None
        if tracer is not None:
            tracer.item = i
        t0 = time.perf_counter()
        try:
            out = wl.run(st, a)
        except Exception as exc:
            err = _fault(i, exc, tally)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.items.append((i, t0, t1))
            tracer.item = None
        if err is None:
            try:
                wl.check(st, i, a, out)
            except Exception as exc:
                err = _fault(i, exc, tally)
        tally.items.append((i, t1 - t0, err))
        if between is not None:
            between()


def _fault(i: int, exc: Exception, tally: Tally) -> str:
    name = type(exc).__name__
    tally.wrong.append(f"item {i}: {name}: {exc}")
    return name


class Probes:
    """Set-up probes spread evenly over a run of `seconds` of item time.

    The host's speed changes over seconds, so probes taken back to back
    share one speed; spread out, their median is steadier. A probe runs
    between items, and its own wall time is not counted as item time.
    """

    def __init__(self, wl, st, n: int, seconds: float, workdir: str):
        self.wl, self.st, self.n, self.seconds, self.workdir = wl, st, n, seconds, workdir
        self.values: list[float] = []
        self.paused = 0.0

    def due(self, elapsed: float) -> None:
        if len(self.values) < self.n and elapsed >= self.seconds * (len(self.values) + 0.5) / self.n:
            self.take()

    def take(self) -> None:
        t0 = time.perf_counter()
        self.values.append(self.wl.setup_seconds(self.st, self.workdir))
        self.paused += time.perf_counter() - t0

    def finish(self) -> list[float]:
        while len(self.values) < self.n:
            self.take()
        return self.values


def measure(wl, st, seconds: float, tracer=None,
            probes: Probes | None = None) -> tuple[Tally, Tally, int]:
    """Whole cycles until the next one would overrun `seconds` of item time.

    With a tracer, untraced and traced cycles alternate so drift hits both.
    """
    plain, traced = Tally(), Tally()
    start = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - start - (probes.paused if probes else 0.0)

    between = (lambda: probes.due(elapsed())) if probes else None
    i = 0
    while True:
        c0 = elapsed()
        if tracer is None:
            run_cycle(wl, st, i, plain, between=between)
        else:
            run_cycle(wl, st, i, plain)
            i += wl.cycle
            with tracer.installed():
                run_cycle(wl, st, i, traced, tracer)
        i += wl.cycle
        now = elapsed()
        if now + (now - c0) > seconds:
            return plain, traced, i // wl.cycle


def summarize(tallies) -> dict:
    """The result line's head: correct unless some item was wrong."""
    return {"correct": not any(t.wrong for t in tallies),
            "attempted": sum(t.attempted for t in tallies),
            "failed": sum(t.attempted - t.completed for t in tallies)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def end_to_end(wl, plain: Tally, setups: list[float]) -> dict:
    """Rate, median, set-up and memory (see the module docstring)."""
    values = {
        "items_per_s": plain.rate,
        "latency_p50_ms": 1e3 * float(np.median(plain.latencies)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("descriptor", "backprop", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_tree_src()
    import envinfo
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-seed{args.seed}-trace{args.trace}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = envinfo.environment(ROOT)
    try:
        st = wl.setup(args.seed, str(workdir))
        tracer = tracing.Tracer() if args.trace else None
        probes = None if args.trace else Probes(wl, st, SETUP_PROBES, args.seconds,
                                                 str(workdir / "probe"))
        plain, traced, cycles = measure(wl, st, args.seconds, tracer, probes)
        setups = probes.finish() if probes else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tallies = (plain, traced) if args.trace else (plain,)
    head = summarize(tallies)
    attempted, failed = head["attempted"], head["failed"]
    errors = sum((t.errors for t in tallies), Counter())
    wrong = [w for t in tallies for w in t.wrong]

    print(f"# hotpool bench: workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}; closed loop, 1 client; {cycles} cycles of {wl.cycle} items")
    print(f"# why: {wl.why}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# error_rate = {failed / attempted:.6g} (failed {failed} of {attempted}; "
          f"classes {dict(sorted(errors.items()))})")
    for w in wrong[:10]:
        print(f"# WRONG {w}")
    if not plain.completed:
        print("error: no item completed", file=sys.stderr)
        return 1
    if args.trace:
        n = traced.attempted
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in tracing.layer_metrics(tracer, n, traced.busy).items()}
        metrics["trace.overhead"] = {
            "value": traced.rate / plain.rate if plain.rate > 0 else 0.0, "unit": "ratio"}
        print(f"# traced: {n} items over {traced.busy:.3f} s; untraced: {plain.attempted} "
              f"items over {plain.busy:.3f} s")
        print("# waiting: no layer has a queue, so no waiting time is reported")
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        metrics = end_to_end(wl, plain, setups)
        p90 = 1e3 * float(np.percentile(plain.latencies, 90))
        print(f"# {plain.completed} completed items over {plain.busy:.3f} s of item time; "
              f"latency p90 {p90:.6g} ms (reported, not a result metric)")
        print(f"# setup probes (s): {[round(s, 4) for s in setups]}")
    for k, m in metrics.items():
        if not args.trace or m["value"]:
            print(f"# {k} = {m['value']:.6g} {m['unit']}")
    result = {**head, "metrics": metrics}
    with open(OUT / f"{tag}.json", "w") as f:
        json.dump({"result": result, "env": env, "errors": dict(errors), "wrong": wrong,
                   "error_rate": failed / attempted, "cycles": cycles,
                   "setup_probes_s": setups, "items": [t.items for t in tallies]},
                  f, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests for the benchmark itself: inputs, output checks and trace arithmetic.

    python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hotpool import gradients, hosvd, tensor  # noqa: E402
from hotpool import io as hotpool_io  # noqa: E402
from hotpool.errors import DegenerateSpectrumError, DomainError, InputError  # noqa: E402


@pytest.fixture
def workdir(request):
    path = BENCH / "out" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def input_digest(name: str, seed: int, workdir: Path) -> str:
    wl = workloads.WORKLOADS[name]
    if name == "cli":
        wl.setup(seed, str(workdir))
        parts = [(workdir / f).read_bytes() for f in ("a.csv", "b.csv", "s.csv")]
    else:
        st = wl.setup(seed, str(workdir))
        parts = []
        for i in range(wl.cycle + 1):
            a = wl.prepare(st, i)
            parts += [v for v in vars(a).values() if isinstance(v, np.ndarray)]
            parts += [arr for step in getattr(a, "steps", ()) for arr in step]
    return workloads.digest(*parts)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_seed(name, workdir):
    first = input_digest(name, 7, workdir)
    assert input_digest(name, 7, workdir) == first
    assert input_digest(name, 8, workdir) != first


def test_csv_floats_round_trip(workdir):
    rows = gen.unit_rows(gen.rng_for(3, 9), 5, 4, True)
    gen.write_csv(workdir / "x.csv", rows)
    back = np.loadtxt(workdir / "x.csv", delimiter=",", skiprows=1)
    assert np.array_equal(back, rows)


def test_descriptor_checks_reject_corruption():
    wl = workloads.Descriptor()
    st = wl.setup(1, "")
    a = wl.prepare(st, 0)
    out = wl.run(st, a)
    wl.check(st, 0, a, out)
    bad_pool = SimpleNamespace(**{**vars(out), "pooled": out.pooled + 1e-9 * (out.pooled != 0)})
    with pytest.raises(workloads.CheckFailed, match="pool"):
        wl.check(st, 0, a, bad_pool)
    bad_dots = SimpleNamespace(**{**vars(out), "dots": [out.dots[0] * (1 + 1e-6)] + out.dots[1:]})
    with pytest.raises(workloads.CheckFailed, match="tpe_dot_factored"):
        wl.check(st, 0, a, bad_dots)
    bad_rec = SimpleNamespace(**{**vars(out), "rec": out.rec * (1 + 1e-9)})
    with pytest.raises(workloads.CheckFailed, match="reconstruct"):
        wl.check(st, 0, a, bad_rec)
    bad_dist = SimpleNamespace(**{**vars(out), "dist": out.dist * (1 + 1e-6)})
    with pytest.raises(workloads.CheckFailed, match="distance"):
        wl.check(st, 0, a, bad_dist)


def test_descriptor_checks_reject_a_consistently_wrong_reconstruct(monkeypatch):
    """A reconstruct that is wrong the same way every time, in the item and
    in the gallery anchor alike, still fails the distance check."""
    wl = workloads.Descriptor()
    st = wl.setup(1, "")
    true_reconstruct = hosvd.reconstruct
    monkeypatch.setattr(hosvd, "reconstruct", lambda g: tensor.DenseTensor(
        true_reconstruct(g).data * 1.001, supersymmetric=True))
    a = wl.prepare(st, 0)
    out = wl.run(st, a)
    with pytest.raises(workloads.CheckFailed, match="reconstruct|distance"):
        wl.check(st, 0, a, out)


def test_descriptor_applies_maxexp_to_signed_sets_only():
    wl = workloads.Descriptor()
    st = wl.setup(1, "")
    kinds = set()
    for i in range(wl.cycle):
        a = wl.prepare(st, i)
        kinds.add((a.spec.kind, bool(a.x.min() >= 0)))
    assert kinds == {("maxexp", False), ("sigme", False), ("sigme", True)}


def test_backprop_checks_reject_corruption(monkeypatch):
    wl = workloads.Backprop()
    st = wl.setup(1, "")
    a = wl.prepare(st, 0)
    out = wl.run(st, a)
    wl.check(st, 0, a, out)
    cov, y, grad = out.steps[1]
    bad = SimpleNamespace(**{**vars(out), "steps": [out.steps[0], (cov, y, grad * 1.001)]})
    with pytest.raises(workloads.CheckFailed, match="Daleckii-Krein"):
        wl.check(st, 0, a, bad)
    true_vjp = gradients.epn_matrix_vjp
    monkeypatch.setattr(gradients, "epn_matrix_vjp", lambda *args: true_vjp(*args) * 1.001)
    with pytest.raises(workloads.CheckFailed, match="finite differences"):
        wl.check(st, 0, a, out)


def test_cli_checks_reject_corruption(workdir):
    wl = workloads.Cli()
    st = wl.setup(1, str(workdir))
    outs = []
    for k in range(workloads.DISTANCE_ITEM + 1):
        outs.append(wl.run(st, k))
        wl.check(st, k, k, outs[k])
    out = outs[-1]
    wl.check(st, 11, 0, wl.run(st, 0))
    with pytest.raises(workloads.CheckFailed, match="differs from the first cycle"):
        wl.check(st, 11, 0, SimpleNamespace(stdout=out.stdout + " "))
    with pytest.raises(workloads.CheckFailed, match="distance printed"):
        workloads.check_printed_distance(out.stdout, float(out.stdout) * (1 + 1e-9))
    a3 = hotpool_io.read_tensor(workdir / "a3.hotp")
    hotpool_io.write_tensor(workdir / "a3.hotp", tensor.DenseTensor(a3.data * (1 + 1e-9)))
    fresh = wl.setup(1, str(workdir))  # no digests yet, as on the first cycle
    with pytest.raises(workloads.CheckFailed, match="pool differs"):
        wl.check(fresh, 0, 0, outs[0])
    a, b = (hotpool_io.read_tensor(workdir / p) for p in ("a3e.hotp", "b3e.hotp"))
    with pytest.raises(workloads.CheckFailed, match=r"\|a - b\|"):
        workloads.check_distance(float(out.stdout) * (1 + 1e-6),
                                 float(np.linalg.norm(a.data - b.data)), a.data, b.data)


def test_cli_exit_2_is_a_wrong_answer(workdir):
    wl = workloads.Cli()
    st = wl.setup(1, str(workdir))
    os.remove(workdir / "a.csv")
    tally = run.Tally()
    run.run_cycle(wl, st, 0, tally)
    assert tally.errors["CliExit"] >= 1
    assert any("exit 2" in w for w in tally.wrong)
    assert run.summarize([tally])["correct"] is False


@pytest.mark.parametrize("name", ["descriptor", "backprop"])
def test_a_cycle_completes_without_failures(name):
    wl = workloads.WORKLOADS[name]
    st = wl.setup(1, "")
    tally = run.Tally()
    run.run_cycle(wl, st, 0, tally)
    assert run.summarize([tally]) == {"correct": True, "attempted": wl.cycle, "failed": 0}


@pytest.mark.parametrize("exc", [
    DomainError("core coefficient exceeds kappa"),
    DegenerateSpectrumError("eigenvalues 3 and 4"),
    InputError("upstream shape"),
    workloads.CliExit(2, ""),
])
def test_every_failure_is_a_wrong_answer(exc):
    tally = run.Tally()
    assert run._fault(0, exc, tally) == type(exc).__name__
    assert len(tally.wrong) == 1


def test_self_times_and_gaps_add_up_to_wall_time():
    tracer = tracing.Tracer()
    for name in ("descriptor", "backprop"):
        wl = workloads.WORKLOADS[name]
        st = wl.setup(2, "")
        tally = run.Tally()
        with tracer.installed():
            run.run_cycle(wl, st, 0, tally, tracer)
    wall = sum(e - s for _, s, e in tracer.items)
    selfs = tracing.self_times(tracer.spans)
    assert min(selfs) >= 0
    assert sum(selfs) + tracing.untraced_gap(tracer.items, tracer.spans) == pytest.approx(
        wall, rel=1e-12)
    m = tracing.layer_metrics(tracer, len(tracer.items), wall)
    shares = sum(v for k, (v, _) in m.items() if k.endswith(".share"))
    assert shares + m["trace.gap_share"][0] == pytest.approx(1.0, rel=1e-9)
    # descriptor: one pool per item; backprop: two r=2 pools and one r=3 pool
    assert m["tensor.pool.calls_per_item"][0] == pytest.approx((9 + 3 * 4) / (9 + 4))


def test_nested_spans_subtract_children():
    tracer = tracing.Tracer()
    tracer.item = 0
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer, a, b = tracer.spans
    assert a[3] == 0 and b[3] == 0 and outer[3] is None
    selfs = tracing.self_times(tracer.spans)
    assert selfs[0] == pytest.approx((outer[2] - outer[1]) - (a[2] - a[1]) - (b[2] - b[1]))


def test_wrappers_are_removed_after_tracing():
    before = hosvd.hosvd_supersym
    with tracing.Tracer().installed():
        assert hosvd.hosvd_supersym is not before
    assert hosvd.hosvd_supersym is before


def test_benchmark_json_names_match_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    emitted = tracing.layer_metrics(tracing.Tracer(), 1, 1.0)
    emitted["trace.overhead"] = (0.0, "ratio")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, (_, u) in emitted.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_program(workdir):
    shutil.copytree(BENCH, workdir / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "backprop", "--seed", "1", "--seconds",
         "1", "--trace", "0"], cwd=workdir, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_setup_probes_are_spread_over_the_run():
    import time

    class Sleeper:
        cycle = 1

        def prepare(self, st, i):
            return None

        def run(self, st, a):
            time.sleep(0.01)

        def check(self, st, i, a, out):
            pass

        def setup_seconds(self, st, workdir):
            st.append(time.perf_counter())
            return 0.1

    taken = []
    probes = run.Probes(Sleeper(), taken, 4, 0.4, "")
    start = time.perf_counter()
    plain, _, _ = run.measure(Sleeper(), taken, 0.4, probes=probes)
    assert probes.finish() == [0.1] * 4
    assert taken[0] - start < 0.15 and taken[-1] - taken[0] > 0.2
    assert plain.busy <= 0.4

"""The three benchmark workloads and their output checks.

Each workload is a closed loop with one client, run inside the benchmark
process. An item is one unit of work; items come in fixed cycles so every
run covers the same mix:

- prepare(state, i) builds item i's inputs (untimed);
- run(state, args) is the timed call chain into hotpool;
- setup_seconds(state, workdir) times a fresh interpreter importing
  hotpool and running item 0;
- check(state, i, args, out) verifies the output (untimed) and raises
  CheckFailed on a wrong answer.

No item is expected to fail: any exception, any CLI exit other than 0 and
any failed check is a wrong answer. Two known refusals are kept out of the
mix rather than counted: maxexp is applied to signed descriptor sets only
(on rectified sets max|core| exceeds the kappa bound and apply_epn_core
raises DomainError), and backprop draws signed sets only (some rectified
d=128 covariances have eigengaps below EIG_GAP_REL and epn_matrix_vjp
raises DegenerateSpectrumError).
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
from hotpool import cli, gradients, hosvd, io, spectral, tensor

import gen


class CheckFailed(Exception):
    """The program returned a wrong answer."""


class CliExit(Exception):
    def __init__(self, code: int, stderr: str):
        super().__init__(f"exit {code}: {stderr.strip()[-200:]}")


def sampled(seed: int, i: int, cycle: int) -> bool:
    """Expensive checks cover the whole first cycle, then 1 item in `cycle`."""
    return i < cycle or gen.rng_for(seed, gen.SAMPLE, i).random() < 1.0 / cycle


# ---------------------------------------------------------------- checks


def ref_pool(x: np.ndarray, r: int) -> np.ndarray:
    """Order-r pooling (unit weights) written out slice by slice:
    T[i, ..., :, :] = (1/N) sum_n x_ni ... (x_n x_n^T), one weighted sum of
    outer products per slice."""
    n, d = x.shape
    out = np.empty((d,) * r)
    for idx in np.ndindex(*(d,) * (r - 2)):
        w = np.prod(x[:, list(idx)], axis=1)
        out[idx] = (x * w[:, None]).T @ x
    return out / n


def ref_reconstruct(core: np.ndarray, factor: np.ndarray) -> np.ndarray:
    out = core
    for axis in range(core.ndim):
        out = np.moveaxis(np.tensordot(out, factor, axes=([axis], [1])), -1, axis)
    return out


def check_pool(pooled: np.ndarray, reference: np.ndarray) -> None:
    """Entrywise, 1e-12 relative to the largest entry."""
    err = float(np.max(np.abs(pooled - reference)))
    if not err <= 1e-12 * float(np.max(np.abs(reference))):
        raise CheckFailed(f"pool differs from the outer-product sum by {err:.3e}")


def check_factored_dot(dot: float, rec_a: np.ndarray, rec_b: np.ndarray) -> None:
    """tpe_dot_factored against the dense inner product, 1e-9 relative to
    the Cauchy-Schwarz scale |a| |b| (the dot itself may be near zero)."""
    ref = float(np.vdot(rec_a, rec_b))
    scale = float(np.linalg.norm(rec_a) * np.linalg.norm(rec_b))
    if not abs(dot - ref) <= 1e-9 * scale:
        raise CheckFailed(f"tpe_dot_factored {dot!r} != inner {ref!r}")


def check_distance(dist: float, ref: float, a: np.ndarray, b: np.ndarray) -> None:
    """A Frobenius distance against the norm of the difference, 1e-9 relative
    to |a| + |b| (the distance itself may be near zero)."""
    scale = float(np.linalg.norm(a) + np.linalg.norm(b))
    if not abs(dist - ref) <= 1e-9 * scale:
        raise CheckFailed(f"distance {dist!r} != |a - b| {ref!r}")


def check_close(got: np.ndarray, want: np.ndarray, rtol: float, what: str) -> None:
    err = float(np.linalg.norm(got - want))
    scale = float(np.linalg.norm(want))
    if not err <= rtol * max(scale, 1e-300):
        raise CheckFailed(f"{what}: relative error {err / max(scale, 1e-300):.3e} > {rtol:g}")


def _deriv(vals: np.ndarray, spec: spectral.PnSpec) -> np.ndarray:
    p = spec.param
    if spec.kind == "sigme":
        th = np.tanh(0.5 * p * vals)
        return 0.5 * p * (1.0 - th * th)
    if spec.kind == "maxexp":
        return p * (1.0 - vals) ** (p - 1.0)
    if spec.kind == "gamma":
        return p * vals ** (p - 1.0)
    if spec.kind == "hdp":
        return (p / vals**2) * np.exp(-p / vals)
    raise ValueError(spec.kind)


def ref_epn_vjp(x: np.ndarray, spec: spectral.PnSpec, upstream: np.ndarray) -> np.ndarray:
    """Daleckii-Krein form U (L o U^T W U) U^T with L the divided differences
    of g, L_ii = g'(lambda_i), and W the symmetrized upstream."""
    lam, u = np.linalg.eigh(0.5 * (x + x.T))
    g = spectral.pn_scalar(lam, spec)
    diff = lam[:, None] - lam[None, :]
    same = diff == 0.0
    lmat = np.where(same, 0.0, (g[:, None] - g[None, :]) / np.where(same, 1.0, diff))
    lmat[np.diag_indices_from(lmat)] = _deriv(lam, spec)
    w = 0.5 * (upstream + upstream.T)
    return u @ (lmat * (u.T @ w @ u)) @ u.T


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            p = np.ascontiguousarray(p).tobytes()
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


class Workload:
    def setup_seconds(self, st, workdir: str) -> float:
        """Import plus item 0 in a fresh interpreter (see probe.py)."""
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py"),
             "--workload", self.name, "--seed", str(st.seed), "--workdir", workdir],
            stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True)
        return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


# ------------------------------------------------------------ descriptor

DESC_CONFIGS = ((3, 32), (3, 64), (4, 24))
# (rectified, operator): maxexp on signed sets only, see the module docstring
DESC_VARIANTS = ((False, spectral.PnSpec("maxexp", 20.0)), (False, spectral.PnSpec("sigme", 4.0)),
                 (True, spectral.PnSpec("sigme", 4.0)))
GALLERY_SPEC = spectral.PnSpec("sigme", 4.0)
DESC_ROWS = 500
GALLERY_SIZE = 8


class Descriptor(Workload):
    name = "descriptor"
    why = ("in-process forward retrieval: pool dominates the r=3 items, hosvd and the TPE "
           "dots carry r=4; signed sets take maxexp and sigme, rectified ones sigme")
    # cycle position i: (r, d) = CONFIGS[i % 3], (rectified, operator) =
    # DESC_VARIANTS[(i // 3) % 3], so 9 items cover every combination. Each
    # (r, d) is a third of the items, so the median item is an r=4 one and
    # the p90 an r=3, d=64 one, both inside a size rather than between two.
    cycle = 9

    def setup(self, seed: int, workdir: str):
        return SimpleNamespace(seed=seed, gallery={})

    def _gallery(self, st, c: int):
        """Eight normalized descriptors per (r, d), plus the dense first one,
        built on first use outside the timed region."""
        if c not in st.gallery:
            r, d = DESC_CONFIGS[c]
            entries = []
            for k in range(GALLERY_SIZE):
                x = gen.unit_rows(gen.rng_for(st.seed, gen.GALLERY, c, k), DESC_ROWS, d, k % 2 == 1)
                f = hosvd.hosvd_supersym(tensor.pool(tensor.FeatureSet(x), r))
                entries.append(hosvd.apply_epn_core(f, GALLERY_SPEC))
            st.gallery[c] = (entries, hosvd.reconstruct(entries[0]))
        return st.gallery[c]

    def prepare(self, st, i: int):
        c = i % 3
        r, d = DESC_CONFIGS[c]
        rectified, spec = DESC_VARIANTS[(i // 3) % 3]
        x = gen.unit_rows(gen.rng_for(st.seed, gen.DESCRIPTOR, i), DESC_ROWS, d, rectified)
        entries, anchor = self._gallery(st, c)
        return SimpleNamespace(x=x, r=r, spec=spec, entries=entries, anchor=anchor)

    def run(self, st, a):
        pooled = tensor.pool(tensor.FeatureSet(a.x), a.r)
        g = hosvd.apply_epn_core(hosvd.hosvd_supersym(pooled), a.spec)
        rec = hosvd.reconstruct(g)
        dist = hosvd.tpe_distance(rec, a.anchor)
        dots = [hosvd.tpe_dot_factored(g, e) for e in a.entries]
        return SimpleNamespace(pooled=pooled.data, g=g, rec=rec.data, dist=dist, dots=dots)

    def check(self, st, i: int, a, out) -> None:
        if not sampled(st.seed, i, self.cycle):
            return
        check_pool(out.pooled, ref_pool(a.x, a.r))
        rec = ref_reconstruct(out.g.core, out.g.factor)
        check_close(out.rec, rec, 1e-12, "reconstruct against the mode products")
        for k, (e, dot) in enumerate(zip(a.entries, out.dots)):
            ref = ref_reconstruct(e.core, e.factor)
            if k == 0:
                check_distance(out.dist, np.linalg.norm(rec - ref), rec, ref)
            check_factored_dot(dot, rec, ref)


# -------------------------------------------------------------- backprop

BP_DIMS = (64, 128)
BP_SPECS = (spectral.PnSpec("sigme", 4.0), spectral.PnSpec("maxexp", 20.0),
            spectral.PnSpec("gamma", 0.5), spectral.PnSpec("hdp", 0.01))
BP_ROWS = 2000
CHECK_DIM = 8


class Backprop(Workload):
    name = "backprop"
    why = ("training-step chain on signed sets: epn_matrix_vjp does most of the work and pool "
           "almost none, so a pool change should not move it")
    # spec BP_SPECS[i % 4], on signed sets. Each item takes the step at
    # d=64 and then at d=128, so items are alike and the median does not
    # sit on the boundary between two sizes.
    cycle = 4

    def setup(self, seed: int, workdir: str):
        return SimpleNamespace(seed=seed)

    def prepare(self, st, i: int):
        rng = gen.rng_for(st.seed, gen.BACKPROP, i)
        return SimpleNamespace(
            spec=BP_SPECS[i % 4],
            steps=[(gen.unit_rows(rng, BP_ROWS, d, False), rng.standard_normal((d, d)))
                   for d in BP_DIMS],
            x3=gen.unit_rows(rng, 64, 32, False), upstream3=rng.standard_normal((32, 32)),
            xs=gen.unit_rows(rng, 200, CHECK_DIM, False),
            upstream_s=rng.standard_normal((CHECK_DIM, CHECK_DIM)))

    def run(self, st, a):
        steps = []
        for x, upstream in a.steps:
            cov = tensor.pool(tensor.FeatureSet(x), 2).data
            steps.append((cov, spectral.epn_matrix(cov, a.spec),
                          gradients.epn_matrix_vjp(cov, a.spec, upstream)))
        t3 = tensor.pool(tensor.FeatureSet(a.x3), 3)
        grad3 = gradients.unfolded_factor_vjp(t3, a.upstream3)
        return SimpleNamespace(steps=steps, grad3=grad3.data)

    def check(self, st, i: int, a, out) -> None:
        if not np.all(np.isfinite(out.grad3)):
            raise CheckFailed("unfolded_factor_vjp returned non-finite entries")
        if not sampled(st.seed, i, self.cycle):
            return
        for (cov, _, grad), (_, upstream) in zip(out.steps, a.steps):
            check_close(grad, ref_epn_vjp(cov, a.spec, upstream), 1e-6,
                        f"epn_matrix_vjp against the Daleckii-Krein form at d={cov.shape[0]}")
        small = tensor.pool(tensor.FeatureSet(a.xs), 2).data
        analytic = gradients.epn_matrix_vjp(small, a.spec, a.upstream_s)
        oracle = gradients.finite_diff_oracle(lambda m: spectral.epn_matrix(m, a.spec), small)
        check_close(analytic, oracle.vjp(a.upstream_s), 1e-5,
                    f"epn_matrix_vjp against finite differences at d={CHECK_DIM}")


# ------------------------------------------------------------------- cli

CLI_CYCLE = (  # (command, arguments, files it writes)
    ("pool", "a.csv -r 3 --center --out a3.hotp", ("a3.hotp",)),
    ("pool", "b.csv -r 3 --center --out b3.hotp", ("b3.hotp",)),
    ("epn", "a3.hotp --spec sigme:6 --out a3e.hotp", ("a3e.hotp",)),
    ("epn", "b3.hotp --spec sigme:6 --out b3e.hotp", ("b3e.hotp",)),
    ("distance", "a3e.hotp b3e.hotp", ()),
    ("pool", "a.csv -r 2 --out a2.hotp", ("a2.hotp",)),
    ("epn", "a2.hotp --spec maxexp:64 --normalize --out a2e.hotp", ("a2e.hotp",)),
    ("sketch", "s.csv --dprime 64 --out s64.csv", ("s64.csv", "s64.csv.plan.json")),
    ("sketch", "s.csv --plan s64.csv.plan.json --out s64p.csv", ("s64p.csv",)),
    ("verify", "--theorem 2", ()),
    ("figure", "--which fig1 --out fig1.csv", ("fig1.csv",)),
)
DISTANCE_ITEM = 4
CLI_ROWS = 1000  # a cycle of about 1.5 s, so a 35 s run holds about 20


class Cli(Workload):
    name = "cli"
    why = ("the command layer: hotpool.cli.main reads CSVs and tensor files and writes results; "
           "the only workload that exercises io, cli, sketch and analysis")
    # Commands run in-process, one item each, in a warm interpreter. Start-up
    # (interpreter, numpy and hotpool imports) is what setup_s measures: a
    # fresh interpreter importing hotpool and running the first command.
    # Child processes for every command timed this VM's process creation,
    # which drifted by 30% over minutes, more than the commands themselves.
    cycle = len(CLI_CYCLE)

    def setup(self, seed: int, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        rng = gen.rng_for(seed, gen.CLI)
        rows = {"a.csv": gen.unit_rows(rng, CLI_ROWS, 48, False),
                "b.csv": gen.unit_rows(rng, CLI_ROWS, 48, True),
                "s.csv": gen.unit_rows(rng, CLI_ROWS, 256, False)}
        for name, x in rows.items():
            gen.write_csv(os.path.join(workdir, name), x)
        return SimpleNamespace(seed=seed, workdir=workdir, digests={}, rows=rows)

    def argv(self, k: int) -> list[str]:
        command, rest, _ = CLI_CYCLE[k]
        return [command, *rest.split()]

    def prepare(self, st, i: int):
        return i % self.cycle

    def run(self, st, k: int):
        out, err = stdio.StringIO(), stdio.StringIO()
        cwd = os.getcwd()
        os.chdir(st.workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(self.argv(k))
        finally:
            os.chdir(cwd)
        if code != 0:
            raise CliExit(code, err.getvalue())
        return SimpleNamespace(stdout=out.getvalue())

    def check(self, st, i: int, k: int, out) -> None:
        argv = self.argv(k)
        files = []
        for name in CLI_CYCLE[k][2]:
            with open(os.path.join(st.workdir, name), "rb") as f:
                files.append(f.read())
        d = digest(out.stdout, *files)
        first = k not in st.digests
        if d != st.digests.setdefault(k, d):
            raise CheckFailed(f"{' '.join(argv)}: output differs from the first cycle")
        if argv[0] == "pool" and first:  # later cycles must equal this one
            x = st.rows[argv[1]]
            if "--center" in argv:
                x = x - x.mean(axis=0)
            check_pool(io.read_tensor(os.path.join(st.workdir, CLI_CYCLE[k][2][0])).data,
                       ref_pool(x, int(argv[argv.index("-r") + 1])))
        if k == DISTANCE_ITEM:
            a, b = (io.read_tensor(os.path.join(st.workdir, p)) for p in ("a3e.hotp", "b3e.hotp"))
            check_printed_distance(out.stdout, hosvd.tpe_distance(a, b))
            check_distance(float(out.stdout), np.linalg.norm(a.data - b.data), a.data, b.data)


def check_printed_distance(printed: str, value: float) -> None:
    if printed.strip() != f"{value:.12g}":
        raise CheckFailed(f"distance printed {printed.strip()!r}, in-process {value:.12g}")


WORKLOADS = {w.name: w for w in (Descriptor(), Backprop(), Cli())}

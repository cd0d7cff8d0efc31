"""Command-line drive for pooling, normalization, verification, and figures.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 input error, 3 domain violation, 4 degenerate spectrum. Every command is
deterministic given its flags and seed, and re-runs write byte-identical
output files.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import analysis, gradients, hosvd, io, sketch, spectral, tensor
from .errors import DomainError, InputError


def _parse_spec(text: str) -> spectral.PnSpec:
    kind, sep, param = text.partition(":")
    if not sep or not param:
        raise InputError(f"spec must look like kind:param, got {text!r}")
    try:
        value = float(param)
    except ValueError:
        raise InputError(f"spec parameter {param!r} is not a number") from None
    return spectral.PnSpec(kind.strip().lower(), value)


def _write_text(path, text: str) -> None:
    with open(path, "w", newline="") as f:
        f.write(text)
        if not text.endswith("\n"):
            f.write("\n")


def _write_svg(path, xs, series, title: str) -> None:
    """Minimal polyline plot; series is a list of (name, ys) pairs."""
    width, height, pad = 640.0, 400.0, 45.0
    xs = np.asarray(xs, dtype=np.float64)
    all_y = np.concatenate([np.asarray(ys, dtype=np.float64)[np.isfinite(ys)]
                            for _, ys in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

    def sx(v):
        return pad + (v - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{pad:.1f}" y1="{height - pad:.1f}" x2="{width - pad:.1f}" '
        f'y2="{height - pad:.1f}" stroke="black"/>',
        f'<line x1="{pad:.1f}" y1="{pad:.1f}" x2="{pad:.1f}" '
        f'y2="{height - pad:.1f}" stroke="black"/>',
    ]
    for lo, hi, fx, fy, anchor in (
        (x_lo, x_hi, sx, lambda _: height - pad + 16.0, "middle"),
        (y_lo, y_hi, lambda _: pad - 6.0, sy, "end"),
    ):
        for v in (lo, hi):
            parts.append(
                f'<text x="{fx(v):.1f}" y="{fy(v):.1f}" text-anchor="{anchor}" '
                f'font-family="sans-serif" font-size="11">{v:.4g}</text>'
            )
    for k, (name, ys) in enumerate(series):
        ys = np.asarray(ys, dtype=np.float64)
        keep = np.isfinite(ys)
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs[keep], ys[keep]))
        color = palette[k % len(palette)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - pad + 4:.1f}" y="{pad + 14 * k + 10:.1f}" '
                     f'font-family="sans-serif" font-size="11" fill="{color}">'
                     f'{name}</text>')
    parts.append("</svg>")
    _write_text(path, "\n".join(parts))


def cmd_pool(args) -> int:
    features = io.read_features_csv(args.input)
    if args.center:
        features = tensor.FeatureSet(
            features.vectors, features.weights, features.vectors.mean(axis=0)
        )
    pooled = tensor.pool(features, args.order)
    io.write_tensor(args.out, pooled)
    print(f"pooled {features.count} vectors of dim {features.dim} "
          f"into an order-{args.order} tensor: {args.out}")
    return 0


def cmd_epn(args) -> int:
    t = io.read_tensor(args.input)
    spec = _parse_spec(args.spec)
    if t.order == 2:
        out = tensor.DenseTensor(spectral.epn_matrix(t.data, spec, normalize=args.normalize))
    else:
        if args.normalize:
            raise InputError("--normalize applies to order-2 input only")
        out = hosvd.reconstruct(hosvd.apply_epn_core(hosvd.hosvd_supersym(t), spec))
    io.write_tensor(args.out, out)
    print(f"applied {spec.kind}:{spec.param:g} to {args.input}: {args.out}")
    return 0


def cmd_distance(args) -> int:
    a = io.read_tensor(args.a)
    b = io.read_tensor(args.b)
    value = hosvd.tpe_distance(a, b)
    print(f"{value:.12g}")
    return 0


def _emit_report(text: str, rows: list, out_prefix) -> None:
    """Print a report's JSON; with a prefix also write it and its rows as CSV.

    The CSV columns follow the key order of the row dicts.
    """
    print(text)
    if out_prefix:
        _write_text(f"{out_prefix}.json", text)
        header = list(rows[0])
        io.write_csv(f"{out_prefix}.csv", header, [[r[k] for k in header] for r in rows])


def cmd_verify(args) -> int:
    which = args.theorem
    if which in ("2", "3", "combined"):
        sweep, params = {
            "2": (analysis.verify_maxexp_bound, range(1, args.eta_max + 1)),
            "3": (analysis.verify_gamma_bound, None),
            "combined": (analysis.verify_combined_bound, None),
        }[which]
        report = sweep(params, args.lam_step, args.t_scale)
        _emit_report(analysis.report_json(report), report.detail, args.out)
        return 0 if report.certified else 1
    if which in ("4", "5"):
        if which == "4":
            report = analysis.verify_maxexp_ode(h=args.h, coeff_scale=args.t_scale)
        else:
            report = analysis.verify_gamma_ode(coeff_scale=args.t_scale)
        _emit_report(analysis.ode_report_json(report), report["rows"], args.out)
        return 0 if report["pass"] else 1
    # gaps
    eps1, eps2 = analysis.bound_gaps(args.eta)
    doc = {"eta": args.eta, "eps1": eps1, "eps2": eps2}
    print(io.json_text(doc))
    if args.out:
        _write_text(f"{args.out}.json", io.json_text(doc))
    return 0 if eps1 <= eps2 + 1e-15 else 1


def _draw_spd(rng, d: int) -> np.ndarray:
    """SPD draw with spectrum inside (0.2, 0.95): valid for every kind."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    lam = np.sort(rng.uniform(0.2, 0.95, size=d))[::-1]
    return (q * lam) @ q.T


def _matrix_input(args, rng) -> np.ndarray:
    """The --input matrix, or else the seeded SPD draw of dimension --d."""
    if not args.input:
        return _draw_spd(rng, args.d)
    x = io.read_matrix_csv(args.input)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise InputError(f"{args.input}: expected a square matrix")
    return x


def _central(loss, x, dirs, h: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar loss at x along each direction."""
    return np.array([(loss(x + h * s) - loss(x - h * s)) / (2.0 * h) for s in dirs])


def _check_eig_value(args, rng, spec):
    x = _matrix_input(args, rng)
    analytic = gradients.eig_value_grad(x, 1)
    oracle = gradients.finite_diff_oracle(lambda m: float(spectral.sym_eig(m).values[0]), x)
    return analytic, oracle.jac, x.shape[0]


def _check_eig_vector(args, rng, spec):
    x = _matrix_input(args, rng)
    j = min(2, x.shape[0])
    analytic = gradients.eig_vector_grad(x, 1, j)
    oracle = gradients.finite_diff_oracle(
        lambda m: float(spectral.sym_eig(m).vectors[0, j - 1]), x
    )
    return analytic, oracle.jac, x.shape[0]


def _check_epn_vjp(args, rng, spec):
    x = _matrix_input(args, rng)
    d = x.shape[0]
    upstream = rng.normal(size=(d, d))
    analytic = gradients.epn_matrix_vjp(x, spec, upstream)
    oracle = gradients.finite_diff_oracle(lambda m: spectral.epn_matrix(m, spec), x)
    return analytic, oracle.vjp(upstream), d


def _check_factor_vjp(args, rng, spec):
    d = args.d
    t = tensor.pool(tensor.FeatureSet(rng.normal(size=(2 * d, d))), 3)
    upstream = rng.normal(size=(d, d))
    analytic = gradients.unfolded_factor_vjp(t, upstream).data
    dirs = [s / np.linalg.norm(s) for s in rng.normal(size=(5,) + t.dims)]
    numeric = _central(
        lambda m: float(np.sum(upstream * hosvd._mode1_gram(m)[1].vectors)), t.data, dirs
    )
    return np.array([np.sum(analytic * s) for s in dirs]), numeric, d


def _check_core_grad(args, rng, spec):
    d = args.d
    features = tensor.FeatureSet(rng.normal(size=(max(4, d), d)))
    q, _ = np.linalg.qr(rng.normal(size=(d, 3)))
    u, v, w = q.T
    analytic = gradients.core_coefficient_grad(features, u, v, w)
    x = features.vectors
    one_hot = np.eye(x.size).reshape((x.size,) + x.shape)
    numeric = _central(
        lambda m: hosvd.core_coefficient(tensor.FeatureSet(m), u, v, w), x, one_hot
    )
    return analytic, numeric.reshape(x.shape), d


# op -> (check returning (analytic, numeric, d), threshold on the relative error)
_GRADCHECK_OPS = {
    "eig_value_grad": (_check_eig_value, 1e-6),
    "eig_vector_grad": (_check_eig_vector, 1e-5),
    "epn_vjp": (_check_epn_vjp, 1e-5),
    "factor_vjp": (_check_factor_vjp, 1e-4),
    "core_grad": (_check_core_grad, 1e-7),
}


def cmd_gradcheck(args) -> int:
    if args.spec is not None and args.op != "epn_vjp":
        raise InputError(f"--spec applies to --op epn_vjp only, not {args.op}")
    if args.input is not None and args.op in ("factor_vjp", "core_grad"):
        raise InputError(f"--input does not apply to --op {args.op}, which draws its input")
    # core_grad projects on three orthonormal directions
    lo = 3 if args.op == "core_grad" else 2
    if not args.input and not lo <= args.d <= 32:
        raise InputError(f"d must be in {lo}..32, got {args.d}")
    spec = _parse_spec(args.spec or "sigme:4") if args.op == "epn_vjp" else None
    check, threshold = _GRADCHECK_OPS[args.op]
    analytic, numeric, d = check(args, np.random.default_rng(args.seed), spec)
    rel_err = float(np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-300))
    doc = {"op": args.op, "d": d, "seed": args.seed, "rel_err": rel_err,
           "threshold": threshold, "pass": rel_err < threshold}
    if spec is not None:
        doc["spec"] = f"{spec.kind}:{spec.param:g}"
    print(io.json_text(doc))
    return 0 if doc["pass"] else 1


def _figure_fig1(args) -> tuple[list, np.ndarray, list, str]:
    if not 1 <= args.n <= analysis.MAX_GRID:
        raise InputError(f"--n must be in 1..{analysis.MAX_GRID}, got {args.n}")
    analysis._check_bins(args.bins)  # before the draw, which a refused bin count would waste
    eta = args.eta if args.eta is not None else 64.0
    rng = np.random.default_rng(args.seed)
    samples = rng.beta(2.0, 5.0, size=args.n)
    samples = samples / samples.max()
    t = analysis.t_of_eta(eta)
    edges, maxexp_mass = analysis.pushforward_spectrum(
        samples, spectral.PnSpec("maxexp", eta), bins=args.bins
    )
    _, hdp_mass = analysis.pushforward_spectrum(
        samples, spectral.PnSpec("hdp", t), bins=args.bins
    )
    header = ["bin_low", "bin_high", "maxexp_mass", "hdp_mass"]
    rows = np.column_stack([edges[:-1], edges[1:], maxexp_mass, hdp_mass])
    centers = 0.5 * (edges[:-1] + edges[1:])
    series = [("maxexp", maxexp_mass), ("hdp", hdp_mass)]
    print(io.json_text({
        "top_bin_maxexp": float(maxexp_mass[-1]),
        "top_bin_hdp": float(hdp_mass[-1]),
        "top_bin_difference": float(abs(maxexp_mass[-1] - hdp_mass[-1])),
        "t": t,
    }))
    return header, rows, [centers, series], "spectrum pushforward"


def _figure_fig2(args) -> tuple[list, np.ndarray, list, str]:
    eta = args.eta if args.eta is not None else 8.0
    lam = np.round(np.arange(-1000, 1001) * 1e-3, 12)
    specs = {
        "gamma": spectral.PnSpec("gamma", args.gamma),
        "maxexp": spectral.PnSpec("maxexp", eta),
        "asinhe": spectral.PnSpec("asinhe", args.gamma_prime),
        "sigme": spectral.PnSpec("sigme", args.eta_prime),
        "hdp": spectral.PnSpec("hdp", args.hdp_t),
    }
    values = np.full((lam.size, 1 + len(specs)), np.nan)
    values[:, 0] = lam
    for k, (name, spec) in enumerate(specs.items(), 1):
        domain = lam >= 0.0 if name in spectral.SPSD_KINDS else slice(None)
        values[domain, k] = spectral.pn_scalar(lam[domain], spec)
    rows = values.astype(object)
    rows[np.isnan(values)] = None  # an empty cell outside an operator's domain
    series = [(name, values[:, k]) for k, name in enumerate(specs, 1)]
    return ["lambda", *specs], rows, [lam, series], "operator profiles"


def _figure_fig4b(args) -> tuple[list, np.ndarray, list, str]:
    step = args.theta_step
    if not (math.isfinite(step) and 0.0 < step <= math.pi / 2):
        raise InputError(f"--theta-step must lie in (0, pi/2], got {step}")
    if math.pi / 2 / step >= analysis.MAX_GRID - 0.5:  # then n below passes MAX_GRID
        raise InputError(f"--theta-step {step} gives more than {analysis.MAX_GRID} points")
    eta = args.eta if args.eta is not None else 20.0
    n = int(round(math.pi / 2 / step)) + 1
    thetas = np.linspace(0.0, math.pi / 2, n)
    curve = analysis.detector_curve(thetas, eta, args.kappa)
    header = ["theta", "response"]
    series = [("response", curve[:, 1])]
    return header, curve, [curve[:, 0], series], "detection response"


def cmd_figure(args) -> int:
    builders = {"fig1": _figure_fig1, "fig2": _figure_fig2, "fig4b": _figure_fig4b}
    header, rows, (xs, series), title = builders[args.which](args)
    io.write_csv(args.out, header, rows)
    print(f"wrote {args.which} data: {args.out}")
    if args.svg:
        _write_svg(args.svg, xs, series, title)
        print(f"wrote {args.which} plot: {args.svg}")
    return 0


def cmd_sketch(args) -> int:
    features = io.read_features_csv(args.input)
    if args.plan:
        with open(args.plan) as f:
            d, d_prime, seed = sketch._plan_fields(f.read())
        # compare before drawing: make_plan allocates O(d)
        if d != features.dim:
            raise InputError(f"plan input dim {d} does not match CSV dim {features.dim}")
    else:
        if args.dprime is None:
            raise InputError("pass --dprime (or --plan to reuse a stored plan)")
        d_prime, seed = args.dprime, args.seed
    plan = sketch.make_plan(features.dim, d_prime, seed)
    sketched = sketch.apply(plan, features.vectors)
    has_weights = not np.all(features.weights == 1.0)
    out_features = tensor.FeatureSet(sketched, features.weights if has_weights else None)
    io.write_features_csv(args.out, out_features, include_weights=has_weights)
    plan_path = args.plan or f"{args.out}.plan.json"
    if not args.plan:
        _write_text(plan_path, sketch.plan_json(plan))
    print(f"sketched {features.count} rows from dim {plan.input_dim} "
          f"to {plan.output_dim}: {args.out} (plan: {plan_path})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hotpool",
        description="Higher-order tensor pooling with spectral power normalization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pool", help="pool a feature CSV into a tensor file")
    p.add_argument("input", help="feature CSV (optional trailing weight column)")
    p.add_argument("-r", "--order", type=int, default=3, choices=(2, 3, 4))
    p.add_argument("--center", action="store_true",
                   help="subtract the column mean before pooling")
    p.add_argument("--out", required=True, help="output tensor file")
    p.set_defaults(func=cmd_pool)

    p = sub.add_parser("epn", help="spectrally normalize a pooled tensor")
    p.add_argument("input", help="tensor file of order 2, 3 or 4")
    p.add_argument("--spec", required=True, help="operator as kind:param, "
                   "e.g. gamma:0.5, maxexp:20, sigme:4, hdp:0.2, grassmann:2")
    p.add_argument("--normalize", action="store_true",
                   help="trace-normalize the spectrum first (order 2 only)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_epn)

    p = sub.add_parser("distance", help="distance between two tensor files")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("verify", help="certify bounds and decay equations")
    p.add_argument("--theorem", required=True,
                   choices=("2", "3", "4", "5", "gaps", "combined"))
    p.add_argument("--eta", type=float, default=2.0,
                   help="eta for --theorem gaps")
    p.add_argument("--eta-max", type=int, default=64,
                   help="sweep eta = 1..eta-max for --theorem 2")
    p.add_argument("--lam-step", type=float, default=analysis.DEFAULT_LAM_STEP)
    p.add_argument("--t-scale", type=float, default=1.0,
                   help="detune the time constant (anything but 1 should fail)")
    p.add_argument("--h", type=float, default=1e-6,
                   help="finite-difference step for --theorem 4")
    p.add_argument("--out", help="prefix for .json and .csv reports")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gradcheck", help="check an analytic gradient numerically")
    p.add_argument("--op", required=True, choices=tuple(_GRADCHECK_OPS))
    p.add_argument("--d", type=int, default=6, help="dimension of the random draw")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spec", help="operator for epn_vjp (default sigme:4)")
    p.add_argument("--input", help="matrix CSV to use instead of a random draw "
                   "(eig_value_grad, eig_vector_grad, epn_vjp)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("figure", help="emit figure data as CSV (optionally SVG)")
    p.add_argument("--which", required=True, choices=("fig1", "fig2", "fig4b"))
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--svg", help="also render a line plot")
    p.add_argument("--seed", type=int, default=42, help="fig1 sample seed")
    p.add_argument("--n", type=int, default=100_000, help="fig1 sample count")
    p.add_argument("--bins", type=int, default=10, help="fig1 histogram bins")
    p.add_argument("--eta", type=float, default=None,
                   help="saturation exponent (fig1 default 64, fig4b default 20)")
    p.add_argument("--kappa", type=float, default=2.0, help="fig4b coefficient scale")
    p.add_argument("--theta-step", type=float, default=1e-4, help="fig4b grid step")
    p.add_argument("--gamma", type=float, default=0.5, help="fig2 power exponent")
    p.add_argument("--gamma-prime", type=float, default=1.0, help="fig2 asinhe parameter")
    p.add_argument("--eta-prime", type=float, default=25.0, help="fig2 sigme parameter")
    p.add_argument("--hdp-t", type=float, default=0.2, help="fig2 decay time constant")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("sketch", help="count-sketch a feature CSV")
    p.add_argument("input")
    p.add_argument("--dprime", type=int, help="output dimension")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plan", help="reuse a stored plan JSON instead of drawing one")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sketch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)  # an OSError is a bad file


if __name__ == "__main__":
    sys.exit(main())

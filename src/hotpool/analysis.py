"""Curve parametrizations, bound certification, ODE residuals, figure data.

The saturation profile 1-(1-lam)^eta and the power profile lam^gamma both
upper-bound the heat-decay profile exp(-t/lam) once their parameters are
tied to the time constant t:

    t(eta)   = (e/(e-1)) * eta^eta / (eta+1)^(eta+1),  eta >= 1
    gamma(t) = e*t, a valid power exponent while t <= 1/e

Certification sweeps lambda grids, records the signed gap
(profile - decay), and reports the worst points plus tangency locations.
The gap between the saturation and decay curves is capped by

    eps1 = (e-1)/e - (1 - t(eta))^eta              at lambda = t(eta)
    eps2 = 1 - y~ - exp(-(e/(e-1)) y~)             at lambda = 1/(eta+1)

with y~ = (eta/(eta+1))^eta; eps1 <= eps2, and eps2 caps the gap on the
whole window lambda in [t(eta), 1/(eta+1)]. Beyond the window the gap keeps
growing toward lambda = 1, so the eps2 ceiling applies to the window only.

The time-derivative checks confirm that both profiles solve a damped decay
equation: psi(t) = 1-(1-lam)^eta(t) satisfies

    dpsi/dt + log(1-lam) * (deta/dt) * (1 - psi) = 0

with eta(t) the exact inverse of t(eta), and psi'(t) = lam_L^(-e*t)
satisfies dpsi'/dt + e*log(lam_L)*psi' = 0 identically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DomainError, InputError, _check_finite, _check_int, _check_real
from .io import json_text
from .spectral import _OPS, PnSpec, pn_scalar

E = math.e

# signed-gap floor: a bound "holds" when gap >= -BOUND_TOL everywhere
BOUND_TOL = 1e-12

# a grid local minimum counts as a tangency when its gap is at most this
TOUCH_TOL = 1e-6

# ceiling slack for the window max against eps2
EPS2_SLACK = 1e-9

DEFAULT_LAM_STEP = 1e-4

# most points of any swept or plotted grid: 100x fig1's default sample count
MAX_GRID = 10**7


def _t_of_eta(eta: float) -> float:
    # (eta/(eta+1))^eta / (eta+1) through log1p: the log form
    # eta*log(eta) - (eta+1)*log(eta+1) cancels catastrophically for large eta
    return E / (E - 1.0) * math.exp(-eta * math.log1p(1.0 / eta)) / (eta + 1.0)


def t_of_eta(eta: float) -> float:
    """Time constant of the saturation profile; decreasing in eta."""
    return _t_of_eta(_check_real(eta, "eta", 1.0, ends="[)"))


T_ETA_MAX = t_of_eta(1.0)


def eta_of_t(t: float) -> float:
    """Closed-form approximate inverse of t_of_eta.

    The approximation 0.5*sqrt(4/(t^2 (e-1)^2) + 1) - 0.5 is accurate for
    large eta and drifts by a few percent near eta = 1; eta_of_t_exact is
    the reference inverse. hypot keeps it finite where t^2 underflows.
    """
    t = _check_real(t, "t", 0.0, T_ETA_MAX, "(]")
    return 0.5 * math.hypot(2.0 / (t * (E - 1.0)), 1.0) - 0.5


def eta_of_t_exact(t: float) -> float:
    """Invert t_of_eta by bisection run to interval collapse."""
    t = _check_real(t, "t", 0.0, T_ETA_MAX, "(]")
    lo, hi = 1.0, 2.0
    while _t_of_eta(hi) > t:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if _t_of_eta(mid) > t:
            lo = mid
        else:
            hi = mid


def gamma_of_t(t: float) -> float:
    """Power exponent e*t matched to decay time t."""
    return E * _check_real(t, "t", 0.0)


def t_of_gamma(gamma: float) -> float:
    """Inverse of gamma_of_t for exponents in (0, 1]."""
    return _check_real(gamma, "gamma", 0.0, 1.0, "(]") / E


def alpha_of_eta(eta: float) -> float:
    """Tangency product t(eta)*eta in closed form."""
    eta = _check_real(eta, "eta", 1.0, ends="[)")
    return E / (E - 1.0) * math.exp(-(eta + 1.0) * math.log1p(1.0 / eta))


def y_of_eta(eta: float) -> float:
    """Tangency abscissa (e/(e-1))*(eta/(eta+1))^eta in decay coordinates.

    Lies in (0, 1) for all eta >= 1, falling from e/(2(e-1)) at eta = 1
    toward 1/(e-1).
    """
    eta = _check_real(eta, "eta", 1.0, ends="[)")
    return E / (E - 1.0) * math.exp(-eta * math.log1p(1.0 / eta))


def bound_gaps(eta: float) -> tuple[float, float]:
    """Gap sizes (eps1, eps2) at the window endpoints (see module docstring)."""
    t = t_of_eta(eta)
    eps1 = (E - 1.0) / E - math.exp(eta * math.log1p(-t))
    ytil = math.exp(-eta * math.log1p(1.0 / eta))
    eps2 = 1.0 - ytil - math.exp(-(E / (E - 1.0)) * ytil)
    return eps1, eps2


@dataclass(frozen=True)
class BoundReport:
    """Outcome of sweeping one bound over its parameter and lambda grids.

    passed tracks only the floor min_gap >= -1e-12; certified additionally
    requires the per-curve ceiling or tangency checks collected in detail.
    touch_points holds (lambda, gap) grid local minima with gap <= 1e-6.
    """

    check: str
    grid: dict
    min_gap: float
    max_gap: float
    touch_points: list
    passed: bool
    certified: bool
    detail: list = field(default_factory=list)


def report_json(report: BoundReport) -> str:
    doc = {
        "check": report.check,
        "grid": report.grid,
        "pass": report.passed,
        "certified": report.certified,
        "min_gap": report.min_gap,
        "max_gap": report.max_gap,
        "touch_points": [[lam, gap] for lam, gap in report.touch_points],
    }
    return json_text(doc)


def _grid_open(lo: float, hi: float, step: float) -> np.ndarray:
    """Multiples of step inside (lo, hi] for lo < hi, with hi as the last point."""
    if (hi - lo) / step > MAX_GRID:
        raise InputError(f"lambda step {step} gives more than {MAX_GRID} grid points")
    k0 = int(math.floor(lo / step)) + 1
    kn = int(math.floor(hi / step + 1e-9))
    lam = np.arange(k0, kn + 1, dtype=np.float64) * step
    lam = lam[lam > lo]
    if lam.size and lam[-1] >= hi - 0.5 * step:
        lam[-1] = hi
    else:
        lam = np.append(lam, hi)
    return lam


def _local_minima(lam: np.ndarray, gap: np.ndarray) -> list:
    """(lambda, gap) at the first point of each run of touching local minima."""
    mid = gap[1:-1]
    hit = (mid <= gap[:-2]) & (mid <= gap[2:]) & (mid <= TOUCH_TOL)
    hit[1:] &= ~hit[:-1]
    return [(float(lam[i]), float(gap[i])) for i in np.nonzero(hit)[0] + 1]


def _gap_stats(lam: np.ndarray, gap: np.ndarray) -> tuple[float, float, float]:
    """(min_gap, max_gap, worst_lambda) of one swept curve."""
    return float(gap.min()), float(gap.max()), float(lam[int(np.argmin(gap))])


def _sweep_bound(check: str, params: list, lam_step: float, t_scale: float,
                 grid: dict, curve, ok_key: str | None = None) -> BoundReport:
    """Sweep one bound over its parameters and aggregate a BoundReport.

    curve(param, t_scale, lam_step) returns (lam, gap, row) for one curve;
    row is its detail dict and carries min_gap and max_gap. certified also
    requires row[ok_key] on every curve when ok_key is given. grid holds the
    check's own grid entries; the step and scale are added here.
    """
    if not params:
        raise InputError(f"{check}: empty parameter grid")
    lam_step = _check_real(lam_step, "lambda step", 0.0, 0.1, "(]")
    t_scale = _check_real(t_scale, "t scale", 0.0)
    detail = []
    touch = []
    for param in params:
        lam, gap, row = curve(param, t_scale, lam_step)
        touch.extend(_local_minima(lam, gap))
        detail.append(row)
    min_gap = min(row["min_gap"] for row in detail)
    max_gap = max(row["max_gap"] for row in detail)
    passed = min_gap >= -BOUND_TOL
    certified = passed and (ok_key is None or all(row[ok_key] for row in detail))
    grid = {**grid, "lambda_step": lam_step, "t_scale": t_scale}
    return BoundReport(check, grid, min_gap, max_gap, touch, passed, certified, detail)


def _maxexp_curve(eta: float, t_scale: float, lam_step: float):
    t_eff = t_of_eta(eta) / t_scale
    if not t_eff < 1.0:
        raise DomainError(f"scaled time constant {t_eff} leaves no grid in (t, 1]")
    eps1, eps2 = bound_gaps(eta)
    sat, decay = _OPS["maxexp"].g, _OPS["hdp"].g
    lam = _grid_open(t_eff, 1.0, lam_step)
    gap = sat(lam, eta) - decay(lam, t_eff)
    w_hi = 1.0 / (eta + 1.0)
    window = [float(sat(t_eff, eta) - decay(t_eff, t_eff))]
    if t_eff < w_hi:
        window.append(float(sat(w_hi, eta) - decay(w_hi, t_eff)))
        window.extend(gap[lam <= w_hi].tolist())
    window_max = max(window)
    beyond_min = None
    if eta.is_integer():
        lam_b = _grid_open(1.0, 10.0, 1e-2)
        beyond_min = float((sat(lam_b, eta) - decay(lam_b, t_eff)).min())
    curve_min, curve_max, worst = _gap_stats(lam, gap)
    return lam, gap, {
        "eta": eta,
        "t": t_eff,
        "min_gap": curve_min,
        "max_gap": curve_max,
        "window_max_gap": window_max,
        "eps1": eps1,
        "eps2": eps2,
        "window_ok": window_max <= eps2 + EPS2_SLACK,
        "worst_lambda": worst,
        "beyond_one_min_gap": beyond_min,
    }


def verify_maxexp_bound(etas=None, lam_step: float = DEFAULT_LAM_STEP,
                        t_scale: float = 1.0) -> BoundReport:
    """Certify saturation >= decay on (t(eta), 1] per eta.

    Each curve is swept on its own lambda grid; the eps2 ceiling is checked
    on the window [t(eta), 1/(eta+1)] including both exact endpoints. The
    region (1, 10] is also sampled for integer eta and reported without
    being gated on: even exponents send the saturation profile below the
    decay curve out there. t_scale deliberately detunes the time constant
    so a harness can confirm the certification actually bites.
    """
    if etas is None:
        etas = tuple(range(1, 65))
    etas = [float(e) for e in etas]
    grid = {"etas": etas, "lambda_domain": "(t(eta), 1]"}
    return _sweep_bound("maxexp_bound", etas, lam_step, t_scale, grid,
                        _maxexp_curve, "window_ok")


def _gamma_curve(t: float, t_scale: float, lam_step: float):
    gamma = gamma_of_t(t)
    if gamma > 1.0:
        raise DomainError(f"t = {t} maps to exponent {gamma} > 1")
    t_eff = t / t_scale
    power, decay = _OPS["gamma"].g, _OPS["hdp"].g
    lam = _grid_open(0.0, 1.0, lam_step)
    lam = np.unique(np.append(lam, 1.0 / E))
    gap = power(lam, gamma) - decay(lam, t_eff)
    tangency = abs(float(power(1.0 / E, gamma) - decay(1.0 / E, t_eff)))
    curve_min, curve_max, worst = _gap_stats(lam, gap)
    return lam, gap, {
        "t": t_eff,
        "gamma": gamma,
        "min_gap": curve_min,
        "max_gap": curve_max,
        "tangency_gap": tangency,
        "tangency_ok": tangency < 1e-9,
        "worst_lambda": worst,
    }


def verify_gamma_bound(ts=None, lam_step: float = DEFAULT_LAM_STEP,
                       t_scale: float = 1.0) -> BoundReport:
    """Certify power >= decay on (0, 1] per time constant.

    The two curves agree exactly at lambda = 1/e, where both evaluate to
    exp(-e*t); that tangency gap must stay below 1e-9 for certification.
    """
    if ts is None:
        ts = (0.05, 0.1, 0.2, 1.0 / E)
    ts = [float(t) for t in ts]
    grid = {"ts": ts, "lambda_domain": "(0, 1]"}
    return _sweep_bound("gamma_bound", ts, lam_step, t_scale, grid,
                        _gamma_curve, "tangency_ok")


def _combined_curve(t: float, t_scale: float, lam_step: float):
    eta = eta_of_t_exact(t)
    gamma = gamma_of_t(t)
    if gamma > 1.0:
        raise DomainError(f"t = {t} maps to exponent {gamma} > 1")
    t_eff = t / t_scale
    if not t_eff < 1.0:
        raise DomainError(f"scaled time constant {t_eff} leaves no grid in (t, 1]")
    sat, power, decay = _OPS["maxexp"].g, _OPS["gamma"].g, _OPS["hdp"].g
    lam = _grid_open(t_eff, 1.0, lam_step)
    if t_eff < 1.0 / E:
        lam = np.unique(np.append(lam, 1.0 / E))
    envelope = np.minimum(sat(lam, eta), power(lam, gamma))
    gap = envelope - decay(lam, t_eff)
    curve_min, curve_max, worst = _gap_stats(lam, gap)
    return lam, gap, {
        "t": t_eff,
        "eta": eta,
        "gamma": gamma,
        "min_gap": curve_min,
        "max_gap": curve_max,
        "worst_lambda": worst,
    }


def verify_combined_bound(ts=None, lam_step: float = DEFAULT_LAM_STEP,
                          t_scale: float = 1.0) -> BoundReport:
    """Certify min(saturation, power) >= decay where both profiles apply.

    eta comes from the exact inverse of t(eta) and gamma from e*t, so both
    curves share one time constant; the envelope is swept on (t, 1].
    """
    if ts is None:
        ts = (0.05, 0.1, 0.2, 0.3, 1.0 / E)
    ts = [float(t) for t in ts]
    grid = {"ts": ts, "lambda_domain": "(t, 1]"}
    return _sweep_bound("combined_bound", ts, lam_step, t_scale, grid, _combined_curve)


def ode_residual_maxexp(lam: float, t: float, h: float = 1e-6,
                        coeff_scale: float = 1.0) -> float:
    """Residual of the saturation trajectory in its decay equation.

    psi(t) = 1-(1-lam)^eta(t) with eta(t) from the exact inverse; both
    d(psi)/dt and d(eta)/dt use central differences with step h, so the
    residual cancels to O(h^2) instead of merely to approximation accuracy.
    coeff_scale multiplies the damping coefficient to let a harness verify
    the residual is actually sensitive to the equation's shape.
    """
    lam = _check_real(lam, "eigenvalue", 0.0, 1.0)
    t = _check_real(t, "t")
    h = _check_real(h, "step", 0.0)
    coeff_scale = _check_real(coeff_scale, "coefficient scale")
    if not (t - h > 0.0 and t + h <= T_ETA_MAX):
        raise DomainError(
            f"t must lie in ({h}, {T_ETA_MAX - h:.6f}] so t +/- h stays in range"
        )
    base = math.log1p(-lam)
    eta_m = eta_of_t_exact(t - h)
    eta_0 = eta_of_t_exact(t)
    eta_p = eta_of_t_exact(t + h)
    psi_m = 1.0 - math.exp(eta_m * base)
    psi_0 = 1.0 - math.exp(eta_0 * base)
    psi_p = 1.0 - math.exp(eta_p * base)
    dpsi = (psi_p - psi_m) / (2.0 * h)
    deta = (eta_p - eta_m) / (2.0 * h)
    return abs(dpsi + coeff_scale * base * deta * (1.0 - psi_0))


def ode_residual_gamma(lam_l: float, t: float, coeff_scale: float = 1.0) -> float:
    """Residual of psi'(t) = lam_L^(-e*t) in its decay equation.

    The derivative is analytic, so with coeff_scale = 1 the residual is an
    exact floating-point zero.
    """
    lam_l = _check_real(lam_l, "Laplacian eigenvalue", 0.0)
    t = _check_real(t, "time", 0.0)
    coeff_scale = _check_real(coeff_scale, "coefficient scale")
    psi = lam_l ** (-E * t)
    dpsi = -E * math.log(lam_l) * psi
    return abs(dpsi + coeff_scale * E * math.log(lam_l) * psi)


def _sweep_ode(check: str, key: str, xs, ts, residual, tolerance: float,
               params: dict) -> dict:
    """Evaluate residual(x, t) over the xs-by-ts grid; pass below tolerance.

    Rows and the worst point name the eigenvalue coordinate key; params are
    the settings the report echoes next to the check name.
    """
    rows = [{key: float(x), "t": float(t), "residual": residual(float(x), float(t))}
            for x in xs for t in ts]
    if not rows:
        raise InputError(f"{check}: empty {key}-by-t grid")
    worst = max(rows, key=lambda row: row["residual"])
    return {
        "check": check,
        **params,
        "tolerance": tolerance,
        "max_residual": worst["residual"],
        "worst": {key: worst[key], "t": worst["t"]},
        "pass": worst["residual"] < tolerance,
        "rows": rows,
    }


def verify_maxexp_ode(lams=None, ts=None, h: float = 1e-6,
                      coeff_scale: float = 1.0) -> dict:
    """Sweep ode_residual_maxexp over a (lambda, t) grid; tolerance 1e-8."""
    if lams is None:
        lams = np.round(np.arange(1, 20) * 0.05, 10)
    if ts is None:
        ts = np.round(0.05 + 0.03 * np.arange(11), 10)
    residual = partial(ode_residual_maxexp, h=h, coeff_scale=coeff_scale)
    return _sweep_ode("maxexp_ode", "lambda", lams, ts, residual, 1e-8,
                      {"h": float(h), "coeff_scale": float(coeff_scale)})


def verify_gamma_ode(lam_ls=None, ts=None, coeff_scale: float = 1.0) -> dict:
    """Sweep ode_residual_gamma over a (lambda_L, t) grid; tolerance 1e-12."""
    if lam_ls is None:
        lam_ls = np.round(0.5 + 0.25 * np.arange(15), 10)
    if ts is None:
        ts = np.round(0.05 * np.arange(1, 21), 10)
    residual = partial(ode_residual_gamma, coeff_scale=coeff_scale)
    return _sweep_ode("gamma_ode", "lambda_L", lam_ls, ts, residual, 1e-12,
                      {"coeff_scale": float(coeff_scale)})


def ode_report_json(report: dict) -> str:
    doc = {k: v for k, v in report.items() if k != "rows"}
    return json_text(doc)


def _check_bins(bins) -> int:
    """A histogram bin count, 1 .. MAX_GRID (InputError otherwise)."""
    bins = _check_int(bins, "bins", 1)
    if bins > MAX_GRID:
        raise InputError(f"bins must be at most {MAX_GRID}, got {bins}")
    return bins


def pushforward_spectrum(samples, spec: PnSpec, bins: int = 10):
    """Histogram of an operator applied samplewise to a spectrum in (0, 1].

    Returns (edges, masses) with bins equal divisions of [0, 1] and masses
    summing to one; InputError beyond MAX_GRID bins.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise InputError("samples must be nonempty")
    _check_finite(samples, "samples", DomainError)
    if samples.min() <= 0.0 or samples.max() > 1.0 + 1e-12:
        raise DomainError("samples must lie in (0, 1]; rescale the spectrum first")
    bins = _check_bins(bins)
    values = pn_scalar(np.minimum(samples, 1.0), spec)
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    return edges, counts / samples.size


def detector_curve(thetas, eta: float, kappa: float = 2.0) -> np.ndarray:
    """Detection response over mixing angles, as rows (theta, response).

    A unit direction tilted by theta against an order-2 pooled pair yields
    the coefficient kappa*sin(theta)*cos(theta); the response saturates it
    through 1-(1-p)^eta. With the default kappa = 2 the coefficient
    sin(2*theta) fills exactly [0, 1], giving response 0 at both axis
    alignments and near-1 over the interior window.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.size == 0:
        raise InputError("theta grid must be nonempty")
    _check_finite(thetas, "theta grid", DomainError)
    if thetas.min() < -1e-12 or thetas.max() > math.pi / 2 + 1e-12:
        raise DomainError("theta grid must lie in [0, pi/2]")
    eta = _check_real(eta, "eta", 1.0, ends="[)")
    kappa = _check_real(kappa, "kappa", 0.0)
    p = kappa * np.sin(thetas) * np.cos(thetas)
    if p.max() > 1.0 + 1e-9:
        warnings.warn(
            f"coefficient peak {p.max():.6g} exceeds 1; clamped (kappa > 2)",
            RuntimeWarning,
            stacklevel=2,
        )
    responses = _OPS["maxexp"].g(np.clip(p, 0.0, 1.0), eta)
    return np.column_stack([thetas, responses])

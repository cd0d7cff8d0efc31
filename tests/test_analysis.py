import json
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hotpool import (
    DomainError,
    InputError,
    PnSpec,
    alpha_of_eta,
    bound_gaps,
    detector_curve,
    eta_of_t,
    eta_of_t_exact,
    gamma_of_t,
    ode_residual_gamma,
    ode_residual_maxexp,
    pn_scalar,
    pushforward_spectrum,
    t_of_eta,
    t_of_gamma,
    verify_combined_bound,
    verify_gamma_bound,
    verify_gamma_ode,
    verify_maxexp_bound,
    verify_maxexp_ode,
    y_of_eta,
)
from hotpool.analysis import MAX_GRID, TOUCH_TOL, E, _grid_open, _local_minima, report_json

# reference constants below were evaluated with mpmath at 50 digits


def test_t_of_eta_closed_form_points():
    assert_allclose(t_of_eta(1.0), (E / (E - 1.0)) / 4.0, rtol=1e-15)
    assert_allclose(t_of_eta(1.0), 0.3954941767173316, rtol=1e-15)
    assert_allclose(t_of_eta(2.0), 0.23436691953619651, rtol=1e-15)
    assert_allclose(t_of_eta(64.0), 0.009022985050340029, rtol=1e-13)
    with pytest.raises(DomainError):
        t_of_eta(0.5)


def test_t_of_eta_monotone_decreasing():
    etas = np.concatenate([np.linspace(1, 50, 400), np.geomspace(50, 1e4, 200)[1:]])
    ts = [t_of_eta(e) for e in etas]
    assert np.all(np.diff(ts) < 0)


def test_eta_of_t_approximation_quality():
    # closed-form inverse: accurate for stiff exponents, poor near eta = 1
    frozen = {1.0: 5.414e-2, 2.0: 1.651e-2, 10.0: 7.932e-4, 1000.0: 8.329e-8}
    rel_errs = []
    for eta, want in frozen.items():
        got = abs(eta_of_t(t_of_eta(eta)) - eta) / eta
        assert_allclose(got, want, rtol=1e-3)
        rel_errs.append(got)
    assert np.all(np.diff(rel_errs) < 0)
    with pytest.raises(DomainError):
        eta_of_t(t_of_eta(1.0) + 0.01)
    with pytest.raises(DomainError):
        eta_of_t(0.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-300.0, max_value=-6.0))
def test_eta_of_t_finite_where_t_squared_underflows(log10_t):
    t = 10.0 ** log10_t
    got = eta_of_t(t)
    assert math.isfinite(got)
    assert got == pytest.approx(eta_of_t_exact(t), rel=1e-12)


def test_eta_of_t_exact_inverts():
    for eta in (1.0, 2.0, 7.0, 64.0, 1000.0):
        assert abs(eta_of_t_exact(t_of_eta(eta)) - eta) < 1e-10 * eta


def _t_of_eta_decimal(eta):
    """t(eta) in decimal arithmetic with enough digits that eta/(eta+1) is exact."""
    x = Decimal(eta)
    with localcontext() as ctx:
        ctx.prec = 40 + max(0, x.adjusted())
        e = Decimal(1).exp()
        return float(e / (e - 1) * (x * (x / (x + 1)).ln()).exp() / (x + 1))


def test_t_of_eta_matches_decimal_reference_up_to_1e300():
    for k in range(301):
        eta = float(10**k)
        want = _t_of_eta_decimal(eta)
        assert abs(t_of_eta(eta) - want) <= 1e-15 * want, eta


@given(st.floats(min_value=0.0, max_value=15.0))
def test_eta_of_t_exact_inverts_up_to_1e15(log_eta):
    eta = 10.0**log_eta
    assert abs(eta_of_t_exact(t_of_eta(eta)) - eta) <= 1e-12 * eta


def test_eta_of_t_exact_at_tiny_t():
    # eta ~ 1/((e-1) t) - 1/2 once t is small
    assert_allclose(eta_of_t_exact(1e-17), 1.0 / ((E - 1.0) * 1e-17), rtol=1e-12)


def test_gamma_parametrization():
    assert_allclose(gamma_of_t(1.0 / E), 1.0, rtol=1e-15)
    assert_allclose(gamma_of_t(0.1), 0.27182818284590454, rtol=1e-15)
    for t in (0.01, 0.2, 1.0 / E):
        assert_allclose(t_of_gamma(gamma_of_t(t)), t, rtol=1e-15)
    with pytest.raises(DomainError):
        gamma_of_t(0.0)
    with pytest.raises(DomainError):
        t_of_gamma(1.2)


def test_alpha_is_t_times_eta():
    for eta in (1.0, 3.5, 64.0, 512.0):
        assert_allclose(alpha_of_eta(eta), t_of_eta(eta) * eta, rtol=1e-12)


def test_y_of_eta_range_and_endpoints():
    assert_allclose(y_of_eta(1.0), E / (2.0 * (E - 1.0)), rtol=1e-15)
    assert_allclose(y_of_eta(1.0), 0.7909883534346632, rtol=1e-15)
    # decreasing toward 1/(e-1) from above
    limit = 1.0 / (E - 1.0)
    assert_allclose(limit, 0.5819767068693264, rtol=1e-15)
    ys = [y_of_eta(e) for e in np.geomspace(1.0, 1e4, 300)]
    assert np.all(np.diff(ys) < 0)
    assert all(0.0 < y < 1.0 for y in ys)
    assert abs(ys[-1] - limit) < 1e-4


def test_y_of_eta_stays_in_unit_interval_for_huge_eta():
    for eta in [*np.geomspace(1e4, 1e306, 200), 1e306, np.finfo(np.float64).max]:
        assert 0.0 < y_of_eta(eta) < 1.0
    assert_allclose(y_of_eta(1e306), 1.0 / (E - 1.0), rtol=1e-15)


def test_supporting_line_identities():
    """The line (1/e - 1) y + 1 sits between the decay and saturation curves."""
    y = np.linspace(1e-4, 1.0 - 1e-4, 2000)
    line = (1.0 / E - 1.0) * y + 1.0
    assert np.all(line >= np.exp(-y))
    # at y(eta) the line meets the saturation value at lambda = 1/(eta+1)
    for eta in (1.0, 2.0, 8.0, 64.0):
        y_eta = y_of_eta(eta)
        line_val = (1.0 / E - 1.0) * y_eta + 1.0
        sat_val = 1.0 - (eta / (eta + 1.0)) ** eta
        assert_allclose(line_val, sat_val, rtol=1e-14)


def test_bound_gaps_reference_values():
    e1, e2 = bound_gaps(2.0)
    assert_allclose(e1, 0.045926544928064685, rtol=1e-13)
    assert_allclose(e2, 0.060507658124963474, rtol=1e-13)
    e1, e2 = bound_gaps(1.0)
    assert_allclose(e1, 0.027614735545889285, rtol=1e-13)
    assert_allclose(e2, 0.046603542185431171, rtol=1e-13)
    with pytest.raises(DomainError):
        bound_gaps(0.9)


def test_bound_gaps_ordering_and_limit():
    etas = [1.0, 1.5] + [2.0**k for k in range(1, 11)]
    for eta in etas:
        e1, e2 = bound_gaps(eta)
        assert e1 <= e2
    _, e2 = bound_gaps(2.0**20)
    assert abs(e2 - 0.07332785406581076) < 1e-6


def test_bound_gaps_ordered_on_a_log_grid():
    for eta in np.geomspace(1.0, 1e13, 2000):
        e1, e2 = bound_gaps(eta)
        assert e1 <= e2 + 1e-15, eta


def test_verify_maxexp_bound_default_certifies():
    rep = verify_maxexp_bound()
    assert rep.passed and rep.certified
    assert rep.min_gap > 0.0
    # the overall maximum is the eta = 1 gap at lambda = 1
    assert_allclose(rep.max_gap, 0.32665279549509613, rtol=1e-12)
    assert_allclose(rep.min_gap, 0.008982400078323849, rtol=1e-6)
    for row in rep.detail:
        assert row["window_ok"]
        assert row["window_max_gap"] <= row["eps2"] + 1e-9
        assert row["min_gap"] >= -1e-12


def test_verify_maxexp_bound_beyond_one_sampling():
    rep = verify_maxexp_bound(etas=[1, 2, 3, 4])
    by_eta = {row["eta"]: row["beyond_one_min_gap"] for row in rep.detail}
    # odd exponents keep the saturation profile above the decay curve out
    # to lambda = 10; even exponents dive far below it
    assert by_eta[1.0] > 0 and by_eta[3.0] > 0
    assert by_eta[2.0] < -80.0 and by_eta[4.0] < -6000.0
    assert rep.certified  # the informational sweep never gates


def test_verify_maxexp_bound_detuned_time_fails():
    rep = verify_maxexp_bound(etas=[1, 2, 4], t_scale=2.0)
    assert not rep.passed
    assert not rep.certified
    assert rep.min_gap < -1e-12


def test_verify_maxexp_gap_matches_pointwise_maps():
    # recompute one curve through the scalar operator API as a cross-check
    eta = 3.0
    rep = verify_maxexp_bound(etas=[eta], lam_step=1e-2)
    t = t_of_eta(eta)
    lam = _grid_open(t, 1.0, 1e-2)
    sat = pn_scalar(lam, PnSpec("maxexp", eta))
    dec = pn_scalar(lam, PnSpec("hdp", t))
    gap = sat - dec
    assert_allclose(rep.min_gap, float(gap.min()), atol=1e-12)
    assert_allclose(rep.max_gap, float(gap.max()), atol=1e-12)


def test_verify_gamma_bound_default_certifies():
    rep = verify_gamma_bound()
    assert rep.passed and rep.certified
    for row in rep.detail:
        assert row["tangency_ok"]
        assert row["tangency_gap"] < 1e-9
    # both sides equal exp(-e*t) at lambda = 1/e, so a touch point is found
    assert any(abs(lam - 1.0 / E) < 1e-3 for lam, _ in rep.touch_points)


def test_verify_gamma_bound_endpoint_value():
    rep = verify_gamma_bound(ts=[0.2])
    row = rep.detail[0]
    assert row["gamma"] == gamma_of_t(0.2)
    # at lambda = 1 the gap is 1 - exp(-t)
    assert rep.max_gap <= 1.0
    lam = _grid_open(0.0, 1.0, 1e-4)
    assert_allclose(
        rep.max_gap,
        float(np.max(lam ** row["gamma"] - np.exp(-0.2 / lam))),
        rtol=1e-12,
    )


def test_verify_combined_bound():
    rep = verify_combined_bound()
    assert rep.passed and rep.certified
    assert rep.min_gap >= -1e-12
    for row in rep.detail:
        assert_allclose(alpha_of_eta(row["eta"]) / row["eta"], row["t"], rtol=1e-10)


def test_ode_residual_maxexp_pointwise():
    assert ode_residual_maxexp(0.5, 0.2) < 1e-8
    with pytest.raises(DomainError):
        ode_residual_maxexp(0.0, 0.2)
    with pytest.raises(DomainError):
        ode_residual_maxexp(1.0, 0.2)


def test_verify_maxexp_ode_grid():
    rep = verify_maxexp_ode()
    assert rep["pass"]
    assert rep["max_residual"] < 1e-8
    assert rep["tolerance"] == 1e-8
    worst = rep["worst"]
    assert 0.05 <= worst["lambda"] <= 0.95 and 0.05 <= worst["t"] <= 0.35


def test_verify_maxexp_ode_detuned_fails():
    rep = verify_maxexp_ode(coeff_scale=2.0)
    assert not rep["pass"]
    assert rep["max_residual"] > 1e-3


def test_saturation_monotone_in_lambda():
    t = 0.2
    eta = eta_of_t_exact(t)
    lam = np.linspace(0.05, 0.95, 19)
    psi = 1.0 - (1.0 - lam) ** eta
    assert np.all(np.diff(psi) > 0)


def test_ode_residual_gamma_analytic():
    assert ode_residual_gamma(1.0, 0.5) == 0.0
    assert ode_residual_gamma(2.0, 0.3) < 1e-12
    rep = verify_gamma_ode()
    assert rep["pass"]
    assert rep["max_residual"] < 1e-12
    rep = verify_gamma_ode(coeff_scale=2.0)
    assert not rep["pass"]


def test_pushforward_constant_spectrum():
    edges, masses = pushforward_spectrum(np.full(100, 1.0), PnSpec("maxexp", 8))
    assert_allclose(edges, np.linspace(0.0, 1.0, 11))
    assert masses[-1] == 1.0
    assert masses[:-1].sum() == 0.0


def test_pushforward_identity_keeps_histogram():
    rng = np.random.default_rng(48)
    s = rng.uniform(0.01, 1.0, size=5000)
    edges, masses = pushforward_spectrum(s, PnSpec("gamma", 1.0))
    ref, _ = np.histogram(s, bins=np.linspace(0.0, 1.0, 11))
    assert_allclose(masses, ref / 5000.0, atol=1e-12)


def test_pushforward_validation():
    with pytest.raises(InputError):
        pushforward_spectrum(np.array([]), PnSpec("maxexp", 4))
    with pytest.raises(DomainError):
        pushforward_spectrum(np.array([0.5, 1.2]), PnSpec("maxexp", 4))


def test_pushforward_bins_are_capped_before_the_edges_exist():
    """One bin beyond MAX_GRID is refused before its 10^7 edges (80 MB) are made."""
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=f"^bins must be at most {MAX_GRID}, got {MAX_GRID + 1}$"):
            pushforward_spectrum(np.full(100, 0.5), PnSpec("maxexp", 8), bins=MAX_GRID + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_pushforward_beta_spectrum_whitens():
    rng = np.random.default_rng(42)
    s = rng.beta(2.0, 5.0, size=100_000)
    s = s / s.max()
    _, m_sat = pushforward_spectrum(s, PnSpec("maxexp", 64))
    _, m_dec = pushforward_spectrum(s, PnSpec("hdp", t_of_eta(64)))
    assert m_sat[-1] >= 0.8
    # fixed-seed regression values for the two top bins
    assert_allclose(m_sat[-1], 0.98460, atol=1e-9)
    assert_allclose(m_dec[-1], 0.92234, atol=1e-9)


def test_detector_curve_window_and_endpoints():
    thetas = np.linspace(0.0, math.pi / 2.0, 10001)
    curve = detector_curve(thetas, eta=20.0, kappa=2.0)
    assert curve.shape == (10001, 2)
    assert abs(curve[0, 1]) <= 1e-12
    assert abs(curve[-1, 1]) <= 1e-12
    inside = (curve[:, 0] >= 0.15) & (curve[:, 0] <= math.pi / 2.0 - 0.15)
    assert curve[inside, 1].min() >= 0.99
    # independent closed form: 1 - (1 - sin(2 theta))^eta
    ref = 1.0 - (1.0 - np.sin(2.0 * thetas)) ** 20
    assert_allclose(curve[:, 1], ref, atol=1e-12)


def test_detector_curve_validation():
    with pytest.raises(DomainError):
        detector_curve(np.array([-0.1, 0.5]), eta=20.0)
    with pytest.raises(DomainError):
        detector_curve(np.array([0.5]), eta=0.5)
    with pytest.warns(RuntimeWarning):
        # an oversized scale pushes the event probability past 1; it clips
        curve = detector_curve(np.array([math.pi / 4.0]), eta=4.0, kappa=3.0)
    assert curve[0, 1] == 1.0


@pytest.mark.parametrize("sweep, kwargs", [
    (verify_maxexp_bound, {"etas": []}),
    (verify_gamma_bound, {"ts": []}),
    (verify_combined_bound, {"ts": ()}),
    (verify_maxexp_ode, {"lams": []}),
    (verify_maxexp_ode, {"ts": np.array([])}),
    (verify_gamma_ode, {"lam_ls": []}),
], ids=["maxexp_bound", "gamma_bound", "combined_bound", "maxexp_ode_lams",
        "maxexp_ode_ts", "gamma_ode"])
def test_empty_grid_is_an_input_error(sweep, kwargs):
    # an empty sweep checks nothing, so it must not certify
    with pytest.raises(InputError, match="empty"):
        sweep(**kwargs)


def test_ode_residuals_reject_non_finite_scale():
    with pytest.raises(DomainError, match="coefficient scale"):
        ode_residual_maxexp(0.5, 0.1, coeff_scale=math.nan)
    with pytest.raises(DomainError, match="coefficient scale"):
        ode_residual_gamma(2.0, 0.1, coeff_scale=math.inf)
    with pytest.raises(DomainError):
        verify_gamma_ode(coeff_scale=math.nan)


def test_report_json_schema():
    rep = verify_gamma_bound(ts=[0.1])
    doc = json.loads(report_json(rep))
    assert set(doc) == {
        "check", "grid", "pass", "certified", "min_gap", "max_gap", "touch_points",
    }
    assert doc["check"] == "gamma_bound"
    assert doc["pass"] is True


def test_grid_open_endpoints():
    lam = _grid_open(0.0, 1.0, 1e-3)
    assert lam[0] > 0.0
    assert lam[-1] == 1.0
    assert lam.min() > 0.0
    lam = _grid_open(0.3954, 1.0, 1e-4)
    assert np.all(lam > 0.3954)


def test_detector_curve_matches_reference_exactly():
    thetas = np.linspace(0.0, math.pi / 2, 157)
    for eta in (1.0, 4.0, 20.0):
        for kappa in (0.5, 1.0, 2.0):
            p = kappa * np.sin(thetas) * np.cos(thetas)
            ref = 1.0 - (1.0 - np.clip(p, 0.0, 1.0)) ** eta
            curve = detector_curve(thetas, eta, kappa)
            assert np.array_equal(curve[:, 1], ref)


def test_sweep_gaps_match_reference_exactly():
    # the bound sweeps evaluate the saturation, power and decay profiles as
    # 1-(1-lam)^eta, lam^gamma and exp(-t/lam)
    from hotpool.analysis import _combined_curve, _gamma_curve, _maxexp_curve

    lam, gap, _ = _maxexp_curve(3.0, 1.0, 1e-3)
    t = t_of_eta(3.0)
    assert np.array_equal(gap, 1.0 - (1.0 - lam) ** 3.0 - np.exp(-t / lam))
    lam, gap, _ = _gamma_curve(0.2, 1.0, 1e-3)
    assert np.array_equal(gap, lam ** gamma_of_t(0.2) - np.exp(-0.2 / lam))
    lam, gap, row = _combined_curve(0.1, 1.0, 1e-3)
    envelope = np.minimum(1.0 - (1.0 - lam) ** row["eta"], lam ** row["gamma"])
    assert np.array_equal(gap, envelope - np.exp(-0.1 / lam))


def _loop_local_minima(lam, gap):
    """Reference: every touching local minimum, keeping only the first of a run."""
    if gap.size < 3:
        return []
    mid = gap[1:-1]
    hit = (mid <= gap[:-2]) & (mid <= gap[2:]) & (mid <= TOUCH_TOL)
    out = []
    prev = None
    for i in np.nonzero(hit)[0] + 1:
        if prev is not None and i == prev + 1:
            prev = i
            continue
        out.append((float(lam[i]), float(gap[i])))
        prev = i
    return out


# gaps from a few levels, so runs of equal minima, plateaus and edges are common
@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([-1e-3, 0.0, 5e-7, 1e-6, 2e-6, 0.5]), max_size=40))
def test_local_minima_matches_loop_reference(values):
    gap = np.array(values, dtype=np.float64)
    lam = np.linspace(0.0, 1.0, gap.size)
    assert _local_minima(lam, gap) == _loop_local_minima(lam, gap)

"""Smoothness diagnostics: inverse moments, small-ball fits, scans."""

import math

import numpy as np
import pytest

from lentparticle import scenarios
from lentparticle.diagnostics import (ellipticity_scan, hypothesis_report,
                                      inverse_moment, small_ball_fit)
from lentparticle.ensemble import simple_ensemble
from lentparticle.measures import small_ball_params
from lentparticle.rng import RngStream


# ---------------------------------------------------------------------------
# inverse moments
# ---------------------------------------------------------------------------

def test_inverse_moment_deterministic():
    res = inverse_moment(np.full(100, 2.0), 3)
    assert res.estimate == pytest.approx(0.125)
    assert res.stable


def test_inverse_moment_zero_sample():
    res = inverse_moment(np.array([0.5, 0.0, 1.0]), 2)
    assert res.verdict == "infinite moment"
    assert math.isinf(res.estimate)


def test_inverse_moment_antitone_in_p(rng):
    samples = rng.uniform(0.1, 1.0, 1000)
    e1 = inverse_moment(samples, 1).estimate
    e2 = inverse_moment(samples, 2).estimate
    e3 = inverse_moment(samples, 3).estimate
    assert e1 <= e2 <= e3


def test_inverse_moment_jump_functional_stable_low_orders():
    # V = sum of squared marks over each path; low inverse moments look
    # finite and stable, in line with the Laplace-exponent decay
    sc = scenarios.build("compound")
    ens = simple_ensemble(sc, 100_000, RngStream(seed=13), order=1)
    v = ens.gamma[ens.gamma > 0]       # xi = u^2, unit jump slope
    for p in (1, 2):
        res = inverse_moment(v, p)
        assert res.stable, f"p={p} flagged unstable"
    # higher orders exist analytically but their plain Monte Carlo
    # estimators are variance-dominated; the flag must not overclaim
    assert inverse_moment(v, 3).estimate < math.inf


def test_inverse_moment_atom_at_zero():
    sc = scenarios.build("compound", trunc=0.3)
    ens = simple_ensemble(sc, 2_000, RngStream(seed=14), order=1)
    res = inverse_moment(ens.gamma, 2)
    assert res.verdict == "infinite moment"
    assert res.n_zero > 0


# ---------------------------------------------------------------------------
# small-ball fit
# ---------------------------------------------------------------------------

def _exact_law_samples(beta, r2, n, seed):
    """Inverse-CDF draws from P(V <= v) = exp(r2 * v^-beta)."""
    u = np.random.default_rng(seed).random(n)
    return (np.log(u) / r2) ** (-1.0 / beta)


def test_small_ball_fitter_recovery():
    beta, r2 = 1.5, -2.0
    v = _exact_law_samples(beta, r2, 200_000, seed=1)
    grid = np.linspace(*np.percentile(v, [0.02, 5.0]), 14)
    fit = small_ball_fit(v, grid)
    assert fit.regime == "tauberian"
    assert fit.beta == pytest.approx(beta, rel=0.05)
    assert fit.r2 == pytest.approx(r2, rel=0.05)


def test_small_ball_probabilities_monotone():
    v = _exact_law_samples(1.0, -3.0, 50_000, seed=2)
    grid = np.linspace(*np.percentile(v, [0.1, 10.0]), 10)
    fit = small_ball_fit(v, grid)
    assert np.all(np.diff(fit.log_p) >= 0)


def test_small_ball_exponential_flagged():
    v = np.random.default_rng(3).exponential(size=100_000)
    fit = small_ball_fit(v, np.linspace(0.001, 0.01, 10))
    assert fit.regime == "non-tauberian"


def test_small_ball_thin_grid_shrunk():
    v = _exact_law_samples(1.0, -3.0, 20_000, seed=4)
    lo = float(v.min()) * 0.2          # far below every sample
    grid = np.linspace(lo, float(np.percentile(v, 10.0)), 12)
    fit = small_ball_fit(v, grid)
    assert fit.warnings and "dropped" in fit.warnings[0]
    assert len(fit.eps_grid) < 12


def test_small_ball_too_few_points():
    v = _exact_law_samples(1.0, -3.0, 1_000, seed=5)
    with pytest.raises(ValueError):
        small_ball_fit(v, np.full(6, float(v.min()) * 0.1))


def test_cross_module_consistency():
    # Monte Carlo fit of the linear jump functional against the constants
    # implied by the Laplace asymptotics (alpha = 1/2 gives beta 1, -pi)
    from lentparticle.cli import diagnostics_stable_samples
    v = diagnostics_stable_samples(100_000, 10, 1.0)
    fit = small_ball_fit(v, np.linspace(0.45, 1.1, 12))
    beta, r2 = small_ball_params(0.5, -2.0 * math.sqrt(math.pi), 1.0)
    assert abs(fit.beta - beta) <= 0.2 * beta
    assert abs(fit.r2 - r2) <= 0.2 * abs(r2)


# ---------------------------------------------------------------------------
# ellipticity and hypothesis scans
# ---------------------------------------------------------------------------

def test_ellipticity_unit_ratio():
    sc = scenarios.build("compound")   # psi equals the form weight exactly
    probes = [(0.1, np.array([0.0]), u) for u in np.linspace(0.05, 0.95, 10)]
    rep = ellipticity_scan(sc, probes)
    assert rep.passed
    assert rep.min_ratio == pytest.approx(1.0, abs=1e-9)
    assert rep.argmin is not None and rep.margin == pytest.approx(0.0, abs=1e-9)


def test_ellipticity_requires_declared_bound():
    sc = scenarios.build("subordination-linear")
    with pytest.raises(ValueError):
        ellipticity_scan(sc, [(0.1, np.zeros(2), 0.5)])


def test_hypothesis_report_catalog_passes():
    rep = hypothesis_report(scenarios.build("compound"))
    assert rep.passed()
    names = [i.name for i in rep.items]
    assert any("invertibility" in n for n in names)


def test_hypothesis_probe_scan_matches_probe_loop():
    # the scan runs every probe on the coefficients' lane axis; a loop over
    # the same probes finds the same worst determinant, probe and |c|
    sc = scenarios.build("compound-linear")
    rng = np.random.default_rng(0)
    ss = rng.uniform(0, sc.horizon, 200)
    xs = sc.x0 + rng.uniform(-2, 2, (200, 1))
    us = rng.uniform(sc.measure.trunc, sc.measure.ymax, 200)
    probes = list(zip(ss, xs, us))
    dets = [abs(np.linalg.det(np.eye(1) + sc.dx_c(*p).reshape(1, 1))) for p in probes]
    i = int(np.argmin(dets))
    worst = (float(ss[i]), (float(xs[i, 0]),), float(us[i]))
    jet = max(float(np.max(np.abs(sc.c(*p)))) for p in probes)
    details = {item.name: item.detail for item in hypothesis_report(sc).items}
    assert details["state-Jacobian invertibility (I + D_x c nonsingular)"] == (
        f"min |det| over probes = {dets[i]:.3e} at {worst}")
    assert details["coefficient boundedness over probe box"] == f"max |c| = {jet:.3g}"


def test_hypothesis_report_fails_infinite_mass():
    # without a cutoff the power law has infinite mass: the item fails with
    # the reason, and every other item is still reported
    rep = hypothesis_report(scenarios.build("compound", trunc=0.0))
    item = rep.items[0]
    assert item.name == "truncated measure has finite mass"
    assert item.status == "fail" and "infinite mass" in item.detail
    assert rep.hard_failures == [item]
    assert [i.name for i in rep.items] == [
        i.name for i in hypothesis_report(scenarios.build("compound")).items]


def test_hypothesis_report_flags_singular_jacobian():
    from dataclasses import replace
    sc = scenarios.build("compound")
    bad = replace(sc, c=lambda s, x, u: -x, dx_c=lambda s, x, u: np.array([[-1.0]]))
    rep = hypothesis_report(bad)
    assert not rep.passed()
    assert any("invertibility" in i.name for i in rep.hard_failures)


def test_hypothesis_report_honesty_items():
    rep = hypothesis_report(scenarios.build("compound"))
    statuses = {i.status for i in rep.items}
    assert "not-checkable (analytic)" in statuses

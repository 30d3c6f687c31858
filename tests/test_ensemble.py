"""Batch mark sampling: the vectorised Philox + Poisson route against the
per-path numpy generators it reproduces bit for bit."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from lentparticle import ensemble, scenarios
from lentparticle.measures import total_mass
from lentparticle.prm import sample_path
from lentparticle.rng import (MASK64, TAG_MARK, TAG_RHO, RngStream, _M0, _M1, _mulhilo,
                              _philox4x64, philox_random)


def per_path_mark_sets(scenario, n_paths, stream, path_offset=0):
    """The oracle: `prm.sample_path`, whose numpy generators draw each
    path's count and marks one path at a time."""
    paths = [sample_path(scenario.measure, scenario.horizon,
                         stream.child(path=path_offset + i + 1)) for i in range(n_paths)]
    counts = np.array([p.n_jumps for p in paths], dtype=np.int64)
    return counts, np.concatenate([p.marks for p in paths])


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
    sc = scenarios.build("compound", trunc=1.0 - 2.0 ** -53)    # mass rounds to 0
    assert total_mass(sc.measure) == 0.0
    counts, marks = assert_same_draws(sc, 1_000, RngStream(seed=1))
    assert not counts.any() and marks.shape == (0,)


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


def test_mulhilo_matches_big_int_products():
    edges = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, MASK64 - 1, MASK64]
    words = np.concatenate([np.array(edges, dtype=np.uint64),
                            np.random.default_rng(3).integers(0, MASK64, 200, dtype=np.uint64,
                                                              endpoint=True)])
    hi, lo, *scratch = (np.empty(words.shape, dtype=np.uint64) for _ in range(5))
    for m in (_M0, _M1, 0, 1, 2**32, MASK64):
        _mulhilo(words, m, hi, lo, scratch)
        products = [a * m for a in words.tolist()]
        assert hi.tolist() == [p >> 64 for p in products]
        assert lo.tolist() == [p & MASK64 for p in products]


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
# mark blocks of a chunk
# ---------------------------------------------------------------------------

def whole_chunk_ensemble(scenario, n_paths, stream, path_offset, order):
    """The unblocked formulation: one table for the whole chunk."""
    counts, marks = ensemble.sample_mark_sets(scenario, n_paths, stream, path_offset)
    tab = scenario.simple.table(marks, counts, scenario.horizon, scenario.measure,
                                scenario.compensated, order)
    return ensemble.SimpleEnsemble(
        x=scenario.x0[0] + tab["X"], n_jumps=counts, gamma=tab["gamma"], a=tab["A"],
        g2=tab["G2"], xa=tab.get("XA"), xg2=tab.get("XG2"))


@pytest.mark.parametrize("horizon", [1.0, 1e-6])
@pytest.mark.parametrize("weight,compensated", [("bump", False), ("power", True)])
def test_blocks_match_whole_chunk(weight, compensated, horizon):
    # ~2.5 blocks of marks plus paths, at a path offset off any block grid;
    # at horizon 1e-6 (lam ~ 2e-5) whole blocks have no jump
    sc = scenarios.build("compound", weight=weight, compensated=compensated,
                         horizon=horizon)
    size = ensemble.BLOCK_MARKS
    n = int(2.5 * size / (1 + sc.horizon * total_mass(sc.measure)))
    offset = size - 5
    stream = RngStream(seed=42)
    full = whole_chunk_ensemble(sc, n, stream, offset, 2)
    for order in (1, 2):
        got = ensemble.simple_ensemble(sc, n, stream, order=order, path_offset=offset)
        ref = whole_chunk_ensemble(sc, n, stream, offset, order)
        # an order-1 column is the order-2 table's, bit for bit; xa and
        # xg2, which only Z2 reads, are absent at order 1
        for f in dataclasses.fields(ensemble.SimpleEnsemble):
            a, b, c = (getattr(e, f.name) for e in (got, ref, full))
            if order == 1 and f.name in ("xa", "xg2"):
                assert a is None and b is None, f.name
                continue
            assert a.dtype == b.dtype == c.dtype, (order, f.name)
            assert np.array_equal(a, b) and np.array_equal(a, c), (order, f.name)

    # the blocks tile the paths, each of at most BLOCK_MARKS marks plus
    # paths, and only the last is short
    counts = ref.n_jumps
    before = np.concatenate([[0], np.cumsum(counts)])     # marks before each path
    blocks = list(ensemble._blocks(counts))
    assert len(blocks) >= 3
    assert [p.start for p in blocks] == [0] + [p.stop for p in blocks[:-1]]
    assert blocks[-1].stop == n
    entries = []
    for p in blocks:
        assert p.start < p.stop
        entries.append(before[p.stop] - before[p.start] + p.stop - p.start)
    assert max(entries) <= size and entries[-1] < min(entries[:-1])
    jumps = np.array([counts[p].sum() for p in blocks])
    if horizon < 1:
        assert (jumps == 0).any()
    else:
        assert (jumps > 0).all()


def test_block_holds_one_path_with_more_marks():
    counts = np.array([3, ensemble.BLOCK_MARKS + 7, 0, 2])
    assert list(ensemble._blocks(counts)) == [slice(0, 1), slice(1, 2), slice(2, 4)]


def test_chunk_temporaries_stay_block_sized():
    # beyond the chunk's marks and its result arrays (counted twice, for
    # the columns the table fills and the fields built from them), one
    # 25 000-path chunk holds under 16 x 128 KiB of temporaries at a time
    sc = scenarios.build("compound")
    stream = RngStream(seed=42)
    ensemble.simple_ensemble(sc, 10, stream, order=1)        # memoised quadratures
    tracemalloc.start()
    try:
        ens = ensemble.simple_ensemble(sc, 25_000, stream, order=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = [getattr(ens, f.name) for f in dataclasses.fields(ens)]
    results = sum(c.nbytes for c in columns if c is not None)
    marks = 8 * int(ens.n_jumps.sum())
    assert peak - marks - 2 * results < 16 * 128 * 1024


def test_merge_keeps_the_columns_its_parts_share():
    sc = scenarios.build("compound", weight="bump")
    stream = RngStream(seed=5)
    for order in (1, 2):
        parts = [ensemble.simple_ensemble(sc, 300, stream, order=order, path_offset=start)
                 for start in (0, 300)]
        merged = ensemble.merge_ensembles(parts)
        whole = ensemble.simple_ensemble(sc, 600, stream, order=order)
        for f in dataclasses.fields(ensemble.SimpleEnsemble):
            a, b = getattr(merged, f.name), getattr(whole, f.name)
            if order == 1 and f.name in ("xa", "xg2"):
                assert a is None and b is None, f.name
            else:
                assert a.dtype == b.dtype and np.array_equal(a, b), f.name
    # an order-1 part makes the merge order 1
    mixed = ensemble.merge_ensembles([
        ensemble.simple_ensemble(sc, 300, stream, order=2),
        ensemble.simple_ensemble(sc, 300, stream, order=1, path_offset=300)])
    assert mixed.xa is None and mixed.xg2 is None and len(mixed) == 600


@pytest.mark.parametrize("order", [0, 3, None])
def test_table_order_must_be_1_or_2(order):
    sc = scenarios.build("compound")
    with pytest.raises(ValueError, match="order must be 1 or 2"):
        ensemble.simple_ensemble(sc, 10, RngStream(seed=1), order=order)
    counts, marks = ensemble.sample_mark_sets(sc, 10, RngStream(seed=1))
    with pytest.raises(ValueError, match="order must be 1 or 2"):
        sc.simple.table(marks, counts, sc.horizon, sc.measure, False, order)

"""Random streams and marked-path sampling: addressing, laws, determinism."""

import math
import statistics
import warnings

import numpy as np
import pytest
from scipy.stats import kstest

from lentparticle.measures import power_law
from lentparticle.prm import (GAUSSIAN, RADEMACHER, attach_rho_marks, nested_brownian,
                              rho_blocks, sample_path)
from lentparticle.rng import (TAG_MARK, TAG_NESTED, TAG_NOISE, TAG_RHO, TAG_TIME, RngStream,
                              normal_quantile, seek)

SPEC = power_law(0.5, ymax=1.0, trunc=0.01)   # mass 18


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


@pytest.mark.parametrize("seed", [0, 42, -4, 2**63, 2**64 - 1])
def test_seek_draws_what_generator_draws(seed):
    gen = RngStream(seed=1).generator()
    for path in (0, 1, 2, 9):
        for jump in (0, 1, 5):
            for replica in (0, 1, 3):
                for tag in (TAG_MARK, TAG_NESTED, TAG_NOISE):
                    stream = RngStream(seed, path, jump, replica, tag)
                    # leave gen mid-block and holding half a 64-bit word
                    gen.random(3)
                    gen.integers(0, 7, dtype=np.int32)
                    assert np.array_equal(seek(gen, stream).standard_normal((3, 2)),
                                          stream.generator().standard_normal((3, 2)))
                    assert np.array_equal(seek(gen, stream).uniform(0.0, 2 * math.pi, 5),
                                          stream.generator().uniform(0.0, 2 * math.pi, 5))
                    assert np.array_equal(seek(gen, stream).integers(0, 2, (3, 5)),
                                          stream.generator().integers(0, 2, (3, 5)))
                    other = stream.child(path=path + 7)
                    assert np.array_equal(seek(gen, other, path).standard_normal(4),
                                          stream.generator().standard_normal(4))


def test_child_overrides_coordinates():
    s = RngStream(seed=1).child(path=5, jump=2, tag=TAG_RHO)
    assert (s.path, s.jump, s.tag) == (5, 2, TAG_RHO)
    assert s.seed == 1


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
    p = sample_path(power_law(0.5, ymax=1.0, trunc=2.0), 1.0, RngStream(seed=4))
    assert p.n_jumps == 0


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
    a = attach_rho_marks(p, 2, RngStream(seed=30))
    b = attach_rho_marks(p, 2, RngStream(seed=30))
    np.testing.assert_array_equal(a.rho_blocks, b.rho_blocks)
    assert a.rho_blocks.shape == (2, p.n_jumps, 1)


def test_rho_orders_uncorrelated():
    vals = []
    for i in range(2000):
        p = sample_path(SPEC, 1.0, RngStream(seed=31, path=i + 1))
        e = attach_rho_marks(p, 2, RngStream(seed=32, path=i + 1))
        if p.n_jumps:
            vals.append(np.column_stack([e.rho_blocks[0, :, 0], e.rho_blocks[1, :, 0]]))
    vals = np.vstack(vals)[:10_000]
    corr = np.corrcoef(vals.T)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(len(vals))


def test_rho_marginal_gaussian():
    p = sample_path(SPEC, 10.0, RngStream(seed=33))
    e = attach_rho_marks(p, 1, RngStream(seed=34), block_dim=64)
    stat = kstest(e.rho_blocks.ravel(), "norm").statistic
    assert stat < 1.63 / math.sqrt(e.rho_blocks.size)


def test_rho_rademacher_values():
    p = sample_path(SPEC, 1.0, RngStream(seed=35))
    e = attach_rho_marks(p, 1, RngStream(seed=36), basis=RADEMACHER)
    assert set(np.unique(e.rho_blocks)) <= {-1.0, 1.0}


@pytest.mark.parametrize("basis", [GAUSSIAN, RADEMACHER])
def test_rho_replicas_match_attach_rho_marks(basis):
    # one re-addressed generator draws each replica what its own stream draws
    p = sample_path(SPEC, 1.0, RngStream(seed=37, path=2))
    stream = RngStream(seed=38, path=2)
    n, shape = 6, (p.n_jumps, 2)
    blocks = rho_blocks(stream, range(1, n + 1), shape, basis)
    assert blocks.shape == (n, *shape)
    for r in range(1, n + 1):
        one = attach_rho_marks(p, 1, stream.child(replica=r), basis=basis, block_dim=2)
        np.testing.assert_array_equal(blocks[r - 1], one.rho_blocks[0])
        gen = stream.child(replica=r, tag=TAG_RHO).generator()
        fresh = (gen.standard_normal(shape) if basis == GAUSSIAN
                 else gen.integers(0, 2, size=shape) * 2.0 - 1.0)
        np.testing.assert_array_equal(blocks[r - 1], fresh)
    with pytest.raises(ValueError, match="unknown rho basis"):
        rho_blocks(stream, [1], shape, "uniform")


def test_rho_order_validation():
    p = sample_path(SPEC, 1.0, RngStream(seed=35))
    with pytest.raises(ValueError):
        attach_rho_marks(p, 0, RngStream(seed=1))


# ---------------------------------------------------------------------------
# nested Brownian marks
# ---------------------------------------------------------------------------

def test_nested_brownian_terminal_variance():
    y = 0.7
    terms = []
    for i in range(10_000):
        p = sample_path(SPEC, 1.0, RngStream(seed=40, path=i + 1))
        if p.n_jumps == 0:
            continue
        incs = nested_brownian(p, 0, y, step=0.1)
        terms.append(float(incs.sum()))
    terms = np.array(terms)
    se = math.sqrt(2.0 / len(terms)) * y   # SE of the sample variance
    assert abs(terms.var(ddof=1) - y) < 3 * se


def test_nested_brownian_zero_duration():
    p = sample_path(SPEC, 1.0, RngStream(seed=41))
    assert nested_brownian(p, 0, 0.0, step=0.1).shape == (0, 1)


def test_nested_brownian_step_widths():
    # last increment is shortened so the widths cover [0, y] exactly
    p = sample_path(SPEC, 1.0, RngStream(seed=41))
    incs = nested_brownian(p, 0, 0.25, step=0.1)
    assert incs.shape == (3, 1)
    again = nested_brownian(p, 0, 0.25, step=0.1)
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

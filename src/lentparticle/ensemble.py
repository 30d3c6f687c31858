"""Vectorised many-path estimator engine for scalar mark-sum scenarios.

For scenarios whose state is x0 plus a sum of a function of the marks
(no state feedback), whole ensembles reduce to per-path segment sums over
one concatenated mark array (`SimpleJets.table`, which `sde.integrate`
runs for a single path).  This is what makes 1e5-path weight and density
runs take seconds instead of minutes.

Randomness stays path-addressed: path i draws its jump count and marks
from the sub-streams of path index i, so an ensemble computed in chunks
by several workers is bit-identical to a single-worker run.  A chunk's
counts are drawn first, by a vectorised port of numpy's Poisson sampler
on `rng.philox_random`, in passes of at most POISSON_PASS paths.  Its
marks are then drawn, and its table computed, in blocks of whole paths
of about BLOCK_MARKS marks, so that the temporaries stay in cache and on
the heap; a block's marks are dropped once its table is computed, so a
chunk holds one block of marks plus its per-path columns, however many
paths it has.  Every draw is bit for bit that of one numpy generator per
path and purpose, whatever the passes and blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .measures import mark_quantile, total_mass
from .rng import TAG_MARK, TAG_TIME, RngStream, philox_random
from .sde import TABLE_COLUMNS, Scenario

# Marks plus paths per block of a chunk (a path counts one more than its
# marks, for its entry in the per-path sums).  A float64 temporary of a
# block is then under 192 KiB, and the order-1 table that `run` asks for
# holds 7 of them at once (10 at order 2), ~1.3 MB: on a 25 000-path chunk
# that stays under glibc's heap trim threshold (twice the largest chunk it
# has unmapped, there the Poisson pass's 0.8 MB draws).  At 32 Ki it does
# not, and every block hands its temporaries back and page-faults them in
# again.  Swept over 12, 16, 24 and 32 Ki on `compound` at both orders
# (CHANGES.md has the figures): larger blocks call `philox_random`, whose
# fixed cost is ~0.25 ms a call, fewer times, and 24 Ki is the largest
# below the threshold.
BLOCK_MARKS = 24_576

# Paths per pass of the Poisson sampler.  A pass's temporaries (the Philox
# words and the sampler's per-path arrays) peak at ~200 B a path, so this
# bounds them at ~6 MiB, whatever the chunk.  A 25 000-path chunk
# still draws its counts in one pass: its draws are what lifts glibc's mmap
# threshold above the blocks' temporaries (see BLOCK_MARKS), and split at
# 8 Ki paths the chunk ran 30 % slower, page-faulting every block in again.
POISSON_PASS = 32_768

# numpy's log is within a few ulp of libm's, and every log of the PTRS test
# is under 80 in magnitude, so its two evaluations differ by well under
# 1e-12: a test whose sides are further apart than this decides the same
# with either log.
PTRS_GUARD = 1e-9


@dataclass
class SimpleEnsemble:
    """Per-path functionals of a scalar mark-sum scenario, tabulated for an
    IBP weight order (`SimpleJets.table`).  Every ensemble carries the
    order-1 columns, which Z1 reads; xa and xg2, which only Z2 reads, are
    there at order 2 and None at order 1.  n_jumps is None on `run`'s
    chunks, which read no jump count."""

    x: np.ndarray          # state at the horizon
    n_jumps: np.ndarray | None
    gamma: np.ndarray      # covariance N(xi h'^2)
    a: np.ndarray          # generator path, compensated sum of a[h]
    g2: np.ndarray         # bracket of X with gamma
    xa: np.ndarray | None = None      # bracket of X with a (order 2)
    xg2: np.ndarray | None = None     # bracket of X with g2 (order 2)

    def __len__(self):
        return len(self.x)


def mark_blocks(scenario: Scenario, n_paths: int, stream: RngStream, path_offset: int = 0):
    """Counts for paths [offset, offset + n), and an iterator over the
    chunk's blocks (`_blocks`): (path slice, the marks of those paths
    concatenated).

    Path i is addressed as p = path_offset + i + 1.  Its count and marks
    are those of `prm.sample_path` at `stream.child(path=p)`, bit for bit:
    the count is what `stream.child(path=p, tag=TAG_TIME).generator()
    .poisson(lam)` draws, and the marks are `mark_quantile` of the first
    `count` uniforms of `stream.child(path=p, tag=TAG_MARK)`.  The counts
    are drawn before this returns; a block's marks are drawn when the
    iterator reaches it, so a caller that drops them holds one block's.
    """
    spec = scenario.measure
    lam = scenario.horizon * total_mass(spec)
    paths = np.arange(path_offset + 1, path_offset + n_paths + 1, dtype=np.uint64)
    counts = _poisson(stream.child(tag=TAG_TIME), paths, lam)
    return counts, _block_marks(spec, stream.child(tag=TAG_MARK), paths, counts)


def _block_marks(spec, stream: RngStream, paths: np.ndarray, counts: np.ndarray):
    """(path slice, marks) of each block, the marks drawn from the mark stream."""
    for p, m in _blocks(counts):
        if m.start == m.stop:
            yield p, np.empty(0)
        else:
            yield p, mark_quantile(spec, _leading_draws(stream, paths[p], counts[p]))


def sample_mark_sets(scenario: Scenario, n_paths: int, stream: RngStream,
                     path_offset: int = 0):
    """Counts and concatenated marks for paths [offset, offset + n): the
    whole-chunk form of `mark_blocks`, whose blocks' marks it joins."""
    counts, blocks = mark_blocks(scenario, n_paths, stream, path_offset)
    return counts, np.concatenate([np.empty(0)] + [marks for _, marks in blocks])


def _blocks(counts: np.ndarray):
    """(path slice, mark slice) of each block of a chunk: runs of whole
    paths, each of at most BLOCK_MARKS marks plus paths, or of one path
    that has more."""
    size = np.zeros(len(counts) + 1, dtype=np.int64)
    np.add(counts, 1, out=size[1:])
    np.cumsum(size[1:], out=size[1:])           # marks plus paths before each path
    lo = 0
    while lo < len(counts):
        hi = max(lo + 1, int(np.searchsorted(size, size[lo] + BLOCK_MARKS, side="right")) - 1)
        yield slice(lo, hi), slice(int(size[lo]) - lo, int(size[hi]) - hi)
        lo = hi


def _leading_draws(stream: RngStream, paths: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The first lengths[i] doubles of `stream` at paths[i], concatenated."""
    n_blocks = (lengths + 3) // 4
    owner = np.repeat(np.arange(len(paths)), n_blocks)
    block = np.arange(owner.size) - np.repeat(np.cumsum(n_blocks) - n_blocks, n_blocks)
    u = philox_random(stream, paths[owner], block)
    return u[4 * block[:, None] + np.arange(4) < lengths[owner, None]]


# numpy's random_poisson (numpy/random/src/distributions/distributions.c),
# vectorised over paths.  Scalars and libm logs follow the C expressions
# term by term and in the same order, so every count is numpy's.

def _poisson(stream: RngStream, paths: np.ndarray, lam: float) -> np.ndarray:
    """Poisson(lam) counts, each the first draw of `stream` at its path,
    drawn in passes of at most POISSON_PASS paths."""
    if not lam >= 0:
        raise ValueError(f"Poisson mean must be >= 0, got {lam}")
    if lam == 0:
        return np.zeros(len(paths), dtype=np.int64)
    sampler = _poisson_ptrs if lam >= 10 else _poisson_mult
    counts = np.empty(len(paths), dtype=np.int64)
    for lo in range(0, len(paths), POISSON_PASS):
        sampler(stream, paths[lo:lo + POISSON_PASS], lam, counts[lo:lo + POISSON_PASS])
    return counts


def _poisson_mult(stream, paths, lam, counts):
    """Multiplication method: count uniforms until their product <= e^-lam.
    The counts go into `counts`, as `_poisson_ptrs`'s do."""
    enlam = math.exp(-lam)
    todo = np.arange(len(paths))
    x = np.zeros(len(paths), dtype=np.int64)
    prod = np.ones(len(paths))
    block = 0
    while todo.size:
        u = philox_random(stream, paths[todo], block)
        for w in range(4):
            prod *= u[:, w]
            more = prod > enlam
            x += more
            counts[todo[~more]] = x[~more]
            todo, x, prod, u = todo[more], x[more], prod[more], u[more]
        block += 1


def _poisson_ptrs(stream, paths, lam, counts):
    """Hörmann's PTRS transformed rejection, two uniforms per attempt."""
    slam = math.sqrt(lam)
    loglam = math.log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2)
    log_invalpha = math.log(invalpha)
    todo = np.arange(len(paths))
    block = 0
    while todo.size:
        u = philox_random(stream, paths[todo], block)
        for w in (0, 2):
            U = u[:, w] - 0.5
            V = u[:, w + 1]
            us = 0.5 - np.abs(U)
            with np.errstate(divide="ignore", invalid="ignore"):
                k = np.floor((2 * a / us + b) * U + lam + 0.43)
            done = (us >= 0.07) & (V <= vr)
            # us == 0 gives k = +-inf, which C casts to a negative integer
            test = ~done & np.isfinite(k) & (k >= 0) & ~((us < 0.013) & (V > us))
            i = np.flatnonzero(test)
            if i.size:
                done[i] = _ptrs_accept(V[i], us[i], k[i], lam, loglam, a, b, log_invalpha)
            counts[todo[done]] = k[done]
            todo, u = todo[~done], u[~done]
        block += 1


def _ptrs_accept(V, us, k, lam, loglam, a, b, log_invalpha):
    """PTRS's final test, log(V invalpha / (a / us^2 + b)) <= -lam +
    k log(lam) - log Gamma(k + 1), decided as the C sampler decides it with
    libm's log: numpy's log decides every test but those within PTRS_GUARD
    of the bound, whose left side libm's log evaluates again."""
    ks, inv = np.unique(k.astype(np.int64), return_inverse=True)
    rhs = np.array([-lam + kk * loglam - _loggam(kk + 1) for kk in ks.tolist()])[inv]
    with np.errstate(divide="ignore"):          # V = 0: -inf, as libm's log gives
        lhs = (np.log(V) + log_invalpha) - np.log(a / (us * us) + b)
    near = np.flatnonzero(np.abs(lhs - rhs) <= PTRS_GUARD)
    if near.size:
        lhs[near] = (_log(V[near]) + log_invalpha) - _log(a / (us[near] * us[near]) + b)
    return lhs <= rhs


def _log(x: np.ndarray) -> np.ndarray:
    """libm's log, as the C sampler calls it (numpy's SIMD log may differ by an ulp)."""
    return np.array([math.log(t) if t > 0.0 else -math.inf for t in x.tolist()])


_LOGGAM_A = (8.333333333333333e-02, -2.777777777777778e-03,
             7.936507936507937e-04, -5.952380952380952e-04,
             8.417508417508418e-04, -1.917526917526918e-03,
             6.410256410256410e-03, -2.955065359477124e-02,
             1.796443723688307e-01, -1.39243221690590e+00)


def _loggam(x: float) -> float:
    """numpy's random_loggam: log Gamma(x) by Stirling's series."""
    x = float(x)
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_A[9]
    for k in range(8, -1, -1):
        gl0 *= x2
        gl0 += _LOGGAM_A[k]
    gl = gl0 / x0 + 0.5 * 1.8378770664093453e+00 + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


def simple_ensemble(scenario: Scenario, n_paths: int, stream: RngStream, *, order: int,
                    path_offset: int = 0) -> SimpleEnsemble:
    """Simulate n_paths paths of a scalar mark-sum scenario, with the table
    the IBP weight of `order` reads (`SimpleJets.table`).

    The table runs block by block, over the blocks `mark_blocks` draws
    the marks in, and each block's marks are dropped after its table: the
    same bits as one table for the whole chunk, on temporaries that stay
    in cache, and the chunk holds its counts and columns, not its marks.
    """
    sj = scenario.simple
    if scenario.dim != 1 or sj is None:
        raise ValueError("vectorised ensembles need a scalar scenario with mark jets")
    if order not in TABLE_COLUMNS:
        raise ValueError(f"table order must be 1 or 2, got {order!r}")
    counts, blocks = mark_blocks(scenario, n_paths, stream, path_offset)
    tab = {key: np.empty(n_paths) for key in TABLE_COLUMNS[order]}
    for p, marks in blocks:
        part = sj.table(marks, counts[p], scenario.horizon, scenario.measure,
                        scenario.compensated, order)
        for key, column in tab.items():
            column[p] = part[key]
    tab["X"] += scenario.x0[0]
    return SimpleEnsemble(
        x=tab["X"], n_jumps=counts, gamma=tab["gamma"], a=tab["A"],
        g2=tab["G2"], xa=tab.get("XA"), xg2=tab.get("XG2"))


def merge_ensembles(parts) -> SimpleEnsemble:
    """Join ensembles computed for consecutive path ranges; a column that a
    part lacks (an order-1 part's xa and xg2) the merge lacks too.

    The merge consumes its parts: it joins them column by column and drops
    each column from the parts once joined, so it holds at most one column
    more than the parts did."""
    parts = list(parts)
    merged = {}
    for f in fields(SimpleEnsemble):
        columns = [getattr(p, f.name) for p in parts]
        for p in parts:
            setattr(p, f.name, None)
        merged[f.name] = None if any(c is None for c in columns) else np.concatenate(columns)
    return SimpleEnsemble(**merged)

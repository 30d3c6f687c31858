"""Vectorised many-path estimator engine for scalar mark-sum scenarios.

For scenarios whose state is x0 plus a sum of a function of the marks
(no state feedback), whole ensembles reduce to per-path segment sums over
one concatenated mark array (`SimpleJets.table`, which `sde.integrate`
runs for a single path).  This is what makes 1e5-path weight and density
runs take seconds instead of minutes.

Randomness stays path-addressed: path i draws its jump count and marks
from the sub-streams of path index i, so an ensemble computed in chunks
by several workers is bit-identical to a single-worker run.  A chunk's
counts are drawn at once, by a vectorised port of numpy's Poisson sampler
on `rng.philox_random`; its marks are drawn, and its table computed, in
blocks of whole paths of about BLOCK_MARKS marks, so that the temporaries
stay in cache and on the heap.  Every draw is bit for bit that of one
numpy generator per path and purpose, whatever the blocks.
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


@dataclass
class SimpleEnsemble:
    """Per-path functionals of a scalar mark-sum scenario, tabulated for an
    IBP weight order (`SimpleJets.table`).  Every ensemble carries the
    order-1 columns, which Z1 reads; xa and xg2, which only Z2 reads, are
    there at order 2 and None at order 1."""

    x: np.ndarray          # state at the horizon
    n_jumps: np.ndarray
    gamma: np.ndarray      # covariance N(xi h'^2)
    a: np.ndarray          # generator path, compensated sum of a[h]
    g2: np.ndarray         # bracket of X with gamma
    xa: np.ndarray | None = None      # bracket of X with a (order 2)
    xg2: np.ndarray | None = None     # bracket of X with g2 (order 2)

    def __len__(self):
        return len(self.x)


def sample_mark_sets(scenario: Scenario, n_paths: int, stream: RngStream,
                     path_offset: int = 0):
    """Counts and concatenated marks for paths [offset, offset + n).

    Path i is addressed as p = path_offset + i + 1.  Its count and marks
    are those of `prm.sample_path` at `stream.child(path=p)`, bit for bit:
    the count is what `stream.child(path=p, tag=TAG_TIME).generator()
    .poisson(lam)` draws, and the marks are `mark_quantile` of the first
    `count` uniforms of `stream.child(path=p, tag=TAG_MARK)`.  All counts
    are drawn in one pass of the sampler, the marks block by block.
    """
    spec = scenario.measure
    lam = scenario.horizon * total_mass(spec)
    paths = np.arange(path_offset + 1, path_offset + n_paths + 1, dtype=np.uint64)
    counts = _poisson(stream.child(tag=TAG_TIME), paths, lam)
    marks = np.empty(int(counts.sum()))
    mark_stream = stream.child(tag=TAG_MARK)
    for p, m in _blocks(counts):
        if m.start < m.stop:
            marks[m] = mark_quantile(spec, _leading_draws(mark_stream, paths[p], counts[p]))
    return counts, marks


def _blocks(counts: np.ndarray):
    """(path slice, mark slice) of each block of a chunk: runs of whole
    paths, each of at most BLOCK_MARKS marks plus paths, or of one path
    that has more."""
    size = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts + 1, out=size[1:])         # marks plus paths before each path
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
    """Poisson(lam) counts, each the first draw of `stream` at its path."""
    if not lam >= 0:
        raise ValueError(f"Poisson mean must be >= 0, got {lam}")
    if lam >= 10:
        return _poisson_ptrs(stream, paths, lam)
    if lam == 0:
        return np.zeros(len(paths), dtype=np.int64)
    return _poisson_mult(stream, paths, lam)


def _poisson_mult(stream, paths, lam):
    """Multiplication method: count uniforms until their product <= e^-lam."""
    enlam = math.exp(-lam)
    counts = np.empty(len(paths), dtype=np.int64)
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
    return counts


def _poisson_ptrs(stream, paths, lam):
    """Hörmann's PTRS transformed rejection, two uniforms per attempt."""
    slam = math.sqrt(lam)
    loglam = math.log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2)
    log_invalpha = math.log(invalpha)
    counts = np.empty(len(paths), dtype=np.int64)
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
                lhs = (_log(V[i]) + log_invalpha) - _log(a / (us[i] * us[i]) + b)
                kt = k[i].astype(np.int64)
                ks, inv = np.unique(kt, return_inverse=True)
                rhs = np.array([-lam + kk * loglam - _loggam(kk + 1) for kk in ks.tolist()])
                done[i] = lhs <= rhs[inv]
            counts[todo[done]] = k[done]
            todo, u = todo[~done], u[~done]
        block += 1
    return counts


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

    The table runs block by block, over the blocks `sample_mark_sets`
    draws the marks in: the same bits as one table for the whole chunk,
    on temporaries that stay in cache.
    """
    sj = scenario.simple
    if scenario.dim != 1 or sj is None:
        raise ValueError("vectorised ensembles need a scalar scenario with mark jets")
    if order not in TABLE_COLUMNS:
        raise ValueError(f"table order must be 1 or 2, got {order!r}")
    counts, marks = sample_mark_sets(scenario, n_paths, stream, path_offset)
    tab = {key: np.empty(n_paths) for key in TABLE_COLUMNS[order]}
    for p, m in _blocks(counts):
        part = sj.table(marks[m], counts[p], scenario.horizon, scenario.measure,
                        scenario.compensated, order)
        for key, column in tab.items():
            column[p] = part[key]
    return SimpleEnsemble(
        x=scenario.x0[0] + tab["X"], n_jumps=counts, gamma=tab["gamma"], a=tab["A"],
        g2=tab["G2"], xa=tab.get("XA"), xg2=tab.get("XG2"))


def merge_ensembles(parts) -> SimpleEnsemble:
    """Concatenate ensembles computed for consecutive path ranges; a column
    that a part lacks (an order-1 part's xa and xg2) the merge lacks too."""
    parts = list(parts)
    merged = {}
    for f in fields(SimpleEnsemble):
        columns = [getattr(p, f.name) for p in parts]
        merged[f.name] = None if any(c is None for c in columns) else np.concatenate(columns)
    return SimpleEnsemble(**merged)

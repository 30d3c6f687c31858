"""Vectorised many-path estimator engine for scalar mark-sum scenarios.

For scenarios whose state is x0 plus a sum of a function of the marks
(no state feedback), whole ensembles reduce to per-path segment sums over
one concatenated mark array (`SimpleJets.table`, which `sde.integrate`
runs for a single path).  This is what makes 1e5-path weight and density
runs take seconds instead of minutes.

Randomness stays path-addressed: path i draws its jump count and marks
from the sub-streams of path index i, so an ensemble computed in chunks
by several workers is bit-identical to a single-worker run.  A chunk's
counts are drawn first, by `prm.jump_draws` (a vectorised port of numpy's
Poisson sampler on `rng.philox_random`, in passes of at most
`prm.POISSON_PASS` paths).  Its marks are then drawn, and its table
computed, in blocks of whole paths of about BLOCK_MARKS marks, so that the
temporaries stay in cache and on the heap; a block's marks are dropped
once its table is computed, so a chunk holds one block of marks plus its
per-path columns, however many paths it has.  Every draw is bit for bit
that of one numpy generator per path and purpose, whatever the passes and
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .prm import jump_draws
from .rng import RngStream
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
    are those of `prm.sample_path` at `stream.child(path=p)`, bit for bit
    (`prm.jump_draws`).  The counts are drawn before this returns; a
    block's marks are drawn when the iterator reaches it, so a caller that
    drops them holds one block's.
    """
    paths = np.arange(path_offset + 1, path_offset + n_paths + 1, dtype=np.uint64)
    counts, _, marks = jump_draws(scenario.measure, scenario.horizon, stream, paths)
    return counts, ((p, marks(p)) for p in _blocks(counts))


def sample_mark_sets(scenario: Scenario, n_paths: int, stream: RngStream,
                     path_offset: int = 0):
    """Counts and concatenated marks for paths [offset, offset + n): the
    whole-chunk form of `mark_blocks`, whose blocks' marks it joins."""
    counts, blocks = mark_blocks(scenario, n_paths, stream, path_offset)
    return counts, np.concatenate([np.empty(0)] + [marks for _, marks in blocks])


def _blocks(counts: np.ndarray):
    """The path slice of each block of a chunk: runs of whole paths, each of
    at most BLOCK_MARKS marks plus paths, or of one path that has more."""
    size = np.zeros(len(counts) + 1, dtype=np.int64)
    np.add(counts, 1, out=size[1:])
    np.cumsum(size[1:], out=size[1:])           # marks plus paths before each path
    lo = 0
    while lo < len(counts):
        hi = max(lo + 1, int(np.searchsorted(size, size[lo] + BLOCK_MARKS, side="right")) - 1)
        yield slice(lo, hi)
        lo = hi


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

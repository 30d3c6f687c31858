"""Sampling of the marked Poisson random measure and its enrichments.

The measure's points on [0, T) are (jump time, mark) pairs; the paths of
a chunk are one flat `JumpTable`.  `rho_blocks` draws the auxiliary
standard normal blocks per jump that realise gradients, one set per
replica, and `nested_steps` the Brownian increments of nested excursions,
from the jump's own sub-streams.  `JumpLanes` is a row selection of a
table, one jump from each of several paths, so that a lockstep sweep can
resolve them together with the draws each would get in a sweep of its own.

Every draw is the one numpy's generator at the address makes.  Many paths
(`sample_paths`; `jump_draws` draws their counts and marks, for `ensemble`
too) and many nested excursions are drawn at once on the Philox kernel,
through ports of numpy's samplers: the Poisson sampler here (`_poisson`),
the uniforms (`_leading_draws`) and the ziggurat (`rng.standard_normals`).
One path (`sample_path`), the rho blocks and `JumpLanes.draws` walk
numpy's generators, where the kernel's fixed cost per call would outweigh
their draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import LevyMeasureSpec, mark_quantile, total_mass
from .rng import (TAG_MARK, TAG_NESTED, TAG_RHO, TAG_TIME, RngStream, philox_random,
                  standard_normals)

# Paths per pass of the Poisson sampler: a pass's temporaries peak at ~200 B
# a path, ~6 MiB.  A 25 000-path `ensemble` chunk still takes one pass, whose
# draws lift glibc's mmap threshold above its blocks' temporaries
# (`ensemble.BLOCK_MARKS`); split at 8 Ki paths it ran 30 % slower.
POISSON_PASS = 32_768


@dataclass
class JumpTable:
    """The jumps of paths of one stream on [0, horizon), held flat: path i
    is at address paths[i] of `stream` (its jumps draw from the sub-streams
    of `stream.child(path=paths[i])`), and owns the next counts[i] entries
    of `times` and `marks`, path after path."""

    stream: RngStream
    paths: np.ndarray                  # (n,) path addresses
    counts: np.ndarray                 # (n,) jump counts
    times: np.ndarray                  # (sum of counts,) non-decreasing in a path, in [0, horizon)
    marks: np.ndarray                  # (sum of counts,) one scalar mark per jump

    @property
    def n_jumps(self) -> int:
        return len(self.times)


def sample_path(spec: LevyMeasureSpec, horizon: float, stream: RngStream) -> JumpTable:
    """Sample the one path at `stream`: Poisson count, sorted uniform
    times, i.i.d. marks.

    The count and then the times come from the generator of the path's
    TAG_TIME stream, and the marks, the inverse CDF of uniforms, from its
    TAG_MARK stream.  One path walks numpy's generators: the kernel's fixed
    cost per call is larger than their draws.
    """
    gen = stream.child(tag=TAG_TIME).generator()
    n = int(gen.poisson(horizon * total_mass(spec)))
    times = np.sort(gen.random(n)) * horizon
    u = stream.child(tag=TAG_MARK).generator().random(n)
    return JumpTable(stream, np.array([stream.path], dtype=np.uint64), np.array([n]), times,
                     mark_quantile(spec, u) if n else np.empty(0))


def jump_draws(spec: LevyMeasureSpec, horizon: float, stream: RngStream, paths):
    """The jump counts and marks of the paths at the addresses `paths` of
    `stream`: `sample_path`'s, bit for bit, on the Philox kernel.

    Returns the counts (`_poisson` on each path's TAG_TIME stream, in
    passes of at most POISSON_PASS paths), the words each count consumed,
    after which the path's times start, and `marks(p)`: the marks of the
    paths `paths[p]` (all by default), concatenated, `mark_quantile` of the
    first count uniforms of each one's TAG_MARK stream (`_leading_draws`).
    """
    paths = np.asarray(paths, dtype=np.uint64)
    times, lam = stream.child(tag=TAG_TIME), horizon * total_mass(spec)
    counts = np.empty(len(paths), dtype=np.int64)
    used = np.empty_like(counts)
    for lo in range(0, len(paths), POISSON_PASS):
        counts[lo:lo + POISSON_PASS], used[lo:lo + POISSON_PASS] = _poisson(
            times, paths[lo:lo + POISSON_PASS], lam)
    mark_stream = stream.child(tag=TAG_MARK)

    def marks(p=slice(None)):
        if not counts[p].any():
            return np.empty(0)
        return mark_quantile(spec, _leading_draws(mark_stream, paths[p], counts[p]))

    return counts, used, marks


def sample_paths(spec: LevyMeasureSpec, horizon: float, stream: RngStream, paths) -> JumpTable:
    """`sample_path` at `stream.child(path=p)` for each address p of `paths`,
    bit for bit, as one table drawn at once on the Philox kernel: the
    counts and marks of `jump_draws`, and each path's times, the uniforms
    of its TAG_TIME stream after the words its count consumed, sorted."""
    paths = np.asarray(paths, dtype=np.uint64)
    counts, used, marks = jump_draws(spec, horizon, stream, paths)
    # each path's uniforms sorted in a row of its own, padded with +inf
    inside = np.arange(counts.max(initial=0)) < counts[:, None]
    rows = np.full(inside.shape, np.inf)
    rows[inside] = _leading_draws(stream.child(tag=TAG_TIME), paths, counts, skip=used)
    rows.sort(axis=1)
    return JumpTable(stream, paths, counts, rows[inside] * horizon, marks())


def rho_blocks(stream: RngStream, replicas, shape) -> np.ndarray:
    """Auxiliary marks of the given shape for each replica, stacked.

    Entry i holds the standard normals that the generator of
    `stream.child(replica=replicas[i], tag=TAG_RHO)` draws.  One generator
    walks the replicas and draws each block straight into its row.  The
    blocks are independent across replicas and entries, independent of
    the jump skeleton, and fully determined by the stream address.
    """
    rows = np.empty((len(replicas), math.prod(shape)))
    for row, gen in zip(rows, stream.child(tag=TAG_RHO).each(replica=replicas)):
        gen.standard_normal(out=row)
    return rows.reshape(len(replicas), *shape)


@dataclass
class JumpLanes:
    """One jump from each of several paths of one stream (the lanes): rows
    of a `JumpTable`.

    Lane i is jump `index[i]` of the path at address `paths[i]` of
    `stream`, and carries that jump's mark.  A lane's draws come from the
    jump's sub-streams (jump index + 1, one per tag).
    """

    stream: RngStream
    paths: np.ndarray
    index: np.ndarray
    marks: np.ndarray

    def __len__(self) -> int:
        return len(self.marks)

    def __getitem__(self, rows) -> JumpLanes:
        """The lanes `rows` (an index array or a slice)."""
        return JumpLanes(self.stream, self.paths[rows], self.index[rows], self.marks[rows])

    def draws(self, tag: int, replica: int | None = None):
        """Yield, lane by lane, a generator at the start of the lane's jump
        sub-stream for `tag` (at `replica`, when given, instead of the path
        stream's own)."""
        return self.stream.child(tag=tag, replica=replica).each(
            path=self.paths.tolist(), jump=(self.index + 1).tolist())


def _nested_counts(durations, step: float):
    """Step counts ceil(duration / step) of nested excursions, and the width
    of each one's last step, shortened so that its widths sum to its duration."""
    durations = np.asarray(durations, dtype=float)
    if step <= 0 or np.any(durations < 0):
        raise ValueError("need duration >= 0 and step > 0")
    counts = np.ceil(durations / step).astype(np.int64)
    return counts, durations - step * (counts - 1)


def nested_grid(durations, step: float):
    """Euler grid of nested excursions of the given durations.

    Returns the per-lane step counts ceil(duration / step) and the step
    widths, shape (max count, n lanes): `step`, except that each lane's
    last step is shortened so that its widths sum to its duration, and 0
    past a lane's last step.
    """
    counts, last = _nested_counts(durations, step)
    k = np.arange(counts.max(initial=0))[:, None]
    widths = np.where(k < counts - 1, step, np.where(k == counts - 1, last, 0.0))
    return counts, widths


def nested_steps(lanes: JumpLanes, durations, step: float, dim: int = 1):
    """Brownian increments of every lane's nested Euler steps, held flat.

    Lane i takes the steps of its column of `nested_grid`.  Returns the
    step counts, and the widths (s,) and increments (s, dim) of the s
    steps, one row per lane-step, lane after lane.  The increments have
    variance equal to their width, so each lane's sum is a Brownian value at
    its duration exactly, and they depend only on the lane's (path stream,
    jump index) address: a lane's normals are what the generator of its
    jump's TAG_NESTED sub-stream draws, all lanes drawn at once on the
    Philox kernel (`rng.standard_normals`).
    """
    counts, last = _nested_counts(durations, step)
    ends = np.cumsum(counts)
    widths = np.full(int(ends[-1]) if len(ends) else 0, float(step))
    ran = counts > 0
    tails = ends[ran] - 1                       # each lane's last step
    widths[tails] = last[ran]
    normals = standard_normals(lanes.stream.child(tag=TAG_NESTED), counts * dim,
                               path=lanes.paths, jump=lanes.index + 1).reshape(-1, dim)
    # sqrt(widths) per row without a row-sized temporary: sqrt(step) but at the tails
    scaled = normals[tails] * np.sqrt(last[ran])[:, None]
    normals *= math.sqrt(step)
    normals[tails] = scaled
    return counts, widths, normals


# numpy's log is within a few ulp of libm's, and every log of the PTRS test
# is under 80 in magnitude, so its two evaluations differ by well under
# 1e-12: a test whose sides are further apart than this decides the same
# with either log.
PTRS_GUARD = 1e-9


def _leading_draws(stream: RngStream, paths: np.ndarray, lengths: np.ndarray,
                   skip=0) -> np.ndarray:
    """The lengths[i] doubles of `stream` at paths[i] that follow its first
    skip[i] (0 by default), concatenated."""
    first = skip // 4
    n_blocks = (skip + lengths + 3) // 4 - first
    owner = np.repeat(np.arange(len(paths)), n_blocks)
    block = np.arange(owner.size) - np.repeat(np.cumsum(n_blocks) - n_blocks - first, n_blocks)
    u = philox_random(stream, paths[owner], block)
    word = 4 * block[:, None] + np.arange(4)
    keep = word < (skip + lengths)[owner, None]
    if np.ndim(skip):
        keep &= word >= skip[owner, None]
    return u[keep]


# numpy's random_poisson (numpy/random/src/distributions/distributions.c),
# vectorised over paths.  Scalars and libm logs follow the C expressions
# term by term and in the same order, so every count is numpy's.

def _poisson(stream: RngStream, paths: np.ndarray, lam: float):
    """Poisson(lam) counts, each the first draw of `stream` at its path, and
    the words (uniforms) each count consumed, after which the generator's
    next draw starts."""
    if not lam >= 0:
        raise ValueError(f"Poisson mean must be >= 0, got {lam}")
    counts = np.zeros(len(paths), dtype=np.int64)
    used = np.zeros(len(paths), dtype=np.int64)
    if lam > 0:
        (_poisson_ptrs if lam >= 10 else _poisson_mult)(stream, paths, lam, counts, used)
    return counts, used


def _poisson_mult(stream, paths, lam, counts, used):
    """Multiplication method: count uniforms until their product <= e^-lam.
    The counts and the uniforms read go into `counts` and `used`, as
    `_poisson_ptrs`'s do."""
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
            ended = todo[~more]
            counts[ended] = x[~more]
            used[ended] = 4 * block + w + 1
            todo, x, prod, u = todo[more], x[more], prod[more], u[more]
        block += 1


def _poisson_ptrs(stream, paths, lam, counts, used):
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
            ended = todo[done]
            counts[ended] = k[done]
            used[ended] = 4 * block + w + 2
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

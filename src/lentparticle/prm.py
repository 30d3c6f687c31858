"""Sampling of the marked Poisson random measure and its enrichments.

A path is a finite realisation of the jump measure on (0, T]: sorted jump
times with one mark each.  `rho_blocks` draws the blocks of auxiliary
i.i.d. standard normal marks per jump that realise gradients, one set per
replica, and jumps can carry lazily generated nested Brownian paths
addressed through the jump's own sub-stream.  `JumpLanes` gathers one jump from each of
several paths of one stream, so that a lockstep sweep can resolve them
together with the same draws each would get in a sweep of its own.
Loops over many addresses walk one generator with `RngStream.each`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import LevyMeasureSpec, mark_quantile, total_mass
from .rng import TAG_MARK, TAG_NESTED, TAG_RHO, TAG_TIME, RngStream

@dataclass
class MarkedPoissonPath:
    """One realisation of the jump measure on (0, horizon]."""

    horizon: float
    times: np.ndarray                  # strictly increasing, in (0, horizon]
    marks: np.ndarray                  # one scalar mark per jump
    stream: RngStream                  # base stream; jump sub-streams derive from it

    @property
    def n_jumps(self) -> int:
        return len(self.times)


def sample_path(spec: LevyMeasureSpec, horizon: float, stream: RngStream) -> MarkedPoissonPath:
    """Sample a path: Poisson count, sorted uniform times, i.i.d. marks
    (the one-lane case of `sample_paths`)."""
    return sample_paths(spec, horizon, stream, [stream.path])[0]


def sample_paths(spec: LevyMeasureSpec, horizon: float, stream: RngStream, paths) -> list:
    """`sample_path` at `stream.child(path=p)` for each address p of `paths`.

    A path's count and times come from its TAG_TIME stream, and its
    marks, the inverse CDF of uniforms, from its TAG_MARK stream; each
    purpose walks one generator over the paths.
    """
    mass = total_mass(spec)
    counts, times = [], []
    for gen in stream.child(tag=TAG_TIME).each(path=paths):
        n = int(gen.poisson(horizon * mass))
        counts.append(n)
        times.append(np.sort(gen.random(n)) * horizon)
    drawn = [p for p, n in zip(paths, counts) if n]
    u = [gen.random(n) for n, gen in zip(filter(None, counts),
                                         stream.child(tag=TAG_MARK).each(path=drawn))]
    marks = mark_quantile(spec, np.concatenate(u)) if u else np.empty(0)
    return [MarkedPoissonPath(horizon, t, m, stream.child(path=p))
            for p, t, m in zip(paths, times, np.split(marks, np.cumsum(counts)[:-1]))]


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
    """One jump from each of several paths of one stream (the lanes).

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
    jump index) address: one walk draws each lane's normals into its rows.
    """
    counts, last = _nested_counts(durations, step)
    ends = np.cumsum(counts)
    widths = np.full(int(ends[-1]) if len(ends) else 0, float(step))
    widths[ends[counts > 0] - 1] = last[counts > 0]
    normals = np.empty((len(widths), dim))
    for gen, n, end in zip(lanes.draws(TAG_NESTED), counts.tolist(), ends.tolist()):
        gen.standard_normal(out=normals[end - n:end])
    normals *= np.sqrt(widths)[:, None]
    return counts, widths, normals


def nested_increments(lanes: JumpLanes, durations, step: float, dim: int = 1) -> np.ndarray:
    """Brownian increments of every lane on its `nested_grid`.

    Shape (max count, n lanes, dim); zero past a lane's last step.  These
    are the rows of `nested_steps`, placed by one boolean-mask scatter.
    """
    counts, _, incs = nested_steps(lanes, durations, step, dim)
    grid = np.zeros((len(counts), counts.max(initial=0), dim))     # lane-major
    grid[np.arange(grid.shape[1]) < counts[:, None]] = incs
    return grid.transpose(1, 0, 2)

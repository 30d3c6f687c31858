"""Sampling of the marked Poisson random measure and its enrichments.

A path is a finite realisation of the jump measure on (0, T]: sorted jump
times with one mark each.  Paths can be enriched with blocks of auxiliary
i.i.d. marks per jump (the rho-blocks used to realise gradients), and
jumps can carry lazily generated nested Brownian paths addressed through
the jump's own sub-stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import LevyMeasureSpec, sample_mark, total_mass
from .rng import TAG_MARK, TAG_NESTED, TAG_RHO, TAG_TIME, RngStream

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"


@dataclass
class MarkedPoissonPath:
    """One realisation of the jump measure on (0, horizon]."""

    horizon: float
    times: np.ndarray                  # strictly increasing, in (0, horizon]
    marks: np.ndarray                  # one scalar mark per jump
    stream: RngStream                  # base stream; jump sub-streams derive from it
    rho_blocks: np.ndarray | None = None   # shape (order, n_jumps, block_dim)

    @property
    def n_jumps(self) -> int:
        return len(self.times)

    def jump_stream(self, jump_index: int, tag: int) -> RngStream:
        return self.stream.child(jump=jump_index + 1, tag=tag)


def sample_path(spec: LevyMeasureSpec, horizon: float, stream: RngStream) -> MarkedPoissonPath:
    """Sample a path: Poisson count, sorted uniform times, i.i.d. marks."""
    mass = total_mass(spec)
    gen = stream.child(tag=TAG_TIME).generator()
    n = int(gen.poisson(horizon * mass)) if mass > 0 else 0
    if n == 0:
        return MarkedPoissonPath(horizon, np.empty(0), np.empty(0), stream)
    times = np.sort(gen.random(n)) * horizon
    marks = sample_mark(spec, stream.child(tag=TAG_MARK), size=n)
    return MarkedPoissonPath(horizon, times, marks, stream)


def attach_rho_marks(path: MarkedPoissonPath, order: int, stream: RngStream,
                     basis: str = GAUSSIAN, block_dim: int = 1) -> MarkedPoissonPath:
    """Return a copy of the path carrying `order` auxiliary marks per jump.

    Blocks are independent across jumps and across orders, independent of
    the jump skeleton, and fully determined by the stream address.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    gen = stream.child(tag=TAG_RHO).generator()
    shape = (order, path.n_jumps, block_dim)
    if basis == GAUSSIAN:
        blocks = gen.standard_normal(shape)
    elif basis == RADEMACHER:
        blocks = gen.integers(0, 2, size=shape) * 2.0 - 1.0
    else:
        raise ValueError(f"unknown rho basis {basis!r}")
    return MarkedPoissonPath(path.horizon, path.times, path.marks, path.stream,
                             rho_blocks=blocks)


def nested_brownian(path: MarkedPoissonPath, jump_index: int, duration: float,
                    step: float, dim: int = 1) -> np.ndarray:
    """Brownian increments on [0, duration] from the jump's sub-stream.

    Returns an array of shape (n_steps, dim); increments have variance
    min(step, remaining time) so they always sum to a Brownian value at
    `duration` exactly.  Reproducible: the same (path stream, jump index)
    always yields the same increments.
    """
    if duration < 0 or step <= 0:
        raise ValueError("need duration >= 0 and step > 0")
    if duration == 0:
        return np.empty((0, dim))
    n = int(np.ceil(duration / step))
    widths = np.full(n, step)
    widths[-1] = duration - step * (n - 1)
    gen = path.jump_stream(jump_index, TAG_NESTED).generator()
    return gen.standard_normal((n, dim)) * np.sqrt(widths)[:, None]

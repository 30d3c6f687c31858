"""Vectorised many-path estimator engine for scalar mark-sum scenarios.

For scenarios whose state is x0 plus a sum of a function of the marks
(no state feedback), whole ensembles reduce to per-path segment sums over
one concatenated mark array (`SimpleJets.table`, which `sde.integrate`
runs for a single path).  This is what makes 1e5-path weight and density
runs take seconds instead of minutes.

Randomness stays path-addressed: path i draws its jump count and marks
from the sub-streams of path index i, so an ensemble computed in chunks
by several workers, or in blocks of BLOCK_PATHS paths, is bit-identical
to a single-worker run.  All paths of a block are drawn at once by
`rng.philox_random` with a vectorised port of numpy's Poisson sampler:
bit for bit the draws of one numpy generator per path and purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .measures import mark_quantile, total_mass
from .rng import TAG_MARK, TAG_TIME, RngStream, philox_random
from .sde import Scenario

# Paths per block of `simple_ensemble`: ~0.6 MB per temporary at ~18 marks
# per path, where smaller blocks pay the Poisson sampler's loop more often.
BLOCK_PATHS = 4096


@dataclass
class SimpleEnsemble:
    """Per-path functionals of a scalar mark-sum scenario."""

    x: np.ndarray          # state at the horizon
    n_jumps: np.ndarray
    gamma: np.ndarray      # covariance N(xi h'^2)
    a: np.ndarray          # generator path, compensated sum of a[h]
    g2: np.ndarray         # bracket of X with gamma
    xa: np.ndarray         # bracket of X with a
    xg2: np.ndarray        # bracket of X with g2

    def __len__(self):
        return len(self.x)


def sample_mark_sets(scenario: Scenario, n_paths: int, stream: RngStream,
                     path_offset: int = 0):
    """Counts and concatenated marks for paths [offset, offset + n).

    Path i is addressed as p = path_offset + i + 1.  Its count is what
    `stream.child(path=p, tag=TAG_TIME).generator().poisson(lam)` draws, and
    its marks what `sample_mark(spec, stream.child(path=p, tag=TAG_MARK),
    size=count)` draws, bit for bit.
    """
    spec = scenario.measure
    lam = scenario.horizon * total_mass(spec)
    paths = np.arange(path_offset + 1, path_offset + n_paths + 1, dtype=np.uint64)
    counts = _poisson(stream.child(tag=TAG_TIME), paths, lam)
    v = _leading_draws(stream.child(tag=TAG_MARK), paths, counts)
    marks = mark_quantile(spec, v) if v.size else np.empty(0)
    return counts, marks


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


def simple_ensemble(scenario: Scenario, n_paths: int, stream: RngStream,
                    path_offset: int = 0) -> SimpleEnsemble:
    """Simulate n_paths paths of a scalar mark-sum scenario, with jets.

    More than BLOCK_PATHS paths are simulated a block at a time and
    concatenated: the same bits, on temporaries that stay in cache.
    """
    if n_paths > BLOCK_PATHS:
        return merge_ensembles(
            simple_ensemble(scenario, min(BLOCK_PATHS, n_paths - lo), stream, path_offset + lo)
            for lo in range(0, n_paths, BLOCK_PATHS))
    sj = scenario.simple
    if scenario.dim != 1 or sj is None:
        raise ValueError("vectorised ensembles need a scalar scenario with mark jets")
    counts, marks = sample_mark_sets(scenario, n_paths, stream, path_offset)
    tab = sj.table(marks, counts, scenario.horizon, scenario.measure, scenario.compensated)
    return SimpleEnsemble(
        x=scenario.x0[0] + tab["X"], n_jumps=counts, gamma=tab["gamma"], a=tab["A"],
        g2=tab["G2"], xa=tab["XA"], xg2=tab["XG2"])


def merge_ensembles(parts) -> SimpleEnsemble:
    """Concatenate ensembles computed for consecutive path ranges."""
    parts = list(parts)
    return SimpleEnsemble(**{f.name: np.concatenate([getattr(p, f.name) for p in parts])
                             for f in fields(SimpleEnsemble)})

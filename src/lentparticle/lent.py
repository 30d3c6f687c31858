"""Malliavin covariance by two independent routes.

Route one is deterministic: conjugate the per-jump accumulator by the
final flow derivative, Gamma = K_T (sum_j Kbar_j gamma[c]_j Kbar_j^T) K_T^T,
with Kbar_j the running inverse flow the event loop carries past jump j.
Route two is Monte Carlo: enrich every jump with an auxiliary block rho_j
of standard normal marks and form the lent-particle gradient

    X#_T = K_T sum_j K_{T_j}^-1 c_flat_j rho_j,

with K_{T_j} the flow just after jump j and c_flat_j its injector, by
solves against the recorded K_{T_j}; then average outer products of the
samples.  The injectors are the bottom's `injector` of the jump rows the
event loop recorded (time, pre-jump state and resolution), computed here,
their one reader.  Agreement of the two is the library's central
correctness check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prm import rho_blocks
from .rng import RngStream
from .sde import Scenario, Trajectory


@dataclass
class MalliavinMatrix:
    """Covariance matrix of the state at the horizon."""

    gamma: np.ndarray


def malliavin_matrix(traj: Trajectory) -> MalliavinMatrix:
    """Exact finite-sum covariance K C K^T at the trajectory's horizon."""
    return MalliavinMatrix(gamma=traj.gamma)


def gradient_samples(scenario: Scenario, traj: Trajectory, n_replicas: int,
                     stream: RngStream) -> np.ndarray:
    """Batch of independent gradient realisations, shape (n_replicas, d).

    Replica r draws its blocks from the replica-indexed sub-stream, so the
    batch is reproducible and schedule-independent.  Sample r is
    K_T sum_j K_{T_j}^-1 c_flat_j rho_{r,j}: one `injector` call and one
    batched solve over the path's jumps, contracted with every replica's
    blocks.
    """
    rows, d, block_dim = traj.jumps, scenario.dim, scenario.bottom.block_dim
    if not rows:
        return np.zeros((n_replicas, d))
    blocks = rho_blocks(stream, range(1, n_replicas + 1), (len(rows), block_dim))
    flat = np.broadcast_to(scenario.bottom.injector(rows.s, rows.x, rows.ev),
                           (len(rows), d, block_dim))
    inj = np.linalg.solve(rows.k, flat).transpose(0, 2, 1).reshape(-1, d)
    return blocks[:, rows.index].reshape(n_replicas, -1) @ inj @ traj.k.T


def empirical_gamma(samples: np.ndarray) -> np.ndarray:
    """Second-moment matrix of gradient samples (the Monte Carlo route)."""
    samples = np.atleast_2d(samples)
    return samples.T @ samples / samples.shape[0]


"""Malliavin covariance by two independent routes.

Route one is deterministic: conjugate the per-jump accumulator by the
final flow derivative, Gamma = K_T (sum_j Kbar_j gamma[c]_j Kbar_j^T) K_T^T,
with Kbar_j the running inverse flow the event loop carries past jump j.
Route two is Monte Carlo: enrich every jump with an auxiliary zero-mean
mark block rho_j and form the lent-particle gradient

    X#_T = K_T sum_j K_{T_j}^-1 c_flat_j rho_j,

with K_{T_j} the flow just after jump j and c_flat_j its injector, by
solves against the recorded K_{T_j}; then average outer products of the
samples.  Agreement of the two is the library's central correctness check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bottom import CapabilityError
from .prm import GAUSSIAN, MarkedPoissonPath, rho_blocks
from .rng import RngStream
from .sde import Scenario, Trajectory


@dataclass
class MalliavinMatrix:
    """Covariance matrix of the state at time t."""

    t: float
    gamma: np.ndarray


def malliavin_matrix(traj: Trajectory) -> MalliavinMatrix:
    """Exact finite-sum covariance K C K^T at the trajectory's horizon."""
    return MalliavinMatrix(t=traj.scenario.horizon, gamma=traj.gamma)


def gradient_samples(scenario: Scenario, traj: Trajectory, n_replicas: int,
                     stream: RngStream, basis: str = GAUSSIAN) -> np.ndarray:
    """Batch of independent gradient realisations, shape (n_replicas, d).

    Replica r draws its blocks from the replica-indexed sub-stream, so the
    batch is reproducible and schedule-independent.  Sample r is
    K_T sum_j K_{T_j}^-1 c_flat_j rho_{r,j}: one batched solve over the
    path's jumps, contracted with every replica's blocks.
    """
    blocks = rho_blocks(stream, range(1, n_replicas + 1),
                        (len(traj.jumps), scenario.bottom.block_dim), basis)
    if not traj.jumps:
        return np.zeros((n_replicas, scenario.dim))
    k, flat, index = (np.concatenate([getattr(rec, key) for rec in traj.jumps])
                      for key in ("k", "flat", "index"))
    inj = np.linalg.solve(k, flat).transpose(0, 2, 1).reshape(-1, scenario.dim)
    return blocks[:, index].reshape(n_replicas, -1) @ inj @ traj.k.T


def empirical_gamma(samples: np.ndarray) -> np.ndarray:
    """Second-moment matrix of gradient samples (the Monte Carlo route)."""
    samples = np.atleast_2d(samples)
    return samples.T @ samples / samples.shape[0]


def iterated_gradient_simple(h_flats, path: MarkedPoissonPath, blocks: np.ndarray,
                             k: int) -> float:
    """k-fold gradient of a simple integral of h over the jump measure.

    h_flats[j-1](u) must be the j-fold application of f -> sqrt(xi) f' to
    h, and blocks holds one replica of the path's rho-blocks, shape
    (order, n_jumps, block_dim) with order >= k; the k-th gradient
    realisation is the sum over jumps of h_flats[k-1](u_j) times the
    product of the jump's first k auxiliary marks.
    """
    terms = _gradient_terms(h_flats, path, k)
    if blocks.shape[0] < k:
        raise ValueError(f"needs rho-blocks of order >= {k}, got {blocks.shape[0]}")
    return float(np.dot(terms, np.prod(blocks[:k, :, 0], axis=0)))


def _gradient_terms(h_flats, path: MarkedPoissonPath, k: int) -> np.ndarray:
    """h_flats[k-1] at every mark of the path, after checking the order."""
    if not 1 <= k <= 3:
        raise ValueError("gradient order must be 1, 2 or 3")
    if len(h_flats) < k:
        raise CapabilityError(f"order-{k} gradient needs {k} mark jets, got {len(h_flats)}")
    return np.asarray([h_flats[k - 1](u) for u in path.marks], dtype=float)


def gamma_k_simple(h_flats, path: MarkedPoissonPath, k: int,
                   n_replicas: int, stream: RngStream, basis: str = GAUSSIAN) -> float:
    """Order-k energy of a simple integral, by averaging squared gradients.

    The terms h_flats[k-1](u_j) are evaluated once and contracted with
    every replica's products of auxiliary marks.
    """
    terms = _gradient_terms(h_flats, path, k)
    blocks = rho_blocks(stream, range(1, n_replicas + 1), (k, path.n_jumps, 1), basis)
    vals = np.prod(blocks[:, :, :, 0], axis=1) @ terms
    return float(np.mean(vals ** 2))


def gaussian_kappa(p: float) -> float:
    """p-th absolute moment of a standard normal, to the power 1/p."""
    if p <= 0:
        raise ValueError("p must be positive")
    log_m = (p / 2) * math.log(2.0) + math.lgamma((p + 1) / 2) - 0.5 * math.log(math.pi)
    return math.exp(log_m / p)


def pnorm_ratio(samples: np.ndarray, p: float, gamma: float | None = None) -> float:
    """Ratio of the empirical p-norm of gradient samples to Gamma^(1/2).

    With a Gaussian auxiliary basis the ratio estimates the Gaussian
    p-moment constant; with a Rademacher basis it falls in the
    hypercontractivity sandwich [1, (p-1)^(k/2)] for p > 2.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    samples = np.asarray(samples, dtype=float).reshape(-1)
    if gamma is None:
        gamma = float(np.mean(samples ** 2))
    if gamma <= 0:
        raise ZeroDivisionError("zero energy: p-norm ratio undefined")
    pnorm = float(np.mean(np.abs(samples) ** p)) ** (1.0 / p)
    return pnorm / math.sqrt(gamma)

"""Mark-space Dirichlet structures used per jump.

Each structure knows how to

* resolve a raw mark into whatever the coefficients need (possibly running
  a nested simulation addressed by the jump's sub-stream),
* produce the quadratic-form matrix of the jump coefficient in the mark
  variable (a symmetric PSD d x d matrix), and
* produce the linear map sending an auxiliary rho-block to a zero-mean
  gradient sample whose second moment is that matrix.

Marks are resolved for many paths at once: `eval_jumps` takes one jump
per lane (`prm.JumpLanes`) and returns a resolution with a leading lane
axis, and `gamma_c` and `flat_matrix` map it to the (n, d, d) matrices
and the (n, d, block_dim) injectors.

Two families are provided: a weighted structure on a Euclidean mark
interval, and Wiener-space structures (Ornstein-Uhlenbeck) for jumps that
are excursions of a nested diffusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .prm import JumpLanes, nested_grid, nested_increments
from .rng import TAG_NESTED


class CapabilityError(RuntimeError):
    """A scenario or its bottom structure lacks a capability an operation requires."""


class BottomStructure:
    """Interface; see module docstring for the contract."""

    block_dim: int = 1

    def eval_jumps(self, s: np.ndarray, x: np.ndarray, lanes: JumpLanes):
        """Resolve one jump per lane at times s (n,) from states x (n, d)."""
        raise NotImplementedError

    def gamma_c(self, s, x, ev) -> np.ndarray:
        raise NotImplementedError

    def flat_matrix(self, s, x, ev) -> np.ndarray:
        """Linear maps (n, d, block_dim) sending a rho-block to a gradient sample."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Euclidean mark space with carre du champ weight xi
# ---------------------------------------------------------------------------

@dataclass
class EuclideanBottom(BottomStructure):
    """Weighted structure on a mark interval.

    The quadratic form on scalar functions is xi(u) * f'(u)**2; its
    generator, for scalar mark sums, is `sde.SimpleJets.ah`.

    c_u is the mark-derivative of the jump coefficient, signature
    (s, x, u) -> (d,), or (n, d) for n lanes.
    """

    xi: Callable
    c_u: Callable

    block_dim = 1

    def eval_jumps(self, s, x, lanes):
        return lanes.marks

    def gamma_c(self, s, x, u):
        du = np.atleast_1d(np.asarray(self.c_u(s, x, u), dtype=float))
        xi = np.asarray(self.xi(u), dtype=float)
        return xi[..., None, None] * (du[..., :, None] * du[..., None, :])

    def flat_matrix(self, s, x, u):
        du = np.atleast_1d(np.asarray(self.c_u(s, x, u), dtype=float))
        return np.sqrt(np.asarray(self.xi(u), dtype=float))[..., None, None] * du[..., :, None]


# ---------------------------------------------------------------------------
# Wiener marks: closed-form structure for coefficients (B_y, B_y^2/2)
# ---------------------------------------------------------------------------

@dataclass
class WienerSquareEval:
    y: np.ndarray     # (n,) durations
    b: np.ndarray     # (n,) Brownian values at time y


class WienerSquareBottom(BottomStructure):
    """Ornstein-Uhlenbeck structure for the jump coefficient (B_y, B_y^2/2).

    The mark is a pair (duration y, Brownian path); only the terminal
    value B_y enters the coefficient, so it is simulated exactly as
    sqrt(y) * Z from the jump's sub-stream.  The per-jump matrix is the
    exact closed form [[y, y*B], [y*B, y*B^2]].
    """

    block_dim = 1

    def eval_jumps(self, s, x, lanes):
        y = lanes.marks
        z = np.array([lanes.generator(i, TAG_NESTED).standard_normal()
                      for i in range(len(lanes))])
        return WienerSquareEval(y=y, b=np.sqrt(y) * z)

    def coefficient(self, ev: WienerSquareEval) -> np.ndarray:
        return np.stack([ev.b, 0.5 * ev.b ** 2], -1)

    def gamma_c(self, s, x, ev):
        y, b = ev.y, ev.b
        yb = y * b
        return np.stack([np.stack([y, yb], -1), np.stack([yb, yb * b], -1)], -2)

    def flat_matrix(self, s, x, ev):
        return (np.stack([np.ones_like(ev.b), ev.b], -1) * np.sqrt(ev.y)[..., None])[..., None]


# ---------------------------------------------------------------------------
# Wiener marks: nested diffusion run for the jump's duration
# ---------------------------------------------------------------------------

@dataclass
class WienerOUEval:
    """Excursions; every field has a leading lane axis."""

    y: np.ndarray           # (n,) durations
    z: np.ndarray           # (n, d) displacements zeta_y^x - x
    gamma_m: np.ndarray     # (n, d, d) Malliavin matrices of zeta_y^x
    m: np.ndarray           # (n, d, d) flow derivatives M_y
    m_inv: np.ndarray


@dataclass
class WienerOUBottom(BottomStructure):
    """Jumps given by excursions of a diffusion dzeta = a(zeta) dB + b(zeta) dt.

    The nested diffusion, its flow derivative M, the inverse flow and the
    Malliavin matrix of the excursion are advanced together by
    Euler-Maruyama on one shared Brownian draw taken from the jump's
    sub-stream.  The displacement is the jump coefficient's input.

    The coefficient callables take states z of shape (n, dim), one row per
    lane, and return a (n, dim, n_brownian), b (n, dim) and da/dz
    (n, dim, n_brownian, dim); a value without the lane axis is taken to
    hold for every lane.  The flow derivative follows the diffusion
    coefficient only: b is taken to be constant in z.
    """

    dim: int
    n_brownian: int
    diff: Callable                     # a(z)
    drift: Callable | None = None      # b(z)
    diff_jac: Callable | None = None   # da/dz
    step: float = 1e-2

    @property
    def block_dim(self):
        return self.dim

    def eval_jumps(self, s, x, lanes):
        incs = nested_increments(lanes, lanes.marks, self.step, self.n_brownian)
        return self.evolve(x, lanes.marks, incs)

    def evolve(self, x: np.ndarray, y: np.ndarray, incs: np.ndarray) -> WienerOUEval:
        """Run the excursions of n lanes in lockstep.

        x (n, dim) start points, y (n,) durations and incs
        (steps, n, n_brownian) the Brownian increments on the lanes'
        `prm.nested_grid`.  Past a lane's last step its increment and step
        width are zero, so the Euler step leaves the lane unchanged.  The
        result carries the lane axis.
        """
        d, q = self.dim, self.n_brownian
        x = np.asarray(x, dtype=float)
        n = len(x)
        _, widths = nested_grid(y, self.step)
        if incs.shape != widths.shape + (q,):
            raise ValueError(f"increments of shape {incs.shape} do not match the step grid "
                             f"{widths.shape} of the durations")
        flows = self.diff_jac is not None
        z = x.copy()
        m = np.tile(np.eye(d), (n, 1, 1))
        m_inv = m.copy()
        integ = np.zeros((n, d, d))    # int M^-1 a a^T M^-T ds
        for k in range(len(widths)):
            dt = widths[k][:, None]
            dtm = dt[..., None]
            db = incs[k]
            a = np.broadcast_to(self.diff(z), (n, d, q))
            mi_a = m_inv @ a
            integ = integ + (mi_a @ mi_a.transpose(0, 2, 1)) * dtm
            if flows:
                # shared-noise Euler step for both flows; with A_r = da[:, r]/dz
                # and P_r = M^-1 A_r, the inverse flow carries the Ito
                # correction sum_r P_r P_r dt
                A = np.broadcast_to(self.diff_jac(z), (n, d, q, d)).transpose(0, 2, 1, 3)
                P = m_inv[:, None] @ A
                noise = db[:, :, None, None]
                dm = (A * noise).sum(axis=1) @ m
                dmi = (P @ P).sum(axis=1) * dtm - (P * noise).sum(axis=1)
            z_next = z + (a @ db[..., None])[..., 0]
            if self.drift is not None:
                z_next = z_next + np.broadcast_to(self.drift(z), (n, d)) * dt
            z = z_next
            if flows:
                m = m + dm
                m_inv = m_inv + dmi
                if not np.all(np.isfinite(m_inv)):
                    raise FloatingPointError(f"inverse flow overflow at nested step {k}")
        gamma_m = m @ integ @ m.transpose(0, 2, 1)
        return WienerOUEval(y=np.asarray(y, dtype=float), z=z - x, gamma_m=gamma_m,
                            m=m, m_inv=m_inv)

    def gamma_c(self, s, x, ev: WienerOUEval):
        return ev.gamma_m

    def flat_matrix(self, s, x, ev: WienerOUEval):
        return _psd_sqrt(ev.gamma_m)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square roots of PSD matrices, over the last two axes."""
    w, v = np.linalg.eigh(0.5 * (mat + np.swapaxes(mat, -1, -2)))
    return v * np.sqrt(np.clip(w, 0.0, None))[..., None, :] @ np.swapaxes(v, -1, -2)

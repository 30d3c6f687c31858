"""Mark-space Dirichlet structures used per jump.

Each structure knows how to

* resolve a raw mark into whatever the coefficients need (possibly running
  a nested simulation addressed by the jump's sub-stream),
* produce, in one `jump_matrices` call, the quadratic-form matrix of the
  jump coefficient in the mark variable (a symmetric PSD d x d matrix)
  and the linear map (the injector) sending an auxiliary rho-block to a
  zero-mean gradient sample whose second moment is that matrix.

Marks are resolved for many paths at once: `eval_jumps` takes one jump
per lane (`prm.JumpLanes`) and returns a resolution with a leading lane
axis, and `jump_matrices` maps it to the (n, d, d) matrices and the
(n, d, block_dim) injectors.

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

    def jump_matrices(self, s, x, ev):
        """Quadratic-form matrices (n, d, d) of the jumps resolved as `ev`,
        and their injectors (n, d, block_dim): the linear maps sending a
        rho-block to a gradient sample whose second moment is the matrix."""
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

    def jump_matrices(self, s, x, u):
        """Both matrices from one evaluation of c_u and of the weight xi."""
        du = np.atleast_1d(np.asarray(self.c_u(s, x, u), dtype=float))
        xi = np.asarray(self.xi(u), dtype=float)
        return (xi[..., None, None] * (du[..., :, None] * du[..., None, :]),
                np.sqrt(xi)[..., None, None] * du[..., :, None])


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
        z = np.array([gen.standard_normal() for gen in lanes.draws(TAG_NESTED)])
        return WienerSquareEval(y=y, b=np.sqrt(y) * z)

    def coefficient(self, ev: WienerSquareEval) -> np.ndarray:
        return np.stack([ev.b, 0.5 * ev.b ** 2], -1)

    def jump_matrices(self, s, x, ev):
        y, b = ev.y, ev.b
        yb = y * b
        return (np.stack([np.stack([y, yb], -1), np.stack([yb, yb * b], -1)], -2),
                (np.stack([np.ones_like(b), b], -1) * np.sqrt(y)[..., None])[..., None])


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
    """Jumps given by excursions of a diffusion dzeta = a(zeta) dB + b dt.

    The nested diffusion, its flow derivative M, the inverse flow and the
    Malliavin matrix of the excursion are advanced together by
    Euler-Maruyama on one shared Brownian draw taken from the jump's
    sub-stream.  The displacement is the jump coefficient's input.

    The coefficient callables take states z of shape (n, dim), one row per
    lane, and return a (n, dim, n_brownian) and da/dz
    (n, dim, n_brownian, dim); a value without the lane axis is taken to
    hold for every lane.  The drift b is no function of z: it is a per-lane
    constant that `evolve` takes as an argument, so the flow derivative
    follows the diffusion coefficient only.
    """

    dim: int
    n_brownian: int
    diff: Callable                     # a(z)
    step: float                        # nested Euler step
    diff_jac: Callable | None = None   # da/dz

    @property
    def block_dim(self):
        return self.dim

    def eval_jumps(self, s, x, lanes):
        incs = nested_increments(lanes, lanes.marks, self.step, self.n_brownian)
        return self.evolve(x, lanes.marks, incs)

    # the inverse flow is checked for overflow and raised as an error, so
    # numpy's overflow warnings would only repeat the failure
    @np.errstate(over="ignore", invalid="ignore")
    def evolve(self, x: np.ndarray, y: np.ndarray, incs: np.ndarray,
               drift: np.ndarray | None = None) -> WienerOUEval:
        """Run the excursions of n lanes in lockstep.

        x (n, dim) start points, y (n,) durations, incs
        (steps, n, n_brownian) the Brownian increments on the lanes'
        `prm.nested_grid`, and drift, when given, the (n, dim) drift b of
        each lane.  The lanes are walked sorted by step count,
        longest first, so the lanes still stepping at nested step k are a
        leading slice, and only that slice is stepped: a lane past its last
        step keeps its values, as the zero increment over a zero width it
        is given there would.  `diff` and `diff_jac` are evaluated on the
        stepping lanes' states.  The result carries the lane axis, in the
        order of x.
        """
        d, q = self.dim, self.n_brownian
        x = np.asarray(x, dtype=float)
        n = len(x)
        counts, widths = nested_grid(y, self.step)
        if incs.shape != widths.shape + (q,):
            raise ValueError(f"increments of shape {incs.shape} do not match the step grid "
                             f"{widths.shape} of the durations")
        order = np.argsort(-counts, kind="stable")
        live = np.count_nonzero(counts > np.arange(len(widths))[:, None], axis=1).tolist()
        # per-step views, lanes in walking order: widths (steps, n, 1, 1) and
        # increments as columns (steps, n, q, 1) and as noise (steps, n, q, 1, 1)
        dtms = widths[:, order, None, None]
        dbs = incs[:, order, :, None]
        noises = dbs[..., None]
        drift_dt = (None if drift is None
                    else np.broadcast_to(drift, (n, d))[order] * dtms[..., 0])
        flows = self.diff_jac is not None
        z = x[order]
        m = np.tile(np.eye(d), (n, 1, 1))
        m_inv = m.copy()
        integ = np.zeros((n, d, d))    # int M^-1 a a^T M^-T ds
        for k, l in enumerate(live):
            # views of the stepping lanes; a and da/dz broadcast over
            # them when given without the lane axis
            dtm, db = dtms[k, :l], dbs[k, :l]
            zl, ml, mil, il = z[:l], m[:l], m_inv[:l], integ[:l]
            a = self.diff(zl)
            mi_a = mil @ a
            il += (mi_a @ mi_a.transpose(0, 2, 1)) * dtm
            if flows:
                # shared-noise Euler step for both flows; with A_r = da[:, r]/dz
                # and P_r = M^-1 A_r, the inverse flow carries the Ito
                # correction sum_r P_r P_r dt
                A = np.swapaxes(self.diff_jac(zl), -3, -2)
                P = mil[:, None] @ A
                noise = noises[k, :l]
                dm = (A * noise).sum(axis=1) @ ml
                dmi = (P @ P).sum(axis=1) * dtm - (P * noise).sum(axis=1)
            zl += (a @ db)[..., 0]
            if drift_dt is not None:
                zl += drift_dt[k, :l]
            if flows:
                ml += dm
                mil += dmi
                if not np.isfinite(mil).all():
                    raise FloatingPointError(f"inverse flow overflow at nested step {k}")
        back = np.argsort(order)
        m, m_inv = m[back], m_inv[back]
        gamma_m = m @ integ[back] @ m.transpose(0, 2, 1)
        return WienerOUEval(y=np.asarray(y, dtype=float), z=z[back] - x, gamma_m=gamma_m,
                            m=m, m_inv=m_inv)

    def jump_matrices(self, s, x, ev: WienerOUEval):
        """The excursion's Malliavin matrix and its symmetric square root."""
        return ev.gamma_m, _psd_sqrt(ev.gamma_m)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square roots of PSD matrices, over the last two axes."""
    w, v = np.linalg.eigh(0.5 * (mat + np.swapaxes(mat, -1, -2)))
    return v * np.sqrt(np.clip(w, 0.0, None))[..., None, :] @ np.swapaxes(v, -1, -2)

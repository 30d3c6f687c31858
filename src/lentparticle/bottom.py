"""Mark-space Dirichlet structures used per jump.

Each structure knows how to

* resolve a raw mark into whatever the coefficients need (possibly running
  a nested simulation addressed by the jump's sub-stream),
* produce the quadratic-form matrix of the jump coefficient in the mark
  variable (a symmetric PSD d x d matrix),
* produce the generator applied to the coefficient, and
* produce the linear map sending an auxiliary rho-block to a zero-mean
  gradient sample whose second moment is that matrix.

Two families are provided: a weighted structure on a Euclidean mark
interval, and Wiener-space structures (Ornstein-Uhlenbeck) for jumps that
are excursions of a nested diffusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .measures import QUAD_ABS_TOL, LevyMeasureSpec
from .prm import MarkedPoissonPath, nested_brownian
from .rng import TAG_NESTED, RngStream


class CapabilityError(RuntimeError):
    """A bottom structure lacks a capability an operation requires."""


class BottomStructure:
    """Interface; see module docstring for the contract."""

    block_dim: int = 1

    def eval_jump(self, s, x, path: MarkedPoissonPath, j: int):
        raise NotImplementedError

    def gamma_c(self, s, x, ev) -> np.ndarray:
        raise NotImplementedError

    def gen_c(self, s, x, ev) -> np.ndarray:
        raise CapabilityError("this bottom structure has no generator")

    def flat_matrix(self, s, x, ev) -> np.ndarray:
        """Linear map (d, block_dim) sending a rho-block to a gradient sample."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Euclidean mark space with carre du champ weight xi
# ---------------------------------------------------------------------------

@dataclass
class EuclideanBottom(BottomStructure):
    """Weighted structure on a mark interval.

    The quadratic form on scalar functions is xi(u) * f'(u)**2 and the
    generator is the symmetric operator

        a[f] = xi f''/2 + (xi' + xi m'/m) f'/2

    where m is the density of the jump measure.  The formula comes from
    integrating the form by parts against m; it is the generator only on
    functions whose weighted flux xi*m*f' vanishes at both endpoints of
    the support, which is a property of the scenario, not of this class.

    c_u / c_uu are the mark-derivatives of the jump coefficient,
    signatures (s, x, u) -> (d,).
    """

    xi: Callable
    xi_prime: Callable
    c_u: Callable
    c_uu: Callable | None = None
    dlog_m: Callable | None = None      # m'/m of the measure density

    block_dim = 1

    def eval_jump(self, s, x, path, j):
        return float(path.marks[j])

    def gamma_c(self, s, x, u):
        du = np.atleast_1d(np.asarray(self.c_u(s, x, u), dtype=float))
        return self.xi(u) * np.outer(du, du)

    def gen_c(self, s, x, u):
        if self.c_uu is None or self.dlog_m is None:
            raise CapabilityError("generator needs c_uu and the measure log-density slope")
        slope = self.dlog_m(u)
        if not math.isfinite(slope):
            raise ValueError(f"m'/m diverges at u={u}; generator undefined there")
        du = np.atleast_1d(np.asarray(self.c_u(s, x, u), dtype=float))
        duu = np.atleast_1d(np.asarray(self.c_uu(s, x, u), dtype=float))
        return 0.5 * self.xi(u) * duu + 0.5 * (self.xi_prime(u) + self.xi(u) * slope) * du

    def flat_matrix(self, s, x, u):
        du = np.atleast_1d(np.asarray(self.c_u(s, x, u), dtype=float))
        return (math.sqrt(self.xi(u)) * du)[:, None]


def generator_symmetry_residual(bottom: EuclideanBottom, spec: LevyMeasureSpec,
                                f, fp, fpp, g, gp) -> float:
    """Quadrature value of  int a[f] g dnu + 1/2 int xi f' g' dnu.

    Zero (within quadrature tolerance) whenever the boundary flux of the
    test pair vanishes; used as the executable symmetry check for the
    generator formula.
    """
    lo, hi = spec.lower, spec.upper

    def left(u):
        a_f = (0.5 * bottom.xi(u) * fpp(u)
               + 0.5 * (bottom.xi_prime(u) + bottom.xi(u) * bottom.dlog_m(u)) * fp(u))
        return a_f * g(u) * float(spec.density(u))

    def right(u):
        return 0.5 * bottom.xi(u) * fp(u) * gp(u) * float(spec.density(u))

    lv, _ = quad(left, lo, hi, epsabs=QUAD_ABS_TOL, limit=400)
    rv, _ = quad(right, lo, hi, epsabs=QUAD_ABS_TOL, limit=400)
    return lv + rv


# ---------------------------------------------------------------------------
# Wiener marks: closed-form structure for coefficients (B_y, B_y^2/2)
# ---------------------------------------------------------------------------

@dataclass
class WienerSquareEval:
    y: float
    b: float          # Brownian value at time y


class WienerSquareBottom(BottomStructure):
    """Ornstein-Uhlenbeck structure for the jump coefficient (B_y, B_y^2/2).

    The mark is a pair (duration y, Brownian path); only the terminal
    value B_y enters the coefficient, so it is simulated exactly as
    sqrt(y) * Z from the jump's sub-stream.  The per-jump matrix is the
    exact closed form [[y, y*B], [y*B, y*B^2]].
    """

    block_dim = 1

    def eval_jump(self, s, x, path, j):
        y = float(path.marks[j])
        z = float(path.jump_stream(j, TAG_NESTED).generator().standard_normal())
        return WienerSquareEval(y=y, b=math.sqrt(y) * z)

    def coefficient(self, ev: WienerSquareEval) -> np.ndarray:
        return np.array([ev.b, 0.5 * ev.b ** 2])

    def gamma_c(self, s, x, ev):
        y, b = ev.y, ev.b
        return np.array([[y, y * b], [y * b, y * b * b]])

    def gen_c(self, s, x, ev):
        # OU generator: a[f(B_y)] = y f''/2 - B_y f'/2
        y, b = ev.y, ev.b
        return np.array([-0.5 * b, 0.5 * (y - b * b)])

    def flat_matrix(self, s, x, ev):
        y, b = ev.y, ev.b
        return (np.array([1.0, b]) * math.sqrt(y))[:, None]


# ---------------------------------------------------------------------------
# Wiener marks: nested diffusion run for the jump's duration
# ---------------------------------------------------------------------------

@dataclass
class WienerOUEval:
    y: float
    z: np.ndarray           # displacement zeta_y^x - x
    gamma_m: np.ndarray     # Malliavin matrix of zeta_y^x, (d, d)
    m: np.ndarray           # flow derivative M_y
    m_inv: np.ndarray


@dataclass
class WienerOUBottom(BottomStructure):
    """Jumps given by excursions of a diffusion dzeta = a(zeta) dB + b(zeta) dt.

    The nested diffusion, its flow derivative M, the inverse flow and the
    Malliavin matrix of the excursion are advanced together by
    Euler-Maruyama on one shared Brownian draw taken from the jump's
    sub-stream.  An outer map applied to the displacement (with its
    Jacobian) turns the excursion into the jump coefficient; identity by
    default.
    """

    dim: int
    n_brownian: int
    diff: Callable                     # a(z) -> (dim, n_brownian)
    drift: Callable | None = None      # b(z) -> (dim,)
    diff_jac: Callable | None = None   # da/dz: (dim, n_brownian, dim)
    drift_jac: Callable | None = None  # db/dz: (dim, dim)
    step: float = 1e-2
    outer: Callable | None = None      # F(z) -> (dim,)
    outer_jac: Callable | None = None  # F'(z) -> (dim, dim)

    @property
    def block_dim(self):
        return self.dim

    def eval_jump(self, s, x, path, j):
        y = float(path.marks[j])
        incs = nested_brownian(path, j, y, self.step, dim=self.n_brownian)
        return self.evolve(np.asarray(x, dtype=float), y, incs)

    def evolve(self, x: np.ndarray, y: float, incs: np.ndarray) -> WienerOUEval:
        d, q = self.dim, self.n_brownian
        z = x.copy()
        m = np.eye(d)
        m_inv = np.eye(d)
        integ = np.zeros((d, d))    # int M^-1 a a^T M^-T ds
        t = 0.0
        for k in range(incs.shape[0]):
            dt = min(self.step, y - t)
            db = incs[k]
            a = np.asarray(self.diff(z), dtype=float).reshape(d, q)
            b = (np.asarray(self.drift(z), dtype=float)
                 if self.drift is not None else np.zeros(d))
            mi_a = m_inv @ a
            integ = integ + (mi_a @ mi_a.T) * dt
            if self.diff_jac is not None:
                aj = np.asarray(self.diff_jac(z), dtype=float).reshape(d, q, d)
            else:
                aj = np.zeros((d, q, d))
            bj = (np.asarray(self.drift_jac(z), dtype=float).reshape(d, d)
                  if self.drift_jac is not None else np.zeros((d, d)))
            # shared-noise Euler step for the state and both flows; the
            # inverse flow carries the Ito correction term (Da)^2 dt
            dm = np.einsum("iqj,jk,q->ik", aj, m, db) + bj @ m * dt
            mi_aj = np.einsum("jk,kql->jql", m_inv, aj)
            dmi = -np.einsum("jql,q->jl", mi_aj, db)
            dmi = dmi + (np.einsum("jqa,aql->jl", mi_aj, np.einsum("ab,bql->aql", m_inv, aj))
                         - m_inv @ bj) * dt
            z = z + a @ db + b * dt
            m = m + dm
            m_inv = m_inv + dmi
            if not np.all(np.isfinite(m_inv)):
                raise FloatingPointError(f"inverse flow overflow at nested step {k}")
            t += dt
        gamma_m = m @ integ @ m.T
        disp = z - x
        if self.outer is not None:
            jac = np.asarray(self.outer_jac(disp), dtype=float)
            gamma_m = jac @ gamma_m @ jac.T
            disp_out = np.asarray(self.outer(disp), dtype=float)
        else:
            disp_out = disp
        return WienerOUEval(y=y, z=disp_out, gamma_m=gamma_m, m=m, m_inv=m_inv)

    def gamma_c(self, s, x, ev: WienerOUEval):
        return ev.gamma_m

    def flat_matrix(self, s, x, ev: WienerOUEval):
        return _psd_sqrt(ev.gamma_m)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (mat + mat.T))
    return v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T


def wiener_ou_eval(bottom: WienerOUBottom, x, y: float, stream: RngStream):
    """Run one nested excursion from an explicit stream.

    Returns (displacement, gamma_M, M, M_inv) for direct inspection;
    `eval_jump` is the path-addressed equivalent.
    """
    if y < 0:
        raise ValueError("duration must be >= 0")
    x = np.asarray(x, dtype=float)
    if y == 0:
        d = bottom.dim
        return np.zeros(d), np.zeros((d, d)), np.eye(d), np.eye(d)
    n = int(np.ceil(y / bottom.step))
    widths = np.full(n, bottom.step)
    widths[-1] = y - bottom.step * (n - 1)
    gen = stream.generator()
    incs = gen.standard_normal((n, bottom.n_brownian)) * np.sqrt(widths)[:, None]
    ev = bottom.evolve(x, y, incs)
    return ev.z, ev.gamma_m, ev.m, ev.m_inv

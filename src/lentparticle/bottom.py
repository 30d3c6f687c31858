"""Mark-space Dirichlet structures used per jump.

Each structure knows how to

* resolve a raw mark into whatever the coefficients need (possibly running
  a nested simulation addressed by the jump's sub-stream),
* produce the quadratic-form matrix Gamma of the jump coefficient in the
  mark variable, a symmetric PSD d x d matrix (`jump_matrices`),
* and, on demand, the injector: the linear map sending an auxiliary
  rho-block to a zero-mean gradient sample whose second moment is Gamma
  (`injector`).  Only the Monte Carlo gradient (`lent.gradient_samples`)
  reads it, so the event loop never computes it.

Marks are resolved for many paths at once: `eval_jumps` takes one jump
per lane (`prm.JumpLanes`) and returns a resolution with a leading lane
axis, `jump_matrices` maps it to the (n, d, d) matrices and `injector` to
the (n, d, block_dim) injectors.

Two families are provided: a weighted structure on a Euclidean mark
interval, and Wiener-space structures (Ornstein-Uhlenbeck) for jumps that
are excursions of a nested diffusion.  The nested one also resolves a
chunk's jumps several per lane, each lane's excursions back to back on one
clock (`WienerOUBottom.run_excursions`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .prm import JumpLanes, nested_grid, nested_steps
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
        """Quadratic-form matrices Gamma (n, d, d) of the jumps resolved as `ev`."""
        raise NotImplementedError

    def injector(self, s, x, ev):
        """Injectors (n, d, block_dim) of the jumps resolved as `ev`: the
        linear maps sending a rho-block to a gradient sample whose second
        moment is Gamma, so that injector @ injector^T = Gamma."""
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

    def _du_xi(self, s, x, u):
        """c_u and the weight xi at the marks u."""
        return (np.atleast_1d(np.asarray(self.c_u(s, x, u), dtype=float)),
                np.asarray(self.xi(u), dtype=float))

    def jump_matrices(self, s, x, u):
        du, xi = self._du_xi(s, x, u)
        return xi[..., None, None] * (du[..., :, None] * du[..., None, :])

    def injector(self, s, x, u):
        du, xi = self._du_xi(s, x, u)
        return np.sqrt(xi)[..., None, None] * du[..., :, None]


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
        return np.stack([np.stack([y, yb], -1), np.stack([yb, yb * b], -1)], -2)

    def injector(self, s, x, ev):
        return (np.stack([np.ones_like(ev.b), ev.b], -1) * np.sqrt(ev.y)[..., None])[..., None]


# ---------------------------------------------------------------------------
# Wiener marks: nested diffusion run for the jump's duration
# ---------------------------------------------------------------------------

@dataclass
class WienerOUEval:
    """Excursions; every field has a leading axis, one row per excursion."""

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
    hold for every lane.  The drift b is no function of z: it is a
    per-excursion constant (`nested_drift`), so the flow derivative follows
    the diffusion coefficient only.

    One scheme runs every excursion: `run_excursions` runs several per lane
    back to back on one nested clock, and `eval_jumps` (on the lanes' own
    draws) and `evolve` (on given increments) are its case of one excursion
    per lane.  `run_excursions` reports each lane's first inverse flow
    overflow to its caller; the other two raise the first of them.
    """

    dim: int
    n_brownian: int
    diff: Callable                     # a(z)
    step: float                        # nested Euler step
    diff_jac: Callable | None = None   # da/dz

    @property
    def block_dim(self):
        return self.dim

    def nested_drift(self, lanes: JumpLanes):
        """The drift b of each lane's excursion, (n, dim), or None for none."""
        return None

    def eval_jumps(self, s, x, lanes):
        ev, _, failed = self.run_excursions(x, np.arange(len(x)), lanes, None)
        if failed:
            raise flow_overflow(min(step for _, step in failed))
        return ev

    def evolve(self, x: np.ndarray, y: np.ndarray, incs: np.ndarray,
               drift: np.ndarray | None = None) -> WienerOUEval:
        """Run one excursion per lane: the one-row-per-lane case of `_clock`.

        x (n, dim) start points, y (n,) durations, incs
        (steps, n, n_brownian) the Brownian increments on the lanes'
        `prm.nested_grid`, and drift, when given, the (n, dim) drift b of
        each lane.  The result carries the lane axis, in the order of x.
        Raises FloatingPointError at the first nested step at which an
        inverse flow overflows.
        """
        x = np.asarray(x, dtype=float)
        n = len(x)
        counts, widths = nested_grid(y, self.step)
        if incs.shape != widths.shape + (self.n_brownian,):
            raise ValueError(f"increments of shape {incs.shape} do not match the step grid "
                             f"{widths.shape} of the durations")
        steps = np.arange(len(widths)) < counts[:, None]        # lane-major
        ev, _, failed = self._clock(
            x, np.arange(n), np.asarray(y, dtype=float), counts, widths.T[steps],
            incs.transpose(1, 0, 2)[steps],
            None if drift is None else np.broadcast_to(drift, (n, self.dim)), None)
        if failed:
            raise flow_overflow(min(step for _, step in failed))
        return ev

    def run_excursions(self, x: np.ndarray, lane: np.ndarray, jumps: JumpLanes, jump):
        """Run the excursions of `jumps` on one nested clock (`_clock`): row r
        of `jumps` is an excursion of lane lane[r] of x, of duration
        jumps.marks[r], with the draws `eval_jumps` gives it, and a lane runs
        its rows back to back in the order they come."""
        by_lane = np.argsort(lane, kind="stable")
        steps = jumps[by_lane]
        drawn, widths, incs = nested_steps(steps, steps.marks, self.step, self.n_brownian)
        counts = np.empty_like(drawn)
        counts[by_lane] = drawn
        return self._clock(x, lane, jumps.marks, counts, widths, incs,
                           self.nested_drift(jumps), jump)

    # an overflowing inverse flow is reported as an error, so numpy's
    # overflow warnings would only repeat the failure
    @np.errstate(over="ignore", invalid="ignore")
    def _clock(self, x, lane, y, counts, widths, incs, drift, jump):
        """The nested Euler scheme of excursions run back to back on one clock.

        Row r is an excursion of lane lane[r] of x (n, dim), of duration
        y[r] and drift drift[r] (drift None: none), in counts[r] steps.  A
        lane runs its rows in the order they come, and `widths` and `incs`
        (n_brownian) hold the steps of lane 0, then of lane 1, and so on,
        each lane's in the order it runs them.  The lanes are walked sorted
        by their total step count, longest first, so the lanes stepping at
        tick t are a leading slice, and only they are stepped.  An
        excursion starts from its lane's state, and its resolution is formed
        at the tick it ends.  Then `jump(rows, x, ev)`, given the rows ending
        there, with their start states and resolutions, returns their lanes'
        next states, where their next rows start (without `jump`, a lane
        runs one row).

        Returns the resolutions in row order, the lanes' final states, and
        (row, nested step) of the first overflow of each lane's inverse
        flow.  An overflowing lane runs on, so that a caller can tell which
        failure comes first in its own order.
        """
        d, n, r = self.dim, len(x), len(y)
        start, ending, heads, succ = _schedule(lane, counts)
        end = start + counts
        total = np.zeros(n, dtype=np.int64)
        np.add.at(total, lane, counts)
        order = np.argsort(-total, kind="stable")
        at = np.empty(n, dtype=np.int64)            # each lane's place in walking order
        at[order] = np.arange(n)
        ticks = int(total.max(initial=0))
        live = np.searchsorted(-total[order], -np.arange(ticks)).tolist()
        base = (np.cumsum(total) - total)[order]    # each lane's first step in `widths`
        row_lane = at[lane]
        if drift is not None:
            lane_drift = np.empty((n, d))           # the drift of each lane's current row
            lane_drift[row_lane[heads]] = drift[heads]

        xs = x[order]                   # each lane's state where its current row started
        z = xs.copy()
        eye = np.eye(d)
        m = np.tile(eye, (n, 1, 1))
        m_inv = m.copy()
        integ = np.zeros((n, d, d))     # int M^-1 a a^T M^-T ds
        out = WienerOUEval(y=y, z=np.empty((r, d)), gamma_m=np.empty((r, d, d)),
                           m=np.empty((r, d, d)), m_inv=np.empty((r, d, d)))
        failed, broken = [], np.zeros(n, dtype=bool)
        for t in range(ticks + 1):
            for rows in ending.get(t, ()):
                ln = row_lane[rows]
                x_pre, ml = xs[ln], m[ln]
                ev = WienerOUEval(y=y[rows], z=z[ln] - x_pre,
                                  gamma_m=ml @ integ[ln] @ ml.transpose(0, 2, 1),
                                  m=ml, m_inv=m_inv[ln])
                out.z[rows], out.gamma_m[rows], out.m[rows], out.m_inv[rows] = (
                    ev.z, ev.gamma_m, ev.m, ev.m_inv)
                if jump is not None:
                    xs[ln] = z[ln] = jump(rows, x_pre, ev)
                    m[ln] = m_inv[ln] = eye
                    integ[ln] = 0.0
                    if drift is not None:
                        lane_drift[ln] = drift[succ[rows]]
            if t == ticks:
                break
            l = live[t]
            at_t = base[:l] + t                     # the stepping lanes' steps
            w = widths[at_t]
            if not self._step(z[:l], m[:l], m_inv[:l], integ[:l], w[:, None, None],
                              incs[at_t][..., None],
                              None if drift is None else lane_drift[:l] * w[:, None]):
                bad = np.flatnonzero(~np.isfinite(m_inv[:l]).all(axis=(1, 2)) & ~broken[:l])
                broken[bad] = True
                for row in np.flatnonzero(np.isin(row_lane, bad) & (start <= t) & (t < end)):
                    failed.append((int(row), t - int(start[row])))
        x_end = np.empty_like(xs)
        x_end[order] = xs
        return out, x_end, failed

    def _step(self, z, m, m_inv, integ, dtm, db, drift_dt) -> bool:
        """One Euler step, in place, of the stepping lanes' nested states z
        (l, dim), flows m and m_inv and integrals integ (l, dim, dim), with
        widths dtm (l, 1, 1), increments db (l, n_brownian, 1) and drift
        times width drift_dt (l, dim) or None.  Returns False if an inverse
        flow is no longer finite."""
        # a and da/dz broadcast over the lanes when given without the lane axis
        a = self.diff(z)
        mi_a = m_inv @ a
        integ += (mi_a @ mi_a.transpose(0, 2, 1)) * dtm
        flows = self.diff_jac is not None
        if flows:
            # shared-noise Euler step for both flows; with A_r = da[:, r]/dz
            # and P_r = M^-1 A_r, the inverse flow carries the Ito
            # correction sum_r P_r P_r dt
            A = np.swapaxes(self.diff_jac(z), -3, -2)
            P = m_inv[:, None] @ A
            noise = db[..., None]
            dm = (A * noise).sum(axis=1) @ m
            dmi = (P @ P).sum(axis=1) * dtm - (P * noise).sum(axis=1)
        z += (a @ db)[..., 0]
        if drift_dt is not None:
            z += drift_dt
        if not flows:
            return True
        m += dm
        m_inv += dmi
        return bool(np.isfinite(m_inv).all())

    def jump_matrices(self, s, x, ev: WienerOUEval):
        """The excursion's Malliavin matrix."""
        return ev.gamma_m

    def injector(self, s, x, ev: WienerOUEval):
        """The symmetric square root of the excursion's Malliavin matrix."""
        return _psd_sqrt(ev.gamma_m)


def _schedule(lane: np.ndarray, counts: np.ndarray):
    """When the rows of `_clock` run, each lane's back to back in the order
    they come.  Returns each row's first tick (its lane's step count before
    it), the rows ending at each tick in groups of distinct lanes, each
    lane's first row, and each row's successor in its lane (itself for the
    lane's last row)."""
    r = len(lane)
    i = np.arange(r)
    by_lane = np.argsort(lane, kind="stable")
    c = counts[by_lane]
    same = lane[by_lane][1:] == lane[by_lane][:-1]     # sorted row i + 1 follows row i
    before = np.cumsum(c) - c
    start = before - before[np.maximum.accumulate(np.where(np.r_[True, ~same], i, 0))]
    end = start + c
    # a zero-step row ends where the row before it in its lane does: the
    # rows ending at one tick take their turns by `rank`
    tied = np.r_[False, same & (end[1:] == end[:-1])]
    rank = i - np.maximum.accumulate(np.where(tied, 0, i))
    by_end = np.lexsort((rank, end))
    ending = {}
    for group in np.split(by_end, np.flatnonzero(np.diff(end[by_end])
                                                 | np.diff(rank[by_end])) + 1):
        ending.setdefault(int(end[group[0]]), []).append(by_lane[group])
    first, succ = np.empty(r, dtype=np.int64), np.empty(r, dtype=np.int64)
    first[by_lane] = start
    succ[by_lane] = by_lane[np.where(np.r_[same, False], i + 1, i)]
    return first, ending, by_lane[np.r_[True, ~same]], succ


def flow_overflow(step: int) -> FloatingPointError:
    """The error of an inverse flow that overflows at nested step `step`."""
    return FloatingPointError(f"inverse flow overflow at nested step {step}")


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square roots of PSD matrices, over the last two axes."""
    w, v = np.linalg.eigh(0.5 * (mat + np.swapaxes(mat, -1, -2)))
    return v * np.sqrt(np.clip(w, 0.0, None))[..., None, :] @ np.swapaxes(v, -1, -2)

"""Jump-adapted solver for SDEs driven by a marked Poisson measure.

The state jumps by c(s, X-, u) at each point of the measure (optionally
compensated) and moves continuously under a drift/diffusion sigma between
jumps.  The same event-by-event recursion also propagates, on demand,

* the flow derivative K (Jacobian of x0 -> X) and its inverse Kbar,
* the covariance accumulator C = sum Kbar gamma[c] Kbar^T (taken with the
  post-jump Kbar, so that Gamma(t) = K C K^T at any time),
* the generator path A[X], which jumps by
  D_x c . A- + 1/2 D^2_x c : Gamma- + a[c] and drifts by minus the
  measure-average of the same expression (only the a[c] term survives the
  averaging when the equation is uncompensated),
* for scalar mark-sum scenarios (those carrying SimpleJets), the order-2
  table of carre-du-champ brackets, which the integration-by-parts weights
  consume.  It is computed after the event loop by `SimpleJets.table`, the
  same code the vectorised ensemble runs.

Jump times are events of the grid, and an Euler grid is added only when
the scenario has sigma or compensation.  Pure-jump scenarios are therefore
solved with no discretization error at all.  Their generator path drifts
too, and that drift is evaluated once per inter-jump gap, at the gap's
start; this is exact when the drift does not depend on s between jumps
(the state is constant there), which holds for every catalog scenario.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bottom import BottomStructure
from .measures import LevyMeasureSpec, compensator_integral
from .prm import MarkedPoissonPath
from .rng import TAG_NOISE, RngStream

DRIVER_TIME = "time"
DRIVER_BROWNIAN = "brownian"

DET_FLOOR = 1e-12


@dataclass
class SimpleJets:
    """Closed-form mark jets for scalar jump heights c(s,x,u) = h(u).

    Carries h with three derivatives, the form weight xi with two, and the
    log-density slope r = m'/m with one.  From these it assembles the
    derived quantities the order-2 calculus needs:

        g1 = xi h'^2                 (per-jump covariance increment)
        ah = xi h''/2 + (xi'+xi r) h'/2     (generator applied to h)
        g2 = xi h' g1'               (bracket of X with its covariance)

    plus the brackets of X with ah and g2.  The compensator constants
    int h dnu and int a[h] dnu are computed once per measure and memoised.
    """

    h: Callable
    hp: Callable
    hpp: Callable
    hppp: Callable
    xi: Callable
    xip: Callable
    xipp: Callable
    r: Callable
    rp: Callable
    _means: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _mean(self, name: str, measure: LevyMeasureSpec) -> float:
        key = (name, measure)
        if key not in self._means:
            self._means[key] = float(compensator_integral(measure, getattr(self, name), 1.0))
        return self._means[key]

    def mean_h(self, measure: LevyMeasureSpec) -> float:
        """int h dnu over the truncated measure."""
        return self._mean("h", measure)

    def mean_ah(self, measure: LevyMeasureSpec) -> float:
        """int a[h] dnu over the truncated measure."""
        return self._mean("ah", measure)

    def table(self, marks: np.ndarray, counts, t: float, measure: LevyMeasureSpec,
              compensated: bool = False) -> dict:
        """Order-2 table of X = N(h) at time t, one entry per path.

        Path i owns the next counts[i] marks of the concatenated array.
        Keys: X (compensated by t int h dnu if asked), gamma = <X, X>,
        A = A[X] (always compensated), G2 = <X, gamma>, XA = <X, A> and
        XG2 = <X, G2>.
        """
        def seg(fn):
            return _segment_sum(np.broadcast_to(fn(marks), marks.shape).astype(float), counts)

        x = seg(self.h)
        if compensated:
            x = x - t * self.mean_h(measure)
        return {"X": x, "gamma": seg(self.g1), "A": seg(self.ah) - t * self.mean_ah(measure),
                "G2": seg(self.g2), "XA": seg(self.bracket_x_ah), "XG2": seg(self.bracket_x_g2)}

    def g1(self, u):
        return self.xi(u) * self.hp(u) ** 2

    def g1p(self, u):
        return self.xip(u) * self.hp(u) ** 2 + 2 * self.xi(u) * self.hp(u) * self.hpp(u)

    def g1pp(self, u):
        return (self.xipp(u) * self.hp(u) ** 2
                + 4 * self.xip(u) * self.hp(u) * self.hpp(u)
                + 2 * self.xi(u) * (self.hpp(u) ** 2 + self.hp(u) * self.hppp(u)))

    def ah(self, u):
        return (0.5 * self.xi(u) * self.hpp(u)
                + 0.5 * (self.xip(u) + self.xi(u) * self.r(u)) * self.hp(u))

    def ahp(self, u):
        return (0.5 * self.xip(u) * self.hpp(u) + 0.5 * self.xi(u) * self.hppp(u)
                + 0.5 * (self.xipp(u) + self.xip(u) * self.r(u) + self.xi(u) * self.rp(u)) * self.hp(u)
                + 0.5 * (self.xip(u) + self.xi(u) * self.r(u)) * self.hpp(u))

    def g2(self, u):
        return self.xi(u) * self.hp(u) * self.g1p(u)

    def g2p(self, u):
        return (self.xip(u) * self.hp(u) * self.g1p(u)
                + self.xi(u) * self.hpp(u) * self.g1p(u)
                + self.xi(u) * self.hp(u) * self.g1pp(u))

    # brackets of X = N(h) with the tracked scalars
    def bracket_x_ah(self, u):
        return self.xi(u) * self.hp(u) * self.ahp(u)

    def bracket_x_g2(self, u):
        return self.xi(u) * self.hp(u) * self.g2p(u)


def _segment_sum(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts))
    nz = counts > 0
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    out[nz] = np.add.reduceat(values, offsets[nz])
    return out


@dataclass
class Scenario:
    """Full description of one solvable model.

    Coefficient signatures: c(s, x, ev) -> (d,), dx_c(s, x, ev) -> (d, d),
    dxx_c(s, x, ev) -> (d, d, d) with axes (component, dx_j, dx_k); ev is
    whatever the bottom structure resolves a mark into.  The comp_*
    callables are the measure-averages of the corresponding jets,
    signature (s, x); when omitted they are computed by quadrature, which
    only works for plain Euclidean marks.

    Without sigma and compensation the state only jumps, and `integrate`
    evaluates the generator-path drift (comp_gen_c) once per inter-jump
    gap; such a scenario's comp_gen_c must not depend on s, as none in the
    catalog does.
    """

    name: str
    dim: int
    x0: np.ndarray
    horizon: float
    measure: LevyMeasureSpec
    bottom: BottomStructure
    c: Callable
    dx_c: Callable | None = None
    dxx_c: Callable | None = None
    sigma: Callable | None = None          # (s, x) -> (d,) drift-like for time driver,
    dx_sigma: Callable | None = None       # (d, q) for brownian driver
    n_brownian: int = 1
    compensated: bool = False
    driver: str = DRIVER_TIME
    n_steps: int = 1000
    jet_order: int = 0
    comp_c: Callable | None = None
    comp_dx_c: Callable | None = None
    comp_dxx_c: Callable | None = None
    comp_gen_c: Callable | None = None
    simple: SimpleJets | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if self.x0.shape != (self.dim,):
            raise ValueError("x0 must have the scenario dimension")
        if self.driver not in (DRIVER_TIME, DRIVER_BROWNIAN):
            raise ValueError(f"unknown driver {self.driver!r}")
        if self.jet_order not in (0, 1, 2):
            raise ValueError("jet order must be 0, 1 or 2")


@dataclass
class JumpRecord:
    """Everything resolved at one jump, for reuse by later passes."""

    index: int
    time: float
    ev: object
    coeff: np.ndarray
    jac: np.ndarray | None = None          # I + D_x c
    gamma: np.ndarray | None = None        # bottom matrix of c at this jump
    flat: np.ndarray | None = None         # (d, block_dim) gradient injector


@dataclass
class Trajectory:
    scenario: Scenario
    path: MarkedPoissonPath
    times: np.ndarray                      # event times, starts at 0 ends at T
    states: np.ndarray                     # (n_events, d), post-event states
    jumps: list
    jump_events: np.ndarray                # event index of each jump
    k_events: list | None = None           # K at each event
    kbar_events: list | None = None
    c_events: list | None = None           # accumulator C at each event
    a_events: list | None = None           # generator path at each event
    gamma_incs: list | None = None         # per-jump Kbar gamma Kbar^T terms
    order2: dict | None = None             # scalar bracket table at T

    @property
    def x_final(self):
        return self.states[-1]

    @property
    def k_final(self):
        return self.k_events[-1]

    @property
    def kbar_final(self):
        return self.kbar_events[-1]

    @property
    def c_final(self):
        return self.c_events[-1]

    @property
    def a_final(self):
        return self.a_events[-1]


class EventError(RuntimeError):
    """Numerical failure at a specific event of one trajectory."""

    def __init__(self, message, event_index):
        super().__init__(f"{message} (event {event_index})")
        self.event_index = event_index


def _quadrature_average(scenario, fn_of_u, s, x, shape):
    def f(u):
        return np.asarray(fn_of_u(s, x, u), dtype=float).reshape(-1)

    flat = np.atleast_1d(compensator_integral(scenario.measure, f, 1.0))
    return flat.reshape(shape)


def _comp_jets(scenario, s, x, gamma, need_a):
    """Measure-averaged drift pieces at (s, x): (dx, ddx:Gamma, gen)."""
    d = scenario.dim
    out_dx = out_dxx = out_gen = None
    if scenario.compensated:
        if scenario.comp_dx_c is not None:
            out_dx = np.asarray(scenario.comp_dx_c(s, x), dtype=float).reshape(d, d)
        elif scenario.dx_c is not None:
            out_dx = _quadrature_average(scenario, scenario.dx_c, s, x, (d, d))
        else:
            out_dx = np.zeros((d, d))
    if need_a:
        if scenario.compensated:
            if scenario.comp_dxx_c is not None:
                dxx = np.asarray(scenario.comp_dxx_c(s, x), dtype=float).reshape(d, d, d)
            elif scenario.dxx_c is not None:
                dxx = _quadrature_average(scenario, scenario.dxx_c, s, x, (d, d, d))
            else:
                dxx = np.zeros((d, d, d))
            out_dxx = np.einsum("ijk,jk->i", dxx, gamma)
        if scenario.comp_gen_c is not None:
            out_gen = np.asarray(scenario.comp_gen_c(s, x), dtype=float).reshape(d)
        else:
            out_gen = _quadrature_average(scenario, scenario.bottom.gen_c, s, x, (d,))
    return out_dx, out_dxx, out_gen


def integrate(scenario: Scenario, path: MarkedPoissonPath,
              stream: RngStream | None = None, order: int | None = None) -> Trajectory:
    """Run the event recursion up to the requested jet order."""
    if order is None:
        order = scenario.jet_order
    d = scenario.dim
    T = scenario.horizon
    need_flow = order >= 1
    need_a = order >= 2

    # event grid: jump times, plus an Euler grid when the state drifts; the
    # generator path alone drifts by a constant between jumps
    has_drift = scenario.sigma is not None or scenario.compensated
    if has_drift:
        grid = np.linspace(0.0, T, scenario.n_steps + 1)
        times = np.union1d(grid, path.times)
    else:
        times = np.unique(np.concatenate([[0.0], path.times, [T]]))
    jump_events = np.searchsorted(times, path.times)

    noise = None
    if scenario.driver == DRIVER_BROWNIAN:
        if stream is None:
            stream = path.stream
        gen = stream.child(tag=TAG_NOISE).generator()
        dts = np.diff(times)
        noise = gen.standard_normal((len(dts), scenario.n_brownian)) * np.sqrt(dts)[:, None]

    x = scenario.x0.copy()
    K = np.eye(d)
    Kb = np.eye(d)
    C = np.zeros((d, d))
    A = np.zeros(d)

    states = [x.copy()]
    k_events = [K.copy()] if need_flow else None
    kbar_events = [Kb.copy()] if need_flow else None
    c_events = [C.copy()] if need_flow else None
    a_events = [A.copy()] if need_a else None
    gamma_incs = [] if need_flow else None
    jumps: list[JumpRecord] = []

    # jumps sharing an event index are impossible (times are distinct a.s.);
    # map event index -> jump index for the sweep
    jump_at = {int(e): j for j, e in enumerate(jump_events)}

    for k in range(1, len(times)):
        s_prev, s = times[k - 1], times[k]
        dt = s - s_prev
        if (has_drift or need_a) and dt > 0:
            gamma_now = K @ C @ K.T if need_flow else None
            cdx, cdxx, cgen = _comp_jets(scenario, s_prev, x, gamma_now, need_a)
            dx = np.zeros(d)
            if scenario.compensated:
                if scenario.comp_c is not None:
                    comp = np.asarray(scenario.comp_c(s_prev, x), dtype=float).reshape(d)
                else:
                    comp = _quadrature_average(scenario, scenario.c, s_prev, x, (d,))
                dx -= comp
            if scenario.sigma is not None:
                sig = np.asarray(scenario.sigma(s_prev, x), dtype=float)
                if scenario.driver == DRIVER_TIME:
                    dx += sig.reshape(d)
                else:
                    dW = noise[k - 1]
                    x = x + sig.reshape(d, scenario.n_brownian) @ dW
                    if need_flow and scenario.dx_sigma is not None:
                        dsig = np.asarray(scenario.dx_sigma(s_prev, x), dtype=float)
                        dK = np.einsum("iqj,jk,q->ik", dsig.reshape(d, scenario.n_brownian, d), K, dW)
                        K = K + dK
                        Kb = Kb - Kb @ dK @ Kb   # first-order inverse update
            x = x + dx * dt
            if need_flow and scenario.compensated and cdx is not None:
                K = K - cdx @ K * dt
                Kb = Kb + Kb @ cdx * dt
            if need_a:
                A = A - cgen * dt
                if scenario.compensated:
                    A = A - cdx @ A * dt - 0.5 * cdxx * dt
        if not np.all(np.isfinite(x)):
            raise EventError("state overflow", k)

        j = jump_at.get(k)
        if j is not None:
            ev = scenario.bottom.eval_jump(s, x, path, j)
            cval = np.atleast_1d(np.asarray(scenario.c(s, x, ev), dtype=float))
            rec = JumpRecord(index=j, time=s, ev=ev, coeff=cval)
            if need_flow:
                dxc = (np.asarray(scenario.dx_c(s, x, ev), dtype=float).reshape(d, d)
                       if scenario.dx_c is not None else np.zeros((d, d)))
                jac = np.eye(d) + dxc
                det = np.linalg.det(jac)
                if abs(det) < DET_FLOOR:
                    raise EventError(
                        f"singular jump Jacobian det={det:.3e}; state-coefficient "
                        "invertibility violated", k)
                gamma = scenario.bottom.gamma_c(s, x, ev)
                rec.jac = jac
                rec.gamma = gamma
                rec.flat = scenario.bottom.flat_matrix(s, x, ev)
                if need_a:
                    gen = np.atleast_1d(np.asarray(scenario.bottom.gen_c(s, x, ev), dtype=float))
                    gamma_pre = K @ C @ K.T
                    dA = dxc @ A + gen
                    if scenario.dxx_c is not None:
                        dxx = np.asarray(scenario.dxx_c(s, x, ev), dtype=float).reshape(d, d, d)
                        dA = dA + 0.5 * np.einsum("ijk,jk->i", dxx, gamma_pre)
                    A = A + dA
                K = jac @ K
                Kb = Kb @ np.linalg.inv(jac)
                inc = Kb @ gamma @ Kb.T
                C = C + inc
                gamma_incs.append(inc)
            x = x + cval
            jumps.append(rec)

        states.append(x.copy())
        if need_flow:
            k_events.append(K.copy())
            kbar_events.append(Kb.copy())
            c_events.append(C.copy())
        if need_a:
            a_events.append(A.copy())

    tab = None
    if need_a and scenario.simple is not None:
        full = scenario.simple.table(path.marks, np.array([path.n_jumps]), T,
                                     scenario.measure, scenario.compensated)
        tab = {key: float(full[key][0]) for key in ("G2", "XA", "XG2")}
    return Trajectory(scenario=scenario, path=path, times=times,
                      states=np.array(states), jumps=jumps, jump_events=jump_events,
                      k_events=k_events, kbar_events=kbar_events,
                      c_events=c_events, a_events=a_events,
                      gamma_incs=gamma_incs, order2=tab)


def check_jets(scenario: Scenario, probes, rel_tol: float = 1e-4) -> float:
    """Finite-difference cross-check of the state jets of c at probe points.

    probes: iterable of (s, x, ev).  Returns the worst relative error seen;
    raises if it exceeds rel_tol.
    """
    worst = 0.0
    d = scenario.dim
    for (s, x, ev) in probes:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        base = np.atleast_1d(np.asarray(scenario.c(s, x, ev), dtype=float))
        scale = max(1.0, float(np.max(np.abs(base))))
        if scenario.dx_c is not None:
            jac = np.asarray(scenario.dx_c(s, x, ev), dtype=float).reshape(d, d)
            h = 1e-6 * max(1.0, float(np.max(np.abs(x))))
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd = (np.atleast_1d(scenario.c(s, x + e, ev))
                      - np.atleast_1d(scenario.c(s, x - e, ev))) / (2 * h)
                worst = max(worst, float(np.max(np.abs(fd - jac[:, j]))) / scale)
    if worst > rel_tol:
        raise ValueError(f"coefficient jets inconsistent: relative error {worst:.2e}")
    return worst


def trajectory_csv(traj: Trajectory, dest) -> None:
    """Debug dump: time, state components, det K, trace C."""
    d = traj.scenario.dim
    with open(dest, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time"] + [f"x{i}" for i in range(d)] + ["detK", "trC"])
        for k, t in enumerate(traj.times):
            detk = (np.linalg.det(traj.k_events[k]) if traj.k_events else math.nan)
            trc = (np.trace(traj.c_events[k]) if traj.c_events else math.nan)
            w.writerow([f"{t:.12g}"] + [f"{v:.12g}" for v in traj.states[k]]
                       + [f"{detk:.12g}", f"{trc:.12g}"])

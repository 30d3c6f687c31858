"""Jump-adapted solver for SDEs driven by a marked Poisson measure.

The state jumps by c(s, X-, u) at each point of the measure and, when the
equation is compensated, drifts between jumps by minus the measure-average
of c.  The same event-by-event recursion also propagates, on demand,

* the flow derivative K (Jacobian of x0 -> X) and its inverse Kbar,
* the covariance accumulator C = sum Kbar gamma[c] Kbar^T (taken with the
  post-jump Kbar, so that Gamma(t) = K C K^T at any time).

Order 2 is the scalar mark-sum calculus: for scenarios carrying SimpleJets
it adds the table of the generator path A[X] and the carre-du-champ
brackets that the integration-by-parts weights consume.  That table is
`SimpleJets.table` on the path's marks, the same code the vectorised
ensemble runs, and the generator a[.] is written only there.

`integrate` solves one path and is the only engine for order 2 and for
the states and jump records that `lent` replays.  `integrate_batch` runs
the same order-1 recursion for a chunk of paths at once: all paths advance
in lockstep by event index (jump index when uncompensated), with the state,
K, Kbar and C held as (n, d) and (n, d, d) arrays, and each lockstep event
resolves its jumps with one `eval_jumps` call on the bottom structure.
Every random draw is the one `integrate` makes for that path.

Every measure-average is scenario data (the comp_* callables); nothing is
averaged by quadrature here.  Jump times are events of the grid, and an
Euler grid is added only when the scenario is compensated.  Uncompensated
scenarios are therefore solved with no discretization error at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .bottom import BottomStructure, CapabilityError
from .measures import LevyMeasureSpec, compensator_integral
from .prm import JumpLanes, MarkedPoissonPath, sample_path
from .rng import RngStream

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

    plus the brackets of X with ah and g2.  ah is the library's one
    writing of the mark-space generator a[.] (`_a`, which `table` also
    applies to jet values): it comes from integrating the form xi f'^2 by
    parts against the mark density m, so it is the generator only on
    functions whose weighted flux xi m f' vanishes at both support
    endpoints (`generator_symmetry_residual` checks that).  The
    compensator constants int h dnu and int a[h] dnu are computed once
    per measure and memoised.
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
        XG2 = <X, G2>, the last three being N(xi h' g1'), N(xi h' a[h]')
        and N(xi h' g2').  Each of the nine jets is evaluated once, on the
        whole mark array, and every integrand is assembled from those values.
        """
        h, hp, hpp, hppp, xi, xip, xipp, r, rp = (
            jet(marks) for jet in (self.h, self.hp, self.hpp, self.hppp,
                                   self.xi, self.xip, self.xipp, self.r, self.rp))
        g1p = xip * hp ** 2 + 2 * xi * hp * hpp
        g1pp = xipp * hp ** 2 + 4 * xip * hp * hpp + 2 * xi * (hpp ** 2 + hp * hppp)
        ahp = (0.5 * xip * hpp + 0.5 * xi * hppp
               + 0.5 * (xipp + xip * r + xi * rp) * hp + 0.5 * (xip + xi * r) * hpp)
        g2p = xip * hp * g1p + xi * hpp * g1p + xi * hp * g1pp

        def seg(values):
            values = np.ascontiguousarray(np.broadcast_to(values, marks.shape), dtype=float)
            return _segment_sum(values, counts)

        x = seg(h)
        if compensated:
            x = x - t * self.mean_h(measure)
        return {"X": x, "gamma": seg(xi * hp ** 2),
                "A": seg(_a(xi, xip, r, hp, hpp)) - t * self.mean_ah(measure),
                "G2": seg(xi * hp * g1p), "XA": seg(xi * hp * ahp),
                "XG2": seg(xi * hp * g2p)}

    def g1(self, u):
        return self.xi(u) * self.hp(u) ** 2

    def ah(self, u):
        return _a(self.xi(u), self.xip(u), self.r(u), self.hp(u), self.hpp(u))


def _a(xi, xip, r, fp, fpp):
    """The mark-space generator a[f] = xi f''/2 + (xi' + xi r) f'/2, from jet values."""
    return 0.5 * xi * fpp + 0.5 * (xip + xi * r) * fp


def generator_symmetry_residual(jets: SimpleJets, measure: LevyMeasureSpec,
                                f, fp, fpp, g, gp) -> float:
    """int a[f] g dnu + 1/2 int xi f' g' dnu, with a[f] the `SimpleJets.ah`
    of the jets' form weight and measure, applied to f instead of h.

    Zero (within quadrature tolerance) whenever the boundary flux
    xi m f' g of the test pair vanishes at both support endpoints; the
    executable symmetry check of the generator formula.
    """
    af = replace(jets, h=f, hp=fp, hpp=fpp).ah
    return float(compensator_integral(
        measure, lambda u: af(u) * g(u) + 0.5 * jets.xi(u) * fp(u) * gp(u), 1.0))


def _segment_sum(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts))
    nz = counts > 0
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    out[nz] = np.add.reduceat(values, offsets[nz])
    return out


@dataclass
class Scenario:
    """Full description of one solvable model.

    Coefficient signatures: c(s, x, ev) -> (d,) and dx_c(s, x, ev) -> (d, d);
    ev is whatever the bottom structure resolves a mark into.  The comp_*
    callables are the measure-averages of the corresponding quantities,
    signature (s, x): comp_c of c (d,) and comp_dx_c of dx_c (d, d).  A
    compensated scenario must supply both; they drive the state and the
    flow between jumps.  Jet order 2 needs `simple`, the mark jets of a
    scalar mark-sum scenario.

    Lane axis: `integrate_batch` calls c, dx_c, comp_c and comp_dx_c (and
    the bottom's gamma_c) with a leading lane axis on every argument, s
    (n,), x (n, d) and ev as `eval_jumps` resolves it, and expects (n, d)
    and (n, d, d) back; a value without the lane axis (a constant) is taken
    to hold for every lane.  `integrate` calls them for one path, without
    the lane axis.
    """

    name: str
    dim: int
    x0: np.ndarray
    horizon: float
    measure: LevyMeasureSpec
    bottom: BottomStructure
    c: Callable
    dx_c: Callable | None = None
    compensated: bool = False
    n_steps: int = 1000
    comp_c: Callable | None = None
    comp_dx_c: Callable | None = None
    simple: SimpleJets | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if self.x0.shape != (self.dim,):
            raise ValueError("x0 must have the scenario dimension")
        if self.compensated:
            missing = [key for key in ("comp_c", "comp_dx_c")
                       if getattr(self, key) is None]
            if missing:
                raise ValueError(f"compensated scenario {self.name!r} must supply {missing}")


@dataclass
class JumpRecord:
    """Everything resolved at one jump, for reuse by later passes."""

    ev: object
    jac: np.ndarray                        # I + D_x c
    gamma: np.ndarray                      # bottom matrix of c at this jump
    flat: np.ndarray                       # (d, block_dim) gradient injector


def _conjugate(k: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Malliavin matrix K C K^T, over the last two axes."""
    return k @ c @ np.swapaxes(k, -1, -2)


@dataclass
class Trajectory:
    """One solved path; its results at T have `TrajectoryBatch`'s names."""

    scenario: Scenario
    times: np.ndarray                      # event times, starts at 0 ends at T
    states: np.ndarray                     # (n_events, d), post-event states
    jumps: list                            # JumpRecord per jump
    jump_events: np.ndarray                # event index of each jump
    k: np.ndarray                          # (d, d) flow derivative K at T
    c: np.ndarray                          # (d, d) accumulator C at T
    kk_err: float                          # max over events of |K Kbar - I|
    order2: dict | None = None             # scalar table at T (A, G2, XA, XG2)

    @property
    def x(self) -> np.ndarray:
        return self.states[-1]

    @property
    def gamma(self) -> np.ndarray:
        """Malliavin matrix K C K^T at T, (d, d)."""
        return _conjugate(self.k, self.c)

    @property
    def a_final(self):
        """Generator path A[X] at T, (1,); needs jet order 2."""
        return np.atleast_1d(self.order2["A"])


class EventError(RuntimeError):
    """Numerical failure at a specific event of one trajectory."""

    def __init__(self, message, event_index):
        super().__init__(f"{message} (event {event_index})")
        self.event_index = event_index


def _event_times(scenario: Scenario, path: MarkedPoissonPath) -> np.ndarray:
    """Event grid of a path: 0, the jump times and T, plus an Euler grid
    when the state drifts."""
    T = scenario.horizon
    if scenario.compensated:
        return np.union1d(np.linspace(0.0, T, scenario.n_steps + 1), path.times)
    return np.unique(np.concatenate([[0.0], path.times, [T]]))


def _average(fn, s, x, shape) -> np.ndarray:
    """A comp_* callable at (s, x), as a float array of the given shape."""
    return np.asarray(fn(s, x), dtype=float).reshape(shape)


def integrate(scenario: Scenario, path: MarkedPoissonPath, order: int) -> Trajectory:
    """Run the event recursion at jet order 1 (state, flow and covariance
    accumulator) or 2 (order 1 plus the scalar table of `SimpleJets`)."""
    if order not in (1, 2):
        raise ValueError(f"jet order must be 1 or 2, got {order!r}")
    if order == 2 and scenario.simple is None:
        raise CapabilityError(
            f"jet order 2 needs simple, the mark jets of a scalar mark-sum scenario; "
            f"scenario {scenario.name!r} has none")
    d = scenario.dim
    comp = scenario.compensated

    times = _event_times(scenario, path)
    jump_events = np.searchsorted(times, path.times)

    x = scenario.x0
    K = np.eye(d)
    Kb = np.eye(d)
    C = np.zeros((d, d))

    states = [x]
    flows = []                        # (K, Kbar) after each update, for kk_err
    jumps: list[JumpRecord] = []

    # jumps sharing an event index are impossible (times are distinct a.s.);
    # map event index -> jump index for the sweep
    jump_at = {int(e): j for j, e in enumerate(jump_events)}

    for k in range(1, len(times)):
        s_prev, s = times[k - 1], times[k]
        dt = s - s_prev
        if comp and dt > 0:
            # Euler step; every average is taken at the step's start, so the
            # state and the flow are updated last
            cdx = _average(scenario.comp_dx_c, s_prev, x, (d, d))
            K = K - cdx @ K * dt
            Kb = Kb + Kb @ cdx * dt
            x = x - _average(scenario.comp_c, s_prev, x, (d,)) * dt
            flows.append((K, Kb))
        if not np.all(np.isfinite(x)):
            raise EventError("state overflow", k)

        j = jump_at.get(k)
        if j is not None:
            ev = scenario.bottom.eval_jump(s, x, path, j)
            cval = np.atleast_1d(np.asarray(scenario.c(s, x, ev), dtype=float))
            dxc = (np.asarray(scenario.dx_c(s, x, ev), dtype=float).reshape(d, d)
                   if scenario.dx_c is not None else np.zeros((d, d)))
            jac = np.eye(d) + dxc
            det = np.linalg.det(jac)
            if abs(det) < DET_FLOOR:
                raise EventError(
                    f"singular jump Jacobian det={det:.3e}; state-coefficient "
                    "invertibility violated", k)
            gamma = scenario.bottom.gamma_c(s, x, ev)
            jumps.append(JumpRecord(ev=ev, jac=jac, gamma=gamma,
                                    flat=scenario.bottom.flat_matrix(s, x, ev)))
            K = jac @ K
            Kb = Kb @ np.linalg.inv(jac)
            C = C + Kb @ gamma @ Kb.T
            x = x + cval
            flows.append((K, Kb))
        states.append(x)

    tab = None
    if order == 2:
        full = scenario.simple.table(path.marks, np.array([path.n_jumps]), scenario.horizon,
                                     scenario.measure, scenario.compensated)
        tab = {key: float(full[key][0]) for key in ("A", "G2", "XA", "XG2")}
    flows = np.array(flows).reshape(-1, 2, d, d)
    return Trajectory(scenario=scenario, times=times, states=np.array(states), jumps=jumps,
                      jump_events=jump_events, k=K, c=C,
                      kk_err=float(_kk_err(flows[:, 0], flows[:, 1]).max(initial=0.0)),
                      order2=tab)


@dataclass
class LockstepJumps:
    """The jumps taken at one lockstep event of `integrate_batch`."""

    lanes: np.ndarray      # lanes that jump there
    index: np.ndarray      # their jump indices
    ev: object             # their resolutions, with a leading lane axis


@dataclass
class TrajectoryBatch:
    """Order-1 results at the horizon for a chunk of paths, one per lane."""

    paths: list                            # MarkedPoissonPath per lane
    x: np.ndarray                          # (n, d) states at T
    k: np.ndarray                          # (n, d, d) flow derivative K
    c: np.ndarray                          # (n, d, d) accumulator C
    kk_err: np.ndarray                     # (n,) max over events of |K Kbar - I|
    jumps: list                            # LockstepJumps per event with jumps

    @property
    def gamma(self) -> np.ndarray:
        """Malliavin matrices K C K^T at T, (n, d, d)."""
        return _conjugate(self.k, self.c)


def _lanes(value, shape) -> np.ndarray:
    """A coefficient value as a float array with the lane axis, broadcast."""
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


def _kk_err(K: np.ndarray, Kb: np.ndarray) -> np.ndarray:
    return np.max(np.abs(K @ Kb - np.eye(K.shape[-1])), axis=(1, 2))


def integrate_batch(scenario: Scenario, n_paths: int, stream: RngStream,
                    path_offset: int = 0) -> TrajectoryBatch:
    """The order-1 recursion of `integrate` for paths [offset, offset + n) of
    `stream`, advanced in lockstep.

    Path i is `prm.sample_path` at address p = path_offset + i + 1, as in
    `ensemble.sample_mark_sets`, and draws what `integrate` draws for it.
    Each lane's arithmetic does not depend on the other lanes, so a chunk
    split into parts gives the same bits as the whole.
    """
    d, T, comp = scenario.dim, scenario.horizon, scenario.compensated
    n = n_paths
    paths = [sample_path(scenario.measure, T, stream.child(path=path_offset + i + 1))
             for i in range(n)]
    times = [_event_times(scenario, p) for p in paths]
    n_events = np.array([len(t) for t in times])
    width = int(n_events.max(initial=1))
    ev_times = np.full((n, width), np.nan)
    jump_at = np.full((n, width), -1)
    marks = np.zeros((n, max((p.n_jumps for p in paths), default=0)))
    for i, (t, p) in enumerate(zip(times, paths)):
        ev_times[i, :len(t)] = t
        jump_at[i, np.searchsorted(t, p.times)] = np.arange(p.n_jumps)
        marks[i, :p.n_jumps] = p.marks
    addresses = np.arange(path_offset + 1, path_offset + n + 1)
    gen = stream.generator()          # re-addressed for every per-jump draw

    eye = np.eye(d)
    x = np.tile(scenario.x0, (n, 1))
    K = np.tile(eye, (n, 1, 1))
    Kb = K.copy()
    C = np.zeros((n, d, d))
    kk = np.zeros(n)
    jumps = []
    for k in range(1, width):
        live = np.flatnonzero(k < n_events)
        if comp:
            # Euler step; every average is taken at the step's start, so the
            # state and the flow are updated last
            dt = ev_times[live, k] - ev_times[live, k - 1]
            lanes, dt = live[dt > 0], dt[dt > 0]
            if lanes.size:
                m, s_prev, xl = len(lanes), ev_times[lanes, k - 1], x[lanes]
                cdx = _lanes(scenario.comp_dx_c(s_prev, xl), (m, d, d))
                K[lanes] = K[lanes] - cdx @ K[lanes] * dt[:, None, None]
                Kb[lanes] = Kb[lanes] + Kb[lanes] @ cdx * dt[:, None, None]
                x[lanes] = xl - _lanes(scenario.comp_c(s_prev, xl), (m, d)) * dt[:, None]
                kk[lanes] = np.maximum(kk[lanes], _kk_err(K[lanes], Kb[lanes]))
        if not np.all(np.isfinite(x[live])):
            raise EventError("state overflow", k)

        lanes = live[jump_at[live, k] >= 0]
        if not lanes.size:
            continue
        m, js, s, xl = len(lanes), jump_at[lanes, k], ev_times[lanes, k], x[lanes]
        ev = scenario.bottom.eval_jumps(
            s, xl, JumpLanes(stream, addresses[lanes], js, marks[lanes, js], gen))
        cval = _lanes(scenario.c(s, xl, ev), (m, d))
        dxc = (_lanes(scenario.dx_c(s, xl, ev), (m, d, d))
               if scenario.dx_c is not None else np.zeros((m, d, d)))
        jac = eye + dxc
        det = np.linalg.det(jac)
        bad = np.flatnonzero(np.abs(det) < DET_FLOOR)
        if bad.size:
            raise EventError(
                f"singular jump Jacobian det={det[bad[0]]:.3e} on path "
                f"{addresses[lanes[bad[0]]]}; state-coefficient invertibility violated", k)
        gamma = _lanes(scenario.bottom.gamma_c(s, xl, ev), (m, d, d))
        K[lanes] = jac @ K[lanes]
        kb = Kb[lanes] @ np.linalg.inv(jac)
        Kb[lanes] = kb
        C[lanes] = C[lanes] + kb @ gamma @ kb.transpose(0, 2, 1)
        x[lanes] = xl + cval
        kk[lanes] = np.maximum(kk[lanes], _kk_err(K[lanes], kb))
        jumps.append(LockstepJumps(lanes=lanes, index=js, ev=ev))
    return TrajectoryBatch(paths=paths, x=x, k=K, c=C, kk_err=kk, jumps=jumps)


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


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

There is one event loop, `_advance`: every path of a chunk advances in
lockstep by event index (jump index when uncompensated), with the state,
K, Kbar and C held as (n, d) and (n, d, d) arrays, and each lockstep event
resolves its jumps with one `eval_jumps` call on the bottom structure.
`integrate_batch` runs it on a chunk of sampled paths, and `integrate` on
one path, adding the order-2 table when asked.  A lane's arithmetic and
draws do not depend on the other lanes, so a path gives the same bits
alone as in any chunk.  The loop keeps no state history: besides the
results at T it keeps, per jump, the records (`LockstepJumps`: the
post-jump flow K and the injector) from which `lent` forms the gradient.

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
from .prm import JumpLanes, MarkedPoissonPath, sample_paths
from .rng import RngStream

DET_FLOOR = 1e-12
N_STEPS = 1000          # Euler steps on [0, T] in a compensated scenario's event grid


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

    Lane axis: the event loop calls c, dx_c, comp_c and comp_dx_c (and the
    bottom's gamma_c and flat_matrix, through jump_matrices) with a
    leading lane axis on every argument, s (n,), x (n, d) and ev as
    `eval_jumps` resolves it, and expects (n, d), (n, d, d) and
    (n, d, block_dim) back; a value without the lane axis (a constant) is
    taken to hold for every lane.  One path is one lane.
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
class LockstepJumps:
    """The jumps taken at one lockstep event; arrays have the lane axis first."""

    event: int             # the event index
    lanes: np.ndarray      # lanes that jump there
    index: np.ndarray      # their jump indices
    ev: object             # their resolutions
    k: np.ndarray          # (m, d, d) flow derivative K just after the jump
    gamma: np.ndarray      # (m, d, d) bottom matrix of c
    flat: np.ndarray       # (m, d, block_dim) gradient injector


def _conjugate(k: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Malliavin matrix K C K^T, over the last two axes."""
    return k @ c @ np.swapaxes(k, -1, -2)


@dataclass
class Trajectory:
    """One solved path: the lane of a one-lane `TrajectoryBatch`."""

    scenario: Scenario
    times: np.ndarray                      # event times, starts at 0 ends at T
    jumps: list                            # LockstepJumps per jump, one lane each
    x: np.ndarray                          # (d,) state at T
    k: np.ndarray                          # (d, d) flow derivative K at T
    c: np.ndarray                          # (d, d) accumulator C at T
    kk_err: float                          # max over events of |K Kbar - I|
    order2: dict | None = None             # scalar table at T (A, G2, XA, XG2)

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
        super().__init__(message, event_index)   # so a pool worker's error unpickles
        self.event_index = event_index

    def __str__(self):
        return f"{self.args[0]} (event {self.event_index})"


def _event_times(scenario: Scenario, path: MarkedPoissonPath) -> np.ndarray:
    """Event grid of a path: 0, the jump times and T, plus an Euler grid
    when the state drifts."""
    T = scenario.horizon
    if scenario.compensated:
        return np.union1d(np.linspace(0.0, T, N_STEPS + 1), path.times)
    return np.unique(np.concatenate([[0.0], path.times, [T]]))


def _lanes(value, shape) -> np.ndarray:
    """A coefficient value as a float array with the lane axis; a value
    without it (a constant) holds for every lane."""
    value = np.asarray(value, dtype=float)
    if value.shape == shape:
        return value
    out = np.empty(shape)
    out[...] = value
    return out


def integrate(scenario: Scenario, path: MarkedPoissonPath, order: int) -> Trajectory:
    """Solve one path at jet order 1 (state, flow and covariance
    accumulator) or 2 (order 1 plus the scalar table of `SimpleJets`).

    Order 1 is the lockstep recursion run on the path alone, with the
    draws of its own stream.
    """
    if order not in (1, 2):
        raise ValueError(f"jet order must be 1 or 2, got {order!r}")
    if order == 2 and scenario.simple is None:
        raise CapabilityError(
            f"jet order 2 needs simple, the mark jets of a scalar mark-sum scenario; "
            f"scenario {scenario.name!r} has none")
    batch = _advance(scenario, [path])
    tab = None
    if order == 2:
        full = scenario.simple.table(path.marks, np.array([path.n_jumps]), scenario.horizon,
                                     scenario.measure, scenario.compensated)
        tab = {key: float(full[key][0]) for key in ("A", "G2", "XA", "XG2")}
    return Trajectory(scenario=scenario, times=batch.times[0], jumps=batch.jumps,
                      x=batch.x[0], k=batch.k[0], c=batch.c[0],
                      kk_err=float(batch.kk_err[0]), order2=tab)


@dataclass
class TrajectoryBatch:
    """A chunk of solved paths, one per lane."""

    paths: list                            # MarkedPoissonPath per lane
    times: np.ndarray                      # (n, width) event times, NaN past a lane's end
    x: np.ndarray                          # (n, d) states at T
    k: np.ndarray                          # (n, d, d) flow derivative K
    c: np.ndarray                          # (n, d, d) accumulator C
    kk_err: np.ndarray                     # (n,) max over events of |K Kbar - I|
    jumps: list                            # LockstepJumps per event with jumps

    @property
    def gamma(self) -> np.ndarray:
        """Malliavin matrices K C K^T at T, (n, d, d)."""
        return _conjugate(self.k, self.c)


def integrate_batch(scenario: Scenario, n_paths: int, stream: RngStream,
                    path_offset: int = 0) -> TrajectoryBatch:
    """The order-1 recursion for paths [offset, offset + n) of `stream`.

    Path i is `prm.sample_path` at address p = path_offset + i + 1, as in
    `ensemble.sample_mark_sets`, and gives what `integrate` gives for it;
    `prm.sample_paths` draws the chunk's paths in one walk per purpose.
    Each lane's arithmetic does not depend on the other lanes, so a chunk
    split into parts gives the same bits as the whole.
    """
    paths = sample_paths(scenario.measure, scenario.horizon, stream,
                         range(path_offset + 1, path_offset + n_paths + 1))
    return _advance(scenario, paths)


def _advance(scenario: Scenario, paths: list) -> TrajectoryBatch:
    """The event recursion for every path, advanced in lockstep by event index.

    Lane i is `paths[i]`, and its jumps draw from its path's stream.  The
    paths' streams may differ only in their path address, as the streams
    `stream.child(path=p)` of one chunk do.  The lanes are walked sorted by
    event count, so the lanes still running at an event are a leading
    slice, and so (without an Euler grid, where event k is jump k - 1) are
    the lanes that jump there.  Per lockstep event with jumps it keeps a
    `LockstepJumps`.  Results come back in the order of `paths`.
    """
    d, comp, bottom = scenario.dim, scenario.compensated, scenario.bottom
    times = [_event_times(scenario, p) for p in paths]
    n_events = np.array([len(t) for t in times])
    order = np.argsort(-n_events, kind="stable")
    n, width = len(paths), int(n_events.max(initial=1))
    # event-major tables, lanes in walking order
    ev_times = np.full((width, n), np.nan)
    jump_at = np.full((width, n), -1)
    mark_at = np.zeros((width, n))
    for lane, i in enumerate(order.tolist()):
        t, p = times[i], paths[i]
        at = np.searchsorted(t, p.times)
        ev_times[:len(t), lane] = t
        jump_at[at, lane] = np.arange(p.n_jumps)
        mark_at[at, lane] = p.marks
    addresses = np.array([p.stream.path for p in paths])[order]
    jumping = jump_at >= 0
    n_jumping = jumping.sum(axis=1)
    leading = np.all(jumping == (np.arange(n) < n_jumping[:, None]), axis=1).tolist()
    live = np.count_nonzero(n_events > np.arange(width)[:, None], axis=1).tolist()
    n_jumping = n_jumping.tolist()

    eye = np.eye(d)
    x = np.tile(scenario.x0, (n, 1))
    K = np.tile(eye, (n, 1, 1))
    Kb = K.copy()
    C = np.zeros((n, d, d))
    flow_err = np.zeros((n, d, d))                  # running max of |K Kbar - I|
    jumps = []
    for k in range(1, width):
        m = live[k]
        if comp:
            # Euler step; every average is taken at the step's start, so the
            # state and the flow are updated last
            s_prev, xl = ev_times[k - 1, :m], x[:m]
            dt = ev_times[k, :m] - s_prev
            cdx = _lanes(scenario.comp_dx_c(s_prev, xl), (m, d, d))
            kn = K[:m] - cdx @ K[:m] * dt[:, None, None]
            kbn = Kb[:m] + Kb[:m] @ cdx * dt[:, None, None]
            x[:m] = xl - _lanes(scenario.comp_c(s_prev, xl), (m, d)) * dt[:, None]
            K[:m], Kb[:m] = kn, kbn
            flow_err[:m] = np.maximum(flow_err[:m], np.abs(kn @ kbn - eye))
        if not np.isfinite(x[:m]).all():
            raise EventError("state overflow", k)

        mj = n_jumping[k]
        if mj:
            sel = slice(0, mj) if leading[k] else np.flatnonzero(jumping[k])
            # xl is the pre-jump state (a view when sel is a slice): every
            # coefficient reads it before x is written
            js, s, xl = jump_at[k, sel], ev_times[k, sel], x[sel]
            ev = bottom.eval_jumps(s, xl, JumpLanes(paths[0].stream, addresses[sel], js,
                                                    mark_at[k, sel]))
            cval = _lanes(scenario.c(s, xl, ev), (mj, d))
            jac = _lanes(eye + (scenario.dx_c(s, xl, ev) if scenario.dx_c is not None else 0.0),
                         (mj, d, d))
            det = np.linalg.det(jac)
            if (np.abs(det) < DET_FLOOR).any():
                i = np.flatnonzero(np.abs(det) < DET_FLOOR)[0]
                raise EventError(
                    f"singular jump Jacobian det={det[i]:.3e} on path {addresses[sel][i]}; "
                    "state-coefficient invertibility violated", k)
            gamma, flat = bottom.jump_matrices(s, xl, ev)
            gamma = _lanes(gamma, (mj, d, d))
            flat = _lanes(flat, (mj, d, bottom.block_dim))
            kn = jac @ K[sel]
            kbn = Kb[sel] @ np.linalg.inv(jac)
            C[sel] = C[sel] + kbn @ gamma @ kbn.transpose(0, 2, 1)
            x[sel] = xl + cval
            K[sel], Kb[sel] = kn, kbn
            flow_err[sel] = np.maximum(flow_err[sel], np.abs(kn @ kbn - eye))
            jumps.append(LockstepJumps(event=k, lanes=order[sel], index=js, ev=ev,
                                       k=kn, gamma=gamma, flat=flat))
    back = np.argsort(order)
    return TrajectoryBatch(paths=paths, times=ev_times.T[back], x=x[back], k=K[back],
                           c=C[back], kk_err=flow_err.max(axis=(1, 2))[back], jumps=jumps)

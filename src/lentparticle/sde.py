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
lockstep by event index (jump index when uncompensated), on event tables
built for all lanes at once (`_event_tables`), with the state,
K, Kbar and C held as (n, d) and (n, d, d) arrays, and each lockstep event
resolves its jumps with one `eval_jumps` call on the bottom structure.
The events run in blocks of whole events, each of at most `BLOCK_ROWS`
rows (a row is one lane at one Euler step or at one jump).  Only the state
and the flow products are sequential, so a block runs in three steps: a
state sweep advances x event by event and records every row's pre-event
state; the linear algebra that feeds no later state (each row's Jacobian J
and backward matrix B, and `jump_matrices`) runs as one call per block on
all of its rows; and a flow sweep carries every row by one rule, K <- J K
and Kbar <- Kbar B, after which C and |K Kbar - I| are accumulated per
lane.  The blocks change no bits.  Jumps that are excursions of a nested
diffusion (an uncompensated chunk on a `WienerOUBottom`) take the state
sweep out of the blocks: each lane runs its excursions back to back on one
nested clock for the whole chunk, so the chunk takes as many nested steps
as its longest lane needs, not the sum over events of each event's longest
excursion, and the blocks read the rows it recorded.  `integrate_batch`
runs the loop on a chunk of sampled paths, and `integrate` on one path,
adding the order-2 table when asked.  A lane's arithmetic and draws do
not depend on the other lanes, so a path gives the same bits alone as in
any chunk.  The loop keeps no state history: besides the results at T it
keeps the jump rows of each block (`JumpRows`: per jump, its time, its
pre-jump state and resolution, the post-jump flow K and Gamma), from which
`lent` forms the gradient; the loop computes no injector, since only the
gradient reads it.

Every measure-average is scenario data (the comp_* callables); nothing is
averaged by quadrature here.  Every jump is an event of its own (a jump
at time 0 or two at one time too), and an Euler grid is added only when
the scenario is compensated; the first jump on one of its points (or at
T) joins that point's event.  Uncompensated scenarios are therefore solved with no
discretization error at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from itertools import accumulate
from typing import Callable

import numpy as np

from .bottom import BottomStructure, CapabilityError, WienerOUBottom, flow_overflow
from .measures import LevyMeasureSpec, compensator_integral
from .prm import JumpLanes, JumpTable, sample_paths
from .rng import RngStream

DET_FLOOR = 1e-12
N_STEPS = 1000          # Euler steps on [0, T] in a compensated scenario's event grid
BLOCK_ROWS = 2048       # rows (lane-events) an `_advance` block holds; sized in CHANGES.md
# the columns of `SimpleJets.table` at each IBP weight order
TABLE_COLUMNS = {1: ("X", "gamma", "A", "G2"), 2: ("X", "gamma", "A", "G2", "XA", "XG2")}


@dataclass
class SimpleJets:
    """Closed-form mark jets for scalar jump heights c(s,x,u) = h(u).

    Carries h with three derivatives and the form weight xi with two; the
    log-density slope r = m'/m and r' come from the measure
    (`LevyMeasureSpec.log_slope`).  From these it assembles the derived
    quantities the order-2 calculus needs:

        g1 = xi h'^2                 (per-jump covariance increment)
        ah = xi h''/2 + (xi'+xi r) h'/2     (generator applied to h)
        g2 = xi h' g1'               (bracket of X with its covariance)

    plus the brackets of X with ah and g2.  ah is the library's one
    writing of the mark-space generator a[.] (`_a`, which `table` also
    applies to jet values): it comes from integrating the form xi f'^2 by
    parts against the mark density m, so it is the generator only on
    functions whose weighted flux xi m f' vanishes at both support
    endpoints.  The compensator constants int h dnu and int a[h] dnu are
    computed once per measure and memoised.
    """

    h: Callable
    hp: Callable
    hpp: Callable
    hppp: Callable
    xi: Callable
    xip: Callable
    xipp: Callable
    _means: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _mean(self, name: str, measure: LevyMeasureSpec, f) -> float:
        key = (name, measure)
        if key not in self._means:
            self._means[key] = float(compensator_integral(measure, f, 1.0))
        return self._means[key]

    def mean_h(self, measure: LevyMeasureSpec) -> float:
        """int h dnu over the truncated measure."""
        return self._mean("h", measure, self.h)

    def mean_ah(self, measure: LevyMeasureSpec) -> float:
        """int a[h] dnu over the truncated measure."""
        return self._mean("ah", measure, lambda u: self.ah(u, measure))

    def table(self, marks: np.ndarray, counts, t: float, measure: LevyMeasureSpec,
              compensated: bool, order: int) -> dict:
        """Table of X = N(h) at time t for the IBP weight of `order`, one
        entry per path.

        Path i owns the next counts[i] marks of the concatenated array.
        The columns are TABLE_COLUMNS[order].  Order 1 holds what Z1 reads:
        X (compensated by t int h dnu if asked), gamma = <X, X>, A = A[X]
        (always compensated) and G2 = <X, gamma> = N(xi h' g1'); the
        vectorised `run` asks for it.  Order 2 adds what Z2 reads,
        XA = <X, A> = N(xi h' a[h]') and XG2 = <X, G2> = N(xi h' g2'), on
        top of the same order-1 columns; `integrate(order=2)` and the
        ensembles that `ibp.weight(ens, 2)` weighs ask for it.  Each jet the
        order needs and the log slope (h''', xi'' and r' only at order 2)
        are evaluated once, on the whole mark array, and every integrand is
        assembled from those values.
        """
        if order not in TABLE_COLUMNS:
            raise ValueError(f"table order must be 1 or 2, got {order!r}")
        h, hp, hpp, xi, xip = (jet(marks) for jet in (self.h, self.hp, self.hpp,
                                                         self.xi, self.xip))
        slope = measure.log_slope(marks, order)
        r = slope[0]
        g1p = xip * hp ** 2 + 2 * xi * hp * hpp

        # per-path sums: path i's marks start at starts[i], the paths with
        # no mark sum to zero
        jumped = counts > 0
        starts = (np.cumsum(counts) - counts)[jumped]

        def seg(values):
            values = np.ascontiguousarray(np.broadcast_to(values, marks.shape), dtype=float)
            out = np.zeros(len(counts))
            out[jumped] = np.add.reduceat(values, starts)
            return out

        x = seg(h)
        if compensated:
            x = x - t * self.mean_h(measure)
        tab = {"X": x, "gamma": seg(xi * hp ** 2),
               "A": seg(_a(xi, xip, r, hp, hpp)) - t * self.mean_ah(measure),
               "G2": seg(xi * hp * g1p)}
        if order == 2:
            hppp, xipp, rp = self.hppp(marks), self.xipp(marks), slope[1]
            g1pp = xipp * hp ** 2 + 4 * xip * hp * hpp + 2 * xi * (hpp ** 2 + hp * hppp)
            ahp = (0.5 * xip * hpp + 0.5 * xi * hppp
                   + 0.5 * (xipp + xip * r + xi * rp) * hp + 0.5 * (xip + xi * r) * hpp)
            g2p = xip * hp * g1p + xi * hpp * g1p + xi * hp * g1pp
            tab["XA"] = seg(xi * hp * ahp)
            tab["XG2"] = seg(xi * hp * g2p)
        return tab

    def ah(self, u, measure: LevyMeasureSpec):
        """a[h] at marks u, under the density of `measure`."""
        return _a(self.xi(u), self.xip(u), measure.log_slope(u, 1)[0], self.hp(u), self.hpp(u))


def _a(xi, xip, r, fp, fpp):
    """The mark-space generator a[f] = xi f''/2 + (xi' + xi r) f'/2, from jet values."""
    return 0.5 * xi * fpp + 0.5 * (xip + xi * r) * fp


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
    bottom's jump_matrices, and the gradient its injector) with a leading
    lane axis on every argument, s (n,), x (n, d) and ev as `eval_jumps`
    resolves it, and expects (n, d) and (n, d, d) back, and from the
    injector (n, d, block_dim); a value without the lane axis (a constant)
    is taken to hold for every lane.  One path is one lane.  dx_c, comp_dx_c and
    jump_matrices see the rows of a whole block of events at once (one row
    per lane and event), so every row must be computed from its own
    arguments alone.
    """

    name: str
    x0: np.ndarray
    horizon: float
    measure: LevyMeasureSpec
    bottom: BottomStructure
    c: Callable
    dx_c: Callable
    compensated: bool = False
    comp_c: Callable | None = None
    comp_dx_c: Callable | None = None
    simple: SimpleJets | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.ndim != 1:
            raise ValueError(f"x0 must be a 1-D state, got shape {self.x0.shape}")
        if self.compensated:
            missing = [key for key in ("comp_c", "comp_dx_c") if getattr(self, key) is None]
            if missing:
                raise ValueError(f"compensated scenario {self.name!r} must supply {missing}")

    @property
    def dim(self) -> int:
        """The state dimension d, the length of x0."""
        return len(self.x0)


@dataclass
class JumpRows:
    """Jump rows, one per lane and jump, in event order; arrays have the row
    axis first.  `_advance` keeps one table per block of events, whose s and
    x are views of the chunk's arrays."""

    event: np.ndarray      # (m,) event index
    lanes: np.ndarray      # (m,) lane that jumps there
    index: np.ndarray      # (m,) its jump index
    s: np.ndarray          # (m,) jump time
    x: np.ndarray          # (m, d) state just before the jump
    ev: object             # the resolutions; None on a table with no rows
    k: np.ndarray          # (m, d, d) flow derivative K just after the jump
    gamma: np.ndarray      # (m, d, d) bottom matrix of c

    def __len__(self):
        return len(self.event)

    @classmethod
    def empty(cls, d: int) -> JumpRows:
        """The table of a jumpless path."""
        none = np.empty(0, dtype=np.intp)
        return cls(event=none, lanes=none, index=none, s=np.empty(0), x=np.empty((0, d)),
                   ev=None, k=np.empty((0, d, d)), gamma=np.empty((0, d, d)))


def _conjugate(k: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Malliavin matrix K C K^T, over the last two axes."""
    return k @ c @ np.swapaxes(k, -1, -2)


@dataclass
class Trajectory:
    """One solved path: the lane of a one-lane `TrajectoryBatch`."""

    times: np.ndarray                      # event times, starts at 0 ends at T
    jumps: JumpRows                        # one row per jump of the path
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


def _event_tables(scenario: Scenario, table: JumpTable):
    """The events of every lane (path) of `table`, built for all lanes at once.

    A lane's events are the points of its grid (0 and T, plus an Euler grid
    when the state drifts) and its path's jumps, in time order, a grid
    point before a jump at its time.  Every jump is an event of its own,
    except that the first jump at a grid point other than 0 shares that
    point's event.  A path's jump times must be non-decreasing (ValueError).

    Returns each lane's event count, the lanes' walking order (by event
    count, largest first; stable), the (width, n) table of event times,
    event-major with the lanes in walking order and NaN past a lane's last
    event, and the jump rows sorted by event, then by lane in walking
    order: their event, walking lane and jumps (`JumpLanes`).
    """
    T, n, counts, s = scenario.horizon, len(table.counts), table.counts, table.times
    grid = np.linspace(0.0, T, N_STEPS + 1) if scenario.compensated else np.array([0.0, T])
    starts = counts.cumsum() - counts
    lane = np.arange(n).repeat(counts)
    index = np.arange(len(s)) - starts[lane]
    point = grid.searchsorted(s, "right") - 1               # the last grid point <= s
    later = index[1:] > 0                                   # not a lane's first jump
    if np.count_nonzero((s[1:] < s[:-1]) & later):
        raise ValueError("a path's jump times must be non-decreasing")
    # an event of its own, unless the first jump at a grid point other than 0
    own = (point == 0) | (grid[point] != s)
    own[1:] |= (s[1:] == s[:-1]) & later
    owned = np.zeros(len(s) + 1, dtype=np.intp)             # own events among jumps < i
    own.cumsum(out=owned[1:])
    before = owned[starts]                                  # ... in the lanes before
    event = point + owned[1:] - before[lane]
    n_events = len(grid) + owned[starts + counts] - before
    order = (-n_events).argsort(kind="stable")
    walk = np.empty(n, dtype=np.intp)
    walk[order] = np.arange(n)
    times = np.full((int(n_events[order[0]]) if n else 1, n), np.nan)
    # the cells of the grid points: in each lane, its first cells but the jumps' own
    grid_at = np.arange(len(times)) < n_events[order, None]     # lane-major, walking order
    walking = walk[lane]
    grid_at[walking[own], event[own]] = False
    times.T[grid_at] = np.tile(grid, n)
    times[event[own], walking[own]] = s[own]
    rows = np.lexsort((walking, event))
    return (n_events, order, times, event[rows], walking[rows],
            JumpLanes(table.stream, table.paths[lane[rows]], index[rows], table.marks[rows]))


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of `a` is finite (`ndarray.all` costs more per call)."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def _lanes(value, shape) -> np.ndarray:
    """A coefficient value as a float array with the lane axis; a value
    without it (a constant) holds for every lane."""
    value = np.asarray(value, dtype=float)
    if value.shape == shape:
        return value
    out = np.empty(shape)
    out[...] = value
    return out


def integrate(scenario: Scenario, path: JumpTable, order: int) -> Trajectory:
    """Solve the one path of `path` at jet order 1 (state, flow and
    covariance accumulator) or 2 (order 1 plus the scalar table of
    `SimpleJets`).

    Order 1 is the lockstep recursion run on the path alone, with the
    draws of its own stream.
    """
    if order not in (1, 2):
        raise ValueError(f"jet order must be 1 or 2, got {order!r}")
    if order == 2 and scenario.simple is None:
        raise CapabilityError(
            f"jet order 2 needs simple, the mark jets of a scalar mark-sum scenario; "
            f"scenario {scenario.name!r} has none")
    batch = _advance(scenario, path)
    tab = None
    if order == 2:
        full = scenario.simple.table(path.marks, path.counts, scenario.horizon,
                                     scenario.measure, scenario.compensated, 2)
        tab = {key: float(full[key][0]) for key in ("A", "G2", "XA", "XG2")}
    jumps = _concat(batch.jumps) if batch.jumps else JumpRows.empty(scenario.dim)
    return Trajectory(times=batch.times[:batch.n_events[0], 0], jumps=jumps, x=batch.x[0],
                      k=batch.k[0], c=batch.c[0], kk_err=float(batch.kk_err[0]), order2=tab)


@dataclass
class TrajectoryBatch:
    """A chunk of solved paths, one per lane."""

    table: JumpTable                       # the lanes' paths
    times: np.ndarray                      # (width, n) event times, NaN past a lane's last
    order: np.ndarray                      # (n,) the lane of each column of `times`
    n_events: np.ndarray                   # (n,) each lane's event count
    x: np.ndarray                          # (n, d) states at T
    k: np.ndarray                          # (n, d, d) flow derivative K
    c: np.ndarray                          # (n, d, d) accumulator C
    kk_err: np.ndarray                     # (n,) max over events of |K Kbar - I|
    jumps: list                            # JumpRows per block with jumps

    @property
    def gamma(self) -> np.ndarray:
        """Malliavin matrices K C K^T at T, (n, d, d)."""
        return _conjugate(self.k, self.c)


def integrate_batch(scenario: Scenario, n_paths: int, stream: RngStream,
                    path_offset: int = 0) -> TrajectoryBatch:
    """The order-1 recursion for paths [offset, offset + n) of `stream`.

    Path i is `prm.sample_path` at address p = path_offset + i + 1, as in
    `ensemble.mark_blocks`, and gives what `integrate` gives for it;
    `prm.sample_paths` draws the chunk's table at once on the Philox
    kernel.  Each lane's arithmetic does not depend on the other lanes, so a
    chunk split into parts gives the same bits as the whole.
    """
    return _advance(scenario, sample_paths(scenario.measure, scenario.horizon, stream,
                                           range(path_offset + 1, path_offset + n_paths + 1)))


def _blocks(rows: list) -> list:
    """(first, end) event ranges that cover events 1 .. len(rows) - 1 in
    blocks of whole events; rows[k] is the number of rows event k adds.  A
    block holds at most BLOCK_ROWS rows, unless one event alone holds more."""
    blocks, first, held = [], 1, 0
    for k in range(1, len(rows)):
        if held and held + rows[k] > BLOCK_ROWS:
            blocks.append((first, k))
            first, held = k, 0
        held += rows[k]
    if first < len(rows):
        blocks.append((first, len(rows)))
    return blocks


def _concat(parts: list):
    """The rows of `parts` joined in order (a lone part is returned as it
    is).  A part is an array, or a dataclass of row-axis arrays (a
    resolution such as `WienerSquareEval`, or `JumpRows`)."""
    if len(parts) == 1:
        return parts[0]
    if is_dataclass(parts[0]):
        return replace(parts[0], **{f.name: _concat([getattr(p, f.name) for p in parts])
                                    for f in fields(parts[0])})
    return np.concatenate(parts)


def _rows(part, index):
    """The rows `index` of an array or of a dataclass of row-axis arrays."""
    if is_dataclass(part):
        return replace(part, **{f.name: getattr(part, f.name)[index] for f in fields(part)})
    return part[index]


def _at(ufunc, out: np.ndarray, lanes: np.ndarray, rows: np.ndarray):
    """out[lanes[i]] = ufunc(out[lanes[i]], rows[i]) for i in order.  Both
    arrays are flattened first: numpy's `ufunc.at` is much faster on one
    axis."""
    size = out[0].size
    ufunc.at(out.reshape(-1), (lanes[:, None] * size + np.arange(size)).ravel(),
             rows.reshape(-1))


def _jump_jacobians(scenario: Scenario, s, x, ev, events, addresses) -> np.ndarray:
    """The jump Jacobians I + D_x c of the rows, (r, d, d).  Raises
    `EventError` at the first row, in row order, whose Jacobian is singular."""
    d = scenario.dim
    jac = _lanes(np.eye(d) + scenario.dx_c(s, x, ev), (len(s), d, d))
    det = np.linalg.det(jac)
    singular = np.flatnonzero(np.abs(det) < DET_FLOOR)
    if singular.size:
        i = singular[0]
        raise EventError(
            f"singular jump Jacobian det={det[i]:.3e} on path {addresses[i]}; "
            "state-coefficient invertibility violated", int(events[i]))
    return jac


def _excursions(scenario: Scenario, x: np.ndarray, rows: JumpLanes, je, jl, s_j, x_j):
    """The state sweep of an uncompensated chunk on a `WienerOUBottom`, for
    all of its jumps: each lane's excursions run back to back on one nested
    clock (`WienerOUBottom.run_excursions`).  Row r of `rows` is jump row r
    of `_advance`, at event je[r] of lane jl[r], and a lane takes its jumps
    in event order, with the draws and bits of the event-by-event sweep.

    Returns the lanes' states at T and the rows' resolutions, and fills x_j
    with the pre-jump states.  A failure is raised once the clock has run,
    as the event-by-event sweep raises it: the first failing event's, after
    the Jacobians of the events before it are checked.  At one event a
    state overflow (of the state the event starts from) comes before an
    inverse flow overflow, and those come in nested step order.
    """
    if not np.isfinite(x).all():
        raise EventError("state overflow", 1)
    d = scenario.dim
    failures = []               # (event, 0 state | 1 nested overflow, nested step)

    def jump(r, x_pre, ev):
        x_j[r] = x_pre
        x_post = x_pre + _lanes(scenario.c(s_j[r], x_pre, ev), (len(r), d))
        if not np.isfinite(x_post).all():
            failures.append((int(je[r][~np.isfinite(x_post).all(axis=1)].min()) + 1, 0, 0))
        return x_post

    ev, x, nested = scenario.bottom.run_excursions(x, jl, rows, jump)
    failures += [(int(je[r]), 1, step) for r, step in nested]
    if failures:
        event, nested, step = min(failures)
        r = int(np.searchsorted(je, event))     # the rows of the earlier events
        if r:
            _jump_jacobians(scenario, s_j[:r], x_j[:r], _rows(ev, slice(0, r)), je[:r],
                            rows.paths[:r])
        raise flow_overflow(step) if nested else EventError("state overflow", event)
    return x, ev


# the loop checks the state (and the nested scheme its inverse flow) for overflow and
# raises, so numpy's overflow warnings would only repeat the failure
@np.errstate(over="ignore", invalid="ignore")
def _advance(scenario: Scenario, table: JumpTable) -> TrajectoryBatch:
    """The event recursion for every path of `table`, advanced in lockstep
    by event index.

    Lane i is path i of the table, and its jumps draw from its path's
    stream.  The lanes are walked sorted by event count, so the lanes still
    running at an event are a leading slice, and so (without an Euler grid,
    where event k is jump k - 1) are the lanes that jump there.  Results
    come back in the order of the table.

    The events run in blocks of whole events (`_blocks`).  A block's rows
    are its Euler rows (one per live lane and event, when compensated) and
    then its jump rows (one per jumping lane and event), each kind in event
    order.  Every row carries a Jacobian J and a backward matrix B: a jump
    row J = I + dx_c and B = J^-1, an Euler row J = I - comp_dx_c dt and
    B = I + comp_dx_c dt, the inverse to first order.  Each block runs in
    three steps:

    1. the state sweep, event by event: the Euler drift, the overflow check
       and, per jump, `eval_jumps` and c.  It records each row's pre-event
       state, each event's resolution, and each row group (the lanes of one
       kind at one event) as (lanes, first row, end row);
    2. one call per block, over all of its rows, of comp_dx_c, dx_c with
       the singular-Jacobian check, `np.linalg.inv` and `jump_matrices`;
    3. the flow sweep replays the row groups: K <- J K and Kbar <- Kbar B.
       Then C gains Kbar gamma Kbar^T per jump row, lane by lane in event
       order, and each lane's |K Kbar - I| is a running max over its rows.

    An uncompensated chunk on a `WienerOUBottom` runs its state sweep once
    for the whole chunk instead, before the blocks (`_excursions`): each
    lane's excursions back to back on one nested clock, rather than one
    `evolve` per event that runs until the event's longest excursion ends.
    Its blocks start at step 2, with the same pre-jump states, resolutions
    and row groups, so the bits are those of the event-by-event sweep.

    A failure in the state sweep is raised after the Jacobians of the
    earlier events are checked, so the error is the first failing event's,
    as it is event by event.  Per block with jumps it keeps one `JumpRows`
    of the block's rows; joined in order, they hold every jump.
    """
    d, comp, bottom = scenario.dim, scenario.compensated, scenario.bottom
    n_events, order, ev_times, je, jl, rows = _event_tables(scenario, table)
    n, width = len(order), len(ev_times)
    live = (-n_events[order]).searchsorted(-np.arange(width)).tolist()     # n_events > k
    # the jump rows, event by event: event k has rows row_at[k] .. row_at[k + 1] - 1
    n_jumping = np.bincount(je, minlength=width).tolist()
    row_at = list(accumulate(n_jumping, initial=0))
    s_j, j_lanes = ev_times[je, jl], order[jl]
    x_j = np.empty((len(je), d))                    # pre-jump states

    def jumpers(k):
        """The lanes that jump at event k: lanes 0 .. m - 1 when the last
        of its m rows is lane m - 1 (a row group's lanes ascend)."""
        a, b = row_at[k], row_at[k + 1]
        return slice(0, b - a) if jl[b - 1] == b - a - 1 else jl[a:b]

    eye = np.eye(d)
    x, K = np.empty((n, d)), np.empty((n, d, d))
    x[...], K[...] = scenario.x0, eye
    Kb = K.copy()
    C = np.zeros((n, d, d))
    flow_err = np.zeros((n, d, d))                  # running max of |K Kbar - I|
    jumps = []
    clock = not comp and isinstance(bottom, WienerOUBottom) and len(je) > 0
    if clock:
        x, ev_rows = _excursions(scenario, x, rows, je, jl, s_j, x_j)
    for k0, k1 in _blocks([j + m * comp for j, m in zip(n_jumping, live)]):
        r0, r1 = row_at[k0], row_at[k1]             # the block's jump rows
        ne, lanes = 0, jl[r0:r1]                    # Euler row count, each row's lane
        if comp:
            # Euler rows 0 .. ne - 1: lanes 0 .. live[k] - 1 of each event k, the cells
            # of `alive` in row-major order (times are NaN past a lane's end)
            e_at = list(accumulate(live[k0:k1], initial=0))
            alive = ~np.isnan(ev_times[k0:k1, :live[k0]])
            s_e = ev_times[k0 - 1:k1 - 1, :live[k0]][alive]     # averages are taken at
            dt_e = ev_times[k0:k1, :live[k0]][alive] - s_e      # the step's start
            lane_at = np.broadcast_to(np.arange(live[k0]), alive.shape)
            ne, lanes = len(s_e), np.concatenate([lane_at[alive], lanes])
            x_e = np.empty((ne, d))                 # pre-step states

        # 1. the state sweep; groups: (lanes, first row, end row)
        if clock:
            ev = _rows(ev_rows, slice(r0, r1))
            groups = [(jumpers(k), row_at[k] - r0, row_at[k + 1] - r0)
                      for k in range(k0, k1) if n_jumping[k]]
        else:
            groups, evs = [], []
            try:
                for k in range(k0, k1):
                    if comp:
                        a, b, m = e_at[k - k0], e_at[k - k0 + 1], live[k]
                        xl = x_e[a:b]
                        xl[...] = x[:m]
                        drift = _lanes(scenario.comp_c(s_e[a:b], xl), (m, d))
                        x[:m] = xl - drift * dt_e[a:b, None]
                        groups.append((slice(0, m), a, b))
                    if not _finite(x[:live[k]]):
                        raise EventError("state overflow", k)
                    if n_jumping[k]:
                        a, b, sel = row_at[k], row_at[k + 1], jumpers(k)
                        s, xl = s_j[a:b], x_j[a:b]
                        xl[...] = x[sel]
                        ev = bottom.eval_jumps(s, xl, rows[a:b])
                        x[sel] = xl + _lanes(scenario.c(s, xl, ev), (b - a, d))
                        evs.append(ev)
                        groups.append((sel, ne + a - r0, ne + b - r0))
            except Exception:
                # event by event, the Jacobians of the earlier events were checked first
                r = row_at[k]
                if r > r0:
                    _jump_jacobians(scenario, s_j[r0:r], x_j[r0:r], _concat(evs), je[r0:r],
                                    rows.paths[r0:r])
                raise
            ev = _concat(evs) if evs else None
            del evs                                 # the table keeps `ev` instead

        # 2. one call per block: each row's Jacobian J and backward matrix B
        nj = r1 - r0
        J, B = np.empty((ne + nj, d, d)), np.empty((ne + nj, d, d))
        if comp:
            step = _lanes(scenario.comp_dx_c(s_e, x_e), (ne, d, d)) * dt_e[:, None, None]
            np.subtract(eye, step, out=J[:ne])
            np.add(eye, step, out=B[:ne])
        if nj:
            s_b, x_b = s_j[r0:r1], x_j[r0:r1]
            J[ne:] = _jump_jacobians(scenario, s_b, x_b, ev, je[r0:r1], rows.paths[r0:r1])
            B[ne:] = np.linalg.inv(J[ne:])
            gamma = _lanes(bottom.jump_matrices(s_b, x_b, ev), (nj, d, d))

        # 3. the flow sweep: kn, kbn hold K and Kbar just after each row
        kn, kbn = np.empty_like(J), np.empty_like(B)
        for sel, a, b in groups:
            k_after, kb_after = kn[a:b], kbn[a:b]
            np.matmul(J[a:b], K[sel], out=k_after)
            np.matmul(Kb[sel], B[a:b], out=kb_after)
            K[sel], Kb[sel] = k_after, kb_after
        _at(np.maximum, flow_err, lanes, np.abs(kn @ kbn - eye))
        if nj:
            kn_j, kbn_j = kn[ne:], kbn[ne:]
            _at(np.add, C, jl[r0:r1], kbn_j @ gamma @ kbn_j.transpose(0, 2, 1))
            # with Euler rows in kn, the table copies K so as not to keep them alive
            jumps.append(JumpRows(event=je[r0:r1], lanes=j_lanes[r0:r1],
                                  index=rows.index[r0:r1], s=s_b, x=x_b, ev=ev,
                                  k=kn_j.copy() if ne else kn_j, gamma=gamma))
    back = np.argsort(order)
    return TrajectoryBatch(table=table, times=ev_times, order=order, n_events=n_events,
                           x=x[back], k=K[back], c=C[back],
                           kk_err=flow_err.max(axis=(1, 2))[back], jumps=jumps)

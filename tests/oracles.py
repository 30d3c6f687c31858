"""Reference implementations that several test modules check the library against.

None of these is called by the package: each is the plain, one-path form
of something the library computes another way (or a catalog constant read
back from its builder), kept here as an oracle.
"""

import inspect
import math
from dataclasses import dataclass, replace

import numpy as np

from lentparticle import cli, ensemble, prm, scenarios, sde
from lentparticle.bottom import CapabilityError
from lentparticle.measures import LevyMeasureSpec, compensator_integral, total_mass
from lentparticle.prm import JumpLanes, JumpTable, sample_path
from lentparticle.rng import TAG_NESTED, TAG_NOISE, RngStream, philox_random
from lentparticle.sde import Jet, SimpleJets

# the jump scale of `compound-linear` as the catalog builds it by default
LINEAR_BETA = inspect.signature(scenarios.compound_linear).parameters["beta"].default


def mark_cdf(spec: LevyMeasureSpec, y) -> np.ndarray:
    """CDF of the normalised truncated power law, in closed form: the
    reference the mark samplers' KS tests read."""
    mass = total_mass(spec)
    if mass <= 0:
        raise ValueError("zero-mass measure has no mark distribution")
    yc = np.clip(np.atleast_1d(np.asarray(y, dtype=float)), spec.trunc, spec.ymax)
    return (spec.trunc ** -spec.eps - yc ** -spec.eps) / spec.eps / mass


# ---------------------------------------------------------------------------
# jump tables path by path
# ---------------------------------------------------------------------------

def one_path(times, marks, stream: RngStream) -> JumpTable:
    """A hand-made table of the one path at `stream`'s path address."""
    return JumpTable(stream, np.array([stream.path], dtype=np.uint64), np.array([len(times)]),
                     np.asarray(times, dtype=float), np.asarray(marks, dtype=float))


def split_paths(table: JumpTable) -> list:
    """The one-path table of each path of `table`, at its own stream, as
    `prm.sample_path` returns it."""
    ends = np.cumsum(table.counts).tolist()
    return [JumpTable(table.stream.child(path=p), np.array([p], dtype=np.uint64),
                      np.array([hi - lo]), table.times[lo:hi], table.marks[lo:hi])
            for p, lo, hi in zip(table.paths.tolist(), [0] + ends[:-1], ends)]


def join_paths(paths: list) -> JumpTable:
    """One table of the one-path tables `paths` of one seed, path after path."""
    return JumpTable(paths[0].stream, np.concatenate([p.paths for p in paths]),
                     np.concatenate([p.counts for p in paths]),
                     np.concatenate([np.empty(0)] + [p.times for p in paths]),
                     np.concatenate([np.empty(0)] + [p.marks for p in paths]))


# ---------------------------------------------------------------------------
# mark-space calculus
# ---------------------------------------------------------------------------

def generator_symmetry_residual(jets: SimpleJets, measure: LevyMeasureSpec, f, g) -> float:
    """int a[f] g dnu + 1/2 int xi f' g' dnu, with a[f] the `SimpleJets.ah`
    of the jets' form weight and measure, applied to f instead of h.

    Zero (within quadrature tolerance) whenever the boundary flux
    xi m f' g of the test pair vanishes at both support endpoints; the
    executable symmetry check of the generator formula.
    """
    af = replace(jets, h=f).ah
    return float(compensator_integral(
        measure, lambda u: af(u, measure) * g(u)
        + 0.5 * jets.xi(u) * Jet.of(f, u, 1)[1] * Jet.of(g, u, 1)[1], 1.0))


def symmetry_pair(measure: LevyMeasureSpec):
    """A test pair (f, g) whose flux vanishes at both endpoints of the
    measure's support: f is the bump weight, g(u) = u."""
    return scenarios._bump_weight(measure.trunc, measure.ymax), lambda u: u


def sharp_coefficients(j: SimpleJets, marks: np.ndarray) -> np.ndarray:
    """Per-jump loadings of the gradient: grad = sum_j coef_j * rho_j."""
    if len(marks) == 0:
        return np.empty(0)
    return np.sqrt(j.xi(marks)) * Jet.of(j.h, marks, 1)[1]


# ---------------------------------------------------------------------------
# the mark-sum table by hand-expanded chain rules
# ---------------------------------------------------------------------------

# the catalog's form weights with their derivatives by hand, (xi, xi', xi'')
# of the support (lo, hi)
HAND_WEIGHTS = {
    "power": lambda lo, hi: (lambda u: u * u, lambda u: 2.0 * u, lambda u: 2.0),
    "bump": lambda lo, hi: (
        lambda u: (u - lo) ** 2 * (hi - u) ** 2,
        lambda u: 2 * (u - lo) * (hi - u) ** 2 - 2 * (u - lo) ** 2 * (hi - u),
        lambda u: 2 * (hi - u) ** 2 - 8 * (u - lo) * (hi - u) + 2 * (u - lo) ** 2)}


@dataclass
class HandJets:
    """h with three derivatives and xi with two, each written by hand: the
    reference `SimpleJets.table` is checked against."""

    h: object
    hp: object
    hpp: object
    hppp: object
    xi: object
    xip: object
    xipp: object

    def ah(self, u, measure: LevyMeasureSpec):
        """a[h] = xi h''/2 + (xi' + xi r) h'/2 at marks u."""
        r = measure.log_slope(u, 1)[0]
        return 0.5 * self.xi(u) * self.hpp(u) + 0.5 * (self.xip(u) + self.xi(u) * r) * self.hp(u)

    def table(self, marks, counts, t, measure, compensated, order) -> dict:
        """`SimpleJets.table`'s columns, every chain rule expanded by hand."""
        h, hp, hpp, xi, xip = (jet(marks) for jet in (self.h, self.hp, self.hpp,
                                                         self.xi, self.xip))
        slope = measure.log_slope(marks, order)
        r = slope[0]
        g1p = xip * hp ** 2 + 2 * xi * hp * hpp
        jumped = counts > 0
        starts = (np.cumsum(counts) - counts)[jumped]

        def seg(values):
            values = np.ascontiguousarray(np.broadcast_to(values, marks.shape), dtype=float)
            out = np.zeros(len(counts))
            out[jumped] = np.add.reduceat(values, starts)
            return out

        x = seg(h)
        if compensated:
            x = x - t * float(compensator_integral(measure, self.h, 1.0))
        mean_ah = float(compensator_integral(measure, lambda u: self.ah(u, measure), 1.0))
        tab = {"X": x, "gamma": seg(xi * hp ** 2),
               "A": seg(0.5 * xi * hpp + 0.5 * (xip + xi * r) * hp) - t * mean_ah,
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


def joint_se(dens) -> np.ndarray:
    """Combined standard error of a `DensityEstimate`'s IBP and KDE columns."""
    return np.sqrt(dens.ibp_se ** 2 + dens.kde_se ** 2)


# ---------------------------------------------------------------------------
# iterated gradients of mark sums, orders 1 to 3
# ---------------------------------------------------------------------------

def iterated_gradient_simple(h_flats, path: JumpTable, blocks: np.ndarray,
                             k: int) -> float:
    """k-fold gradient of a simple integral of h over the jump measure.

    h_flats[j-1](u) must be the j-fold application of f -> sqrt(xi) f' to
    h, and blocks holds one replica of the path's rho-blocks, shape
    (order, n_jumps, block_dim) with order >= k; the k-th gradient
    realisation is the sum over jumps of h_flats[k-1](u_j) times the
    product of the jump's first k auxiliary marks.
    """
    terms = gradient_terms(h_flats, path, k)
    if blocks.shape[0] < k:
        raise ValueError(f"needs rho-blocks of order >= {k}, got {blocks.shape[0]}")
    return float(np.dot(terms, np.prod(blocks[:k, :, 0], axis=0)))


def gradient_terms(h_flats, path: JumpTable, k: int) -> np.ndarray:
    """h_flats[k-1] at every mark of the path, after checking the order."""
    if not 1 <= k <= 3:
        raise ValueError("gradient order must be 1, 2 or 3")
    if len(h_flats) < k:
        raise CapabilityError(f"order-{k} gradient needs {k} mark jets, got {len(h_flats)}")
    return np.asarray([h_flats[k - 1](u) for u in path.marks], dtype=float)


# ---------------------------------------------------------------------------
# norm identities
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# nested increments, lane by lane
# ---------------------------------------------------------------------------

def nested_steps_walk(lanes: JumpLanes, durations, step: float, dim: int = 1):
    """`prm.nested_steps` with each lane's normals drawn by the generator
    of its jump's TAG_NESTED sub-stream, one generator walking the lanes
    (`JumpLanes.draws`)."""
    counts, widths = prm.nested_grid(durations, step)
    widths = widths.T[np.arange(widths.shape[0]) < counts[:, None]]
    normals = np.empty((len(widths), dim))
    ends = np.cumsum(counts)
    for gen, n, end in zip(lanes.draws(TAG_NESTED), counts.tolist(), ends.tolist()):
        gen.standard_normal(out=normals[end - n:end])
    normals *= np.sqrt(widths)[:, None]
    return counts, widths, normals


def field_drift_walk(lanes: JumpLanes) -> np.ndarray:
    """The `levy-field-demo` bottom's `nested_drift` with each lane's angle
    drawn by `uniform(0, 2 pi)` of the generator of its jump's TAG_NESTED
    sub-stream at replica 1, one generator walking the lanes."""
    theta = np.array([gen.uniform(0.0, 2 * math.pi)
                      for gen in lanes.draws(TAG_NESTED, replica=1)])
    return np.stack([np.cos(theta), np.sin(theta)], -1)


# ---------------------------------------------------------------------------
# event tables, lane by lane
# ---------------------------------------------------------------------------

def event_times_per_path(scenario, path: JumpTable) -> np.ndarray:
    """The event times of one path: 0, each jump time (at 0 or T, or twice
    at one time, too) and T."""
    return np.concatenate([[0.0], path.times, [scenario.horizon]])


def event_tables_per_lane(scenario, table: JumpTable):
    """`sde._event_tables` by a per-lane loop, with the same returns: each
    path's `event_times_per_path`, its jump indices and marks written lane
    by lane into event-major (width, n) tables, lanes in walking order, and
    the jumping cells, in row-major order, as the jump rows."""
    paths = split_paths(table)
    times = [event_times_per_path(scenario, p) for p in paths]
    n_events = np.array([len(t) for t in times])
    order = np.argsort(-n_events, kind="stable")
    n, width = len(paths), int(n_events.max(initial=1))
    ev_times = np.full((width, n), np.nan)
    jump_at = np.full((width, n), -1)
    mark_at = np.zeros((width, n))
    for lane, i in enumerate(order.tolist()):
        ev_times[:len(times[i]), lane] = times[i]
        at = 1 + np.arange(paths[i].n_jumps)        # jump j is event j + 1
        jump_at[at, lane] = np.arange(paths[i].n_jumps)
        mark_at[at, lane] = paths[i].marks
    je, jl = np.nonzero(jump_at >= 0)
    return n_events, order, ev_times, je, jl, JumpLanes(
        table.stream, table.paths[order[jl]], jump_at[je, jl], mark_at[je, jl])


# ---------------------------------------------------------------------------
# the nested state sweep, event by event
# ---------------------------------------------------------------------------

def per_event_excursions(scenario, x, rows: JumpLanes, je, jl, s_j, x_j):
    """`sde._excursions` as the event loop ran it before the nested clock, a
    drop-in for it: event by event, the state check of every lane, then one
    `eval_jumps` (so one `evolve`) of the lanes that jump there, each from
    its pre-jump state.  A failure at event k is raised once the Jacobians of
    the rows of the events before k are checked, so the first failing event's
    error is raised, as the event loop raises it."""
    x, d, evs = x.copy(), scenario.dim, []
    for k in range(1, int(je.max()) + 2):
        a, b = np.searchsorted(je, [k, k + 1])
        try:
            if not np.isfinite(x).all():
                raise sde.EventError("state overflow", k)
            if b > a:
                lanes = jl[a:b]
                x_j[a:b] = x[lanes]
                ev = scenario.bottom.eval_jumps(s_j[a:b], x_j[a:b], rows[a:b])
                x[lanes] = x_j[a:b] + np.broadcast_to(scenario.c(s_j[a:b], x_j[a:b], ev),
                                                      (b - a, d))
                evs.append(ev)
        except Exception:
            if a:
                sde._jump_jacobians(scenario, s_j[:a], x_j[:a], sde._concat(evs), je[:a],
                                    rows.paths[:a])
            raise
    return x, sde._concat(evs)


# ---------------------------------------------------------------------------
# whole-chunk forms of the streamed chunk code
# ---------------------------------------------------------------------------

def ptrs_counts_libm(stream: RngStream, paths: np.ndarray, lam: float) -> np.ndarray:
    """`prm._poisson_ptrs` in one pass over all paths, with every
    acceptance test evaluated by libm's log (`prm._log`) alone."""
    slam, loglam = math.sqrt(lam), math.log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2)
    log_invalpha = math.log(invalpha)
    counts = np.empty(len(paths), dtype=np.int64)
    todo, block = np.arange(len(paths)), 0
    while todo.size:
        u = philox_random(stream, paths[todo], block)
        for w in (0, 2):
            U, V = u[:, w] - 0.5, u[:, w + 1]
            us = 0.5 - np.abs(U)
            with np.errstate(divide="ignore", invalid="ignore"):
                k = np.floor((2 * a / us + b) * U + lam + 0.43)
            done = (us >= 0.07) & (V <= vr)
            test = ~done & np.isfinite(k) & (k >= 0) & ~((us < 0.013) & (V > us))
            for i in np.flatnonzero(test).tolist():
                lhs = ((prm._log(V[i:i + 1])[0] + log_invalpha)
                       - prm._log(np.array([a / (us[i] * us[i]) + b]))[0])
                done[i] = lhs <= -lam + k[i] * loglam - prm._loggam(k[i] + 1)
            counts[todo[done]] = k[done]
            todo, u = todo[~done], u[~done]
        block += 1
    return counts


def simple_ensemble_whole(scenario, n_paths: int, stream: RngStream, path_offset: int,
                          order: int) -> ensemble.SimpleEnsemble:
    """`ensemble.simple_ensemble` as one table over the whole chunk, its marks
    drawn path by path by `prm.sample_path`'s numpy generators."""
    paths = [sample_path(scenario.measure, scenario.horizon,
                         stream.child(path=path_offset + i + 1)) for i in range(n_paths)]
    counts = np.array([p.n_jumps for p in paths], dtype=np.int64)
    marks = np.concatenate([np.empty(0)] + [p.marks for p in paths])
    tab = scenario.simple.table(marks, counts, scenario.horizon, scenario.measure,
                                scenario.compensated, order)
    return ensemble.SimpleEnsemble(
        x=scenario.x0[0] + tab["X"], n_jumps=counts, gamma=tab["gamma"], a=tab["A"],
        g2=tab["G2"], xa=tab.get("XA"), xg2=tab.get("XG2"))


def traj_chunk_whole(args) -> dict:
    """`cli._traj_chunk` in one `sde.integrate_batch` over the whole range."""
    name, params, start, count, seed = args
    sc = scenarios.build(name, **params)
    out = {"x": np.empty((count, sc.dim)), "kk_err": np.empty(count),
           "gamma_min_eig": np.empty(count), "bound_margin": np.full(count, np.nan)}
    cli._traj_batch(sc, seed, start, out)
    return out


def direct_route_whole(sc, n: int, seed: int) -> np.ndarray:
    """`cli._direct_route` path by path: each path's marks from
    `prm.sample_path`, summed whole, and its normals from its own
    generator."""
    route = np.empty((n, sc.dim))
    for i in range(n):
        p = n + i + 1
        marks = sample_path(sc.measure, sc.horizon, RngStream(seed=seed, path=p)).marks
        gen = RngStream(seed=seed, path=p, tag=TAG_NOISE).generator()
        route[i] = (sc.x0 + math.sqrt(float(np.sum(marks))) * sc.meta["sigma0"]
                    @ gen.standard_normal(sc.dim))
    return route

"""Command line interface: run, validate, tauber, crosscheck, report.

Configuration is a JSON file; the schema is documented in the README and
enforced here with field-path error messages.  Monte Carlo work is split
into contiguous path ranges, one per worker: the parent computes the last
range itself and a process pool, one per command, the others, so
`workers: 1` forks nothing and `workers: n` forks at most n - 1 processes,
and never more than the cores - 1.  The ranges are merged in path order,
so results are independent of the worker count.

Exit codes: 0 success, 2 configuration/schema error, 3 hypothesis
failure, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import math
import multiprocessing
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, ensemble, ibp, lent, prm, report, scenarios, sde
from .measures import (InfiniteMassError, LevyMeasureSpec, NonIntegrableError, small_ball_params,
                       tauberian_fit, total_mass)
from .rng import TAG_NOISE, RngStream, normal_quantile, philox_random, standard_normals

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_HYPOTHESIS = 3
EXIT_NUMERIC = 4


class SchemaError(ValueError):
    """Configuration failure, carrying the offending field path."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _require(cond, path, msg):
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def _known_keys(obj: dict, prefix: str, keys) -> None:
    for key in obj:
        _require(key in keys, f"{prefix}{key}", f"unknown key; choose from {sorted(keys)}")


def validate_config(config: dict, need_outputs: bool = True) -> dict:
    """Check the config shape, refuse unknown keys and fill defaults; returns
    the config.  (`check_params` checks the keys of `params`.)"""
    _require(isinstance(config, dict), "$", "config must be a JSON object")
    _known_keys(config, "", ("scenario", "params", "run", "outputs"))
    name = config.get("scenario")
    _require(isinstance(name, str), "scenario", "required string")
    _require(name in scenarios.CATALOG, "scenario",
             f"unknown scenario {name!r}; choose from {sorted(scenarios.CATALOG)}")
    params = config.setdefault("params", {})
    _require(isinstance(params, dict), "params", "must be an object")
    run = config.setdefault("run", {})
    _require(isinstance(run, dict), "run", "must be an object")
    _known_keys(run, "run.", ("seed", "paths", "rho_replicas", "workers"))
    _require(_is_int(run.get("seed")), "run.seed", "required integer")
    run.setdefault("paths", 1000)
    run.setdefault("rho_replicas", 1000)
    if "workers" not in run:
        env = os.environ.get("LENTPARTICLE_WORKERS", "1")
        try:
            run["workers"] = int(env)
        except ValueError:
            raise SchemaError(
                f"run.workers: LENTPARTICLE_WORKERS={env!r} is not an integer") from None
    for key in ("paths", "rho_replicas", "workers"):
        _require(_is_int(run[key]) and run[key] >= 1,
                 f"run.{key}", "must be a positive integer")
    outputs = config.setdefault("outputs", {})
    _require(isinstance(outputs, dict), "outputs", "must be an object")
    _known_keys(outputs, "outputs.", ("dir", "svg"))
    if need_outputs:
        _require(isinstance(outputs.get("dir"), str), "outputs.dir", "required string")
        _require("\0" not in outputs["dir"], "outputs.dir", "must not contain a NUL byte")
        # checked now: a run writes there only after its simulation
        out_dir = Path(outputs["dir"])
        first = next(p for p in (out_dir, *out_dir.parents) if os.path.lexists(p))
        _require(first.is_dir(), "outputs.dir", f"{str(first)!r} exists and is not a directory")
    _require(isinstance(outputs.setdefault("svg", True), bool), "outputs.svg",
             f"must be a boolean, got {outputs['svg']!r}")
    return config


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_float(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_matrix2(value) -> bool:
    return (isinstance(value, list) and len(value) == 2
            and all(isinstance(row, list) and len(row) == 2
                    and all(_is_float(v) and math.isfinite(v) for v in row) for row in value))


# JSON values accepted for a param, by the annotation of the argument that
# reads it (of a scenario builder or of `_tauber_inputs`): (test, name)
_PARAM_TYPES = {"float": (_is_float, "float"),
                "str": (lambda v: isinstance(v, str), "str"),
                "bool": (lambda v: isinstance(v, bool), "bool"),
                "Matrix2": (_is_matrix2, "2x2 matrix of finite numbers, a list of two rows"),
                "Psi": (lambda v: v in ("y", "y2"), "functional name, 'y' or 'y2'"),
                "Weight": (lambda v: isinstance(v, str) and v in scenarios.WEIGHTS,
                           f"form weight name, one of {sorted(scenarios.WEIGHTS)}")}

Psi = str       # the functional of `tauber`, 'y' or 'y2'


def _tauber_inputs(psi: Psi = "y2", eps: float = 0.5, ymax: float = 1.0,
                   horizon: float = 1.0) -> tuple:
    """The params `tauber` reads, as its signature gives them.  It builds no
    scenario (its measure is the untruncated power law), so no builder
    describes these keys or their defaults."""
    return psi, eps, ymax, horizon


# Expected jumps per path above which a config is refused: the engines hold
# every mark of a chunk in memory and the trajectory route steps through
# them one event at a time.  Catalog defaults ask for at most 18.
MAX_JUMPS_PER_PATH = 10_000
# Nested Euler steps of the longest excursion (params.ymax /
# params.nested_step) above which a config is refused: they size the arrays
# of `prm.nested_grid`.  Catalog defaults ask for at most 50.
MAX_NESTED_STEPS = 10_000


def check_params(config: dict, command: str):
    """Check the params against the signature of what reads them: the
    scenario's builder, or `_tauber_inputs` for `tauber`.  An unknown or
    ill-typed key is a SchemaError (exit 2); a float that is not finite, a
    jump measure that `LevyMeasureSpec` refuses, or a value out of range,
    jump bound and nested-step bound included, is a ValueError (exit 3)."""
    name = config["scenario"]
    reader, owner = ((_tauber_inputs, "the tauber command") if command == "tauber"
                     else (scenarios.CATALOG[name], f"scenario {name!r}"))
    sig = inspect.signature(reader).parameters
    params = config["params"]
    for key, value in params.items():
        _require(key in sig, f"params.{key}",
                 f"unknown parameter of {owner}; choose from {sorted(sig)}")
        ok, kind = _PARAM_TYPES[sig[key].annotation]
        _require(ok(value), f"params.{key}", f"must be a {kind}, got {value!r}")
    values = {key: params.get(key, p.default) for key, p in sig.items()}
    for key, value in values.items():
        if sig[key].annotation == "float" and not math.isfinite(value):
            raise ValueError(f"params.{key} = {value} must be finite")
    try:                                        # tauber's measure is untruncated
        spec = LevyMeasureSpec(values["eps"], ymax=values["ymax"], trunc=values.get("trunc", 0.0))
    except ValueError as e:                     # the spec names its fields; qualify them
        raise ValueError(re.sub(r"\b(eps|ymax|trunc)\b", r"params.\1", str(e))) from None
    if values["horizon"] <= 0:
        raise ValueError("params.horizon must be > 0")
    step = values.get("nested_step", math.inf)      # inf: no nested excursions
    if not (step > 0 and spec.ymax / step <= MAX_NESTED_STEPS):
        raise ValueError(f"params.nested_step = {step} out of range: it must be > 0, and "
                         f"params.ymax / params.nested_step (the steps of the longest "
                         f"excursion) at most {MAX_NESTED_STEPS}")
    if command == "tauber":           # tauber draws no jumps
        return
    try:
        jumps = values["horizon"] * total_mass(spec)
    except (InfiniteMassError, OverflowError):
        jumps = math.inf
    if not jumps <= MAX_JUMPS_PER_PATH:
        raise ValueError(
            f"params.horizon x the mass of the jump measure (params.eps = {spec.eps} on "
            f"(params.trunc, params.ymax] = ({spec.trunc}, {spec.ymax}]) asks for "
            f"{jumps:.3g} jumps per path, above the limit of {MAX_JUMPS_PER_PATH}; raise "
            "params.trunc, or lower params.eps or params.horizon")


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"$: config file not found: {path}")
    except OSError as e:
        raise SchemaError(f"$: cannot read config file {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise SchemaError(f"$: config file {path} is not UTF-8: {e}")
    except json.JSONDecodeError as e:
        raise SchemaError(f"$: invalid JSON: {e}")


# ---------------------------------------------------------------------------
# worker functions (top level so they pickle)
# ---------------------------------------------------------------------------

# the IBP weight order `run` estimates at (Z1, for the density and the
# sin check): its chunks tabulate only the columns that order reads
RUN_WEIGHT_ORDER = 1

# Lanes per `sde.integrate_batch` call of a trajectory chunk, so a chunk
# holds one batch's event tables (~7 kB a lane on `subordination-nonlinear`,
# ~19 kB on a compensated chunk) whatever its size.  A batch pays the
# per-event block cost of `sde._advance` once more; sized in CHANGES.md.
LANE_BATCH = 4096


def _simple_chunk(args):
    name, params, start, count, seed = args
    sc = scenarios.build(name, **params)
    ens = ensemble.simple_ensemble(sc, count, RngStream(seed=seed), order=RUN_WEIGHT_ORDER,
                                   path_offset=start)
    ens.n_jumps = None          # `run` reads no jump count
    return ens


def _traj_chunk(args):
    """States, flow-inverse errors, the smallest eigenvalue of Gamma and the
    margin over the scenario's pathwise lower bound (NaN without one) of a
    path range, integrated LANE_BATCH lanes at a time.  Lanes do not
    interact, so the batches give the bits of one batch; a failure is the
    first failing batch's."""
    name, params, start, count, seed = args
    sc = scenarios.build(name, **params)
    out = {"x": np.empty((count, sc.dim)), "kk_err": np.empty(count),
           "gamma_min_eig": np.empty(count), "bound_margin": np.full(count, np.nan)}
    for lo in range(0, count, LANE_BATCH):
        hi = min(lo + LANE_BATCH, count)
        _traj_batch(sc, seed, start + lo, {key: col[lo:hi] for key, col in out.items()})
    return out


def _traj_batch(sc, seed: int, start: int, out: dict):
    """Fill `out`, the columns of `_traj_chunk` for len(out["x"]) paths from
    path index `start` on, from one `sde.integrate_batch`, which is dropped
    on return."""
    batch = sde.integrate_batch(sc, len(out["x"]), RngStream(seed=seed), path_offset=start)
    gamma = batch.gamma
    out["x"][:] = batch.x
    out["kk_err"][:] = batch.kk_err
    out["gamma_min_eig"][:] = np.linalg.eigvalsh(gamma)[:, 0]
    lower_bound = sc.meta.get("pathwise_lower_bound")
    if lower_bound is not None:
        # each jump's B value, at its place in the table
        table = batch.table
        bvals, starts = np.empty(table.n_jumps), np.cumsum(table.counts) - table.counts
        for rows in batch.jumps:
            bvals[starts[rows.lanes] + rows.index] = rows.ev.b
        bound = lower_bound(table, bvals)[:, None, None] * np.eye(sc.dim)
        out["bound_margin"][:] = np.linalg.eigvalsh(gamma - bound)[:, 0]


def _chunk_size(paths: int, workers: int) -> tuple[int, int]:
    """Paths per chunk of a fan-out, ceil(paths / workers), and the number of
    chunks: every chunk but the last has that size, and the last is never
    larger, so there are at most `workers` chunks."""
    size = -(-paths // workers)
    return size, -(-paths // size)


def _fan_out(worker, name, params, paths, seed, workers, pool=None, then=None):
    """The results of the chunks `_chunk_size(paths, workers)` lays out, in
    path order, with the same bits however they run.  Without a pool they
    run serially; with one, the parent computes the last chunk while the
    pool runs the others.  The chunks are walked, never listed: the pool
    takes them one by one.

    `then`, if given, is called in the parent once its own chunk is done and
    before the pool's are collected (serially, after every chunk), so that
    work the chunks do not feed fills the parent's wait.  Failures raise as
    they would serially: the first failing pool chunk in path order, then
    the parent's chunk, which stops `then` from running, then `then`."""
    size, n = _chunk_size(paths, workers)
    last = (n - 1) * size
    jobs = ((name, params, i * size, size, seed) for i in range(n - 1))
    if pool is None or n == 1:
        parts = [worker(j) for j in jobs] + [worker((name, params, last, paths - last, seed))]
        if then is not None:
            then()
        return parts
    rest = pool.imap(worker, jobs)
    try:
        tail = worker((name, params, last, paths - last, seed))
        if then is not None:
            then()
    finally:
        parts = list(rest)
    return parts + [tail]


class _Deferred:
    """A call made when this is called, whose value, or error, `result`
    gives later: work run early whose failure must surface where it ran
    before."""

    def __init__(self, fn, *args):
        self._call = functools.partial(fn, *args)
        self._value = self._error = None

    def __call__(self):
        try:
            self._value = self._call()
        except Exception as e:      # delivered by result()
            self._error = e

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


def _merge(parts: list) -> dict:
    """The columns of the chunk results `parts` (dicts of per-path arrays),
    each joined in path order; a column leaves the parts as it is joined."""
    return {key: np.concatenate([p.pop(key) for p in parts]) for key in list(parts[0])}


def _command_pool(run: dict):
    """The process pool of a command that fans out, or a null context when it
    runs serially.  The parent computes one chunk itself, so the pool has one
    process per other chunk: `workers: 1` forks nothing and `workers: n` forks
    at most n - 1 (fewer when `run.paths` gives fewer chunks), and never more
    than the cores - 1, for which the other chunks queue.  The pool lives as
    long as the pipeline, not the fan-out, and the pipelines fan out before
    their serial diagnostics, so the workers hold their peak memory for the
    rest of every run.  A sampled memory reading (bench/run.py polls every
    0.2 s) sees them only if the command outlives its first poll: a shorter
    one reads the parent alone."""
    forks = min(_chunk_size(run["paths"], run["workers"])[1], os.cpu_count() or 1) - 1
    if forks == 0:
        return contextlib.nullcontext()
    return multiprocessing.Pool(forks)


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def _require_two_paths(run: dict, use: str):
    if run["paths"] < 2:
        raise ValueError(f"run.paths = {run['paths']}: {use} needs 2 or more paths")


def _dual_oracle(sc, seed, rho_replicas):
    """Gamma by product formula vs Monte Carlo on a fixed path.

    Returns both matrices, their relative error and the path's jump count:
    without a jump both routes give Gamma = 0 and the error reads 0 vacuously.
    """
    stream = RngStream(seed=seed, path=1)
    path = prm.sample_path(sc.measure, sc.horizon, stream)
    traj = sde.integrate(sc, path, order=1)
    mm = lent.malliavin_matrix(traj)
    grads = lent.gradient_samples(sc, traj, rho_replicas, stream)
    emp = lent.empirical_gamma(grads)
    denom = max(float(np.max(np.abs(mm.gamma))), 1e-300)
    rel = float(np.max(np.abs(emp - mm.gamma))) / denom
    return mm, emp, rel, path.n_jumps


def run_pipeline(config: dict, pool=None) -> report.RunReport:
    name = config["scenario"]
    params = config["params"]
    run = config["run"]
    sc = scenarios.build(name, **params)
    if sc.simple is None:     # the ensemble branch checks its spread below
        _require_two_paths(run, "the standard error of each mean")
    rep = report.RunReport(config=config)
    out_dir = Path(config["outputs"]["dir"])
    # the output files are written only once every stage has succeeded, so
    # a run that withholds its outputs leaves no output directory
    writes = []
    # the dual oracle reads no chunk: the parent runs it while the pool works
    oracle = _Deferred(_dual_oracle, sc, run["seed"], run["rho_replicas"])

    if sc.simple is not None:          # mark sums: the vectorised ensemble
        ens = ensemble.merge_ensembles(_fan_out(_simple_chunk, name, params, run["paths"],
                                                run["seed"], run["workers"], pool, then=oracle))
        if len(ens) < 2 or np.all(ens.x == ens.x[0]):
            cause = "fewer than 2 paths" if len(ens) < 2 else "every path ends at the same X"
            raise ValueError(f"degenerate ensemble ({cause}): the estimates need 2 or more "
                             "paths with distinct X; raise run.paths, or the jump count by "
                             "raising params.horizon or lowering params.trunc")
        accepted = int(np.count_nonzero(ens.gamma > ibp.DET_GAMMA_FLOOR))
        if accepted < 2:
            raise ValueError(f"{accepted} of {len(ens)} paths pass the Z1 acceptance (gamma > "
                             f"{ibp.DET_GAMMA_FLOOR:g}): the IBP estimates need 2 or more; "
                             "raise params.horizon or lower params.trunc")
        rep.add_mean("mean_x", ens.x)
        rep.add_mean("mean_gamma", ens.gamma)

        w1 = ibp.weight(ens, RUN_WEIGHT_ORDER)
        ens.a = ens.g2 = None       # read by the weight alone: freed before the density
        rep.add_mean("mean_z1", w1.values)
        rep.diagnostics["z1_rejection_fraction"] = w1.rejection_fraction
        if w1.rejection_fraction > 0.01:
            rep.diagnostics["warnings"] = ["Z1 rejection fraction exceeds 1%"]
        x0 = sc.x0[0]
        est = ibp.expectation_ibp(lambda x: np.sin(x - x0), ens.x, w1,
                                  f_deriv=lambda x: np.cos(x - x0))
        rep.add_estimate("ibp_sin_weighted", est.weighted, est.weighted_se, est.n)
        rep.add_estimate("ibp_sin_direct", est.direct, est.direct_se, len(ens))

        mu, sd = float(np.mean(ens.x)), float(np.std(ens.x))
        grid = np.linspace(mu - 3 * sd, mu + 3 * sd, 41)
        dens = ibp.density_ibp(ens.x, w1, grid)
        rep.add_estimate("density_mass", dens.mass(), 0.0, len(ens))
        rep.verdicts["density_mass_2pct"] = bool(abs(dens.mass() - 1.0) < 0.02)
        writes.append(functools.partial(
            report.write_csv, out_dir / "density.csv", ["grid", "ibp", "ibp_se", "kde"],
            list(zip(dens.grid.tolist(), dens.ibp.tolist(),
                     dens.ibp_se.tolist(), dens.kde.tolist()))))
        if config["outputs"].get("svg"):
            writes.append(functools.partial(
                report.svg_line_chart, out_dir / "density.svg",
                {"ibp": (dens.grid, dens.ibp), "kde": (dens.grid, dens.kde)},
                title=f"{name}: density at the horizon", xlabel="x", ylabel="p(x)"))
        inv = diagnostics.inverse_moment(ens.gamma[ens.gamma > 0], 2)
        rep.diagnostics["gamma_inverse_moment_p2"] = {
            "estimate": inv.estimate, "stable": inv.stable, "verdict": inv.verdict}
    else:
        cols = _merge(_fan_out(_traj_chunk, name, params, run["paths"],
                               run["seed"], run["workers"], pool, then=oracle))
        x, kk, eig, margins = (cols[k] for k in ("x", "kk_err", "gamma_min_eig", "bound_margin"))
        for i in range(sc.dim):
            rep.add_mean(f"mean_x{i}", x[:, i])
        rep.add_estimate("max_flow_inverse_error", float(np.max(kk)), 0.0, len(kk))
        rep.verdicts["flow_inverse_1e-8"] = bool(np.max(kk) <= 1e-8)
        rep.add_estimate("min_gamma_eigenvalue", float(np.min(eig)), 0.0, len(eig))
        if not np.all(np.isnan(margins)):
            worst = float(np.nanmin(margins))
            rep.add_estimate("min_lower_bound_margin", worst, 0.0, len(margins))
            rep.verdicts["pathwise_lower_bound_psd"] = bool(worst >= -1e-10)
        writes.append(functools.partial(
            report.write_csv, out_dir / "states.csv",
            [f"x{i}" for i in range(sc.dim)] + ["kk_err", "gamma_min_eig"],
            [list(map(float, row)) + [float(a), float(b)] for row, a, b in zip(x, kk, eig)]))

    # the serial diagnostics follow the fan-out; the oracle's failure comes here
    mm, emp, rel, n_jumps = oracle.result()
    rep.diagnostics["gamma_product"] = mm.gamma.tolist()
    rep.diagnostics["gamma_monte_carlo"] = emp.tolist()
    rep.add_estimate("gamma_dual_oracle_rel_err", rel, 0.0, run["rho_replicas"])
    rep.verdicts["gamma_dual_oracle_5pct"] = bool(n_jumps > 0 and rel < 0.05)
    if n_jumps == 0:
        rep.diagnostics["gamma_dual_oracle_no_jump"] = (
            "the dual-oracle path (path 1) has no jump: both routes give Gamma = 0, "
            "so the check is vacuous and its verdict is false")

    hyp = diagnostics.hypothesis_report(sc)
    rep.diagnostics["hypotheses"] = hyp.to_dict()
    rep.verdicts["hypotheses_pass"] = hyp.passed()

    out_dir.mkdir(parents=True, exist_ok=True)
    for write in writes:
        write()
    return rep


def _ks_two_sample(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Two-sided two-sample Kolmogorov-Smirnov test for samples of equal size.

    Returns the statistic d = h/n and the exact p-value P(D_{n,n} >= h/n),
    2 sum_k (-1)^(k-1) C(2n, n-kh) / C(2n, n), evaluated as a Horner-like
    product that avoids the alternating sum's cancellation (the exact
    method of scipy's ks_2samp, used here at every n).
    """
    n = len(a)
    if n == 0 or len(b) != n:
        raise ValueError(f"the KS test needs two non-empty samples of equal size, "
                         f"got {len(a)} and {len(b)}")
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    # n times the ECDF difference at every sample point, ties included
    diffs = np.searchsorted(a, both, side="right") - np.searchsorted(b, both, side="right")
    h = int(max(-diffs.min(), diffs.max()))
    if h == 0:
        return 0.0, 1.0
    p = 0.0
    for k in range(n // h, -1, -1):
        term = 1.0
        for j in range(h):
            term = (n - k * h - j) * term / (n + k * h + j + 1)
        p = term * (1.0 - p)
    return h / n, min(max(2.0 * p, 0.0), 1.0)


def _direct_route(sc, n: int, seed: int) -> np.ndarray:
    """The direct route of `crosscheck`: the total subordinator time, then
    one Gaussian displacement.  Paths n + 1 .. 2n draw the marks and normals
    that `prm.sample_path` and their own noise streams' generators would;
    their marks are summed block by block (`ensemble.mark_blocks`), and
    their normals drawn at once (`rng.standard_normals`)."""
    y_total = np.empty(n)
    counts, blocks = ensemble.mark_blocks(sc, n, RngStream(seed=seed), path_offset=n)
    for p, marks in blocks:
        ends = np.cumsum(counts[p])
        for i, end in zip(range(p.start, p.stop), ends.tolist()):
            y_total[i] = np.sum(marks[end - counts[i]:end])
    d, sigma0 = sc.dim, sc.meta["sigma0"]
    z = standard_normals(RngStream(seed=seed, tag=TAG_NOISE), np.full(n, d),
                         path=np.arange(n + 1, 2 * n + 1))
    # one (d, d) @ (d,) product per path, as sqrt(y) * sigma0 @ z path by path
    return sc.x0 + (np.sqrt(y_total)[:, None, None] * sigma0 @ z.reshape(n, d, 1))[..., 0]


def crosscheck_pipeline(config: dict, pool=None) -> report.RunReport:
    """Two independent simulations of the subordinated law, compared by KS."""
    name = config["scenario"]
    if name != "subordination-linear":
        raise SchemaError("scenario: crosscheck requires 'subordination-linear'")
    params = config["params"]
    run = config["run"]
    _require_two_paths(run, "the half-sample Kolmogorov-Smirnov test")
    sc = scenarios.build(name, **params)
    n = run["paths"]
    rep = report.RunReport(config=config)

    route_sde = _merge(_fan_out(_traj_chunk, name, params, n, run["seed"], run["workers"],
                                pool))["x"]
    route_direct = _direct_route(sc, n, run["seed"])
    d = sc.dim

    out_dir = Path(config["outputs"]["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    all_p = []
    for i in range(d):
        stat, pvalue = _ks_two_sample(route_sde[:, i], route_direct[:, i])
        half_stat, _ = _ks_two_sample(route_sde[: n // 2, i], route_direct[: n // 2, i])
        rep.add_estimate(f"ks_stat_x{i}", stat, 0.0, n)
        rep.add_estimate(f"ks_pvalue_x{i}", pvalue, 0.0, n)
        rep.add_estimate(f"ks_stat_half_x{i}", half_stat, 0.0, n // 2)
        all_p.append(pvalue)
    rep.verdicts["ks_pvalue_above_1pct"] = bool(min(all_p) > 0.01)
    report.write_csv(out_dir / "crosscheck.csv",
                     [f"sde_x{i}" for i in range(d)] + [f"direct_x{i}" for i in range(d)],
                     [list(map(float, a)) + list(map(float, b))
                      for a, b in zip(route_sde, route_direct)])
    return rep


def tauber_pipeline(config: dict) -> report.RunReport:
    """Laplace-exponent fit and, for the linear functional, a small-ball fit."""
    run = config["run"]
    psi_name, eps, ymax, horizon = _tauber_inputs(**config["params"])
    spec = LevyMeasureSpec(eps, ymax=ymax)
    psi = {"y": lambda y: y, "y2": lambda y: y ** 2}[psi_name]
    rep = report.RunReport(config=config)

    fit = tauberian_fit(psi, spec, np.logspace(4, 12, 24))
    rep.add_estimate("alpha", fit.alpha, fit.residual, len(fit.lam_grid))
    rep.add_estimate("r1", fit.r1, 0.0, len(fit.lam_grid))
    rep.diagnostics["regime"] = fit.regime
    if fit.regime == "tauberian":
        beta, r2 = small_ball_params(fit.alpha, fit.r1, horizon)
        rep.add_estimate("beta_implied", beta, 0.0, 0)
        rep.add_estimate("r2_implied", r2, 0.0, 0)

    if psi_name == "y" and fit.regime == "tauberian":
        samples = diagnostics_stable_samples(run["paths"], run["seed"], horizon)
        sb = diagnostics.small_ball_fit(samples, np.linspace(0.45, 1.1, 12) * horizon ** 2)
        rep.add_estimate("beta_fit", sb.beta, 0.0, run["paths"])
        rep.add_estimate("r2_fit", sb.r2, 0.0, run["paths"])
        rep.diagnostics["small_ball"] = {
            "r_squared": sb.r_squared, "regime": sb.regime, "warnings": sb.warnings}
        out_dir = Path(config["outputs"]["dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        report.write_csv(out_dir / "small_ball.csv", ["eps", "log_p"],
                         list(zip(sb.eps_grid.tolist(), sb.log_p.tolist())))
        if config["outputs"].get("svg"):
            report.svg_line_chart(
                out_dir / "small_ball.svg",
                {"log P(V<=eps)": (sb.eps_grid ** (-sb.beta), sb.log_p)},
                title="small-ball fit", xlabel="eps^-beta", ylabel="log P")
    return rep


def diagnostics_stable_samples(n: int, seed: int, horizon: float) -> np.ndarray:
    """Exact draws of the linear jump functional with measure y^(-3/2) dy.

    Its law is the half-stable subordinator value, with the closed-form
    distribution function erfc(sqrt(pi t^2 / x)); inverse-CDF sampling
    avoids the truncation bias a jump-sum simulation would add in the
    deep lower tail.  erfc(x) = 2 Phi(-x sqrt 2), so the inverse is
    erfcinv(u) = -Phi^-1(u / 2) / sqrt 2, and u = 0 gives x = 0.
    """
    stream = RngStream(seed=seed, tag=TAG_NOISE)
    u = philox_random(stream, stream.path, np.arange(math.ceil(n / 4))).reshape(-1)[:n]
    erfcinv = np.full(n, math.inf)
    pos = u > 0
    erfcinv[pos] = -normal_quantile(u[pos] / 2) / math.sqrt(2)
    return horizon ** 2 * math.pi / erfcinv ** 2


def validate_pipeline(config: dict) -> tuple[int, dict]:
    sc = scenarios.build(config["scenario"], **config["params"])
    hyp = diagnostics.hypothesis_report(sc)
    body = hyp.to_dict()
    if not hyp.passed():
        return EXIT_HYPOTHESIS, body
    return EXIT_OK, body


def _density_estimates(header, rows) -> dict:
    """{estimate: (value, None, tolerance)} re-derived from density.csv; the
    grid has no count to check against the estimate's n."""
    if len(header) < 2:
        raise ValueError("needs the grid and ibp columns")
    mass = float(np.trapezoid(rows[:, 1], rows[:, 0]))
    return {"density_mass": (mass, None, 1e-9 * abs(mass) + 1e-12)}


def _states_estimates(header, rows) -> dict:
    """{estimate: (value, n, tolerance)} re-derived from states.csv."""
    d = len(header) - 2
    if header != [f"x{i}" for i in range(d)] + ["kk_err", "gamma_min_eig"] or not len(rows):
        raise ValueError("needs rows of x0, x1, ..., kk_err, gamma_min_eig")
    # a cell carries 12 significant digits, so a mean is off by at most
    # 5e-12 of its column's mean magnitude
    x, kk, n = rows[:, :d], float(rows[:, d].max()), len(rows)
    out = {f"mean_x{i}": (float(m), n, 1e-9 * float(a) + 1e-12)
           for i, (m, a) in enumerate(zip(x.mean(axis=0), np.abs(x).mean(axis=0)))}
    out["max_flow_inverse_error"] = (kk, n, 1e-9 * abs(kk) + 1e-12)
    return out


def report_pipeline(run_dir: str) -> int:
    """Re-derive summary numbers from the CSVs and check them against the
    stored report; prints the summary.  `density.csv` gives density_mass;
    `states.csv`, on a trajectory run, gives every mean_x{i} and
    max_flow_inverse_error, whose n must equal its row count; a mean_x{i}
    that no column gives is a mismatch, and a table the report's keys call
    for must be there."""
    run_dir = Path(run_dir)
    rep_path = run_dir / "report.json"
    if not rep_path.exists():
        print(f"no report.json in {run_dir}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        estimates = report.report_body(rep_path).get("estimates")
        if not isinstance(estimates, dict):
            raise ValueError("no estimates object")
        for key, entry in estimates.items():
            if not (isinstance(entry, dict) and _is_float(entry.get("value"))
                    and _is_int(entry.get("n"))):
                raise ValueError(f"{key} has no numeric value and count")
    except (OSError, ValueError) as e:      # ValueError: bad JSON or UTF-8 too
        print(f"unreadable report {rep_path}: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    print(json.dumps(estimates, indent=2, sort_keys=True))
    # a table is read, and must be there, when the report holds its key; the
    # estimates whose names it owns must be exactly those it gives
    for name, key, owns, rederive in (
            ("density.csv", "density_mass", r"density_mass", _density_estimates),
            ("states.csv", "max_flow_inverse_error", r"mean_x\d+|max_flow_inverse_error",
             _states_estimates)):
        path = run_dir / name
        if key not in estimates:
            continue
        try:
            derived = rederive(*report.read_csv(path))
        except (OSError, ValueError) as e:
            print(f"unreadable table {path}: {e}", file=sys.stderr)
            return EXIT_SCHEMA
        extra = sorted(k for k in estimates if re.fullmatch(owns, k) and k not in derived)
        if extra:
            print(f"{name} does not match the report: no column gives {', '.join(extra)}",
                  file=sys.stderr)
            return EXIT_NUMERIC
        for est, (value, n, tol) in derived.items():
            entry = estimates.get(est, {"value": math.nan})
            if not (abs(entry["value"] - value) <= tol and n in (None, entry.get("n"))):
                rows = f" from {n} rows" if n else ""
                print(f"{name} does not match the report: {est} {value}{rows}, stored {entry}",
                      file=sys.stderr)
                return EXIT_NUMERIC
            print(f"{est.replace('_', ' ')} from CSV: {value:.6g} (matches report)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lentparticle",
        description="Monte Carlo Malliavin calculus for jump SDEs")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("run", "validate", "tauber", "crosscheck"):
        p = sub.add_parser(cmd)
        p.add_argument("config")
    sub.add_parser("report").add_argument("run_dir")
    args = parser.parse_args(argv)

    if args.command == "report":
        return report_pipeline(args.run_dir)

    try:
        config = load_config(args.config)
        validate_config(config, need_outputs=args.command != "validate")
        check_params(config, args.command)
        if args.command == "validate":
            code, body = validate_pipeline(config)
            print(json.dumps(body, indent=2, sort_keys=True))
            if code != EXIT_OK:
                failures = [i["name"] for i in body["items"] if i["status"] == "fail"]
                print(f"hypothesis failures: {failures}", file=sys.stderr)
            return code
        if args.command == "tauber":
            rep = tauber_pipeline(config)
        else:
            pipeline = run_pipeline if args.command == "run" else crosscheck_pipeline
            with _command_pool(config["run"]) as pool:
                rep = pipeline(config, pool)
    except SchemaError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except ValueError as e:
        print(f"hypothesis failure: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (sde.EventError, NonIntegrableError, FloatingPointError,
            np.linalg.LinAlgError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC

    out_dir = Path(config["outputs"]["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    rep.dump(out_dir / "report.json")
    print(f"report written to {out_dir / 'report.json'}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface: run, validate, tauber, crosscheck, report.

Configuration is a JSON file; the schema is documented in the README and
enforced here with field-path error messages.  Monte Carlo work is split
into contiguous path ranges, one per worker: the parent computes the last
range itself and a process pool, one per command, the others, so
`workers: 1` forks nothing and `workers: n` forks at most n - 1 processes.
The ranges are merged in path order, so results are independent of the
worker count.

Exit codes: 0 success, 2 configuration/schema error, 3 hypothesis
failure, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import math
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, ensemble, ibp, lent, prm, report, scenarios, sde
from .ibp import _mean_se
from .measures import (InfiniteMassError, NonIntegrableError, power_law, small_ball_params,
                       tauberian_fit, total_mass)
from .rng import TAG_NOISE, RngStream, normal_quantile

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


def validate_config(config: dict, need_outputs: bool = True) -> dict:
    """Check the config shape and fill defaults; returns the config."""
    _require(isinstance(config, dict), "$", "config must be a JSON object")
    name = config.get("scenario")
    _require(isinstance(name, str), "scenario", "required string")
    _require(name in scenarios.CATALOG, "scenario",
             f"unknown scenario {name!r}; choose from {sorted(scenarios.CATALOG)}")
    params = config.setdefault("params", {})
    _require(isinstance(params, dict), "params", "must be an object")
    run = config.setdefault("run", {})
    _require(isinstance(run, dict), "run", "must be an object")
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
    if need_outputs:
        _require(isinstance(outputs.get("dir"), str), "outputs.dir", "required string")
    outputs.setdefault("svg", True)
    return config


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_float(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_matrix2(value) -> bool:
    return (isinstance(value, list) and len(value) == 2
            and all(isinstance(row, list) and len(row) == 2
                    and all(_is_float(v) and math.isfinite(v) for v in row) for row in value))


# JSON values accepted for a builder parameter, by its annotation: (test, name)
_PARAM_TYPES = {"float": (_is_float, "float"),
                "str": (lambda v: isinstance(v, str), "str"),
                "bool": (lambda v: isinstance(v, bool), "bool"),
                "Matrix2": (_is_matrix2, "2x2 matrix of finite numbers, a list of two rows"),
                "Psi": (lambda v: v in ("y", "y2"), "functional name, 'y' or 'y2'")}

# The params `tauber` reads, with annotation and default.  It builds no
# scenario (its measure is the untruncated power law), so the scenario's
# builder describes neither these keys nor their defaults
TAUBER_PARAMS = {"psi": ("Psi", "y2"), "eps": ("float", 0.5), "ymax": ("float", 1.0),
                 "horizon": ("float", 1.0)}


def _param_schema(config: dict, command: str) -> tuple[dict, str]:
    """{key: (annotation, default)} of the params the command reads, and
    the name of what reads them."""
    if command == "tauber":
        return TAUBER_PARAMS, "the tauber command"
    name = config["scenario"]
    sig = inspect.signature(scenarios.CATALOG[name]).parameters
    return {key: (p.annotation, p.default) for key, p in sig.items()}, f"scenario {name!r}"


def check_scenario_params(config: dict, command: str):
    """Every params key must be an argument of the scenario's builder, of its
    type; for `tauber`, a key of TAUBER_PARAMS."""
    schema, owner = _param_schema(config, command)
    for key, value in config["params"].items():
        _require(key in schema, f"params.{key}",
                 f"unknown parameter of {owner}; choose from {sorted(schema)}")
        ok, kind = _PARAM_TYPES[schema[key][0]]
        _require(ok(value), f"params.{key}", f"must be a {kind}, got {value!r}")


# Expected jumps per path above which a config is refused: the engines hold
# every mark of a chunk in memory and the trajectory route steps through
# them one event at a time.  Catalog defaults ask for at most 18.
MAX_JUMPS_PER_PATH = 10_000


def _range_values(config: dict, command: str) -> dict:
    """eps, trunc, horizon and ymax of the config, defaults filled in;
    trunc is 0 for `tauber`."""
    params = config["params"]
    keys = ("eps", "trunc", "horizon", "ymax")
    for key in keys:
        if key in params:
            _require(_is_float(params[key]), f"params.{key}",
                     f"must be a float, got {params[key]!r}")
    schema, _ = _param_schema(config, command)
    return {key: params.get(key, schema[key][1] if key in schema else 0.0) for key in keys}


def check_param_ranges(config: dict, command: str):
    """Scenario-specific numeric constraints (hypothesis-level, exit 3)."""
    values = _range_values(config, command)
    for key, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"params.{key} = {value} must be finite")
    eps, trunc, horizon, ymax = values.values()
    if not 0.0 < eps < 1.0:
        raise ValueError(
            f"params.eps = {eps} out of range: the power-law family needs "
            "0 < eps < 1 for the Laplace-exponent asymptotics to apply")
    if trunc < 0:
        raise ValueError("params.trunc must be >= 0")
    if horizon <= 0:
        raise ValueError("params.horizon must be > 0")
    if not ymax > trunc:              # trunc >= 0, so this also needs ymax > 0
        raise ValueError(f"params.ymax = {ymax} out of range: the mark support "
                         f"(params.trunc, params.ymax] = ({trunc}, {ymax}] must not be empty")


def check_jump_count(config: dict, command: str):
    """The expected jumps per path, horizon x total mass, must not exceed
    MAX_JUMPS_PER_PATH (hypothesis-level, exit 3); needs check_param_ranges."""
    eps, trunc, horizon, ymax = _range_values(config, command).values()
    try:
        jumps = horizon * total_mass(power_law(eps, ymax=ymax, trunc=trunc))
    except (InfiniteMassError, OverflowError):
        jumps = math.inf
    if not jumps <= MAX_JUMPS_PER_PATH:
        raise ValueError(
            f"params.horizon x the mass of the jump measure (params.eps = {eps} on "
            f"(params.trunc, params.ymax] = ({trunc}, {ymax}]) asks for {jumps:.3g} "
            f"jumps per path, above the limit of {MAX_JUMPS_PER_PATH}; raise "
            "params.trunc, or lower params.eps or params.horizon")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"$: config file not found: {path}")
    except json.JSONDecodeError as e:
        raise SchemaError(f"$: invalid JSON: {e}")


# ---------------------------------------------------------------------------
# worker functions (top level so they pickle)
# ---------------------------------------------------------------------------

def _simple_chunk(args):
    name, params, start, count, seed = args
    sc = scenarios.build(name, **params)
    return ensemble.simple_ensemble(sc, count, RngStream(seed=seed), path_offset=start)


def _traj_chunk(args):
    name, params, start, count, seed = args
    sc = scenarios.build(name, **params)
    batch = sde.integrate_batch(sc, count, RngStream(seed=seed), path_offset=start)
    gamma = batch.gamma
    out = {"x": batch.x, "n_jumps": np.array([p.n_jumps for p in batch.paths], dtype=np.int64),
           "kk_err": batch.kk_err, "gamma_min_eig": np.linalg.eigvalsh(gamma)[:, 0],
           "bound_margin": np.full(count, np.nan)}
    lower_bound = sc.meta.get("pathwise_lower_bound")
    if lower_bound is not None:
        bvals = np.zeros((count, int(out["n_jumps"].max(initial=0))))
        for rec in batch.jumps:
            bvals[rec.lanes, rec.index] = rec.ev.b
        eye = np.eye(sc.dim)
        for i, path in enumerate(batch.paths):
            bound = lower_bound(path.marks, bvals[i, :path.n_jumps])
            out["bound_margin"][i] = float(np.linalg.eigvalsh(gamma[i] - bound * eye)[0])
    return out


def _chunks(paths: int, workers: int) -> list[tuple[int, int]]:
    """(start, count) of the contiguous path ranges of a fan-out: ceil(paths /
    workers) paths each, the last never larger, so at most `workers` ranges."""
    size = math.ceil(paths / workers)
    return [(start, min(size, paths - start)) for start in range(0, paths, size)]


def _fan_out(worker, name, params, paths, seed, workers, pool=None):
    """The chunks of `_chunks(paths, workers)`, in path order, with the same
    bits however they run.  Without a pool they run serially; with one, the
    parent computes the last chunk while the pool runs the others.  A failing
    chunk raises as it would serially: the first failing pool chunk in path
    order, and the parent's only when all of those succeed."""
    jobs = [(name, params, start, count, seed) for start, count in _chunks(paths, workers)]
    if pool is None or len(jobs) == 1:
        return [worker(j) for j in jobs]
    rest = pool.imap(worker, jobs[:-1])
    try:
        last = worker(jobs[-1])
    finally:
        parts = list(rest)
    return parts + [last]


def _command_pool(run: dict):
    """The process pool of a command that fans out, or a null context when it
    runs serially.  The parent computes one chunk itself, so the pool has one
    process per other chunk: `workers: 1` forks nothing and `workers: n` forks
    at most n - 1 (fewer when `run.paths` gives fewer chunks).  The pool lives
    as long as the pipeline, not the fan-out, and the pipelines fan out before
    their serial diagnostics, so the workers hold their peak memory for the
    rest of every run and a sampled memory reading (bench/run.py polls every
    0.2 s) sees them however short the chunks are."""
    forks = len(_chunks(run["paths"], run["workers"])) - 1
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
    out_dir.mkdir(parents=True, exist_ok=True)

    if sc.simple is not None:          # mark sums: the vectorised ensemble
        parts = _fan_out(_simple_chunk, name, params, run["paths"],
                         run["seed"], run["workers"], pool)
        ens = ensemble.merge_ensembles(parts)
        if len(ens) < 2 or np.all(ens.x == ens.x[0]):
            cause = "fewer than 2 paths" if len(ens) < 2 else "every path ends at the same X"
            raise ValueError(f"degenerate ensemble ({cause}): the estimates need 2 or more "
                             "paths with distinct X; raise run.paths, or the jump count by "
                             "raising params.horizon or lowering params.trunc")
        m, se = _mean_se(ens.x)
        rep.add_estimate("mean_x", m, se, len(ens))
        m, se = _mean_se(ens.gamma)
        rep.add_estimate("mean_gamma", m, se, len(ens))

        w1 = ibp.weight(ens, 1)
        m, se = _mean_se(w1.values)
        rep.add_estimate("mean_z1", m, se, len(ens))
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
        report.write_csv(out_dir / "density.csv",
                         ["grid", "ibp", "ibp_se", "kde"],
                         list(zip(dens.grid.tolist(), dens.ibp.tolist(),
                                  dens.ibp_se.tolist(), dens.kde.tolist())))
        if config["outputs"].get("svg"):
            report.svg_line_chart(out_dir / "density.svg",
                                  {"ibp": (dens.grid, dens.ibp),
                                   "kde": (dens.grid, dens.kde)},
                                  title=f"{name}: density at the horizon",
                                  xlabel="x", ylabel="p(x)")
        inv = diagnostics.inverse_moment(ens.gamma[ens.gamma > 0], 2)
        rep.diagnostics["gamma_inverse_moment_p2"] = {
            "estimate": inv.estimate, "stable": inv.stable, "verdict": inv.verdict}
    else:
        parts = _fan_out(_traj_chunk, name, params, run["paths"],
                         run["seed"], run["workers"], pool)
        x = np.concatenate([p["x"] for p in parts])
        kk = np.concatenate([p["kk_err"] for p in parts])
        eig = np.concatenate([p["gamma_min_eig"] for p in parts])
        margins = np.concatenate([p["bound_margin"] for p in parts])
        for i in range(sc.dim):
            m, se = _mean_se(x[:, i])
            rep.add_estimate(f"mean_x{i}", m, se, len(x))
        rep.add_estimate("max_flow_inverse_error", float(np.max(kk)), 0.0, len(kk))
        rep.verdicts["flow_inverse_1e-8"] = bool(np.max(kk) <= 1e-8)
        rep.add_estimate("min_gamma_eigenvalue", float(np.min(eig)), 0.0, len(eig))
        if not np.all(np.isnan(margins)):
            worst = float(np.nanmin(margins))
            rep.add_estimate("min_lower_bound_margin", worst, 0.0, len(margins))
            rep.verdicts["pathwise_lower_bound_psd"] = bool(worst >= -1e-10)
        report.write_csv(out_dir / "states.csv",
                         [f"x{i}" for i in range(sc.dim)] + ["kk_err", "gamma_min_eig"],
                         [list(map(float, row)) + [float(a), float(b)]
                          for row, a, b in zip(x, kk, eig)])

    # the serial diagnostics follow the fan-out
    mm, emp, rel, n_jumps = _dual_oracle(sc, run["seed"], run["rho_replicas"])
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


def crosscheck_pipeline(config: dict, pool=None) -> report.RunReport:
    """Two independent simulations of the subordinated law, compared by KS."""
    name = config["scenario"]
    if name != "subordination-linear":
        raise SchemaError("scenario: crosscheck requires 'subordination-linear'")
    params = config["params"]
    run = config["run"]
    _require_two_paths(run, "the half-sample Kolmogorov-Smirnov test")
    sc = scenarios.build(name, **params)
    sigma0 = sc.meta["sigma0"]
    n = run["paths"]
    rep = report.RunReport(config=config)

    parts = _fan_out(_traj_chunk, name, params, n, run["seed"], run["workers"], pool)
    route_sde = np.concatenate([p["x"] for p in parts])

    # direct route: total subordinator time, then one Gaussian displacement;
    # paths n+1 .. 2n draw the marks and normals prm.sample_path and their
    # own noise streams would
    d = sc.dim
    route_direct = np.empty((n, d))
    counts, marks = ensemble.sample_mark_sets(sc, n, RngStream(seed=run["seed"]), path_offset=n)
    ends = np.cumsum(counts)
    noise = RngStream(seed=run["seed"], tag=TAG_NOISE)
    for i, gen in enumerate(noise.each(path=range(n + 1, 2 * n + 1))):
        y_total = float(np.sum(marks[ends[i] - counts[i]:ends[i]]))
        route_direct[i] = sc.x0 + math.sqrt(y_total) * sigma0 @ gen.standard_normal(d)

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
    params = config["params"]
    run = config["run"]
    psi_name, eps, ymax, horizon = (params.get(key, default)
                                    for key, (_, default) in TAUBER_PARAMS.items())
    spec = power_law(eps, ymax=ymax, trunc=0.0)
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
    u = RngStream(seed=seed, tag=TAG_NOISE).generator().random(n)
    erfcinv = np.full(n, math.inf)
    pos = u > 0
    erfcinv[pos] = -normal_quantile(u[pos] / 2) / math.sqrt(2)
    return horizon ** 2 * math.pi / erfcinv ** 2


def validate_pipeline(config: dict) -> tuple[int, dict]:
    check_param_ranges(config, "validate")
    check_jump_count(config, "validate")
    sc = scenarios.build(config["scenario"], **config["params"])
    hyp = diagnostics.hypothesis_report(sc)
    body = hyp.to_dict()
    if not hyp.passed():
        return EXIT_HYPOTHESIS, body
    return EXIT_OK, body


def report_pipeline(run_dir: str) -> int:
    """Re-derive summary numbers from the CSVs and check them against the
    stored report; prints the summary."""
    run_dir = Path(run_dir)
    rep_path = run_dir / "report.json"
    if not rep_path.exists():
        print(f"no report.json in {run_dir}", file=sys.stderr)
        return EXIT_SCHEMA
    body = report.report_body(rep_path)
    print(json.dumps(body["estimates"], indent=2, sort_keys=True))
    dens_path = run_dir / "density.csv"
    if dens_path.exists() and "density_mass" in body["estimates"]:
        _, rows = report.read_csv(dens_path)
        mass = float(np.trapezoid(rows[:, 1], rows[:, 0]))
        stored = body["estimates"]["density_mass"]["value"]
        if not math.isclose(mass, stored, rel_tol=1e-9, abs_tol=1e-12):
            print(f"density mass mismatch: csv {mass} vs report {stored}",
                  file=sys.stderr)
            return EXIT_NUMERIC
        print(f"density mass from CSV: {mass:.6f} (matches report)")
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
        need_out = args.command != "validate"
        validate_config(config, need_outputs=need_out)
        check_scenario_params(config, args.command)
    except SchemaError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_SCHEMA

    try:
        if args.command == "validate":
            code, body = validate_pipeline(config)
            print(json.dumps(body, indent=2, sort_keys=True))
            if code != EXIT_OK:
                failures = [i["name"] for i in body["items"] if i["status"] == "fail"]
                print(f"hypothesis failures: {failures}", file=sys.stderr)
            return code
        check_param_ranges(config, args.command)
        if args.command != "tauber":    # tauber draws no jumps
            check_jump_count(config, args.command)
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

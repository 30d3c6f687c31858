"""Streamed chunks: the Poisson passes, mark blocks and lane batches that
bound what a process holds give the bits of the whole-chunk code, the
vectorised PTRS test decides as libm's log does, the dual oracle overlaps
the fan-out without changing which failure wins, and a chunk's memory grows
by its per-path columns only."""

import dataclasses
import json
import math
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from lentparticle import cli, ensemble, prm, rng, scenarios
from lentparticle.prm import JumpLanes
from lentparticle.rng import TAG_TIME, RngStream

from oracles import (direct_route_whole, nested_steps_walk, ptrs_counts_libm,
                     simple_ensemble_whole, traj_chunk_whole)

# small bounds: one path, a prime, a few hundred; None keeps the default
BOUNDS = [1, 7, 300, None]


def _bound(monkeypatch, size, *names):
    """Set each of the module-level `names` ("module.NAME") to `size`."""
    if size is None:
        return
    for name in names:
        module, attr = name.split(".")
        monkeypatch.setattr({"ensemble": ensemble, "cli": cli, "rng": rng}[module], attr, size)


# ---------------------------------------------------------------------------
# bit identity across the bounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", BOUNDS)
@pytest.mark.parametrize("params", [{}, {"trunc": 0.1}, {"weight": "power",
                                                        "compensated": True}])
def test_simple_ensemble_matches_the_whole_chunk(monkeypatch, size, params):
    # PTRS (lam = 18) and the multiplication method (trunc 0.1), at an offset
    _bound(monkeypatch, size, "ensemble.POISSON_PASS", "ensemble.BLOCK_MARKS")
    sc = scenarios.build("compound", **params)
    stream = RngStream(seed=11)
    n, offset = (60, 5) if size == 1 else (700, 333)
    for order in (1, 2):
        got = ensemble.simple_ensemble(sc, n, stream, order=order, path_offset=offset)
        want = simple_ensemble_whole(sc, n, stream, offset, order)
        for f in dataclasses.fields(ensemble.SimpleEnsemble):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if b is None:
                assert a is None, f.name
            else:
                assert a.dtype == b.dtype and np.array_equal(a, b), (order, f.name)


@pytest.mark.parametrize("size", BOUNDS)
@pytest.mark.parametrize("name,params", [("subordination-nonlinear", {}),
                                         ("simple2d", {}),
                                         ("compound-linear", {"compensated": True})])
def test_traj_chunk_matches_one_batch(monkeypatch, size, name, params):
    # simple2d carries the pathwise lower bound, so its margins are compared too
    _bound(monkeypatch, size, "cli.LANE_BATCH")
    count = 9 if size == 1 else 20 if name == "compound-linear" else 620
    args = (name, params, 17, count, 5)
    got, want = cli._traj_chunk(args), traj_chunk_whole(args)
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], strict=True)
    if name == "simple2d":
        assert not np.isnan(got["bound_margin"]).any()


@pytest.mark.parametrize("size", BOUNDS)
def test_direct_route_matches_path_by_path(monkeypatch, size):
    _bound(monkeypatch, size, "ensemble.POISSON_PASS", "ensemble.BLOCK_MARKS",
           "rng.NORMAL_SLICE")
    sc = scenarios.build("subordination-linear")
    got = cli._direct_route(sc, 150, 8)
    np.testing.assert_array_equal(got, direct_route_whole(sc, 150, 8), strict=True)


def _chunk_lanes(name, n_paths, seed):
    """The jump lanes of a chunk's first `n_paths` paths, as its nested clock
    takes them (lane after lane), with the scenario's nested step."""
    sc = scenarios.build(name)
    paths = prm.sample_paths(sc.measure, sc.horizon, RngStream(seed=seed),
                             range(1, n_paths + 1))
    lanes = JumpLanes(RngStream(seed=seed),
                      np.concatenate([np.full(p.n_jumps, p.stream.path) for p in paths]),
                      np.concatenate([np.arange(p.n_jumps) for p in paths]),
                      np.concatenate([p.marks for p in paths]))
    return lanes, sc.bottom.step, sc.bottom.n_brownian


@pytest.mark.parametrize("size", BOUNDS)
@pytest.mark.parametrize("name", ["subordination-nonlinear", "subordination-linear"])
def test_nested_steps_match_the_walk(monkeypatch, size, name):
    # every lane's normals against its own generator, in slices of any size
    _bound(monkeypatch, size, "rng.NORMAL_SLICE")
    lanes, step, dim = _chunk_lanes(name, 12 if size == 1 else 120, 42)
    got, want = prm.nested_steps(lanes, lanes.marks, step, dim), nested_steps_walk(
        lanes, lanes.marks, step, dim)
    assert len(got) == len(want) == 3
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b, strict=True)


def _outputs(tmp_path, tag, name, workers, paths):
    """The report body (without the timestamp and config hash) and the
    bytes of every other output file of one run."""
    out = tmp_path / tag
    cfg = {"scenario": name, "params": {},
           "run": {"seed": 42, "paths": paths, "rho_replicas": 100, "workers": workers},
           "outputs": {"dir": str(out), "svg": True}}
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == 0
    body = json.loads((out / "report.json").read_text())
    body.pop("generated_at")
    body["provenance"].pop("config_hash")
    return body, {f.name: f.read_bytes() for f in sorted(out.iterdir())
                  if f.name != "report.json"}


@pytest.mark.parametrize("name,paths", [("compound", 900), ("subordination-nonlinear", 60)])
def test_run_reports_match_across_bounds_and_workers(tmp_path, monkeypatch, name, paths):
    # forked workers inherit the patched bounds
    want = _outputs(tmp_path, "default", name, 1, paths)
    monkeypatch.setattr(ensemble, "POISSON_PASS", 7)
    monkeypatch.setattr(ensemble, "BLOCK_MARKS", 300)
    monkeypatch.setattr(cli, "LANE_BATCH", 7)
    for workers in (1, 2, 3):
        assert _outputs(tmp_path, f"bounded{workers}", name, workers, paths) == want, workers


# ---------------------------------------------------------------------------
# the PTRS acceptance test
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [10.0, 18.0, 61.0, 198.0, 1e4])
@pytest.mark.parametrize("seed", [1, 42, -3])
def test_ptrs_counts_match_the_libm_loop(lam, seed):
    stream = RngStream(seed=seed, tag=TAG_TIME)
    paths = np.arange(1, 4_001, dtype=np.uint64)
    got = prm._poisson(stream, paths, lam)[0]
    np.testing.assert_array_equal(got, ptrs_counts_libm(stream, paths, lam), strict=True)
    # and each count is numpy's own
    for p in (1, 2, 4_000):
        assert got[p - 1] == stream.child(path=p).generator().poisson(lam)


def _ptrs_constants(lam):
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    return a, b, math.log(1.1239 + 1.1328 / (b - 3.4))


def test_ptrs_entries_in_the_guard_band_take_libm(monkeypatch):
    # V planted at a few ulp either side of the bound, where numpy's and
    # libm's log may disagree, plus V = 0, whose numpy log is -inf with a
    # divide warning (an error in this suite)
    lam = 18.0
    a, b, log_invalpha = _ptrs_constants(lam)
    loglam = math.log(lam)
    us, k = [], []
    for kk in (12.0, 17.0, 18.0, 25.0):
        for u in (0.02, 0.1, 0.3, 0.45):
            us.append(u)
            k.append(kk)
    us, k = np.repeat(us, 7), np.repeat(k, 7)
    rhs = -lam + k * loglam - np.array([prm._loggam(kk + 1) for kk in k])
    bound = np.exp(rhs - log_invalpha + np.log(a / (us * us) + b))
    V = bound * (1.0 + np.tile(np.arange(-3, 4), len(bound) // 7) * 2.0 ** -52)
    keep = V < 1.0
    us, k, V, rhs = us[keep], k[keep], V[keep], rhs[keep]
    V[0] = 0.0
    libm = ((prm._log(V) + log_invalpha) - prm._log(a / (us * us) + b)) <= rhs

    seen = []
    real_log = prm._log

    def recording_log(x):
        seen.append(x.copy())
        return real_log(x)

    monkeypatch.setattr(prm, "_log", recording_log)
    got = prm._ptrs_accept(V, us, k, lam, loglam, a, b, log_invalpha)
    np.testing.assert_array_equal(got, libm, strict=True)
    assert libm[1:].any() and not libm[1:].all()
    # every planted entry but V = 0 sat in the band, and libm evaluated it
    assert np.array_equal(np.sort(seen[0]), np.sort(V[1:]))


# ---------------------------------------------------------------------------
# the overlapped dual oracle
# ---------------------------------------------------------------------------

class _LazyPool:
    """Runs the chunks it is given in this process, when their results are
    collected, as a pool's results arrive after the parent's chunk."""

    def imap(self, worker, jobs):
        return map(worker, list(jobs))


def _run_with_failures(tmp_path, monkeypatch, capsys, pool_error, parent_error,
                       oracle_error):
    """Exit code, stderr and event log of a 2-worker `run` on the lazy pool,
    with chunk 0 (the pool's), chunk 1 (the parent's) and the oracle failing
    as asked."""
    events = []
    real_chunk, real_oracle = ensemble.simple_ensemble, cli._dual_oracle

    def chunk(*args, path_offset=0, **kwargs):
        which = "pool" if path_offset == 0 else "parent"
        events.append(which)
        error = pool_error if which == "pool" else parent_error
        if error is not None:
            raise error
        return real_chunk(*args, path_offset=path_offset, **kwargs)

    def oracle(*args):
        events.append("oracle")
        if oracle_error is not None:
            raise oracle_error
        return real_oracle(*args)

    monkeypatch.setattr(ensemble, "simple_ensemble", chunk)
    monkeypatch.setattr(cli, "_dual_oracle", oracle)
    monkeypatch.setattr(cli, "_command_pool", lambda run: nullcontext(_LazyPool()))
    cfg = {"scenario": "compound", "params": {},
           "run": {"seed": 42, "paths": 40, "rho_replicas": 50, "workers": 2},
           "outputs": {"dir": str(tmp_path / "out")}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["run", str(path)])
    return code, capsys.readouterr().err, events


def test_oracle_runs_between_the_parents_chunk_and_the_pools(tmp_path, monkeypatch, capsys):
    code, _, events = _run_with_failures(tmp_path, monkeypatch, capsys, None, None, None)
    assert code == cli.EXIT_OK
    assert events == ["parent", "oracle", "pool"]


def test_failing_pool_chunk_wins_over_failing_oracle(tmp_path, monkeypatch, capsys):
    code, err, events = _run_with_failures(
        tmp_path, monkeypatch, capsys, ValueError("pool chunk"), None,
        FloatingPointError("oracle overflow"))
    assert code == cli.EXIT_HYPOTHESIS and "pool chunk" in err and "oracle" not in err
    assert events == ["parent", "oracle", "pool"]
    assert not (tmp_path / "out").exists()


def test_failing_parent_chunk_stops_the_oracle(tmp_path, monkeypatch, capsys):
    code, err, events = _run_with_failures(
        tmp_path, monkeypatch, capsys, None, FloatingPointError("parent chunk"),
        FloatingPointError("oracle overflow"))
    assert code == cli.EXIT_NUMERIC and "parent chunk" in err
    assert events == ["parent", "pool"]


def test_lone_oracle_failure_keeps_its_exit_code(tmp_path, monkeypatch, capsys):
    code, err, events = _run_with_failures(
        tmp_path, monkeypatch, capsys, None, None, FloatingPointError("oracle overflow"))
    assert code == cli.EXIT_NUMERIC and "oracle overflow" in err
    assert events == ["parent", "oracle", "pool"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_oracle_failure_comes_after_the_ensemble_checks(tmp_path, monkeypatch, capsys,
                                                        workers):
    # the oracle runs before the merged ensemble is checked, but its failure
    # is raised where the oracle ran before, after those checks
    def failing_oracle(*args):
        raise FloatingPointError("oracle overflow")

    monkeypatch.setattr(cli, "_dual_oracle", failing_oracle)
    monkeypatch.setattr(cli, "_command_pool", lambda run: nullcontext(_LazyPool()))
    cfg = {"scenario": "compound", "params": {"horizon": 1e-9},
           "run": {"seed": 42, "paths": 40, "rho_replicas": 50, "workers": workers},
           "outputs": {"dir": str(tmp_path / "out")}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == cli.EXIT_HYPOTHESIS
    assert "every path ends at the same X" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def _peak(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunk_memory_grows_by_its_columns_only(monkeypatch):
    # 60 B a path covers the ensemble's counts, path addresses and four
    # order-1 columns (48 B), and a trajectory chunk's output columns
    # (32 B at d = 1); a chunk holding its marks (18 a path on `compound`)
    # or its event tables (several kB a lane) grows far faster.  The
    # Poisson pass is set below both ensemble sizes, so that its own
    # bounded temporaries are the same at both
    monkeypatch.setattr(ensemble, "POISSON_PASS", 10_000)
    sc = scenarios.build("compound")
    ensemble.simple_ensemble(sc, 10, RngStream(seed=1), order=1)    # memoised quadratures
    small, large = (_peak(ensemble.simple_ensemble, sc, n, RngStream(seed=4), order=1)
                    for n in (20_000, 80_000))
    assert (large - small) / 60_000 <= 60

    # compensated lanes without a jump (the mass rounds to 0) all carry the
    # 1 000-step Euler grid and nothing else, so each batch peaks alike
    monkeypatch.setattr(cli, "LANE_BATCH", 300)
    params = {"compensated": True, "trunc": 1.0 - 2.0 ** -53}
    cli._traj_chunk(("compound-linear", params, 0, 5, 1))
    small, large = (_peak(cli._traj_chunk, ("compound-linear", params, 0, n, 4))
                    for n in (600, 1_200))
    assert (large - small) / 600 <= 60


def test_nested_steps_memory_grows_by_its_output_only(monkeypatch):
    # 64 lanes whose durations double, from 2 to 4 slices' worth of rows
    # (lane-steps): the per-lane arrays are alike, and the draws' temporaries
    # are bounded by a slice, so the peak may grow by the output rows alone,
    # a width and dim increments, 8 (1 + dim) B a row, give or take the few
    # hundred bytes of interpreter objects that differ between two calls;
    # holding the chunk's words would add ~90 B a row
    monkeypatch.setattr(rng, "NORMAL_SLICE", 4_096)
    dim, step = 2, 1 / 32
    lanes = JumpLanes(RngStream(seed=9), np.arange(1, 65), np.zeros(64, dtype=np.int64),
                      np.ones(64))
    prm.nested_steps(lanes, np.full(64, 0.5), step, dim)
    small, large = (_peak(prm.nested_steps, lanes, np.full(64, y), step, dim)
                    for y in (2.0, 4.0))
    rows = 64 * 64                              # the rows the longer durations add
    assert rows * dim == 2 * rng.NORMAL_SLICE
    assert (large - small) / rows <= 8 * (1 + dim) + 0.5

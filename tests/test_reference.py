"""Seed-42 outputs of the benchmark's workloads against its reference.

The benchmark compares each workload's estimates and verdicts with
`bench/reference.json` (rel 1e-9).  These tests run every workload at the
reference seed and sizes through the same comparison, so that a drift
shows up here before a benchmark run: the two trajectory workloads (the
state-dependent nested run and the subordination crosscheck), the
ensemble route (`compound-run`, 50 000 paths over 2 workers, so several
path blocks per chunk and the fan-out) and the per-path order-2 loop
(`pathwise-compound`).  The counters that the benchmark's span tracer
derives from the library's return values are checked here too.
"""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from lentparticle import cli, ensemble, ibp, lent, prm, report, scenarios, sde
from lentparticle.bottom import WienerOUBottom
from lentparticle.rng import RngStream

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    """bench/<name>.py, loaded read-only under a private module name."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod          # dataclasses look their module up here
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def wl():
    yield from _load_bench("workloads")


@pytest.fixture(scope="module")
def spans():
    yield from _load_bench("spans")


def _run_cli_workload(tmp_path, wl, name, workers):
    w = wl.WORKLOADS[name]
    ref = wl.reference_for(w, wl.DEFAULT_SEED, w.paths)
    assert ref is not None
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(wl.cli_config(w, wl.DEFAULT_SEED, w.paths, workers, out)))
    assert cli.main([w.command, str(config)]) == cli.EXIT_OK
    assert wl.compare_reference(wl.outcome_of(w, out, None), ref) == []


@pytest.mark.parametrize("name", ["nested-run", "subordination-crosscheck"])
def test_trajectory_workload_matches_reference(tmp_path, wl, name):
    _run_cli_workload(tmp_path, wl, name, 1)


def test_ensemble_workload_matches_reference(tmp_path, wl):
    _run_cli_workload(tmp_path, wl, "compound-run", 2)


def test_pathwise_workload_matches_reference(wl):
    w = wl.WORKLOADS["pathwise-compound"]
    ref = wl.reference_for(w, wl.DEFAULT_SEED, w.paths)
    assert ref is not None
    sc = scenarios.build(w.scenario, **w.params)
    sums = wl.pathwise_loop(sc, wl.DEFAULT_SEED, w.paths, w.rho_replicas)
    assert wl.compare_reference(wl.outcome_of(w, None, sums), ref) == []


def test_traced_pathwise_counters_match_trajectories(wl, spans):
    # the tracer counts events and jumps from what sde.integrate returns
    # and replicas from what lent.gradient_samples is asked for
    w = wl.WORKLOADS["pathwise-compound"]
    sc = scenarios.build(w.scenario, **w.params)
    n = 5
    tracer = spans.Tracer().install()
    try:
        sums = wl.pathwise_loop(sc, wl.DEFAULT_SEED, n, w.rho_replicas)
    finally:
        tracer.restore()
    assert spans.leftover_wrappers() == []
    events = jumps = replicas = 0
    for i in range(n):
        stream = RngStream(seed=wl.DEFAULT_SEED, path=i + 1)
        traj = sde.integrate(sc, prm.sample_path(sc.measure, sc.horizon, stream), order=2)
        events += len(traj.times) - 1
        jumps += len(traj.jumps)
        replicas += len(lent.gradient_samples(sc, traj, w.rho_replicas, stream))
    counts = tracer.counts
    assert tracer.table()["sde.integrate"]["calls"] == n
    assert counts["sde.integrate.events"] == counts["sde.integrate.order2_events"] == events
    assert counts["sde.integrate.jumps"] == jumps == sums["jumps"] > 0
    assert counts["lent.gradient_samples.replicas"] == replicas == n * w.rho_replicas


# What the benchmark reaches by name: the parameters its span counters read
# from each traced call, and the callables its workloads use.  It wraps
# whatever exists, so a cut here would zero a per-layer row or break a
# counter without failing a run
BENCH_READS = {
    (sde, "integrate"): ("order",),
    (WienerOUBottom, "evolve"): ("incs",),
    (lent, "gradient_samples"): ("n_replicas",),
    (ensemble, "sample_mark_sets"): ("n_paths",),
    (report, "write_csv"): ("dest",),
    (report, "svg_line_chart"): ("dest",),
    (report.RunReport, "dump"): ("dest",),
    (ibp, "delta"): (),
    (ibp, "functional_value"): (),
    (sde.Trajectory, "a_final"): (),
}


@pytest.mark.parametrize("owner, name", list(BENCH_READS),
                         ids=lambda v: getattr(v, "__name__", v))
def test_names_the_benchmark_reads_exist(owner, name):
    assert hasattr(owner, name)
    params = BENCH_READS[owner, name]
    if params:
        assert set(params) <= set(inspect.signature(getattr(owner, name)).parameters)

"""Seed-42 outputs of the benchmark's workloads against its reference.

The benchmark compares each workload's estimates and verdicts with
`bench/reference.json` (rel 1e-9).  These tests run every workload at the
reference seed and sizes through the same comparison, so that a drift
shows up here before a benchmark run: the two trajectory workloads (the
state-dependent nested run and the subordination crosscheck), the
ensemble route (`compound-run`, 50 000 paths over 2 workers, so several
path blocks per chunk and the fan-out) and the per-path order-2 loop
(`pathwise-compound`).
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from lentparticle import cli, scenarios

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def wl():
    """bench/workloads.py, loaded read-only under a private module name."""
    spec = importlib.util.spec_from_file_location("_bench_workloads", BENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod          # dataclasses look their module up here
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        del sys.modules[spec.name]


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

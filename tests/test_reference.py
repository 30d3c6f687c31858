"""Seed-42 outputs of the trajectory workloads against the benchmark's reference.

The benchmark compares each workload's estimates and verdicts with
`bench/reference.json` (rel 1e-9).  These tests run the two trajectory
workloads, the state-dependent nested run and the subordination
crosscheck, at the reference seed and sizes through the same comparison,
so that a drift shows up here before a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from lentparticle import cli

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


@pytest.mark.parametrize("name", ["nested-run", "subordination-crosscheck"])
def test_trajectory_workload_matches_reference(tmp_path, wl, name):
    w = wl.WORKLOADS[name]
    ref = wl.reference_for(w, wl.DEFAULT_SEED, w.paths)
    assert ref is not None
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(wl.cli_config(w, wl.DEFAULT_SEED, w.paths, 1, out)))
    assert cli.main([w.command, str(config)]) == cli.EXIT_OK
    assert wl.compare_reference(wl.outcome_of(w, out, None), ref) == []

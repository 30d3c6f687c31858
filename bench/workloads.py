"""The benchmark's workloads: generated inputs, the library loop, output checks.

Every workload is a closed loop of one invocation at a time.  The seed is a
benchmark argument; the program sees only the config generated from it.
Why each workload is there is recorded in BENCHMARK.json.  Sizes are chosen
so that one invocation takes a few seconds on 2 cores, which lets a
30-second run time several fresh-interpreter invocations and report their
median.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

DEFAULT_SEED = 42
REL_TOL = 1e-9           # the tolerance of the golden-run test
ABS_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "cli" or "pathwise"
    command: str         # CLI subcommand; "" for the library loop
    scenario: str
    params: dict = field(default_factory=dict)
    paths: int = 0
    smoke_paths: int = 0
    workers: int = 1
    rho_replicas: int = 1000
    outputs: tuple = ()  # files the invocation must leave in its output dir


WORKLOADS = {w.name: w for w in (
    Workload(
        name="compound-run",
        kind="cli", command="run", scenario="compound", params={"weight": "bump"},
        paths=50_000, smoke_paths=2_000, workers=2, rho_replicas=1000,
        outputs=("report.json", "density.csv", "density.svg")),
    Workload(
        name="subordination-crosscheck",
        kind="cli", command="crosscheck", scenario="subordination-linear",
        paths=400, smoke_paths=20, workers=1,
        outputs=("report.json", "crosscheck.csv")),
    Workload(
        name="nested-run",
        kind="cli", command="run", scenario="subordination-nonlinear",
        paths=400, smoke_paths=20, workers=1, rho_replicas=1000,
        outputs=("report.json", "states.csv")),
    Workload(
        name="pathwise-compound",
        kind="pathwise", command="", scenario="compound", params={"weight": "bump"},
        paths=100, smoke_paths=5, rho_replicas=200),
)}


def workers_for(w: Workload) -> int:
    """The workload's worker count, never above the machine's cores."""
    return max(1, min(w.workers, os.cpu_count() or 1))


def cli_config(w: Workload, seed: int, paths: int, workers: int, out_dir) -> dict:
    return {"scenario": w.scenario, "params": dict(w.params),
            "run": {"seed": seed, "paths": paths, "rho_replicas": w.rho_replicas,
                    "workers": workers},
            "outputs": {"dir": str(out_dir), "svg": True}}


# ---------------------------------------------------------------------------
# the library loop (pathwise-compound)
# ---------------------------------------------------------------------------

def pathwise_loop(scenario, seed: int, paths: int, replicas: int) -> dict:
    """Per-path order-2 solve, both covariance routes and the divergence.

    Returns sums over the paths, which are the workload's checked output.
    """
    from lentparticle import ibp, lent, prm, sde
    from lentparticle.rng import RngStream

    sums = {"jumps": 0, "gamma_exact": 0.0, "gamma_monte_carlo": 0.0,
            "delta": 0.0, "generator_path": 0.0, "bracket_g2": 0.0}
    for i in range(paths):
        stream = RngStream(seed=seed, path=i + 1)
        path = prm.sample_path(scenario.measure, scenario.horizon, stream)
        traj = sde.integrate(scenario, path, order=2)
        mm = lent.malliavin_matrix(traj)
        grads = lent.gradient_samples(scenario, traj, replicas, stream)
        div = ibp.delta(scenario.simple, scenario.simple, path.marks,
                        scenario.horizon, scenario.measure, scenario.compensated)
        sums["jumps"] += path.n_jumps
        sums["gamma_exact"] += float(mm.gamma[0, 0])
        sums["gamma_monte_carlo"] += float(lent.empirical_gamma(grads)[0, 0])
        sums["delta"] += float(div)
        sums["generator_path"] += float(traj.a_final[0])
        sums["bracket_g2"] += float(traj.order2["G2"])
    if not all(math.isfinite(v) for v in sums.values()):
        raise FloatingPointError("non-finite pathwise sums")
    return sums


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    if not REFERENCE_FILE.exists():
        return {}
    return json.loads(REFERENCE_FILE.read_text())


def outcome_of(w: Workload, out_dir: Path, pathwise_result: dict | None) -> dict:
    """The values the checks compare: estimates + verdicts, or loop sums."""
    if w.kind == "pathwise":
        return {"sums": pathwise_result}
    missing = [f for f in w.outputs if not (out_dir / f).exists()]
    if missing:
        raise FileNotFoundError(f"missing outputs {missing}")
    body = json.loads((out_dir / "report.json").read_text())
    return {"estimates": {k: v["value"] for k, v in body["estimates"].items()},
            "verdicts": body["verdicts"]}


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare_reference(outcome: dict, ref: dict) -> list[str]:
    """Mismatches against a committed reference; added keys are allowed."""
    problems = []
    for section in ("estimates", "sums"):
        for key, val in ref.get(section, {}).items():
            got = outcome.get(section, {}).get(key)
            if got is None or not _close(got, val):
                problems.append(f"{section}.{key}: {got} != reference {val}")
    if "verdicts" in ref and outcome.get("verdicts") != ref["verdicts"]:
        problems.append(f"verdicts {outcome.get('verdicts')} != reference {ref['verdicts']}")
    return problems


def compare_exact(a: dict, b: dict, what: str) -> list[str]:
    return [] if a == b else [f"{what}: {a} != {b}"]


def check_finite(outcome: dict) -> list[str]:
    vals = list(outcome.get("estimates", {}).values()) + list(outcome.get("sums", {}).values())
    if not vals:
        return ["no outputs"]
    return [f"non-finite output {v}" for v in vals if not math.isfinite(v)]


def reference_for(w: Workload, seed: int, paths: int) -> dict | None:
    """The committed reference for this input, if one exists."""
    ref = load_reference().get(w.name)
    if ref is None or seed != ref["seed"] or paths != ref["paths"]:
        return None
    return ref

#!/usr/bin/env python3
"""Layered benchmark for lentparticle.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --smoke

Run from the root of a checkout; the program is imported from its `src/`,
and the metric names and units come from its BENCHMARK.json.

--trace 0 times fresh-interpreter invocations of the workload, one at a
time, until S seconds have passed, checks each one's outputs, and reports
medians over the invocations:

  setup_s      spawn until lentparticle.cli is imported and the scenario built
  wall_s       spawn until the process exits
  paths_per_s  configured paths / (wall_s - setup_s)
  cal_s        wall time of the calibration start-up run just before the
               invocation: a fresh interpreter importing numpy and the scipy
               modules lentparticle uses, and nothing of lentparticle
  wall_rel     wall_s / cal_s
  paths_per_cal  configured paths * cal_s / (wall_s - setup_s)
  peak_rss_mb  sum over the invocation's process group of each process's peak RSS
  failed_frac  invocations that failed (exit code, timeout or output check)
               / invocations attempted

All of these are printed and recorded; BENCHMARK.json names the ones the
result line carries.  A shared virtual machine changes speed by 10-25% over
minutes (measured on a 2-vCPU Xeon VM), which moves wall_s and the
calibration start-up together; the ratios wall_rel and paths_per_cal
cancel most of that drift, so they are the gated figures.  failed_frac is
carried by the result line's `attempted` and `failed`.

--trace 1 runs the workload in this process at workers=1, once untraced and
once with every layer function wrapped in a span (see spans.py), and
reports per-layer calls, self times and counters plus the tracing
overhead.  A workload that fans out is also run untraced and traced at its
own worker count, for the fan-out figures; all passes must agree exactly.
This is a fixed amount of work: S does not apply.  Layers a workload does
not call report 0.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record (every sample,
quartiles, checks, machine and versions, and the spans of a traced run)
goes to bench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "_work"

sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(SRC))

import workloads as wl  # noqa: E402

INVOCATION_TIMEOUT_S = 150.0
# the third-party imports of lentparticle at the commit that added this
# benchmark; fixed here so that program changes do not move the calibration
CALIBRATION = "import numpy, scipy.integrate, scipy.special, scipy.stats"
REPORTED = (("wall_s", "s"), ("paths_per_s", "paths/s"), ("cal_s", "s"),
            ("failed_frac", "ratio"))
REPORT_SPANS = ("report.write_csv", "report.svg_line_chart", "report.dump")
CLI_OWN_SPANS = ("cli.fan_out", "cli.chunk")


def fail(msg: str, code: int = 2):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


@dataclass(frozen=True)
class Contract:
    """Metric names and units, and workload names, from BENCHMARK.json."""

    end_to_end: tuple
    per_layer: tuple
    workloads: tuple


def load_contract() -> Contract:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"no {path.name} at {ROOT}; run from the root of a checkout")
    spec = json.loads(path.read_text())
    names = tuple(w["name"] for w in spec["workloads"])
    unknown = [n for n in names if n not in wl.WORKLOADS]
    if unknown:
        fail(f"{path.name} names workloads this benchmark lacks: {unknown}")
    return Contract(
        end_to_end=tuple((m["name"], m["unit"]) for m in spec["end_to_end"]),
        per_layer=tuple((m["name"], m["unit"]) for m in spec["per_layer"]),
        workloads=names)


def _stats(values):
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _reference_note(ref):
    return "compared with reference" if ref is not None else "no reference for this input"


# ---------------------------------------------------------------------------
# untraced invocations in fresh interpreters
# ---------------------------------------------------------------------------

class GroupMemory(threading.Thread):
    """Polls the peak RSS (VmHWM) of every process in one process group."""

    def __init__(self, pgid: int, interval: float = 0.2):
        super().__init__(daemon=True)
        self.pgid = pgid
        self.interval = interval
        self.peaks_kb = {}
        self.done = threading.Event()

    def sample(self):
        for entry in os.scandir("/proc"):
            if not entry.name.isdigit():
                continue
            try:
                stat = Path(entry.path, "stat").read_text()
                if int(stat[stat.rindex(")") + 2:].split()[2]) != self.pgid:
                    continue
                for line in Path(entry.path, "status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        pid, kb = int(entry.name), int(line.split()[1])
                        self.peaks_kb[pid] = max(kb, self.peaks_kb.get(pid, 0))
            except (OSError, ValueError, IndexError):
                continue        # the process ended while being read

    def run(self):
        while not self.done.wait(self.interval):
            self.sample()


def stop_group(pgid: int):
    """Kill what is left of a process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def invoke(w: wl.Workload, seed: int, paths: int, work: Path, idx: int,
           reference: dict | None) -> dict:
    """Time the calibration start-up, then spawn one untraced invocation,
    time it and check its outputs."""
    out_dir = work / f"out{idx}"
    timing = work / f"timing{idx}.json"
    job = {"kind": w.kind, "command": w.command, "scenario": w.scenario,
           "params": w.params, "timing": str(timing)}
    if w.kind == "cli":
        cfg_path = work / f"config{idx}.json"
        cfg_path.write_text(json.dumps(
            wl.cli_config(w, seed, paths, wl.workers_for(w), out_dir)))
        job["config"] = str(cfg_path)
    else:
        job.update(seed=seed, paths=paths, replicas=w.rho_replicas)
    job_path = work / f"job{idx}.json"
    job_path.write_text(json.dumps(job))

    t_cal = time.monotonic()
    cal = subprocess.run([sys.executable, "-c", CALIBRATION], cwd=str(work),
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                         timeout=INVOCATION_TIMEOUT_S)
    cal_s = time.monotonic() - t_cal

    err_path = work / f"stderr{idx}.txt"
    with open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(job_path)],
                                cwd=str(work), stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
    mem = GroupMemory(proc.pid)
    mem.start()
    watchdog = threading.Timer(INVOCATION_TIMEOUT_S, stop_group, args=(proc.pid,))
    watchdog.start()
    _, status, usage = os.wait4(proc.pid, 0)
    t_end = time.monotonic()
    watchdog.cancel()
    mem.done.set()
    mem.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stop_group(proc.pid)

    inv = {"exit_code": proc.returncode, "wall_s": t_end - t0, "cal_s": cal_s,
           "wall_rel": (t_end - t0) / cal_s, "problems": []}
    if cal.returncode != 0:
        inv["problems"].append(f"calibration start-up exited {cal.returncode}")
    if proc.returncode != 0:
        stderr = err_path.read_text(errors="replace").strip()
        inv["problems"].append(f"exit code {proc.returncode}: {stderr[-400:]}")
    try:
        tinfo = json.loads(timing.read_text())
    except (OSError, json.JSONDecodeError):
        tinfo = None
        inv["problems"].append("no timing record")
    # the root's own peak as it reported it (wait4's figure is the largest
    # of it and its children); the rest of the group from polling
    root_kb = tinfo["maxrss_kb"] if tinfo is not None else usage.ru_maxrss
    others_kb = sum(kb for pid, kb in mem.peaks_kb.items() if pid != proc.pid)
    inv["peak_rss_mb"] = (root_kb + others_kb) / 1024.0
    inv["group_processes"] = len(set(mem.peaks_kb) | {proc.pid})
    if tinfo is not None:
        inv["setup_s"] = tinfo["t_setup"] - t0
        inv["paths_per_s"] = paths / (inv["wall_s"] - inv["setup_s"])
        inv["paths_per_cal"] = inv["paths_per_s"] * cal_s
        try:
            inv["outcome"] = wl.outcome_of(w, out_dir, tinfo["result"])
        except (OSError, KeyError, json.JSONDecodeError) as e:
            inv["problems"].append(f"unreadable outputs: {e}")
        else:
            inv["problems"] += wl.check_finite(inv["outcome"])
            if reference is not None:
                inv["problems"] += wl.compare_reference(inv["outcome"], reference)
    shutil.rmtree(out_dir, ignore_errors=True)
    return inv


def run_untraced(w: wl.Workload, seed: int, seconds: float, paths: int, work: Path,
                 names) -> dict:
    ref = wl.reference_for(w, seed, paths)
    start = time.monotonic()
    invs = []
    while True:
        invs.append(invoke(w, seed, paths, work, len(invs), ref))
        typical = statistics.median(i["cal_s"] + i["wall_s"] for i in invs)
        if time.monotonic() - start + typical > seconds:
            break

    # every invocation of one input must produce the same outputs
    first = next((i["outcome"] for i in invs if "outcome" in i), None)
    for inv in invs[1:]:
        if "outcome" in inv:
            inv["problems"] += wl.compare_exact(inv["outcome"], first, "repeat invocation")
    ok = [i for i in invs if not i["problems"]]
    basis = ok or [i for i in invs if "setup_s" in i] or invs
    stats = {name: _stats([i[name] for i in basis if name in i] or [float("nan")])
             for name, _ in names + REPORTED if name != "failed_frac"}
    failed = len(invs) - len(ok)
    stats["failed_frac"] = {"median": failed / len(invs), "n": len(invs)}
    checks = {"reference": _reference_note(ref),
              "problems": [p for i in invs for p in i["problems"]]}
    if first is not None and "verdicts" in first:
        checks["verdicts"] = first["verdicts"]
    samples = [{k: v for k, v in i.items() if k != "outcome"} for i in invs]
    return {"metrics": stats, "values": {k: v["median"] for k, v in stats.items()},
            "attempted": len(invs), "failed": failed, "checks": checks,
            "samples": samples}


# ---------------------------------------------------------------------------
# traced run, in this process
# ---------------------------------------------------------------------------

def in_process(w: wl.Workload, seed: int, paths: int, workers: int, work: Path, tag: str):
    """One run of the workload in this process: (seconds, outcome, problems)."""
    from lentparticle import cli, scenarios

    out_dir = work / f"inproc-{tag}"
    problems = []
    result = None
    if w.kind == "cli":
        cfg_path = work / f"config-{tag}.json"
        cfg_path.write_text(json.dumps(wl.cli_config(w, seed, paths, workers, out_dir)))
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main([w.command, str(cfg_path)])
        seconds = time.perf_counter() - t0
        if code != 0:
            problems.append(f"{tag}: exit code {code}: {sink.getvalue()[-400:]}")
    else:
        t0 = time.perf_counter()
        sc = scenarios.build(w.scenario, **w.params)
        result = wl.pathwise_loop(sc, seed, paths, w.rho_replicas)
        seconds = time.perf_counter() - t0
    outcome = None
    if not problems:
        try:
            outcome = wl.outcome_of(w, out_dir, result)
        except (OSError, KeyError, json.JSONDecodeError) as e:
            problems.append(f"{tag}: unreadable outputs: {e}")
        else:
            problems += wl.check_finite(outcome)
    shutil.rmtree(out_dir, ignore_errors=True)
    return seconds, outcome, problems


def layer_metrics(names, table, counts, fan_tracer, workers: int) -> dict:
    """Per-layer figures from the workers=1 trace and the fan-out trace."""
    fan_wall = fan_tracer.table().get("cli.fan_out", {}).get("wall_s", 0.0)
    accepted, weighed = counts["ibp.weight.accepted"], counts["ibp.weight.paths"]
    chunk_time = table.get("cli.chunk", {}).get("wall_s", 0.0)
    derived = {
        "cli.self_s": sum(row["self_s"] for name, row in table.items()
                          if name.startswith("cli.") and name not in CLI_OWN_SPANS),
        "report.write_s": sum(table.get(n, {}).get("wall_s", 0.0) for n in REPORT_SPANS),
        "ibp.weight.accept_ratio": accepted / weighed if weighed else 0.0,
        "cli.fan_out.wall_s": fan_wall,
        "cli.fan_out.chunks": fan_tracer.counts["cli.fan_out.chunks"],
        "cli.fan_out.result_bytes": fan_tracer.counts["cli.fan_out.result_bytes"],
        # chunk time summed at workers=1 over what the fan-out's workers
        # could have done in its wall time
        "cli.fan_out.efficiency": chunk_time / (workers * fan_wall) if fan_wall else 0.0,
    }
    out = {}
    for metric, _ in names:
        span, _, key = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif key in ("calls", "self_s"):
            out[metric] = table.get(span, {}).get(key, 0)
        else:
            out[metric] = counts[metric]
    return out


def traced_pair(w: wl.Workload, seed: int, paths: int, workers: int, work: Path):
    """An untraced then a traced run at one worker count; they must agree.

    Returns the untraced outcome, each run's problems, the tracer and both
    run times.
    """
    import spans

    untraced_s, untraced, p_untraced = in_process(w, seed, paths, workers, work,
                                                  f"untraced-w{workers}")
    tracer = spans.Tracer()
    with tracer:
        traced_s, traced, p_traced = in_process(w, seed, paths, workers, work,
                                                f"traced-w{workers}")
    p_traced += [f"wrapper left installed: {n}" for n in spans.leftover_wrappers()]
    p_traced += wl.compare_exact(traced, untraced, f"traced vs untraced (workers={workers})")
    return untraced, [p_untraced, p_traced], tracer, untraced_s, traced_s


def run_traced(w: wl.Workload, seed: int, paths: int, work: Path, tag: str, names) -> dict:
    workers = wl.workers_for(w)
    ref = wl.reference_for(w, seed, paths)
    # the first calls pay one-off costs (lazy imports, allocator growth)
    # that neither timed pass should carry
    in_process(w, seed, w.smoke_paths, 1, work, "warm")

    outcome, passes, tracer, untraced_s, traced_s = traced_pair(w, seed, paths, 1, work)
    if ref is not None and outcome is not None:
        passes[0] += wl.compare_reference(outcome, ref)
    fan_tracer = tracer
    if workers > 1:
        outcome_n, more, fan_tracer, _, _ = traced_pair(w, seed, paths, workers, work)
        more[0] += wl.compare_exact(outcome_n, outcome, f"workers={workers} vs workers=1")
        passes += more

    table = tracer.table()
    values = layer_metrics(names, table, tracer.counts, fan_tracer, workers)
    values.update({"trace.traced_s": traced_s, "trace.untraced_s": untraced_s,
                   "trace.overhead_s": traced_s - untraced_s,
                   "trace.spans": len(tracer.spans)})
    RESULTS.mkdir(exist_ok=True)
    span_log = {"fields": ["name", "start", "end", "parent"], "workers=1": tracer.spans}
    if workers > 1:
        span_log[f"workers={workers}"] = fan_tracer.spans
    with gzip.open(RESULTS / f"{tag}_spans.json.gz", "wt", compresslevel=1) as fh:
        json.dump(span_log, fh)
    checks = {"reference": _reference_note(ref),
              "problems": [x for p in passes for x in p], "layers": table}
    if outcome is not None and "verdicts" in outcome:
        checks["verdicts"] = outcome["verdicts"]
    return {"metrics": values, "values": values, "attempted": len(passes),
            "failed": sum(1 for p in passes if p), "checks": checks, "samples": None}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    with contextlib.suppress(OSError, subprocess.TimeoutExpired):
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        # a checkout that is not itself a repository may sit inside another one
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    digest = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        digest.update(f.relative_to(SRC).as_posix().encode())
        digest.update(f.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": commit, "src_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_one(contract: Contract, w: wl.Workload, seed: int, seconds: float,
            trace: bool, paths: int) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    tag = f"{w.name}_seed{seed}_trace{int(trace)}"
    try:
        if trace:
            names = contract.per_layer
            rec = run_traced(w, seed, paths, work, tag, names)
        else:
            names = contract.end_to_end
            rec = run_untraced(w, seed, seconds, paths, work, names)
            names = names + REPORTED
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rec.update(workload=w.name, seed=seed, seconds=seconds, trace=int(trace),
               paths=paths, workers=wl.workers_for(w), units=dict(names),
               environment=environment())
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{tag}.json").write_text(
        json.dumps({k: v for k, v in rec.items() if k != "values"}, indent=1) + "\n")
    return rec


def print_record(rec: dict):
    print(f"== {rec['workload']} (seed {rec['seed']}, {rec['paths']} paths, "
          f"{rec['workers']} workers, trace {rec['trace']}): "
          f"{rec['attempted']} attempted, {rec['failed']} failed")
    for name, unit in rec["units"].items():
        m = rec["metrics"][name]
        if isinstance(m, dict) and "q1" in m:
            print(f"  {name:40s} {m['median']:.6g} {unit}"
                  f"  (median of {m['n']}; quartiles {m['q1']:.6g} .. {m['q3']:.6g})")
        elif isinstance(m, dict):
            print(f"  {name:40s} {m['median']:.6g} {unit}  (of {m['n']})")
        else:
            print(f"  {name:40s} {m:.6g} {unit}")
    if rec["trace"]:
        print(f"  tracing overhead: {rec['values']['trace.overhead_s']:.4g} s "
              f"over {rec['values']['trace.untraced_s']:.4g} s untraced")
    if "verdicts" in rec["checks"]:
        print(f"  verdicts: {json.dumps(rec['checks']['verdicts'], sort_keys=True)}")
    print(f"  output check: {rec['checks']['reference']}; "
          f"{len(rec['checks']['problems'])} problem(s)")
    for p in rec["checks"]["problems"][:10]:
        print(f"    - {p}")


def result_line(rec: dict, names) -> dict:
    return {"correct": rec["failed"] == 0 and not rec["checks"]["problems"],
            "attempted": rec["attempted"], "failed": rec["failed"],
            "metrics": {n: {"value": rec["values"][n], "unit": u} for n, u in names}}


def smoke(contract: Contract) -> int:
    """Every workload once at tiny sizes, untraced and traced."""
    import spans
    bad = []
    for name in contract.workloads:
        w = wl.WORKLOADS[name]
        for trace, names in ((False, contract.end_to_end), (True, contract.per_layer)):
            rec = run_one(contract, w, wl.DEFAULT_SEED, 0.0, trace, w.smoke_paths)
            print_record(rec)
            line = result_line(rec, names)
            for metric, unit in names:
                value = line["metrics"][metric]["value"]
                if not isinstance(value, (int, float)) or rec["units"].get(metric) != unit:
                    bad.append(f"{name}: metric {metric} missing or without unit {unit}")
            if not line["correct"]:
                bad.append(f"{name} trace={int(trace)}: {rec['checks']['problems']}")
        if spans.leftover_wrappers():
            bad.append(f"{name}: wrappers left installed {spans.leftover_wrappers()}")
    for b in bad:
        print(f"SMOKE FAIL {b}")
    print(json.dumps({"smoke": "fail" if bad else "ok", "problems": bad}))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark for lentparticle.")
    parser.add_argument("--workload", default="all", choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes and check the metric set")
    args = parser.parse_args(argv)

    contract = load_contract()
    if not (SRC / "lentparticle" / "__init__.py").is_file():
        fail(f"no lentparticle sources under {SRC}; run from the root of a checkout")
    compileall.compile_dir(str(SRC), quiet=1)
    if args.smoke:
        return smoke(contract)

    names = contract.per_layer if args.trace else contract.end_to_end
    chosen = contract.workloads if args.workload == "all" else (args.workload,)
    lines = {}
    for name in chosen:
        w = wl.WORKLOADS[name]
        rec = run_one(contract, w, args.seed, args.seconds, bool(args.trace), w.paths)
        print_record(rec)
        lines[name] = result_line(rec, names)
    if len(lines) == 1:
        print(json.dumps(lines[chosen[0]]))
    else:
        print(json.dumps({
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{w}/{n}": m for w, l in lines.items()
                        for n, m in l["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself.

    python3 -m pytest bench/test_smoke.py

The smoke run executes every workload once at tiny sizes, untraced and
traced, and fails unless every metric of BENCHMARK.json is reported with
its unit, every output check passes, and every traced function is
restored afterwards.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_smoke_reports_every_metric_and_restores_wrappers():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke": "ok", "problems": []}


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "compound-run",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Command-line pipelines: schema handling, exit codes, reproducibility."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from lentparticle import cli, report

HERE = Path(__file__).parent


def _config(tmp_path, name="run", **overrides):
    cfg = {
        "scenario": "compound",
        "params": {},
        "run": {"seed": 42, "paths": 200, "rho_replicas": 500, "workers": 1},
        "outputs": {"dir": str(tmp_path / name), "svg": True},
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    dest = tmp_path / f"{name}.json"
    dest.write_text(json.dumps(cfg))
    return dest, cfg


# ---------------------------------------------------------------------------
# configuration and exit codes
# ---------------------------------------------------------------------------

def test_validate_config_defaults():
    cfg = cli.validate_config({"scenario": "compound", "run": {"seed": 1},
                               "outputs": {"dir": "x"}})
    assert cfg["run"]["paths"] == 1000
    assert cfg["run"]["rho_replicas"] == 1000


def test_schema_error_field_paths():
    with pytest.raises(cli.SchemaError, match="run.seed"):
        cli.validate_config({"scenario": "compound", "outputs": {"dir": "x"}})
    with pytest.raises(cli.SchemaError, match="scenario"):
        cli.validate_config({"scenario": "nope", "run": {"seed": 1},
                             "outputs": {"dir": "x"}})


def test_main_schema_exit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad)]) == cli.EXIT_SCHEMA
    missing_seed, _ = _config(tmp_path, "noseed", run={"seed": "forty-two"})
    assert cli.main(["run", str(missing_seed)]) == cli.EXIT_SCHEMA


def test_main_hypothesis_exit_on_bad_eps(tmp_path):
    path, _ = _config(tmp_path, "badeps", params={"eps": 1.5})
    assert cli.main(["validate", str(path)]) == cli.EXIT_HYPOTHESIS


def _exit_and_stderr(capsys, argv):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def test_bad_workers_env_is_schema_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LENTPARTICLE_WORKERS", "two")
    path, cfg = _config(tmp_path, "env")
    del cfg["run"]["workers"]
    path.write_text(json.dumps(cfg))
    code, err = _exit_and_stderr(capsys, ["run", str(path)])
    assert code == cli.EXIT_SCHEMA and "run.workers" in err


def test_unknown_param_is_schema_error(tmp_path, capsys):
    path, _ = _config(tmp_path, "bogus", params={"bogus": 1})
    code, err = _exit_and_stderr(capsys, ["run", str(path)])
    assert code == cli.EXIT_SCHEMA and "params.bogus" in err


@pytest.mark.parametrize("command,key", [("run", "eps"), ("tauber", "eps"), ("tauber", "ymax")])
def test_ill_typed_param_is_schema_error(tmp_path, capsys, command, key):
    path, _ = _config(tmp_path, "typed", params={key: "x"})
    code, err = _exit_and_stderr(capsys, [command, str(path)])
    assert code == cli.EXIT_SCHEMA and f"params.{key}" in err


def test_tauber_checks_eps_range(tmp_path, capsys):
    path, _ = _config(tmp_path, "tbad", params={"eps": 1.5})
    code, err = _exit_and_stderr(capsys, ["tauber", str(path)])
    assert code == cli.EXIT_HYPOTHESIS and "params.eps" in err


def test_zero_mass_run_is_hypothesis_failure(tmp_path, capsys):
    path, _ = _config(tmp_path, "empty", params={"trunc": 2.0})
    code, err = _exit_and_stderr(capsys, ["run", str(path)])
    assert code == cli.EXIT_HYPOTHESIS and "params.trunc" in err
    # an ensemble where no path jumps, or of one path, has no spread to estimate from
    for name, overrides in [("short", {"params": {"horizon": 1e-9}}),
                            ("single", {"run": {"paths": 1}})]:
        path, _ = _config(tmp_path, name, **overrides)
        code, err = _exit_and_stderr(capsys, ["run", str(path)])
        assert code == cli.EXIT_HYPOTHESIS, name
        assert "RuntimeWarning" not in err
        for field in ("degenerate ensemble", "params.trunc", "params.horizon", "run.paths"):
            assert field in err, (name, field)


@pytest.mark.parametrize("command", ["validate", "run"])
def test_ymax_range_checked_before_simulation(tmp_path, capsys, command):
    path, _ = _config(tmp_path, "negymax", params={"ymax": -1.0})
    code, err = _exit_and_stderr(capsys, [command, str(path)])
    assert code == cli.EXIT_HYPOTHESIS and "params.ymax" in err
    assert not (tmp_path / "negymax").exists()


def test_validate_catalog_defaults_ok(tmp_path, capsys):
    path, _ = _config(tmp_path, "ok")
    assert cli.main(["validate", str(path)]) == cli.EXIT_OK
    body = json.loads(capsys.readouterr().out)
    assert body["passed"]


def test_crosscheck_requires_subordination(tmp_path):
    path, _ = _config(tmp_path, "wrong")
    assert cli.main(["crosscheck", str(path)]) == cli.EXIT_SCHEMA


# ---------------------------------------------------------------------------
# run pipeline determinism
# ---------------------------------------------------------------------------

def test_run_repeatable_report(tmp_path):
    p1, _ = _config(tmp_path, "a")
    p2, _ = _config(tmp_path, "b")
    assert cli.main(["run", str(p1)]) == 0
    assert cli.main(["run", str(p2)]) == 0
    b1 = report.report_body(tmp_path / "a" / "report.json")
    b2 = report.report_body(tmp_path / "b" / "report.json")
    b1["provenance"].pop("config_hash")
    b2["provenance"].pop("config_hash")   # differs only through outputs.dir
    assert b1 == b2


def test_run_worker_count_invariance(tmp_path):
    p1, _ = _config(tmp_path, "w1", run={"workers": 1})
    p8, _ = _config(tmp_path, "w8", run={"workers": 8})
    assert cli.main(["run", str(p1)]) == 0
    assert cli.main(["run", str(p8)]) == 0
    b1 = report.report_body(tmp_path / "w1" / "report.json")
    b8 = report.report_body(tmp_path / "w8" / "report.json")
    assert b1["estimates"] == b8["estimates"]


def test_run_outputs_csv_and_svg(tmp_path):
    path, cfg = _config(tmp_path, "out")
    assert cli.main(["run", str(path)]) == 0
    out = Path(cfg["outputs"]["dir"])
    header, rows = report.read_csv(out / "density.csv")
    assert header == ["grid", "ibp", "ibp_se", "kde"]
    svg = (out / "density.svg").read_text()
    assert "<svg" in svg and "polyline" in svg


def test_report_rederives_density_mass(tmp_path, capsys):
    path, cfg = _config(tmp_path, "rep")
    assert cli.main(["run", str(path)]) == 0
    out = cfg["outputs"]["dir"]
    assert cli.main(["report", out]) == cli.EXIT_OK
    assert "density mass from CSV" in capsys.readouterr().out
    # tampering with the table must be caught
    header, rows = report.read_csv(Path(out) / "density.csv")
    rows[:, 1] *= 1.5
    report.write_csv(Path(out) / "density.csv", header,
                     [list(map(float, r)) for r in rows])
    assert cli.main(["report", out]) == cli.EXIT_NUMERIC


def test_golden_small_run(tmp_path):
    """Frozen end-to-end numbers for a small reference run."""
    path, cfg = _config(tmp_path, "golden",
                        run={"seed": 42, "paths": 100, "rho_replicas": 1000})
    assert cli.main(["run", str(path)]) == 0
    body = report.report_body(Path(cfg["outputs"]["dir"]) / "report.json")
    golden = json.loads((HERE / "golden" / "compound_100paths_seed42.json").read_text())
    assert body["verdicts"] == golden["verdicts"]
    for name, ref in golden["estimates"].items():
        assert body["estimates"][name]["value"] == pytest.approx(
            ref["value"], rel=1e-9, abs=1e-12), name


# ---------------------------------------------------------------------------
# tauber pipeline
# ---------------------------------------------------------------------------

def test_tauber_quadratic(tmp_path):
    path, cfg = _config(tmp_path, "tq", params={"psi": "y2"})
    assert cli.main(["tauber", str(path)]) == 0
    body = report.report_body(Path(cfg["outputs"]["dir"]) / "report.json")
    assert abs(body["estimates"]["alpha"]["value"] - 0.25) < 0.05
    assert body["estimates"]["beta_implied"]["value"] == pytest.approx(1.0 / 3.0, rel=0.2)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    dest = tmp_path / "t.csv"
    report.write_csv(dest, ["a", "b"], [[1.0, 2.5], [3.25, -0.125]])
    header, rows = report.read_csv(dest)
    assert header == ["a", "b"]
    np.testing.assert_array_equal(rows, [[1.0, 2.5], [3.25, -0.125]])


def test_config_hash_stable():
    a = report.config_hash({"x": 1, "y": [1, 2]})
    b = report.config_hash({"y": [1, 2], "x": 1})
    assert a == b and len(a) == 16


def test_svg_chart(tmp_path):
    dest = tmp_path / "c.svg"
    report.svg_line_chart(dest, {"s": ([0, 1, 2], [0.0, 1.0, 0.5])},
                          title="t", xlabel="x", ylabel="y")
    text = dest.read_text()
    assert text.count("polyline") == 1 and "</svg>" in text

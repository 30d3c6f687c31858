"""Command-line pipelines: schema handling, exit codes, reproducibility."""

import contextlib
import functools
import inspect
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfcinv
from scipy.stats import ks_2samp

from lentparticle import cli, ensemble, report, scenarios, sde
from lentparticle.measures import NonIntegrableError
from lentparticle.rng import TAG_NOISE, RngStream

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


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("key", ["seed", "paths", "rho_replicas", "workers"])
def test_boolean_run_field_is_schema_error(tmp_path, capsys, command, key):
    # JSON true is a Python int (isinstance(True, int)); a run field must
    # still refuse it, as the params' float check does
    path, _ = _config(tmp_path, "boolrun", scenario="compound-linear", run={key: True})
    code, err = _exit_and_stderr(capsys, [command, str(path)])
    assert code == cli.EXIT_SCHEMA and f"run.{key}" in err
    assert not (tmp_path / "boolrun").exists()


@pytest.mark.parametrize("key", ["bogus", "jet_order"])
def test_unknown_param_is_schema_error(tmp_path, capsys, key):
    path, _ = _config(tmp_path, "unknown", params={key: 2})
    code, err = _exit_and_stderr(capsys, ["run", str(path)])
    assert code == cli.EXIT_SCHEMA and f"params.{key}" in err


@pytest.mark.parametrize("command,key", [("run", "eps"), ("tauber", "eps"), ("tauber", "ymax")])
def test_ill_typed_param_is_schema_error(tmp_path, capsys, command, key):
    path, _ = _config(tmp_path, "typed", params={key: "x"})
    code, err = _exit_and_stderr(capsys, [command, str(path)])
    assert code == cli.EXIT_SCHEMA and f"params.{key}" in err


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("weight", ["foo", 2, ["bump"]])
def test_unknown_weight_is_schema_error(tmp_path, capsys, command, weight):
    # the form weight is checked by name before any work, as psi is
    path, _ = _config(tmp_path, "weight", params={"weight": weight})
    code, err = _exit_and_stderr(capsys, [command, str(path)])
    assert code == cli.EXIT_SCHEMA and "params.weight" in err and "'bump'" in err
    assert not (tmp_path / "weight").exists()


@pytest.mark.parametrize("params,field", [
    ({"bogus": 1, "psi": "y"}, "params.bogus"),
    ({"trunc": 0.1}, "params.trunc"),
    ({"weight": "bump"}, "params.weight"),
    ({"psi": "y3"}, "params.psi"),
    ({"psi": 2}, "params.psi"),
    ({"horizon": True}, "params.horizon"),
])
def test_tauber_params_schema(tmp_path, capsys, params, field):
    # tauber reads psi, eps, ymax and horizon; any other key, or an ill-typed
    # one, is refused before any work
    path, _ = _config(tmp_path, "tschema", params=params)
    code, err = _exit_and_stderr(capsys, ["tauber", str(path)])
    assert code == cli.EXIT_SCHEMA and field in err
    assert not (tmp_path / "tschema").exists()


def test_tauber_measure_is_untruncated(tmp_path, capsys):
    # tauber integrates over (0, ymax]: the scenario's trunc (0.01 for
    # compound) does not bound its ymax
    path, _ = _config(tmp_path, "tsmall", params={"ymax": 0.005})
    code, err = _exit_and_stderr(capsys, ["tauber", str(path)])
    assert code == cli.EXIT_OK, err


def test_tauber_checks_eps_range(tmp_path, capsys):
    path, _ = _config(tmp_path, "tbad", params={"eps": 1.5})
    code, err = _exit_and_stderr(capsys, ["tauber", str(path)])
    assert code == cli.EXIT_HYPOTHESIS and "params.eps" in err


def test_run_refuses_eps_whose_mass_cancels(tmp_path, capsys):
    # at eps 1e-17, trunc^-eps - ymax^-eps is 0: every path would be jumpless
    path, _ = _config(tmp_path, "tiny", scenario="subordination-nonlinear",
                      params={"eps": 1e-17})
    code, err = _exit_and_stderr(capsys, ["run", str(path)])
    assert code == cli.EXIT_HYPOTHESIS and "params.eps" in err
    assert not (tmp_path / "tiny").exists()


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
        assert not (tmp_path / name).exists()
    # nor does one trajectory path, for the means' SE or the KS test; both
    # are refused before any simulation
    for command, scenario in [("run", "compound-linear"), ("crosscheck", "subordination-linear")]:
        name = f"{command}-single"
        path, _ = _config(tmp_path, name, scenario=scenario, run={"paths": 1})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = _exit_and_stderr(capsys, [command, str(path)])
        assert code == cli.EXIT_HYPOTHESIS and "run.paths" in err, command
        assert "Warning" not in err
        assert not (tmp_path / name).exists()


@pytest.mark.parametrize("seed", [1, 2, 5, 10])
def test_run_with_one_accepted_path_is_hypothesis_failure(tmp_path, capsys, seed):
    # at this horizon the X of the 150 paths are not all equal, but only
    # one path has gamma above the Z1 floor: its weighted estimate would
    # be a mean of one value with a NaN standard error
    name = f"accept-{seed}"
    path, _ = _config(tmp_path, name, params={"weight": "bump", "horizon": 0.0005},
                      run={"seed": seed, "paths": 150, "rho_replicas": 100})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _exit_and_stderr(capsys, ["run", str(path)])
    assert code == cli.EXIT_HYPOTHESIS, err
    assert "Z1 acceptance" in err and "params.horizon" in err and "params.trunc" in err
    assert "Warning" not in err
    assert not (tmp_path / name).exists()


@pytest.mark.parametrize("command", ["validate", "run", "crosscheck"])
def test_ymax_range_checked_before_simulation(tmp_path, capsys, command):
    path, _ = _config(tmp_path, "negymax", scenario="subordination-linear",
                      params={"ymax": -1.0})
    code, err = _exit_and_stderr(capsys, [command, str(path)])
    assert code == cli.EXIT_HYPOTHESIS and "params.ymax" in err
    assert not (tmp_path / "negymax").exists()


@pytest.mark.parametrize("key,value", [("trunc", 2.0), ("eps", 1.5)])
def test_crosscheck_param_ranges_checked_before_simulation(tmp_path, capsys, key, value):
    path, _ = _config(tmp_path, "xbad", scenario="subordination-linear",
                      run={"paths": 4}, params={key: value})
    code, err = _exit_and_stderr(capsys, ["crosscheck", str(path)])
    assert code == cli.EXIT_HYPOTHESIS and f"params.{key}" in err
    assert not (tmp_path / "xbad").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["validate", "run", "crosscheck"])
def test_non_finite_params_rejected_before_work(tmp_path, capsys, command, value):
    # json reads NaN and Infinity; each float param is refused with its field named
    for scenario in ("subordination-linear", "compound-linear"):
        params = inspect.signature(scenarios.CATALOG[scenario]).parameters
        for key in [key for key, p in params.items() if p.annotation == "float"]:
            name = f"nonfinite-{scenario}-{key}"
            path, _ = _config(tmp_path, name, scenario=scenario,
                              run={"paths": 4}, params={key: value})
            code, err = _exit_and_stderr(capsys, [command, str(path)])
            assert code == cli.EXIT_HYPOTHESIS, (scenario, key, err)
            assert f"params.{key}" in err and "finite" in err
            assert not (tmp_path / name).exists()


@pytest.mark.parametrize("step", [0.0, -0.5, 1e-8])
@pytest.mark.parametrize("command", ["validate", "run", "crosscheck"])
def test_nested_step_checked_before_work(tmp_path, capsys, command, step):
    # 1e-8 would ask prm.nested_grid for 1e8 steps on a full-length excursion
    path, _ = _config(tmp_path, "step", scenario="subordination-linear",
                      run={"paths": 4}, params={"nested_step": step})
    code, err = _exit_and_stderr(capsys, [command, str(path)])
    assert code == cli.EXIT_HYPOTHESIS and "params.nested_step" in err, err
    assert not (tmp_path / "step").exists()


def test_nested_step_bound_is_inclusive(tmp_path):
    path, _ = _config(tmp_path, "bound", scenario="subordination-linear",
                      params={"ymax": 0.5, "nested_step": 0.5 / cli.MAX_NESTED_STEPS})
    assert cli.main(["validate", str(path)]) == cli.EXIT_OK


def test_singular_jacobian_in_one_lane_exits_numeric(tmp_path, capsys, monkeypatch,
                                                     lone_mark_singular):
    # the trajectory route meets I + D_x c = 0 on one path of the chunk only
    build = scenarios.CATALOG["compound-linear"]
    bad, bad_path = lone_mark_singular(build(), 42, 12)
    monkeypatch.setitem(scenarios.CATALOG, "compound-linear",
                        functools.wraps(build)(lambda **params: bad))
    path, _ = _config(tmp_path, "singular", scenario="compound-linear",
                      run={"paths": 12, "rho_replicas": 10})
    code, err = _exit_and_stderr(capsys, ["run", str(path)])
    assert code == cli.EXIT_NUMERIC
    assert "singular jump Jacobian" in err and f"on path {bad_path};" in err


@pytest.mark.parametrize("command", ["validate", "run", "crosscheck"])
def test_jump_intensity_bounded_before_simulation(tmp_path, capsys, command):
    # measure mass 8.2e8 on (1e-9, 1] at eps 0.99: ~8e8 jumps per path
    name = f"intense-{command}"
    path, _ = _config(tmp_path, name, scenario="simple2d", run={"paths": 4},
                      params={"eps": 0.99, "trunc": 1e-9})
    code, err = _exit_and_stderr(capsys, [command, str(path)])
    assert code == cli.EXIT_HYPOTHESIS, err
    for field in ("params.eps", "params.trunc", "params.horizon", "jumps per path"):
        assert field in err, field
    assert not (tmp_path / name).exists()


@pytest.mark.parametrize("sigma0", [{"a": 1}, [[1.0]], [[0.3, 0.0], [0.1]],
                                    [[0.3, 0.0], [0.1, "x"]], [[0.3, 0.0], [0.1, float("nan")]]])
@pytest.mark.parametrize("command", ["validate", "run", "crosscheck"])
def test_sigma0_must_be_finite_2x2_matrix(tmp_path, capsys, command, sigma0):
    path, _ = _config(tmp_path, "sigma", scenario="subordination-linear",
                      run={"paths": 4}, params={"sigma0": sigma0})
    code, err = _exit_and_stderr(capsys, [command, str(path)])
    assert code == cli.EXIT_SCHEMA and "params.sigma0" in err
    assert not (tmp_path / "sigma").exists()


def test_every_builder_parameter_has_a_checked_type():
    for name, reader in dict(scenarios.CATALOG, tauber=cli._tauber_inputs).items():
        for key, param in inspect.signature(reader).parameters.items():
            assert param.annotation in cli._PARAM_TYPES, (name, key)


def test_validate_catalog_defaults_ok(tmp_path, capsys):
    path, _ = _config(tmp_path, "ok")
    assert cli.main(["validate", str(path)]) == cli.EXIT_OK
    body = json.loads(capsys.readouterr().out)
    assert body["passed"]


def test_validate_prints_plain_floats(tmp_path, capsys):
    # the worst probe is reported as plain floats, not numpy scalar reprs
    path, _ = _config(tmp_path, "plain")
    assert cli.main(["validate", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "min |det| over probes" in out and "np.float64" not in out


@pytest.mark.parametrize("workers", [1, 2])
def test_run_state_overflow_exits_numeric_without_warnings(tmp_path, capfd, workers):
    # beta x u overflows at the first jump: the event loop reports the
    # overflow once, and numpy's warnings (a pool worker's too) stay off stderr
    path, _ = _config(tmp_path, "overflow", scenario="compound-linear",
                      params={"beta": 1e308, "x0": 10.0},
                      run={"paths": 20, "rho_replicas": 10, "workers": workers})
    assert cli.main(["run", str(path)]) == cli.EXIT_NUMERIC
    err = capfd.readouterr().err
    assert "Warning" not in err and "Traceback" not in err
    assert err.strip() == "numeric failure: state overflow (event 2)"
    assert not (tmp_path / "overflow").exists()


def test_compensated_run_passes_the_flow_inverse_check(tmp_path):
    # the drift runs on its exact flow, whose inverse is exact to rounding
    path, cfg = _config(tmp_path, "comp", scenario="compound-linear",
                        params={"compensated": True}, run={"paths": 2000, "rho_replicas": 50})
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    body = report.report_body(Path(cfg["outputs"]["dir"]) / "report.json")
    assert body["verdicts"]["flow_inverse_1e-8"] is True
    assert body["estimates"]["max_flow_inverse_error"]["value"] <= 1e-12


def test_compensated_flow_without_inverse_exits_numeric(tmp_path, capfd):
    # at beta 1000 the drift's flow exp(-beta m1 dt) rounds to 0 across a
    # long enough gap between events, and a Jacobian 0 has no inverse
    path, _ = _config(tmp_path, "decay", scenario="compound-linear",
                      params={"beta": 1000, "compensated": True}, run={"paths": 2000})
    assert cli.main(["run", str(path)]) == cli.EXIT_NUMERIC
    err = capfd.readouterr().err
    assert "Warning" not in err and "Traceback" not in err
    assert err.startswith("numeric failure: ")
    assert not (tmp_path / "decay").exists()


@pytest.mark.parametrize("name", ["compound", "compound-linear"])
def test_run_failing_after_its_tables_writes_nothing(tmp_path, capsys, monkeypatch, name):
    # the density and states tables are ready before the serial diagnostics;
    # a diagnostic that fails withholds them with the report
    def failing_oracle(*args):
        raise FloatingPointError("oracle overflow")

    monkeypatch.setattr(cli, "_dual_oracle", failing_oracle)
    path, _ = _config(tmp_path, "late", scenario=name, run={"paths": 40})
    code, err = _exit_and_stderr(capsys, ["run", str(path)])
    assert code == cli.EXIT_NUMERIC and "oracle overflow" in err
    assert not (tmp_path / "late").exists()


def test_validate_fails_unbounded_coefficients(tmp_path, capsys):
    # beta x u overflows at every probe: the boundedness item fails, with no
    # overflow warning escaping
    path, _ = _config(tmp_path, "unbounded", scenario="compound-linear",
                      params={"beta": 1e308, "x0": 10.0})
    assert cli.main(["validate", str(path)]) == cli.EXIT_HYPOTHESIS
    out, err = capsys.readouterr()
    assert "Traceback" not in err and "coefficient boundedness over probe box" in err
    item = next(i for i in json.loads(out)["items"]
                if i["name"] == "coefficient boundedness over probe box")
    assert item["status"] == "fail" and item["detail"].startswith("max |c| = inf")


def test_crosscheck_requires_subordination(tmp_path):
    path, _ = _config(tmp_path, "wrong")
    assert cli.main(["crosscheck", str(path)]) == cli.EXIT_SCHEMA


# ---------------------------------------------------------------------------
# crosscheck statistics and start-up
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("n", [2, 3, 5, 20, 400, 5_000, 10_000])
def test_ks_two_sample_matches_scipy(n, ties):
    rng = np.random.default_rng(n)
    a, b = rng.normal(size=n), rng.normal(0.05, 1.0, size=n)
    if ties:
        a, b = a.round(1), b.round(1)
    ref = ks_2samp(a, b)
    assert cli._ks_two_sample(a, b) == (ref.statistic, ref.pvalue)


@pytest.mark.parametrize("n", [5, 7, 13])
def test_ks_two_sample_clips_rounded_up_pvalue(n):
    # interleaved samples: h = 1, where the exact sum rounds to 1 + 1 ulp
    a = 2.0 * np.arange(n)
    assert cli._ks_two_sample(a, a + 1.0) == (1 / n, 1.0)


@pytest.mark.parametrize("sizes", [(3, 4), (0, 0), (0, 2)])
def test_ks_two_sample_needs_equal_nonempty_samples(sizes):
    with pytest.raises(ValueError, match="equal size"):
        cli._ks_two_sample(np.zeros(sizes[0]), np.ones(sizes[1]))


def _fresh_interpreter(script):
    """Standard output of `script` run by a fresh interpreter on this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_no_command_imports_scipy(tmp_path):
    # a fresh interpreter: the tests themselves import scipy
    crosscheck, _ = _config(tmp_path, "x", scenario="subordination-linear", run={"paths": 20})
    run, _ = _config(tmp_path, "r", run={"paths": 300, "rho_replicas": 50})
    validate, _ = _config(tmp_path, "v", scenario="compound-linear",
                          params={"compensated": True})
    tauber, _ = _config(tmp_path, "t", params={"psi": "y"}, run={"paths": 20_000})
    script = (f"import sys\nfrom lentparticle import cli\n"
              f"assert cli.main(['crosscheck', {str(crosscheck)!r}]) == 0\n"
              f"assert cli.main(['run', {str(run)!r}]) == 0\n"
              f"assert cli.main(['validate', {str(validate)!r}]) == 0\n"
              f"assert cli.main(['tauber', {str(tauber)!r}]) == 0\n"
              f"print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_interpreter(script).splitlines()[-1] == "[]"


def test_trajectory_commands_do_not_import_numpy_ma(tmp_path):
    # a fresh interpreter: numpy's `unique` looks up `np.ma`, whose import
    # costs ~20 ms per invocation, so the event grid must not call it
    run, _ = _config(tmp_path, "r", scenario="subordination-nonlinear",
                     run={"paths": 20, "rho_replicas": 50})
    crosscheck, _ = _config(tmp_path, "x", scenario="subordination-linear", run={"paths": 20})
    script = (f"import sys\nfrom lentparticle import cli\n"
              f"assert cli.main(['run', {str(run)!r}]) == 0\n"
              f"assert cli.main(['crosscheck', {str(crosscheck)!r}]) == 0\n"
              f"print('numpy.ma' in sys.modules)")
    assert _fresh_interpreter(script).splitlines()[-1] == "False"


def test_crosscheck_does_not_import_numpy_random(tmp_path):
    # a fresh interpreter: every draw of crosscheck comes from the Philox
    # kernel, and importing numpy.random costs ~10 ms and ~2 MB per invocation
    crosscheck, _ = _config(tmp_path, "x", scenario="subordination-linear", run={"paths": 20})
    script = (f"import sys\nfrom lentparticle import cli\n"
              f"assert cli.main(['crosscheck', {str(crosscheck)!r}]) == 0\n"
              f"print('numpy.random' in sys.modules)")
    assert _fresh_interpreter(script).splitlines()[-1] == "False"


def test_stable_samples_match_erfcinv(monkeypatch):
    # the uniforms are the stream's own generator draws
    u = RngStream(seed=0, tag=TAG_NOISE).generator().random(5)
    np.testing.assert_allclose(cli.diagnostics_stable_samples(5, 0, 1.5),
                               1.5 ** 2 * np.pi / erfcinv(u) ** 2, rtol=1e-14, atol=0)
    u = np.concatenate([[0.0, 1e-300, 0.5, 1 - 2 ** -53],
                        np.random.default_rng(3).random(20_000)])
    monkeypatch.setattr(cli, "philox_random",
                        lambda stream, paths, blocks: np.resize(u, (len(blocks), 4)))
    samples = cli.diagnostics_stable_samples(len(u), 0, 1.5)
    assert samples[0] == 0.0
    np.testing.assert_allclose(samples, 1.5 ** 2 * np.pi / erfcinv(u) ** 2, rtol=1e-14, atol=0)


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
    # the report body, and crosscheck's table, byte for byte
    for command, name in (("run", "compound"), ("run", "subordination-nonlinear"),
                          ("run", "subordination-linear"), ("run", "levy-field-demo"),
                          ("run", "simple2d"), ("crosscheck", "subordination-linear")):
        outputs = []
        for workers in (1, 2, 3, 8):
            path, cfg = _config(tmp_path, f"{command}-{name}-w{workers}", scenario=name,
                                run={"rho_replicas": 50, "workers": workers})
            assert cli.main([command, str(path)]) == 0
            out = Path(cfg["outputs"]["dir"])
            body = report.report_body(out / "report.json")
            body["provenance"].pop("config_hash")   # differs through run.workers
            outputs.append((body, (out / "crosscheck.csv").read_bytes()
                            if command == "crosscheck" else None))
        assert all(o == outputs[0] for o in outputs[1:]), (command, name)


def test_command_pool_outlives_the_fan_out(tmp_path, monkeypatch):
    """`run` at 2 workers fans out on the command's pool of one process, which
    is still open when the fan-out returns and is closed with the command."""
    real_fan_out, pools = cli._fan_out, []

    def fan_out(worker, name, params, paths, seed, workers, pool=None, then=None):
        parts = real_fan_out(worker, name, params, paths, seed, workers, pool, then)
        assert pool.apply(abs, (-2,)) == 2     # still open
        assert len(multiprocessing.active_children()) == workers - 1
        pools.append(pool)
        return parts

    monkeypatch.setattr(cli, "_fan_out", fan_out)
    path, _ = _config(tmp_path, "pool", run={"workers": 2})
    assert cli.main(["run", str(path)]) == 0
    assert len(pools) == 1
    with pytest.raises(ValueError):
        pools[0].apply(abs, (-3,))
    assert multiprocessing.active_children() == []


def _chunks(paths: int, workers: int) -> list[tuple[int, int]]:
    """(start, count) of the contiguous path ranges of a fan-out, in path
    order, as `cli._chunk_size` lays them out: the reference for it."""
    size, n = cli._chunk_size(paths, workers)
    return [(i * size, min(size, paths - i * size)) for i in range(n)]


@pytest.mark.parametrize("paths,workers,chunks", [
    (10, 1, [(0, 10)]),
    (10, 2, [(0, 5), (5, 5)]),
    (10, 3, [(0, 4), (4, 4), (8, 2)]),
    (5, 4, [(0, 2), (2, 2), (4, 1)]),
    (3, 8, [(0, 1), (1, 1), (2, 1)]),
    (1, 4, [(0, 1)]),
])
def test_chunks_split_the_paths_in_order(paths, workers, chunks):
    assert _chunks(paths, workers) == chunks


@pytest.mark.parametrize("paths,workers,forks", [
    (50_000, 1, 0), (50_000, 2, 1), (50_000, 3, 2), (1, 4, 0),
    (5, 4, 2),       # 3 chunks of at most 2 paths
    (9, 8, 4),       # 5 chunks of at most 2 paths
    (50_000, 9, 7), (100_000, 100_000, 7), (10 ** 6, 10 ** 6, 7),   # 8 cores
])
def test_command_pool_forks_one_process_per_chunk_but_the_parents(monkeypatch, paths,
                                                                    workers, forks):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.multiprocessing, "Pool", lambda processes: processes)
    pool = cli._command_pool({"paths": paths, "workers": workers})
    if forks == 0:
        assert isinstance(pool, contextlib.nullcontext)
    else:
        assert pool == forks


def test_command_pool_counts_the_chunks_without_listing_them(monkeypatch):
    # a million one-path chunks: the pool size is worked out, not listed
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.multiprocessing, "Pool", lambda processes: processes)
    tracemalloc.start()
    try:
        forks = cli._command_pool({"paths": 10 ** 6, "workers": 10 ** 6})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forks == 7
    assert peak < 2 ** 20


class _RecordingPool:
    """Runs in this process what it is given, and keeps the jobs."""

    def __init__(self):
        self.jobs = []

    def imap(self, worker, jobs):
        jobs = list(jobs)
        self.jobs += jobs
        return map(worker, jobs)


def _assert_parts_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = (vars(g), vars(w)) if hasattr(g, "__dict__") else (g, w)
        assert g.keys() == w.keys()
        for key in g:
            np.testing.assert_array_equal(g[key], w[key], strict=True)


@pytest.mark.parametrize("worker,name", [(cli._simple_chunk, "compound"),
                                         (cli._traj_chunk, "subordination-nonlinear")])
@pytest.mark.parametrize("workers", [2, 3])
def test_parent_computes_the_last_chunk(worker, name, workers):
    paths, seed = 23, 5
    jobs = [(name, {}, start, count, seed) for start, count in _chunks(paths, workers)]
    pool = _RecordingPool()
    parts = cli._fan_out(worker, name, {}, paths, seed, workers, pool)
    assert pool.jobs == jobs[:-1]
    _assert_parts_equal(parts, cli._fan_out(worker, name, {}, paths, seed, workers))


def test_run_chunks_tabulate_at_the_weight_order(tmp_path, monkeypatch):
    # every chunk, the pool's and the parent's, asks the table for the order
    # `run` weighs at; the forked worker inherits the patch and logs to a file
    log = tmp_path / "orders.log"
    real = sde.SimpleJets.table

    def logged(self, *args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {args[-1]}\n")
        return real(self, *args)

    monkeypatch.setattr(sde.SimpleJets, "table", logged)
    path, _ = _config(tmp_path, "orders", run={"paths": 200, "workers": 2})
    assert cli.main(["run", str(path)]) == 0
    calls = [line.split() for line in log.read_text().splitlines()]
    assert len({pid for pid, _ in calls}) == 2
    assert {order for _, order in calls} == {str(cli.RUN_WEIGHT_ORDER)} == {"1"}


def _crosscheck_config(tmp_path, name, **run):
    return _config(tmp_path, name, scenario="subordination-linear",
                   run={"paths": 40, "workers": 2, **run})


@pytest.mark.parametrize("command", ["run", "crosscheck"])
def test_no_process_left_behind(tmp_path, command):
    if command == "run":
        path, _ = _config(tmp_path, "left", scenario="subordination-nonlinear",
                          run={"paths": 40, "rho_replicas": 50, "workers": 2})
    else:
        path, _ = _crosscheck_config(tmp_path, "left")
    assert cli.main([command, str(path)]) == 0
    assert multiprocessing.active_children() == []


def _fail_from(module, attr, monkeypatch, errors):
    """Make `module.attr` raise errors[i] on chunk i (None: run as before)."""
    real = getattr(module, attr)

    def chunk(*args, path_offset=0, **kwargs):
        error = errors[0 if path_offset == 0 else 1]
        if error is not None:
            raise error
        return real(*args, path_offset=path_offset, **kwargs)

    monkeypatch.setattr(module, attr, chunk)


@pytest.mark.parametrize("command,scenario,module,attr,error,code", [
    ("run", "compound", ensemble, "simple_ensemble", ValueError("bad chunk"),
     cli.EXIT_HYPOTHESIS),
    ("run", "subordination-nonlinear", sde, "integrate_batch",
     sde.EventError("bad chunk", 3), cli.EXIT_NUMERIC),
    ("crosscheck", "subordination-linear", sde, "integrate_batch",
     sde.EventError("bad chunk", 3), cli.EXIT_NUMERIC),
    # numeric failures that are ValueErrors too
    ("run", "subordination-nonlinear", sde, "integrate_batch",
     NonIntegrableError("bad chunk"), cli.EXIT_NUMERIC),
    ("run", "subordination-nonlinear", sde, "integrate_batch",
     np.linalg.LinAlgError("bad chunk"), cli.EXIT_NUMERIC),
])
@pytest.mark.parametrize("failing", [0, 1])     # the pool's chunk, the parent's
def test_failing_chunk_leaves_no_process(tmp_path, capsys, monkeypatch, command, scenario,
                                         module, attr, error, code, failing):
    _fail_from(module, attr, monkeypatch, [error if i == failing else None for i in (0, 1)])
    path, _ = _config(tmp_path, "fail", scenario=scenario,
                      run={"paths": 40, "rho_replicas": 50, "workers": 2})
    got, err = _exit_and_stderr(capsys, [command, str(path)])
    assert got == code and "bad chunk" in err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_first_failing_chunk_decides_the_exit(tmp_path, capsys, monkeypatch, workers):
    # chunk 0 runs on the pool, chunk 1 in the parent; serially chunk 0 fails first
    _fail_from(sde, "integrate_batch", monkeypatch,
               [ValueError("first chunk"), sde.EventError("last chunk", 3)])
    path, _ = _crosscheck_config(tmp_path, "first", workers=workers)
    got, err = _exit_and_stderr(capsys, ["crosscheck", str(path)])
    assert got == cli.EXIT_HYPOTHESIS and "first chunk" in err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("name,horizon", [("compound", 0.001),
                                          ("subordination-nonlinear", 0.01)])
def test_dual_oracle_without_jump_fails(tmp_path, name, horizon):
    # at seed 1 path 1 takes no jump, so both routes give Gamma = 0
    path, cfg = _config(tmp_path, "nojump", scenario=name, params={"horizon": horizon},
                        run={"seed": 1})
    assert cli.main(["run", str(path)]) == 0
    body = report.report_body(Path(cfg["outputs"]["dir"]) / "report.json")
    assert body["estimates"]["gamma_dual_oracle_rel_err"]["value"] == 0.0
    assert body["verdicts"]["gamma_dual_oracle_5pct"] is False
    assert "no jump" in body["diagnostics"]["gamma_dual_oracle_no_jump"]


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


@pytest.mark.parametrize("name", ["subordination-linear", "simple2d"])
def test_report_rederives_trajectory_states(tmp_path, capsys, name):
    path, cfg = _config(tmp_path, "traj", scenario=name, run={"paths": 20})
    assert cli.main(["run", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["report", cfg["outputs"]["dir"]]) == cli.EXIT_OK
    assert "max flow inverse error from CSV" in capsys.readouterr().out


def test_report_refuses_a_mean_with_no_column(tmp_path, capsys):
    # a d = 1 trajectory run's states.csv has the column x0 only: a stored
    # mean_x1 is an estimate no column re-derives
    path, cfg = _config(tmp_path, "linear", scenario="compound-linear", run={"paths": 20})
    assert cli.main(["run", str(path)]) == 0
    rep_path = Path(cfg["outputs"]["dir"]) / "report.json"
    body = json.loads(rep_path.read_text())
    body["estimates"]["mean_x1"] = dict(body["estimates"]["mean_x0"])
    rep_path.write_text(json.dumps(body))
    code, err = _exit_and_stderr(capsys, ["report", cfg["outputs"]["dir"]])
    assert code == cli.EXIT_NUMERIC and "mean_x1" in err and "mean_x0" not in err, err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("scenario,paths,table", [("compound-linear", 20, "states.csv"),
                                                   ("compound", 200, "density.csv")])
def test_report_refuses_a_run_whose_table_is_gone(tmp_path, capsys, scenario, paths, table):
    path, cfg = _config(tmp_path, "gone", scenario=scenario, run={"paths": paths})
    assert cli.main(["run", str(path)]) == 0
    (Path(cfg["outputs"]["dir"]) / table).unlink()
    capsys.readouterr()
    code, err = _exit_and_stderr(capsys, ["report", cfg["outputs"]["dir"]])
    assert code == cli.EXIT_SCHEMA and table in err, err


# states.csv rows after the header -> (exit code, word on stderr)
STATES_TAMPERING = {
    "first-row-overwritten": (lambda rows: ["99,99,0,0", *rows[1:]], cli.EXIT_NUMERIC, "mean_x0"),
    "row-dropped": (lambda rows: rows[:-1], cli.EXIT_NUMERIC, "from 19 rows"),
    "flow-error-raised": (lambda rows: [rows[0].rsplit(",", 2)[0] + ",1e-3,0", *rows[1:]],
                          cli.EXIT_NUMERIC, "max_flow_inverse_error"),
    "ragged-row": (lambda rows: [*rows, "1.0,2.0"], cli.EXIT_SCHEMA, "states.csv"),
    "non-numeric-cell": (lambda rows: [*rows[:-1], "x,0,0,0"], cli.EXIT_SCHEMA, "states.csv"),
}


@pytest.fixture(scope="module")
def subordination_run(tmp_path_factory):
    path, cfg = _config(tmp_path_factory.mktemp("sub"), "traj",
                        scenario="subordination-linear", run={"paths": 20})
    assert cli.main(["run", str(path)]) == 0
    return Path(cfg["outputs"]["dir"])


@pytest.mark.parametrize("case", sorted(STATES_TAMPERING))
def test_report_catches_tampered_states(tmp_path, capsys, subordination_run, case):
    tamper, expected, named = STATES_TAMPERING[case]
    out = tmp_path / "run"
    shutil.copytree(subordination_run, out)
    header, *rows = (out / "states.csv").read_text().splitlines()
    (out / "states.csv").write_text("\n".join([header, *tamper(rows)]) + "\n")
    code, err = _exit_and_stderr(capsys, ["report", str(out)])
    assert code == expected and named in err, err


def _config_dir(tmp_path):
    return ["run", str(tmp_path)]


def _config_not_utf8(tmp_path):
    path, _ = _config(tmp_path, "latin1", params={"weight": "bump"})
    path.write_bytes(path.read_bytes().replace(b"bump", "bümp".encode("latin-1")))
    return ["run", str(path)]


def _outputs_dir_is_a_file(tmp_path):
    (tmp_path / "taken").write_text("")
    path, _ = _config(tmp_path, "taken-dir", outputs={"dir": str(tmp_path / "taken")})
    return ["run", str(path)]


def _outputs_dir_under_a_file(tmp_path):
    (tmp_path / "taken").write_text("")
    path, _ = _config(tmp_path, "under", outputs={"dir": str(tmp_path / "taken" / "out")})
    return ["crosscheck", str(path)]


def _outputs_dir_dangling_link(tmp_path):
    (tmp_path / "link").symlink_to(tmp_path / "nowhere")
    path, _ = _config(tmp_path, "link-dir", outputs={"dir": str(tmp_path / "link")})
    return ["run", str(path)]


def _outputs_dir_nul_byte(tmp_path):
    path, _ = _config(tmp_path, "nul", outputs={"dir": str(tmp_path / "a\0b")})
    return ["run", str(path)]


def _svg_not_boolean(tmp_path):
    path, _ = _config(tmp_path, "svg", outputs={"svg": "no"})
    return ["run", str(path)]


def _unknown_key(where, key):
    """A compound run whose config holds an unknown key at `where` ("" for
    the top level)."""
    def make(tmp_path):
        path, cfg = _config(tmp_path, "unknown-key")
        (cfg[where] if where else cfg)[key] = 1
        path.write_text(json.dumps(cfg))
        return ["run", str(path)]
    return make


def _run_dir(tmp_path, report_text, density_text=None):
    (tmp_path / "report.json").write_text(report_text)
    if density_text is not None:
        (tmp_path / "density.csv").write_text(density_text)
    return ["report", str(tmp_path)]


_MASS = json.dumps({"estimates": {"density_mass": {"value": 1.0, "se": 0.0, "n": 1}}})

UNREADABLE_INPUTS = {
    "config-is-a-directory": (_config_dir, "Is a directory"),
    "config-not-utf8": (_config_not_utf8, "not UTF-8"),
    "outputs-dir-is-a-file": (_outputs_dir_is_a_file, "outputs.dir"),
    "outputs-dir-under-a-file": (_outputs_dir_under_a_file, "outputs.dir"),
    "outputs-dir-dangling-link": (_outputs_dir_dangling_link, "outputs.dir"),
    "outputs-dir-nul-byte": (_outputs_dir_nul_byte, "outputs.dir"),
    "outputs-svg-not-boolean": (_svg_not_boolean, "outputs.svg"),
    "unknown-top-level-key": (_unknown_key("", "extra"), "extra: unknown key"),
    "unknown-run-key": (_unknown_key("run", "worker"), "run.worker: unknown key"),
    "unknown-outputs-key": (_unknown_key("outputs", "svgg"), "outputs.svgg: unknown key"),
    "report-bad-json": (lambda t: _run_dir(t, '{"estimates": '), "report.json"),
    "report-not-an-object": (lambda t: _run_dir(t, "[1, 2]"), "report.json"),
    "report-mass-not-a-number": (
        lambda t: _run_dir(t, '{"estimates": {"density_mass": {"value": "1"}}}', ""),
        "report.json"),
    "density-non-numeric-cell": (lambda t: _run_dir(t, _MASS, "grid,ibp\n0.0,abc\n"),
                                 "density.csv"),
    "density-ragged-row": (lambda t: _run_dir(t, _MASS, "grid,ibp\n0.0,1.0\n0.5\n"),
                           "density.csv"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
def test_unreadable_inputs_are_schema_errors(tmp_path, capsys, monkeypatch, case):
    # each exits 2 with one stderr line naming what it could not use, and
    # draws no path
    make, named = UNREADABLE_INPUTS[case]

    def refuse(*args, **kwargs):
        raise AssertionError("no path may be drawn")

    monkeypatch.setattr(cli, "_fan_out", refuse)
    code, err = _exit_and_stderr(capsys, make(tmp_path))
    assert code == cli.EXIT_SCHEMA, err
    assert len(err.splitlines()) == 1 and named in err, err


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

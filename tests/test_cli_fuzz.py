"""Config fuzzing of the exit-code contract: every input exits 0, 2, 3 or 4,
and an ill-typed or out-of-range run field or outputs.svg exits 2.

Configs mix valid values with hostile ones (NaN, infinities, wrong types,
out-of-range numbers, a sigma0 that is no 2x2 matrix, an outputs.svg that
is no boolean, a jump intensity of ~1e8 per path, unknown keys and
scenarios) and run `cli.main` in-process.
Valid values are bounded so that no config asks for more than a few dozen
jumps per path: the contract is about how a run ends, not about its size.
"""

import contextlib
import inspect
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lentparticle import cli, scenarios

HOSTILE = [math.nan, math.inf, -math.inf, -1.0, 0.0, 1.5, 2, "x", True, None, [0.1]]
# values no run field (seed, paths, rho_replicas, workers) accepts; JSON
# booleans among them, which Python's isinstance(True, int) would let in
HOSTILE_RUN = [math.nan, 2.0, 0.5, "x", True, False, None, [1]]
# values outputs.svg, a JSON boolean, does not accept
HOSTILE_SVG = ["no", "true", 0, 1, None, [True]]
HOSTILE_SIGMA0 = [{"a": 1}, [[1.0]], [[0.3, 0.0]], [[0.3, 0.0], [0.1, 0.2, 0.0]]]
INTENSE = {"eps": 0.99, "trunc": 1e-9}     # measure mass 8.2e8 on (1e-9, 1]

VALID_PARAMS = {
    "eps": [0.3, 0.5, 0.8], "trunc": [0.05, 0.2], "horizon": [0.2, 1.0],
    "ymax": [0.5, 1.0], "weight": ["power", "bump"], "compensated": [False, True],
    "beta": [0.5, -1.0], "x0": [0.0, 1.0], "nested_step": [0.05, 0.25],
    "sigma0": [[[0.3, 0.0], [0.1, 0.2]]], "psi": ["y", "y2"],
}

VALID_RUN = {"seed": [0, 42, -3, 2 ** 64], "paths": [1, 2, 8], "rho_replicas": [1, 8],
             "workers": [1]}


@st.composite
def invocations(draw):
    """A subcommand, a config for it with at most one field spoiled, and
    the exit codes it may end with."""
    command = draw(st.sampled_from(["run", "validate", "crosscheck", "tauber"]))
    name = draw(st.sampled_from(sorted(scenarios.CATALOG)))
    spoil = draw(st.sampled_from([None, "params", "run", "missing", "unknown", "scenario",
                                  "sigma0", "intensity", "svg"]))
    if spoil == "sigma0" or command == "crosscheck" and draw(st.booleans()):
        name = "subordination-linear"       # the one scenario crosscheck takes
    reader = cli._tauber_inputs if command == "tauber" else scenarios.CATALOG[name]
    keys = [k for k in inspect.signature(reader).parameters if k in VALID_PARAMS]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=3))
    params = {k: draw(st.sampled_from(VALID_PARAMS[k])) for k in chosen}
    run = {k: draw(st.sampled_from(valid)) for k, valid in VALID_RUN.items()}
    if spoil == "params" and params:
        params[draw(st.sampled_from(chosen))] = draw(st.sampled_from(HOSTILE))
    elif spoil == "sigma0":
        params["sigma0"] = draw(st.sampled_from(HOSTILE_SIGMA0))
    elif spoil == "intensity":
        params.update(INTENSE)
    elif spoil == "run":
        run[draw(st.sampled_from(sorted(run)))] = draw(st.sampled_from(HOSTILE_RUN))
    elif spoil == "missing":
        del run[draw(st.sampled_from(sorted(run)))]
    elif spoil == "unknown":
        params["bogus"] = 1
    elif spoil == "scenario":
        name = "nope"
    svg = draw(st.sampled_from(HOSTILE_SVG) if spoil == "svg" else st.booleans())
    expect = {cli.EXIT_SCHEMA} if spoil in ("run", "svg") else {
        cli.EXIT_OK, cli.EXIT_SCHEMA, cli.EXIT_HYPOTHESIS, cli.EXIT_NUMERIC}
    return command, {"scenario": name, "params": params, "run": run,
                     "outputs": {"svg": svg}}, expect


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(invocations())
def test_exit_code_contract(invocation):
    command, config, expect = invocation
    with tempfile.TemporaryDirectory() as tmp:
        config["outputs"]["dir"] = str(Path(tmp, "out"))
        path = Path(tmp, "config.json")
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        # warnings are recorded, not raised, as in a real CLI run
        with warnings.catch_warnings(record=True), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main([command, str(path)])
    assert code in expect
    assert "Traceback" not in err.getvalue()

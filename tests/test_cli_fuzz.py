"""Fuzz gate for `solitonlab run`, `spectrum`, `entropy` and `gauge-check`:
every config ends, under each of them, in finite output with exit 0, a
field-precise rejection with exit 2, or a numerical failure with exit 3 --
never in a traceback or in non-finite numbers."""

import contextlib
import io
import json
import math
import os
import re
from unittest import mock

from hypothesis import given, settings, strategies as st

from solitonlab import cli, harness

TWO_PI = repr(2.0 * math.pi)

MODELS = {
    "grid 8^2": ("kind = grid\ndims = 8,8\nperiod = {p},{p}\nrecipe = perturbed-flat\n"
                 .format(p=TWO_PI), 0.05),
    "grid 8^3": ("kind = grid\ndims = 8,8,8\nperiod = {p},{p},{p}\nrecipe = perturbed-flat\n"
                 .format(p=TWO_PI), 0.05),
    "round": ("kind = frame\nrecipe = round\ncoefficients = 4,4,4\n", 0.01),
    "berger": ("kind = frame\nrecipe = berger\ncoefficients = 4.4,4.0,3.7\n", 0.01),
}
COMMANDS = ("run", "spectrum", "entropy", "gauge-check")


def _floats(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _floats(v)
    elif isinstance(value, list):
        for v in value:
            yield from _floats(v)
    elif isinstance(value, float):
        yield value


def _finite(command, out) -> bool:
    """Whether every number ``command`` printed is finite."""
    if command in ("run", "spectrum"):  # JSON (`run` then names its record)
        return all(math.isfinite(v) for v in _floats(json.loads(out.split("\nrecord: ")[0])))
    return re.search(r"\b(nan|inf)\b", out) is None


@settings(max_examples=160, deadline=None, derandomize=True, database=None)
@given(model=st.sampled_from(sorted(MODELS)),
       variant=st.sampled_from(["tau", "unnormalized", "deturck"]),
       tau=st.sampled_from(["0.5", "1.0", "inf"]),
       steps=st.integers(1, 4),
       analyze=st.booleans(),
       reconstruct=st.booleans(),
       eps_neutral=st.sampled_from(["auto", "1e-3", "1e6", "-1", "nan"]),
       beta=st.sampled_from(["auto", "1.5", "0.5", "nan"]),
       interval_length=st.sampled_from(["1.0", "0.03"]))
def test_run_ends_in_one_of_three_ways(tmp_path_factory, model, variant, tau, steps,
                                       analyze, reconstruct, eps_neutral, beta,
                                       interval_length):
    text, dt = MODELS[model]
    config = (f"[model]\n{text}"
              f"[flow]\nvariant = {variant}\ntau = {tau}\ndt = {dt!r}\n"
              f"t_end = {steps * dt!r}\n"
              f"[gauge]\nreconstruct = {str(reconstruct).lower()}\n"
              f"[stability]\nanalyze = {str(analyze).lower()}\n"
              f"eps_neutral = {eps_neutral}\nbeta = {beta}\n"
              f"interval_length = {interval_length}\n"
              "[output]\nname = fuzz\n")
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "cfg.ini"
    path.write_text(config)
    for command in COMMANDS:
        out = io.StringIO()
        with mock.patch.dict(os.environ, {harness.OUTPUT_ENV_VAR: str(work)}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, str(path)])
        assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NUMERICAL), (command, config)
        if code == cli.EXIT_OK:
            assert _finite(command, out.getvalue()), (command, config, out.getvalue())

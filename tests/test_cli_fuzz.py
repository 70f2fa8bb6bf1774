"""Fuzz gate for `solitonlab run`: every config ends in finite verdicts with
exit 0, a field-precise rejection with exit 2, or a numerical failure with
exit 3 -- never in a traceback or in non-finite verdicts."""

import contextlib
import io
import json
import math
import os
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


def _floats(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _floats(v)
    elif isinstance(value, list):
        for v in value:
            yield from _floats(v)
    elif isinstance(value, float):
        yield value


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(model=st.sampled_from(sorted(MODELS)),
       variant=st.sampled_from(["tau", "unnormalized", "deturck"]),
       tau=st.sampled_from(["0.5", "1.0", "inf"]),
       steps=st.integers(1, 4),
       analyze=st.booleans(),
       reconstruct=st.booleans())
def test_run_ends_in_one_of_three_ways(tmp_path_factory, model, variant, tau, steps,
                                       analyze, reconstruct):
    text, dt = MODELS[model]
    config = (f"[model]\n{text}"
              f"[flow]\nvariant = {variant}\ntau = {tau}\ndt = {dt!r}\n"
              f"t_end = {steps * dt!r}\n"
              f"[gauge]\nreconstruct = {str(reconstruct).lower()}\n"
              f"[stability]\nanalyze = {str(analyze).lower()}\n"
              "[output]\nname = fuzz\n")
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "cfg.ini"
    path.write_text(config)
    out = io.StringIO()
    with mock.patch.dict(os.environ, {harness.OUTPUT_ENV_VAR: str(work)}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["run", str(path)])
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NUMERICAL), config
    if code == cli.EXIT_OK:
        verdicts = json.loads(out.getvalue().split("\nrecord: ")[0])
        assert all(math.isfinite(v) for v in _floats(verdicts)), (config, verdicts)

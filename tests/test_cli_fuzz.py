"""Fuzz gate for `solitonlab run`, `spectrum`, `entropy` and `gauge-check`:
every config ends, under each of them, in finite output with exit 0, a
field-precise rejection with exit 2, or a numerical failure with exit 3 --
never in a traceback or in non-finite numbers.  Coupled draws reach the
entropy audit of `run` on frames; with a grid or tau = inf they must exit 2.

Few draws reach the remainder verdict (a grid DeTurck run at tau = inf,
analyzed, with no divergence fix, which stalls on these 8^n grids), so
explicit examples pin it, on samples 3 steps apart that leave a 1-step last
interval; none reaches the interval verdicts (t_end at least 3L, L = 1), so
one example runs 60 steps of 0.05 with the gauge stage on."""

import contextlib
import io
import json
import math
import os
import re
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from solitonlab import cli, harness

TWO_PI = repr(2.0 * math.pi)

GRID_8_2 = "kind = grid\ndims = 8,8\nperiod = {p},{p}\nrecipe = perturbed-flat\n".format(p=TWO_PI)
MODELS = {
    "grid 8^2": (GRID_8_2, 0.05),
    # above the CFL bound 0.122: halving recovers dt = 0.5 (to 0.0625), not dt = 40
    "grid 8^2 dt 0.5": (GRID_8_2, 0.5),
    "grid 8^2 dt 40": (GRID_8_2, 40.0),
    "grid 8^3": ("kind = grid\ndims = 8,8,8\nperiod = {p},{p},{p}\nrecipe = perturbed-flat\n"
                 .format(p=TWO_PI), 0.05),
    "round": ("kind = frame\nrecipe = round\ncoefficients = 4,4,4\n", 0.01),
    "berger": ("kind = frame\nrecipe = berger\ncoefficients = 4.4,4.0,3.7\n", 0.01),
    # its volume overflows, so the entropy audit meets a non-finite W
    "round 1e210": ("kind = frame\nrecipe = round\ncoefficients = 1e210,1e210,1e210\n", 0.01),
    # a sphere that collapses within one step: a stage leaves the SPD cone at
    # every dt the halvings reach, so the run exits 3
    "round 0.01": ("kind = frame\nrecipe = round\ncoefficients = 0.01,0.01,0.01\n", 0.1),
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
       seed=st.sampled_from([0, -1]),
       # "unnormalized" is no variant (it is tau = inf): drawn to be rejected
       variant=st.sampled_from(["tau", "unnormalized", "deturck"]),
       tau=st.sampled_from(["0.5", "1.0", "inf"]),
       steps=st.integers(1, 4),
       sample_every=st.sampled_from([1, 3]),
       analyze=st.booleans(),
       reconstruct=st.booleans(),
       fix_divergence=st.booleans(),
       couple=st.booleans())
@example(model="grid 8^2", seed=0, variant="deturck", tau="inf", steps=4, sample_every=3,
         analyze=True, reconstruct=False, fix_divergence=False, couple=False)
@example(model="grid 8^3", seed=0, variant="deturck", tau="inf", steps=4, sample_every=3,
         analyze=True, reconstruct=True, fix_divergence=False, couple=False)
@example(model="grid 8^2", seed=0, variant="deturck", tau="inf", steps=60, sample_every=3,
         analyze=True, reconstruct=True, fix_divergence=False, couple=False)
# a dt above the CFL bound that halving recovers, with the gauge stage on, and
# one it cannot
@example(model="grid 8^2 dt 0.5", seed=0, variant="deturck", tau="inf", steps=4, sample_every=1,
         analyze=True, reconstruct=True, fix_divergence=False, couple=False)
@example(model="grid 8^2 dt 40", seed=0, variant="deturck", tau="inf", steps=1, sample_every=1,
         analyze=True, reconstruct=True, fix_divergence=False, couple=False)
# so small a tau that the stages of `run` overflow, and the factor
# (4 pi tau)^{-3/2} of the coupled audit of `entropy`
@example(model="berger", seed=0, variant="tau", tau="1e-300", steps=2, sample_every=1,
         analyze=False, reconstruct=False, fix_divergence=False, couple=False)
@example(model="berger", seed=0, variant="tau", tau="0.5", steps=4, sample_every=1,
         analyze=False, reconstruct=False, fix_divergence=False, couple=True)
# so large a tau that W's constant-potential sum overflows in the coupled audit
@example(model="berger", seed=0, variant="tau", tau="1e200", steps=2, sample_every=1,
         analyze=False, reconstruct=False, fix_divergence=False, couple=True)
def test_run_ends_in_one_of_three_ways(tmp_path_factory, model, seed, variant, tau, steps,
                                       sample_every, analyze, reconstruct, fix_divergence,
                                       couple):
    text, dt = MODELS[model]
    gauge = ""
    if model.startswith("grid"):  # the perturbation's seed and the gauge stages; frames
        text += f"seed = {seed}\n"  # have none, and a frame that asks for them is rejected
        gauge = (f"[gauge]\nreconstruct = {str(reconstruct).lower()}\n"
                 f"fix_divergence = {str(fix_divergence).lower()}\n")
    config = (f"[model]\n{text}"
              f"[flow]\nvariant = {variant}\ntau = {tau}\ndt = {dt!r}\n"
              f"t_end = {steps * dt!r}\nsample_every = {sample_every}\n"
              f"couple_potential = {str(couple).lower()}\n"
              f"{gauge}[stability]\nanalyze = {str(analyze).lower()}\n"
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
        if couple and (model.startswith("grid") or tau == "inf"):
            assert code == cli.EXIT_VALIDATION, (command, config)
        if code == cli.EXIT_OK:
            assert _finite(command, out.getvalue()), (command, config, out.getvalue())

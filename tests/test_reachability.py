"""Reachability gate: every function defined in ``src/solitonlab`` is entered by
what the program is run for, or is on ``ALLOWLIST`` with its reason.

Under ``sys.setprofile`` (and ``threading.setprofile``, so that a thread
would count too; a forked child, such as the gauge stage's partner or a
radial mu start after the first, keeps the profile and reports what it
entered through a file) the test drives one smoke op
of each of the four benchmark workloads, and every CLI command (``run``,
``spectrum``, ``entropy``, ``gauge-check``, ``plot`` with every quantity) on
a small grid config with gauge reconstruction and the divergence fix and on
the coupled Berger frame config.  A function that none of them enters fails
the test unless it is allowlisted; an allowlisted function that one of them
enters fails it too, so the list can only shrink.
"""

import contextlib
import inspect
import io
import os
import sys
import threading
import types
from pathlib import Path

import solitonlab
from solitonlab import cli, harness

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(solitonlab.__file__).resolve().parent

_ERROR_PATH = "an error-path constructor: only a failing run raises it, and the driven runs succeed"

# name (module.qualname) -> why no run reaches it yet
ALLOWLIST = {
    "flows.reparametrize": "ROADMAP item 3: the shrinking-sphere check of frame runs",
    "stability.jacobian_ode": "ROADMAP item 3: the stability stage of frame runs",
    "stability.FourierOperator.matrix": "ROADMAP item 5: goes when the benchmark's tracer "
                                        "reads the operator's dim",
    "stability.FourierOperator.dim": "ROADMAP item 5: the benchmark's tracer reads it "
                                     "instead of the dense view",
    "geometry.laplacian_scalar": "ROADMAP item 6: the backward potential solve on grids",
    "harness.load_trajectory": "the trajectory store's reader; no command reads a "
                               "trajectory back",
    "errors.GaugeBreakdownError.__init__": _ERROR_PATH,
    "errors.NonConvergenceError.__init__": _ERROR_PATH,
    "errors.GaugeBreakdownError.__reduce__": "an error path: pickled only when a forked "
                                             "gauge partner fails",
}

# The smoke variant, and the grid config's amplitude, put the iterative solves
# far below their tolerances (variant 9: grid mu gradient 8e-12 against 1e-8,
# divergence-fix residual floor 2e-10 against 1e-8; amplitude 0.002: floor
# 7e-12), so no platform's rounding turns a driven run into an error path.
VARIANT = 9

GRID_CONFIG = """\
[model]
kind = grid
dims = 16,16
amplitude = 0.002
[flow]
variant = deturck
dt = 0.02
t_end = 0.1
[gauge]
reconstruct = true
fix_divergence = true
[output]
name = reach-grid
"""

BERGER_CONFIG = """\
[model]
kind = frame
recipe = berger
coefficients = 4.4,4.0,3.7
[flow]
variant = tau
tau = 1.0
dt = 0.001
t_end = 0.05
sample_every = 10
couple_potential = true
[output]
name = reach-berger
"""


def _defined() -> dict:
    """(file, first line, name) -> module.qualname of every function and
    lambda defined in the package (not comprehensions or class bodies)."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if not isinstance(const, types.CodeType):
                    continue
                stack.append(const)
                named = const.co_name == "<lambda>" or not const.co_name.startswith("<")
                if const.co_flags & inspect.CO_OPTIMIZED and named:
                    key = (str(path), const.co_firstlineno, const.co_name)
                    out[key] = f"{path.stem}.{const.co_qualname}"
    return out


def _cli(*argv) -> tuple:
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _commands(config: Path) -> dict:
    """Exit codes of every CLI command on ``config``; ``plot`` reads the
    record that ``run`` wrote."""
    codes = {}
    codes["run"], out = _cli("run", str(config))
    record = out.rsplit("record: ", 1)[-1].strip()
    for command in ("spectrum", "entropy", "gauge-check"):
        codes[command], _ = _cli(command, str(config))
    for quantity in harness.PLOT_QUANTITIES:
        codes[f"plot {quantity}"], _ = _cli("plot", record, quantity)
    return codes


def _drive(tmp_path: Path) -> dict:
    """One smoke op per benchmark workload, then every command on each config."""
    import workloads

    for workload in workloads.WORKLOADS:
        out_dir = tmp_path / workload
        out_dir.mkdir()
        workloads.run_op(workloads.prepare(workload, "smoke", VARIANT), out_dir)
    os.environ[harness.OUTPUT_ENV_VAR] = str(tmp_path / "cli")
    codes = {}
    for name, text in (("grid", GRID_CONFIG), ("berger", BERGER_CONFIG)):
        config = tmp_path / f"{name}.ini"
        config.write_text(text)
        codes[name] = _commands(config)
    return codes


def test_every_function_is_reached_or_allowlisted(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))  # restored afterwards
    # the gauge partner and the radial starts fork as on any host of two CPUs or more
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # a memoized function that earlier tests filled would not be entered again
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "solitonlab":
            for obj in vars(module).values():
                getattr(obj, "cache_clear", lambda: None)()
    entered = {}
    parent, from_children = os.getpid(), tmp_path / "entered-in-children"

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and id(code) not in entered:
            entered[id(code)] = code
            if os.getpid() != parent:  # a forked child: its memory dies with it, a file does not
                with open(from_children, "a") as fh:
                    fh.write(f"{code.co_filename}\0{code.co_firstlineno}\0{code.co_name}\n")

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        codes = _drive(tmp_path)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    # the frame config has no flat background (spectrum, gauge-check), and a
    # grid config cannot evolve the potential (entropy): those exit 2
    assert codes == {
        "grid": {"run": 0, "spectrum": 0, "entropy": 2, "gauge-check": 0,
                 "plot norm": 0, "plot W": 0, "plot defect": 0, "plot energy": 0},
        "berger": {"run": 0, "spectrum": 2, "entropy": 0, "gauge-check": 2,
                   "plot norm": 0, "plot W": 0, "plot defect": 0, "plot energy": 0},
    }
    defined = _defined()
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name)
               for c in entered.values()}
    if from_children.exists():
        for line in from_children.read_text().splitlines():
            filename, firstlineno, name = line.split("\0")
            reached.add((os.path.realpath(filename), int(firstlineno), name))
    assert sorted(set(ALLOWLIST) - set(defined.values())) == [], "allowlisted but not defined"
    unreached = sorted(name for key, name in defined.items()
                       if key not in reached and name not in ALLOWLIST)
    assert unreached == [], f"defined but never reached: {unreached}"
    allowed_but_reached = sorted(name for key, name in defined.items()
                                 if key in reached and name in ALLOWLIST)
    assert allowed_but_reached == [], f"allowlisted but reached: {allowed_but_reached}"

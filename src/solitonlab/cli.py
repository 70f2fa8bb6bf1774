"""Command-line entry point.

Subcommands: run, spectrum, entropy, gauge-check, plot.  Exit codes:
0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import entropy, harness
from .errors import NumericalFailureError, RejectedInputError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _load_config(path: str) -> harness.RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise RejectedInputError(f"config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise RejectedInputError(f"config file {path}: {exc}") from exc
    return harness.parse_config(text)


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    record = harness.run_experiment(cfg)
    print(json.dumps(record.verdicts, indent=2, default=str))
    print(f"record: {Path(record.trajectory_path).parent / 'record.json'}")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    report = harness.spectral_report(_load_config(args.config))
    print(report.to_json())
    return EXIT_OK


def _cmd_entropy(args) -> int:
    cfg = _load_config(args.config)
    cfg.couple_potential = True  # the audit evolves the potential: check it as `run` would
    harness.validate_config(cfg)
    for rec in entropy.monotonicity_report(harness.integrate_flow(cfg)):
        parts = [f"t={rec.t:.6g}", f"W={rec.W:.12g}", f"defect_l2={rec.defect_l2:.6g}",
                 f"dWdt_numeric={rec.dWdt_numeric:.6g}",
                 f"dWdt_formula={rec.dWdt_formula:.6g}", f"monotone={rec.monotone}"]
        print("  ".join(parts))
    return EXIT_OK


def _cmd_gauge_check(args) -> int:
    cfg = _load_config(args.config)
    harness.flat_background(cfg)  # reject a frame config before its flow is integrated
    disc, energy = harness.gauge_reconstruction(cfg, harness.integrate_flow(cfg))
    print(f"max sup-discrepancy (tau-flow pullback vs deturck): {disc:.6e}")
    if energy:
        print(f"final gauge energy: {energy[-1].E:.6e} (sup density {energy[-1].e_sup:.6e})")
    return EXIT_OK


def _cmd_plot(args) -> int:
    record_path = Path(args.record)
    try:
        data = json.loads(record_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise RejectedInputError(f"record file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise RejectedInputError(f"record file {record_path}: {exc}") from exc
    try:
        record = harness.RunRecord(**data)
    except TypeError as exc:  # not an object, or missing or unknown keys
        raise RejectedInputError(f"record file {record_path}: {exc}") from exc
    if isinstance(record.trajectory_path, str):
        # the run directory may have been copied or moved: its index sits beside the record
        record.trajectory_path = str(record_path.parent / Path(record.trajectory_path).name)
    path = harness.emit_plotdata(record, args.quantity)
    print(path)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="solitonlab",
                                     description="desk-scale geometric flow laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", _cmd_run), ("spectrum", _cmd_spectrum),
                     ("entropy", _cmd_entropy), ("gauge-check", _cmd_gauge_check)):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.set_defaults(fn=fn)
    p = sub.add_parser("plot")
    p.add_argument("record")
    p.add_argument("quantity", choices=harness.PLOT_QUANTITIES)
    p.set_defaults(fn=_cmd_plot)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except RejectedInputError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalFailureError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

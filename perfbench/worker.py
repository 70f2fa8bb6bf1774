"""One benchmark process: set up, warm up, then run a closed loop of ops.

Started by ``run.py`` with the BLAS thread count pinned. Prints one JSON line
with every op's wall and CPU time, bytes written and failed checks, plus the
moment its set-up finished (``time.monotonic``: CLOCK_MONOTONIC on Linux,
which all processes share), so the parent can time interpreter start,
imports, config parsing, model building and the warm-up op from outside.
Set-up workers also time a fixed calibration kernel after set-up, and the
measuring worker before each op and after the last, outside every timed
interval.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

SETUP_CALIBRATIONS = 2


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    import workloads as W  # imports solitonlab, numpy and scipy: part of set-up

    reference = W.load_reference()
    variants = W.run_variants(args.workload, args.size, args.seed)
    work = Path(tempfile.mkdtemp(prefix="worker-", dir=args.workdir))
    try:
        warmup = _run(W, W.prepare(args.workload, "smoke", variants[0]), work, reference)
        cycle = [W.prepare(args.workload, args.size, v) for v in variants]
        result = {"ready": time.monotonic(), "warmup": warmup}
        if args.mode == "setup":
            result["calibration_s"] = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        elif args.mode == "measure":
            result.update(_closed_loop(W, cycle, args, work, reference))
        elif args.mode == "trace":
            result.update(_traced_loop(W, cycle, args, work, reference))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["env"] = _environment()
    print(json.dumps(result))


def _run(W, inputs, work: Path, reference, tracer=None) -> dict:
    """Run and check one op in a fresh output directory, then delete it."""
    out_dir = work / "op"
    out_dir.mkdir()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            out = W.run_op(inputs, out_dir)
        else:
            out = tracer.trace(W.run_op, inputs, out_dir)
    except Exception as exc:  # an op that raises is a failed op, not a lost run
        traceback.print_exc(file=sys.stderr)
        out = exc
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    nbytes = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    shutil.rmtree(out_dir)
    if isinstance(out, Exception):
        raised = f"raised {type(out).__name__}"
        res = {"failed_checks": [raised], "unexpected": [raised]}
    else:
        res = W.check(inputs, out, reference)
    return {"variant": inputs["variant"], "wall_s": wall, "cpu_s": cpu, "bytes": nbytes,
            "failed_checks": res["failed_checks"], "unexpected": res["unexpected"]}


def _closed_loop(W, cycle, args, work, reference) -> dict:
    """One client running whole cycles of the run's inputs: the next op
    starts when the previous one ends, after one calibration. After the
    first cycle, no cycle starts that would end past ``--seconds`` (by the
    last cycle's duration)."""
    ops, calibration, t0 = [], [], time.perf_counter()
    while True:
        c0 = time.perf_counter()
        for inputs in cycle:
            calibration.append(calibrate())
            ops.append(_run(W, inputs, work, reference))
        now = time.perf_counter()
        if (now - t0) + (now - c0) > args.seconds:
            calibration.append(calibrate())
            return {"ops": ops, "calibration_s": calibration}


def _traced_loop(W, cycle, args, work, reference) -> dict:
    """Whole cycles of pairs, an untraced and a traced op on the same input:
    every run traces the same inputs, so the per-op counts repeat exactly,
    and each pair gives the tracing overhead."""
    import tracer as T

    untraced, traced, layers = [], [], []
    t0 = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        for inputs in cycle:
            untraced.append(_run(W, inputs, work, reference))
            tr = T.Tracer()
            traced.append(_run(W, inputs, work, reference, tracer=tr))
            layers.append(T.op_metrics(tr.spans))
        now = time.perf_counter()
        if (now - t0) + (now - c0) > args.seconds:
            return {"ops": untraced + traced, "untraced": untraced, "traced": traced,
                    "layers": layers}


def calibrate() -> float:
    """Seconds a fixed small-array numpy kernel takes now.

    It runs no solitonlab code, so only the machine's speed moves it. Like
    the ops, it is bound by interpreter and ufunc overhead on small arrays;
    over a run its median tracks the slow drift of the ops' speed.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 256).reshape(16, 16)
    t0 = time.perf_counter()
    for _ in range(3000):
        y = np.sin(x) * x + np.roll(x, 1, axis=0)
        x = y - y.mean()
    return time.perf_counter() - t0


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


if __name__ == "__main__":
    sys.exit(main())

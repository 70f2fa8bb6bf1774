"""solitonlab benchmark: time to verdict of four pipeline workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload readme-decay --seed 0 --seconds 20 --trace 0

Each workload is one process running a closed loop (one client; the next op
starts when the previous one ends). ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs untraced/traced op pairs and
reports the per-layer metrics. Every op is checked against the fingerprints
in ``perfbench/reference.json`` and against invariants of the lab's
acceptance criteria. The last stdout line is the JSON result; the lines
before it give each metric with its unit, sample count and the machine.

Workers run with one BLAS/OpenMP thread: with two, the first dense ``eigh``
after an idle stretch sometimes took ten times its steady time.

The timings are scaled to a reference machine speed. On a shared host the
speed of the same code drifts by up to a quarter over tens of minutes, more
than the bounds allow, so the workers time a fixed numpy kernel that runs no
solitonlab code (``worker.calibrate``) after set-up, before each op and
after the last, and
every timing is multiplied by ``CALIBRATION_REFERENCE_S`` over the run's
median kernel time. A change to the program cannot move the kernel, so a
speed-up or slow-down of the program shows in full. The unscaled values are
printed on the lines before the result.
``--smoke`` runs the smallest size with a single op and set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0
SETUP_SAMPLES = 5
# median calibration kernel time on the 2-vCPU Xeon VM the benchmark was
# defined on: timings read as seconds at that machine's speed
CALIBRATION_REFERENCE_S = 0.12
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def spawn(root: Path, args, mode: str, deadline: float) -> tuple:
    """Run one worker to completion; returns (set-up seconds, its result)."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src")] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    workdir = root / ".perfbench"
    workdir.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--workdir", str(workdir)]
    # a smoke run is one op (one pair when tracing) at the smallest size
    cmd += (["--size", "smoke", "--seconds", "0"] if args.smoke
            else ["--seconds", str(args.seconds)])
    start = time.monotonic()  # CLOCK_MONOTONIC: comparable with the worker's reading
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        fail(f"{mode} worker exceeded the {DEADLINE_S:.0f} s deadline")
    finally:  # also on SIGTERM: no worker outlives this process
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        fail(f"{mode} worker exited with code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return result["ready"] - start, result


def tail_percentile(values) -> tuple:
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n <= 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def main() -> None:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (root / "src" / "solitonlab" / "__init__.py").is_file():
        fail(f"no solitonlab sources under {root / 'src'}; run from a source checkout")
    deadline = time.monotonic() + DEADLINE_S

    # setup_s is the median of SETUP_SAMPLES set-ups, the measuring worker's
    # own among them, taken before and after it so they sample the machine
    # across the whole run
    main_mode = "trace" if args.trace else "measure"
    half = ["setup"] * (SETUP_SAMPLES // 2)
    modes = [main_mode] if args.smoke or args.trace else half + [main_mode] + half
    setups, results = [], []
    for mode in modes:
        setup, res = spawn(root, args, mode, deadline)
        setups.append(setup)
        results.append(res)
    shutil.rmtree(root / ".perfbench", ignore_errors=True)
    main_res = results[modes.index(main_mode)]

    ops = main_res["ops"]
    checked = ops + [r["warmup"] for r in results]
    if args.trace:
        declared = spec["per_layer"]
        layers = main_res["layers"]
        values = {m["name"]: statistics.median(op[m["name"]] for op in layers)
                  for m in declared if m["name"] in layers[0]}
        values["trace.overhead_ratio"] = (
            statistics.median(o["wall_s"] for o in main_res["traced"])
            / statistics.median(o["wall_s"] for o in main_res["untraced"]))
    else:
        declared = spec["end_to_end"]
        raw = {
            "time_to_verdict_s": statistics.median(o["wall_s"] for o in ops),
            "cpu_per_op_s": statistics.median(o["cpu_s"] for o in ops),
            "setup_s": statistics.median(setups),
        }
        calibration = statistics.median(c for r in results for c in r["calibration_s"])
        speed = CALIBRATION_REFERENCE_S / calibration
        values = {name: t * speed for name, t in raw.items()}
        values.update({
            "peak_rss_mb": main_res["peak_rss_mb"],
            "output_mb": statistics.median(o["bytes"] for o in ops) / 1e6,
        })
    names = {m["name"] for m in declared}
    if names != set(values):
        fail(f"metrics {sorted(names ^ set(values))} differ from BENCHMARK.json")

    failed = [o for o in ops if o["failed_checks"]]
    unexpected = sorted({c for o in checked for c in o["unexpected"]})
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}:"
          f" {len(ops)} ops, {len(failed)} failed, set-ups {[round(s, 3) for s in setups]}")
    print("env " + json.dumps(main_res["env"]))
    for o in failed:
        print(f"failed op: variant {o['variant']}: {', '.join(o['failed_checks'])}")
    if not args.trace:
        walls = [o["wall_s"] for o in ops]
        tail = tail_percentile(walls)
        print(f"time_to_verdict_s samples {len(walls)}: "
              + (f"p{tail[0]:.1f} = {tail[1] * speed:.4f} s" if tail else
                 "no tail percentile (needs more than 20 ops)"))
        print(f"calibration kernel {calibration:.4f} s (median of "
              f"{sum(len(r['calibration_s']) for r in results)}), speed factor {speed:.4f}; "
              "unscaled: " + ", ".join(f"{k} = {v:.6g} s" for k, v in raw.items()))
    for m in declared:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))


if __name__ == "__main__":
    main()

"""Regenerate ``reference.json``: the fingerprint of every workload, size and
input variant at the current commit.

    python3 perfbench/make_reference.py

Run it from the root of a source checkout, only when a change to the
program's numbers is intended, and commit the result together with that
change. Fingerprints are computed with one BLAS thread, as the benchmark
runs them. Each input also records which of its checks fail; only checks
named in ``workloads.KNOWN_DEFECTS`` may, and any other failure stops the
script without writing the file.
"""

import os
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path.cwd() / "src"))

import json  # noqa: E402

import workloads as W  # noqa: E402


def main() -> None:
    table = {}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for workload in W.WORKLOADS:
            for size in ("smoke", "full"):
                for variant in range(W.N_VARIANTS):
                    inputs = W.prepare(workload, size, variant)
                    out_dir = Path(tmp) / f"{workload}-{size}-{variant}"
                    out_dir.mkdir()
                    out = W.run_op(inputs, out_dir)
                    fp = W.fingerprint(workload, out)
                    bad = [k for k, ok in W.invariants(inputs, out).items() if not ok]
                    print(workload, size, variant, fp, "failed:", bad, flush=True)
                    unknown = [k for k in bad if k not in W.KNOWN_DEFECTS]
                    if unknown:
                        sys.exit(f"{workload} {size} variant {variant} fails {unknown}")
                    table.setdefault(workload, {}).setdefault(size, {})[str(variant)] = {
                        "fingerprint": fp, "known_failures": bad}
    W.REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

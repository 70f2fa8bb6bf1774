"""Smoke test of the benchmark: every workload at its smallest size, one op.

    python3 -m pytest perfbench/test_smoke.py

Asserts on metric names, units and the output checks, never on timings.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric_and_passes_its_checks(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert result["correct"] is True
    assert result["attempted"] == (2 if trace else 1)


def test_fingerprint_check_flags_drift(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setenv("SOLITONLAB_OUTPUT", str(tmp_path))  # restored after the op sets it
    import workloads as W

    inputs = W.prepare("spectrum-32", "smoke", 3)
    out = W.run_op(inputs, tmp_path)
    reference = W.load_reference()
    assert W.check(inputs, out, reference)["failed_checks"] == []
    drifted = json.loads(json.dumps(reference))
    drifted["spectrum-32"]["smoke"]["3"]["fingerprint"]["gap"] *= 1.0 + 1e-12
    assert W.check(inputs, out, drifted)["failed_checks"] == ["fingerprint:gap"]


def test_every_seed_runs_the_same_inputs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads as W

    for workload in W.WORKLOADS:
        pool = W.SIZES[workload]["full"]["pool"]
        for seed in range(2 * pool):
            cycle = W.run_variants(workload, "full", seed)
            assert sorted(cycle) == list(range(pool))
            assert cycle[0] == seed % pool


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_known_failure_is_expected_only_on_its_listed_input(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setenv("SOLITONLAB_OUTPUT", str(tmp_path))
    import workloads as W

    inputs = W.prepare("entropy-audit", "smoke", 3)
    out = W.run_op(inputs, tmp_path)
    reference = W.load_reference()
    assert W.check(inputs, out, reference) == {"failed_checks": ["grid_mu_valid"],
                                               "unexpected": []}
    unlisted = json.loads(json.dumps(reference))
    unlisted["entropy-audit"]["smoke"]["3"]["known_failures"] = []
    assert W.check(inputs, out, unlisted)["unexpected"] == ["grid_mu_valid"]

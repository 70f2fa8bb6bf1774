"""Config parsing, persistence, the experiment pipeline, plot data, CLI."""

import dataclasses
import hashlib
import importlib.util
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
import zipfile
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

from solitonlab import cli, entropy, flows, gauge, geometry, harness, stability
from solitonlab.errors import (GaugeBreakdownError, InsufficientDataError, NonConvergenceError,
                               NumericalFailureError, RejectedInputError, StepRejectedError)
from solitonlab.geometry import FrameModel, GridModel
from solitonlab.harness import RunConfig

TWO_PI = 2.0 * np.pi


GRID_CONFIG = """
[model]
kind = grid
dims = 8,8
period = 6.283185307179586,6.283185307179586
recipe = perturbed-flat
amplitude = 0.01
seed = 3

[flow]
variant = deturck
tau = inf
dt = 0.01
t_end = 0.05

[stability]
analyze = true

[output]
name = smoke
"""


# ---------------------------------------------------------------------------
# config parsing


def test_parse_defaults_and_round_trip():
    cfg = harness.parse_config(GRID_CONFIG)
    assert cfg.kind == "grid"
    assert cfg.dims == (8, 8)
    assert np.isinf(cfg.tau)
    assert cfg.sample_every == 1  # untouched default
    text = harness.serialize_config(cfg)
    again = harness.parse_config(text)
    assert again == cfg
    assert harness.serialize_config(again) == text
    assert again.digest() == cfg.digest()


def test_parse_rejects_unknown_section_and_key():
    with pytest.raises(RejectedInputError, match="mystery"):
        harness.parse_config("[mystery]\nx = 1\n")
    with pytest.raises(RejectedInputError, match="flow.warp"):
        harness.parse_config("[flow]\nwarp = 9\n")


@pytest.mark.parametrize("snippet,field", [
    ("[flow]\ndt = -0.1\n", "flow.dt"),
    ("[flow]\ndt = soon\n", "flow.dt"),
    ("[flow]\ndt = 0.3\nt_end = 1.0\n", "flow.t_end"),
    ("[flow]\nt_end = inf\n", "flow.t_end"),
    ("[flow]\ndt = 1e-310\nt_end = 1.0\n", "flow.t_end"),
    ("[flow]\ntau = 0\n", "flow.tau"),
    ("[flow]\nvariant = sideways\n", "flow.variant"),
    ("[flow]\nvariant = unnormalized\n", "flow.variant"),
    ("[model]\nkind = frame\nrecipe = berger\n"
     "[flow]\nvariant = unnormalized\ntau = 1.0\ncouple_potential = true\n", "flow.variant"),
    ("[flow]\ncouple_potential = maybe\n", "flow.couple_potential"),
    ("[model]\nkind = sphere\n", "model.kind"),
    ("[model]\ndims = 8\n", "model.dims"),
    ("[model]\ndims = 2,2\n", "model.dims"),
    ("[model]\ndims = 6,6\n", "model.dims"),
    ("[model]\ndims = 8,8,8,8\nperiod = 6.0,6.0,6.0,6.0\n", "model.dims"),
    ("[model]\ndims = 1000000,1000000\n", "model.dims"),  # more than 2^20 nodes
    ("[model]\ndims = 1025,1024\n", "model.dims"),
    ("[model]\ndims = 102,102,102\nperiod = 6.0,6.0,6.0\n", "model.dims"),
    ("[flow]\ncouple_potential = true\n", "flow.couple_potential"),
    ("[flow]\ntau = 1.0\ncouple_potential = true\n", "flow.couple_potential"),
    ("[model]\nkind = frame\nrecipe = berger\n"
     "[flow]\nvariant = tau\ntau = inf\ncouple_potential = true\n", "flow.couple_potential"),
    ("[model]\namplitude = 0.9\n", "model.amplitude"),
    ("[model]\nkind = frame\nrecipe = berger\ncoefficients = 1,-1,1\n",
     "model.coefficients"),
    ("[model]\nkind = frame\nrecipe = berger\n[flow]\nvariant = deturck\n", "flow.variant"),
    ("[model]\nkind = frame\nrecipe = berger\ncoefficients = nan,1,1\n",
     "model.coefficients"),
    ("[model]\nkind = frame\nrecipe = berger\ncoefficients = inf,1,1\n",
     "model.coefficients"),
    ("[model]\nperiod = 0,6.0\n", "model.period"),
    ("[model]\nperiod = inf,6.0\n", "model.period"),
    ("[model]\nperiod = nan,6.0\n", "model.period"),
    ("[model]\nperiod = -6.0,6.0\n", "model.period"),
    ("[model]\ndims = 8,8,8\nperiod = 6.0,6.0\n", "model.period"),
    ("[model]\nperiod = 6.0,6.0,6.0\n", "model.period"),
    ("[stability]\neps_neutral = -1\n", "stability.eps_neutral"),
    ("[stability]\neps_neutral = nan\n", "stability.eps_neutral"),
    ("[stability]\neps_neutral = inf\n", "stability.eps_neutral"),
    ("[stability]\nbeta = 1\n", "stability.beta"),
    ("[stability]\nbeta = -3\n", "stability.beta"),
    ("[stability]\nbeta = nan\n", "stability.beta"),
    ("[stability]\nbeta = inf\n", "stability.beta"),
    ("[stability]\ninterval_length = inf\n", "stability.interval_length"),
    ("[model]\nseed = -1\n", "model.seed"),
    ("[model]\nkind = frame\nrecipe = round\ncoefficients = 1,2,3\n", "model.coefficients"),
    ("[model]\nkind = frame\nrecipe = berger\n[gauge]\nreconstruct = true\n",
     "gauge.reconstruct"),
    ("[model]\nkind = frame\nrecipe = berger\n[gauge]\nfix_divergence = true\n",
     "gauge.fix_divergence"),
    ("[output]\nname = a\0b\n", "output.name"),
    ("[output]\nroot = runs\0\n", "output.root"),
    ("[output]\nname = ../../escaped\n", "output.name"),
    ("[output]\nname = runs/sub\n", "output.name"),
    ("[model]\nrecipe = round\n", "model.recipe"),
    ("[model]\nkind = frame\nrecipe = perturbed-flat\n", "model.recipe"),
    ("[flow]\nsample_every = 0\n", "flow.sample_every"),
    ("[flow\ndt = 0.1\n", "config syntax"),
])
def test_field_precise_validation(snippet, field):
    with pytest.raises(RejectedInputError, match=field.replace(".", r"\.")) as err:
        harness.parse_config(snippet)
    if field in REMOVED_KEYS:  # the stability stage derives them: no such key
        assert str(err.value) == f"{field}: unknown key"


# keys of the stability stage whose values it now derives: eps_neutral from
# the symbol, beta from the gap, interval_length as stability.INTERVAL_LENGTH
REMOVED_KEYS = ("stability.eps_neutral", "stability.beta", "stability.interval_length")


@pytest.mark.parametrize("field", REMOVED_KEYS)
@pytest.mark.parametrize("command", ["run", "spectrum"])
def test_a_removed_stability_key_exits_2_as_unknown(tmp_path, monkeypatch, capsys,
                                                    command, field):
    """A config that still sets eps_neutral, beta or interval_length is
    rejected as an unknown key before any stage runs."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    key = field.split(".")[1]
    cfg = _write_config(tmp_path, GRID_CONFIG.replace("analyze = true",
                                                      f"analyze = true\n{key} = 1.5"))
    assert cli.main([command, cfg]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"validation error: {field}: unknown key\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.ini"]


THREE_D_CONFIG = ("[model]\ndims = 8,8,8\nperiod = 6.0,6.5,7.0\n[flow]\ntau = 2.5\n")
BERGER_AUDIT = RunConfig(kind="frame", recipe="berger", coefficients=(4.4, 4.0, 3.7),
                         variant="tau", tau=1.0, dt=1e-3, t_end=0.05, sample_every=10,
                         couple_potential=True, analyze=False, name="frame-audit")


def _format_hash(cfgs):
    """One hash over the digests and serialized texts of ``cfgs``."""
    h = hashlib.sha256()
    for cfg in cfgs:
        h.update(cfg.digest().encode())
        h.update(harness.serialize_config(cfg).encode())
    return h.hexdigest()[:16]


def _perfbench_configs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cfgs = [harness.parse_config(workloads.config_text(w, size, v))
            for w in workloads.WORKLOADS for size in ("full", "smoke")
            for v in range(workloads.N_VARIANTS)]
    return cfgs + [RunConfig(dims=(n, n), seed=v) for n in (8, 16, 32)
                   for v in range(workloads.N_VARIANTS)]


def test_config_text_and_digest_are_stable():
    """``serialize_config`` and ``RunConfig.digest`` give what they gave when
    the format was spelled out field by field, so existing run directories
    keep their names and their ``config.ini``."""
    assert harness.serialize_config(harness.parse_config(GRID_CONFIG)) == (
        "[model]\nkind = grid\ndims = 8,8\n"
        "period = 6.283185307179586,6.283185307179586\nrecipe = perturbed-flat\n"
        "amplitude = 0.01\nseed = 3\ncoefficients = 1.0,1.0,1.0\n"
        "[flow]\nvariant = deturck\ntau = inf\ndt = 0.01\nt_end = 0.05\n"
        "sample_every = 1\ncouple_potential = false\n"
        "[gauge]\nreconstruct = false\nfix_divergence = false\n"
        "[stability]\nanalyze = true\n[output]\nroot = runs\nname = smoke\n")
    expected = {  # name: (config text, digest, _format_hash)
        "grid": (GRID_CONFIG, "0183ebc5b7891062", "5a8a77310efa3823"),
        "readme": (README_CONFIG, "430825f4e2b09ccb", "652bfd0b3227c159"),
        "3-D": (THREE_D_CONFIG, "ccea1c006d06b801", "31da30cdbd4447dc"),
        "empty": ("", "929a8fe74d1a6ce1", "28f7f1ad9053b82e"),
    }
    for name, (text, digest, text_hash) in expected.items():
        cfg = harness.parse_config(text)
        assert (cfg.digest(), _format_hash([cfg])) == (digest, text_hash), name
    assert (BERGER_AUDIT.digest(), _format_hash([BERGER_AUDIT])) == (
        "40273bf2c407c2f5", "e39492ea032f918c")
    bench = _perfbench_configs()
    assert len(bench) == 110 and _format_hash(bench) == "a881888d3636fa10"


def test_grid_config_without_a_period_is_a_2pi_torus(tmp_path, capsys):
    """A grid config that gives no period has period 2 pi along every axis of
    its dims: a config holding only ``dims = 8,8,8`` runs the spectrum of the
    8^3 torus (exit 0, the six metric components' constant modes neutral)."""
    assert harness.parse_config("[model]\ndims = 8,8,8\n").period == (2.0 * np.pi,) * 3
    assert harness.parse_config("[model]\ndims = 8,8\n").period == RunConfig().period
    assert cli.main(["spectrum", _write_config(tmp_path, "[model]\ndims = 8,8,8\n")]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["counts"]["neutral"] == 6


def test_schema_lists_every_config_field_once():
    keys = [key for keys in harness._SCHEMA.values() for key in keys]
    assert keys == [f.name for f in dataclasses.fields(RunConfig)]


# ---------------------------------------------------------------------------
# model construction


def test_build_model_is_seed_deterministic():
    cfg = harness.parse_config(GRID_CONFIG)
    a = harness.build_model(cfg)
    b = harness.build_model(cfg)
    assert np.array_equal(a.g, b.g)
    cfg2 = RunConfig(**{**cfg.__dict__, "seed": cfg.seed + 1})
    c = harness.build_model(cfg2)
    assert not np.array_equal(a.g, c.g)
    # amplitude bounds the perturbation exactly
    flat = harness.flat_background(cfg)
    assert np.isclose(np.max(np.abs(a.g - flat.g)), cfg.amplitude)


def test_build_frame_models():
    cfg = RunConfig(kind="frame", recipe="berger", coefficients=(1.2, 1.0, 0.7))
    m = harness.build_model(cfg)
    assert isinstance(m, FrameModel)
    assert np.allclose(m.a, (1.2, 1.0, 0.7))
    cfg = RunConfig(kind="frame", recipe="round", coefficients=(4.0, 4.0, 4.0))
    assert np.allclose(harness.build_model(cfg).a, 4.0)


# ---------------------------------------------------------------------------
# persistence


def _compression(arrays_path) -> dict:
    """The zip compression method of each member of an array file."""
    with zipfile.ZipFile(arrays_path) as zf:
        return {info.filename: info.compress_type for info in zf.infolist()}


def test_trajectory_round_trip_frame(tmp_path):
    """A coupled Berger run's store holds its metrics alone, deflated, and
    loads back bitwise: each recorded W and defect is the entropy record of
    the loaded state at the loaded tau, so the audit needs nothing the store
    lacks."""
    m = FrameModel.su2(a=(4.4, 4.0, 3.7))
    traj = flows.run_flow(m, "tau", tau=2.0 / 3.0, dt=1e-2, t_end=0.05,
                          couple_f=True)
    path = tmp_path / "traj.jsonl"
    harness.save_trajectory(traj, path)
    with np.load(tmp_path / "traj.npz") as npz:
        assert npz.files == ["a"]
        assert np.array_equal(_bits(npz["a"]), _bits(traj.metric_series()))
    assert _compression(tmp_path / "traj.npz") == {"a.npy": zipfile.ZIP_DEFLATED}
    back = harness.load_trajectory(path)
    assert back.convention == traj.convention and back.tau == traj.tau
    assert len(back.states) == len(traj.states)
    for s0, s1 in zip(traj.states, back.states):
        assert np.array_equal(s0.model.a, s1.model.a)
        assert s0.t == s1.t
    assert back.diagnostics == traj.diagnostics
    for s, diag in zip(back.states, back.diagnostics):
        rec = entropy.entropy_record(s.model, back.tau, s.t)
        assert (rec.W, rec.defect_l2) == (diag["entropy"]["W"], diag["entropy"]["defect_l2"])
    inf_tau = flows.run_flow(m, "tau", np.inf, dt=1e-2, t_end=0.02)
    harness.save_trajectory(inf_tau, path)
    assert harness.load_trajectory(path).tau == np.inf


def test_trajectory_round_trip_grid(tmp_path):
    cfg = harness.parse_config(GRID_CONFIG)
    model0 = harness.build_model(cfg)
    h = harness.flat_background(cfg)
    traj = flows.run_flow(model0, "deturck", np.inf, 0.01, 0.03, background=h)
    path = tmp_path / "traj.jsonl"
    harness.save_trajectory(traj, path)
    back = harness.load_trajectory(path)
    for s0, s1 in zip(traj.states, back.states):
        assert np.array_equal(s0.model.g, s1.model.g)
        assert s1.model.dims == s0.model.dims


def test_trajectory_round_trip_grid_potential(tmp_path):
    """A grid state's time and the run's tau come back bitwise, and the array
    file holds the metrics alone: a potential is not stored."""
    cfg = harness.parse_config(GRID_CONFIG)
    model = harness.build_model(cfg)
    traj = flows.Trajectory(convention="tau", tau=2.0 / 3.0)
    for t in (0.0, 0.1 / 3.0, np.pi):
        traj.append(flows.FlowState(t=t, model=model), {})
    path = tmp_path / "traj.jsonl"
    harness.save_trajectory(traj, path)
    back = harness.load_trajectory(path)
    assert back.tau == traj.tau
    for s0, s1 in zip(traj.states, back.states, strict=True):
        assert np.array_equal(s0.model.g, s1.model.g)
        assert s0.t == s1.t
    with np.load(tmp_path / "traj.npz") as npz:
        assert npz.files == ["g"]


def _bits(series):
    return series.view(np.int64)


def _grid_config(dims, variant, tau, dt="0.01", t_end="0.03"):
    return (f"[model]\nkind = grid\ndims = {dims}\nseed = 3\n[flow]\nvariant = {variant}\n"
            f"tau = {tau}\ndt = {dt}\nt_end = {t_end}\n[stability]\nanalyze = false\n")


@pytest.mark.parametrize("config", [
    _grid_config("8,8", "tau", "inf"),
    _grid_config("8,8", "tau", "0.5"),
    _grid_config("8,8", "deturck", "inf"),
    _grid_config("8,8", "deturck", "0.5"),
    _grid_config("8,8,8", "tau", "inf"),
    _grid_config("8,8,8", "tau", "0.5"),
    _grid_config("8,8,8", "deturck", "inf"),
    _grid_config("8,8,8", "deturck", "0.5"),
    _grid_config("8,8", "deturck", "inf", dt="0.5", t_end="4"),
], ids=["2d-tau-inf", "2d-tau-0.5", "2d-deturck-inf", "2d-deturck-0.5", "3d-tau-inf",
        "3d-tau-0.5", "3d-deturck-inf", "3d-deturck-0.5", "2d-deturck-dt-0.5-halved"])
def test_every_stored_flow_metric_is_exactly_symmetric(tmp_path, monkeypatch, config):
    """A flow keeps g_ij and g_ji equal bit for bit, in 2-D and 3-D, on
    either variant, at finite and infinite tau, and through the halved steps
    of an 8^2 run at dt 0.5; so a run stores each metric's n(n+1)/2 upper
    triangle, and every state loads back with the flow's int64 view."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    cfg = harness.parse_config(config)
    traj = harness.integrate_flow(cfg)
    bits = _bits(traj.metric_series())
    assert np.array_equal(bits, np.swapaxes(bits, -1, -2))
    record = harness.run_experiment(cfg)
    n = len(cfg.dims)
    with np.load(Path(record.trajectory_path).with_suffix(".npz")) as npz:
        assert npz["g"].shape == (len(traj.states),) + cfg.dims + (n * (n + 1) // 2,)
    back = harness.load_trajectory(record.trajectory_path)
    assert np.array_equal(_bits(back.metric_series()), bits)
    assert [s.t for s in back.states] == [s.t for s in traj.states]


def _flat_trajectory(g_of):
    """A 3-state tau trajectory on the flat 8^2 grid whose state k has the
    metric ``g_of(k, flat metric)``."""
    flat = GridModel.flat(2, (8, 8))
    traj = flows.Trajectory(convention="tau", tau=1.0)
    for k in range(3):
        traj.append(flows.FlowState(t=0.1 * k, model=flat.with_metric(g_of(k, flat.g.copy()))),
                    {})
    return traj


def _scaled(k, g):
    g[..., 0, 0] += 0.01 * k
    return g


def _asymmetric(k, g):
    g = _scaled(k, g)
    if k == 2:
        g[3, 4, 0, 1] += 1e-9  # within validate_spd's 1e-5 symmetry tolerance
    return g


def _signed_zero(k, g):
    if k == 1:
        g[5, 2, 1, 0] = -0.0  # g_01 stays +0.0: equal as floats, not as bits
    return g


@pytest.mark.parametrize("g_of,layout", [
    (_scaled, (3,)),
    (_asymmetric, (2, 2)),
    (_signed_zero, (2, 2)),
], ids=["symmetric-triangles", "asymmetric-within-tolerance", "signed-zero-pair"])
def test_grid_store_round_trips_bitwise_in_either_layout(tmp_path, g_of, layout):
    """A store of exactly symmetric metrics holds their triangles; one whose
    metrics are not all symmetric bit for bit (an off-diagonal pair 1e-9
    apart, or -0.0 facing +0.0) keeps the full matrices.  Either is one
    deflated member that ``np.load`` reads back with the int64 view of the
    triangles or the matrices, and each loads back with equal int64 views."""
    traj = _flat_trajectory(g_of)
    path = tmp_path / "traj.jsonl"
    harness.save_trajectory(traj, path)
    series = traj.metric_series()
    stored = series[..., (0, 0, 1), (0, 1, 1)] if layout == (3,) else series
    with np.load(tmp_path / "traj.npz") as npz:
        assert npz.files == ["g"] and npz["g"].shape == (3, 8, 8) + layout
        assert np.array_equal(_bits(npz["g"]), _bits(stored))
    assert _compression(tmp_path / "traj.npz") == {"g.npy": zipfile.ZIP_DEFLATED}
    back = harness.load_trajectory(path)
    assert np.array_equal(_bits(back.metric_series()), _bits(traj.metric_series()))
    assert not back.states[1].model.validate  # loading re-validates no metric


def test_store_of_the_full_layout_written_before_triangles_loads_bitwise(tmp_path):
    """An older store holds every grid metric as its full matrix, symmetric
    ones too: it loads as it did."""
    traj = _flat_trajectory(_scaled)
    path = tmp_path / "traj.jsonl"
    harness.save_trajectory(traj, path)
    np.savez(tmp_path / "traj.npz", g=traj.metric_series())
    back = harness.load_trajectory(path)
    assert np.array_equal(_bits(back.metric_series()), _bits(traj.metric_series()))


@pytest.mark.parametrize("shape", [(3, 8, 8, 4), (3, 8, 8, 2), (3, 8, 8, 2, 3), (3, 8, 8, 6),
                                   (3, 8, 8)], ids=lambda s: "x".join(map(str, s)))
def test_grid_arrays_of_neither_layout_are_rejected_naming_the_array_file(tmp_path, shape):
    """A ``g`` whose trailing shape fits the header's dims neither as
    triangles nor as matrices is a fault of the array file, not of the
    header: it is rejected naming the array file."""
    traj = _flat_trajectory(_scaled)
    path = tmp_path / "traj.jsonl"
    harness.save_trajectory(traj, path)
    arrays = tmp_path / "traj.npz"
    np.savez(arrays, g=np.ones(shape))
    with pytest.raises(RejectedInputError, match=re.escape(
            f"{arrays}: 'g' of shape {shape} holds neither the triangles (8, 8, 3) nor the "
            f"matrices (8, 8, 2, 2) of the grid of {path}")):
        harness.load_trajectory(path)


ROOT = Path(__file__).resolve().parent.parent
README_CONFIG = (ROOT / "examples.ini").read_text()


def test_examples_ini_is_the_readme_config():
    """The quick start's ``examples.ini`` is the README's minimal config."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert block == README_CONFIG
    assert "solitonlab run examples.ini" in readme


def test_readme_trajectory_keeps_its_arrays_out_of_the_index(tmp_path, monkeypatch):
    """The README run's index holds scalars only; its 201 metrics sit in the
    array file as one float64 stack of their upper triangles (g_00, g_01,
    g_11): the flow keeps every metric exactly symmetric.  The file is
    deflated, and saving the trajectory again holds less memory at its peak
    than the stack it writes: its rows are streamed, one state at a time."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    record = harness.run_experiment(harness.parse_config(README_CONFIG))
    index = Path(record.trajectory_path)
    lines = [json.loads(line) for line in index.read_text().splitlines()]
    assert lines[0] == {"kind": "header", "convention": "deturck", "arrays": "trajectory.npz",
                        "tau": None, "model": "grid", "dims": [16, 16],
                        "period": [TWO_PI, TWO_PI]}
    assert not any("g" in rec for rec in lines)
    assert [rec["kind"] for rec in lines[1:]] == ["sample"] * 201
    with np.load(index.with_suffix(".npz")) as npz:
        assert npz.files == ["g"]
        g = npz["g"]
    assert g.dtype == np.float64 and g.shape == (201, 16, 16, 3)
    assert index.stat().st_size <= 41_000
    assert index.with_suffix(".npz").stat().st_size < g.nbytes // 2
    traj = harness.load_trajectory(index)
    tracemalloc.start()
    try:
        harness.save_trajectory(traj, tmp_path / "again.jsonl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.nbytes
    assert (tmp_path / "again.npz").read_bytes() == index.with_suffix(".npz").read_bytes()


def test_trajectory_round_trip_flat_torus(tmp_path):
    """A frame state reloads with its own structure constants and base volume."""
    m = FrameModel(lams=np.zeros(3), a=(1.0, 2.0, 3.0), base_volume=5.0)
    traj = flows.run_flow(m, "tau", tau=1.0, dt=1e-2, t_end=0.05)
    path = tmp_path / "traj.jsonl"
    harness.save_trajectory(traj, path)
    back = harness.load_trajectory(path)
    assert len(back.states) == len(traj.states)
    for s0, s1 in zip(traj.states, back.states):
        assert np.array_equal(s1.model.lams, np.zeros(3))
        assert np.array_equal(s1.model.a, s0.model.a)
        assert s1.model.base_volume == 5.0
        assert np.array_equal(s1.model.ric, np.zeros(3))
        assert geometry.volume(s1.model) == geometry.volume(s0.model)


def _write_index(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))


def _record_of(index):
    """A ``record.json`` beside the trajectory index ``index`` that names it."""
    record = index.parent / "record.json"
    record.write_text(harness.RunRecord(config_hash="0", trajectory_path=str(index),
                                        spectral_path=None, verdicts={},
                                        wall_clock=0.0).to_json())
    return record


def test_frame_trajectory_without_lams_is_rejected_by_name(tmp_path):
    """A frame header that lacks its Milnor constants."""
    path = tmp_path / "old.jsonl"
    np.savez(tmp_path / "old.npz", a=np.array([[4.4, 4.0, 3.7]]), f=np.array([0.1]))
    _write_index(path, [{"kind": "header", "convention": "tau", "arrays": "old.npz",
                         "tau": 1.0, "model": "frame", "c": np.zeros((3, 3, 3)).tolist()},
                        {"kind": "sample", "t": 0.0}])
    with pytest.raises(RejectedInputError, match="line 1: field 'lams'"):
        harness.load_trajectory(path)


def test_trajectory_without_its_arrays_is_rejected_by_name(tmp_path):
    """An index whose array file is gone, or whose arrays do not match its
    states, is rejected naming the file."""
    m = FrameModel.su2(a=(4.4, 4.0, 3.7))
    traj = flows.run_flow(m, "tau", tau=1.0, dt=1e-2, t_end=0.03)
    path = tmp_path / "traj.jsonl"
    harness.save_trajectory(traj, path)
    arrays = tmp_path / "traj.npz"
    np.savez(arrays, a=traj.metric_series()[:2])
    with pytest.raises(RejectedInputError, match="traj.npz: does not hold one 'a' array per "
                                                 "sample line of .*traj.jsonl \\(4 samples\\)"):
        harness.load_trajectory(path)
    # an older store's f array loads, whatever its values, and only at the samples' length
    np.savez(arrays, a=traj.metric_series(), f=np.full(4, np.nan))
    assert np.array_equal(harness.load_trajectory(path).metric_series(), traj.metric_series())
    np.savez(arrays, a=traj.metric_series(), f=np.zeros(3))
    with pytest.raises(RejectedInputError, match="does not hold one 'a' array per"):
        harness.load_trajectory(path)
    np.savez(arrays, a=np.float64(4.4))  # an array of no axes has no rows
    with pytest.raises(RejectedInputError, match="does not hold one 'a' array per"):
        harness.load_trajectory(path)
    harness.save_trajectory(traj, path)
    arrays.write_bytes(arrays.read_bytes()[:200])  # a write cut short
    with pytest.raises(RejectedInputError, match="traj.npz"):
        harness.load_trajectory(path)
    arrays.write_bytes(b"not an array file")
    with pytest.raises(RejectedInputError, match="traj.npz"):
        harness.load_trajectory(path)
    arrays.unlink()
    with pytest.raises(RejectedInputError, match="traj.jsonl: cannot read its array file"):
        harness.load_trajectory(path)
    with pytest.raises(RejectedInputError, match="must not end in .npz"):
        harness.save_trajectory(traj, arrays)


def test_frame_arrays_out_of_shape_or_range_are_rejected_naming_the_array_file(tmp_path):
    """A frame store's ``a`` rows that are not three coefficients, or hold
    one out of range, are the array file's fault, not the header's; Milnor
    constants of other than three entries are the header's."""
    traj = flows.run_flow(FrameModel.su2(a=(4.4, 4.0, 3.7)), "tau", tau=1.0, dt=1e-2,
                          t_end=0.03)
    path = tmp_path / "traj.jsonl"
    harness.save_trajectory(traj, path)
    arrays = tmp_path / "traj.npz"
    np.savez(arrays, a=np.ones((4, 4)))
    with pytest.raises(RejectedInputError, match=re.escape(
            f"{arrays}: 'a' of shape (4, 4) does not hold three metric coefficients per "
            f"sample of {path}")):
        harness.load_trajectory(path)
    a = traj.metric_series()
    a[2, 1] = -1.0
    np.savez(arrays, a=a)
    with pytest.raises(RejectedInputError, match=re.escape(
            f"{arrays}, sample 2: metric coefficients must be positive and finite")):
        harness.load_trajectory(path)
    header, *lines = [json.loads(line) for line in path.read_text().splitlines()]
    _write_index(path, [{**header, "lams": [2.0, 2.0]}, *lines])
    with pytest.raises(RejectedInputError, match=re.escape(
            f"{path}, line 1: structure constants must have shape (3,)")):
        harness.load_trajectory(path)


def test_trajectory_with_inline_arrays_is_rejected_by_name(tmp_path):
    """An index written when the states carried their arrays inline."""
    path = tmp_path / "inline.jsonl"
    _write_index(path, [{"kind": "header", "convention": "deturck"},
                        {"kind": "state", "t": 0.0, "tau": None, "model": "grid",
                         "dims": [8, 8], "period": [TWO_PI, TWO_PI],
                         "g": np.broadcast_to(np.eye(2), (8, 8, 2, 2)).tolist()},
                        {"kind": "diagnostics", "t": 0.0}])
    with pytest.raises(RejectedInputError,
                       match=re.escape(f"{path}, line 2: not a sample or gauge line")):
        harness.load_trajectory(path)
    _write_index(path, [{"kind": "header", "convention": "deturck"}])
    with pytest.raises(RejectedInputError, match=re.escape(f"{path}, line 1: field 'arrays'")):
        harness.load_trajectory(path)


def test_index_of_the_state_line_format_is_rejected_naming_line_2(tmp_path, capsys):
    """An index with a state and a diagnostics line per sample (the format
    before the header held what the states share) has no reader: loading it
    and ``plot`` on it are rejected naming line 2 (exit 2)."""
    path = tmp_path / "traj.jsonl"
    np.savez(tmp_path / "traj.npz", a=np.array([[4.4, 4.0, 3.7]]), f=np.array([0.1]))
    _write_index(path, [{"kind": "header", "convention": "tau", "arrays": "traj.npz"},
                        {"kind": "state", "t": 0.0, "tau": 1.0, "model": "frame",
                         "lams": [2.0, 2.0, 2.0], "base_volume": 2.0 * np.pi**2},
                        {"kind": "diagnostics", "t": 0.0, "entropy": {"W": 0.1}}])
    with pytest.raises(RejectedInputError,
                       match=re.escape(f"{path}, line 2: not a sample or gauge line")):
        harness.load_trajectory(path)
    record = _record_of(path)
    assert cli.main(["plot", str(record), "W"]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"validation error: {path}, line 2:")


def test_empty_index_is_rejected_naming_the_file(tmp_path, capsys):
    path = tmp_path / "traj.jsonl"
    path.write_text("")
    with pytest.raises(RejectedInputError, match=re.escape(f"{path}: an empty index")):
        harness.load_trajectory(path)
    record = _record_of(path)
    assert cli.main(["plot", str(record), "norm"]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"validation error: {path}: an empty index")


def test_save_rejects_states_that_do_not_share_the_header(tmp_path):
    """The header holds one model for every state: a trajectory whose states
    do not share it is not saved, so that no state loads back changed."""
    m = FrameModel.su2(a=(4.4, 4.0, 3.7))
    path = tmp_path / "traj.jsonl"
    traj = flows.Trajectory(convention="tau", tau=1.0)
    traj.append(flows.FlowState(t=0.0, model=m), {})
    traj.append(flows.FlowState(t=0.1, model=FrameModel(lams=np.zeros(3), a=m.a)), {})
    with pytest.raises(RejectedInputError, match="share one model"):
        harness.save_trajectory(traj, path)
    assert not path.exists()


@pytest.mark.parametrize("lineno,field,edit", [
    (2, "entropy", lambda rec: {**rec, "entropy": 5}),
    (1, "model", lambda rec: {k: v for k, v in rec.items() if k != "model"}),
], ids=["entropy-not-an-object", "state-without-model"])
def test_index_line_of_the_wrong_shape_is_rejected_naming_the_line(tmp_path, capsys,
                                                                   lineno, field, edit):
    """An index line whose field is missing or of the wrong shape is rejected
    naming the file, the line and the field, by ``plot`` (exit 2) and by
    ``load_trajectory`` alike, not with a traceback."""
    traj = flows.run_flow(FrameModel.su2(a=(4.4, 4.0, 3.7)), "tau", tau=1.0, dt=1e-2,
                          t_end=0.02, couple_f=True)
    index = tmp_path / "traj.jsonl"
    harness.save_trajectory(traj, index)
    record = _record_of(index)
    assert cli.main(["plot", str(record), "W"]) == cli.EXIT_OK
    capsys.readouterr()
    lines = [json.loads(line) for line in index.read_text().splitlines()]
    lines[lineno - 1] = edit(lines[lineno - 1])
    _write_index(index, lines)
    assert cli.main(["plot", str(record), "W"]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {index}, line {lineno}:") and repr(field) in err
    with pytest.raises(RejectedInputError, match=f"line {lineno}: .*'{field}'"):
        harness.load_trajectory(index)


def _grid_index(tmp_path):
    """The index of a 3-state 8^2 DeTurck trajectory, and its lines as records."""
    h = GridModel.flat(2, (8, 8), (TWO_PI, TWO_PI))
    model0 = harness.build_model(harness.parse_config(GRID_CONFIG))
    traj = flows.run_flow(model0, "deturck", np.inf, 0.01, 0.02, background=h)
    index = tmp_path / "traj.jsonl"
    harness.save_trajectory(traj, index)
    return index, [json.loads(line) for line in index.read_text().splitlines()]


def test_index_that_lost_a_line_is_rejected_by_name(tmp_path):
    """An index that lost a sample line does not load short: its array file
    no longer holds one row per sample, and is rejected by name."""
    index, lines = _grid_index(tmp_path)
    assert [rec["kind"] for rec in lines] == ["header", "sample", "sample", "sample"]
    _write_index(index, lines[:2] + lines[3:])
    arrays = index.with_suffix(".npz")
    with pytest.raises(RejectedInputError, match=re.escape(
            f"{arrays}: does not hold one 'g' array per sample line of {index} (2 samples)")):
        harness.load_trajectory(index)


@pytest.mark.parametrize("field,value,message", [
    ("dims", [8], "grid models support n = 2 or 3"),
    ("dims", [4, 4], "grid needs at least 8 points per axis"),
    ("period", [6.0], "dims and period must have length n"),
], ids=["one-axis-dims", "too-few-points", "one-entry-period"])
def test_state_line_with_wrong_model_values_is_rejected_naming_the_line(tmp_path, field,
                                                                       value, message):
    """The line that holds the states' model parameters is the header: one
    whose parameters have the right types but values the grid model rejects
    is rejected naming the file and line 1."""
    index, lines = _grid_index(tmp_path)
    lines[0][field] = value
    _write_index(index, lines)
    with pytest.raises(RejectedInputError, match=re.escape(f"{index}, line 1: {message}")):
        harness.load_trajectory(index)


def test_grid_run_and_spectrum_import_no_scipy(tmp_path):
    """scipy is imported where it is called: a grid run without gauge
    reconstruction, the spectrum subcommand and the dense view of the
    spectral operator load no scipy module."""
    config = _write_config(tmp_path, GRID_CONFIG)
    script = "\n".join([
        "import sys",
        "from solitonlab import cli, harness, stability",
        f"assert cli.main(['spectrum', {config!r}]) == cli.EXIT_OK",
        f"cfg = harness.parse_config(open({config!r}).read())",
        "harness.run_experiment(cfg)",
        "stability.assemble_linearized_pde(harness.flat_background(cfg), cfg.tau).matrix",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, harness.OUTPUT_ENV_VAR: str(tmp_path / "runs"),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_gauge_run_and_gauge_check_import_no_scipy(tmp_path):
    """The metric interpolant needs no scipy: a 16^2 run with gauge
    reconstruction and the divergence fix, gauge-check and a
    reparametrization load none."""
    text = (GRID_CONFIG.replace("dims = 8,8", "dims = 16,16")
            .replace("analyze = true", "analyze = false")
            + "\n[gauge]\nreconstruct = true\nfix_divergence = true\n")
    config = _write_config(tmp_path, text)
    script = "\n".join([
        "import sys",
        "from solitonlab import cli, flows, geometry, harness",
        f"record = harness.run_experiment(harness.parse_config(open({config!r}).read()))",
        "assert {'gauge_discrepancy', 'divergence_residual'} <= record.verdicts.keys()",
        f"assert cli.main(['gauge-check', {config!r}]) == cli.EXIT_OK",
        "su2 = geometry.FrameModel.su2(a=(4.4, 4.0, 3.7))",
        "flows.reparametrize(flows.run_flow(su2, 'tau', 1.0, 0.01, 0.1), 1.0)",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, harness.OUTPUT_ENV_VAR: str(tmp_path / "runs"),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# the pipeline


def test_run_experiment_writes_artifacts_and_verdicts(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    cfg = harness.parse_config(GRID_CONFIG)
    record = harness.run_experiment(cfg)
    out_dir = tmp_path / f"{cfg.name}-{cfg.digest()}"
    assert (out_dir / "record.json").exists()
    assert (out_dir / "config.ini").exists()
    assert (out_dir / "trajectory.jsonl").exists()
    assert (out_dir / "trajectory.npz").exists()
    assert record.spectral_path is not None
    doc = json.loads((out_dir / "spectral.json").read_text())
    assert doc["counts"]["neutral"] == 3
    assert record.verdicts["factor_two_holds"]
    assert record.verdicts["stationary"] is False
    assert record.verdicts["final_norm"] > 0


def test_a_rerun_writes_its_files_anew_with_the_same_bytes(tmp_path, monkeypatch):
    """Running a config again into its run directory removes each file it
    writes and creates it anew rather than truncating it, which can block in
    ``open`` for tens of ms: the files of the first run, kept under hard
    links, are not those of the rerun, yet hold the same bytes (record.json
    holds the wall clock), and a file the run does not write survives."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path / "runs"))
    cfg = harness.parse_config(GRID_CONFIG)
    same = ("config.ini", "trajectory.jsonl", "trajectory.npz", "spectral.json", "plot-norm.dat")
    first = harness.run_experiment(cfg)
    harness.emit_plotdata(first, "norm")
    out_dir = Path(first.trajectory_path).parent
    for name in same + ("record.json",):
        os.link(out_dir / name, tmp_path / name)
    (out_dir / "notes.txt").write_text("kept")
    again = harness.run_experiment(cfg)
    harness.emit_plotdata(again, "norm")
    for name in same + ("record.json",):
        assert not (out_dir / name).samefile(tmp_path / name), name
    for name in same:
        assert (out_dir / name).read_bytes() == (tmp_path / name).read_bytes(), name
    assert again.verdicts == first.verdicts
    assert (out_dir / "notes.txt").read_text() == "kept"


def test_run_experiment_is_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    cfg = harness.parse_config(GRID_CONFIG)
    v1 = harness.run_experiment(cfg).verdicts
    v2 = harness.run_experiment(cfg).verdicts
    assert v1 == v2


def test_verdicts_recomputable_from_trajectory(tmp_path, monkeypatch):
    """The saved trajectory alone gives the record's numbers bitwise.  32 steps
    sampled every 3 end in a 2-step interval, which the remainder verdict
    pushes through R^2 rather than R^3."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    text = GRID_CONFIG.replace("t_end = 0.05", "t_end = 0.32\nsample_every = 3")
    cfg = harness.parse_config(text)
    record = harness.run_experiment(cfg)
    traj = harness.load_trajectory(record.trajectory_path)
    assert [round(t / cfg.dt) for t in traj.times][-3:] == [27, 30, 32]
    h = harness.flat_background(cfg)
    fam = stability.nearest_soliton_in_family(traj.states[-1].model, h)
    norms = [geometry.norms(h, s.model.g - fam.g1.g).l2 for s in traj.states]
    constant, last = stability.rk4_remainder(traj, norms, fam.g1, h, cfg.dt)
    rate = stability.fit_exponential_rate(traj.times, norms).rate
    v = record.verdicts
    assert (norms[-1], rate, constant, last) == (
        v["final_norm"], v["rate"], v["remainder_constant"], v["remainder_ratio_last"])
    assert 0.0 < last <= constant < 0.05


def test_readme_run_records_the_quality_of_its_rate_fit(tmp_path, monkeypatch):
    """Beside ``rate`` the record keeps the fit's RMS log residual and the
    number of tail samples it used, those of the fit of the saved trajectory:
    on the README run, the last half of its 201 samples."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    cfg = harness.parse_config(README_CONFIG)
    record = harness.run_experiment(cfg)
    traj = harness.load_trajectory(record.trajectory_path)
    h = harness.flat_background(cfg)
    fam = stability.nearest_soliton_in_family(traj.states[-1].model, h)
    norms = [geometry.norms(h, s.model.g - fam.g1.g).l2 for s in traj.states]
    fit = stability.fit_exponential_rate(traj.times, norms)
    v = record.verdicts
    assert (v["rate"], v["rate_fit_residual"], v["rate_fit_samples"]) == (
        fit.rate, fit.residual, fit.samples_used)
    assert v["rate_fit_samples"] == 101 and 0.0 < v["rate_fit_residual"] < 1e-4


def test_a_flat_run_is_stationary_and_records_no_fit(tmp_path, monkeypatch):
    """A run from the flat torus stays at it: every norm is 0, below the
    noise floor, so the stage records it stationary and no interval verdict,
    rate or remainder, though the run reaches 3L."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    text = "[model]\ndims = 8,8\nrecipe = flat\n[flow]\ndt = 0.05\nt_end = 3.0\n"
    verdicts = harness.run_experiment(harness.parse_config(text)).verdicts
    assert verdicts == {"factor_two_holds": True, "distance_to_family": 0.0,
                        "final_norm": 0.0, "stationary": True}


@pytest.mark.parametrize("convention,tau", [("deturck", np.inf), ("tau", np.inf),
                                            ("deturck", 2.0)])
def test_run_verdicts_reads_a_hand_built_trajectory(convention, tau):
    """``stability.run_verdicts`` needs no config: on a trajectory decaying as
    e^{-2t} to the flat torus it fits the rate 2, finds decay on the windows
    at gap 1, and gives a remainder only to the DeTurck flow at tau = inf,
    reading both off the trajectory."""
    h = GridModel.flat(2, (8, 8))
    x, _ = h.coords()
    wave = np.zeros(h.g.shape)
    wave[..., 0, 1] = wave[..., 1, 0] = 0.01 * np.sin(x)
    traj = flows.Trajectory(convention=convention, tau=tau)
    for j in range(13):
        t = 0.25 * j
        traj.append(flows.FlowState(t=t, model=h.with_metric(h.g + np.exp(-2.0 * t) * wave)), {})
    verdicts = {}
    stability.run_verdicts(traj, h, 1.0, 0.25, 3.0, verdicts)
    assert verdicts["stationary"] is False and verdicts["factor_two_holds"] is True
    assert abs(verdicts["rate"] - 2.0) < 1e-9
    assert abs(verdicts["rate_gap_relative_deviation"] - 1.0) < 1e-9
    assert (verdicts["two_interval"], verdicts["three_interval"]) == ("decay", "decay-propagates")
    constant, last = verdicts["remainder_constant"], verdicts["remainder_ratio_last"]
    if (convention, tau) == ("deturck", np.inf):
        assert 0.0 < last <= constant < np.inf
    else:
        assert constant is None and last is None


@pytest.mark.parametrize("flow,model", [
    ("variant = tau\ntau = 1.0", ""), ("variant = tau\ntau = inf", ""),
    ("variant = deturck\ntau = 1.0", ""),
    ("variant = deturck", "amplitude = 1e-8")],
    ids=["tau", "unnormalized", "deturck-finite-tau", "below-the-floor"])
def test_remainder_verdict_is_null_where_it_does_not_apply(tmp_path, monkeypatch, flow, model):
    """Only a DeTurck tau = inf run is integrated by the scheme whose linear
    part the verdict pushes k through, and only a sample with ||k|| above
    1e-6 enters it; every other run records null, never NaN."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    text = (f"[model]\ndims = 8,8\n{model}\n[flow]\n{flow}\ndt = 0.01\nt_end = 0.1\n")
    verdicts = harness.run_experiment(harness.parse_config(text)).verdicts
    assert verdicts["stationary"] is False and verdicts["rate"] is not None
    assert verdicts["remainder_constant"] is None
    assert verdicts["remainder_ratio_last"] is None


def test_run_experiment_frame_entropy_audit(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    record = harness.run_experiment(BERGER_AUDIT)
    assert record.verdicts["monotonicity"] is True
    assert record.verdicts["entropy_final"] >= record.verdicts["entropy_initial"]


def test_run_experiment_records_failed_stage(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    # frame models have no reference background: the deturck variant must fail
    cfg = RunConfig(kind="frame", recipe="round", coefficients=(4.0, 4.0, 4.0),
                    variant="deturck", analyze=False, name="doomed")
    with pytest.raises(RejectedInputError):
        harness.run_experiment(cfg)
    out_dir = tmp_path / f"{cfg.name}-{cfg.digest()}"
    doc = json.loads((out_dir / "record.json").read_text())
    assert doc["verdicts"]["failed_stage"] == "flow"
    assert "error" in doc["verdicts"]
    assert doc["trajectory_path"] is None and doc["spectral_path"] is None
    assert (out_dir / "config.ini").read_text() == harness.serialize_config(cfg)


def test_readme_run_records_the_two_interval_decay(tmp_path, monkeypatch):
    """The README trajectory up to 3L shows the decay lemma at delta = the gap
    on its first two unit windows; one sample short of 3L it records no
    interval verdict."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))

    def run_to(t_end):
        text = README_CONFIG.replace("t_end = 16.0", f"t_end = {t_end!r}")
        return harness.run_experiment(harness.parse_config(text)).verdicts

    verdicts = run_to(3.0)
    assert verdicts["two_interval"] == "decay"
    assert verdicts["three_interval"] == "decay-propagates"
    verdicts = run_to(2.96)
    assert "two_interval" not in verdicts and "three_interval" not in verdicts
    assert verdicts["rate"] is not None


@pytest.mark.parametrize("dt", [0.05, 0.02, 0.01])
def test_a_run_to_3L_records_both_interval_verdicts(tmp_path, monkeypatch, dt):
    """Whether a run reaches 3L is read off its t_end, not off the float sum
    of its steps: at dt 0.05 and 0.01 the last sample's t falls just short
    of 3.0, at dt 0.02 just above it, and all three record both verdicts.
    The windows are chosen by step index too: the samples at t = L and 2L,
    whose float times lie a few ulps past them (2L is 2.0000000000000013 at
    dt 0.02 and 0.01), end one window and start the next."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    seen = []
    real = stability.three_interval_test
    monkeypatch.setattr(stability, "three_interval_test",
                        lambda *args: seen.append(args[:3]) or real(*args))
    text = GRID_CONFIG.replace("dt = 0.01", f"dt = {dt!r}").replace(
        "t_end = 0.05", "t_end = 3.0\nsample_every = 5")
    verdicts = harness.run_experiment(harness.parse_config(text)).verdicts
    assert verdicts["two_interval"] in ("growth", "decay", "neither")
    assert verdicts["three_interval"] in ("growth-propagates", "decay-propagates", "violation")
    (windows,) = seen
    per_window = round(stability.INTERVAL_LENGTH / dt) // 5 + 1
    assert [len(w) for w in windows] == [per_window] * 3
    assert windows[0][-1] == windows[1][0] and windows[1][-1] == windows[2][0]


def test_interval_window_without_a_sample_records_null_verdicts(tmp_path, monkeypatch, capsys):
    """Samples 2.2 apart (t = 0, 2.2, 4.4, ...) leave [0, 1] with one sample
    and [1, 2] with none at L = 1: null verdicts and exit 0, as the rate is
    null when data are insufficient, not a traceback."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    config = tmp_path / "windows.ini"
    config.write_text("[model]\ndims = 8,8\n[flow]\ndt = 0.05\nt_end = 17.6\n"
                      "sample_every = 44\n")
    assert cli.main(["run", str(config)]) == cli.EXIT_OK
    verdicts = json.loads(capsys.readouterr().out.split("\nrecord: ")[0])
    assert verdicts["three_interval"] is None and verdicts["two_interval"] is None
    assert verdicts["rate"] is not None


def test_rate_fit_without_enough_data_records_no_rate(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))

    def too_few(times, norms):
        raise InsufficientDataError("too few samples")

    monkeypatch.setattr(stability, "fit_exponential_rate", too_few)
    record = harness.run_experiment(harness.parse_config(GRID_CONFIG))
    assert record.verdicts["rate"] is None
    assert not {"rate_fit_residual", "rate_fit_samples"} & record.verdicts.keys()


def test_rate_fit_error_fails_the_stability_stage(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))

    def broken(times, norms):
        raise FloatingPointError("overflow in the fit")

    monkeypatch.setattr(stability, "fit_exponential_rate", broken)
    cfg = harness.parse_config(GRID_CONFIG)
    with pytest.raises(FloatingPointError):
        harness.run_experiment(cfg)
    out_dir = tmp_path / f"{cfg.name}-{cfg.digest()}"
    doc = json.loads((out_dir / "record.json").read_text())
    assert doc["verdicts"]["failed_stage"] == "stability"
    assert doc["verdicts"]["factor_two_holds"] is True  # reached before the fit
    assert doc["spectral_path"] == "spectral.json"  # a name: the file sits beside the record
    assert doc["trajectory_path"] == "trajectory.jsonl"
    assert json.loads((out_dir / "spectral.json").read_text())["counts"]["neutral"] == 3
    assert harness.parse_config((out_dir / "config.ini").read_text()) == cfg


def test_gauge_reconstruction_verdict(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    monkeypatch.setattr(harness, "_fork_partner", lambda: False)  # count every call here
    cfg = harness.parse_config(GRID_CONFIG)
    cfg.reconstruct = True
    cfg.analyze = False
    cfg.name = "with-gauge"
    run_flow = flows.run_flow
    variants = []

    def counted(model0, variant, *args, **kwargs):
        variants.append(variant)
        return run_flow(model0, variant, *args, **kwargs)

    monkeypatch.setattr(flows, "run_flow", counted)
    record = harness.run_experiment(cfg)
    # the gauge stage pairs the run's DeTurck trajectory with its tau-flow
    assert variants == ["deturck", "tau"]
    assert 0.0 <= record.verdicts["gauge_discrepancy"] < 1e-3
    disc, _ = harness.gauge_reconstruction(cfg, harness.load_trajectory(record.trajectory_path),
                                           harness.GaugePartner(cfg))
    assert variants[2:] == ["tau"]
    assert record.verdicts["gauge_discrepancy"] == disc
    lines = [json.loads(l) for l in open(record.trajectory_path)]
    assert any(rec["kind"] == "gauge" for rec in lines)


GAUGE_16 = ("[model]\ndims = 16,16\n[flow]\nvariant = {variant}\ntau = {tau}\ndt = 0.01\n"
            "t_end = 0.5\nsample_every = 5\n[gauge]\nreconstruct = true\n"
            "[stability]\nanalyze = false\n[output]\nname = {variant}\n")


@pytest.mark.parametrize("tau", ["0.5", "inf"])
def test_the_gauge_stage_pairs_the_run_with_its_partner_at_its_tau(tmp_path, monkeypatch,
                                                                    capsys, tau):
    """A DeTurck run and a tau-flow run at one tau integrate the same pair of
    flows, two ``run_flow`` calls each, and record the discrepancy of that
    pair computed straight from ``gauge``; ``gauge-check`` prints it too.
    Pairing the tau = inf tau-flow with a tau = 0.5 DeTurck flow would give
    1.73: the pair must share the run's tau."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    monkeypatch.setattr(harness, "_fork_partner", lambda: False)  # count every call here
    run_flow = flows.run_flow
    calls = []
    monkeypatch.setattr(flows, "run_flow", lambda *a, **k: calls.append(a[1]) or run_flow(*a, **k))
    discs = {}
    for variant, partner in (("deturck", "tau"), ("tau", "deturck")):
        calls.clear()
        config = _write_config(tmp_path, GAUGE_16.format(variant=variant, tau=tau))
        discs[variant] = harness.run_experiment(_load(config)).verdicts["gauge_discrepancy"]
        assert calls == [variant, partner]
        assert cli.main(["gauge-check", config]) == cli.EXIT_OK
        assert f"{discs[variant]:.6e}" in capsys.readouterr().out.splitlines()[0]
    assert discs["deturck"] == discs["tau"]

    cfg = _load(_write_config(tmp_path, GAUGE_16.format(variant="tau", tau=tau)))
    h = harness.flat_background(cfg)
    model0 = harness.build_model(cfg)
    ricci = run_flow(model0, "tau", cfg.tau, cfg.dt, cfg.t_end, sample_every=5)
    det = run_flow(model0, "deturck", cfg.tau, cfg.dt, cfg.t_end, background=h, sample_every=5)
    gt = gauge.run_harmonic_gauge(flows.MetricInterpolant(ricci), h,
                                  np.zeros(h.dims + (h.n,)), cfg.t_end, cfg.dt)
    assert float(np.max(gauge.gauge_equivalence_check(ricci, det, gt))) == discs["tau"]
    expected = {"0.5": 1.2113029299656852e-3, "inf": 7.636696362019451e-4}[tau]
    assert abs(discs["tau"] - expected) <= 1e-12 * expected


def test_the_gauge_stage_over_a_shorter_last_interval(tmp_path, capsys, monkeypatch):
    """At dt 0.01, t_end 0.25 and sample_every 10 the flows' last sample
    interval is half the others.  Every metric the gauge run reads off the
    spline is scipy's CubicSpline of the tau-flow bitwise, and gauge-check
    prints a discrepancy of 3.219826e-04."""
    from scipy.interpolate import CubicSpline

    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    monkeypatch.setattr(harness, "_fork_partner", lambda: False)  # count every call here
    config = _write_config(tmp_path, "[flow]\ndt = 0.01\nt_end = 0.25\nsample_every = 10\n")
    calls = []
    real = flows.MetricInterpolant.__call__
    monkeypatch.setattr(flows.MetricInterpolant, "__call__",
                        lambda self, t: calls.append((t, real(self, t))) or calls[-1][1])
    assert cli.main(["gauge-check", config]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[0].endswith(": 3.219826e-04")
    ricci = harness.integrate_flow(dataclasses.replace(_load(config), variant="tau"))
    assert [round(t / 0.01) for t in ricci.times] == [0, 10, 20, 25]
    spline = CubicSpline(ricci.times, ricci.metric_series(), axis=0)
    assert len(calls) == 2 * 25 + 1
    assert all(np.array_equal(model.g, spline(t)) for t, model in calls)


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the platform offers no fork")


def _counting_run_flow(monkeypatch, fail=None):
    """Count the ``run_flow`` calls of this process by variant, and raise a
    ``StepRejectedError`` from the ``fail`` variant's (in a forked child too)."""
    run_flow, calls = flows.run_flow, []

    def counted(model0, variant, *args, **kwargs):
        calls.append(variant)
        if variant == fail:
            raise StepRejectedError(f"the {variant} flow left the SPD cone at t = 0.01")
        return run_flow(model0, variant, *args, **kwargs)

    monkeypatch.setattr(flows, "run_flow", counted)
    return calls


def _no_child_left():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("tau", ["0.5", "inf"])
@pytest.mark.parametrize("variant", ["deturck", "tau"])
def test_the_forked_gauge_stage_gives_the_bits_of_the_in_turn_one(tmp_path, monkeypatch,
                                                                   variant, tau):
    """With the partner in a forked child (this process integrates the run's
    own flow alone) the gauge stage gives the discrepancy and every energy
    record of the stage run in turn, bit for bit, and leaves no child."""
    cfg = _load(_write_config(tmp_path, GAUGE_16.format(variant=variant, tau=tau)))
    calls = _counting_run_flow(monkeypatch)
    stages = {}
    for fork in (True, False):
        calls.clear()
        monkeypatch.setattr(harness, "_fork_partner", lambda: fork)
        with harness.GaugePartner(cfg) as partner:
            stages[fork] = harness.gauge_reconstruction(cfg, harness.integrate_flow(cfg), partner)
        partner_variant = "tau" if variant == "deturck" else "deturck"
        assert calls == ([variant] if fork else [variant, partner_variant])
        _no_child_left()
    (disc, energy), (disc_in_turn, energy_in_turn) = stages[True], stages[False]
    assert disc == disc_in_turn and 0.0 < disc < 2e-3
    assert energy == energy_in_turn and len(energy) == 51


def _breakdown(*args, **kwargs):
    raise GaugeBreakdownError("gauge lost injectivity at t = 0.25", time=0.25)


@needs_fork
@pytest.mark.parametrize("fork", [True, False], ids=["forked", "in-turn"])
@pytest.mark.parametrize("failure", ["step-rejected", "gauge-breakdown"])
def test_a_failing_partner_fails_the_gauge_stage(tmp_path, monkeypatch, capsys, failure, fork):
    """A partner that raises, in a forked child or in turn, fails the run at
    the gauge stage with its own type, message and breakdown time, and
    ``run`` and ``gauge-check`` exit 3 naming it; no child is left."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    monkeypatch.setattr(harness, "_fork_partner", lambda: fork)
    if failure == "step-rejected":
        _counting_run_flow(monkeypatch, fail="tau")
        error, message = StepRejectedError, "the tau flow left the SPD cone at t = 0.01"
    else:
        monkeypatch.setattr(gauge, "run_harmonic_gauge", _breakdown)
        error, message = GaugeBreakdownError, "gauge lost injectivity at t = 0.25"
    config = _write_config(tmp_path, GAUGE_16.format(variant="deturck", tau="inf"))
    cfg = _load(config)
    with pytest.raises(error, match=re.escape(message)) as raised:
        harness.run_experiment(cfg)
    assert getattr(raised.value, "time", 0.25) == 0.25
    verdicts = json.loads((tmp_path / f"{cfg.name}-{cfg.digest()}" / "record.json").read_text())[
        "verdicts"]
    assert verdicts["failed_stage"] == "gauge"
    assert verdicts["error"] == f"{error.__name__}: {message}"
    for command in ("run", "gauge-check"):
        assert cli.main([command, config]) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == f"numerical failure: {message}\n"
    _no_child_left()


@needs_fork
@pytest.mark.parametrize("variant", ["deturck", "tau"])
def test_a_failing_own_flow_leaves_no_child(tmp_path, monkeypatch, capsys, variant):
    """When the run's own flow fails while the forked partner still runs, the
    run fails at the flow stage and the child is killed and reaped."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    monkeypatch.setattr(harness, "_fork_partner", lambda: True)
    _counting_run_flow(monkeypatch, fail=variant)
    config = _write_config(tmp_path, GAUGE_16.format(variant=variant, tau="inf"))
    cfg = _load(config)
    with pytest.raises(StepRejectedError):
        harness.run_experiment(cfg)
    doc = json.loads((tmp_path / f"{cfg.name}-{cfg.digest()}" / "record.json").read_text())
    assert doc["verdicts"]["failed_stage"] == "flow"
    _no_child_left()
    assert cli.main(["gauge-check", config]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith(f"numerical failure: the {variant} flow")
    _no_child_left()


@needs_fork
def test_a_partner_process_that_dies_fails_the_gauge_stage(tmp_path, monkeypatch):
    """A child that ends without sending its result is named with its exit
    code at the gauge stage, not waited on forever."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    monkeypatch.setattr(harness, "_fork_partner", lambda: True)
    monkeypatch.setattr(harness, "_send_partner", lambda conn, cfg: os._exit(7))
    cfg = _load(_write_config(tmp_path, GAUGE_16.format(variant="deturck", tau="inf")))
    with pytest.raises(ChildProcessError, match="ended with exit code 7"):
        harness.run_experiment(cfg)
    doc = json.loads((tmp_path / f"{cfg.name}-{cfg.digest()}" / "record.json").read_text())
    assert doc["verdicts"]["failed_stage"] == "gauge"
    _no_child_left()


@needs_fork
def test_a_fork_that_fails_runs_the_partner_in_turn(tmp_path, monkeypatch):
    """Where the fork itself fails (no process to spare), the partner runs
    in turn, with the same verdict."""
    cfg = _load(_write_config(tmp_path, GAUGE_16.format(variant="deturck", tau="inf")))
    monkeypatch.setattr(harness, "_fork_partner", lambda: True)

    def no_process(self):
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    calls = _counting_run_flow(monkeypatch)
    with harness.GaugePartner(cfg) as partner:
        disc, _ = harness.gauge_reconstruction(cfg, harness.integrate_flow(cfg), partner)
    assert calls == ["deturck", "tau"]
    assert abs(disc - 7.636696362019451e-4) <= 1e-12 * 7.636696362019451e-4
    _no_child_left()


def test_the_partner_runs_in_turn_beside_a_thread_or_on_one_cpu(monkeypatch):
    """No fork while another thread runs, whose locks a child could inherit
    held, where the process may use one CPU only, in a daemonic worker, or
    where the platform offers no fork."""
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork", "spawn"])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert harness._fork_partner()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert not harness._fork_partner()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not harness._fork_partner()
    finally:
        release.set()
        thread.join()
    assert harness._fork_partner()
    monkeypatch.setattr(multiprocessing, "current_process", lambda: Namespace(daemon=True))
    assert not harness._fork_partner()  # a daemonic process may start no child
    monkeypatch.setattr(multiprocessing, "current_process", lambda: Namespace(daemon=False))
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert not harness._fork_partner()


@needs_fork
def test_a_forked_partner_failure_exits_3_with_one_line(tmp_path):
    """Through real file descriptors: a partner that fails in the forked
    child prints no traceback, from the child or the parent; ``gauge-check``
    exits 3 with one line of stderr."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the process may use one CPU only: the partner runs in turn")
    config = _write_config(tmp_path, GAUGE_16.format(variant="deturck", tau="inf"))
    script = "\n".join([
        "import sys",
        "from solitonlab import cli, flows, harness",
        "from solitonlab.errors import StepRejectedError",
        "assert harness._fork_partner()",
        "run_flow = flows.run_flow",
        "def failing(model0, variant, *args, **kwargs):",
        "    if variant == 'tau':",
        "        raise StepRejectedError('the tau flow left the SPD cone')",
        "    return run_flow(model0, variant, *args, **kwargs)",
        "flows.run_flow = failing",
        f"sys.exit(cli.main(['gauge-check', {config!r}]))",
    ])
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True)
    assert done.returncode == cli.EXIT_NUMERICAL, done.stderr
    assert done.stderr == "numerical failure: the tau flow left the SPD cone\n"


def _load(path):
    return harness.parse_config(Path(path).read_text())


# ---------------------------------------------------------------------------
# plot data


def test_emit_plotdata_columns(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    cfg = harness.parse_config(GRID_CONFIG)
    record = harness.run_experiment(cfg)
    path = harness.emit_plotdata(record, "norm")
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "# t\tnorm"
    assert len(lines) > 2
    t, v = lines[1].split("\t")
    assert float(t) == 0.0 and float(v) > 0.0
    with pytest.raises(RejectedInputError):
        harness.emit_plotdata(record, "vibes")


# ---------------------------------------------------------------------------
# CLI exit codes


def _write_config(tmp_path, text):
    p = tmp_path / "cfg.ini"
    p.write_text(text)
    return str(p)


def test_cli_run_ok(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    code = cli.main(["run", _write_config(tmp_path, GRID_CONFIG)])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "record.json" in out


def test_cli_validation_exit_code(tmp_path, capsys):
    bad = _write_config(tmp_path, "[flow]\ndt = -1\n")
    assert cli.main(["run", bad]) == cli.EXIT_VALIDATION
    assert "flow.dt" in capsys.readouterr().err
    assert cli.main(["run", str(tmp_path / "missing.ini")]) == cli.EXIT_VALIDATION
    frame = _write_config(tmp_path, "[model]\nkind = frame\nrecipe = round\n"
                          "coefficients = 4,4,4\n[flow]\nvariant = deturck\n")
    assert cli.main(["run", frame]) == cli.EXIT_VALIDATION
    assert "validation error: flow.variant" in capsys.readouterr().err


def test_cli_output_root_that_cannot_be_created_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(harness.OUTPUT_ENV_VAR, raising=False)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    root = blocker / "sub"
    code = cli.main(["run", _write_config(tmp_path, f"[output]\nroot = {root}\n")])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "validation error: output.root" in err and str(root) in err


def test_cli_numerical_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    # dt so far above the parabolic bound that halving cannot rescue the step
    text = GRID_CONFIG.replace("dt = 0.01", "dt = 100000.0").replace(
        "t_end = 0.05", "t_end = 100000.0")
    code = cli.main(["run", _write_config(tmp_path, text)])
    assert code == cli.EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("dt", ["0.5", "40"])
def test_cli_run_above_the_cfl_bound(tmp_path, monkeypatch, capsys, dt):
    """On 8^2 the CFL bound is 0.122: a step of 0.5 is retried as 8 steps of
    0.0625 and the run ends in exit 0; a step of 40 is still 0.156 after the
    last halving, and the run ends in exit 3, naming the time of the step it
    could not take, with a record that names the flow stage."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    text = GRID_CONFIG.replace("dt = 0.01", f"dt = {dt}").replace("t_end = 0.05", f"t_end = {dt}")
    code = cli.main(["run", _write_config(tmp_path, text)])
    record, = tmp_path.glob("smoke-*/record.json")
    verdicts = json.loads(record.read_text())["verdicts"]
    if dt == "0.5":
        assert code == cli.EXIT_OK
        assert "failed_stage" not in verdicts
        return
    assert code == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == ("numerical failure: step from t = 0.0: dt = 0.15625 "
                                       "exceeds the CFL bound 1.221e-01\n")
    assert verdicts["failed_stage"] == "flow"


def test_cli_gauge_stage_above_the_cfl_bound(tmp_path, monkeypatch):
    """The gauge flow splits each step of 0.5 to the 8^2 CFL bound, as the
    metric flow halves it: the run with reconstruction ends in exit 0 with a
    finite discrepancy, where the unsplit flow lost injectivity at t = 3.5."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    text = ("[model]\nkind = grid\ndims = 8,8\nrecipe = perturbed-flat\nseed = 0\n"
            "[flow]\nvariant = deturck\ndt = 0.5\nt_end = 4\n[gauge]\nreconstruct = true\n")
    assert cli.main(["run", _write_config(tmp_path, text)]) == cli.EXIT_OK
    record, = tmp_path.glob("experiment-*/record.json")
    disc = json.loads(record.read_text())["verdicts"]["gauge_discrepancy"]
    assert isinstance(disc, float) and np.isfinite(disc)


@pytest.mark.parametrize("error", [
    NumericalFailureError("spectrum: the operator's symbol has a non-finite entry"),
    StepRejectedError("step to t = 0.5 left the SPD cone"),
    NonConvergenceError("mu minimization stalled at |grad| = 1e-3"),
    GaugeBreakdownError("gauge lost injectivity at t = 0.5", time=0.5)],
    ids=lambda error: type(error).__name__)
def test_every_numerical_failure_exits_3(tmp_path, capsys, monkeypatch, error):
    """Each numerical failure a stage raises is a ``NumericalFailureError``,
    which the CLI maps to exit 3 with one line on stderr."""
    def failing(cfg):
        raise error

    assert isinstance(error, NumericalFailureError)
    monkeypatch.setattr(harness, "spectral_report", failing)
    assert cli.main(["spectrum", _write_config(tmp_path, GRID_CONFIG)]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == f"numerical failure: {error}\n"


def test_cli_frame_singularity_exits_numerical(tmp_path, monkeypatch, capsys):
    """Berger (1.2, 1.0, 0.9) lies below the round fixed point a = 4 of the
    tau = 1 flow and collapses in finite time: halving cannot carry a step
    past the singularity, so the run fails in the flow stage, naming the time."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    text = ("[model]\nkind = frame\nrecipe = berger\ncoefficients = 1.2,1.0,0.9\n"
            "[flow]\nvariant = tau\ntau = 1.0\ndt = 0.01\nt_end = 2.0\n"
            "[output]\nname = singular\n")
    assert cli.main(["run", _write_config(tmp_path, text)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure: step to t = 0.297" in err
    assert "left the SPD cone" in err
    record, = tmp_path.glob("singular-*/record.json")
    assert json.loads(record.read_text())["verdicts"]["failed_stage"] == "flow"


def test_cli_frame_overflow_exits_numerical(tmp_path, monkeypatch, capsys):
    """A tau so small that the first step overflows the coefficients is a
    rejected step (exit 3), not a run that ends in exit 0 on a NaN trajectory,
    and its stages overflow without a RuntimeWarning."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    text = ("[model]\nkind = frame\nrecipe = round\ncoefficients = 4,4,4\n"
            "[flow]\nvariant = tau\ntau = 1e-300\ndt = 0.01\nt_end = 0.02\n")
    assert cli.main(["run", _write_config(tmp_path, text)]) == cli.EXIT_NUMERICAL
    assert "left the SPD cone: metric coefficients must be positive" in capsys.readouterr().err


def test_cli_frame_overflow_names_the_infinite_coefficients(tmp_path, monkeypatch, capsys):
    """An uncoupled Berger run whose g/tau overflows in its second RK4 stage
    ends in exit 3 naming the infinite coefficients, not the NaN that later
    arithmetic on them leaves (a frame model rejects a = inf)."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    text = ("[model]\nkind = frame\nrecipe = berger\ncoefficients = 4.4,4.0,3.7\n"
            "[flow]\nvariant = tau\ntau = 1e-300\ndt = 0.01\nt_end = 0.02\n")
    assert cli.main(["run", _write_config(tmp_path, text)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert "metric coefficients must be positive and finite, got inf" in err


@pytest.mark.parametrize("command", ["run", "entropy"])
@pytest.mark.parametrize("tau", ["1e-200", "1e-300"])
def test_cli_coupled_frame_at_a_tiny_tau_exits_numerical_at_t0(tmp_path, monkeypatch, capsys,
                                                                command, tau):
    """The entropy audit of the first sample fails: at tau = 1e-200 the
    defect overflows, at 1e-300 already the factor (4 pi tau)^{-3/2}.  Both
    end the flow stage with exit 3 naming t=0, without a RuntimeWarning."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    text = ("[model]\nkind = frame\nrecipe = berger\ncoefficients = 4.4,4.0,3.7\n"
            f"[flow]\nvariant = tau\ntau = {tau}\ndt = 0.001\nt_end = 0.002\n"
            "couple_potential = true\n[output]\nname = tiny\n")
    assert cli.main([command, _write_config(tmp_path, text)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: non-finite entropy audit at t=0")
    if command == "run":
        record, = tmp_path.glob("tiny-*/record.json")
        assert json.loads(record.read_text())["verdicts"]["failed_stage"] == "flow"


def test_cli_singular_stage_exits_numerical_naming_the_time(tmp_path, monkeypatch, capsys):
    """A stage metric that no halving makes invertible ends in exit 3 naming
    the time of the last step tried (dt / 2^8), not in a ``LinAlgError``."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    singular = lambda m: np.linalg.inv(np.zeros_like(m.g))
    monkeypatch.setattr(flows, "make_metric_rhs", lambda *args: singular)
    assert cli.main(["run", _write_config(tmp_path, GRID_CONFIG)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert f"numerical failure: step to t = {0.01 / 2**flows.MAX_HALVINGS}" in err
    assert "singular stage metric" in err


def test_cli_plot_of_a_failed_run_is_rejected(tmp_path, monkeypatch, capsys):
    """A run that fails in its flow saves no trajectory: its record says so
    and ``plot`` on it exits 2."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    text = ("[model]\nkind = frame\nrecipe = berger\ncoefficients = 1.2,1.0,0.9\n"
            "[flow]\nvariant = tau\ntau = 1.0\ndt = 0.01\nt_end = 1.0\n"
            "[output]\nname = singular\n")
    assert cli.main(["run", _write_config(tmp_path, text)]) == cli.EXIT_NUMERICAL
    record, = tmp_path.glob("singular-*/record.json")
    assert json.loads(record.read_text())["trajectory_path"] is None
    assert not list(record.parent.glob("trajectory.*"))
    capsys.readouterr()
    assert cli.main(["plot", str(record), "norm"]) == cli.EXIT_VALIDATION
    assert "validation error: the record's trajectory None does not exist" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("case", ["run", "spectrum", "entropy", "gauge-check", "plot-record",
                                  "plot-arrays"])
def test_a_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys, case):
    """A config or record holding byte 0xff, and a record whose trajectory is
    the array file, end in one ``validation error:`` line that names the
    file, not in a ``UnicodeDecodeError`` traceback."""
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"[flow]\ndt = 0.01\n# \xff\n")
    if case == "plot-arrays":
        index = tmp_path / "traj.jsonl"
        harness.save_trajectory(flows.run_flow(GridModel.flat(2, (8, 8)), "tau", np.inf,
                                               0.01, 0.02), index)
        bad = index.with_suffix(".npz")
        args = ["plot", str(_record_of(bad)), "norm"]
    else:
        args = ["plot", str(bad), "norm"] if case == "plot-record" else [case, str(bad)]
    assert cli.main(args) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1 and str(bad) in err


def test_index_that_is_not_utf8_is_rejected_naming_the_file(tmp_path):
    path = tmp_path / "traj.jsonl"
    path.write_bytes(b'{"kind": "header"}\n\xff\n')
    with pytest.raises(RejectedInputError, match=re.escape(f"{path}: not a text index")):
        harness.load_trajectory(path)


def test_cli_plot_rejects_a_malformed_record(tmp_path, capsys):
    """A record.json with missing or unknown keys is rejected input, not a
    ``TypeError``."""
    good = {"config_hash": "0", "trajectory_path": str(tmp_path / "gone.jsonl"),
            "spectral_path": None, "verdicts": {}, "wall_clock": 0.0}
    for data, needle in (({k: v for k, v in good.items() if k != "verdicts"}, "verdicts"),
                         ({**good, "colour": "blue"}, "colour"),
                         ([1, 2], "mapping"),
                         (good, "gone.jsonl")):
        path = tmp_path / "record.json"
        path.write_text(json.dumps(data))
        assert cli.main(["plot", str(path), "norm"]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and needle in err


def test_cli_plot_rejects_a_malformed_index(tmp_path, monkeypatch, capsys):
    """A trajectory index cut short, or holding a line that is not a record,
    is rejected naming the file and the line, not with a traceback."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    record = harness.run_experiment(harness.parse_config(GRID_CONFIG))
    record_path = str(Path(record.trajectory_path).parent / "record.json")
    index = Path(record.trajectory_path)
    text = index.read_text()
    last = text.count("\n")
    for broken, line in ((text[:-20], last), (text + "[1, 2]\n", last + 1)):
        index.write_text(broken)
        assert cli.main(["plot", record_path, "norm"]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {index}, line {line}:"), err
        with pytest.raises(RejectedInputError, match=f"line {line}:"):
            harness.load_trajectory(index)


@pytest.mark.parametrize("kind,quantity", [("sample", "norm"), ("gauge", "energy")])
def test_index_lines_out_of_time_order_are_rejected_naming_the_line(tmp_path, monkeypatch,
                                                                    capsys, kind, quantity):
    """Two sample lines, or two gauge lines, swapped: ``load_trajectory`` and
    ``plot`` reject the index naming the file and the later line of the pair
    (exit 2), rather than a bare error or an unsorted table."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    cfg = harness.parse_config(GRID_CONFIG.replace("analyze = true", "analyze = false")
                               + "[gauge]\nreconstruct = true\n")
    record = harness.run_experiment(cfg)
    record_path = str(Path(record.trajectory_path).parent / "record.json")
    index = Path(record.trajectory_path)
    lines = index.read_text().splitlines(keepends=True)
    first = [json.loads(line)["kind"] for line in lines].index(kind)
    lines[first], lines[first + 1] = lines[first + 1], lines[first]
    index.write_text("".join(lines))
    message = f"{index}, line {first + 2}: t = "
    with pytest.raises(RejectedInputError, match=re.escape(message)):
        harness.load_trajectory(index)
    assert cli.main(["plot", record_path, quantity]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"validation error: {message}")
    assert not (index.parent / f"plot-{quantity}.dat").exists()


def test_cli_spectrum_and_plot(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    cfg_path = _write_config(tmp_path, GRID_CONFIG)
    with monkeypatch.context() as m:
        m.setattr(flows, "run_flow", None)  # the spectrum runs no flow
        assert cli.main(["spectrum", cfg_path]) == cli.EXIT_OK
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.ini"]  # and writes no file
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["neutral"] == 3

    assert cli.main(["run", cfg_path]) == cli.EXIT_OK
    out = capsys.readouterr().out
    record_path = out.strip().splitlines()[-1].split("record: ")[-1]
    assert cli.main(["plot", record_path, "norm"]) == cli.EXIT_OK
    plot_path = capsys.readouterr().out.strip()
    assert plot_path.endswith("plot-norm.dat")


def test_plot_reads_the_trajectory_beside_the_record(tmp_path, monkeypatch, capsys):
    """``plot`` reads the index beside the record file it is given and writes
    its table there, whatever trajectory path the run stored (relative to the
    directory the run started in, here): a copy of a run directory is plotted
    from its own index into itself, from a directory holding another run
    under the stored path, and once the original is gone."""
    monkeypatch.delenv(harness.OUTPUT_ENV_VAR, raising=False)
    monkeypatch.chdir(tmp_path)
    record = harness.run_experiment(harness.parse_config(GRID_CONFIG))
    stored = Path(record.trajectory_path)
    assert not stored.is_absolute()
    rows = sum('"deviation_l2"' in line for line in stored.read_text().splitlines())
    original, copy = tmp_path / stored.parent, tmp_path / "copy"
    shutil.copytree(original, copy)
    # another directory whose runs/ holds, under the stored path, an index of no samples
    other = tmp_path / "other"
    (other / stored.parent).mkdir(parents=True)
    (other / stored).write_text(stored.read_text().splitlines()[0] + "\n")

    def plot_copy_from(cwd):
        monkeypatch.chdir(cwd)
        assert cli.main(["plot", str(copy / "record.json"), "norm"]) == cli.EXIT_OK
        plot = Path(capsys.readouterr().out.strip())
        assert plot == copy / "plot-norm.dat"
        assert len(plot.read_text().splitlines()) == 1 + rows > 2
        assert not list(other.rglob("plot-*")) and not list(original.glob("plot-*"))

    plot_copy_from(other)
    shutil.rmtree(original)
    plot_copy_from(tmp_path)


@pytest.mark.parametrize("text", [README_CONFIG, THREE_D_CONFIG], ids=["readme", "8x8x8"])
def test_spectrum_prints_the_runs_spectral_document(tmp_path, monkeypatch, capsys, text):
    """``solitonlab spectrum`` prints the bytes that ``run`` writes to
    ``spectral.json``, plus print's newline."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    cfg_path = _write_config(tmp_path, text)
    assert cli.main(["run", cfg_path]) == cli.EXIT_OK
    record_path = Path(capsys.readouterr().out.strip().splitlines()[-1].split("record: ")[-1])
    assert cli.main(["spectrum", cfg_path]) == cli.EXIT_OK
    assert capsys.readouterr().out == (record_path.parent / "spectral.json").read_text() + "\n"


@pytest.mark.parametrize("command", ["run", "spectrum"])
@pytest.mark.parametrize("period", ["1e-160", "1e7", "1e300"])
def test_extreme_periods_exit_2_or_3(tmp_path, monkeypatch, capsys, command, period):
    """A grid step whose h^2 or 1/h^2 leaves the normal float range is
    rejected as ``model.period``; one so long that no symbol magnitude lies
    above the neutral floor is a numerical failure of the spectrum, which a
    run records as its stability stage.  Neither ends in a traceback."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    cfg_path = _write_config(tmp_path, f"[model]\ndims = 8,8\nperiod = {period},{period}\n")
    expected = ((cli.EXIT_NUMERICAL, "numerical failure: spectrum: ") if period == "1e7"
                else (cli.EXIT_VALIDATION, "validation error: model.period: "))
    code = cli.main([command, cfg_path])
    err = capsys.readouterr().err
    assert code == expected[0] and err.startswith(expected[1]), (code, err)
    if command == "run" and code == cli.EXIT_NUMERICAL:
        record = json.loads(next(tmp_path.glob("*/record.json")).read_text())
        assert record["verdicts"]["failed_stage"] == "stability"


BERGER_ENTROPY = ("[model]\nkind = frame\nrecipe = berger\ncoefficients = {}\n"
                  "[flow]\nvariant = tau\ntau = 1.0\ndt = 0.01\nt_end = {}\n")


def test_cli_entropy_on_a_berger_flow(tmp_path, capsys):
    cfg = _write_config(tmp_path, BERGER_ENTROPY.format("4.4,4.0,3.7", 0.1))
    assert cli.main(["entropy", cfg]) == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11
    for line in lines:
        fields = dict(part.split("=") for part in line.split())
        assert np.isfinite(float(fields["W"]))
        assert fields["monotone"] == "True"


def test_cli_entropy_exit_codes(tmp_path, capsys):
    singular = _write_config(tmp_path, BERGER_ENTROPY.format("1.2,1.0,0.9", 2.0))
    assert cli.main(["entropy", singular]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "left the SPD cone" in err
    assert abs(float(err.split("step to t = ")[1].split()[0]) - 0.2974) < 1e-4
    # the potential cannot be audited on a grid, whatever tau is
    for tau in ("inf", "1.0"):
        grid = _write_config(tmp_path, GRID_CONFIG.replace("tau = inf", f"tau = {tau}"))
        assert cli.main(["entropy", grid]) == cli.EXIT_VALIDATION
        assert "flow.couple_potential" in capsys.readouterr().err


@pytest.mark.parametrize("coefficient,t_end,sample_every,t_fail", [
    ("1e210", 0.02, 1, "0"),        # the volume overflows at the start
    ("1e200", 20.0, 100, "10.69"),  # and here as the round sphere expands, between samples
], ids=["1e210-at-t0", "1e200-at-t10.69"])
def test_overflowing_entropy_audit_exits_numerical_naming_the_time(
        tmp_path, monkeypatch, capsys, coefficient, t_end, sample_every, t_fail):
    """A coupled run whose frame volume overflows ends ``run`` and ``entropy``
    in exit 3 naming the time it overflows at, not in exit 0 with NaN
    verdicts, nor in a later non-finite entropy audit."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    text = (f"[model]\nkind = frame\nrecipe = round\ncoefficients = {coefficient},"
            f"{coefficient},{coefficient}\n[flow]\nvariant = tau\ntau = 1.0\n"
            f"couple_potential = true\ndt = 0.01\nt_end = {t_end}\n"
            f"sample_every = {sample_every}\n[output]\nname = overflow\n")
    cfg = _write_config(tmp_path, text)
    for command in ("run", "entropy"):
        assert cli.main([command, cfg]) == cli.EXIT_NUMERICAL
        assert (f"numerical failure: the potential at t={t_fail}: the volume of the frame "
                "metric a = [") in capsys.readouterr().err
    record, = tmp_path.glob("overflow-*/record.json")
    assert json.loads(record.read_text())["verdicts"]["failed_stage"] == "flow"


@pytest.mark.parametrize("coefficient,tau", [("1e-210", "1.0"), ("1e-250", "1.0"),
                                              ("1e-300", "1.0"), ("1e100", "1e250")])
def test_a_potential_that_cannot_be_evaluated_exits_numerical_at_t0(
        tmp_path, monkeypatch, capsys, coefficient, tau):
    """A round sphere so small that e^{-f} = (4 pi tau)^{3/2} / Vol overflows
    (1e-210), or whose volume underflows to 0 (1e-250, 1e-300), or a tau so
    large that e^{-f} Vol = (4 pi tau)^{3/2} overflows, ends ``run`` and
    ``entropy`` in exit 3 naming the potential at t=0, without a
    RuntimeWarning: not in a rejected potential, nor in the log of 0."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    text = (f"[model]\nkind = frame\nrecipe = round\ncoefficients = {coefficient},"
            f"{coefficient},{coefficient}\n[flow]\nvariant = tau\ntau = {tau}\n"
            "couple_potential = true\ndt = 0.01\nt_end = 0.02\n[output]\nname = tiny\n")
    cfg = _write_config(tmp_path, text)
    for command in ("run", "entropy"):
        assert cli.main([command, cfg]) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith(
            "numerical failure: the potential at t=0: e^(-f) Vol, which the constraint sets "
            "to (4 pi tau)^(3/2), is not finite")
    record, = tmp_path.glob("tiny-*/record.json")
    assert json.loads(record.read_text())["verdicts"]["failed_stage"] == "flow"


def test_round_1e150_entropy_audit_is_finite(tmp_path, monkeypatch, capsys):
    """A frame volume is base_volume prod(sqrt(a)), so a round sphere of
    coefficients 1e150 (prod(a) = 1e450 overflows) audits finitely: exit 0,
    a finite W, and the numeric dW/dt equal to the closed form."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    text = ("[model]\nkind = frame\nrecipe = round\ncoefficients = 1e150,1e150,1e150\n"
            "[flow]\nvariant = tau\ntau = 1.0\ncouple_potential = true\ndt = 0.01\n"
            "t_end = 0.02\n[output]\nname = huge\n")
    cfg = _write_config(tmp_path, text)
    assert cli.main(["run", cfg]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["entropy", cfg]) == cli.EXIT_OK
    for line in capsys.readouterr().out.strip().splitlines():
        fields = dict(part.split("=") for part in line.split())
        assert np.isfinite(float(fields["W"])) and fields["monotone"] == "True"
        assert fields["dWdt_numeric"] == fields["dWdt_formula"]
    record, = tmp_path.glob("huge-*/record.json")
    assert np.isfinite(json.loads(record.read_text())["verdicts"]["entropy_final"])


@pytest.mark.parametrize("couple", ["false", "true"])
def test_unnormalized_variant_is_rejected_by_run_and_entropy(tmp_path, monkeypatch, capsys,
                                                             couple):
    """The unnormalized flow is the tau-flow at tau = inf, so ``variant =
    unnormalized`` is no variant: with or without the coupled potential at a
    finite tau, ``run`` and ``entropy`` exit 2 naming ``flow.variant``."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    text = (BERGER_ENTROPY.format("4.4,4.0,3.7", 0.1).replace("variant = tau",
                                                                "variant = unnormalized")
            + f"couple_potential = {couple}\n")
    cfg = _write_config(tmp_path, text)
    for command in ("run", "entropy"):
        assert cli.main([command, cfg]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: flow.variant:") and "tau = inf" in err
    assert list(tmp_path.glob("*/record.json")) == []


def test_cli_gauge_check(tmp_path, monkeypatch, capsys):
    grid = _write_config(tmp_path, GRID_CONFIG.replace("dims = 8,8", "dims = 16,16"))
    assert cli.main(["gauge-check", grid]) == cli.EXIT_OK
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("max sup-discrepancy")
    assert np.isfinite(float(first.split(":")[-1]))
    frame = _write_config(tmp_path, BERGER_ENTROPY.format("4.4,4.0,3.7", 0.1))
    monkeypatch.setattr(flows, "run_flow", None)  # a frame is rejected before any flow
    assert cli.main(["gauge-check", frame]) == cli.EXIT_VALIDATION
    assert "model.kind" in capsys.readouterr().err


def _unit_flat_symbol(dims, period):
    """Compact-stencil Laplacian eigenvalues of a unit-metric torus."""
    thetas = np.meshgrid(*[2.0 * np.pi * np.fft.fftfreq(d) for d in dims], indexing="ij")
    return sum(-2.0 * (1.0 - np.cos(th)) / (p / d) ** 2
               for th, d, p in zip(thetas, dims, period)).ravel()


@pytest.mark.parametrize("dims", [(64, 64), (8, 8, 8)], ids=["64x64", "8x8x8"])
def test_cli_spectrum_beyond_the_dense_cap(tmp_path, capsys, dims):
    period = tuple(TWO_PI * (1.0 + 0.1 * ax) for ax in range(len(dims)))
    text = ("[model]\nkind = grid\nrecipe = flat\n"
            f"dims = {','.join(map(str, dims))}\n"
            f"period = {','.join(map(repr, period))}\n")
    assert cli.main(["spectrum", _write_config(tmp_path, text)]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    sym = _unit_flat_symbol(dims, period)
    ncomp = len(dims) * (len(dims) + 1) // 2
    assert doc["counts"] == {"grow": 0, "neutral": ncomp, "decay": ncomp * sym.size - ncomp}
    gap = np.min(np.abs(sym)[np.abs(sym) > 1e-10])
    assert abs(doc["gap"] - gap) <= 1e-12 * gap

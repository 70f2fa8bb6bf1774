"""Experiment harness: config parsing, the end-to-end pipeline
(flow, gauge reconstruction, entropy audit, spectral analysis, projection,
interval classification, rate fit), persistence, and plot-data emission.

Configs are INI-style text with sections [model], [flow], [gauge],
[stability], [output]; unknown sections or keys are rejected with the
offending name, and every numeric field is validated with a field-precise
message.  Runs are reproducible: randomized initial data takes an explicit
seed, and verdicts are recomputable from the persisted trajectory alone.

A persisted trajectory is a JSONL index (``trajectory.jsonl``) plus one
uncompressed ``.npz`` array file beside it (``trajectory.npz``).  The index
holds a header naming the array file, then per sample a state line (t, tau,
the model kind and its scalar parameters: ``dims``/``period`` or
``lams``/``base_volume``) and a diagnostics line; the gauge stage appends its
energy lines.  The array file holds the stacked float64 metric arrays, under
``g`` (grid) or ``a`` (frame), and the stacked potentials under ``f`` when
the states carry one, so loading round-trips bitwise.  Plot data reads the
index alone.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import time
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import entropy, flows, gauge, geometry, stability
from .errors import InsufficientDataError, RejectedInputError
from .geometry import FrameModel, GridModel

OUTPUT_ENV_VAR = "SOLITONLAB_OUTPUT"

_SCHEMA = {
    "model": {"kind", "dims", "period", "recipe", "amplitude", "seed", "coefficients"},
    "flow": {"variant", "tau", "dt", "t_end", "sample_every", "couple_potential"},
    "gauge": {"reconstruct", "fix_divergence"},
    "stability": {"analyze", "eps_neutral", "interval_length", "beta"},
    "output": {"root", "name"},
}


@dataclass
class RunConfig:
    kind: str = "grid"
    dims: tuple = (16, 16)
    period: tuple = (2.0 * np.pi, 2.0 * np.pi)
    recipe: str = "perturbed-flat"
    amplitude: float = 0.01
    seed: int = 0
    coefficients: tuple = (1.0, 1.0, 1.0)
    variant: str = "deturck"
    tau: float = np.inf
    dt: float = 0.01
    t_end: float = 1.0
    sample_every: int = 1
    couple_potential: bool = False
    reconstruct: bool = False
    fix_divergence: bool = False
    analyze: bool = True
    eps_neutral: Optional[float] = None
    interval_length: float = 1.0
    beta: Optional[float] = None
    root: str = "runs"
    name: str = "experiment"

    def digest(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    config_hash: str
    trajectory_path: Optional[str]  # None when the run failed before saving one
    spectral_path: Optional[str]
    verdicts: dict
    wall_clock: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, default=str)


# ---------------------------------------------------------------------------
# config parsing


def _fail(field_name: str, message: str):
    raise RejectedInputError(f"{field_name}: {message}")


def _parse_float(sec, key, raw) -> float:
    if raw.strip().lower() in ("inf", "infinity"):
        return np.inf
    try:
        return float(raw)
    except ValueError:
        _fail(f"{sec}.{key}", f"not a number: {raw!r}")


def _parse_tuple(sec, key, raw, cast):
    try:
        return tuple(cast(p.strip()) for p in raw.split(",") if p.strip())
    except ValueError:
        _fail(f"{sec}.{key}", f"not a comma-separated list: {raw!r}")


def _parse_bool(sec, key, raw) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    _fail(f"{sec}.{key}", f"not a boolean: {raw!r}")


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise RejectedInputError(f"config syntax: {exc}") from exc
    cfg = RunConfig()
    for sec in parser.sections():
        if sec not in _SCHEMA:
            _fail(sec, "unknown section")
        for key, raw in parser.items(sec):
            if key not in _SCHEMA[sec]:
                _fail(f"{sec}.{key}", "unknown key")
            _apply(cfg, sec, key, raw)
    _validate(cfg)
    return cfg


def _apply(cfg: RunConfig, sec: str, key: str, raw: str) -> None:
    if key in ("dims",):
        cfg.dims = _parse_tuple(sec, key, raw, int)
    elif key in ("period", "coefficients"):
        setattr(cfg, key, _parse_tuple(sec, key, raw, float))
    elif key in ("amplitude", "tau", "dt", "t_end", "interval_length"):
        setattr(cfg, key, _parse_float(sec, key, raw))
    elif key in ("eps_neutral", "beta"):
        setattr(cfg, key, None if raw.strip().lower() == "auto"
                else _parse_float(sec, key, raw))
    elif key in ("seed", "sample_every"):
        try:
            setattr(cfg, key, int(raw))
        except ValueError:
            _fail(f"{sec}.{key}", f"not an integer: {raw!r}")
    elif key in ("couple_potential", "reconstruct", "fix_divergence", "analyze"):
        setattr(cfg, key, _parse_bool(sec, key, raw))
    else:
        setattr(cfg, key, raw.strip())


def _validate(cfg: RunConfig) -> None:
    if cfg.kind not in ("grid", "frame"):
        _fail("model.kind", f"must be 'grid' or 'frame', got {cfg.kind!r}")
    if cfg.kind == "grid":
        if len(cfg.dims) != len(cfg.period):
            _fail("model.dims", "dims and period must have equal length")
        if any(d < 8 for d in cfg.dims):
            _fail("model.dims", "each grid dimension must be at least 8")
        if cfg.recipe not in ("flat", "perturbed-flat"):
            _fail("model.recipe", f"unknown grid recipe {cfg.recipe!r}")
    else:
        if cfg.recipe not in ("round", "berger"):
            _fail("model.recipe", f"unknown frame recipe {cfg.recipe!r}")
        if len(cfg.coefficients) != 3 or any(c <= 0 for c in cfg.coefficients):
            _fail("model.coefficients", "need three positive coefficients")
    if cfg.variant not in ("tau", "unnormalized", "deturck"):
        _fail("flow.variant", f"unknown variant {cfg.variant!r}")
    if cfg.variant == "deturck" and cfg.kind == "frame":
        _fail("flow.variant", "the deturck flow needs a grid model (a flat reference background)")
    if not 0 < cfg.dt < np.inf:
        _fail("flow.dt", "must be positive and finite")
    if not 0 < cfg.t_end < np.inf:
        _fail("flow.t_end", "must be positive and finite")
    try:
        flows.step_count(cfg.t_end, cfg.dt)
    except RejectedInputError as exc:
        _fail("flow.t_end", str(exc))
    if not (cfg.tau > 0):
        _fail("flow.tau", "must be positive (or inf)")
    if cfg.couple_potential and np.isinf(cfg.tau):
        _fail("flow.couple_potential", "the coupled potential needs a finite tau")
    if cfg.couple_potential and cfg.kind == "grid":
        _fail("flow.couple_potential", "on a grid the potential would solve a backward "
              "heat equation forward in time; use a frame model")
    if cfg.sample_every < 1:
        _fail("flow.sample_every", "must be at least 1")
    if not 0 < cfg.amplitude < 0.5:
        _fail("model.amplitude", "must lie in (0, 0.5)")
    if not cfg.interval_length > 0:
        _fail("stability.interval_length", "must be positive")


def serialize_config(cfg: RunConfig) -> str:
    inf = lambda v: "inf" if np.isinf(v) else repr(v)
    lines = [
        "[model]",
        f"kind = {cfg.kind}",
        f"dims = {','.join(str(d) for d in cfg.dims)}",
        f"period = {','.join(repr(p) for p in cfg.period)}",
        f"recipe = {cfg.recipe}",
        f"amplitude = {cfg.amplitude!r}",
        f"seed = {cfg.seed}",
        f"coefficients = {','.join(repr(c) for c in cfg.coefficients)}",
        "[flow]",
        f"variant = {cfg.variant}",
        f"tau = {inf(cfg.tau)}",
        f"dt = {cfg.dt!r}",
        f"t_end = {cfg.t_end!r}",
        f"sample_every = {cfg.sample_every}",
        f"couple_potential = {str(cfg.couple_potential).lower()}",
        "[gauge]",
        f"reconstruct = {str(cfg.reconstruct).lower()}",
        f"fix_divergence = {str(cfg.fix_divergence).lower()}",
        "[stability]",
        f"analyze = {str(cfg.analyze).lower()}",
        f"eps_neutral = {'auto' if cfg.eps_neutral is None else repr(cfg.eps_neutral)}",
        f"interval_length = {cfg.interval_length!r}",
        f"beta = {'auto' if cfg.beta is None else repr(cfg.beta)}",
        "[output]",
        f"root = {cfg.root}",
        f"name = {cfg.name}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# model construction


def build_model(cfg: RunConfig):
    if cfg.kind == "frame":
        base = FrameModel.su2()
        if cfg.recipe == "round":
            return base.with_a(np.full(3, cfg.coefficients[0]))
        return base.with_a(np.array(cfg.coefficients, dtype=float))
    flat = GridModel.flat(len(cfg.dims), cfg.dims, cfg.period)
    if cfg.recipe == "flat":
        return flat
    rng = np.random.default_rng(cfg.seed)
    n = flat.n
    coords = flat.coords()
    pert = np.zeros(flat.g.shape)
    for _ in range(3):  # a few random low-frequency symmetric waves
        wave = np.zeros(cfg.dims)
        for ax in range(n):
            k = int(rng.integers(1, 3))
            wave = wave + np.sin(k * coords[ax] * 2.0 * np.pi / cfg.period[ax]
                                 + rng.uniform(0, 2 * np.pi))
        s = rng.standard_normal((n, n))
        pert += wave[..., None, None] * (s + s.T) / 2.0
    pert *= cfg.amplitude / max(np.max(np.abs(pert)), 1e-30)
    return flat.with_metric(flat.g + pert)


def flat_background(cfg: RunConfig) -> GridModel:
    return GridModel.flat(len(cfg.dims), cfg.dims, cfg.period)


# ---------------------------------------------------------------------------
# persistence: a JSONL index plus an .npz array file (see the module docstring)


def _arrays_path(path) -> Path:
    path = Path(path)
    arrays = path.with_suffix(".npz")
    if arrays == path:
        raise RejectedInputError(f"{path}: a trajectory index must not end in .npz")
    return arrays


def _state_record(state) -> dict:
    model = state.model
    rec = {"kind": "state", "t": state.t,
           "tau": None if np.isinf(state.tau) else state.tau}
    if isinstance(model, FrameModel):
        rec["model"] = "frame"
        rec["lams"] = model.lams.tolist()
        rec["base_volume"] = model.base_volume
    else:
        rec["model"] = "grid"
        rec["dims"] = list(model.dims)
        rec["period"] = list(model.period)
    return rec


def save_trajectory(traj, path) -> None:
    """Write ``traj`` as the JSONL index ``path`` plus its ``.npz`` arrays."""
    arrays_path = _arrays_path(path)
    key = "a" if isinstance(traj.states[0].model, FrameModel) else "g"
    arrays = {key: traj.metric_series()}
    with_f = [s.f is not None for s in traj.states]
    if any(with_f):
        if not all(with_f):
            raise RejectedInputError("a trajectory carries a potential on every state or none")
        arrays["f"] = np.stack([np.asarray(s.f, dtype=float) for s in traj.states])
    with open(arrays_path, "wb") as fh:
        np.savez(fh, **arrays)
    with open(path, "w") as fh:
        fh.write(json.dumps({"kind": "header", "convention": traj.convention,
                             "arrays": arrays_path.name}) + "\n")
        for state, diag in zip(traj.states, traj.diagnostics):
            fh.write(json.dumps(_state_record(state)) + "\n")
            fh.write(json.dumps({"kind": "diagnostics", **diag}) + "\n")


def load_trajectory(path):
    """Read back what ``save_trajectory`` wrote, bitwise.

    An index that names no array file (written before trajectories kept their
    arrays in one, with the arrays inline), or whose array file is missing or
    does not match its states, is rejected naming the file.
    """
    path = Path(path)
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    if not records or records[0].get("kind") != "header" or "arrays" not in records[0]:
        raise RejectedInputError(
            f"{path}: the header names no array file (an index written before "
            "trajectories kept their arrays in a .npz file beside it)")
    arrays_path = path.parent / records[0]["arrays"]
    try:
        with np.load(arrays_path) as npz:
            arrays = {k: npz[k] for k in npz.files}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise RejectedInputError(f"{path}: cannot read its array file {arrays_path}: {exc}") from exc
    state_recs = [r for r in records if r["kind"] == "state"]
    diags = [{k: v for k, v in r.items() if k != "kind"}
             for r in records if r["kind"] == "diagnostics"]
    key = "a" if state_recs and state_recs[0]["model"] == "frame" else "g"
    if key not in arrays or any(len(v) != len(state_recs) for v in arrays.values()):
        raise RejectedInputError(f"{arrays_path}: does not hold one {key!r} array per "
                                 f"state of {path} ({len(state_recs)} states)")
    fs = arrays.get("f")
    traj = flows.Trajectory(convention=records[0]["convention"])
    for i, (rec, diag) in enumerate(zip(state_recs, diags)):
        if rec["model"] == "frame":
            if "lams" not in rec:
                raise RejectedInputError(
                    f"{path}: frame state at t = {rec['t']} has no 'lams' (written "
                    "before frame states recorded their Milnor constants)")
            model = FrameModel(lams=rec["lams"], a=arrays["a"][i],
                               base_volume=rec["base_volume"])
            f = None if fs is None else float(fs[i])
        else:
            model = GridModel(n=len(rec["dims"]), dims=tuple(rec["dims"]),
                              period=tuple(rec["period"]), g=arrays["g"][i], validate=False)
            f = None if fs is None else fs[i]
        tau = rec["tau"] if rec["tau"] is not None else np.inf
        traj.append(flows.FlowState(t=rec["t"], model=model, tau=tau, f=f), diag)
    return traj


# ---------------------------------------------------------------------------
# the pipeline


def run_experiment(cfg: RunConfig) -> RunRecord:
    t_start = time.time()
    out_root = Path(os.environ.get(OUTPUT_ENV_VAR, cfg.root))
    out_dir = out_root / f"{cfg.name}-{cfg.digest()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    verdicts = {}
    stage = "setup"
    traj_path = None
    try:
        model0 = build_model(cfg)
        background = flat_background(cfg) if cfg.kind == "grid" else None

        stage = "flow"
        traj = flows.run_flow(model0, cfg.variant, cfg.tau, cfg.dt, cfg.t_end,
                              background=background, couple_f=cfg.couple_potential,
                              sample_every=cfg.sample_every)
        save_trajectory(traj, out_dir / "trajectory.jsonl")
        traj_path = out_dir / "trajectory.jsonl"

        stage = "entropy"
        if cfg.couple_potential:
            recs = entropy.monotonicity_report(traj)
            verdicts["monotonicity"] = all(r.monotone for r in recs)
            verdicts["entropy_initial"] = recs[0].W
            verdicts["entropy_final"] = recs[-1].W

        stage = "gauge"
        if cfg.reconstruct and cfg.kind == "grid":
            same_flow = (cfg.variant == "deturck" and np.isinf(cfg.tau)
                         and not cfg.couple_potential)
            disc, energy_records = _gauge_reconstruction(
                cfg, model0, background, deturck_traj=traj if same_flow else None)
            verdicts["gauge_discrepancy"] = disc
            with open(traj_path, "a") as fh:
                for er in energy_records:
                    fh.write(json.dumps({"kind": "gauge", "t": er.t,
                                         "e_sup": er.e_sup, "E": er.E}) + "\n")
        if cfg.fix_divergence and cfg.kind == "grid":
            phi = gauge.divergence_gauge_fix(traj.states[-1].model, background)
            verdicts["divergence_residual"] = gauge.gauge_residual(traj.states[-1].model, phi)

        spectral_path = None
        stage = "stability"
        if cfg.analyze and cfg.kind == "grid":
            op = stability.assemble_linearized_pde(background, cfg.tau)
            report = stability.spectrum(op, cfg.eps_neutral)
            spectral_path = out_dir / "spectral.json"
            spectral_path.write_text(json.dumps(report.to_document(), indent=2))

            fam = stability.nearest_soliton_in_family(traj.states[-1].model, background)
            verdicts["factor_two_holds"] = fam.factor_two_holds
            verdicts["distance_to_family"] = float(np.max(
                np.abs(traj.states[-1].model.g - fam.g1.g)))

            times = np.array(traj.times)
            norms = [geometry.norms(background, s.model.g - fam.g1.g).l2
                     for s in traj.states]
            verdicts["final_norm"] = norms[-1]
            if float(np.max(norms)) < stability.NOISE_FLOOR:
                verdicts["stationary"] = True
            else:
                verdicts["stationary"] = False
                L = cfg.interval_length
                beta = cfg.beta if cfg.beta is not None else float(np.exp(L * report.gap / 4.0))
                if times[-1] >= 3.0 * L:
                    sel = lambda lo, hi: [nv for t, nv in zip(times, norms)
                                          if lo <= t <= hi]
                    verdicts["three_interval"] = stability.three_interval_test(
                        sel(0, L), sel(L, 2 * L), sel(2 * L, 3 * L), beta)
                try:
                    fit = stability.fit_exponential_rate(times, norms)
                    verdicts["rate"] = fit.rate
                    verdicts["rate_gap_relative_deviation"] = abs(fit.rate - report.gap) / report.gap
                except InsufficientDataError:
                    verdicts["rate"] = None
    except Exception as exc:
        verdicts["failed_stage"] = stage
        verdicts["error"] = f"{type(exc).__name__}: {exc}"
        record = RunRecord(config_hash=cfg.digest(),
                           trajectory_path=str(traj_path) if traj_path else None,
                           spectral_path=None, verdicts=verdicts,
                           wall_clock=time.time() - t_start)
        (out_dir / "record.json").write_text(record.to_json())
        raise

    record = RunRecord(config_hash=cfg.digest(), trajectory_path=str(traj_path),
                       spectral_path=str(spectral_path) if spectral_path else None,
                       verdicts=verdicts, wall_clock=time.time() - t_start)
    (out_dir / "record.json").write_text(record.to_json())
    (out_dir / "config.ini").write_text(serialize_config(cfg))
    return record


def _gauge_reconstruction(cfg: RunConfig, model0: GridModel, h: GridModel,
                          deturck_traj=None):
    """Max sup-discrepancy of the gauge transport, plus the energy records.

    ``deturck_traj`` is the unnormalized DeTurck flow of ``model0`` against
    ``h`` with the config's dt, t_end and sampling, if the caller already
    integrated it; otherwise it is integrated here.
    """
    ricci = flows.run_flow(model0, "unnormalized", np.inf, cfg.dt, cfg.t_end,
                           sample_every=cfg.sample_every)
    det = deturck_traj
    if det is None:
        det = flows.run_flow(model0, "deturck", np.inf, cfg.dt, cfg.t_end,
                             background=h, sample_every=cfg.sample_every)
    ginterp = flows.MetricInterpolant(ricci)
    gt = gauge.run_harmonic_gauge(lambda t: ginterp(t), h,
                                  np.zeros(h.dims + (h.n,)), 0.0, cfg.t_end, cfg.dt)
    idx = [int(round(t / cfg.dt)) for t in ricci.times]
    sub = gauge.GaugeTrajectory(h=h)
    sub.times = [gt.times[i] for i in idx]
    sub.F = [gt.F[i] for i in idx]
    errs = gauge.gauge_equivalence_check(ricci, det, sub)
    return float(np.max(errs)), gt.energy


# ---------------------------------------------------------------------------
# plot data


PLOT_QUANTITIES = ("norm", "W", "defect", "energy")


def emit_plotdata(record: RunRecord, quantity: str) -> str:
    """Write a two-column (t, value) table for one monitored quantity to
    ``plot-<quantity>.dat`` beside the record's trajectory; returns its path."""
    if quantity not in PLOT_QUANTITIES:
        raise RejectedInputError(f"unknown plot quantity {quantity!r}; "
                                 f"choose from {PLOT_QUANTITIES}")
    traj_path = record.trajectory_path
    if not isinstance(traj_path, str) or not Path(traj_path).is_file():
        raise RejectedInputError(f"the record's trajectory {traj_path!r} does not exist "
                                 "(a failed run saves none before its flow completes)")
    path = str(Path(traj_path).parent / f"plot-{quantity}.dat")
    rows = []
    with open(traj_path) as fh:
        for line in fh:
            rec = json.loads(line)
            value = None
            if rec["kind"] == "diagnostics":
                if quantity == "norm":
                    value = rec.get("deviation_l2")
                elif quantity == "W":
                    value = rec.get("entropy", {}).get("W")
                elif quantity == "defect":
                    value = rec.get("entropy", {}).get("defect_l2")
            elif rec["kind"] == "gauge" and quantity == "energy":
                value = rec.get("E")
            if value is not None:
                rows.append((rec["t"], value))
    with open(path, "w") as fh:
        fh.write(f"# t\t{quantity}\n")
        for t, v in rows:
            fh.write(f"{t!r}\t{v!r}\n")
    return path

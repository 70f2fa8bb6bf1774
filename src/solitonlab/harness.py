"""Experiment harness: config parsing, the end-to-end pipeline
(flow, gauge reconstruction, entropy audit, spectral analysis, projection,
the two- and three-interval verdicts, rate fit), persistence, and plot-data
emission.

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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import entropy, flows, gauge, geometry, stability
from .errors import InsufficientDataError, RejectedInputError
from .geometry import FrameModel, GridModel

OUTPUT_ENV_VAR = "SOLITONLAB_OUTPUT"

# The config format: its sections and their keys, in the order
# ``serialize_config`` writes them.  Each key names a ``RunConfig`` field and
# is read as the type of that field's default (``None``: a number or "auto").
_SCHEMA = {
    "model": ("kind", "dims", "period", "recipe", "amplitude", "seed", "coefficients"),
    "flow": ("variant", "tau", "dt", "t_end", "sample_every", "couple_potential"),
    "gauge": ("reconstruct", "fix_divergence"),
    "stability": ("analyze", "eps_neutral", "interval_length", "beta"),
    "output": ("root", "name"),
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


_EXPECTED = {bool: "a boolean", tuple: "a comma-separated list", int: "an integer",
             float: "a number", type(None): "a number or 'auto'"}


def _parse_value(name: str, default, raw: str):
    """``raw`` read as the type of ``default``."""
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if isinstance(default, tuple):
            return tuple(type(default[0])(p) for p in raw.split(",") if p.strip())
        if default is None:
            return None if raw.lower() == "auto" else float(raw)
        return type(default)(raw)
    except (KeyError, ValueError):
        _fail(name, f"not {_EXPECTED[type(default)]}: {raw!r}")


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
            setattr(cfg, key, _parse_value(f"{sec}.{key}", getattr(cfg, key), raw))
    validate_config(cfg)
    return cfg


def _positive_finite(*values) -> bool:
    return all(0 < v < np.inf for v in values)  # False for NaN


def validate_config(cfg: RunConfig) -> None:
    """Reject ``cfg`` naming the first field out of range (``RejectedInputError``)."""
    if cfg.kind not in ("grid", "frame"):
        _fail("model.kind", f"must be 'grid' or 'frame', got {cfg.kind!r}")
    if cfg.kind == "grid":
        if len(cfg.dims) != len(cfg.period) or len(cfg.dims) not in (2, 3):
            _fail("model.dims", "need 2 or 3 axes, and one period per axis")
        if any(d < 8 for d in cfg.dims):
            _fail("model.dims", "each grid dimension must be at least 8")
        if not _positive_finite(*cfg.period):
            _fail("model.period", "each period must be positive and finite")
        if cfg.recipe not in ("flat", "perturbed-flat"):
            _fail("model.recipe", f"unknown grid recipe {cfg.recipe!r}")
    else:
        if cfg.recipe not in ("round", "berger"):
            _fail("model.recipe", f"unknown frame recipe {cfg.recipe!r}")
        if len(cfg.coefficients) != 3 or not _positive_finite(*cfg.coefficients):
            _fail("model.coefficients", "need three positive finite coefficients")
    if cfg.variant not in ("tau", "unnormalized", "deturck"):
        _fail("flow.variant", f"unknown variant {cfg.variant!r}")
    if cfg.variant == "deturck" and cfg.kind == "frame":
        _fail("flow.variant", "the deturck flow needs a grid model (a flat reference background)")
    if not _positive_finite(cfg.dt):
        _fail("flow.dt", "must be positive and finite")
    if not _positive_finite(cfg.t_end):
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
    if cfg.eps_neutral is not None and not _positive_finite(cfg.eps_neutral):
        _fail("stability.eps_neutral", "must be positive and finite, or auto")
    if not _positive_finite(cfg.interval_length):
        _fail("stability.interval_length", "must be positive and finite")
    if cfg.beta is not None and not 1 < cfg.beta < np.inf:
        _fail("stability.beta", "must be finite and above 1, or auto")


def _format_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


def serialize_config(cfg: RunConfig) -> str:
    """The config as text that ``parse_config`` reads back to an equal config."""
    lines = []
    for sec, keys in _SCHEMA.items():
        lines.append(f"[{sec}]")
        lines += [f"{key} = {_format_value(getattr(cfg, key))}" for key in keys]
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
    """The flat reference torus of a grid config, which every grid-only stage
    starts from; a frame config is rejected as ``model.kind``."""
    if cfg.kind != "grid":
        _fail("model.kind", "this stage needs a grid model (a flat reference background)")
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


_NUM = (int, float)
# The fields each kind of index line needs (a state line also its model's),
# and the JSON type of each field that loading or plotting would trip on.
_NEEDED = {"header": ("convention",), "state": ("t", "tau", "model"), "diagnostics": ("t",),
           "gauge": ("t",), "grid": ("dims", "period"), "frame": ("lams", "base_volume")}
_TYPES = {"arrays": str, "t": _NUM, "tau": (*_NUM, type(None)), "dims": list,
          "period": list, "lams": list, "base_volume": _NUM, "entropy": dict}


def _read_index(path) -> list:
    """The records of the trajectory index ``path``, one JSON object per line.

    A line that is not an index record, that lacks a field its kind needs, or
    that holds a field of the wrong type (a list of other than numbers, dims
    of other than integers, a model other than grid or frame) is rejected
    naming the file and the line.
    """
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RejectedInputError(f"{path}, line {lineno}: not JSON ({exc})") from exc
            kind = rec.get("kind") if isinstance(rec, dict) else None
            if kind not in ("header", "state", "diagnostics", "gauge"):
                raise RejectedInputError(f"{path}, line {lineno}: not an index record")
            model = rec.get("model") if kind == "state" else None
            needed = _NEEDED[kind] + (_NEEDED[model] if model in ("grid", "frame") else ())
            for name in needed + tuple(rec):
                value, item = rec.get(name), (int if name == "dims" else _NUM)
                if (name not in rec or not isinstance(value, _TYPES.get(name, object))
                        or _TYPES.get(name) is list and not all(isinstance(x, item) for x in value)
                        or name == "model" and value not in ("grid", "frame")):
                    raise RejectedInputError(f"{path}, line {lineno}: field {name!r} is missing "
                                             "or has the wrong type")
            records.append(rec)
    return records


def load_trajectory(path):
    """Read back what ``save_trajectory`` wrote, bitwise.

    An index that names no array file (written before trajectories kept their
    arrays in one, with the arrays inline), whose state and diagnostics lines
    differ in number, or whose array file is missing or does not match its
    states, is rejected naming the file.  A state line whose model rejects its
    parameters (``dims`` of other than 2 or 3 axes or under 8 points per axis,
    a ``period`` of another length) is rejected naming the file and the line.
    """
    path = Path(path)
    records = _read_index(path)
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
    state_lines = [(lineno, r) for lineno, r in enumerate(records, 1) if r["kind"] == "state"]
    diags = [{k: v for k, v in r.items() if k != "kind"}
             for r in records if r["kind"] == "diagnostics"]
    if len(state_lines) != len(diags):
        raise RejectedInputError(f"{path}: {len(state_lines)} state lines but {len(diags)} "
                                 "diagnostics lines (one of each per sample)")
    key = "a" if state_lines and state_lines[0][1]["model"] == "frame" else "g"
    if key not in arrays or any(len(v) != len(state_lines) for v in arrays.values()):
        raise RejectedInputError(f"{arrays_path}: does not hold one {key!r} array per "
                                 f"state of {path} ({len(state_lines)} states)")
    fs = arrays.get("f")
    traj = flows.Trajectory(convention=records[0]["convention"])
    for i, ((lineno, rec), diag) in enumerate(zip(state_lines, diags)):
        try:
            if rec["model"] == "frame":
                model = FrameModel(lams=rec["lams"], a=arrays["a"][i],
                                   base_volume=rec["base_volume"])
                f = None if fs is None else float(fs[i])
            else:
                model = GridModel(n=len(rec["dims"]), dims=tuple(rec["dims"]),
                                  period=tuple(rec["period"]), g=arrays["g"][i], validate=False)
                f = None if fs is None else fs[i]
        except RejectedInputError as exc:
            raise RejectedInputError(f"{path}, line {lineno}: {exc}") from exc
        tau = rec["tau"] if rec["tau"] is not None else np.inf
        traj.append(flows.FlowState(t=rec["t"], model=model, tau=tau, f=f), diag)
    return traj


# ---------------------------------------------------------------------------
# the pipeline: ``run_experiment`` chains the stages below, and each CLI
# subcommand calls the stages it reports on


def integrate_flow(cfg: RunConfig) -> flows.Trajectory:
    """The flow stage: the config's flow from ``build_model(cfg)``, recording
    on a grid the deviation from the flat background."""
    background = flat_background(cfg) if cfg.kind == "grid" else None
    return flows.run_flow(build_model(cfg), cfg.variant, cfg.tau, cfg.dt, cfg.t_end,
                          background=background, couple_f=cfg.couple_potential,
                          sample_every=cfg.sample_every)


def gauge_reconstruction(cfg: RunConfig, deturck_traj=None):
    """The gauge stage: max sup-discrepancy of the gauge transport, plus the
    energy records.

    ``deturck_traj`` is the unnormalized DeTurck flow of ``build_model(cfg)``
    with the config's dt, t_end and sampling, if the caller already
    integrated it; otherwise it is integrated here.
    """
    h = flat_background(cfg)
    model0 = build_model(cfg)
    ricci = flows.run_flow(model0, "unnormalized", np.inf, cfg.dt, cfg.t_end,
                           sample_every=cfg.sample_every)
    det = deturck_traj
    if det is None:
        det = flows.run_flow(model0, "deturck", np.inf, cfg.dt, cfg.t_end,
                             background=h, sample_every=cfg.sample_every)
    ginterp = flows.MetricInterpolant(ricci)
    gt = gauge.run_harmonic_gauge(ginterp, h, np.zeros(h.dims + (h.n,)), 0.0, cfg.t_end, cfg.dt)
    idx = [int(round(t / cfg.dt)) for t in ricci.times]
    sub = gauge.GaugeTrajectory(h=h)
    sub.times = [gt.times[i] for i in idx]
    sub.F = [gt.F[i] for i in idx]
    errs = gauge.gauge_equivalence_check(ricci, det, sub)
    return float(np.max(errs)), gt.energy


def spectral_report(cfg: RunConfig) -> stability.SpectralReport:
    """The spectral stage: the linearized flow at the config's flat background."""
    op = stability.assemble_linearized_pde(flat_background(cfg), cfg.tau)
    report = stability.spectrum(op, cfg.eps_neutral)
    if np.isinf(report.gap):  # every eigenvalue is neutral
        _fail("stability.eps_neutral", "leaves no eigenvalue outside the neutral band (no gap)")
    return report


def stability_verdicts(cfg: RunConfig, traj, report, verdicts: dict) -> None:
    """The stability stage: distance of ``traj`` to the flat soliton family,
    the interval lemmas, and its decay rate against the gap of ``report``.

    A run that reaches 3L (L = ``interval_length``) gets the three-interval
    dichotomy over [0, L], [L, 2L], [2L, 3L] and the two-interval lemma
    (``"growth"``, ``"decay"`` or ``"neither"`` at delta = the gap) over the
    first two windows; both are null when a window holds no sample.  Each
    verdict goes into ``verdicts`` as soon as it is known, so a failure keeps
    those before it."""
    background = flat_background(cfg)
    final = traj.states[-1].model
    fam = stability.nearest_soliton_in_family(final, background)
    verdicts["factor_two_holds"] = fam.factor_two_holds
    verdicts["distance_to_family"] = float(np.max(np.abs(final.g - fam.g1.g)))

    times = np.array(traj.times)
    norms = [geometry.norms(background, s.model.g - fam.g1.g).l2 for s in traj.states]
    verdicts["final_norm"] = norms[-1]
    if float(np.max(norms)) < stability.NOISE_FLOOR:
        verdicts["stationary"] = True
        return
    verdicts["stationary"] = False
    L = cfg.interval_length
    beta = cfg.beta if cfg.beta is not None else float(np.exp(L * report.gap / 4.0))
    if times[-1] >= 3.0 * L:
        windows = [[nv for t, nv in zip(times, norms) if i * L <= t <= (i + 1) * L]
                   for i in range(3)]
        if all(windows):
            verdicts["three_interval"] = stability.three_interval_test(*windows, beta)
            lemma = stability.growth_decay_check(windows[0], windows[1], report.gap, L)
            verdicts["two_interval"] = ("growth" if lemma.growth_holds
                                        else "decay" if lemma.decay_holds else "neither")
        else:  # a window falls between two samples
            verdicts["three_interval"] = verdicts["two_interval"] = None
    try:
        fit = stability.fit_exponential_rate(times, norms)
        verdicts["rate"] = fit.rate
        verdicts["rate_gap_relative_deviation"] = abs(fit.rate - report.gap) / report.gap
    except InsufficientDataError:
        verdicts["rate"] = None


def run_experiment(cfg: RunConfig) -> RunRecord:
    """Run the stages ``cfg`` asks for under ``<root>/<name>-<digest>``.  A
    failed run's record names its stage and error and keeps what came before:
    its verdicts, its ``config.ini`` and the files it wrote."""
    t_start = time.time()
    out_root = Path(os.environ.get(OUTPUT_ENV_VAR, cfg.root))
    out_dir = out_root / f"{cfg.name}-{cfg.digest()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.ini").write_text(serialize_config(cfg))
    record = RunRecord(config_hash=cfg.digest(), trajectory_path=None,
                       spectral_path=None, verdicts={}, wall_clock=0.0)
    verdicts = record.verdicts
    stage = "flow"
    try:
        traj = integrate_flow(cfg)
        traj_path = out_dir / "trajectory.jsonl"
        save_trajectory(traj, traj_path)
        record.trajectory_path = str(traj_path)

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
            disc, energy_records = gauge_reconstruction(
                cfg, deturck_traj=traj if same_flow else None)
            verdicts["gauge_discrepancy"] = disc
            with open(traj_path, "a") as fh:
                for er in energy_records:
                    fh.write(json.dumps({"kind": "gauge", "t": er.t,
                                         "e_sup": er.e_sup, "E": er.E}) + "\n")
        if cfg.fix_divergence and cfg.kind == "grid":
            final = traj.states[-1].model
            phi = gauge.divergence_gauge_fix(final, flat_background(cfg))
            verdicts["divergence_residual"] = gauge.gauge_residual(final, phi)

        stage = "stability"
        if cfg.analyze and cfg.kind == "grid":
            report = spectral_report(cfg)
            spectral_path = out_dir / "spectral.json"
            spectral_path.write_text(json.dumps(report.to_document(), indent=2))
            record.spectral_path = str(spectral_path)
            stability_verdicts(cfg, traj, report, verdicts)
    except BaseException as exc:
        verdicts["failed_stage"] = stage
        verdicts["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        record.wall_clock = time.time() - t_start
        (out_dir / "record.json").write_text(record.to_json())
    return record


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
    for rec in _read_index(traj_path):
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

"""Experiment harness: config parsing, the end-to-end pipeline (flow, entropy
audit, gauge reconstruction, spectral analysis, and the stability stage,
``stability.run_verdicts``), persistence, and plot-data emission.  Every
verdict is one of the flow that ran, at parameters the stages derive: no
config key tunes a verdict.

Configs are INI-style text with sections [model], [flow], [gauge],
[stability], [output]; unknown sections or keys are rejected with the
offending name, and every numeric field is validated with a field-precise
message.  Runs are reproducible: randomized initial data takes an explicit
seed, and verdicts are recomputable from the persisted trajectory alone.

A persisted trajectory is a JSONL index (``trajectory.jsonl``) plus one
``.npz`` array file beside it (``trajectory.npz``), its member deflated
(stores written before, uncompressed, load as well).  The index
holds a header with what every state shares (the convention, the array
file's name, the run's tau, the model kind and its scalar parameters:
``dims``/``period`` or ``lams``/``base_volume``), then one sample line per
state, its t and its diagnostics; the gauge stage appends its energy lines.
The array file holds the stacked float64 metric arrays, under ``g`` (grid)
or ``a`` (frame), so loading round-trips bitwise.  A grid metric is stored
as its n(n+1)/2 upper-triangle components, in ``geometry.sym_components``
order (shape ``(samples,) + dims + (n(n+1)/2,)``), when every metric of the
trajectory is exactly symmetric, as a flow's are; otherwise, and in stores
written before this layout, as the full ``dims + (n, n)`` matrices.  A
coupled run's potential is not stored: it is ``entropy.constant_potential``
of each metric at the header's tau.  Plot data reads the index alone, and
``record.json`` names the index and the spectral document by their file
names, since they sit beside it.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import multiprocessing
import os
import threading
import time
import zipfile
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import entropy, flows, gauge, stability
from .errors import RejectedInputError
from .geometry import FrameModel, GridModel, check_grid, sym_components

OUTPUT_ENV_VAR = "SOLITONLAB_OUTPUT"
MAX_GRID_NODES = 2**20  # a DeTurck step peaks near 1.3 kB per node: 1.4 GB at most
# The zlib level of the trajectory store: level 1 deflates a 16^2 run's metrics
# to 18-78% of their bytes in 6-18 ms, and level 6 (``np.savez_compressed``'s)
# takes twice as long or more for files only 1-8% smaller.
STORE_DEFLATE_LEVEL = 1

# The config format: its sections and their keys, in the order
# ``serialize_config`` writes them.  Each key names a ``RunConfig`` field and
# is read as the type of that field's default.
_SCHEMA = {
    "model": ("kind", "dims", "period", "recipe", "amplitude", "seed", "coefficients"),
    "flow": ("variant", "tau", "dt", "t_end", "sample_every", "couple_potential"),
    "gauge": ("reconstruct", "fix_divergence"),
    "stability": ("analyze",),
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
        """The record as ``record.json`` holds it: its paths are file names,
        since the files sit beside it in the run directory."""
        doc = asdict(self)
        for key in ("trajectory_path", "spectral_path"):
            if doc[key] is not None:
                doc[key] = Path(doc[key]).name
        return json.dumps(doc, indent=2, default=str)


# ---------------------------------------------------------------------------
# config parsing


def _fail(field_name: str, message: str):
    raise RejectedInputError(f"{field_name}: {message}")


_EXPECTED = {bool: "a boolean", tuple: "a comma-separated list", int: "an integer",
             float: "a number"}


def _parse_value(name: str, default, raw: str):
    """``raw`` read as the type of ``default``."""
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if isinstance(default, tuple):
            return tuple(type(default[0])(p) for p in raw.split(",") if p.strip())
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
    if cfg.kind == "grid" and not parser.has_option("model", "period"):
        cfg.period = (2.0 * np.pi,) * len(cfg.dims)  # a 2 pi torus along every axis
    validate_config(cfg)
    return cfg


def _positive_finite(*values) -> bool:
    return all(0 < v < np.inf for v in values)  # False for NaN


def validate_config(cfg: RunConfig) -> None:
    """Reject ``cfg`` naming the first field out of range (``RejectedInputError``)."""
    if cfg.kind not in ("grid", "frame"):
        _fail("model.kind", f"must be 'grid' or 'frame', got {cfg.kind!r}")
    if cfg.seed < 0:
        _fail("model.seed", "must be a non-negative integer")
    if cfg.kind == "grid":
        if len(cfg.dims) not in (2, 3):
            _fail("model.dims", "need 2 or 3 axes")
        if len(cfg.period) != len(cfg.dims):
            _fail("model.period", f"need one period per axis: {len(cfg.period)} periods "
                  f"for {len(cfg.dims)} axes")
        if any(d < 8 for d in cfg.dims):
            _fail("model.dims", "each grid dimension must be at least 8")
        if np.prod(cfg.dims, dtype=float) > MAX_GRID_NODES:
            _fail("model.dims", f"at most {MAX_GRID_NODES} grid nodes (1024^2, or 101^3)")
        if not _positive_finite(*cfg.period):
            _fail("model.period", "each period must be positive and finite")
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            h2 = (np.array(cfg.period) / np.array(cfg.dims)) ** 2
            powers = np.concatenate([h2, 1.0 / h2])
        normal = np.finfo(float)
        if not np.all((powers >= normal.tiny) & (powers <= normal.max)):
            _fail("model.period", "each grid step h = period / points needs h^2 and 1/h^2 "
                  "in the normal float range")
        if cfg.recipe not in ("flat", "perturbed-flat"):
            _fail("model.recipe", f"unknown grid recipe {cfg.recipe!r}")
    else:
        if cfg.recipe not in ("round", "berger"):
            _fail("model.recipe", f"unknown frame recipe {cfg.recipe!r}")
        if len(cfg.coefficients) != 3 or not _positive_finite(*cfg.coefficients):
            _fail("model.coefficients", "need three positive finite coefficients")
        if cfg.recipe == "round" and len(set(cfg.coefficients)) != 1:
            _fail("model.coefficients", "a round sphere needs three equal coefficients")
        for key in ("reconstruct", "fix_divergence"):
            if getattr(cfg, key):
                _fail(f"gauge.{key}", "the gauge stages need a grid model "
                      "(a flat reference background)")
    if cfg.variant not in ("tau", "deturck"):
        _fail("flow.variant", f"must be 'tau' or 'deturck', got {cfg.variant!r} "
              "(the unnormalized flow is variant = tau with tau = inf)")
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
    for key in ("root", "name"):
        if "\0" in getattr(cfg, key):
            _fail(f"output.{key}", "must not contain a NUL byte")
    if "/" in cfg.name or os.sep in cfg.name:
        _fail("output.name", "must not contain a path separator: the run directory "
              "goes under output.root")


def _format_value(value) -> str:
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
        # a round sphere is the Berger sphere of three equal coefficients
        return FrameModel.su2().with_a(np.array(cfg.coefficients, dtype=float))
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


def _model_fields(model) -> dict:
    """What every state of a trajectory shares of its model, as the index
    header holds it: the model kind and its scalar parameters."""
    if isinstance(model, FrameModel):
        return {"model": "frame", "lams": model.lams.tolist(), "base_volume": model.base_volume}
    return {"model": "grid", "dims": list(model.dims), "period": list(model.period)}


def _fresh(path) -> Path:
    """``path``, with any file there removed so that it is written anew: a
    rerun into its run directory creates new files rather than truncating the
    ones it wrote before, which can block in ``open`` for tens of ms."""
    path = Path(path)
    path.unlink(missing_ok=True)
    return path


def _exactly_symmetric(g: np.ndarray) -> bool:
    """Whether every g_ij equals g_ji as int64, so a -0.0 facing a +0.0 does not."""
    bits = g.view(np.int64)
    return np.array_equal(bits, bits.swapaxes(-1, -2))


def _stored_rows(traj) -> tuple:
    """What the array file holds of ``traj``: its key, the shape of one row,
    and the rows, made one state at a time as they are written.  A frame
    state's row is its coefficients; a grid state's is its n(n+1)/2
    upper-triangle components, in ``sym_components`` order, when every metric
    of the trajectory is exactly symmetric, else its full n x n matrix."""
    models = [s.model for s in traj.states]
    if isinstance(models[0], FrameModel):
        return "a", models[0].a.shape, (m.a for m in models)
    gs = [m.g for m in models]
    if not all(_exactly_symmetric(g) for g in gs):
        return "g", gs[0].shape, iter(gs)
    pairs = sym_components(gs[0].shape[-1])
    i, j = zip(*pairs)
    return "g", gs[0].shape[:-2] + (len(pairs),), (g[..., i, j] for g in gs)


def save_trajectory(traj, path) -> None:
    """Write ``traj`` as the JSONL index ``path`` plus its ``.npz`` arrays.

    The array file is what ``np.savez`` writes of the stacked rows, its one
    member deflated at zlib level ``STORE_DEFLATE_LEVEL``: the ``.npy`` header,
    then the rows streamed one at a time, so no stack of them is held."""
    arrays_path = _arrays_path(path)
    shared = _model_fields(traj.states[0].model)
    if any(_model_fields(s.model) != shared for s in traj.states):
        raise RejectedInputError("a saved trajectory's states must share one model")
    key, row_shape, rows = _stored_rows(traj)
    header = {"descr": np.lib.format.dtype_to_descr(np.dtype(float)), "fortran_order": False,
              "shape": (len(traj.states),) + row_shape}
    with zipfile.ZipFile(_fresh(arrays_path), "w", zipfile.ZIP_DEFLATED,
                         compresslevel=STORE_DEFLATE_LEVEL) as zf, \
            zf.open(key + ".npy", "w", force_zip64=True) as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for row in rows:
            fh.write(np.ascontiguousarray(row, dtype=float))
    with open(_fresh(path), "w") as fh:
        fh.write(json.dumps({"kind": "header", "convention": traj.convention,
                             "arrays": arrays_path.name,
                             "tau": None if np.isinf(traj.tau) else traj.tau, **shared}) + "\n")
        for s, diag in zip(traj.states, traj.diagnostics):
            fh.write(json.dumps({"kind": "sample", "t": s.t, **diag}) + "\n")


_NUM = (int, float)
# The fields each kind of index line needs (the header also its model's), and
# the JSON type of each field that loading or plotting would trip on.
_NEEDED = {"header": ("convention", "arrays", "tau", "model"), "sample": ("t",), "gauge": ("t",),
           "grid": ("dims", "period"), "frame": ("lams", "base_volume")}
_TYPES = {"convention": str, "arrays": str, "t": _NUM, "tau": (*_NUM, type(None)), "dims": list,
          "period": list, "lams": list, "base_volume": _NUM, "entropy": dict}


def _read_index(path) -> list:
    """The records of the trajectory index ``path``: the header, then sample
    and gauge lines.  An index that is empty or not text is rejected naming
    the file; a line that is not JSON or not of the kind its place needs,
    that lacks a field its kind needs, that holds a field of the wrong type (a
    list of other than numbers, dims of other than integers, a model other
    than grid or frame), or whose t is not above that of the line of its kind
    before it, naming the file and the line.
    """
    records = []
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise RejectedInputError(f"{path}: not a text index ({exc})") from exc
    for lineno, line in enumerate(lines, 1):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RejectedInputError(f"{path}, line {lineno}: not JSON ({exc})") from exc
        kind = rec.get("kind") if isinstance(rec, dict) else None
        if (kind == "header") != (lineno == 1) or kind not in ("header", "sample", "gauge"):
            want = "the header" if lineno == 1 else "a sample or gauge line"
            raise RejectedInputError(f"{path}, line {lineno}: not {want}")
        records.append(rec)
    if not records:
        raise RejectedInputError(f"{path}: an empty index (no header line)")
    last_t = {"sample": -np.inf, "gauge": -np.inf}  # the t of the last line of each kind
    for lineno, rec in enumerate(records, 1):
        model = rec.get("model")
        needed = _NEEDED[rec["kind"]] + (_NEEDED[model] if model in ("grid", "frame") else ())
        for name in needed + tuple(rec):
            value, item = rec.get(name), (int if name == "dims" else _NUM)
            if (name not in rec or not isinstance(value, _TYPES.get(name, object))
                    or _TYPES.get(name) is list and not all(isinstance(x, item) for x in value)
                    or name == "model" and value not in ("grid", "frame")):
                raise RejectedInputError(f"{path}, line {lineno}: field {name!r} is missing "
                                         "or has the wrong type")
        kind = rec["kind"]
        if kind in last_t:
            if not rec["t"] > last_t[kind]:
                raise RejectedInputError(f"{path}, line {lineno}: t = {rec['t']!r} is not "
                                         f"above the t of the {kind} line before it")
            last_t[kind] = rec["t"]
    return records


def load_trajectory(path):
    """Read back what ``save_trajectory`` wrote, bitwise: each state from the
    header and one row of the array file.

    A grid store's ``g`` holds each metric's upper triangle (shape ``dims +
    (n(n+1)/2,)`` per sample, see ``save_trajectory``) or, in a store of
    metrics not exactly symmetric or written before triangles were stored,
    the full ``dims + (n, n)`` matrix; the number of axes tells the two
    apart, and a triangle is mirrored into the lower one bit for bit.

    An array file that is missing, or whose arrays (an older store's ``f``
    too, whose values are not read) do not each hold one row per sample
    line, or whose ``g`` fits the header's dims in neither layout, or whose
    ``a`` rows are not three coefficients each, all positive and finite, is
    rejected naming the file.  A header whose model rejects its parameters
    (``dims`` of other than 2 or 3 axes or under 8 points per axis, a
    ``period`` of another length, ``lams`` of other than three constants) is
    rejected naming line 1.
    """
    path = Path(path)
    header, *lines = _read_index(path)
    samples = [r for r in lines if r["kind"] == "sample"]
    arrays_path = path.parent / header["arrays"]
    try:
        with np.load(arrays_path) as npz:
            arrays = {k: npz[k] for k in npz.files}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise RejectedInputError(f"{path}: cannot read its array file {arrays_path}: {exc}") from exc
    key = "a" if header["model"] == "frame" else "g"
    if key not in arrays or any(v.shape[:1] != (len(samples),) for v in arrays.values()):
        raise RejectedInputError(f"{arrays_path}: does not hold one {key!r} array per "
                                 f"sample line of {path} ({len(samples)} samples)")
    rows = arrays[key]
    if key == "a":
        if len(header["lams"]) != 3:
            raise RejectedInputError(f"{path}, line 1: structure constants must have shape (3,)")
        if rows.shape[1:] != (3,):
            raise RejectedInputError(f"{arrays_path}: 'a' of shape {rows.shape} does not hold "
                                     f"three metric coefficients per sample of {path}")
    else:
        dims, period = tuple(header["dims"]), tuple(header["period"])
        n = len(dims)
        try:
            check_grid(n, dims, period)
        except RejectedInputError as exc:
            raise RejectedInputError(f"{path}, line 1: {exc}") from exc
        pairs = sym_components(n)
        if rows.shape[1:] == dims + (len(pairs),):
            i, j = zip(*pairs)
            full = np.empty(rows.shape[:-1] + (n, n))
            full[..., i, j] = full[..., j, i] = rows
            rows = full
        elif rows.shape[1:] != dims + (n, n):
            raise RejectedInputError(
                f"{arrays_path}: 'g' of shape {rows.shape} holds neither the triangles "
                f"{dims + (len(pairs),)} nor the matrices {dims + (n, n)} of the grid of {path}")
    traj = flows.Trajectory(convention=header["convention"],
                            tau=np.inf if header["tau"] is None else header["tau"])
    for number, (rec, row) in enumerate(zip(samples, rows)):
        try:
            if key == "a":
                model = FrameModel(lams=header["lams"], a=row, base_volume=header["base_volume"])
            else:
                model = GridModel(n=n, dims=dims, period=period, g=row, validate=False)
        except RejectedInputError as exc:  # a frame's coefficients out of range
            raise RejectedInputError(f"{arrays_path}, sample {number}: {exc}") from exc
        traj.append(flows.FlowState(t=rec["t"], model=model),
                    {k: v for k, v in rec.items() if k not in ("kind", "t")})
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


def gauge_partner(cfg: RunConfig) -> tuple:
    """The half of the gauge stage that does not read the run's own flow: the
    partner flow, the DeTurck flow of a tau-flow run or the tau-flow of a
    DeTurck run, at the run's tau (g/tau commutes with the pullback, so the
    DeTurck flow is the tau-flow pulled back by the harmonic-map gauge at
    every tau), and for a DeTurck run the ``_harmonic_gauge`` its tau-flow
    partner drives (None for a tau-flow run, whose own flow drives it)."""
    partner = integrate_flow(replace(cfg, variant="tau" if cfg.variant == "deturck"
                                     else "deturck"))
    return partner, _harmonic_gauge(cfg, partner) if cfg.variant == "deturck" else None


def _harmonic_gauge(cfg: RunConfig, ricci: flows.Trajectory) -> tuple:
    """The harmonic-map gauge driven by the tau-flow ``ricci``, as the gauge
    stage reads it: a gauge trajectory of its entries at the sample times of
    ``ricci`` alone, the ones ``gauge.gauge_equivalence_check`` pairs with
    the samples, and the energy records of every step."""
    h = flat_background(cfg)
    gt = gauge.run_harmonic_gauge(flows.MetricInterpolant(ricci), h, np.zeros(h.dims + (h.n,)),
                                  cfg.t_end, cfg.dt)
    at = [int(np.argmin(np.abs(gt.times - t))) for t in ricci.times]
    sampled = gauge.GaugeTrajectory(h=h, F=[gt.F[j] for j in at],
                                    energy=[gt.energy[j] for j in at])
    return sampled, gt.energy


def _fork_partner() -> bool:
    """Whether ``GaugePartner`` forks: the platform offers ``fork``, the
    process may run on two CPUs or more, no other thread runs (whose locks
    the child could inherit held), and the process is no daemonic
    ``multiprocessing`` worker, which may not start children."""
    return ("fork" in multiprocessing.get_all_start_methods()
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1
            and not multiprocessing.current_process().daemon)


def _send_partner(conn, cfg: RunConfig) -> None:
    """A forked child's work: ``gauge_partner(cfg)``, or the exception it
    raised, sent to the parent through ``conn``."""
    try:
        reply = (True, gauge_partner(cfg))
    except BaseException as exc:  # an interrupt too: ``GaugePartner.result`` re-raises it
        reply = (False, exc)
    conn.send(reply)


class GaugePartner:
    """``gauge_partner(cfg)``, started before the run's own flow.

    Where ``_fork_partner()`` holds (and the fork succeeds), a forked child
    integrates it beside the flow and sends it back through a pipe;
    otherwise it runs in turn, when ``result`` is first asked for.  The
    arithmetic is the same either way, so the gauge stage's bits are too.
    ``result`` raises a failure of the partner as its own type and message.
    ``close``, or leaving a ``with`` block, kills and reaps the child if one
    still runs, so no path leaves a process behind.
    """

    def __init__(self, cfg: RunConfig):
        self._cfg = cfg
        self._child = self._conn = None
        if _fork_partner():
            context = multiprocessing.get_context("fork")
            self._conn, send = context.Pipe(duplex=False)  # a Queue would start a thread
            self._child = context.Process(target=_send_partner, args=(send, cfg))
            try:
                self._child.start()
            except OSError:  # no process to spare (EAGAIN): run in turn
                self._conn.close()
                self._child = None
            finally:
                send.close()  # the child holds the write end: its exit ends the pipe

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def result(self) -> tuple:
        if self._child is None:
            return gauge_partner(self._cfg)
        try:
            ok, value = self._conn.recv()
        except EOFError:
            self._child.join()
            raise ChildProcessError(f"the gauge stage's partner process ended with exit code "
                                    f"{self._child.exitcode} before sending a result") from None
        finally:
            self.close()
        if not ok:
            raise value
        return value

    def close(self) -> None:
        if self._child is not None:
            self._child.kill()  # it writes no file; SIGKILL, so no inherited handler keeps it
            self._child.join()
            self._conn.close()


def gauge_reconstruction(cfg: RunConfig, traj: flows.Trajectory, partner: GaugePartner):
    """The gauge stage: max sup-discrepancy of the gauge transport, plus the
    energy records of the harmonic-map gauge.

    ``traj`` is the run's flow (``integrate_flow(cfg)``) and ``partner`` the
    other half of the pair, started before it (``GaugePartner(cfg)``).  The
    gauge is driven by the tau-flow of the pair: the partner's for a DeTurck
    run; for a tau-flow run ``traj``, once the partner has arrived.
    """
    other, driven = partner.result()
    if cfg.variant == "deturck":
        ricci, det = other, traj
    else:
        ricci, det = traj, other
        driven = _harmonic_gauge(cfg, traj)
    gt, energy = driven
    return float(np.max(gauge.gauge_equivalence_check(ricci, det, gt))), energy


def spectral_report(cfg: RunConfig) -> stability.SpectralReport:
    """The spectral stage: the linearized flow at the config's flat background."""
    return stability.spectrum(stability.assemble_linearized_pde(flat_background(cfg), cfg.tau))


def run_experiment(cfg: RunConfig) -> RunRecord:
    """Run the stages ``cfg`` asks for under ``<root>/<name>-<digest>``.  A
    failed run's record names its stage and error and keeps what came before:
    its verdicts, its ``config.ini`` and the files it wrote.  A run directory
    that cannot be created is rejected as ``output.root``."""
    t_start = time.time()
    out_root = Path(os.environ.get(OUTPUT_ENV_VAR, cfg.root))
    out_dir = out_root / f"{cfg.name}-{cfg.digest()}"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail("output.root", f"cannot create the run directory {out_dir}: {exc.strerror}")
    _fresh(out_dir / "config.ini").write_text(serialize_config(cfg))
    record = RunRecord(config_hash=cfg.digest(), trajectory_path=None,
                       spectral_path=None, verdicts={}, wall_clock=0.0)
    verdicts = record.verdicts
    stage = "flow"
    partner = None
    try:
        if cfg.reconstruct:
            partner = GaugePartner(cfg)  # the gauge stage's other half, beside the flow
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
        if cfg.reconstruct:
            disc, energy_records = gauge_reconstruction(cfg, traj, partner)
            verdicts["gauge_discrepancy"] = disc
            with open(traj_path, "a") as fh:
                for er in energy_records:
                    fh.write(json.dumps({"kind": "gauge", **asdict(er)}) + "\n")
        if cfg.fix_divergence:
            _, verdicts["divergence_residual"] = gauge.divergence_gauge_fix(
                traj.states[-1].model, flat_background(cfg))

        stage = "stability"
        if cfg.analyze and cfg.kind == "grid":
            report = spectral_report(cfg)
            spectral_path = out_dir / "spectral.json"
            _fresh(spectral_path).write_text(report.to_json())
            record.spectral_path = str(spectral_path)
            stability.run_verdicts(traj, flat_background(cfg), report.gap, cfg.dt,
                                   cfg.t_end, verdicts)
    except BaseException as exc:
        verdicts["failed_stage"] = stage
        verdicts["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        if partner is not None:
            partner.close()
        record.wall_clock = time.time() - t_start
        _fresh(out_dir / "record.json").write_text(record.to_json())
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
        if rec["kind"] == "sample":
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
    with open(_fresh(path), "w") as fh:
        fh.write(f"# t\t{quantity}\n")
        for t, v in rows:
            fh.write(f"{t!r}\t{v!r}\n")
    return path

"""Right-hand sides and explicit time integration for the metric flows.

Four right-hand sides are provided: the fixed-tau normalized flow
``-2 Ric + g / tau``, the unnormalized flow ``-2 Ric``, the gauge-fixed
(DeTurck) flow with a reference background, and the coupled potential
equation.  Time stepping is classical RK4 (``rk4``, shared with the gauge
flows) under a parabolic CFL bound; the tau-flow <-> unnormalized
reparametrization translates trajectories between the two conventions.

The DeTurck right-hand side makes one geometry pass per evaluation: the
model derives g^{-1}, Gamma(g) and Ricci once, and both Ricci and the gauge
field V read them; the background's Gamma(h) is derived once per
``make_metric_rhs``.  Trajectory states carry metrics only: diagnostics read
the geometry of a throwaway twin of each sampled model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline

from . import entropy, gauge, geometry
from .errors import RejectedInputError, StepRejectedError
from .geometry import FrameModel, GridModel

CFL_FACTOR = 0.2
MAX_HALVINGS = 8


@dataclass(frozen=True)
class FlowState:
    """Immutable snapshot of an evolving geometry.

    ``f`` is the scalar potential (a float on a frame model, a scalar field
    on a grid); ``F`` an optional gauge displacement field.  ``tau`` may be
    ``inf`` for the unnormalized convention.
    """

    t: float
    model: object
    tau: float
    f: Optional[object] = None
    F: Optional[np.ndarray] = None


@dataclass
class Trajectory:
    """Time-ordered flow states plus per-sample diagnostics."""

    convention: str
    states: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    def append(self, state: FlowState, diag: dict) -> None:
        if self.states and state.t <= self.states[-1].t:
            raise RejectedInputError("trajectory times must be strictly increasing")
        self.states.append(state)
        self.diagnostics.append(diag)

    def metric_series(self) -> np.ndarray:
        """Stacked metric coefficient arrays, leading axis = sample index."""
        return np.stack([_metric_array(s.model) for s in self.states])


def _metric_array(model) -> np.ndarray:
    return model.a if isinstance(model, FrameModel) else model.g


def _with_metric(model, arr, validate=False):
    if isinstance(model, FrameModel):
        return model.with_a(arr)
    return model.with_metric(arr, validate=validate)


class MetricInterpolant:
    """Cubic-in-time interpolant of a trajectory's metric coefficients."""

    def __init__(self, traj: Trajectory):
        times = traj.times
        series = traj.metric_series()
        self._template = traj.states[0].model
        self._shape = series.shape[1:]
        kind = "cubic" if len(times) >= 4 else "linear"
        if kind == "cubic":
            self._spline = CubicSpline(times, series.reshape(len(times), -1), axis=0)
        else:
            self._spline = None
            self._times = times
            self._flat = series.reshape(len(times), -1)
        self.t_min = float(times[0])
        self.t_max = float(times[-1])

    def __call__(self, t: float):
        if self._spline is not None:
            flat = self._spline(np.clip(t, self.t_min, self.t_max))
        else:
            flat = np.array([np.interp(t, self._times, col) for col in self._flat.T])
        return _with_metric(self._template, flat.reshape(self._shape))


# ---------------------------------------------------------------------------
# right-hand sides


def rhs_tau_flow(model, tau: float):
    """Metric velocity -2 Ric(g) + g / tau of the fixed-tau normalized flow."""
    if not (tau > 0):
        raise RejectedInputError("tau must be positive (use rhs_unnormalized for tau = inf)")
    return rhs_unnormalized(model) + _metric_array(model) / tau


def rhs_unnormalized(model):
    """Metric velocity -2 Ric(g) of the unnormalized flow."""
    return -2.0 * geometry.ricci(model)


def rhs_deturck(m: GridModel, h: GridModel, tau: float):
    """Metric velocity of the gauge-fixed flow: -2 Ric + g/tau + L_V g.

    V is the reference-background vector field of ``gauge.deturck_vector``.
    ``tau = inf`` gives the unnormalized variant (no g/tau term).
    """
    v = gauge.deturck_vector(m, h)
    out = -2.0 * geometry.ricci(m) + geometry.lie_derivative_metric(m, v)
    if np.isfinite(tau):
        out = out + m.g / tau
    return out


def rhs_potential(f, model, tau: float):
    """Scalar velocity -Delta f + |grad f|^2 - R + n / (2 tau)."""
    n = model.n
    if isinstance(model, FrameModel):
        # homogeneous: gradient terms vanish for the constant potential
        return -geometry.scalar_curvature(model) + n / (2.0 * tau)
    df = geometry.partials(model, f)
    grad_sq = np.einsum("...ij,...i,...j->...", model.ginv, df, df)
    lap = geometry.laplacian_scalar(model, f)
    return -lap + grad_sq - geometry.scalar_curvature(model) + n / (2.0 * tau)


def make_metric_rhs(variant: str, tau: float, background: Optional[GridModel] = None) -> Callable:
    """Build a metric-velocity callable for a named flow variant."""
    if variant == "tau":
        return lambda model: rhs_tau_flow(model, tau)
    if variant == "unnormalized":
        return rhs_unnormalized
    if variant == "deturck":
        if background is None:
            raise RejectedInputError("deturck flow needs a reference background")
        background.gamma  # derive Gamma(h) now, once for every evaluation
        return lambda model: rhs_deturck(model, background, tau)
    raise RejectedInputError(f"unknown flow variant {variant!r}")


# ---------------------------------------------------------------------------
# time stepping


def rk4(f: Callable, y: tuple, dt: float) -> tuple:
    """One classical RK4 step of the tuple of arrays ``y``.

    ``f(c, y)`` returns the velocities of the components of ``y`` at the
    stage whose time is a fraction ``c`` (0, 1/2, 1/2, 1) of the step.
    """
    k1 = f(0.0, y)
    k2 = f(0.5, tuple(yi + 0.5 * dt * ki for yi, ki in zip(y, k1)))
    k3 = f(0.5, tuple(yi + 0.5 * dt * ki for yi, ki in zip(y, k2)))
    k4 = f(1.0, tuple(yi + dt * ki for yi, ki in zip(y, k3)))
    return tuple(yi + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                 for yi, a, b, c, d in zip(y, k1, k2, k3, k4))


def cfl_bound(model) -> float:
    """Parabolic step bound 0.2 h^2 min eig(g) (= 0.2 h^2 / max eig(g^{-1}));
    inf for frame ODEs."""
    if isinstance(model, FrameModel):
        return np.inf
    h_min = float(np.min(model.spacings))
    return CFL_FACTOR * h_min**2 * model.min_eig


def step(state: FlowState, metric_rhs: Callable, dt: float,
         couple_f: bool = False) -> FlowState:
    """One classical RK4 step of the metric (and the potential, if coupled).

    A stage or result metric outside the SPD cone (a non-SPD grid metric, a
    frame coefficient <= 0) raises ``StepRejectedError`` so the caller can
    halve dt.  When ``couple_f`` is set the potential is advanced alongside
    and then re-normalized to the constraint.
    """
    bound = cfl_bound(state.model)
    if dt > bound:
        raise StepRejectedError(f"dt = {dt} exceeds the CFL bound {bound:.3e}")
    if couple_f and state.f is None:
        raise RejectedInputError("coupled stepping requires a potential in the state")

    def model_at(arr, validate=False):
        try:
            return _with_metric(state.model, arr, validate=validate)
        except RejectedInputError as exc:
            raise StepRejectedError(
                f"step to t = {state.t + dt} left the SPD cone: {exc}") from exc

    def velocity(_, y):
        model = model_at(y[0])
        if couple_f:
            return metric_rhs(model), rhs_potential(y[1], model, state.tau)
        return (metric_rhs(model),)

    y0 = (_metric_array(state.model), state.f) if couple_f else (_metric_array(state.model),)
    y1 = rk4(velocity, y0, dt)
    model1 = model_at(y1[0], validate=True)
    f1 = (entropy.normalize_f(geometry.twin(model1), y1[1], state.tau) if couple_f
          else state.f)
    return FlowState(t=state.t + dt, model=model1, tau=state.tau, f=f1, F=state.F)


def step_count(t_end: float, dt: float) -> int:
    """The number of steps of ``dt`` in ``t_end``; ``RejectedInputError``
    unless it is finite and whole to 1e-9 relative."""
    steps = t_end / dt
    if not np.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
        raise RejectedInputError(f"t_end = {t_end!r} is not a whole number of steps of "
                                 f"dt = {dt!r} (t_end / dt = {steps!r})")
    return int(round(steps))


def run_flow(model0, variant: str, tau: float, dt: float, t_end: float,
             background: Optional[GridModel] = None, f0=None,
             couple_f: bool = False, sample_every: int = 1) -> Trajectory:
    """Drive ``step`` from t = 0 to ``t_end``, recording states and diagnostics.

    ``t_end`` must be a whole number of steps (``step_count``).  On step
    rejection dt is halved (up to ``MAX_HALVINGS`` times); rejection
    past that limit propagates.  Diagnostics per sample: scalar curvature
    range, metric deviation from the background (if given), and the entropy
    record of a coupled run.
    """
    n_steps = step_count(t_end, dt)
    metric_rhs = make_metric_rhs(variant, tau, background)
    if couple_f and f0 is None:
        f0 = entropy.constant_potential(geometry.twin(model0), tau)
    state = FlowState(t=0.0, model=model0, tau=tau, f=f0)
    traj = Trajectory(convention=variant)
    traj.append(state, _diagnose(state, background, couple_f))
    i = 0
    while i < n_steps:
        halvings = 0
        sub_dt = dt
        advanced = state
        while True:
            try:
                sub = advanced
                for _ in range(2**halvings):
                    sub = step(sub, metric_rhs, sub_dt, couple_f=couple_f)
                advanced = sub
                break
            except StepRejectedError:
                halvings += 1
                sub_dt *= 0.5
                if halvings > MAX_HALVINGS:
                    raise
        state = advanced
        i += 1
        if i % sample_every == 0 or i == n_steps:
            traj.append(state, _diagnose(state, background, couple_f))
    return traj


def _diagnose(state: FlowState, background, couple_f: bool) -> dict:
    diag = {"t": state.t}
    model = geometry.twin(state.model)
    R = geometry.scalar_curvature(model)
    diag["scalar_curvature_range"] = [float(np.min(R)), float(np.max(R))]
    if background is not None and isinstance(model, GridModel):
        dev = model.g - background.g
        rep = geometry.norms(model, dev, k=1)
        diag["deviation_l2"] = rep.l2
        diag["deviation_sup"] = rep.sup
    if couple_f:
        rec = entropy.entropy_record(replace(state, model=model))
        diag["entropy"] = {"W": rec.W, "defect_l2": rec.defect_l2}
    return diag


# ---------------------------------------------------------------------------
# reparametrization between the two flow conventions


def reparametrize(traj: Trajectory, tau: float, s_samples=None) -> Trajectory:
    """Translate a tau-flow trajectory to the unnormalized convention.

    Uses ``c(s) = 1 - s/tau``, ``t(s) = -tau log(1 - s/tau)`` and
    ``g~(s) = c(s) g(t(s))`` with cubic interpolation of the metric in t.
    Requires ``s < tau``.
    """
    if traj.convention != "tau":
        raise RejectedInputError("reparametrize expects a tau-flow trajectory")
    interp = MetricInterpolant(traj)
    if s_samples is None:
        s_samples = tau * (1.0 - np.exp(-traj.times / tau))
    s_samples = np.asarray(s_samples, dtype=float)
    if np.any(s_samples >= tau):
        raise RejectedInputError("reparametrization requires s < tau")
    out = Trajectory(convention="unnormalized")
    for s in s_samples:
        c = 1.0 - s / tau
        t = -tau * np.log(c)
        model = interp(t)
        model = _with_metric(model, c * _metric_array(model))
        out.append(FlowState(t=float(s), model=model, tau=np.inf), {"t": float(s)})
    return out


def reparametrize_inverse(traj: Trajectory, tau: float, t_samples=None) -> Trajectory:
    """Translate an unnormalized trajectory back to the tau-flow convention."""
    if traj.convention != "unnormalized":
        raise RejectedInputError("reparametrize_inverse expects an unnormalized trajectory")
    interp = MetricInterpolant(traj)
    if t_samples is None:
        t_samples = -tau * np.log(1.0 - traj.times / tau)
    t_samples = np.asarray(t_samples, dtype=float)
    out = Trajectory(convention="tau")
    for t in t_samples:
        s = tau * (1.0 - np.exp(-t / tau))
        c = 1.0 - s / tau
        model = interp(s)
        model = _with_metric(model, _metric_array(model) / c)
        out.append(FlowState(t=float(t), model=model, tau=tau), {"t": float(t)})
    return out

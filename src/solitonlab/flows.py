"""Right-hand sides and explicit time integration for the metric flows.

The two flow variants are the fixed-tau normalized flow ``-2 Ric + g / tau``
(``"tau"``; its tau = inf member is the unnormalized flow ``-2 Ric``) and the
gauge-fixed (DeTurck) flow with a reference background (``"deturck"``).  Time
stepping is classical RK4 of the metric (``rk4``, shared with the gauge
flows) under a parabolic CFL bound; ``reparametrize`` translates a finite-tau
trajectory to tau = inf (one way).

A flow state is its time and its metric; its tau is the trajectory's.  A
coupled run's potential f lives on frame models, where it is constant in
space: its equation f_t = -R + n/(2 tau) is d/dt log Vol(g), so it is a
function of the metric (``entropy.constant_potential``) and stored nowhere.

The DeTurck right-hand side makes one geometry pass per evaluation: the
model derives g^{-1}, Gamma(g) and Ricci once, component-major (see
``geometry``), and both Ricci and the gauge field V read them; the
background's Gamma(h) is derived once per ``make_metric_rhs``.  A sampled
state's geometry is derived once too: its diagnostics read the working
model, whose fields the next step's first stage reuses, and the trajectory
stores a twin (``geometry.twin``), so stored states carry metrics only.

``MetricInterpolant`` (the metric in time, for the gauge stage and the
reparametrization) is a not-a-knot cubic spline written here rather than
``scipy.interpolate.CubicSpline``, so those paths load no scipy.  Its slope
solve is Thomas elimination: on the knots ``run_flow`` writes (uniform
steps, the last interval possibly shorter) LAPACK ``dgtsv``, which scipy
calls, swaps no rows and makes the same floats, so a flow's interpolated
metrics are scipy's bitwise.  The gauge discrepancy, near 1e-4 from O(1)
entries, would show a last-bit change in a slope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import entropy, gauge, geometry
from .errors import NumericalFailureError, RejectedInputError, StepRejectedError
from .geometry import FrameModel, GridModel

CFL_FACTOR = 0.2
MAX_HALVINGS = 8


@dataclass(frozen=True)
class FlowState:
    """Immutable snapshot of an evolving geometry: its time and its metric."""

    t: float
    model: object


@dataclass
class Trajectory:
    """Time-ordered flow states plus per-sample diagnostics, of one flow at one
    ``tau`` (``inf``: the unnormalized flow)."""

    convention: str
    tau: float
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
    """Cubic-in-time interpolant of a trajectory's metric coefficients.

    Four or more samples give the not-a-knot cubic spline of
    ``_not_a_knot_coefficients``; fewer give piecewise-linear interpolation
    with ``np.interp``'s arithmetic.  Times outside the samples are clipped
    to the first or last one.
    """

    def __init__(self, traj: Trajectory):
        times = traj.times
        series = traj.metric_series()
        self._template = traj.states[0].model
        self._shape = series.shape[1:]
        self._times = times
        flat = series.reshape(len(times), -1)
        if len(times) >= 4:
            self._coef, self._flat = _not_a_knot_coefficients(times, flat), None
        else:
            self._coef, self._flat = None, flat

    def __call__(self, t: float):
        x, y = self._times, self._flat
        t = np.clip(t, x[0], x[-1])
        j = int(np.searchsorted(x, t, "right")) - 1
        if self._coef is not None:
            j = min(j, len(x) - 2)
            c0, c1, c2, c3 = self._coef[:, j]
            s = t - x[j]
            flat = (((0.0 + c3) + c2 * s) + c1 * (s * s)) + c0 * ((s * s) * s)
        elif j == len(x) - 1 or t == x[j]:
            flat = y[j].copy()
        else:
            slope = (y[j + 1] - y[j]) / (x[j + 1] - x[j])
            flat = slope * (t - x[j]) + y[j]
        return _with_metric(self._template, flat.reshape(self._shape))


def _not_a_knot_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Power-basis coefficients ``c[k, i, col]`` of the not-a-knot cubic
    spline through the columns of ``y`` (one row per knot ``x``, at least 4).

    On ``[x_i, x_{i+1}]`` the spline is
    ``c[3] + c[2] s + c[1] s^2 + c[0] s^3`` with ``s = t - x_i``.  The knot
    slopes solve the banded system of ``scipy.interpolate.CubicSpline`` by
    Thomas elimination, LAPACK ``dgtsv``'s (which ``solve_banded`` calls for
    one band each side) wherever it swaps no rows, as on ``run_flow``'s knots.
    """
    n = len(x)
    h = np.diff(x)
    hc = h[:, None]
    slope = np.diff(y, axis=0) / hc
    # row i: dl[i-1] s_{i-1} + d[i] s_i + du[i] s_{i+1} = b[i]
    d = np.empty(n)
    du = np.empty(n - 1)
    dl = np.empty(n - 1)
    b = np.empty_like(y)
    d[1:-1] = 2 * (h[:-1] + h[1:])
    du[1:] = h[:-1]
    dl[:-1] = h[1:]
    b[1:-1] = 3 * (hc[1:] * slope[:-1] + hc[:-1] * slope[1:])
    # not-a-knot: the third derivative is continuous at x_1 and x_{n-2}
    w = x[2] - x[0]
    d[0], du[0] = h[1], w
    b[0] = ((h[0] + 2 * w) * h[1] * slope[0] + (h[0] * h[0]) * slope[1]) / w
    w = x[-1] - x[-3]
    d[-1], dl[-1] = h[-2], w
    b[-1] = ((h[-1] * h[-1]) * slope[-2] + (2 * w + h[-1]) * h[-2] * slope[-1]) / w

    # Thomas elimination: on run_flow's knots dgtsv pivots on the diagonal
    # of every row, so these are its operations and its floats
    for i in range(n - 1):
        fact = dl[i] / d[i]
        d[i + 1] = d[i + 1] - fact * du[i]
        b[i + 1] = b[i + 1] - fact * b[i]
    s = b
    s[-1] = s[-1] / d[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (s[i] - du[i] * s[i + 1]) / d[i]

    t = (s[:-1] + s[1:] - 2 * slope) / hc
    return np.stack((t / hc, (slope - s[:-1]) / hc - t, s[:-1], y[:-1]))


# ---------------------------------------------------------------------------
# right-hand sides


def rhs_tau_flow(model, tau: float):
    """Metric velocity -2 Ric(g) + g / tau of the fixed-tau normalized flow;
    ``tau = inf`` is the unnormalized flow (no g/tau term)."""
    if not (tau > 0):
        raise RejectedInputError("tau must be positive (or inf)")
    out = rhs_unnormalized(model)
    if tau < np.inf:
        out = out + _metric_array(model) / tau
    return out


def rhs_unnormalized(model):
    """Metric velocity -2 Ric(g) of the unnormalized flow."""
    return -2.0 * model.ric


def rhs_deturck(m: GridModel, h: GridModel, tau: float):
    """Metric velocity of the gauge-fixed flow: -2 Ric + g/tau + L_V g.

    L_V g = nabla_i V_j + nabla_j V_i (w.r.t. g), with V from
    ``gauge.deturck_vector``.  ``tau = inf`` gives the unnormalized variant
    (no g/tau term).
    """
    out = -2.0 * m.ric_cm + geometry.lie_derivative_metric(m, gauge.deturck_vector(m, h))
    if tau < np.inf:
        out = out + m.g_cm / tau
    return geometry.node_major(out, 2)


def make_metric_rhs(variant: str, tau: float, background: Optional[GridModel] = None) -> Callable:
    """Build a metric-velocity callable for a named flow variant."""
    if variant == "tau":
        return lambda model: rhs_tau_flow(model, tau)
    if variant == "deturck":
        if background is None:
            raise RejectedInputError("deturck flow needs a reference background")
        background.gamma_cm  # derive Gamma(h) now, once for every evaluation
        return lambda model: rhs_deturck(model, background, tau)
    raise RejectedInputError(f"unknown flow variant {variant!r}")


# ---------------------------------------------------------------------------
# time stepping


def rk4(f: Callable, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of the array ``y``.

    ``f(c, y)`` returns the velocity of ``y`` at the stage whose time is a
    fraction ``c`` (0, 1/2, 1/2, 1) of the step.
    """
    k1 = f(0.0, y)
    k2 = f(0.5, y + 0.5 * dt * k1)
    k3 = f(0.5, y + 0.5 * dt * k2)
    k4 = f(1.0, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def cfl_bound(model) -> float:
    """Parabolic step bound 0.2 h^2 min eig(g) (= 0.2 h^2 / max eig(g^{-1}));
    inf for frame ODEs."""
    if isinstance(model, FrameModel):
        return np.inf
    h_min = float(np.min(model.spacings))
    return CFL_FACTOR * h_min**2 * model.min_eig


def step(state: FlowState, metric_rhs: Callable, dt: float) -> FlowState:
    """One classical RK4 step of the metric.

    A stage or result metric outside the SPD cone raises ``StepRejectedError``
    so the caller can halve dt: a frame coefficient <= 0, a stage metric too
    singular to invert, a grid stage metric with a leading principal minor
    <= 0 at some node (``geometry.leading_minors_positive``, checked after
    the stage's velocity, so that a singular stage is reported as such), or
    a result metric that fails ``validate_spd``.
    """
    bound = cfl_bound(state.model)
    if dt > bound:
        raise StepRejectedError(f"step from t = {state.t}: dt = {dt} exceeds the CFL "
                                f"bound {bound:.3e}")

    def model_at(arr, validate=False):
        try:
            return _with_metric(state.model, arr, validate=validate)
        except RejectedInputError as exc:
            raise StepRejectedError(
                f"step to t = {state.t + dt} left the SPD cone: {exc}") from exc

    def velocity(c, y):
        # the first stage is the state itself, whose geometry its sample derived
        model = state.model if c == 0.0 else model_at(y)
        out = metric_rhs(model)
        if isinstance(model, GridModel) and not geometry.leading_minors_positive(model):
            raise StepRejectedError(f"step to t = {state.t + dt}: the stage metric at "
                                    f"t = {state.t + c * dt} is not positive definite")
        return out

    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed stage fails the checks
            y1 = rk4(velocity, _metric_array(state.model), dt)
    except np.linalg.LinAlgError as exc:
        raise StepRejectedError(
            f"step to t = {state.t + dt} met a singular stage metric: {exc}") from exc
    return FlowState(t=state.t + dt, model=model_at(y1, validate=True))


def _check_potential(state: FlowState, tau: float) -> None:
    """``entropy.constant_potential`` of ``state`` for its ``NumericalFailureError``
    alone, which is raised again naming the state's time."""
    try:
        entropy.constant_potential(state.model, tau)
    except NumericalFailureError as exc:
        raise NumericalFailureError(f"the potential at t={state.t:.6g}: {exc}") from exc


def step_count(t_end: float, dt: float) -> int:
    """The number of steps of ``dt`` in ``t_end``; ``RejectedInputError``
    unless it is finite and whole to 1e-9 relative."""
    steps = t_end / dt
    if not np.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
        raise RejectedInputError(f"t_end = {t_end!r} is not a whole number of steps of "
                                 f"dt = {dt!r} (t_end / dt = {steps!r})")
    return int(round(steps))


def run_flow(model0, variant: str, tau: float, dt: float, t_end: float,
             background: Optional[GridModel] = None,
             couple_f: bool = False, sample_every: int = 1) -> Trajectory:
    """Drive ``step`` from t = 0 to ``t_end``, recording states and diagnostics.

    ``t_end`` must be a whole number of steps (``step_count``).  On step
    rejection dt is halved (up to ``MAX_HALVINGS`` times); rejection
    past that limit propagates.  Diagnostics per sample: scalar curvature
    range, metric deviation from the background (if given), and the entropy
    record of a coupled run, which checks the potential of every state it
    reaches (``_check_potential``).  ``couple_f`` is rejected unless tau is
    finite and positive, and on a ``GridModel``, where the forward potential
    equation is a backward heat equation.
    """
    if couple_f and not 0 < tau < np.inf:
        raise RejectedInputError(f"the coupled potential needs a finite positive tau, got {tau!r}")
    if couple_f and isinstance(model0, GridModel):
        raise RejectedInputError("on a grid the coupled potential would solve a backward "
                                 "heat equation")
    n_steps = step_count(t_end, dt)
    metric_rhs = make_metric_rhs(variant, tau, background)
    state = FlowState(t=0.0, model=model0)
    if couple_f:
        _check_potential(state, tau)
    traj = Trajectory(convention=variant, tau=tau)
    _sample(traj, state, background, couple_f)
    for i in range(1, n_steps + 1):
        for halvings in range(MAX_HALVINGS + 1):  # dt / 2**halvings is exact
            try:
                sub = state
                for _ in range(2**halvings):
                    sub = step(sub, metric_rhs, dt / 2**halvings)
                break
            except StepRejectedError:
                if halvings == MAX_HALVINGS:
                    raise
        state = sub
        if couple_f:
            _check_potential(state, tau)
        if i % sample_every == 0 or i == n_steps:
            _sample(traj, state, background, couple_f)
    return traj


def _sample(traj: Trajectory, state: FlowState, background, coupled: bool) -> None:
    """Append a twin of ``state``, with the diagnostics of ``state`` itself: of
    a ``coupled`` run also its entropy record at the trajectory's tau."""
    diag = {}
    model = state.model
    R = geometry.scalar_curvature(model)
    diag["scalar_curvature_range"] = [float(np.min(R)), float(np.max(R))]
    if background is not None and isinstance(model, GridModel):
        dev = model.g - background.g
        rep = geometry.norms(model, dev)
        diag["deviation_l2"] = rep.l2
        diag["deviation_sup"] = rep.sup
    if coupled:
        rec = entropy.entropy_record(model, traj.tau, state.t)
        diag["entropy"] = {"W": rec.W, "defect_l2": rec.defect_l2}
    traj.append(FlowState(t=state.t, model=geometry.twin(model)), diag)


# ---------------------------------------------------------------------------
# reparametrization from a finite tau to tau = inf


def reparametrize(traj: Trajectory, tau: float) -> Trajectory:
    """Translate a tau-flow trajectory at a finite ``tau`` to the unnormalized
    flow: the tau-flow at tau = inf.

    Uses ``c(s) = 1 - s/tau``, ``t(s) = -tau log(1 - s/tau)`` and
    ``g~(s) = c(s) g(t(s))`` with cubic interpolation of the metric in t, at
    the images ``s = tau (1 - e^{-t/tau})`` of the sample times.  Requires
    ``s < tau``, which fails in floating point once t exceeds about 37 tau.
    """
    if traj.convention != "tau" or not np.isfinite(tau) or traj.tau != tau:
        raise RejectedInputError("reparametrize expects a tau-flow trajectory at this finite tau")
    interp = MetricInterpolant(traj)
    s_samples = tau * (1.0 - np.exp(-traj.times / tau))
    if np.any(s_samples >= tau):
        raise RejectedInputError("reparametrization requires s < tau")
    out = Trajectory(convention="tau", tau=np.inf)
    for s in s_samples:
        c = 1.0 - s / tau
        t = -tau * np.log(c)
        model = interp(t)
        model = _with_metric(model, c * _metric_array(model))
        out.append(FlowState(t=float(s), model=model), {})
    return out

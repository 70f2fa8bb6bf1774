"""Gauge machinery: reference-background vector field, harmonic-map heat flow,
the particle ODE for the diffeomorphism, pullbacks, and the equivalence audit.

Diffeomorphisms of the torus are stored as periodic displacement fields F
with phi(x) = x + F(x).  The reference background h is always a constant
(flat) metric in these coordinates, so its Christoffel symbols vanish and
the map Laplacian needs no target-connection terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import flows, geometry
from .errors import GaugeBreakdownError, NonConvergenceError, RejectedInputError
from .geometry import GridModel


# ---------------------------------------------------------------------------
# displacement fields and interpolation


def coords_array(m: GridModel) -> np.ndarray:
    """Node coordinates stacked into shape dims + (n,)."""
    return np.stack(m.coords(), axis=-1)


def interp_periodic(values: np.ndarray, points: np.ndarray, dims, period) -> np.ndarray:
    """Periodic multilinear interpolation of a grid field at physical points.

    ``values`` has shape dims + comp_shape, ``points`` shape (...) + (n,);
    the result has shape (...) + comp_shape.
    """
    n = len(dims)
    comp_ndim = values.ndim - n
    base_idx, frac = [], []
    for ax in range(n):
        h = period[ax] / dims[ax]
        x = points[..., ax] / h
        i0 = np.floor(x).astype(int)
        frac.append(x - i0)
        base_idx.append(np.mod(i0, dims[ax]))
    out = None
    for corner in itertools.product((0, 1), repeat=n):
        w = np.ones_like(frac[0])
        ind = []
        for ax in range(n):
            ind.append(np.mod(base_idx[ax] + corner[ax], dims[ax]))
            w = w * (frac[ax] if corner[ax] else 1.0 - frac[ax])
        vals = values[tuple(ind)]
        w = w.reshape(w.shape + (1,) * comp_ndim)
        out = w * vals if out is None else out + w * vals
    return out


@dataclass(frozen=True)
class DiffeoField:
    """A torus diffeomorphism phi(x) = x + F(x) with its reference background."""

    F: np.ndarray
    h: GridModel

    def jacobian(self) -> np.ndarray:
        """J[..., k, i] = d_i phi^k = delta_ki + d_i F^k."""
        dF = geometry.partials(self.h, self.F)  # [..., k, i]
        return np.eye(self.h.n) + dF

    def min_jacobian_det(self) -> float:
        return float(np.min(np.linalg.det(self.jacobian())))

    def is_injective(self) -> bool:
        """Injectivity proxy: positive Jacobian determinant everywhere and a
        displacement smaller than half the minimal period."""
        if self.min_jacobian_det() <= 0.0:
            return False
        return float(np.max(np.abs(self.F))) < 0.5 * min(self.h.period)


@dataclass(frozen=True)
class EnergyRecord:
    """Sup of the gauge energy density and the total energy at one time."""

    t: float
    e_sup: float
    E: float


# ---------------------------------------------------------------------------
# gauge vector field and standard form


def deturck_vector(g: GridModel, h: GridModel) -> np.ndarray:
    """V^k = g^{pq} (Gamma^k_pq(g) - Gamma^k_pq(h))."""
    return np.einsum("...pq,...kpq->...k", g.ginv, g.gamma - h.gamma)


def p_operator(g: GridModel, h: GridModel) -> np.ndarray:
    """Standard-form gauge term nabla_i V_j + nabla_j V_i (w.r.t. g)."""
    return geometry.lie_derivative_metric(g, deturck_vector(g, h))


# ---------------------------------------------------------------------------
# harmonic-map heat flow for the displacement


def harmonic_map_rhs(F: np.ndarray, g: GridModel, h: GridModel) -> np.ndarray:
    """Map-Laplacian velocity of F = phi - Id for a flat target background.

    rhs^k = g^{ij} (d2_ij F^k - Gamma^l_ij(g) d_l F^k) + g^{ij} (Gamma^k_ij(h)
    - Gamma^k_ij(g)); the last term is the forcing that vanishes when g = h.
    """
    geometry.require_flat(h)
    ginv, gamma = g.ginv, g.gamma
    hess = geometry.hessian(g, F)  # [..., k, i, j]
    lap = np.einsum("...ij,...kij->...k", ginv, hess)
    dF = geometry.partials(g, F)  # [..., k, l]
    lap -= np.einsum("...ij,...lij,...kl->...k", ginv, gamma, dF)
    forcing = -np.einsum("...ij,...kij->...k", ginv, gamma)
    return lap + forcing


@dataclass
class GaugeTrajectory:
    """Time series of displacement fields with per-step energy records."""

    h: GridModel
    times: list = field(default_factory=list)
    F: list = field(default_factory=list)
    energy: list = field(default_factory=list)


def run_harmonic_gauge(g_of_t, h: GridModel, F0: np.ndarray, t0: float, t1: float,
                       dt: float) -> GaugeTrajectory:
    """Integrate the displacement heat flow driven by an evolving metric.

    ``g_of_t`` maps a time to a GridModel (e.g. a MetricInterpolant).  RK4 in
    time; ``g_of_t`` is called once per distinct time (step ends and
    midpoints), so the stages and the energy record that use one metric share
    its derived fields.  The injectivity proxy is checked after every step and
    a failure raises ``GaugeBreakdownError`` with the breakdown time.
    ``t1 - t0`` must be a whole number of steps (``flows.step_count``).
    """
    geometry.require_flat(h)
    traj = GaugeTrajectory(h=h)
    F = np.array(F0, dtype=float)
    t = t0
    n_steps = flows.step_count(t1 - t0, dt)

    def record(t, F, g):
        e = energy_density(F, g, h)
        traj.times.append(float(t))
        traj.F.append(F.copy())
        traj.energy.append(EnergyRecord(t=float(t), e_sup=float(np.max(e)),
                                        E=_integrate(e, g)))

    def velocity(c, y):
        return (harmonic_map_rhs(y[0], stages[c], h),)

    now = g_of_t(t)
    record(t, F, now)
    for _ in range(n_steps):
        # the metrics at the stage fractions c = 0, 1/2, 1 of this step
        stages = {0.0: now, 0.5: g_of_t(t + 0.5 * dt), 1.0: g_of_t(t + dt)}
        F, = flows.rk4(velocity, (F,), dt)
        t += dt
        if not DiffeoField(F=F, h=h).is_injective():
            raise GaugeBreakdownError(f"gauge lost injectivity at t = {t}", time=t)
        now = stages[1.0]
        record(t, F, now)
    return traj


# ---------------------------------------------------------------------------
# the particle ODE d psi / dt = -V o psi


def integrate_diffeo_ode(times, v_series, S0: np.ndarray, grid: GridModel) -> GaugeTrajectory:
    """Per-node RK4 for the displacement S of psi(x) = x + S(x).

    ``v_series`` holds the driving vector field sampled at ``times``; values
    between samples are linear in t and multilinear (periodic) in space.
    """
    times = np.asarray(times, dtype=float)
    x0 = coords_array(grid)
    period = np.array(grid.period)

    def v_at(t, pts):
        i = int(np.clip(np.searchsorted(times, t) - 1, 0, len(times) - 2))
        t0, t1 = times[i], times[i + 1]
        w = 0.0 if t1 == t0 else np.clip((t - t0) / (t1 - t0), 0.0, 1.0)
        v = (1.0 - w) * v_series[i] + w * v_series[i + 1]
        return interp_periodic(v, np.mod(pts, period), grid.dims, grid.period)

    traj = GaugeTrajectory(h=grid)
    S = np.array(S0, dtype=float)
    traj.times.append(float(times[0]))
    traj.F.append(S.copy())
    for i in range(len(times) - 1):
        t, dt = times[i], times[i + 1] - times[i]
        S, = flows.rk4(lambda c, y: (-v_at(t + c * dt, x0 + y[0]),), (S,), dt)
        traj.times.append(float(times[i + 1]))
        traj.F.append(S.copy())
    return traj


# ---------------------------------------------------------------------------
# energy of the displacement


def energy_density(F: np.ndarray, g: GridModel, h: GridModel) -> np.ndarray:
    """e = g^{ij} h_kl d_i F^k d_j F^l, the gauge-displacement energy density."""
    dF = geometry.partials(g, F)  # [..., k, i]
    ginv, hg = g.ginv, h.g
    # summed over k, i, l, j in that order: bitwise einsum("...ij,...kl,...ki,...lj->...")
    return sum(ginv[..., i, j] * hg[..., k, l] * dF[..., k, i] * dF[..., l, j]
               for k, i, l, j in itertools.product(range(g.n), repeat=4))


def total_energy(F: np.ndarray, g: GridModel, h: GridModel) -> float:
    """E = int e dV_g by midpoint quadrature."""
    return _integrate(energy_density(F, g, h), g)


def _integrate(e: np.ndarray, g: GridModel) -> float:
    """Midpoint quadrature of a scalar field against dV_g."""
    return float(np.sum(e * g.sqrt_det) * np.prod(g.spacings))


# ---------------------------------------------------------------------------
# pullback, inversion, and the divergence gauge condition


def pullback_metric(F: np.ndarray, g: GridModel) -> GridModel:
    """(phi^* g)_ij(x) = d_i phi^k d_j phi^l g_kl(phi(x)) for phi = Id + F."""
    n = g.n
    dF = geometry.partials(g, F)  # [..., k, i]
    J = np.eye(n) + np.swapaxes(dF, -1, -2)  # J[..., i, k] = d_i phi^k
    pts = np.mod(coords_array(g) + F, np.array(g.period))
    g_at = interp_periodic(g.g, pts, g.dims, g.period)
    out = np.einsum("...ik,...jl,...kl->...ij", J, J, g_at)
    return g.with_metric(0.5 * (out + np.swapaxes(out, -1, -2)), validate=False)


def invert_diffeo(F: np.ndarray, grid: GridModel, max_iter: int = 100) -> np.ndarray:
    """Displacement G of the inverse map: (Id + F) o (Id + G) = Id.

    Fixed-point iteration; raises ``NonConvergenceError`` (carrying the last
    iterate) if the update does not drop below 1e-13 in ``max_iter`` sweeps.
    """
    x0 = coords_array(grid)
    period = np.array(grid.period)
    G, delta = -F.copy(), np.inf
    for _ in range(max_iter):
        G_new = -interp_periodic(F, np.mod(x0 + G, period), grid.dims, grid.period)
        delta = float(np.max(np.abs(G_new - G)))
        G = G_new
        if delta < 1e-13:
            return G
    raise NonConvergenceError(f"diffeomorphism inversion stalled at update {delta:.3e}",
                              last_iterate=G)


def _solve_background_divergence(h: GridModel, rhs: np.ndarray) -> np.ndarray:
    """Solve delta_h(L_X h) = rhs for the vector field X on a flat background.

    Fourier solve with the central-difference symbols so the solution inverts
    the discrete operator; null (Nyquist/constant) modes are dropped.
    """
    geometry.require_flat(h)
    n = h.n
    H = h.g.reshape(-1, n, n)[0]
    Hinv = np.linalg.inv(H)
    dims = h.dims
    hs = h.spacings
    kappa = np.meshgrid(*[np.sin(2.0 * np.pi * np.fft.fftfreq(d)) / hsx
                          for d, hsx in zip(dims, hs)], indexing="ij")
    kappa = np.stack(kappa, axis=-1)  # dims + (n,)
    rhat = np.stack([np.fft.fftn(rhs[..., j]) for j in range(n)], axis=-1)
    quad = np.einsum("...i,ij,...j->...", kappa, Hinv, kappa)
    A = np.einsum("...j,...l->...jl", kappa, kappa) + quad[..., None, None] * H
    mask = np.einsum("...i,...i->...", kappa, kappa) > 1e-12
    xhat = np.zeros_like(rhat)
    idx = np.where(mask)
    xhat[idx] = np.linalg.solve(A[idx], rhat[idx][..., None])[..., 0]
    return np.stack([np.real(np.fft.ifftn(xhat[..., l])) for l in range(n)], axis=-1)


def divergence_gauge_fix(g: GridModel, h: GridModel) -> DiffeoField:
    """Find phi near Id with delta_{phi^* h}(g) = 0 by fixed-point iteration.

    Each sweep solves the flat linearized system for a displacement update
    and re-measures the divergence against the pulled-back background.
    Raises ``NonConvergenceError`` (carrying the last iterate) if the
    residual does not drop below 1e-8 in 40 sweeps.
    """
    geometry.require_flat(h)
    X = np.zeros(h.dims + (h.n,))
    for _ in range(40):
        b = pullback_metric(X, h) if np.any(X) else h
        r = geometry.divergence(b, g.g)
        res = geometry.norms(b, r, index="lower").l2
        if res < 1e-8:
            return DiffeoField(F=X, h=h)
        X = X + _solve_background_divergence(h, r)
    raise NonConvergenceError(
        f"divergence gauge fix stalled at residual {res:.3e}",
        last_iterate=DiffeoField(F=X, h=h))


def gauge_residual(g: GridModel, phi: DiffeoField) -> float:
    """L2 norm of delta_{phi^* h}(g), the gauge condition being enforced."""
    b = pullback_metric(phi.F, phi.h) if np.any(phi.F) else phi.h
    return geometry.norms(b, geometry.divergence(b, g.g), index="lower").l2


# ---------------------------------------------------------------------------
# equivalence audit


def gauge_equivalence_check(ricci_traj, deturck_traj, gauge_traj: GaugeTrajectory) -> np.ndarray:
    """Sup-norm discrepancy pullback(phi^-1, g_ricci) vs g_deturck per sample.

    The three trajectories must share sample times.  At t0 the discrepancy
    is zero by construction; afterwards it measures the combined spatial,
    temporal, and interpolation error of the gauge transport.
    """
    errs = []
    for i, t in enumerate(gauge_traj.times):
        g_r = ricci_traj.states[i].model
        g_d = deturck_traj.states[i].model
        if not (np.isclose(ricci_traj.states[i].t, t)
                and np.isclose(deturck_traj.states[i].t, t)):
            raise RejectedInputError("trajectories are not sampled at matching times")
        Finv = invert_diffeo(gauge_traj.F[i], gauge_traj.h)
        pulled = pullback_metric(Finv, g_r)
        errs.append(float(np.max(np.abs(pulled.g - g_d.g))))
    return np.array(errs)

"""Gauge machinery: reference-background vector field, the harmonic-map heat
flow that evolves the diffeomorphism, pullbacks and inversion, the divergence
gauge fix, and the equivalence audit.

A torus diffeomorphism phi = Id + F is a plain array F of periodic
displacements (shape dims + (n,)), passed with the background h it lives
on; a gauge run keeps one per step from t = 0, as a flow does, and reads its
times off its energy records.  The reference background h is always a
constant (flat) metric in these coordinates, so its Christoffel symbols
vanish and the map Laplacian needs no target-connection terms.

F, and every field a function here takes or returns, is node-major.  Inside,
the gauge flow's step kernels (``harmonic_map_rhs``, ``energy_density``,
``is_injective``) and ``pullback_metric`` work on component-major planes
(``g_cm``, ``ginv_cm``, ``gamma_cm`` and the partials of F; see
``geometry``), and add their products in the order einsum adds them, so
they return the bits of their node-major einsum spellings.  A 2-D gauge run
derives no node-major ``ginv`` or ``gamma``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import flows, geometry
from .errors import GaugeBreakdownError, NonConvergenceError, RejectedInputError
from .geometry import GridModel

INVERT_MAX_ITER = 100


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


def is_injective(F: np.ndarray, h: GridModel) -> bool:
    """Injectivity proxy for phi = Id + F: det(I + dF) > 0 at every node and
    a displacement smaller than half the minimal period of ``h``.  The
    determinant is a closed form, of which only the sign is read."""
    J = _jacobian_cm(F, h)
    if h.n == 2:
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    else:
        det = (J[0, 0] * (J[1, 1] * J[2, 2] - J[1, 2] * J[2, 1])
               - J[0, 1] * (J[1, 0] * J[2, 2] - J[1, 2] * J[2, 0])
               + J[0, 2] * (J[1, 0] * J[2, 1] - J[1, 1] * J[2, 0]))
    if float(np.min(det)) <= 0.0:
        return False
    return float(np.max(np.abs(F))) < 0.5 * min(h.period)


def _jacobian_cm(F: np.ndarray, m: GridModel) -> np.ndarray:
    """J[i, k] = d_i phi^k of phi = Id + F, component-major: bitwise the
    node-major ``np.eye(n) + swapaxes(partials(m, F))``."""
    dF = geometry.partials_cm(m, geometry.component_major(F, 1))  # dF[i, k] = d_i F^k
    return np.eye(m.n).reshape((m.n, m.n) + (1,) * m.n) + dF


@dataclass(frozen=True)
class EnergyRecord:
    """Sup of the gauge energy density and the total energy at one time."""

    t: float
    e_sup: float
    E: float


# ---------------------------------------------------------------------------
# gauge vector field and standard form


def deturck_vector(g: GridModel, h: GridModel) -> np.ndarray:
    """V^k = g^{pq} (Gamma^k_pq(g) - Gamma^k_pq(h)), component-major.

    Bitwise ``einsum("...pq,...kpq->...k")`` of the node-major fields: in 2-D
    its SIMD lanes add (p, q) = (0, 0), (1, 0) and (0, 1), (1, 1) apart; its
    order for the 9 products of 3-D is not matched, so there it runs itself.
    """
    if g.n == 2:
        x = g.ginv_cm * (g.gamma_cm - h.gamma_cm)  # x[k, p, q]
        return geometry.lane_sum([x[:, 0, 0], x[:, 0, 1], x[:, 1, 0], x[:, 1, 1]])
    v = np.einsum("...pq,...kpq->...k", g.ginv, g.gamma - h.gamma)
    return geometry.component_major(v, 1)


# ---------------------------------------------------------------------------
# harmonic-map heat flow for the displacement


def harmonic_map_rhs(F: np.ndarray, g: GridModel, h: GridModel) -> np.ndarray:
    """Map-Laplacian velocity of F = phi - Id for a flat target background.

    rhs^k = g^{ij} (d2_ij F^k - Gamma^l_ij(g) d_l F^k) + g^{ij} (Gamma^k_ij(h)
    - Gamma^k_ij(g)); the last term is the forcing that vanishes when g = h.
    Bitwise the node-major spelling: einsum("...ij,...kij->...k") for the
    g^{ij} d2_ij F^k term and the forcing (in 2-D their ``lane_sum``, as in
    ``deturck_vector``), and einsum("...ij,...lij,...kl->...k") for the
    connection term, whose products (g^{ij} Gamma^l_ij) d_l F^k go over
    (l, i, j) row-major (``_einsum_sum``).
    """
    geometry.require_flat(h)
    n = g.n
    f = geometry.component_major(F, 1)  # f[k] = F^k
    dF = geometry.partials_cm(g, f)  # dF[l, k] = d_l F^k
    hess = geometry.hessian(g, f)  # hess[i, j, k] = d_i d_j F^k
    q = g.ginv_cm * g.gamma_cm  # q[l, i, j] = g^{ij} Gamma^l_ij
    pairs = list(itertools.product(range(n), repeat=2))
    conn = _einsum_sum([[q[l, i, j] * dF[l] for i, j in pairs] for l in range(n)], n)
    if n == 2:
        lap = geometry.lane_sum([g.ginv_cm[i, j] * hess[i, j] for i, j in pairs])
        forcing = geometry.lane_sum([q[:, i, j] for i, j in pairs])
    else:
        hess = geometry.node_major(np.moveaxis(hess, 2, 0), 3)  # [..., k, i, j]
        lap = geometry.component_major(np.einsum("...ij,...kij->...k", g.ginv, hess), 1)
        forcing = geometry.component_major(np.einsum("...ij,...kij->...k", g.ginv, g.gamma), 1)
    return geometry.node_major(lap - conn - forcing, 1)


def _einsum_sum(rows: list, n: int) -> np.ndarray:
    """The sum of the products ``rows[a][b]`` of a three-operand contraction
    over n-dimensional component axes, added from +0.0 in the order that
    numpy 2.4's ``einsum`` adds them (the bitwise tests check it): in 2-D
    each row adds its own sum from +0.0, in 3-D one running sum goes over
    (a, b) row-major."""
    if n == 2:
        return sum((sum(row, 0.0) for row in rows), 0.0)
    return sum((t for row in rows for t in row), 0.0)


@dataclass
class GaugeTrajectory:
    """Time series of displacement fields with per-step energy records."""

    h: GridModel
    F: list = field(default_factory=list)
    energy: list = field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return np.array([e.t for e in self.energy])


def run_harmonic_gauge(g_of_t, h: GridModel, F0: np.ndarray, t_end: float,
                       dt: float) -> GaugeTrajectory:
    """Integrate from t = 0 the displacement heat flow driven by an evolving metric.

    ``g_of_t`` maps a time to a GridModel (e.g. a MetricInterpolant).  RK4 in
    time; ``g_of_t`` is called once per distinct time (step ends and
    midpoints), so the stages and the energy record that use one metric share
    its derived fields.  The injectivity proxy is checked after every step and
    a failure raises ``GaugeBreakdownError`` with the breakdown time.
    ``t_end`` must be a whole number of steps (``flows.step_count``).
    """
    geometry.require_flat(h)
    traj = GaugeTrajectory(h=h)
    F = np.array(F0, dtype=float)
    t = 0.0
    n_steps = flows.step_count(t_end, dt)

    def record(t, F, g):
        e = energy_density(F, g, h)
        traj.F.append(F.copy())
        traj.energy.append(EnergyRecord(t=float(t), e_sup=float(np.max(e)),
                                        E=_integrate(e, g)))

    def velocity(c, y):
        return harmonic_map_rhs(y, stages[c], h)

    now = g_of_t(t)
    record(t, F, now)
    for _ in range(n_steps):
        # the metrics at the stage fractions c = 0, 1/2, 1 of this step
        stages = {0.0: now, 0.5: g_of_t(t + 0.5 * dt), 1.0: g_of_t(t + dt)}
        F = flows.rk4(velocity, F, dt)
        t += dt
        if not is_injective(F, h):
            raise GaugeBreakdownError(f"gauge lost injectivity at t = {t}", time=t)
        now = stages[1.0]
        record(t, F, now)
    return traj


# ---------------------------------------------------------------------------
# energy of the displacement


def energy_density(F: np.ndarray, g: GridModel, h: GridModel) -> np.ndarray:
    """e = g^{ij} h_kl d_i F^k d_j F^l, the gauge-displacement energy density."""
    dF = geometry.partials_cm(g, geometry.component_major(F, 1))  # dF[i, k] = d_i F^k
    ginv, hg = g.ginv_cm, h.g_cm
    # summed over k, i, l, j in that order: bitwise einsum("...ij,...kl,...ki,...lj->...")
    return sum(ginv[i, j] * hg[k, l] * dF[i, k] * dF[j, l]
               for k, i, l, j in itertools.product(range(g.n), repeat=4))


def _integrate(e: np.ndarray, g: GridModel) -> float:
    """Midpoint quadrature of a scalar field against dV_g."""
    return float(np.sum(e * g.sqrt_det) * np.prod(g.spacings))


# ---------------------------------------------------------------------------
# pullback, inversion, and the divergence gauge condition


def pullback_metric(F: np.ndarray, g: GridModel) -> GridModel:
    """(phi^* g)_ij(x) = d_i phi^k d_j phi^l g_kl(phi(x)) for phi = Id + F,
    symmetrized: bitwise the node-major einsum("...ik,...jl,...kl->...ij"),
    whose products (d_i phi^k d_j phi^l) g_kl go over (k, l) row-major
    (``_einsum_sum``)."""
    n = g.n
    J = _jacobian_cm(F, g)  # J[i, k] = d_i phi^k
    pts = np.mod(coords_array(g) + F, np.array(g.period))
    g_at = geometry.component_major(interp_periodic(g.g, pts, g.dims, g.period), 2)
    out = np.empty(g_at.shape)
    for i, j in itertools.product(range(n), repeat=2):
        out[i, j] = _einsum_sum([[J[i, k] * J[j, l] * g_at[k, l] for l in range(n)]
                                 for k in range(n)], n)
    sym = 0.5 * (out + np.swapaxes(out, 0, 1))
    return g.with_metric(geometry.node_major(sym, 2), validate=False)


def invert_diffeo(F: np.ndarray, grid: GridModel) -> np.ndarray:
    """Displacement G of the inverse map: (Id + F) o (Id + G) = Id.

    Fixed-point iteration; raises ``NonConvergenceError`` (carrying the last
    iterate) if the update does not drop below 1e-13 in ``INVERT_MAX_ITER`` sweeps.
    """
    x0 = coords_array(grid)
    period = np.array(grid.period)
    G, delta = -F.copy(), np.inf
    for _ in range(INVERT_MAX_ITER):
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
    n = h.n
    H = h.g.reshape(-1, n, n)[0]
    Hinv = np.linalg.inv(H)
    kappa = np.stack(geometry.d1_symbol(h), axis=-1)  # dims + (n,)
    rhat = np.stack([np.fft.fftn(rhs[..., j]) for j in range(n)], axis=-1)
    quad = np.einsum("...i,ij,...j->...", kappa, Hinv, kappa)
    A = np.einsum("...j,...l->...jl", kappa, kappa) + quad[..., None, None] * H
    mask = np.einsum("...i,...i->...", kappa, kappa) > 1e-12
    xhat = np.zeros_like(rhat)
    idx = np.where(mask)
    xhat[idx] = np.linalg.solve(A[idx], rhat[idx][..., None])[..., 0]
    return np.stack([np.real(np.fft.ifftn(xhat[..., l])) for l in range(n)], axis=-1)


def divergence_gauge_fix(g: GridModel, h: GridModel) -> tuple:
    """Displacement F of phi = Id + F near Id with delta_{phi^* h}(g) = 0, by
    fixed-point iteration, and the ``gauge_residual`` norm it reaches.

    Each sweep measures the divergence against the pulled-back background
    (``gauge_residual``) and solves the flat linearized system for a
    displacement update.  Raises ``NonConvergenceError`` (carrying the last
    iterate) if the residual does not drop below 1e-8 in 40 sweeps.
    """
    geometry.require_flat(h)
    X = np.zeros(h.dims + (h.n,))
    for _ in range(40):
        r, res = gauge_residual(g, X, h)
        if res < 1e-8:
            return X, res
        X = X + _solve_background_divergence(h, r)
    raise NonConvergenceError(f"divergence gauge fix stalled at residual {res:.3e}",
                              last_iterate=X)


def gauge_residual(g: GridModel, F: np.ndarray, h: GridModel) -> tuple:
    """The 1-form delta_{phi^* h}(g) for phi = Id + F, the gauge condition
    enforced, and its L2 norm."""
    b = pullback_metric(F, h) if np.any(F) else h
    r = geometry.divergence(b, g.g)
    return r, geometry.norms(b, r).l2


# ---------------------------------------------------------------------------
# equivalence audit


def gauge_equivalence_check(ricci_traj, deturck_traj, gauge_traj: GaugeTrajectory) -> np.ndarray:
    """Sup-norm discrepancy pullback(phi^-1, g_ricci) vs g_deturck per sample.

    The two flows must share sample times; each sample is paired with the
    entry of the whole gauge run at its time (``np.isclose``), and one with
    no entry is rejected.  At t0 the discrepancy is zero by construction;
    afterwards it measures the combined spatial, temporal, and interpolation
    error of the gauge transport.
    """
    times = gauge_traj.times
    errs = []
    for s_r, s_d in zip(ricci_traj.states, deturck_traj.states, strict=True):
        j = int(np.argmin(np.abs(times - s_r.t)))
        if not (np.isclose(times[j], s_r.t) and np.isclose(s_d.t, s_r.t)):
            raise RejectedInputError("trajectories are not sampled at matching times")
        pulled = pullback_metric(invert_diffeo(gauge_traj.F[j], gauge_traj.h), s_r.model)
        errs.append(float(np.max(np.abs(pulled.g - s_d.model.g))))
    return np.array(errs)

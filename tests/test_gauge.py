"""Gauge transport: interpolation, pullbacks, the displacement flows, and the
equivalence audit between the plain and gauge-fixed metric flows."""

import numpy as np
import pytest

from solitonlab import flows, gauge, geometry
from solitonlab.errors import GaugeBreakdownError, NonConvergenceError, RejectedInputError
from solitonlab.gauge import DiffeoField
from solitonlab.geometry import GridModel

TWO_PI = 2.0 * np.pi


def _flat(n):
    return GridModel.flat(2, (n, n), (TWO_PI, TWO_PI))


def _nonconformal(n, amp=0.05):
    h = _flat(n)
    X, Y = h.coords()
    g = h.g.copy()
    g[..., 0, 0] *= 1.0 + amp * np.sin(X + Y)
    g[..., 1, 1] *= 1.0 + amp * np.cos(X)
    g[..., 0, 1] = g[..., 1, 0] = amp * np.sin(Y)
    return h.with_metric(g)


# ---------------------------------------------------------------------------
# interpolation and pullback


def test_interp_periodic_exact_at_nodes_and_on_linear_profiles():
    m = _flat(16)
    X, Y = m.coords()
    vals = np.sin(X) * np.cos(2 * Y)
    pts = gauge.coords_array(m)
    assert np.allclose(gauge.interp_periodic(vals, pts, m.dims, m.period), vals,
                       atol=1e-14)
    # halfway between nodes a multilinear scheme returns the neighbor average
    h = m.spacings[0]
    shifted = pts.copy()
    shifted[..., 0] += 0.5 * h
    mid = gauge.interp_periodic(vals, shifted, m.dims, m.period)
    avg = 0.5 * (vals + np.roll(vals, -1, axis=0))
    assert np.allclose(mid, avg, atol=1e-13)


def test_interp_periodic_wraps_around():
    m = _flat(8)
    X, _ = m.coords()
    vals = np.sin(X)
    pts = gauge.coords_array(m) + np.array([3 * TWO_PI, -2 * TWO_PI])
    assert np.allclose(gauge.interp_periodic(vals, pts, m.dims, m.period), vals,
                       atol=1e-12)


def test_pullback_identity_is_exact():
    g = _nonconformal(16)
    F = np.zeros(g.dims + (2,))
    assert np.max(np.abs(gauge.pullback_metric(F, g).g - g.g)) < 1e-14


def test_pullback_by_grid_translation_is_a_shift():
    """phi = x + c with c a whole number of cells: (phi^* g)(x) = g(x + c)."""
    g = _nonconformal(16)
    h = g.spacings[0]
    F = np.zeros(g.dims + (2,))
    F[..., 0] = 3 * h
    pulled = gauge.pullback_metric(F, g)
    assert np.max(np.abs(pulled.g - np.roll(g.g, -3, axis=0))) < 1e-13


def test_pullback_matches_analytic_oracle_at_second_order():
    """Flat metric, phi^1 = x + a sin x: (phi^* g)_11 = (1 + a cos x)^2."""
    errs = []
    for n in (32, 64):
        g = _flat(n)
        X, _ = g.coords()
        F = np.zeros(g.dims + (2,))
        F[..., 0] = 0.2 * np.sin(X)
        pulled = gauge.pullback_metric(F, g)
        exact = (1.0 + 0.2 * np.cos(X)) ** 2
        errs.append(np.max(np.abs(pulled.g[..., 0, 0] - exact)))
    assert errs[0] / errs[1] > 3.0  # second-order stencil
    assert errs[1] < 1e-3


def test_invert_diffeo_round_trip():
    g = _flat(32)
    X, Y = g.coords()
    F = np.zeros(g.dims + (2,))
    F[..., 0] = 0.1 * np.sin(X + Y)
    F[..., 1] = 0.05 * np.cos(X)
    G = gauge.invert_diffeo(F, g)
    # psi(phi(x)) = x: G evaluated at x + F must cancel F
    pts = np.mod(gauge.coords_array(g) + F, np.array(g.period))
    comp = F + gauge.interp_periodic(G, pts, g.dims, g.period)
    assert np.max(np.abs(comp)) < 2e-3  # limited by multilinear interpolation
    # and the defining fixed point holds to solver tolerance
    pts_inv = np.mod(gauge.coords_array(g) + G, np.array(g.period))
    fixed = G + gauge.interp_periodic(F, pts_inv, g.dims, g.period)
    assert np.max(np.abs(fixed)) < 1e-12


def test_invert_diffeo_raises_when_it_stalls():
    g = _flat(32)
    X, Y = g.coords()
    F = np.zeros(g.dims + (2,))
    F[..., 0] = 0.1 * np.sin(X + Y)
    with pytest.raises(NonConvergenceError, match="stalled") as info:
        gauge.invert_diffeo(F, g, max_iter=1)
    assert info.value.last_iterate.shape == F.shape


# ---------------------------------------------------------------------------
# injectivity proxy


def test_injectivity_proxy():
    g = _flat(16)
    X, _ = g.coords()
    F = np.zeros(g.dims + (2,))
    F[..., 0] = 0.1 * np.sin(X)
    assert DiffeoField(F=F, h=g).is_injective()
    # folded: d phi/dx changes sign
    F[..., 0] = 1.6 * np.sin(X)
    assert not DiffeoField(F=F, h=g).is_injective()
    # translation past half a period
    F = np.full(g.dims + (2,), 0.6 * TWO_PI)
    assert not DiffeoField(F=F, h=g).is_injective()


# ---------------------------------------------------------------------------
# gauge vector field and harmonic flow


def test_deturck_vector_vanishes_on_background():
    h = _flat(16)
    assert np.max(np.abs(gauge.deturck_vector(h, h))) == 0.0
    g = _nonconformal(16)
    assert np.max(np.abs(gauge.deturck_vector(g, h))) > 1e-3


def test_p_operator_is_symmetric():
    g = _nonconformal(16)
    h = _flat(16)
    p = gauge.p_operator(g, h)  # component-major: p[i, j]
    assert np.max(np.abs(p - np.swapaxes(p, 0, 1))) < 1e-13


def test_harmonic_rhs_zero_on_matching_flat_pair():
    h = _flat(16)
    F = np.zeros(h.dims + (2,))
    assert np.max(np.abs(gauge.harmonic_map_rhs(F, h, h))) == 0.0


def test_harmonic_rhs_rejects_curved_background():
    g = _nonconformal(16)
    F = np.zeros(g.dims + (2,))
    with pytest.raises(RejectedInputError):
        gauge.harmonic_map_rhs(F, g, g)


def _unshared_harmonic_gauge(g_of_t, h, F0, t0, t1, dt):
    """RK4 of the displacement flow with every stage and energy record
    re-evaluating g_of_t and its geometry: the reference for the shared form."""
    traj = gauge.GaugeTrajectory(h=h)
    F, t = np.array(F0, dtype=float), t0

    def record(t, F):
        g = g_of_t(t)
        e = gauge.energy_density(F, g, h)
        traj.times.append(float(t))
        traj.F.append(F.copy())
        traj.energy.append(gauge.EnergyRecord(t=float(t), e_sup=float(np.max(e)),
                                              E=gauge._integrate(e, g)))

    record(t, F)
    for _ in range(int(round((t1 - t0) / dt))):
        k1 = gauge.harmonic_map_rhs(F, g_of_t(t), h)
        k2 = gauge.harmonic_map_rhs(F + 0.5 * dt * k1, g_of_t(t + 0.5 * dt), h)
        k3 = gauge.harmonic_map_rhs(F + 0.5 * dt * k2, g_of_t(t + 0.5 * dt), h)
        k4 = gauge.harmonic_map_rhs(F + dt * k3, g_of_t(t + dt), h)
        F = F + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        record(t, F)
    return traj


def test_harmonic_gauge_evaluates_each_metric_once():
    """One g_of_t call per distinct time (2 n_steps + 1), and the trajectory
    is bitwise that of the form re-evaluating the metric at every use."""
    g0 = _nonconformal(16)
    ricci = flows.run_flow(g0, "tau", np.inf, 0.01, 0.1)
    interp = flows.MetricInterpolant(ricci)
    h = _flat(16)
    X, Y = h.coords()
    F0 = np.stack([0.01 * np.sin(X + Y), 0.02 * np.cos(X)], axis=-1)
    seen = []

    def counting(t):
        seen.append(t)
        return interp(t)

    n_steps = 10
    got = gauge.run_harmonic_gauge(counting, h, F0, 0.0, 0.1, 0.01)
    assert len(seen) == 2 * n_steps + 1
    assert len(set(seen)) == len(seen)
    want = _unshared_harmonic_gauge(interp, h, F0, 0.0, 0.1, 0.01)
    assert got.times == want.times
    assert all(np.array_equal(a, b) for a, b in zip(got.F, want.F))
    assert len(got.F) == len(want.F) == n_steps + 1
    assert got.energy == want.energy


def test_harmonic_flow_decays_displacement_on_flat_pair():
    """With g = h the flow is the plain heat equation: energy decays."""
    h = _flat(16)
    X, _ = h.coords()
    F0 = np.zeros(h.dims + (2,))
    F0[..., 0] = 0.1 * np.sin(X)
    traj = gauge.run_harmonic_gauge(lambda t: h, h, F0, 0.0, 1.0, 0.01)
    E = [e.E for e in traj.energy]
    assert all(e2 < e1 for e1, e2 in zip(E, E[1:]))
    # lowest mode decays at the discrete stencil rate 2 (1 - cos h) / h^2
    hstep = h.spacings[0]
    lam = 2.0 * (1.0 - np.cos(hstep)) / hstep**2
    ratio = np.max(np.abs(traj.F[-1])) / np.max(np.abs(F0))
    assert np.isclose(ratio, np.exp(-lam), rtol=1e-4)


def test_harmonic_flow_ends_at_t1():
    """The flow takes whole steps of dt from t0 to t1; a span that is not a
    whole number of steps is rejected rather than overshot or left untaken."""
    h = _flat(8)
    F0 = np.zeros(h.dims + (2,))
    traj = gauge.run_harmonic_gauge(lambda t: h, h, F0, 0.0, 0.3, 0.1)
    assert len(traj.times) == 4 and abs(traj.times[-1] - 0.3) < 1e-12
    for t1 in (0.55, 0.04):  # 5.5 and 0.4 steps: once rounded to 6 and 0 steps
        with pytest.raises(RejectedInputError, match="not a whole number of steps"):
            gauge.run_harmonic_gauge(lambda t: h, h, F0, 0.0, t1, 0.1)


def test_harmonic_flow_reports_breakdown():
    """An unstable step size blows the displacement up past injectivity."""
    h = _flat(16)
    X, _ = h.coords()
    F0 = np.zeros(h.dims + (2,))
    F0[..., 0] = 0.3 * np.sin(X)
    with pytest.raises(GaugeBreakdownError) as info:
        gauge.run_harmonic_gauge(lambda t: h, h, F0, 0.0, 10.0, 0.5)
    assert info.value.time > 0.0


# ---------------------------------------------------------------------------
# divergence gauge condition


def test_divergence_gauge_fix_reduces_residual():
    g = _nonconformal(16, amp=0.02)
    h = _flat(16)
    before = gauge.gauge_residual(g, DiffeoField(F=np.zeros(h.dims + (2,)), h=h))
    phi = gauge.divergence_gauge_fix(g, h)
    after = gauge.gauge_residual(g, phi)
    assert after < 1e-8
    assert after < 1e-3 * before
    assert phi.is_injective()


# ---------------------------------------------------------------------------
# equivalence audit


def test_gauge_equivalence_small_pipeline():
    """Transporting the plain flow into the gauge-fixed picture reproduces the
    direct gauge-fixed run up to discretization error."""
    h = _flat(12)
    X, Y = h.coords()
    g = h.g.copy()
    amp = 5e-3
    g[..., 0, 0] *= 1.0 + amp * np.sin(X + Y)
    g[..., 1, 1] *= 1.0 + amp * np.cos(X)
    g[..., 0, 1] = g[..., 1, 0] = amp * np.sin(Y)
    model0 = h.with_metric(g)

    dt = 0.5 * flows.cfl_bound(model0)
    t_end = 20 * dt
    ricci = flows.run_flow(model0, "tau", np.inf, dt, t_end, sample_every=5)
    det = flows.run_flow(model0, "deturck", np.inf, dt, t_end,
                         background=h, sample_every=5)
    ginterp = flows.MetricInterpolant(ricci)
    gt = gauge.run_harmonic_gauge(ginterp, h, np.zeros(h.dims + (2,)), 0.0, t_end, dt)
    idx = [int(round(t / dt)) for t in ricci.times]
    sub = gauge.GaugeTrajectory(h=h, times=[gt.times[i] for i in idx],
                                F=[gt.F[i] for i in idx])
    errs = gauge.gauge_equivalence_check(ricci, det, sub)
    assert errs[0] == 0.0
    assert np.max(errs) < 1e-4


def test_gauge_equivalence_rejects_mismatched_times():
    h = _flat(8)
    model0 = h
    traj_a = flows.run_flow(model0, "deturck", np.inf, 0.01, 0.05, background=h)
    traj_b = flows.run_flow(model0, "deturck", np.inf, 0.01, 0.05, background=h,
                            sample_every=5)
    gt = gauge.GaugeTrajectory(h=h, times=[0.0, 0.03],
                               F=[np.zeros(h.dims + (2,))] * 2)
    with pytest.raises(RejectedInputError):
        gauge.gauge_equivalence_check(traj_a, traj_b, gt)


@pytest.mark.parametrize("dims", [(16, 16), (32, 32), (8, 8, 8), (12, 10, 9)],
                         ids=lambda d: "x".join(map(str, d)))
def test_energy_density_equals_its_einsum_spelling_bitwise(dims):
    """The unrolled energy density adds its terms in einsum's order (k, i, l, j)."""
    n = len(dims)
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        a = 0.3 * rng.standard_normal(dims + (n, n))
        g = GridModel(n=n, dims=dims, period=(TWO_PI,) * n,
                      g=np.eye(n) + a @ np.swapaxes(a, -1, -2))
        b = rng.standard_normal((n, n))
        h = GridModel.flat(n, dims, (TWO_PI,) * n).with_metric(
            np.broadcast_to(np.eye(n) + 0.1 * b @ b.T, dims + (n, n)))
        F = 0.05 * rng.standard_normal(dims + (n,))
        dF = geometry.partials(g, F)
        oracle = np.einsum("...ij,...kl,...ki,...lj->...", g.ginv, h.g, dF, dF)
        assert np.array_equal(gauge.energy_density(F, g, h), oracle)

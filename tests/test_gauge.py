"""Gauge transport: interpolation, pullbacks, the displacement flows, and the
equivalence audit between the plain and gauge-fixed metric flows."""

import itertools

import numpy as np
import pytest

from solitonlab import flows, gauge, geometry, harness
from solitonlab.errors import GaugeBreakdownError, NonConvergenceError, RejectedInputError
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


def test_invert_diffeo_raises_when_it_stalls(monkeypatch):
    g = _flat(32)
    X, Y = g.coords()
    F = np.zeros(g.dims + (2,))
    F[..., 0] = 0.1 * np.sin(X + Y)
    monkeypatch.setattr(gauge, "INVERT_MAX_ITER", 1)
    with pytest.raises(NonConvergenceError, match="stalled") as info:
        gauge.invert_diffeo(F, g)
    assert info.value.last_iterate.shape == F.shape


# ---------------------------------------------------------------------------
# injectivity proxy


def test_injectivity_proxy():
    g = _flat(16)
    X, _ = g.coords()
    F = np.zeros(g.dims + (2,))
    F[..., 0] = 0.1 * np.sin(X)
    assert gauge.is_injective(F, g)
    # folded: d phi/dx changes sign
    F[..., 0] = 1.6 * np.sin(X)
    assert not gauge.is_injective(F, g)
    # translation past half a period
    F = np.full(g.dims + (2,), 0.6 * TWO_PI)
    assert not gauge.is_injective(F, g)


@pytest.mark.parametrize("dims", [(16, 16), (8, 8, 8)], ids=lambda d: "x".join(map(str, d)))
def test_injectivity_proxy_rejects_a_node_of_zero_determinant(dims):
    """F^0 = -h at x_1 and +h at x_{-1}: d_0 F^0 = -2h / 2h = -1 exactly at the
    nodes x_0, where det(I + dF) is then exactly 0 and the proxy fails; a
    displacement a little smaller leaves every determinant positive."""
    n = len(dims)
    h = GridModel.flat(n, dims, (TWO_PI,) * n)
    step = h.spacings[0]
    F = np.zeros(dims + (n,))
    F[1, ..., 0], F[-1, ..., 0] = -step, step
    assert np.all(np.linalg.det(np.eye(n) + geometry.partials(h, F))[0] == 0.0)
    assert not gauge.is_injective(F, h)
    assert gauge.is_injective((1.0 - 2.0**-20) * F, h)


@pytest.mark.parametrize("dims, axes", [((16, 16), (0, 1)), ((8, 8, 8), (0, 1)),
                                        ((8, 8, 8), (0, 2)), ((8, 8, 8), (1, 2))],
                         ids=["16x16", "8x8x8-01", "8x8x8-02", "8x8x8-12"])
def test_injectivity_proxy_rejects_folds(dims, axes):
    """Two folds, each against the same map at a smaller amplitude.  A
    stretch F^a = c sin x_a, whose d_a phi^a changes sign past c = 1.  A
    shear F^a = +-A h at x_b = +-h, F^b = +-A h at x_a = +-h: d_b F^a = A at
    x_b = 0 and -A/2 at x_b = +-2h (d_a F^b likewise), so d phi keeps a unit
    diagonal and its determinant 1 - (d_a F^b)(d_b F^a) is 1 - A^2 at the
    nodes x_a = x_b = 0 and at least 1 - A^2/4 elsewhere."""
    n = len(dims)
    h = GridModel.flat(n, dims, (TWO_PI,) * n)
    X = h.coords()
    a, b = axes
    step = h.spacings[0]
    for (c, A), injective in (((0.5, 0.9), True), ((1.6, 1.2), False)):
        stretch = np.zeros(dims + (n,))
        stretch[..., a] = c * np.sin(X[a])
        shear = np.zeros(dims + (n,))
        for axis, comp in ((b, a), (a, b)):
            at = [slice(None)] * n
            for node, sign in ((1, 1.0), (-1, -1.0)):
                at[axis] = node
                shear[tuple(at) + (comp,)] = sign * A * step
        for F in (stretch, shear):
            assert gauge.is_injective(F, h) == injective
            sign = np.min(np.linalg.det(np.eye(n) + geometry.partials(h, F))) > 0.0
            assert sign == injective


# ---------------------------------------------------------------------------
# gauge vector field and harmonic flow


def test_deturck_vector_vanishes_on_background():
    h = _flat(16)
    assert np.max(np.abs(gauge.deturck_vector(h, h))) == 0.0
    g = _nonconformal(16)
    assert np.max(np.abs(gauge.deturck_vector(g, h))) > 1e-3


def test_deturck_gauge_term_is_symmetric():
    """The gauge term L_V g of ``flows.rhs_deturck``, V = ``deturck_vector``."""
    g = _nonconformal(16)
    h = _flat(16)
    p = geometry.lie_derivative_metric(g, gauge.deturck_vector(g, h))  # component-major: p[i, j]
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


def _unshared_harmonic_gauge(g_of_t, h, F0, t_end, dt):
    """RK4 of the displacement flow from t = 0 with every stage and energy
    record re-evaluating g_of_t and its geometry: the reference for the
    shared form."""
    traj = gauge.GaugeTrajectory(h=h)
    F, t = np.array(F0, dtype=float), 0.0

    def record(t, F):
        g = g_of_t(t)
        e = gauge.energy_density(F, g, h)
        traj.F.append(F.copy())
        traj.energy.append(gauge.EnergyRecord(t=float(t), e_sup=float(np.max(e)),
                                              E=gauge._integrate(e, g)))

    record(t, F)
    for _ in range(int(round(t_end / dt))):
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
    got = gauge.run_harmonic_gauge(counting, h, F0, 0.1, 0.01)
    assert len(seen) == 2 * n_steps + 1
    assert len(set(seen)) == len(seen)
    want = _unshared_harmonic_gauge(interp, h, F0, 0.1, 0.01)
    assert np.array_equal(got.times, want.times)
    assert all(np.array_equal(a, b) for a, b in zip(got.F, want.F))
    assert len(got.F) == len(want.F) == n_steps + 1
    assert got.energy == want.energy


def test_a_2d_gauge_run_reads_only_component_major_geometry():
    """The stages, energy records and injectivity checks of a 2-D gauge run
    read g^{ij}, Gamma and h_kl component-major: no stage metric and no
    background is left holding a node-major ginv or gamma."""
    g0 = _nonconformal(16)
    interp = flows.MetricInterpolant(flows.run_flow(g0, "tau", np.inf, 0.01, 0.05))
    h = _flat(16)
    X, Y = h.coords()
    F0 = np.stack([0.01 * np.sin(X + Y), 0.02 * np.cos(X)], axis=-1)
    models = []

    def keeping(t):
        models.append(interp(t))
        return models[-1]

    gauge.run_harmonic_gauge(keeping, h, F0, 0.05, 0.01)
    assert len(models) == 11
    for m in models + [h]:
        assert "ginv" not in vars(m) and "gamma" not in vars(m)
    assert all("ginv_cm" in vars(m) and "gamma_cm" in vars(m) for m in models)


def test_harmonic_flow_decays_displacement_on_flat_pair():
    """With g = h the flow is the plain heat equation: energy decays."""
    h = _flat(16)
    X, _ = h.coords()
    F0 = np.zeros(h.dims + (2,))
    F0[..., 0] = 0.1 * np.sin(X)
    traj = gauge.run_harmonic_gauge(lambda t: h, h, F0, 1.0, 0.01)
    E = [e.E for e in traj.energy]
    assert all(e2 < e1 for e1, e2 in zip(E, E[1:]))
    # lowest mode decays at the discrete stencil rate 2 (1 - cos h) / h^2
    hstep = h.spacings[0]
    lam = 2.0 * (1.0 - np.cos(hstep)) / hstep**2
    ratio = np.max(np.abs(traj.F[-1])) / np.max(np.abs(F0))
    assert np.isclose(ratio, np.exp(-lam), rtol=1e-4)


def test_harmonic_flow_ends_at_t1():
    """The flow takes whole steps of dt from t = 0 to t_end; a span that is
    not a whole number of steps is rejected rather than overshot or left
    untaken."""
    h = _flat(8)
    F0 = np.zeros(h.dims + (2,))
    traj = gauge.run_harmonic_gauge(lambda t: h, h, F0, 0.3, 0.1)
    assert traj.times[0] == 0.0 and len(traj.times) == 4
    assert abs(traj.times[-1] - 0.3) < 1e-12
    for t_end in (0.55, 0.04):  # 5.5 and 0.4 steps: once rounded to 6 and 0 steps
        with pytest.raises(RejectedInputError, match="not a whole number of steps"):
            gauge.run_harmonic_gauge(lambda t: h, h, F0, t_end, 0.1)


def test_harmonic_flow_reports_breakdown():
    """An unstable step size blows the displacement up past injectivity."""
    h = _flat(16)
    X, _ = h.coords()
    F0 = np.zeros(h.dims + (2,))
    F0[..., 0] = 0.3 * np.sin(X)
    with pytest.raises(GaugeBreakdownError) as info:
        gauge.run_harmonic_gauge(lambda t: h, h, F0, 10.0, 0.5)
    assert info.value.time > 0.0


# ---------------------------------------------------------------------------
# divergence gauge condition


def test_divergence_gauge_fix_reduces_residual():
    g = _nonconformal(16, amp=0.02)
    h = _flat(16)
    _, before = gauge.gauge_residual(g, np.zeros(h.dims + (2,)), h)
    F, after = gauge.divergence_gauge_fix(g, h)
    assert after == gauge.gauge_residual(g, F, h)[1]
    assert after < 1e-8
    assert after < 1e-3 * before
    assert gauge.is_injective(F, h)


def test_divergence_gauge_fix_stall_carries_the_displacement():
    """A fix that stalls raises with its last displacement array: it does on
    the 8^2 perturbed-flat initial metric of the default config."""
    cfg = harness.parse_config("[model]\ndims = 8,8\n")
    g, h = harness.build_model(cfg), harness.flat_background(cfg)
    with pytest.raises(NonConvergenceError, match="stalled") as info:
        gauge.divergence_gauge_fix(g, h)
    F = info.value.last_iterate
    assert F.shape == h.dims + (2,) and np.any(F)


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
    gt = gauge.run_harmonic_gauge(ginterp, h, np.zeros(h.dims + (2,)), t_end, dt)
    errs = gauge.gauge_equivalence_check(ricci, det, gt)
    # flows sampled at every step pair with every entry of the gauge run, and
    # agree with the audit of every fifth sample where the two share a time
    every = [flows.run_flow(model0, "tau", np.inf, dt, t_end),
             flows.run_flow(model0, "deturck", np.inf, dt, t_end, background=h)]
    assert np.array_equal(gauge.gauge_equivalence_check(*every, gt)[::5], errs)
    assert errs[0] == 0.0
    assert np.max(errs) < 1e-4


def test_gauge_equivalence_rejects_mismatched_times():
    h = _flat(8)
    model0 = h
    traj_a = flows.run_flow(model0, "deturck", np.inf, 0.01, 0.05, background=h)
    traj_b = flows.run_flow(model0, "deturck", np.inf, 0.01, 0.05, background=h,
                            sample_every=5)
    gt = gauge.GaugeTrajectory(h=h, F=[np.zeros(h.dims + (2,))] * 2,
                               energy=[gauge.EnergyRecord(t=t, e_sup=0.0, E=0.0)
                                       for t in (0.0, 0.03)])
    with pytest.raises(RejectedInputError):
        gauge.gauge_equivalence_check(traj_a, traj_b, gt)
    # the flows agree, but the gauge run has no entry at their sample t = 0.05
    with pytest.raises(RejectedInputError):
        gauge.gauge_equivalence_check(traj_b, traj_b, gt)


SHAPES = [(16, 16), (32, 32), (8, 8, 8), (12, 10, 9)]


def _random_pair(dims, seed):
    """A random SPD metric g, a flat background h and a small displacement F."""
    n = len(dims)
    rng = np.random.default_rng(seed)
    a = 0.3 * rng.standard_normal(dims + (n, n))
    g = GridModel(n=n, dims=dims, period=(TWO_PI,) * n, g=np.eye(n) + a @ np.swapaxes(a, -1, -2))
    b = rng.standard_normal((n, n))
    h = GridModel.flat(n, dims, (TWO_PI,) * n).with_metric(
        np.broadcast_to(np.eye(n) + 0.1 * b @ b.T, dims + (n, n)))
    F = 0.05 * rng.standard_normal(dims + (n,))
    return g, h, F


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _node_major_hessian(m, F):
    """out[..., k, i, j] = d_i d_j F^k: compact stencils on the diagonal, and
    off it the central difference along the lower axis of the one along the
    higher."""
    hs = m.spacings
    out = np.empty(F.shape + (m.n, m.n))
    for i, j in itertools.product(range(m.n), repeat=2):
        lo, hi = min(i, j), max(i, j)
        out[..., i, j] = (geometry.d2(F, i, hs[i]) if i == j
                          else geometry.d1(geometry.d1(F, hi, hs[hi]), lo, hs[lo]))
    return out


@pytest.mark.parametrize("dims", SHAPES, ids=lambda d: "x".join(map(str, d)))
def test_energy_density_equals_its_einsum_spelling_bitwise(dims):
    """The unrolled energy density adds its terms in einsum's order (k, i, l, j)."""
    for seed in (0, 1, 2):
        g, h, F = _random_pair(dims, seed)
        dF = geometry.partials(g, F)
        oracle = np.einsum("...ij,...kl,...ki,...lj->...", g.ginv, h.g, dF, dF)
        assert np.array_equal(_bits(gauge.energy_density(F, g, h)), _bits(oracle))


@pytest.mark.parametrize("dims", SHAPES, ids=lambda d: "x".join(map(str, d)))
def test_harmonic_map_rhs_equals_its_einsum_spelling_bitwise(dims):
    """The component-major velocity adds its products in the order the
    node-major einsum spelling does, bit for bit (signed zeros too)."""
    for seed in (0, 1, 2):
        g, h, F = _random_pair(dims, seed)
        lap = np.einsum("...ij,...kij->...k", g.ginv, _node_major_hessian(g, F))
        lap -= np.einsum("...ij,...lij,...kl->...k", g.ginv, g.gamma, geometry.partials(g, F))
        oracle = lap + -np.einsum("...ij,...kij->...k", g.ginv, g.gamma)
        assert np.array_equal(_bits(gauge.harmonic_map_rhs(F, g, h)), _bits(oracle))


@pytest.mark.parametrize("dims", SHAPES, ids=lambda d: "x".join(map(str, d)))
def test_pullback_metric_equals_its_einsum_spelling_bitwise(dims):
    """(phi^* g)_ij = d_i phi^k d_j phi^l g_kl(phi), symmetrized: the
    component-major sums equal the node-major einsum spelling bit for bit."""
    for seed in (0, 1, 2):
        g, _, F = _random_pair(dims, seed)
        J = np.eye(g.n) + np.swapaxes(geometry.partials(g, F), -1, -2)
        pts = np.mod(gauge.coords_array(g) + F, np.array(g.period))
        g_at = gauge.interp_periodic(g.g, pts, g.dims, g.period)
        out = np.einsum("...ik,...jl,...kl->...ij", J, J, g_at)
        oracle = 0.5 * (out + np.swapaxes(out, -1, -2))
        assert np.array_equal(_bits(gauge.pullback_metric(F, g).g), _bits(oracle))

"""Flow drivers: exact solutions, integrator order, stepping, reparametrization."""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from solitonlab import entropy, flows, gauge, geometry, harness
from solitonlab.errors import RejectedInputError, StepRejectedError
from solitonlab.flows import FlowState, MetricInterpolant, Trajectory
from solitonlab.geometry import FrameModel, GridModel

ROOT = Path(__file__).resolve().parent.parent
TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# exact solutions


def test_flat_torus_tau_flow_is_pure_dilation():
    m = FrameModel(lams=np.zeros(3), a=(1.0, 2.0, 3.0))  # the flat 3-torus
    tau = 1.0
    traj = flows.run_flow(m, "tau", tau=tau, dt=1e-3, t_end=1.0)
    for state in traj.states:
        exact = m.a * np.exp(state.t / tau)
        assert np.max(np.abs(state.model.a - exact) / exact) < 1e-9


def test_round_sphere_fixed_point_drift():
    # Einstein radius: Ric = g/(2 tau) at a = 2(n-1) tau
    m = FrameModel.su2(a=(4.0, 4.0, 4.0))
    traj = flows.run_flow(m, "tau", tau=1.0, dt=1e-3, t_end=1.0)
    drift = np.max(np.abs(traj.states[-1].model.a - 4.0))
    assert drift < 1e-10


def test_shrinking_round_sphere_unnormalized():
    # a(t) = a0 - 4t for the round su2 frame (Ric = 2 g / a * ... closed form)
    m = FrameModel.su2(a=(4.0, 4.0, 4.0))
    traj = flows.run_flow(m, "tau", tau=np.inf, dt=1e-3, t_end=0.5)
    for state in traj.states:
        assert np.allclose(state.model.a, 4.0 - 4.0 * state.t, rtol=1e-9)


def test_rk4_order_on_berger_ode():
    """Halving dt must shrink the endpoint error by about 2^4."""
    m = FrameModel.su2(a=(4.4, 4.0, 3.7))
    ref = flows.run_flow(m, "tau", tau=1.0, dt=1e-5, t_end=0.1).states[-1].model.a
    errs = []
    for dt in (4e-3, 2e-3):
        end = flows.run_flow(m, "tau", tau=1.0, dt=dt, t_end=0.1).states[-1].model.a
        errs.append(np.max(np.abs(end - ref)))
    ratio = errs[0] / errs[1]
    assert 11.0 < ratio < 21.0, f"expected ~16x error reduction, got {ratio}"


def test_berger_rhs_matches_fd_jacobian_of_closed_form():
    """Directional derivative of the closed-form rhs vs finite differences."""
    m = FrameModel.su2(a=(1.0, 1.0, 0.25))
    rhs = lambda model: flows.rhs_tau_flow(model, 1.0)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(3)
    eps = 1e-6
    fd = (rhs(m.with_a(m.a + eps * v)) - rhs(m.with_a(m.a - eps * v))) / (2 * eps)
    # independent quadratic-fit oracle of the same directional derivative
    hs = np.array([-2, -1, 1, 2]) * eps
    samples = np.stack([rhs(m.with_a(m.a + h * v)) for h in hs])
    coef = np.polyfit(hs, samples, deg=2)
    assert np.allclose(fd, coef[1], rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# grid stepping


def test_deturck_flat_background_is_stationary():
    h = GridModel.flat(2, (12, 12), (TWO_PI, TWO_PI))
    traj = flows.run_flow(h, "deturck", tau=np.inf, dt=0.02, t_end=0.2, background=h)
    assert np.max(np.abs(traj.states[-1].model.g - h.g)) == 0.0


def _wavy_grid(n, dims):
    m = GridModel.flat(n, dims)
    x = m.coords()
    g = m.g.copy()
    for i in range(n):
        g[..., i, i] += 0.05 * np.sin(x[i] + i)
        for j in range(i + 1, n):
            g[..., i, j] = g[..., j, i] = 0.02 * np.cos(x[i] - 2.0 * x[j])
    return m.with_metric(g)


@pytest.mark.parametrize("n,dims", [(2, (8, 10)), (3, (8, 8, 8))])
@pytest.mark.parametrize("tau", [0.7, np.inf])
def test_deturck_rhs_equals_its_unfused_terms(n, dims, tau):
    m = _wavy_grid(n, dims)
    h = GridModel.flat(n, dims)
    v = gauge.deturck_vector(m, h)  # component-major, as the Lie derivative takes it
    expected = -2.0 * geometry.node_major(m.ric_cm, 2) + geometry.node_major(
        geometry.lie_derivative_metric(m, v), 2)
    if np.isfinite(tau):
        expected = expected + m.g / tau
    assert np.array_equal(flows.rhs_deturck(m, h, tau), expected)
    assert np.array_equal(flows.make_metric_rhs("deturck", tau, h)(m), expected)


def test_deturck_rhs_makes_one_geometry_pass(monkeypatch):
    m = _wavy_grid(2, (8, 8))
    rhs = flows.make_metric_rhs("deturck", np.inf, GridModel.flat(2, (8, 8)))
    calls = Counter()
    for name in ("christoffel", "inverse_metric"):
        def counted(*args, _fn=getattr(geometry, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(geometry, name, counted)
    rhs(m)
    assert calls == {"christoffel": 1, "inverse_metric": 1}


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_cfl_bound_scales_with_grid():
    """The bound scales as h^2, is inf on the round and Berger frames, and
    on 2-D and 3-D grids is bitwise ``CFL_FACTOR * h_min**2 * min_eig``, the
    spelling of ``cfl_bound`` before the models supplied their bound."""
    h16 = GridModel.flat(2, (16, 16), (TWO_PI, TWO_PI))
    h32 = GridModel.flat(2, (32, 32), (TWO_PI, TWO_PI))
    assert np.isclose(flows.cfl_bound(h16) / flows.cfl_bound(h32), 4.0)
    for frame in (FrameModel.su2(), FrameModel.su2(a=(4.4, 4.0, 3.7))):
        assert flows.cfl_bound(frame) == np.inf
    for m in (_wavy_grid(2, (8, 10)), _wavy_grid(3, (8, 9, 10))):
        h_min = min(p / d for p, d in zip(m.period, m.dims))
        assert _bits(flows.cfl_bound(m)) == _bits(flows.CFL_FACTOR * h_min**2 * m.min_eig)
    # 0.2 h^2 min eig(g) is the bound 0.2 h^2 / max eig(g^{-1}), validated or not
    g = _wavy_grid(2, (8, 10))
    inverse_form = 0.2 * np.min(g.spacings) ** 2 / np.max(np.linalg.eigvalsh(np.linalg.inv(g.g)))
    assert np.isclose(flows.cfl_bound(g), inverse_form, rtol=1e-14, atol=0.0)
    assert flows.cfl_bound(g.with_metric(g.g, validate=False)) == flows.cfl_bound(g)


def test_step_rejects_dt_above_cfl():
    h = GridModel.flat(2, (16, 16), (TWO_PI, TWO_PI))
    X, _ = h.coords()
    g0 = h.with_metric(h.g * (1.0 + 0.01 * np.sin(X))[..., None, None])
    state = FlowState(t=0.0, model=g0)
    rhs = flows.make_metric_rhs("deturck", np.inf, background=h)
    with pytest.raises(StepRejectedError):
        flows.step(state, rhs, dt=10.0 * flows.cfl_bound(g0))


def test_step_matches_the_classical_rk4_formula():
    """One step is bitwise the textbook RK4 written out stage by stage, on a
    grid and on a frame."""
    dt = 0.01
    g0 = _wavy_grid(2, (8, 8))
    rhs = flows.make_metric_rhs("deturck", np.inf, GridModel.flat(2, (8, 8)))
    at = lambda g: g0.with_metric(g, validate=False)
    k1 = rhs(at(g0.g))
    k2 = rhs(at(g0.g + 0.5 * dt * k1))
    k3 = rhs(at(g0.g + 0.5 * dt * k2))
    k4 = rhs(at(g0.g + dt * k3))
    got = flows.step(FlowState(t=0.0, model=g0), rhs, dt)
    assert np.array_equal(got.model.g, g0.g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    assert got.t == dt

    tau = 1.0
    m = FrameModel.su2(a=(4.4, 4.0, 3.7))
    rhs = flows.make_metric_rhs("tau", tau)
    k = lambda a: rhs(m.with_a(a))
    k1 = k(m.a)
    k2 = k(m.a + 0.5 * dt * k1)
    k3 = k(m.a + 0.5 * dt * k2)
    k4 = k(m.a + dt * k3)
    a1 = m.a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    got = flows.step(FlowState(t=0.0, model=m), rhs, dt)
    assert np.array_equal(got.model.a, a1)


def test_grid_step_decomposes_each_metric_once(monkeypatch):
    """An accepted DeTurck step inverts each stage metric once and validates
    only its result: the SPD check keeps the smallest eigenvalue that the
    next step's CFL bound reads.  In 2-D both are closed forms, and LAPACK
    inverts no node of an unpivoted metric."""
    rhs = flows.make_metric_rhs("deturck", np.inf, GridModel.flat(2, (8, 8)))
    state = FlowState(t=0.0, model=_wavy_grid(2, (8, 8)))
    calls = Counter()
    for owner, name in ((geometry, "inverse_metric"), (geometry, "validate_spd"),
                        (np.linalg, "eigvalsh"), (np.linalg, "inv"), (np.linalg, "det")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    for n_steps in (1, 2):
        state = flows.step(state, rhs, 0.01)
        assert calls == {"validate_spd": n_steps, "inverse_metric": 4 * n_steps}


def test_run_flow_derives_each_sampled_state_once(monkeypatch):
    """On the README config each RHS evaluation derives Gamma once, plus the
    background and the final sample: a sample's diagnostics read the working
    model, whose geometry the next step's first stage reuses.  The stored
    states are twins that carry the metric only."""
    calls = Counter()
    for owner, name in ((geometry, "christoffel"), (flows, "rhs_deturck")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    cfg = harness.parse_config((ROOT / "examples.ini").read_text())
    traj = harness.integrate_flow(cfg)
    assert calls["rhs_deturck"] == 4 * flows.step_count(cfg.t_end, cfg.dt)
    assert calls["christoffel"] == calls["rhs_deturck"] + 2
    assert len(traj.states) == 201
    assert all(set(vars(s.model)) == {"n", "dims", "period", "g", "validate"}
               for s in traj.states)


def test_coupled_frame_run_derives_each_sampled_state_once(monkeypatch):
    """On the coupled Berger run the initial potential, each sample's
    diagnostics and the next step's first stage read one Ricci: it is derived
    once per RHS evaluation, plus once for the final sample."""
    calls = Counter()
    for owner, name in ((geometry, "_ricci_frame"), (flows, "rhs_tau_flow")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    m = FrameModel.su2(a=(4.4, 4.0, 3.7))
    traj = flows.run_flow(m, "tau", 1.0, dt=1e-3, t_end=0.1, couple_f=True, sample_every=10)
    assert calls["rhs_tau_flow"] == 4 * 100
    assert calls["_ricci_frame"] == calls["rhs_tau_flow"] + 1
    assert all(set(vars(s.model)) == {"lams", "a", "base_volume"} for s in traj.states)


@pytest.mark.parametrize("n", [2, 3])
def test_a_stage_outside_the_spd_cone_rejects_the_step(n):
    """g' = -(3/dt) g makes the second RK4 stage -g/2; the step used to run
    on and return 1.375 g, an SPD result from a negative-definite stage."""
    flat = GridModel.flat(n, (16,) * n if n == 2 else (8,) * n)
    dt = 0.01
    shrink = lambda m: -(3.0 / dt) * m.g
    with pytest.raises(StepRejectedError, match=r"stage metric at t = 0\.005 is not positive"):
        flows.step(FlowState(0.0, flat), shrink, dt)
    # the same right-hand side at a third of the rate keeps every stage SPD
    state = flows.step(FlowState(0.0, flat), lambda m: -(1.0 / dt) * m.g, dt)
    assert np.allclose(state.model.g, (3.0 / 8.0) * flat.g)


def test_coupled_frame_step_derives_each_ricci_once(monkeypatch):
    """A coupled Berger run derives the Ricci of each model once: the first
    stage of a step reuses its sample's, and the potential of every state
    reads only its volume."""
    seen = []

    def counted(m, _fn=geometry._ricci_frame):
        seen.append(m)
        return _fn(m)

    monkeypatch.setattr(geometry, "_ricci_frame", counted)
    tau = 1.0
    m = FrameModel.su2(a=(4.4, 4.0, 3.7))
    flows.run_flow(m, "tau", tau, 0.01, 0.01, couple_f=True)
    assert len(seen) == 5  # the two samples, and the last three stages of the step
    assert len({id(model) for model in seen}) == 5


DERIVED = {"ginv", "gamma", "ric", "sqrt_det"}


def test_trajectory_states_keep_no_derived_fields():
    h = GridModel.flat(2, (8, 8))
    runs = [flows.run_flow(_wavy_grid(2, (8, 8)), "deturck", np.inf, 0.01, 0.04,
                           background=h, sample_every=2),
            flows.run_flow(FrameModel.su2(a=(4.4, 4.0, 3.7)), "tau", 1.0, 0.01, 0.05,
                           couple_f=True, sample_every=2)]
    entropy.monotonicity_report(runs[-1])
    for traj in runs:
        assert all(not DERIVED & vars(s.model).keys() for s in traj.states)


def test_frame_stage_past_zero_is_a_rejected_step():
    """A frame coefficient crossing zero inside a stage is a rejected step
    (dt can be halved); a bad tau is still rejected input."""
    m = FrameModel.su2(a=(1.2, 1.0, 0.9))
    state = FlowState(t=0.0, model=m)
    with pytest.raises(StepRejectedError, match="t = 1.0 left the SPD cone"):
        flows.step(state, flows.make_metric_rhs("tau", 1.0), 1.0)
    with pytest.raises(RejectedInputError):
        flows.step(state, flows.make_metric_rhs("tau", 0.0), 0.01)


def test_run_flow_halves_dt_to_recover():
    """A dt just over the rejection threshold is rescued by halving."""
    h = GridModel.flat(2, (12, 12), (TWO_PI, TWO_PI))
    X, _ = h.coords()
    g0 = h.with_metric(h.g * (1.0 + 0.01 * np.sin(X))[..., None, None])
    dt = 1.01 * flows.cfl_bound(g0)
    traj = flows.run_flow(g0, "deturck", np.inf, dt=dt, t_end=5 * dt, background=h)
    assert traj.states[-1].t == pytest.approx(5 * dt)


def test_singular_stage_is_a_rejected_step_that_halving_recovers(monkeypatch):
    """An RK4 stage metric that cannot be inverted is a rejected step naming
    its time, not a ``LinAlgError``: at dt = 0.01 the first half stage of
    g' = -200 g is the zero metric, at dt = 0.005 it is g/2."""
    singular_at_dt = lambda m: -2.0 * m.g / 0.01 + 0.0 * geometry.node_major(m.ginv_cm, 2)
    flat = GridModel.flat(2, (8, 8))
    with pytest.raises(StepRejectedError, match="t = 0.01 met a singular stage metric"):
        flows.step(FlowState(0.0, flat), singular_at_dt, 0.01)
    monkeypatch.setattr(flows, "make_metric_rhs", lambda *args: singular_at_dt)
    traj = flows.run_flow(flat, "tau", np.inf, dt=0.01, t_end=0.01)
    half = flows.step(FlowState(0.0, flat), singular_at_dt, 0.005)
    twice = flows.step(half, singular_at_dt, 0.005)
    assert traj.times.tolist() == [0.0, 0.01]
    assert np.array_equal(traj.states[-1].model.g, twice.model.g)


def test_run_flow_takes_only_whole_steps():
    """A t_end that is not a whole number of steps of dt is rejected, not
    rounded; 1e-9 relative slack absorbs the rounding of t_end / dt."""
    m = FrameModel.su2(a=(4.4, 4.0, 3.7))
    for dt, t_end in ((0.3, 1.0), (0.01, 0.0151), (0.1, np.inf), (1e-310, 1.0)):
        with pytest.raises(RejectedInputError, match="whole number of steps"):
            flows.run_flow(m, "tau", 1.0, dt, t_end)
    traj = flows.run_flow(m, "tau", 1.0, 0.1, 0.3)  # 0.3 / 0.1 = 2.9999999999999996
    assert len(traj.states) == 4
    assert flows.step_count(0.3, 0.1) == 3


def test_trajectory_rejects_non_monotone_times():
    m = FrameModel.su2()
    traj = Trajectory(convention="tau", tau=1.0)
    traj.append(FlowState(t=0.0, model=m), {})
    with pytest.raises(RejectedInputError):
        traj.append(FlowState(t=0.0, model=m), {})


# ---------------------------------------------------------------------------
# coupled potential


def test_coupled_potential_keeps_constraint():
    m = FrameModel.su2(a=(4.4, 4.0, 3.7))
    traj = flows.run_flow(m, "tau", tau=1.0, dt=1e-3, t_end=0.1,
                          couple_f=True)
    for state in traj.states:
        f = entropy.constant_potential(state.model, traj.tau)
        assert entropy.constraint_residual(state.model, f, traj.tau) < 1e-14


def test_run_flow_rejects_a_coupled_grid():
    """On a grid the forward potential equation is a backward heat equation,
    and at tau = inf there is no potential: ``run_flow`` rejects coupling
    there, as ``validate_config`` does."""
    with pytest.raises(RejectedInputError, match="backward heat equation"):
        flows.run_flow(_wavy_grid(2, (8, 8)), "tau", 1.0, 0.001, 0.002, couple_f=True)
    with pytest.raises(RejectedInputError, match="needs a finite positive tau, got inf"):
        flows.run_flow(FrameModel.su2(a=(4.4, 4.0, 3.7)), "tau", np.inf, 0.001, 0.002,
                       couple_f=True)


def test_run_flow_rejects_a_background_with_a_frame():
    """A frame has no grid to measure a deviation from a background on:
    ``run_flow`` rejects the pair at its entry, for either variant."""
    h = GridModel.flat(2, (8, 8))
    for variant in ("tau", "deturck"):
        with pytest.raises(RejectedInputError, match="no grid to compare with a background"):
            flows.run_flow(FrameModel.su2(), variant, 1.0, 0.001, 0.002, background=h)


# ---------------------------------------------------------------------------
# interpolation and reparametrization


def test_metric_interpolant_matches_samples_and_between():
    m = FrameModel.su2(a=(4.4, 4.0, 3.7))
    traj = flows.run_flow(m, "tau", tau=1.0, dt=1e-3, t_end=0.2, sample_every=10)
    interp = MetricInterpolant(traj)
    for state in traj.states[:5]:
        assert np.allclose(interp(state.t).a, state.model.a, atol=1e-12)
    fine = flows.run_flow(m, "tau", tau=1.0, dt=1e-4, t_end=0.2, sample_every=1)
    mid_t = 0.5 * (traj.states[3].t + traj.states[4].t)
    closest = min(fine.states, key=lambda s: abs(s.t - mid_t))
    assert np.max(np.abs(interp(mid_t).a - closest.model.a)) < 1e-8


def _column_trajectory(times, columns):
    """Unvalidated 8^2 grid states whose flattened metrics are ``columns`` rows."""
    template = GridModel.flat(2, (8, 8))
    traj = Trajectory(convention="tau", tau=np.inf)
    for t, row in zip(times, columns):
        model = template.with_metric(row.reshape(template.g.shape), validate=False)
        traj.append(FlowState(t=float(t), model=model), {})
    return traj


def _query_times(x, rng):
    mids = 0.5 * (x[1:] + x[:-1])
    return np.concatenate([x, [x[-1]], mids, rng.uniform(x[0], x[-1], 20)])


def _dgtsv_row_swaps(x):
    """Row swaps LAPACK dgtsv's partial pivoting makes on the not-a-knot
    spline system of knots ``x`` (the diagonals only; slopes are not solved),
    one count per knot set along the last axis."""
    x = np.asarray(x, dtype=float)
    h = np.diff(x)
    d = np.concatenate([h[..., 1:2], 2 * (h[..., :-1] + h[..., 1:]), h[..., -2:-1]], axis=-1)
    du = np.concatenate([x[..., 2:3] - x[..., :1], h[..., :-1]], axis=-1)
    dl = np.concatenate([h[..., 1:], x[..., -1:] - x[..., -3:-2]], axis=-1)
    swaps = np.zeros(x.shape[:-1], dtype=int)
    for i in range(x.shape[-1] - 1):
        swap = np.abs(d[..., i]) < np.abs(dl[..., i])
        fact = np.where(swap, d[..., i] / dl[..., i], dl[..., i] / d[..., i])
        d[..., i + 1] = np.where(swap, du[..., i] - fact * d[..., i + 1],
                                 d[..., i + 1] - fact * du[..., i])
        if i < x.shape[-1] - 2:
            du[..., i + 1] = np.where(swap, -fact * du[..., i + 1], du[..., i + 1])
        swaps += swap
    return swaps


def _run_flow_knots(clock, n_steps, sample_every):
    """The sample times ``run_flow`` records over ``n_steps`` steps, given
    ``clock``, the times its steps reach (the running float sum of dt)."""
    return clock[np.r_[np.arange(0, n_steps, sample_every), n_steps]]


def test_not_a_knot_spline_equals_scipy_bitwise():
    """Coefficients and values are the floats of scipy's CubicSpline for
    uniform knots and knots accumulated as run_flow accumulates t; columns
    span 24 orders of magnitude.  On uneven knots, where dgtsv swaps rows and
    Thomas elimination does not, the values agree with scipy's to 1e-10 of
    each column's largest |y| (3.1e-11 measured on these draws)."""
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(13)
    swaps = 0
    for n in range(4, 41):
        accumulated = np.cumsum(np.r_[0.0, np.full(n - 1, 0.02)])
        uneven = np.cumsum(rng.uniform(0.0, 1.0, n) ** 4 + 1e-3)
        swaps += _dgtsv_row_swaps(uneven)
        for x in (np.linspace(0.0, 1.0, n), accumulated, uneven):
            y = rng.standard_normal((n, 256)) * 10.0 ** rng.uniform(-12, 12, 256)
            reference = CubicSpline(x, y, axis=0)
            interp = MetricInterpolant(_column_trajectory(x, y))
            if x is uneven:
                scale = np.max(np.abs(y), axis=0)
                for t in _query_times(x, rng):
                    assert np.all(np.abs(interp(t).g.ravel() - reference(t)) <= 1e-10 * scale)
                continue
            assert np.array_equal(flows._not_a_knot_coefficients(x, y), reference.c)
            for t in _query_times(x, rng):
                assert np.array_equal(interp(t).g.ravel(), reference(t))
    assert swaps > 0


def test_run_flow_knots_make_dgtsv_swap_no_row():
    """Every knot set run_flow writes (uniform steps, the last sample
    interval possibly shorter) keeps dgtsv's pivots on the diagonal, so the
    spline is scipy's bitwise: 4 to 299 samples, every sample_every in
    {1, 2, 3, 4, 7, 10, 100} and every step remainder, at dt 0.01 and 0.05.
    scipy's coefficients are compared on every set of up to 12 samples and
    on one drawn set of every sixth sample count above."""
    from scipy.interpolate import CubicSpline

    traj = flows.run_flow(FrameModel.su2(), "tau", 1.0, 0.01, 0.25, sample_every=10)
    clock = np.cumsum(np.r_[0.0, np.full(299 * 100, 0.01)])
    assert np.array_equal(traj.times, _run_flow_knots(clock, 25, 10))

    rng = np.random.default_rng(17)
    for dt in (0.01, 0.05):
        clock = np.cumsum(np.r_[0.0, np.full(299 * 100, dt)])
        for n in range(4, 300):
            sets = np.array([_run_flow_knots(clock, (n - 1) * every if r == 0
                                             else (n - 2) * every + r, every)
                             for every in (1, 2, 3, 4, 7, 10, 100) for r in range(every)])
            assert not np.any(_dgtsv_row_swaps(sets)), (dt, n)
            if n % 6 and n > 12:
                continue
            for x in sets if n <= 12 else sets[rng.integers(len(sets), size=1)]:
                y = rng.standard_normal((n, 8)) * 10.0 ** rng.uniform(-12, 12, 8)
                assert np.array_equal(flows._not_a_knot_coefficients(x, y),
                                      CubicSpline(x, y, axis=0).c)


def test_metric_interpolant_equals_cubic_spline_on_ricci_trajectory():
    from scipy.interpolate import CubicSpline

    ricci = flows.run_flow(_wavy_grid(2, (16, 16)), "tau", np.inf, 0.01, 0.2,
                           sample_every=2)
    times, series = ricci.times, ricci.metric_series()
    reference = CubicSpline(times, series, axis=0)
    interp = MetricInterpolant(ricci)
    for t in _query_times(times, np.random.default_rng(5)):
        assert np.array_equal(interp(t).g, reference(t))


@pytest.mark.parametrize("n", [2, 3])
def test_linear_interpolant_equals_np_interp_per_column(n):
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.1, 1.0, n))
    y = rng.standard_normal((n, 256)) * 10.0 ** rng.uniform(-8, 8, 256)
    interp = MetricInterpolant(_column_trajectory(x, y))
    outside = [x[0] - 1.0, x[-1] + 1.0]
    for t in np.concatenate([_query_times(x, rng), outside]):
        expected = np.array([np.interp(t, x, col) for col in y.T])
        assert np.array_equal(interp(t).g.ravel(), expected)


@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
def test_reparametrize_maps_round_fixed_point_onto_shrinking_sphere(tau):
    """The round S^3 fixed point a* = 4 tau of the tau-flow is the shrinking
    sphere a(s) = 4 (tau - s) of the unnormalized flow, at s = tau (1 - e^{-t/tau})."""
    m = FrameModel.su2(a=(4.0 * tau,) * 3)
    traj = flows.run_flow(m, "tau", tau=tau, dt=1e-3, t_end=1.0, sample_every=100)
    un = flows.reparametrize(traj, tau)
    assert un.convention == "tau" and un.tau == np.inf
    assert np.allclose(un.times, tau * (1.0 - np.exp(-traj.times / tau)), rtol=0.0, atol=1e-15)
    for state in un.states:
        assert np.max(np.abs(state.model.a - 4.0 * (tau - state.t))) <= 1e-12 * tau
    for again in ((un, tau), (un, np.inf), (traj, 2.0 * tau)):  # states not at a finite tau
        with pytest.raises(RejectedInputError, match="at this finite tau"):
            flows.reparametrize(*again)


def test_reparametrize_rejects_samples_past_forty_tau():
    """Past t ~ 37 tau, 1 - e^{-t/tau} rounds to 1, so s reaches tau."""
    tau = 0.1
    flat_torus = FrameModel(lams=np.zeros(3), a=(1.0, 1.0, 1.0))
    traj = flows.run_flow(flat_torus, "tau", tau=tau, dt=0.01, t_end=4.1, sample_every=100)
    assert traj.times[-1] > 40.0 * tau
    with pytest.raises(RejectedInputError, match="s < tau"):
        flows.reparametrize(traj, tau)


def test_reparametrized_trajectory_solves_unnormalized_flow():
    """g~(s) = c(s) g(t(s)) must satisfy dg~/ds = -2 Ric(g~) to O(interp)."""
    m = FrameModel.su2(a=(4.4, 4.0, 3.7))
    tau = 1.0
    traj = flows.run_flow(m, "tau", tau=tau, dt=1e-4, t_end=0.2, sample_every=1)
    un = flows.reparametrize(traj, tau)
    ss = np.array(un.times)
    a_series = np.stack([s.model.a for s in un.states])
    i = len(ss) // 2
    dads = (a_series[i + 1] - a_series[i - 1]) / (ss[i + 1] - ss[i - 1])
    rhs = flows.rhs_unnormalized(un.states[i].model)
    assert np.max(np.abs(dads - rhs)) < 1e-5


def test_tau_flow_at_tau_inf_is_the_unnormalized_flow():
    """``rhs_tau_flow`` at tau = inf adds no g/tau term: it is bitwise
    ``rhs_unnormalized``, on 2-D and 3-D grids and on the round and Berger
    frames.  Both are bitwise -2 Ric as ``rhs_unnormalized`` spelled it
    before the models supplied it: ``node_major(-2.0 * ric_cm, 2)`` on a
    grid, ``-2.0 * ric`` on a frame."""
    grids = [_wavy_grid(2, (8, 8)), _wavy_grid(3, (8, 8, 8))]
    frames = [FrameModel.su2(), FrameModel.su2(a=(4.4, 4.0, 3.7))]
    oracles = ([geometry.node_major(-2.0 * m.ric_cm, 2) for m in grids]
               + [-2.0 * m.ric for m in frames])
    for m, oracle in zip(grids + frames, oracles, strict=True):
        assert np.array_equal(_bits(flows.rhs_unnormalized(m)), _bits(oracle))
        assert np.array_equal(_bits(flows.rhs_tau_flow(m, np.inf)), _bits(oracle))
    with pytest.raises(RejectedInputError, match="unknown flow variant 'unnormalized'"):
        flows.make_metric_rhs("unnormalized", np.inf)


def test_stage_check_is_the_leading_minors_rule():
    """``stage_definite`` is the check ``step`` ran after a stage's velocity
    when it tested the model kind: on a grid ``leading_minors_positive``,
    skipped for the first stage (c = 0) of a 2-D step; on a frame none."""
    for n in (2, 3):
        m = GridModel.flat(n, (8,) * n)
        bad = m.with_metric(-m.g, validate=False)
        for c in (0.0, 0.5, 1.0):
            assert m.stage_definite(c)
            assert bad.stage_definite(c) == (c == 0.0 and n == 2)
    assert FrameModel.su2().stage_definite(0.5)


def test_tau_rhs_rejects_bad_tau():
    with pytest.raises(RejectedInputError):
        flows.rhs_tau_flow(FrameModel.su2(), tau=0.0)
    with pytest.raises(RejectedInputError):
        flows.make_metric_rhs("nonsense", 1.0)

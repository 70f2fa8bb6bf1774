"""Entropy functional, constraint handling, defect, and mu minimization."""

import threading

import numpy as np
import pytest

from solitonlab import entropy, flows, geometry, lapack
from solitonlab.entropy import MuResult
from solitonlab.errors import NonConvergenceError, RejectedInputError
from solitonlab.geometry import FrameModel, GridModel

TWO_PI = 2.0 * np.pi


def _perturbed_grid(n=12, amp=0.05, seed=3):
    h = GridModel.flat(2, (n, n), (TWO_PI, TWO_PI))
    X, Y = h.coords()
    g = h.g.copy()
    g[..., 0, 0] *= 1.0 + amp * np.sin(X + Y)
    g[..., 1, 1] *= 1.0 + amp * np.cos(X)
    g[..., 0, 1] = g[..., 1, 0] = amp * np.sin(Y)
    return h.with_metric(g)


# ---------------------------------------------------------------------------
# constraint and functional values


def test_constant_potential_satisfies_constraint():
    for model in (FrameModel.su2(a=(4.0, 4.0, 4.0)), _perturbed_grid()):
        f = entropy.constant_potential(model, tau=0.7)
        assert entropy.constraint_residual(model, f, 0.7) < 1e-12


def test_normalize_f_restores_constraint_and_is_a_shift():
    m = _perturbed_grid()
    X, _ = m.coords()
    f = 0.3 * np.sin(2 * X)
    fn = entropy.normalize_f(m, f, tau=0.5)
    assert entropy.constraint_residual(m, fn, 0.5) < 1e-12
    shifts = fn - f
    assert np.ptp(shifts) < 1e-14


def test_w_functional_rejects_unnormalized_potential():
    m = FrameModel.su2()
    with pytest.raises(RejectedInputError):
        entropy.w_functional(m, 5.0, tau=1.0)
    # a NaN potential has a NaN residual, which is no more within the tolerance
    grid = _perturbed_grid(n=8)
    f = entropy.constant_potential(grid, 1.0)
    f[3, 5] = np.nan
    for model, potential in ((m, np.nan), (grid, f)):
        with pytest.raises(RejectedInputError, match="normalization constraint"):
            entropy.w_functional(model, potential, tau=1.0)


def test_round_sphere_closed_form():
    """Constant potential on the unit round sphere: W = tau R + f - n."""
    m = FrameModel.su2(a=(1.0, 1.0, 1.0))
    tau = 0.25
    f = entropy.constant_potential(m, tau)
    expected = tau * 6.0 + f - 3.0
    assert np.isclose(entropy.w_functional(m, f, tau), expected, atol=1e-12)


def test_w_is_scale_invariant():
    """W(c g, f, c tau) = W(g, f, tau) for any admissible f."""
    tau, c = 0.8, 2.7
    m = _perturbed_grid()
    X, Y = m.coords()
    f = entropy.normalize_f(m, 0.2 * np.sin(X) + 0.1 * np.cos(2 * Y), tau)
    w1 = entropy.w_functional(m, f, tau)
    mc = m.with_metric(c * m.g)
    fc = entropy.normalize_f(mc, f, c * tau)
    assert np.ptp(fc - f) < 1e-13  # same f is still admissible
    assert np.isclose(entropy.w_functional(mc, fc, c * tau), w1, rtol=1e-12)

    fr = FrameModel.su2(a=(1.3, 1.1, 0.9))
    ff = entropy.constant_potential(fr, tau)
    assert np.isclose(
        entropy.w_functional(fr.with_a(c * fr.a), entropy.constant_potential(fr.with_a(c * fr.a), c * tau), c * tau),
        entropy.w_functional(fr, ff, tau), rtol=1e-12)


# ---------------------------------------------------------------------------
# soliton defect


def test_defect_vanishes_at_round_fixed_point():
    m = FrameModel.su2(a=(4.0, 4.0, 4.0))
    f = entropy.constant_potential(m, tau=1.0)
    assert entropy.defect_l2(m, f, 1.0) < 1e-13
    assert np.max(np.abs(entropy.soliton_defect(m, f, 1.0))) < 1e-13


def test_defect_positive_off_soliton():
    m = FrameModel.su2(a=(4.4, 4.0, 3.7))
    f = entropy.constant_potential(m, tau=1.0)
    assert entropy.defect_l2(m, f, 1.0) > 1e-2


def test_defect_rejects_array_potential_on_frame():
    m = FrameModel.su2()
    with pytest.raises(RejectedInputError):
        entropy.weighted_defect_sq(m, np.zeros(8), 1.0)


def test_grid_defect_matches_hessian_oracle():
    """On a flat metric with f = a sin x the defect is Hess f - g/(2 tau)."""
    n = 64
    m = GridModel.flat(2, (n, n), (TWO_PI, TWO_PI))
    X, _ = m.coords()
    f = 0.3 * np.sin(X)
    d = entropy.soliton_defect(m, f, tau=2.0)
    exact = np.zeros_like(d)
    exact[..., 0, 0] = -0.3 * np.sin(X)
    exact -= m.g / 4.0
    # second-order stencil: error O(h^2)
    assert np.max(np.abs(d - exact)) < 0.3 * (TWO_PI / n) ** 2


# ---------------------------------------------------------------------------
# monotonicity audit


def test_monotonicity_report_on_berger_flow():
    m = FrameModel.su2(a=(4.4, 4.0, 3.7))
    traj = flows.run_flow(m, "tau", tau=1.0, dt=1e-3, t_end=0.1,
                          couple_f=True, sample_every=10)
    records = entropy.monotonicity_report(traj)
    W = [r.W for r in records]
    assert all(w2 >= w1 - 1e-12 for w1, w2 in zip(W, W[1:]))
    assert all(r.monotone for r in records)
    for r in records[1:-1]:
        assert np.isclose(r.dWdt_numeric, r.dWdt_formula,
                          rtol=1e-2, atol=1e-10)


def test_monotonicity_report_needs_potentials():
    m = FrameModel.su2(a=(4.4, 4.0, 3.7))
    traj = flows.run_flow(m, "tau", tau=1.0, dt=1e-2, t_end=0.05)
    with pytest.raises(RejectedInputError):
        entropy.monotonicity_report(traj)


def test_monotonicity_report_reads_the_recorded_entropy():
    """The audit reuses the W and defect the flow recorded per sample; they
    equal the functional and the defect evaluated on each state afresh."""
    tau = 1.5
    traj = flows.run_flow(FrameModel.su2(a=(4.4, 4.0, 3.7)), "tau", tau=tau, dt=1e-3,
                          t_end=0.05, couple_f=True, sample_every=10)
    records = entropy.monotonicity_report(traj)
    assert len(records) == len(traj.states) == 6
    for rec, s in zip(records, traj.states):
        model = geometry.twin(s.model)
        f = entropy.constant_potential(model, tau)
        defect_sq = entropy.weighted_defect_sq(model, f, tau)
        assert rec.W == entropy.w_functional(model, f, tau)
        assert rec.defect_l2 == np.sqrt(defect_sq)
        assert np.isclose(rec.dWdt_formula, 2.0 * tau * defect_sq, rtol=4e-16, atol=0.0)


def test_monotonicity_report_needs_the_entropy_records():
    m = FrameModel.su2(a=(4.4, 4.0, 3.7))
    traj = flows.Trajectory(convention="tau", tau=1.0)
    for t in (0.0, 0.1, 0.2):
        traj.append(flows.FlowState(t=t, model=m), {})
    with pytest.raises(RejectedInputError, match="entropy records"):
        entropy.monotonicity_report(traj)


# ---------------------------------------------------------------------------
# mu minimization


def test_grid_gradient_is_exact():
    """_w_and_grad vs central finite differences of the raw functional."""
    m = _perturbed_grid(n=8)
    rng = np.random.default_rng(5)
    f = entropy.normalize_f(m, 0.1 * rng.standard_normal(m.dims), tau=1.0)
    _, grad = entropy._w_and_grad(m, f, 1.0)
    eps = 1e-6
    for idx in [(0, 0), (3, 5), (7, 2)]:
        fp, fm = f.copy(), f.copy()
        fp[idx] += eps
        fm[idx] -= eps
        fd = (entropy._w_value(m, fp, 1.0) - entropy._w_value(m, fm, 1.0)) / (2 * eps)
        assert np.isclose(grad[idx], fd, rtol=1e-6, atol=1e-10)


def test_constant_start_on_frame_is_symmetric_critical_point():
    m = FrameModel.su2(a=(4.0, 4.0, 4.0))
    res = entropy.minimize_mu(m, tau=1.0)
    assert res.iterations == 0
    f = entropy.constant_potential(m, 1.0)
    assert np.isclose(res.mu, entropy.w_functional(m, f, 1.0), atol=1e-12)


@pytest.mark.parametrize("f0", [np.array(0.5), np.zeros((4, 4))], ids=["0-d", "2-d"])
def test_minimize_mu_rejects_other_frame_potentials(f0):
    """A frame model takes a float or a 1-d polar profile, nothing else."""
    with pytest.raises(RejectedInputError, match="frame model"):
        entropy.minimize_mu(FrameModel.su2(), 1.0, f0=f0)


def test_radial_solver_recovers_round_minimum():
    """At the fixed-point tau the constant potential is the minimizer.

    The constant is an exact critical point of the discrete functional, so
    the solver must land on it to solver precision from a concentrated
    start, at every resolution.
    """
    m = FrameModel.su2(a=(1.0, 1.0, 1.0))
    tau = 0.25  # r^2 = 2 (n-1) tau
    f_const = entropy.constant_potential(m, tau)
    w_const = entropy.w_functional(m, f_const, tau)
    for n_theta in (256, 512):
        quad = entropy._RadialQuadrature(1.0, n_theta)
        f0 = entropy.normalize_f(m, quad.theta**2 / (4.0 * tau), tau)
        res = entropy.minimize_mu(m, tau, f0=f0)
        assert res.grad_norm < 1e-8
        assert res.mu <= w_const + 1e-10  # infimum property
        assert abs(res.mu - w_const) < 1e-12


def test_radial_mu_is_the_w_of_its_potential():
    """The solver's own W of its last iterate equals ``w_functional`` of the
    potential it returns, whose kinetic term splits the same face energies
    between the cells."""
    m = FrameModel.su2(a=(1.0, 1.0, 1.0))
    tau = 0.05
    quad = entropy._RadialQuadrature(1.0, 256)
    res = entropy.minimize_mu(m, tau, f0=entropy.normalize_f(m, quad.theta**2 / (4.0 * tau), tau))
    assert abs(entropy.w_functional(m, res.f, tau) - res.mu) < 1e-13


def test_radial_multistart_agreement():
    m = FrameModel.su2(a=(1.0, 1.0, 1.0))
    tau = 0.25
    quad = entropy._RadialQuadrature(1.0, 512)
    starts = [entropy.normalize_f(m, s * quad.theta**2, tau) for s in (0.5, 1.0, 2.0)]
    results = entropy.minimize_mu_multistart(m, tau, starts)
    mus = [r.mu for r in results]
    assert max(mus) - min(mus) < 1e-9


def test_radial_nonconvergence_carries_last_iterate():
    m = FrameModel.su2(a=(1.0, 1.0, 1.0))
    quad = entropy._RadialQuadrature(1.0, 128)
    f0 = entropy.normalize_f(m, quad.theta**2, 0.25)
    with pytest.raises(NonConvergenceError) as info:
        entropy.minimize_mu(m, 0.25, f0=f0, max_iter=1)
    assert isinstance(info.value.last_iterate, MuResult)


# ---------------------------------------------------------------------------
# the radial solve's LAPACK calls, run without the GIL


def _radial_matrix(monkeypatch, n_theta=8192, tau=1e-2):
    """The (diag, off) of the first eigensolve of criterion 8's radial solve."""
    captured, lowest_eigenpair = [], lapack.lowest_eigenpair

    def capture(d, e):
        captured.append((d.copy(), e.copy()))
        return lowest_eigenpair(d, e)

    monkeypatch.setattr(lapack, "lowest_eigenpair", capture)
    m = FrameModel.su2(a=(1.0, 1.0, 1.0))
    quad = entropy._RadialQuadrature(1.0, n_theta)
    f0 = entropy.normalize_f(m, quad.theta**2 / (4.0 * tau), tau)
    with pytest.raises(NonConvergenceError):
        entropy.minimize_mu(m, tau, f0=f0, max_iter=1)
    return captured[0]


def _random_tridiagonal(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n), rng.standard_normal(n - 1)


def _split_tridiagonal():
    d, e = _random_tridiagonal(40, 7)
    e[17] = 0.0  # two blocks, which dstebz and dstein treat one by one
    return d, e


TRIDIAGONALS = {
    **{f"random-{n}": (lambda n=n, seed=seed: _random_tridiagonal(n, seed))
       for seed, n in enumerate((3, 17, 256, 1000))},
    "split": _split_tridiagonal,
    "n=2": lambda: (np.array([2.0, -1.0]), np.array([0.5])),
}


@pytest.mark.parametrize("matrix", ["radial-8192", *TRIDIAGONALS])
def test_lowest_eigenpair_equals_eigh_tridiagonal(matrix, monkeypatch):
    """Both sides call the same LAPACK routines with the same arguments, so
    the eigenvalue and the eigenvector agree in every bit."""
    from scipy.linalg import eigh_tridiagonal

    d, e = _radial_matrix(monkeypatch) if matrix == "radial-8192" else TRIDIAGONALS[matrix]()
    w, z = lapack.lowest_eigenpair(d, e)
    w_ref, z_ref = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    assert w.shape == w_ref.shape and z.shape == z_ref.shape
    assert np.array_equal(w, w_ref) and np.array_equal(z, z_ref)


@pytest.mark.parametrize("bad", ["d", "e"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_lowest_eigenpair_rejects_non_finite_input(bad, value):
    d, e = _random_tridiagonal(8, 0)
    {"d": d, "e": e}[bad][3] = value
    with pytest.raises(ValueError, match="infs or NaNs"):
        lapack.lowest_eigenpair(d, e)


@pytest.mark.parametrize("d, e", [(np.ones(4), np.ones(4)), (np.ones((2, 2)), np.ones(1)),
                                  (np.ones(0), np.ones(0))])
def test_lowest_eigenpair_rejects_mismatched_shapes(d, e):
    with pytest.raises(ValueError, match="shape"):
        lapack.lowest_eigenpair(d, e)


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_lowest_eigenpair_raises_on_lapack_info(routine, monkeypatch):
    """A routine that sets info != 0 (its last argument) raises naming it."""
    stebz, stein = lapack._routines()

    def failing(function):
        def call(*args):
            function(*args)
            args[-1][0] = 2

        return call

    routines = (failing(stebz), stein) if routine == "dstebz" else (stebz, failing(stein))
    monkeypatch.setattr(lapack, "_routines", lambda: routines)
    with pytest.raises(np.linalg.LinAlgError, match=f"{routine} failed .*info=2"):
        lapack.lowest_eigenpair(*_random_tridiagonal(8, 0))


def test_radial_multistart_equals_its_solves_one_by_one():
    m = FrameModel.su2(a=(1.0, 1.0, 1.0))
    tau = 1e-2
    quad = entropy._RadialQuadrature(1.0, 1024)
    starts = [entropy.normalize_f(m, s * quad.theta**2 / (4.0 * tau), tau) for s in (0.5, 1.0, 2.0)]
    together = entropy.minimize_mu_multistart(m, tau, starts)
    for res, f0 in zip(together, starts):
        alone = entropy.minimize_mu(m, tau, f0=f0)
        assert np.array_equal(res.f, alone.f)
        assert (res.mu, res.iterations, res.grad_norm) == (alone.mu, alone.iterations,
                                                           alone.grad_norm)


def _radial_starts(n_theta, tau, scales):
    m = FrameModel.su2(a=(1.0, 1.0, 1.0))
    quad = entropy._RadialQuadrature(1.0, n_theta)
    return m, [entropy.normalize_f(m, s * quad.theta**2 / (4.0 * tau), tau) for s in scales]


def test_radial_multistart_raises_the_first_failure_after_every_start_ends(monkeypatch):
    """As the sequential loop would, ``minimize_mu_multistart`` raises the
    lowest-indexed failing start's error, with its last iterate; the other
    starts still run to their end, and no worker thread outlives the call."""
    tau = 1e-2
    m, starts = _radial_starts(256, tau, (0.5, 1.0, 2.0, 4.0))
    stalled = {id(starts[1]), id(starts[2])}  # these starts get a single iteration
    ended, solve = [], entropy._minimize_mu_radial

    def stalling(model, tau, f0, grad_tol, max_iter):
        try:
            return solve(model, tau, f0, grad_tol, 1 if id(f0) in stalled else max_iter)
        finally:
            ended.append(id(f0))

    monkeypatch.setattr(entropy, "_minimize_mu_radial", stalling)
    threads = threading.active_count()
    with pytest.raises(NonConvergenceError) as info:
        entropy.minimize_mu_multistart(m, tau, starts)
    assert sorted(ended) == sorted(id(f0) for f0 in starts)
    assert threading.active_count() == threads
    with pytest.raises(NonConvergenceError) as alone:
        entropy.minimize_mu(m, tau, f0=starts[1], max_iter=1)
    assert str(info.value) == str(alone.value)
    assert np.array_equal(info.value.last_iterate.f, alone.value.last_iterate.f)
    assert info.value.last_iterate.iterations == 1


def test_radial_multistart_keeps_the_callers_error_state(monkeypatch):
    """Every start, on a worker thread or not, runs under the caller's
    ``np.errstate``."""
    tau = 1e-2
    m, starts = _radial_starts(64, tau, (0.5, 1.0, 2.0))
    seen, solve = [], entropy._minimize_mu_radial

    def recording(*args):
        seen.append(np.geterr()["over"])
        return solve(*args)

    monkeypatch.setattr(entropy, "_minimize_mu_radial", recording)
    with np.errstate(over="raise"):
        entropy.minimize_mu_multistart(m, tau, starts)
    assert seen == ["raise"] * len(starts)


def test_radial_solves_cap_their_iterations_at_radial_max_iter(monkeypatch):
    """A radial solve gets the caller's ``max_iter`` up to ``RADIAL_MAX_ITER``
    (1000), whether ``minimize_mu`` or the multistart (``MAX_ITER``) calls it."""
    tau = 1e-2
    m, starts = _radial_starts(64, tau, (0.5, 1.0))
    seen = []

    def recording(model, tau, f0, grad_tol, max_iter):
        seen.append(max_iter)
        return MuResult(f=f0, mu=0.0, iterations=0, grad_norm=0.0)

    monkeypatch.setattr(entropy, "_minimize_mu_radial", recording)
    entropy.minimize_mu(m, tau, f0=starts[0], max_iter=10)
    entropy.minimize_mu(m, tau, f0=starts[0], max_iter=10**5)
    assert seen == [10, 1000] and entropy.RADIAL_MAX_ITER == 1000
    entropy.minimize_mu_multistart(m, tau, starts)
    assert seen[2:] == [1000, 1000]


def test_grid_minimizer_beats_test_potentials():
    m = _perturbed_grid(n=8, amp=0.02)
    tau = 1.0
    X, Y = m.coords()
    res = entropy.minimize_mu(m, tau, f0=0.05 * np.sin(X), grad_tol=1e-6)
    assert res.grad_norm < 1e-6
    for trial in (np.zeros(m.dims), 0.2 * np.sin(X), 0.1 * np.cos(X + Y)):
        f = entropy.normalize_f(m, trial, tau)
        assert res.mu <= entropy.w_functional(m, f, tau) + 1e-9


def test_grid_mu_is_the_w_of_its_potential():
    """The grid solve and ``w_functional`` sum the same per-node terms, so the
    mu the solve reports is exactly the W of the potential it returns."""
    m = _perturbed_grid(n=8, amp=0.02)
    X, _ = m.coords()
    res = entropy.minimize_mu(m, 1.0, f0=0.05 * np.sin(X), grad_tol=1e-6)
    assert res.mu == entropy.w_functional(m, res.f, 1.0)


def test_grid_mu_solve_derives_the_geometry_once(monkeypatch):
    """Every objective evaluation of the L-BFGS solve reads the same metric's
    inverse, Christoffel symbols and Ricci, derived on the first one."""
    calls = {}
    for name in ("inverse_metric", "christoffel", "_ricci_grid"):
        def counted(*args, _fn=getattr(geometry, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(geometry, name, counted)
    m = _perturbed_grid(n=8, amp=0.02)
    X, _ = m.coords()
    res = entropy.minimize_mu(m, 1.0, f0=0.05 * np.sin(X), grad_tol=1e-6)
    assert res.iterations > 1
    assert calls == {"inverse_metric": 1, "christoffel": 1, "_ricci_grid": 1}


def test_entropy_record_from_state():
    m = FrameModel.su2(a=(4.0, 4.0, 4.0))
    f = entropy.constant_potential(m, 1.0)
    rec = entropy.entropy_record(m, 1.0, 0.3)
    assert rec.t == 0.3
    assert rec.defect_l2 < 1e-13
    assert np.isclose(rec.W, entropy.w_functional(m, f, 1.0))

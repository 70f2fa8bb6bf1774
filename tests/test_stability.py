"""Linearized operators, spectra, the trichotomy, interval lemmas, family
projection, residual monitoring, and rate fitting."""

import numpy as np
import pytest

from solitonlab import flows, geometry, stability
from solitonlab.errors import InsufficientDataError, RejectedInputError
from solitonlab.geometry import FrameModel, GridModel

TWO_PI = 2.0 * np.pi


def _flat(n, scale=1.0):
    return GridModel.flat(2, (n, n), (TWO_PI, TWO_PI), scale=scale)


def _aniso_flat(n):
    h = _flat(n)
    H = np.array([[2.0, 0.3], [0.3, 1.0]])
    return h.with_metric(np.broadcast_to(H, h.g.shape).copy())


def _symbol_eigenvalues(h):
    """Independent Fourier oracle for the constant-coefficient Laplacian."""
    n = h.n
    Hinv = np.linalg.inv(h.g.reshape(-1, n, n)[0])
    hs = h.spacings
    ks = np.meshgrid(*[2.0 * np.pi * np.fft.fftfreq(d) / hsx
                       for d, hsx in zip(h.dims, hs)], indexing="ij")
    sym = np.zeros(h.dims)
    for a in range(n):
        sym -= Hinv[a, a] * 2.0 * (1.0 - np.cos(ks[a] * hs[a])) / hs[a] ** 2
    for a in range(n):
        for b in range(a + 1, n):
            sym -= 2.0 * Hinv[a, b] * (np.sin(ks[a] * hs[a]) / hs[a]) \
                * (np.sin(ks[b] * hs[b]) / hs[b])
    return np.sort(sym.ravel())


# ---------------------------------------------------------------------------
# flattening


def test_tensor_vec_round_trip():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((6, 6, 2, 2))
    t = 0.5 * (t + np.swapaxes(t, -1, -2))
    v = stability.tensor_to_vec(t, 2)
    assert v.shape == (3 * 36,)
    back = stability.vec_to_tensor(v, (6, 6), 2)
    assert np.array_equal(back, t)


# ---------------------------------------------------------------------------
# operator assembly vs the Fourier oracle


@pytest.mark.parametrize("make", [_flat, _aniso_flat])
def test_scalar_laplacian_matches_symbol(make):
    h = make(16)
    mat = stability.scalar_laplacian_matrix(h)
    vals = np.sort(np.linalg.eigvalsh(0.5 * (mat + mat.T)))
    assert np.max(np.abs(vals - _symbol_eigenvalues(h))) < 1e-8


def test_assembled_operator_spectrum_and_kernel():
    h = _flat(16)
    op = stability.assemble_linearized_pde(h, tau=np.inf)
    report = stability.spectrum(op)
    # three symmetric components, each a copy of the scalar operator
    oracle = np.sort(np.repeat(_symbol_eigenvalues(h), 3))
    assert np.max(np.abs(np.real(report.eigenvalues) - oracle)) < 1e-8
    assert report.n_neutral == 3  # constant metric deformations
    assert report.n_grow == 0
    lowest = 2.0 * (1.0 - np.cos(h.spacings[0])) / h.spacings[0] ** 2
    assert np.isclose(report.gap, lowest, rtol=1e-12)


def test_finite_tau_shifts_the_spectrum():
    h = _flat(8)
    tau = 2.0
    base = stability.assemble_linearized_pde(h, np.inf)
    shifted = stability.assemble_linearized_pde(h, tau)
    v0 = np.sort(np.linalg.eigvalsh(base.matrix))
    v1 = np.sort(np.linalg.eigvalsh(shifted.matrix))
    assert np.allclose(v1, v0 + 1.0 / tau, atol=1e-12)


def test_assembly_validation():
    h = _flat(8)
    X, _ = h.coords()
    g = h.g * (1.0 + 0.1 * np.sin(X))[..., None, None]
    with pytest.raises(RejectedInputError):
        stability.assemble_linearized_pde(h.with_metric(g), np.inf)
    with pytest.raises(RejectedInputError):
        stability.assemble_linearized_pde(_flat(8), tau=-1.0)
    # the finite-difference linearization is dense and stays capped
    with pytest.raises(RejectedInputError, match="capped"):
        stability.linearize_flow_rhs(_flat(64), "deturck", np.inf, reference=_flat(64))


@pytest.mark.parametrize("h", [_flat(64), GridModel.flat(3, (8, 8, 8))],
                         ids=["64x64", "8x8x8"])
def test_assembled_spectra_need_no_node_cap(h):
    """Flat-background spectra come from the symbol: 64^2 and 3-D grids work,
    and the kernel is the constant metrics (3 components in 2-D, 6 in 3-D)."""
    op = stability.assemble_linearized_pde(h, np.inf)
    report = stability.spectrum(op)
    ncomp = h.n * (h.n + 1) // 2
    oracle = np.sort(np.repeat(_symbol_eigenvalues(h), ncomp))
    assert np.max(np.abs(np.real(report.eigenvalues) - oracle)) < 1e-12
    assert report.n_neutral == ncomp
    assert report.n_grow == 0
    assert report.n_decay == ncomp * np.prod(h.dims) - ncomp
    assert np.isclose(report.gap, np.min(np.abs(oracle)[np.abs(oracle) > 1e-10]),
                      rtol=1e-12, atol=0.0)


# the Fourier-symbol path against the dense path

EQUIVALENCE_CASES = [(_flat, 8, np.inf), (_flat, 16, np.inf), (_aniso_flat, 16, np.inf),
                     (_aniso_flat, 16, 0.5)]
EQUIVALENCE_IDS = ["flat8", "flat16", "aniso16", "aniso16-tau0.5"]


@pytest.mark.parametrize("make,n,tau", EQUIVALENCE_CASES, ids=EQUIVALENCE_IDS)
def test_symbol_operator_equals_its_dense_matrix(make, n, tau):
    h = make(n)
    op = stability.assemble_linearized_pde(h, tau)
    report = stability.spectrum(op)
    assert "matrix" not in vars(op)
    dense = np.linalg.eigvalsh(op.matrix)
    assert np.max(np.abs(np.real(report.eigenvalues) - dense)) < 1e-12
    assert np.all(np.imag(report.eigenvalues) == 0.0)

    rng = np.random.default_rng(4)
    k = rng.standard_normal(h.g.shape)
    k = k + np.swapaxes(k, -1, -2)
    applied = stability.tensor_to_vec(op.apply(k), h.n)
    assert np.allclose(applied, op.matrix @ stability.tensor_to_vec(k, h.n),
                       rtol=0.0, atol=1e-12)

    modes = report.modes
    assert np.isrealobj(modes)
    assert np.max(np.abs(modes.T @ modes - np.eye(op.dim))) < 1e-12
    lams = np.real(report.eigenvalues)
    assert np.max(np.abs(op.matrix @ modes - modes * lams)) < 1e-11


@pytest.mark.parametrize("make,n,tau", EQUIVALENCE_CASES, ids=EQUIVALENCE_IDS)
def test_symbol_report_splits_like_the_dense_report(make, n, tau):
    h = make(n)
    op = stability.assemble_linearized_pde(h, tau)
    report = stability.spectrum(op)
    dense = stability.spectrum(stability.LinearOperator(matrix=op.matrix, background=h,
                                                        tau=tau))
    assert report.eps_neutral == dense.eps_neutral
    assert (report.n_grow, report.n_neutral, report.n_decay) == \
        (dense.n_grow, dense.n_neutral, dense.n_decay)
    F = np.random.default_rng(5).standard_normal(op.dim)
    split = stability.trichotomy_split(F, report)
    ref = stability.trichotomy_split(F, dense)
    assert np.max(np.abs(split.reassembled() - F)) < 1e-10
    for part in ("F_up", "F_down", "F_0"):
        assert np.max(np.abs(getattr(split, part) - getattr(ref, part))) < 1e-10
    assert np.max(np.abs(stability.project_neutral(F, report)
                         - stability.project_neutral(F, dense))) < 1e-10


def test_symbol_spectrum_forms_and_decomposes_no_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    h = _aniso_flat(32)  # validating the metric takes eigenvalues of 2x2 blocks
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    op = stability.assemble_linearized_pde(h, 2.0)
    report = stability.spectrum(op)
    report.to_document()
    assert report.n_decay > 0
    assert "matrix" not in vars(op)
    assert "modes" not in vars(report)


def test_document_writes_imaginary_parts_only_when_nonzero():
    real = stability.spectrum(stability.assemble_linearized_pde(_flat(8), 2.0)).to_document()
    assert "eigenvalues_im" not in real
    rotation = stability.LinearOperator(matrix=np.array([[-1.0, -2.0], [2.0, -1.0]]),
                                        background=None, tau=np.inf)
    doc = stability.spectrum(rotation, eps_neutral=1e-8).to_document()
    assert doc["eigenvalues_re"] == [-1.0, -1.0]
    assert np.allclose(sorted(doc["eigenvalues_im"]), [-2.0, 2.0], rtol=1e-14)


def test_default_neutral_tolerance_is_a_tenth_of_the_gap():
    h = _flat(16)
    op = stability.assemble_linearized_pde(h, np.inf)
    lowest = 2.0 * (1.0 - np.cos(h.spacings[0])) / h.spacings[0] ** 2
    assert np.isclose(stability.default_neutral_tolerance(op), lowest / 10.0)


def test_frame_jacobian_at_round_fixed_point():
    m = FrameModel.su2(a=(4.0, 4.0, 4.0))
    op = stability.jacobian_ode(lambda mm: flows.rhs_tau_flow(mm, 1.0), m)
    vals = np.sort(np.linalg.eigvals(op.matrix).real)
    # one growing direction (overall scaling), a decaying double eigenvalue
    assert np.allclose(vals, [-2.0, -2.0, 1.0], atol=1e-5)


def test_discrete_rhs_linearization_consistent_with_assembly():
    """The exact linearization of the flow stencils and the assembled compact
    operator are different discretizations of the same PDE: their difference
    on a smooth mode is O(h^2)."""
    diffs = []
    for n in (8, 16):
        h = _flat(n)
        lin = stability.linearize_flow_rhs(h, "deturck", np.inf, reference=h)
        asm = stability.assemble_linearized_pde(h, np.inf)
        X, Y = h.coords()
        k = np.zeros(h.g.shape)
        k[..., 0, 0] = 0.01 * np.sin(X)
        k[..., 0, 1] = k[..., 1, 0] = 0.01 * np.cos(Y)
        a = lin.apply(k)
        b = asm.apply(k)
        diffs.append(np.max(np.abs(a - b)) / np.max(np.abs(b)))
    assert diffs[0] / diffs[1] > 3.0
    assert diffs[1] < 0.05


# ---------------------------------------------------------------------------
# trichotomy


def _toy_report():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    lams = np.array([-3.0, -2.0, -1.0, 0.0, 0.0, 0.5, 1.5, 2.5])
    mat = q @ np.diag(lams) @ q.T
    op = stability.LinearOperator(matrix=mat, background=None, tau=np.nan)
    return stability.spectrum(op, eps_neutral=1e-8)


def test_trichotomy_split_reassembles():
    report = _toy_report()
    assert report.n_grow == 3 and report.n_neutral == 2 and report.n_decay == 3
    rng = np.random.default_rng(2)
    F = rng.standard_normal(8)
    split = stability.trichotomy_split(F, report)
    assert np.max(np.abs(split.reassembled() - F)) < 1e-10
    # idempotence: re-splitting a pure part leaves the other parts empty
    again = stability.trichotomy_split(split.F_up, report)
    assert np.max(np.abs(again.F_up - split.F_up)) < 1e-10
    assert np.max(np.abs(again.F_down)) < 1e-10
    assert np.max(np.abs(again.F_0)) < 1e-10


def test_trichotomy_pythagoras_for_symmetric_operator():
    report = _toy_report()
    rng = np.random.default_rng(3)
    F = rng.standard_normal(8)
    split = stability.trichotomy_split(F, report)
    lhs = np.sum(F**2)
    rhs = np.sum(split.F_up**2) + np.sum(split.F_down**2) + np.sum(split.F_0**2)
    assert np.isclose(lhs, rhs, rtol=1e-12)


def test_project_neutral_on_modes_and_sequences():
    report = _toy_report()
    labels = report.classification()
    neutral_vec = np.real(report.modes[:, np.where(labels == 0)[0][0]])
    decaying_vec = np.real(report.modes[:, np.where(labels == -1)[0][0]])
    assert np.allclose(stability.project_neutral(neutral_vec, report), neutral_vec,
                       atol=1e-12)
    assert np.max(np.abs(stability.project_neutral(decaying_vec, report))) < 1e-12
    seq = [neutral_vec, 3.0 * neutral_vec]
    assert np.allclose(stability.project_neutral(seq, report), 2.0 * neutral_vec,
                       atol=1e-12)


# ---------------------------------------------------------------------------
# interval lemmas


def _sup_samples(lam, lo, hi, m=50):
    t = np.linspace(lo, hi, m)
    return np.exp(lam * t)


def test_growth_decay_equality_for_pure_modes():
    L, delta = 1.0, 0.7
    grow = stability.growth_decay_check(_sup_samples(delta, 0, L),
                                        _sup_samples(delta, L, 2 * L), delta, L)
    assert grow.growth_holds
    assert np.isclose(grow.sup_second, grow.alpha * grow.sup_first, rtol=1e-6)
    decay = stability.growth_decay_check(_sup_samples(-delta, 0, L),
                                         _sup_samples(-delta, L, 2 * L), delta, L)
    assert decay.decay_holds
    assert np.isclose(decay.sup_second, decay.sup_first / decay.alpha, rtol=1e-6)


def test_three_interval_outcomes():
    beta = np.exp(0.25)
    grow = [_sup_samples(1.0, i, i + 1.0) for i in range(3)]
    assert stability.three_interval_test(*grow, beta) == "growth-propagates"
    dec = [_sup_samples(-1.0, i, i + 1.0) for i in range(3)]
    assert stability.three_interval_test(*dec, beta) == "decay-propagates"
    # a bump: grows then collapses, violating forward propagation
    assert stability.three_interval_test([1.0], [10.0], [1.0], beta) == "violation"
    # near-neutral samples trigger neither implication
    assert stability.three_interval_test([1.0], [1.01], [1.0], beta) == "decay-propagates"


def test_three_interval_monte_carlo_no_violations():
    """Sparse eigen-expansions of the flat-background operator (no neutral
    part) never violate the dichotomy at beta = e^{L gap / 4}."""
    h = _flat(16)
    report = stability.spectrum(stability.assemble_linearized_pde(h, np.inf))
    lams = np.real(report.eigenvalues)
    nz = lams[np.abs(lams) > report.eps_neutral]
    L = 1.0
    beta = float(np.exp(L * report.gap / 4.0))
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 3 * L, 121)
    violations = 0
    for _ in range(200):
        c = rng.standard_normal(len(nz)) * (rng.random(len(nz)) < 0.1)
        if not np.any(c):
            c[rng.integers(len(nz))] = 1.0
        # norm of the eigen-expansion solution (orthonormal modes)
        vals = np.sqrt(np.exp(np.outer(t, 2.0 * nz)) @ c**2)
        sel = lambda lo, hi: vals[(t >= lo) & (t <= hi)]
        verdict = stability.three_interval_test(sel(0, L), sel(L, 2 * L),
                                                sel(2 * L, 3 * L), beta)
        violations += verdict == "violation"
    assert violations == 0


# ---------------------------------------------------------------------------
# family projection


def test_nearest_soliton_strips_the_oscillation():
    h0 = _flat(12)
    X, Y = h0.coords()
    const = np.array([[0.02, 0.005], [0.005, -0.01]])
    g = h0.g + const
    g[..., 0, 0] += 0.003 * np.sin(X + Y)  # mean-free ripple
    model = h0.with_metric(g)
    proj = stability.nearest_soliton_in_family(model, h0)
    assert np.max(np.abs(proj.g1.g - (h0.g + const))) < 1e-12
    assert proj.factor_two_holds
    assert np.isclose(proj.ratio, 1.0, atol=1e-12)


def test_family_projection_of_member_is_itself():
    h0 = _flat(8)
    g1 = h0.with_metric(h0.g + np.array([[0.1, 0.0], [0.0, -0.05]]))
    proj = stability.nearest_soliton_in_family(g1, h0)
    assert np.max(np.abs(proj.g1.g - g1.g)) < 1e-14
    assert proj.factor_two_holds


# ---------------------------------------------------------------------------
# residual monitoring


def _perturbed(h, eps, seed=7):
    rng = np.random.default_rng(seed)
    X, Y = h.coords()
    g = h.g.copy()
    g[..., 0, 0] *= 1.0 + eps * np.sin(X + Y)
    g[..., 1, 1] *= 1.0 + eps * np.cos(X)
    g[..., 0, 1] = g[..., 1, 0] = eps * np.sin(Y)
    return h.with_metric(g)


def test_residual_monitor_remainder_is_quadratic():
    """Halving the perturbation amplitude quarters the nonlinear remainder."""
    h = _flat(12)
    op = stability.linearize_flow_rhs(h, "deturck", np.inf, reference=h)
    dt = 0.25 * flows.cfl_bound(h)
    maxima = []
    for eps in (2e-2, 1e-2):
        traj = flows.run_flow(_perturbed(h, eps), "deturck", np.inf, dt, 8 * dt,
                              background=h)
        recs = stability.residual_evolution_monitor(traj, op, h)
        maxima.append(max(r.remainder for r in recs))
    ratio = maxima[0] / maxima[1]
    assert 3.3 < ratio < 4.7, f"remainder not quadratic: ratio {ratio}"
    const = stability.fitted_remainder_constant(recs)
    assert 0.0 < const < 10.0


def test_residual_monitor_needs_uniform_sampling():
    h = _flat(8)
    op = stability.assemble_linearized_pde(h, np.inf)
    traj = flows.Trajectory(convention="deturck")
    for t in (0.0, 0.1, 0.3):
        traj.append(flows.FlowState(t=t, model=h, tau=np.inf), {"t": t})
    with pytest.raises(RejectedInputError):
        stability.residual_evolution_monitor(traj, op, h)


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_recovers_synthetic_rate():
    t = np.linspace(0.0, 5.0, 40)
    fit = stability.fit_exponential_rate(t, 2.5 * np.exp(-0.8 * t))
    assert np.isclose(fit.rate, 0.8, rtol=1e-10)
    assert np.isclose(fit.amplitude, 2.5, rtol=1e-8)
    assert fit.residual < 1e-10


def test_fit_rejects_starved_data():
    t = np.linspace(0.0, 5.0, 40)
    y = np.full_like(t, 1e-15)  # everything below the noise floor
    with pytest.raises(InsufficientDataError):
        stability.fit_exponential_rate(t, y)


def test_deturck_decay_rate_matches_wide_stencil_symbol():
    """The fitted decay rate of a mean-free single-mode perturbation equals
    the flow discretization's own symbol (sin h / h)^2 for the lowest mode."""
    h = _flat(16)
    X, _ = h.coords()
    g = h.g.copy()
    g[..., 0, 1] = g[..., 1, 0] = 1e-3 * np.sin(X)
    traj = flows.run_flow(h.with_metric(g), "deturck", np.inf,
                          dt=0.02, t_end=4.0, background=h, sample_every=10)
    norms = [geometry.norms(h, s.model.g - h.g).l2 for s in traj.states]
    fit = stability.fit_exponential_rate(traj.times, norms)
    hs = h.spacings[0]
    assert np.isclose(fit.rate, (np.sin(hs) / hs) ** 2, rtol=5e-2)

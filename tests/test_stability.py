"""Linearized operators, spectra, the trichotomy, interval lemmas, family
projection, residual monitoring, and rate fitting."""

import numpy as np
import pytest

from solitonlab import flows, geometry, stability
from solitonlab.errors import InsufficientDataError, RejectedInputError
from solitonlab.geometry import FrameModel, GridModel

TWO_PI = 2.0 * np.pi


def _flat(n):
    return GridModel.flat(2, (n, n), (TWO_PI, TWO_PI))


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


# Test-side dense oracles.  The package keeps flat-background operators in
# Fourier space only, so these assemble them independently: the compact
# operator as a Kronecker product of 1-D stencil matrices, the flow's
# linearization column by column, one perturbed node at a time.  Their
# vectors flatten a symmetric field component-major, as the package's
# flattened perturbations are: per upper-triangle component (i <= j) the node
# values raveled in C order, the blocks concatenated.


def _tensor_to_vec(field, n):
    return np.concatenate([field[..., i, j].ravel() for (i, j) in stability.sym_components(n)])


def _vec_to_tensor(vec, dims, n):
    N = int(np.prod(dims))
    out = np.zeros(tuple(dims) + (n, n))
    for c, (i, j) in enumerate(stability.sym_components(n)):
        block = vec[c * N:(c + 1) * N].reshape(dims)
        out[..., i, j] = block
        out[..., j, i] = block
    return out


def _axis_matrices(dims, spacings):
    d1s, d2s = [], []
    for d, h in zip(dims, spacings):
        s_plus, s_minus = np.roll(np.eye(d), -1, axis=1), np.roll(np.eye(d), 1, axis=1)
        d1s.append((s_plus - s_minus) / (2.0 * h))
        d2s.append((s_plus - 2.0 * np.eye(d) + s_minus) / h**2)
    return d1s, d2s


def _kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _scalar_laplacian_matrix(h):
    """Dense h^{ij} d_i d_j: compact 3-point diagonal stencils, nested central
    differences in mixed directions."""
    n = h.n
    hinv = np.linalg.inv(h.g.reshape(-1, n, n)[0])
    d1s, d2s = _axis_matrices(h.dims, h.spacings)
    eyes = [np.eye(d) for d in h.dims]
    out = np.zeros((int(np.prod(h.dims)),) * 2)
    for a in range(n):
        out += hinv[a, a] * _kron_chain([d2s[a] if ax == a else eyes[ax]
                                         for ax in range(n)])
    for a in range(n):
        for b in range(a + 1, n):
            mats = [eyes[ax] for ax in range(n)]
            mats[a], mats[b] = d1s[a], d1s[b]
            out += 2.0 * hinv[a, b] * _kron_chain(mats)
    return out


def _dense_assembled_operator(h, tau):
    """Kronecker oracle of ``assemble_linearized_pde``: the scalar operator on
    each component, plus 1/tau."""
    ncomp = h.n * (h.n + 1) // 2
    mat = np.kron(np.eye(ncomp), _scalar_laplacian_matrix(h))
    if np.isfinite(tau):
        mat = mat + np.eye(mat.shape[0]) / tau
    return mat


def _dense_flow_linearization(background, variant, tau, reference, step=1e-5):
    """Node-by-node central-difference linearization of the flow RHS (2 RHS
    evaluations per column; keep it at 16^2 or below)."""
    n = background.n
    N = int(np.prod(background.dims))
    rhs = flows.make_metric_rhs(variant, tau, background=reference)
    comps = stability.sym_components(n)
    mat = np.empty((len(comps) * N, len(comps) * N))
    col = 0
    for (i, j) in comps:
        for node in np.ndindex(*background.dims):
            gp = background.g.copy()
            gm = background.g.copy()
            gp[node + (i, j)] += step
            gm[node + (i, j)] -= step
            if i != j:
                gp[node + (j, i)] += step
                gm[node + (j, i)] -= step
            vp = rhs(background.with_metric(gp, validate=False))
            vm = rhs(background.with_metric(gm, validate=False))
            mat[:, col] = _tensor_to_vec((vp - vm) / (2.0 * step), n)
            col += 1
    return mat


def _wide_stencil_symbol(h, tau):
    """Closed-form symbol of the DeTurck flow's linearization at a flat h:
    h^{ab} d_a d_b with wide central first differences, plus 1/tau."""
    n = h.n
    Hinv = np.linalg.inv(h.g.reshape(-1, n, n)[0])
    theta = np.meshgrid(*[2.0 * np.pi * np.fft.fftfreq(d) for d in h.dims], indexing="ij")
    sines = [np.sin(th) / dx for th, dx in zip(theta, h.spacings)]
    sym = -sum(Hinv[a, b] * sines[a] * sines[b] for a in range(n) for b in range(n))
    return sym + 1.0 / tau if np.isfinite(tau) else sym


def _refuse_dense_view(monkeypatch):
    """Make any read of ``FourierOperator.matrix`` fail until the patch is undone."""
    def refuse(self):
        raise AssertionError("dense view of a FourierOperator read")

    monkeypatch.setattr(stability.FourierOperator, "matrix", property(refuse))


def _random_symmetric(h, seed):
    k = np.random.default_rng(seed).standard_normal(h.g.shape)
    return k + np.swapaxes(k, -1, -2)


# ---------------------------------------------------------------------------
# flattening


def test_tensor_vec_round_trip():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((6, 6, 2, 2))
    t = 0.5 * (t + np.swapaxes(t, -1, -2))
    v = _tensor_to_vec(t, 2)
    assert v.shape == (3 * 36,)
    back = _vec_to_tensor(v, (6, 6), 2)
    assert np.array_equal(back, t)


# ---------------------------------------------------------------------------
# operator assembly vs the Fourier oracle


@pytest.mark.parametrize("make", [_flat, _aniso_flat])
def test_scalar_laplacian_matches_symbol(make):
    h = make(16)
    mat = _scalar_laplacian_matrix(h)
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
def test_symbol_operator_equals_its_dense_matrix(monkeypatch, make, n, tau):
    h = make(n)
    _refuse_dense_view(monkeypatch)
    op = stability.assemble_linearized_pde(h, tau)
    report = stability.spectrum(op)
    report.to_document()
    oracle = _dense_assembled_operator(h, tau)
    assert np.max(np.abs(np.real(report.eigenvalues) - np.linalg.eigvalsh(oracle))) < 1e-12
    assert np.all(np.imag(report.eigenvalues) == 0.0)
    assert report.modes is None

    k = _random_symmetric(h, 4)
    applied = _tensor_to_vec(op.apply(k), h.n)
    assert np.allclose(applied, oracle @ _tensor_to_vec(k, h.n),
                       rtol=0.0, atol=1e-12)
    # the dense view kept for the benchmark's tracer is the same operator
    monkeypatch.undo()
    assert np.max(np.abs(op.matrix - oracle)) < 1e-12


@pytest.mark.parametrize("make,n,tau", EQUIVALENCE_CASES, ids=EQUIVALENCE_IDS)
def test_symbol_report_splits_like_the_dense_report(make, n, tau):
    h = make(n)
    op = stability.assemble_linearized_pde(h, tau)
    report = stability.spectrum(op)
    oracle = _dense_assembled_operator(h, tau)
    mags = np.abs(np.linalg.eigvalsh(oracle))
    assert abs(report.eps_neutral - np.min(mags[mags > 1e-10]) / 10.0) < 1e-13
    dense = stability.spectrum(stability.LinearOperator(matrix=oracle), report.eps_neutral)
    assert (report.n_grow, report.n_neutral, report.n_decay) == \
        (dense.n_grow, dense.n_neutral, dense.n_decay)
    F = np.random.default_rng(5).standard_normal(op.dim)
    split = stability.trichotomy_split(F, report)
    ref = stability.trichotomy_split(F, dense)
    assert np.max(np.abs(split.reassembled() - F)) < 1e-10
    for part in ("F_up", "F_down", "F_0"):
        assert np.max(np.abs(getattr(split, part) - getattr(ref, part))) < 1e-10


def test_symbol_spectrum_forms_and_decomposes_no_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    h = _aniso_flat(32)  # validating the metric takes eigenvalues of 2x2 blocks
    _refuse_dense_view(monkeypatch)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    op = stability.assemble_linearized_pde(h, 2.0)
    report = stability.spectrum(op)
    report.to_document()
    assert report.n_decay > 0
    assert report.modes is None


@pytest.mark.parametrize("h", [_aniso_flat(64), GridModel.flat(3, (8, 8, 8))],
                         ids=["aniso64x64", "8x8x8"])
@pytest.mark.parametrize("tau", [np.inf, 0.5])
def test_symbol_split_and_projection_need_no_dense_algebra(monkeypatch, h, tau):
    """At dimension 12288 (64^2) and 3072 (8^3) the split and the neutral
    projection are FFT masks: no dense eigensolver, no Kronecker product and
    no dense view of the operator."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense linear algebra called")

    for name in ("eigh", "eig", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np, "kron", refuse)
    _refuse_dense_view(monkeypatch)
    op = stability.assemble_linearized_pde(h, tau)
    report = stability.spectrum(op)
    F = np.random.default_rng(6).standard_normal(op.dim)
    split = stability.trichotomy_split(F, report)
    assert np.max(np.abs(split.reassembled() - F)) < 1e-12
    parts = (split.F_up, split.F_down, split.F_0)
    assert np.isclose(np.sum(F**2), sum(np.sum(p**2) for p in parts), rtol=1e-12, atol=0.0)
    for name, part in zip(("F_up", "F_down", "F_0"), parts):
        again = stability.trichotomy_split(part, report)
        for other in ("F_up", "F_down", "F_0"):
            want = part if other == name else 0.0
            assert np.max(np.abs(getattr(again, other) - want)) < 1e-12
    # each part lies where the operator grows, decays or vanishes
    L = lambda v: _tensor_to_vec(op.apply(_vec_to_tensor(v, h.dims, h.n)), h.n)
    eps = report.eps_neutral
    assert split.F_up @ L(split.F_up) >= eps * (split.F_up @ split.F_up)
    assert split.F_down @ L(split.F_down) <= -eps * (split.F_down @ split.F_down)
    assert np.linalg.norm(L(split.F_0)) <= eps * np.linalg.norm(split.F_0)
    # the neutral part is a linear projection: of the mean of two samples it is
    # the mean of theirs
    mean = stability.trichotomy_split(0.5 * (F + 3.0 * F), report).F_0
    assert np.max(np.abs(mean - 2.0 * split.F_0)) < 1e-12
    # tau = inf: the constants are neutral, no mode grows; tau = 0.5: no mode is neutral
    assert (report.n_neutral > 0) == np.isinf(tau)
    assert (report.n_grow > 0) == np.isfinite(tau)


def test_document_writes_imaginary_parts_only_when_nonzero():
    real = stability.spectrum(stability.assemble_linearized_pde(_flat(8), 2.0)).to_document()
    assert "eigenvalues_im" not in real
    rotation = stability.LinearOperator(matrix=np.array([[-1.0, -2.0], [2.0, -1.0]]))
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


LINEARIZATION_CASES = [(make, n, tau) for make in (_flat, _aniso_flat) for n in (8, 16)
                       for tau in (np.inf, 0.5)]


@pytest.mark.parametrize("make,n,tau", LINEARIZATION_CASES,
                         ids=[f"{m.__name__.strip('_')}{n}-tau{t}"
                              for m, n, t in LINEARIZATION_CASES])
def test_linearized_flow_matches_the_dense_oracle(monkeypatch, make, n, tau):
    h = make(n)
    _refuse_dense_view(monkeypatch)
    op = stability.linearize_flow_rhs(h, "deturck", tau, reference=h)
    oracle = _dense_flow_linearization(h, "deturck", tau, reference=h)
    eps = stability.default_neutral_tolerance(op)
    report = stability.spectrum(op, eps)
    dense = stability.spectrum(stability.LinearOperator(matrix=oracle), eps)
    assert np.max(np.abs(report.eigenvalues - dense.eigenvalues)) < 1e-8
    assert (report.n_grow, report.n_neutral, report.n_decay) == \
        (dense.n_grow, dense.n_neutral, dense.n_decay)
    assert abs(report.gap - dense.gap) < 1e-8
    k = _random_symmetric(h, 8)
    applied = _tensor_to_vec(op.apply(k), h.n)
    assert np.max(np.abs(applied - oracle @ _tensor_to_vec(k, h.n))) < 1e-8


@pytest.mark.parametrize("h", [_aniso_flat(64), GridModel.flat(3, (8, 8, 8))],
                         ids=["aniso64x64", "8x8x8"])
@pytest.mark.parametrize("tau", [np.inf, 0.5])
def test_linearized_flow_needs_no_node_cap(monkeypatch, h, tau):
    """2 RHS evaluations per metric component give the symbol of the wide
    stencils on any grid."""
    calls = []
    rhs_deturck = flows.rhs_deturck
    monkeypatch.setattr(flows, "rhs_deturck",
                        lambda *args: calls.append(1) or rhs_deturck(*args))
    op = stability.linearize_flow_rhs(h, "deturck", tau, reference=h)
    ncomp = h.n * (h.n + 1) // 2
    assert len(calls) == 2 * ncomp
    assert (op.ncomp, op.symbol.shape) == (ncomp, h.dims)
    oracle = _wide_stencil_symbol(h, tau)
    assert np.max(np.abs(op.symbol - oracle)) < 1e-8 * np.max(np.abs(oracle))


def test_linearized_flow_rejects_coupled_components_and_curved_backgrounds():
    h = _flat(8)
    # without the DeTurck term, Ricci's divergence terms couple the components
    for variant in ("tau", "unnormalized"):
        with pytest.raises(RejectedInputError, match="couples"):
            stability.linearize_flow_rhs(h, variant, 1.0)
    X, _ = h.coords()
    curved = h.with_metric(h.g * (1.0 + 0.1 * np.sin(X))[..., None, None])
    with pytest.raises(RejectedInputError, match="flat"):
        stability.linearize_flow_rhs(curved, "deturck", np.inf, reference=h)


# ---------------------------------------------------------------------------
# trichotomy


def _toy_report():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    lams = np.array([-3.0, -2.0, -1.0, 0.0, 0.0, 0.5, 1.5, 2.5])
    mat = q @ np.diag(lams) @ q.T
    op = stability.LinearOperator(matrix=mat)
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


def test_neutral_part_on_modes_and_sample_means():
    report = _toy_report()
    re = np.real(report.eigenvalues)
    neutral_vec = np.real(report.modes[:, np.where(np.abs(re) <= report.eps_neutral)[0][0]])
    decaying_vec = np.real(report.modes[:, np.where(re < -report.eps_neutral)[0][0]])
    assert np.allclose(stability.trichotomy_split(neutral_vec, report).F_0, neutral_vec,
                       atol=1e-12)
    assert np.max(np.abs(stability.trichotomy_split(decaying_vec, report).F_0)) < 1e-12
    mean = 0.5 * (neutral_vec + 3.0 * neutral_vec)
    assert np.allclose(stability.trichotomy_split(mean, report).F_0, 2.0 * neutral_vec,
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

"""Linearized operators, spectra, interval lemmas, family projection, the
quadratic remainder, and rate fitting."""

import dataclasses
import json

import numpy as np
import pytest

from solitonlab import flows, geometry, harness, stability
from solitonlab.errors import InsufficientDataError, NumericalFailureError, RejectedInputError
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


# Test-side oracles.  The package keeps flat-background operators in Fourier
# space only, so these assemble them independently: the compact operator as a
# Kronecker product of 1-D stencil matrices, the flow's linearization column
# by column, one perturbed node at a time, or as the FFT of its response to
# one perturbed node per component.  The dense vectors flatten a symmetric
# field component-major: per upper-triangle component (i <= j) the node
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


def _impulse_response(background, reference, tau, step=1e-3):
    """The DeTurck RHS linearized at the flat ``background`` by central
    differences at one node per metric component (2 ncomp RHS evaluations),
    FFT-ed: ``out[a, c]`` is the response of component a to component c per
    wavenumber, shape ``(ncomp, ncomp) + dims``.  The RHS is at most
    quadratic in a one-node bump (the bumped node's inverse metric meets
    only differences, which vanish there), so the central difference is
    exact but for rounding, which a large step keeps small: at 1e-5 the
    difference of the O(1) g/tau terms left 7e-11 of the symbol at 8^3."""
    n = background.n
    comps = stability.sym_components(n)
    rhs = flows.make_metric_rhs("deturck", tau, background=reference)
    response = np.empty((len(comps), len(comps)) + background.dims)
    for c, (i, j) in enumerate(comps):
        bump = np.zeros(background.g.shape)
        bump[(0,) * n + (i, j)] = bump[(0,) * n + (j, i)] = step
        dv = (rhs(background.with_metric(background.g + bump, validate=False))
              - rhs(background.with_metric(background.g - bump, validate=False))) / (2.0 * step)
        response[:, c] = [dv[..., a, b] for (a, b) in comps]
    return np.fft.fftn(response, axes=tuple(range(2, 2 + n)))


def _flow_operator(g1, tau):
    """``linearized_deturck_flow`` plus the 1/tau of the g/tau term (if finite)."""
    op = stability.linearized_deturck_flow(g1)
    shift = 1.0 / tau if np.isfinite(tau) else 0.0
    return stability.FourierOperator(symbol=op.symbol + shift, ncomp=op.ncomp)


def _assert_is_the_impulse_response(g1, reference, tau):
    """The closed form (plus 1/tau) is, to 1e-10 relative, every diagonal block
    of the impulse response, whose off-diagonal blocks vanish: the components
    neither couple nor differ."""
    symbol = _flow_operator(g1, tau).symbol
    blocks = _impulse_response(g1, reference, tau)
    ncomp = blocks.shape[0]
    identity = np.eye(ncomp).reshape((ncomp,) * 2 + (1,) * g1.n)
    mismatch = np.max(np.abs(blocks - identity * symbol))
    assert mismatch < 1e-10 * np.max(np.abs(symbol)), mismatch / np.max(np.abs(symbol))


def _aniso_flat_3d():
    h = GridModel.flat(3, (8, 8, 8))
    H = np.array([[2.0, 0.3, -0.2], [0.3, 1.0, 0.1], [-0.2, 0.1, 1.5]])
    return h.with_metric(np.broadcast_to(H, h.g.shape).copy())


def _meshgrid_laplacian_symbol(h, tau):
    """``laplacian_symbol`` spelled on full ``meshgrid`` planes, with each
    term's operations in its order: the oracle of its bits."""
    n = h.n
    hinv = np.linalg.inv(h.g.reshape(-1, n, n)[0])
    theta = np.meshgrid(*[2.0 * np.pi * np.fft.fftfreq(d) for d in h.dims], indexing="ij")
    dx = h.spacings
    sym = np.zeros(h.dims)
    for a in range(n):
        sym -= hinv[a, a] * 2.0 * (1.0 - np.cos(theta[a])) / dx[a] ** 2
    for a in range(n):
        for b in range(a + 1, n):
            sym -= 2.0 * hinv[a, b] * np.sin(theta[a]) * np.sin(theta[b]) / (dx[a] * dx[b])
    if np.isfinite(tau):
        sym += 1.0 / tau
    return sym


def _aniso_2d(dims):
    h = GridModel.flat(2, dims, (TWO_PI, 1.3 * TWO_PI))
    return h.with_metric(np.broadcast_to(np.array([[2.0, 0.3], [0.3, 1.0]]), h.g.shape).copy())


# the spectrum-32 benchmark's flat background of variant 9
_SPECTRUM_32_V9 = ((32, 32), (TWO_PI * (1.0 + 0.1 * 9), TWO_PI * (1.0 + 0.05 * 9)))


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _flat(16), id="16x16"),
    pytest.param(lambda: GridModel.flat(2, *_SPECTRUM_32_V9), id="spectrum-32-v9"),
    pytest.param(lambda: _aniso_flat(16), id="aniso16x16"),
    pytest.param(lambda: _aniso_2d((9, 12)), id="aniso9x12"),
    pytest.param(lambda: GridModel.flat(3, (8, 12, 10), (6.0, 6.5, 7.0)), id="8x12x10"),
    pytest.param(_aniso_flat_3d, id="aniso8x8x8"),
])
@pytest.mark.parametrize("tau", [np.inf, 0.5])
def test_laplacian_symbol_has_the_bits_of_the_meshgrid_spelling(make, tau):
    h = make()
    got, want = stability.laplacian_symbol(h, tau), _meshgrid_laplacian_symbol(h, tau)
    assert got.shape == want.shape == h.dims
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _refuse_dense_view(monkeypatch):
    """Make any read of ``FourierOperator.matrix`` fail until the patch is undone."""
    def refuse(self):
        raise AssertionError("dense view of a FourierOperator read")

    monkeypatch.setattr(stability.FourierOperator, "matrix", property(refuse))


def _dense_classification(vals, eps):
    """Counts (grow, neutral, decay) and gap of the eigenvalues ``vals`` of a
    dense oracle at the neutral band ``eps``."""
    outside = np.abs(vals)[np.abs(vals) > eps]
    return (int(np.sum(vals > eps)), int(np.sum(np.abs(vals) <= eps)),
            int(np.sum(vals < -eps))), float(np.min(outside))


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
    oracle = _dense_assembled_operator(h, tau)
    assert report.eigenvalues.dtype == np.float64
    assert np.max(np.abs(report.eigenvalues - np.linalg.eigvalsh(oracle))) < 1e-12
    doc = report.to_document()
    assert doc["eigenvalues_re"] == report.eigenvalues.tolist()
    assert "eigenvalues_im" not in doc

    k = _random_symmetric(h, 4)
    applied = _tensor_to_vec(op.apply(k), h.n)
    assert np.allclose(applied, oracle @ _tensor_to_vec(k, h.n),
                       rtol=0.0, atol=1e-12)
    # the dense view kept for the benchmark's tracer is the same operator
    monkeypatch.undo()
    mat = op.matrix
    assert np.max(np.abs(mat - oracle)) < 1e-12
    # numpy places the blocks as scipy's block_diag does, bit for bit
    from scipy.linalg import block_diag

    N = op.symbol.size
    assert mat.tobytes() == block_diag(*[mat[:N, :N]] * op.ncomp).tobytes()


@pytest.mark.parametrize("make,n,tau", EQUIVALENCE_CASES, ids=EQUIVALENCE_IDS)
def test_symbol_report_splits_like_the_dense_report(make, n, tau):
    """The neutral band, the counts of growing, neutral and decaying
    eigenvalues, and the gap are those of the dense oracle's eigenvalues."""
    h = make(n)
    report = stability.spectrum(stability.assemble_linearized_pde(h, tau))
    vals = np.linalg.eigvalsh(_dense_assembled_operator(h, tau))
    mags = np.abs(vals)
    eps = report.eps_neutral
    assert abs(eps - np.min(mags[mags > 1e-10]) / 10.0) < 1e-13
    counts, gap = _dense_classification(vals, eps)
    assert (report.n_grow, report.n_neutral, report.n_decay) == counts
    assert abs(report.gap - gap) < 1e-12


def test_symbol_spectrum_forms_and_decomposes_no_matrix(monkeypatch):
    """Up to dimension 12288 (64^2) and in 3-D (3072 at 8^3) the spectrum is
    read off the symbol: no dense eigensolver, no Kronecker product and no
    dense view of the operator."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense linear algebra called")

    # built first: validating a 3-D metric takes eigenvalues of 3x3 blocks
    cases = [(_aniso_flat(32), 2.0)] + [(h, tau) for h in (_aniso_flat(64),
                                                           GridModel.flat(3, (8, 8, 8)))
                                        for tau in (np.inf, 0.5)]
    _refuse_dense_view(monkeypatch)
    for name in ("eigh", "eig", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np, "kron", refuse)
    for h, tau in cases:
        report = stability.spectrum(stability.assemble_linearized_pde(h, tau))
        report.to_document()
        assert report.n_decay > 0
        assert report.eigenvalues.dtype == np.float64
        # tau = inf: the constants are neutral, no mode grows; finite tau: no mode is neutral
        assert (report.n_neutral > 0) == np.isinf(tau)
        assert (report.n_grow > 0) == np.isfinite(tau)


def test_default_neutral_tolerance_is_a_tenth_of_the_gap():
    h = _flat(16)
    op = stability.assemble_linearized_pde(h, np.inf)
    lowest = 2.0 * (1.0 - np.cos(h.spacings[0])) / h.spacings[0] ** 2
    assert np.isclose(stability.default_neutral_tolerance(op), lowest / 10.0)


# a report holding every float ``json`` spells apart: both zeros, NaN, both
# infinities, the smallest subnormal, and repeats
_SYNTHETIC_REPORT = stability.SpectralReport(
    eigenvalues=np.array([-np.inf, -1.5, -0.0, -0.0, 0.0, 5e-324, 5e-324, 0.1, np.inf, np.nan]),
    eps_neutral=1e-3, n_grow=4, n_neutral=4, n_decay=2, gap=0.1)
_EMPTY_REPORT = stability.SpectralReport(eigenvalues=np.array([]), eps_neutral=0.1,
                                         n_grow=0, n_neutral=0, n_decay=0, gap=np.inf)


@pytest.mark.parametrize("report", [
    pytest.param(lambda: stability.spectrum(stability.assemble_linearized_pde(
        _aniso_flat(32), np.inf)), id="aniso32x32"),
    pytest.param(lambda: stability.spectrum(stability.assemble_linearized_pde(
        _aniso_flat_3d(), np.inf)), id="8x8x8"),
    pytest.param(lambda: stability.spectrum(stability.assemble_linearized_pde(
        _aniso_flat(16), 0.5)), id="aniso16x16-tau0.5"),
    pytest.param(lambda: stability.spectrum(stability.assemble_linearized_pde(
        GridModel.flat(2, *_SPECTRUM_32_V9), np.inf)), id="spectrum-32-v9"),
    pytest.param(lambda: _SYNTHETIC_REPORT, id="synthetic"),
    pytest.param(lambda: _EMPTY_REPORT, id="empty"),
])
def test_spectral_json_is_the_indented_dump_of_the_document(report):
    """``to_json`` formats each distinct eigenvalue once and gives the bytes
    of ``json.dumps(to_document(), indent=2)``."""
    report = report()
    assert report.to_json() == json.dumps(report.to_document(), indent=2)


class _CountedList(np.ndarray):
    """Eigenvalues that record the length of every list made of them."""

    listed = []

    def tolist(self):
        self.listed.append(self.size)
        return super().tolist()


def test_spectral_json_reads_the_document_once(monkeypatch):
    """``to_json`` reads the document once, without its eigenvalue list, and
    lists no more eigenvalues than it formats: one per run of equal bits."""
    calls = []
    to_document = stability.SpectralReport.to_document

    def counted(self, **kwargs):
        calls.append(to_document(self, **kwargs))
        return calls[-1]

    monkeypatch.setattr(stability.SpectralReport, "to_document", counted)
    report = stability.spectrum(stability.assemble_linearized_pde(_flat(16), np.inf))
    report = dataclasses.replace(report, eigenvalues=report.eigenvalues.view(_CountedList))
    _CountedList.listed.clear()
    report.to_json()
    assert len(calls) == 1 and calls[0]["eigenvalues_re"] == []
    runs = np.count_nonzero(np.diff(report.eigenvalues.view(np.int64))) + 1
    assert _CountedList.listed == [runs] and runs < report.eigenvalues.size == 768


@pytest.mark.parametrize("symbol", [np.full((8, 8), 1e-11), np.where(np.eye(8), np.inf, -1.0)],
                         ids=["all-neutral", "non-finite"])
def test_spectrum_without_a_gap_is_a_numerical_failure(symbol):
    """A symbol with no magnitude above the 1e-10 floor (a grid step so long
    that every mode is neutral) or with a non-finite entry (1/h^2 overflowed)
    has no gap to report."""
    with pytest.raises(NumericalFailureError, match="^spectrum: "):
        stability.spectrum(stability.FourierOperator(symbol=symbol, ncomp=3))


def test_frame_jacobian_at_round_fixed_point():
    m = FrameModel.su2(a=(4.0, 4.0, 4.0))
    jac = stability.jacobian_ode(lambda mm: flows.rhs_tau_flow(mm, 1.0), m)
    assert jac.shape == (3, 3)
    vals = np.sort(np.linalg.eigvals(jac).real)
    # one growing direction (overall scaling), a decaying double eigenvalue
    assert np.allclose(vals, [-2.0, -2.0, 1.0], atol=1e-5)


def test_discrete_rhs_linearization_consistent_with_assembly():
    """The exact linearization of the flow stencils and the assembled compact
    operator are different discretizations of the same PDE: their difference
    on a smooth mode is O(h^2)."""
    diffs = []
    for n in (8, 16):
        h = _flat(n)
        lin = stability.linearized_deturck_flow(h)
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
    """The closed form (plus 1/tau at a finite tau) against the node-by-node
    linearization, against the unit flat reference: for the anisotropic
    background it is not the background."""
    h = make(n)
    _refuse_dense_view(monkeypatch)
    op = _flow_operator(h, tau)
    oracle = _dense_flow_linearization(h, "deturck", tau, reference=_flat(n))
    eps = stability.default_neutral_tolerance(op)
    report = stability.spectrum(op)
    assert report.eps_neutral == eps
    # symmetric up to the finite-difference noise
    assert np.max(np.abs(oracle - oracle.T)) < 1e-8
    dense = np.linalg.eigvalsh(0.5 * (oracle + oracle.T))
    assert np.max(np.abs(report.eigenvalues - dense)) < 1e-8
    counts, gap = _dense_classification(dense, eps)
    assert (report.n_grow, report.n_neutral, report.n_decay) == counts
    assert abs(report.gap - gap) < 1e-8
    k = _random_symmetric(h, 8)
    applied = _tensor_to_vec(op.apply(k), h.n)
    assert np.max(np.abs(applied - oracle @ _tensor_to_vec(k, h.n))) < 1e-8


@pytest.mark.parametrize("h", [_aniso_flat(64), _aniso_flat_3d()],
                         ids=["aniso64x64", "8x8x8"])
@pytest.mark.parametrize("tau", [np.inf, 0.5])
def test_linearized_flow_needs_no_node_cap(h, tau):
    """The closed form is the symbol of the flow's stencils on any grid: at
    64^2 and on an anisotropic 8^3 metric, against the unit flat reference, it
    is the impulse response of the discrete flow."""
    assert stability.linearized_deturck_flow(h).symbol.shape == h.dims
    _assert_is_the_impulse_response(h, GridModel.flat(h.n, h.dims), tau)


def test_linearized_flow_kernel_and_gap():
    """The wide stencils vanish at theta = pi as well as at 0: at 16^2 the
    flow's kernel holds the wavenumbers (0 or 8, 0 or 8) of each of the three
    components, and its gap is the lowest mode's (sin dx / dx)^2, below the
    compact symbol's 2 (1 - cos dx) / dx^2."""
    h = _flat(16)
    report = stability.spectrum(stability.linearized_deturck_flow(h))
    dx = h.spacings[0]
    assert (report.n_grow, report.n_neutral) == (0, 12)
    assert np.isclose(report.gap, (np.sin(dx) / dx) ** 2, rtol=1e-12, atol=0.0)
    assert report.gap < stability.spectrum(stability.assemble_linearized_pde(h, np.inf)).gap


def test_linearized_flow_rejects_curved_backgrounds():
    h = _flat(8)
    X, _ = h.coords()
    curved = h.with_metric(h.g * (1.0 + 0.1 * np.sin(X))[..., None, None])
    with pytest.raises(RejectedInputError, match="flat"):
        stability.linearized_deturck_flow(curved)


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
# the quadratic remainder against the integrated RK4 scheme


def _readme_trajectory(dims, amplitude, t_end, seed=7):
    """The README run (samples 4 steps apart) on ``dims``, cut at ``t_end``,
    from the perturbation of ``seed`` (the README's is 7): the arguments of
    ``rk4_remainder``, that is its trajectory, the L2 norms of k = g - g1
    for the family member g1 it tends to, g1, the flat background h, and dt."""
    dt = 0.02 if len(dims) == 2 else 0.05
    cfg = harness.RunConfig(dims=dims, period=(TWO_PI,) * len(dims), amplitude=amplitude,
                            seed=seed, dt=dt, t_end=t_end, sample_every=4)
    traj = harness.integrate_flow(cfg)
    h = harness.flat_background(cfg)
    g1 = stability.nearest_soliton_in_family(traj.states[-1].model, h).g1
    norms = [geometry.norms(h, s.model.g - g1.g).l2 for s in traj.states]
    return traj, norms, g1, h, dt


@pytest.mark.parametrize("dims", [(16, 16), (8, 8, 8)], ids=["16x16", "8x8x8"])
def test_rk4_remainder_constant_is_amplitude_independent(dims):
    """||k_{i+1} - R^m k_i|| / ||k_i||^2 does not move over three decades of
    amplitude (||k|| from 0.1 to 5e-5): the remainder left by the integrated
    scheme's own linear part is quadratic in |k|.  Any linear mismatch (the
    error of a time difference, the compact symbol, an R without its z^4/24
    term) makes the ratio grow like 1/|k| and shows at the smallest one."""
    constants = []
    for amplitude in (0.02, 1e-3, 1e-5):
        constant, last = stability.rk4_remainder(*_readme_trajectory(dims, amplitude, 1.0))
        assert 0.0 < last <= constant < 0.05
        constants.append(constant)
    assert (max(constants) - min(constants)) / min(constants) < 5e-3, constants


def _pushed_ratios(traj, norms, g1, h, dt, symbol):
    """Test-side ||k_{i+1} - R(dt symbol)^m k_i|| / ||k_i||^2 per interval
    with ||k_i|| > 1e-6, on a 2-D unit-metric background, by numpy FFTs and
    an explicit L2 sum."""
    z = dt * symbol
    amplification = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
    ratios = []
    for i, (s0, s1) in enumerate(zip(traj.states, traj.states[1:])):
        if norms[i] <= 1e-6:
            continue
        m = round((s1.t - s0.t) / dt)
        k0, k1 = (np.moveaxis(s.model.g - g1.g, (-2, -1), (0, 1)) for s in (s0, s1))
        pushed = np.fft.ifft2(amplification**m * np.fft.fft2(k0)).real
        ratios.append(np.sqrt(np.sum((k1 - pushed) ** 2) * np.prod(h.spacings)) / norms[i] ** 2)
    return ratios


@pytest.mark.parametrize("seed", [7, 0])
def test_compact_symbol_leaves_a_linear_mismatch(seed):
    """The verdict is the largest and the last of the pushed ratios against
    the integrated flow's symbol (the largest is the first for seed 7, the
    second from last for seed 0).  With the compact-stencil symbol (the
    spectral stage's operator) in its place the two linear parts differ at
    O(|k|), so the ratio grows as |k| shrinks and ends far above the
    verdict's."""
    args = _readme_trajectory((16, 16), 0.01, 4.0, seed)
    _, _, g1, h, _ = args
    constant, last = stability.rk4_remainder(*args)
    flow = _pushed_ratios(*args, stability.linearized_deturck_flow(g1).symbol)
    assert np.allclose([constant, last], [max(flow), flow[-1]], rtol=1e-9, atol=0.0)
    compact = _pushed_ratios(*args, stability.assemble_linearized_pde(g1, np.inf).symbol)
    assert compact[-1] > compact[0]
    assert compact[-1] > 100.0 * last, (compact[-1], last)


def test_linearized_flow_is_the_impulse_response_at_the_readme_limit():
    """Where ``rk4_remainder`` linearizes: at the limit g1 of the README run,
    a constant metric that is not the flat reference h."""
    _, _, g1, h, _ = _readme_trajectory((16, 16), 0.01, 16.0)
    assert np.max(np.abs(g1.g - h.g)) > 1e-5
    _assert_is_the_impulse_response(g1, h, np.inf)


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

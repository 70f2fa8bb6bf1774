"""Geometry layer: curvature against symbolic oracles, norms, validation."""

import numpy as np
import pytest
import sympy as sp

from solitonlab import flows, geometry
from solitonlab.errors import RejectedInputError
from solitonlab.geometry import FrameModel, GridModel

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# symbolic oracle: a generic smooth periodic metric on T^2


@pytest.fixture(scope="module")
def symbolic_t2_oracle():
    """Christoffel, Ricci, and scalar curvature of a non-trivial periodic
    metric, computed symbolically and lambdified for pointwise comparison."""
    x, y = sp.symbols("x y", real=True)
    u = sp.Rational(1, 10) * sp.sin(x) * sp.cos(y)
    v = sp.Rational(1, 20) * sp.cos(x + y)
    w = sp.Rational(1, 25) * sp.sin(y)
    g = sp.Matrix([[sp.exp(2 * u), w], [w, sp.exp(2 * v)]])
    ginv = g.inv()
    coords = (x, y)
    n = 2
    gamma = [[[sp.simplify(sum(ginv[k, l] * (sp.diff(g[l, i], coords[j])
                                             + sp.diff(g[l, j], coords[i])
                                             - sp.diff(g[i, j], coords[l])) / 2
                               for l in range(n)))
               for j in range(n)] for i in range(n)] for k in range(n)]
    ric = sp.zeros(n, n)
    for i in range(n):
        for j in range(n):
            term = sum(sp.diff(gamma[k][i][j], coords[k]) for k in range(n))
            term -= sum(sp.diff(gamma[k][k][j], coords[i]) for k in range(n))
            term += sum(gamma[k][k][l] * gamma[l][i][j]
                        for k in range(n) for l in range(n))
            term -= sum(gamma[k][i][l] * gamma[l][k][j]
                        for k in range(n) for l in range(n))
            ric[i, j] = term
    scal = sum(ginv[i, j] * ric[i, j] for i in range(n) for j in range(n))
    return {
        "metric": sp.lambdify((x, y), g, "numpy"),
        "gamma": sp.lambdify((x, y), sp.Array(gamma), "numpy"),
        "ricci": sp.lambdify((x, y), ric, "numpy"),
        "scalar": sp.lambdify((x, y), scal, "numpy"),
    }


def _oracle_grid(oracle, nside):
    m = GridModel.flat(2, (nside, nside), (TWO_PI, TWO_PI))
    X, Y = m.coords()
    gm = np.empty(m.g.shape)
    for idx in np.ndindex(nside, nside):
        gm[idx] = oracle["metric"](X[idx], Y[idx])
    return m.with_metric(gm), X, Y


def _sup_error(field, exact_fn, X, Y):
    err = 0.0
    for idx in np.ndindex(X.shape):
        err = max(err, np.max(np.abs(field[idx] - np.asarray(exact_fn(X[idx], Y[idx])))))
    return err


@pytest.mark.parametrize("op,key", [
    (geometry.christoffel, "gamma"),
    (geometry.ricci, "ricci"),
    (geometry.scalar_curvature, "scalar"),
])
def test_curvature_matches_symbolic_oracle_at_second_order(symbolic_t2_oracle, op, key):
    errs = {}
    for nside in (32, 64):
        m, X, Y = _oracle_grid(symbolic_t2_oracle, nside)
        field = op(m)
        if key == "gamma":
            # oracle indexing [k][i][j] matches the [..., k, i, j] layout
            errs[nside] = _sup_error(field, symbolic_t2_oracle[key], X, Y)
        else:
            errs[nside] = _sup_error(field, symbolic_t2_oracle[key], X, Y)
    assert errs[64] < errs[32]
    ratio = errs[32] / errs[64]
    assert 3.0 < ratio < 5.5, f"expected O(h^2) convergence, got ratio {ratio}"


@pytest.mark.parametrize("shape", [(8, 10, 2, 2), (8, 9, 10, 3, 3)])
def test_stencils_equal_the_roll_formula(shape):
    f = np.random.default_rng(0).standard_normal(shape)
    h = 0.3
    for axis in range(f.ndim):
        up, down = np.roll(f, -1, axis=axis), np.roll(f, 1, axis=axis)
        assert np.array_equal(geometry.d1(f, axis=axis, h=h), (up - down) / (2.0 * h))
        assert np.array_equal(geometry.d2(f, axis=axis, h=h), (up - 2.0 * f + down) / h**2)


def test_flat_metric_curvature_vanishes_exactly():
    m = GridModel.flat(2, (16, 16), (TWO_PI, TWO_PI))
    assert np.max(np.abs(geometry.christoffel(m))) == 0.0
    assert np.max(np.abs(geometry.ricci(m))) == 0.0
    assert np.max(np.abs(geometry.scalar_curvature(m))) == 0.0


# ---------------------------------------------------------------------------
# frame curvature against an independent Koszul-formula oracle


def _koszul_frame_ricci(lams, a):
    """Ricci of a diagonal left-invariant metric from first principles.

    Structure constants [e_i, e_j] = sum_k C^k_ij e_k with C^k_ij =
    lambda_k epsilon_ijk; connection coefficients from the Koszul formula;
    curvature from its frame expression.  Independent of the closed form.
    """
    n = 3
    eps = np.zeros((n, n, n))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    C = np.einsum("ijk,k->kij", eps, lams)  # C[k, i, j]
    a = np.asarray(a, dtype=float)
    # <nabla_{e_i} e_j, e_k> a_k^{-1} -> coefficients G[k, i, j]
    G = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                val = 0.5 * (C[k, i, j] * a[k] - C[i, j, k] * a[i] + C[j, k, i] * a[j])
                G[k, i, j] = val / a[k]
    # R(e_i, e_j) e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k - nabla_[i,j] e_k
    ric = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            s = 0.0
            for i in range(n):
                riem_i = np.zeros(n)
                for m in range(n):
                    riem_i += G[:, i, m] * G[m, j, k] - G[:, j, m] * G[m, i, k]
                    riem_i -= C[m, i, j] * G[:, m, k]
                # trace against the orthonormal frame e_i / sqrt(a_i)
                s += riem_i[i]
            ric[j, k] = s
    return ric


def test_frame_ricci_matches_koszul_oracle():
    for a in [(1.0, 1.0, 1.0), (4.0, 4.0, 4.0), (1.3, 0.9, 0.5)]:
        m = FrameModel.su2(a=a)
        got = geometry.ricci(m)  # lowered diagonal coefficients
        oracle = _koszul_frame_ricci(m.lams, a)
        off = oracle - np.diag(np.diag(oracle))
        assert np.max(np.abs(off)) < 1e-12, "oracle Ricci should be diagonal"
        # the oracle traces against the orthonormal frame, so its diagonal
        # already carries the lowered bilinear-form values Ric(e_i, e_i)
        assert np.allclose(got, np.diag(oracle), atol=1e-12)


def test_round_sphere_frame_values():
    m = FrameModel.su2()  # unit round 3-sphere
    assert np.allclose(geometry.ricci(m), 2.0 * m.a)
    assert np.isclose(geometry.scalar_curvature(m), 6.0)
    assert np.isclose(geometry.volume(m), 2.0 * np.pi**2)


def test_frame_ricci_is_permutation_natural():
    a = np.array([1.3, 0.9, 0.5])
    base = geometry.ricci(FrameModel.su2(a=tuple(a)))
    for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        permuted = geometry.ricci(FrameModel.su2(a=tuple(a[list(perm)])))
        assert np.allclose(permuted, base[list(perm)], atol=1e-12)


# ---------------------------------------------------------------------------
# derived operators


@pytest.fixture()
def curved_t2():
    m = GridModel.flat(2, (32, 32), (TWO_PI, TWO_PI))
    X, Y = m.coords()
    gm = m.g.copy()
    gm[..., 0, 0] *= np.exp(0.2 * np.sin(X))
    gm[..., 1, 1] *= np.exp(0.1 * np.cos(Y))
    gm[..., 0, 1] = gm[..., 1, 0] = 0.05 * np.sin(X + Y)
    return m.with_metric(gm)


def test_divergence_is_adjoint_of_lie_derivative(curved_t2):
    """2 int <delta T, V> dV = int <T, L_V g> dV for the rough pairing."""
    m = curved_t2
    X, Y = m.coords()
    V = np.stack([0.3 * np.sin(Y), 0.2 * np.cos(X)], axis=-1)
    T = np.zeros(m.g.shape)
    T[..., 0, 0] = np.cos(X)
    T[..., 1, 1] = np.sin(Y)
    T[..., 0, 1] = T[..., 1, 0] = 0.1 * np.sin(X) * np.sin(Y)
    dV = np.prod(m.spacings) * np.sqrt(np.linalg.det(m.g))
    ginv = geometry.inverse_metric(m)
    delta_t = geometry.divergence(m, T)
    lhs = np.sum(np.einsum("...ij,...i,...j->...", ginv, delta_t,
                           geometry.lower_vector(m, V)) * dV)
    lie = geometry.lie_derivative_metric(m, V)
    rhs = 0.5 * np.sum(np.einsum("...ik,...jl,...ij,...kl->...", ginv, ginv, T, lie) * dV)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_scalar_laplacian_eigenfunction():
    m = GridModel.flat(2, (64, 64), (TWO_PI, TWO_PI))
    X, _ = m.coords()
    f = np.sin(X)
    h = m.spacings[0]
    lam_discrete = -2.0 * (1.0 - np.cos(h)) / h**2
    assert np.allclose(geometry.laplacian_scalar(m, f), lam_discrete * f, atol=1e-12)


# ---------------------------------------------------------------------------
# norms, volume, validation


def test_volume_scaling():
    m = FrameModel.su2()
    for c in (2.0, 5.0):
        scaled = m.with_a(m.a * c)
        assert np.isclose(geometry.volume(scaled), c ** 1.5 * geometry.volume(m))


def test_l2_norm_closed_form():
    m = GridModel.flat(2, (32, 32), (TWO_PI, TWO_PI))
    X, _ = m.coords()
    rep = geometry.norms(m, np.sin(X))
    assert np.isclose(rep.l2**2, 0.5 * TWO_PI**2)  # int sin^2 over [0,2pi]^2
    assert np.isclose(rep.sup, np.max(np.abs(np.sin(X))))


def test_norm_scaling_under_metric_dilation():
    m = GridModel.flat(2, (16, 16), (TWO_PI, TWO_PI))
    X, _ = m.coords()
    f = np.cos(X)
    c = 3.0
    scaled = m.with_metric(m.g * c)
    assert np.isclose(geometry.norms(scaled, f).l2,
                      c ** 0.5 * geometry.norms(m, f).l2)


def test_non_spd_metric_rejected():
    m = GridModel.flat(2, (8, 8), (TWO_PI, TWO_PI))
    bad = m.g.copy()
    bad[0, 0] = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite at one node
    with pytest.raises(RejectedInputError):
        m.with_metric(bad)


# ---------------------------------------------------------------------------
# derived fields


def test_derived_fields_are_cached_and_read_only(curved_t2):
    m = curved_t2.with_metric(curved_t2.g)
    assert np.array_equal(m.ginv, geometry.inverse_metric(m))
    assert np.array_equal(m.gamma, geometry.christoffel(m))
    assert np.array_equal(m.sqrt_det, np.sqrt(np.linalg.det(m.g)))
    frame = FrameModel.su2(a=(1.2, 1.0, 0.7))
    for model, names in ((m, ("ginv", "gamma", "ric", "sqrt_det")), (frame, ("ric",))):
        for name in names:
            field = getattr(model, name)
            assert getattr(model, name) is field  # derived once
            with pytest.raises(ValueError, match="read-only"):
                field[...] = 0.0
        assert geometry.ricci(model) is model.ric


def test_twin_shares_the_metric_and_none_of_the_fields(curved_t2):
    m = curved_t2.with_metric(curved_t2.g)
    m.ric
    t = geometry.twin(m)
    assert t.g is m.g and not {"ginv", "gamma", "ric", "sqrt_det"} & vars(t).keys()
    assert np.array_equal(t.ric, m.ric)


# ---------------------------------------------------------------------------
# unrolled contractions against their einsum spelling, bitwise

SHAPES = [(16, 16), (32, 32), (8, 8, 8), (12, 10, 9)]
SEEDS = (0, 1, 2)


def _random_spd(dims, seed):
    """A random SPD metric field: I + A A^T with A ~ 0.3 N(0, 1) per node."""
    n = len(dims)
    a = 0.3 * np.random.default_rng(seed).standard_normal(tuple(dims) + (n, n))
    g = np.eye(n) + a @ np.swapaxes(a, -1, -2)
    return GridModel(n=n, dims=dims, period=(TWO_PI,) * n, g=0.5 * (g + np.swapaxes(g, -1, -2)))


def _einsum_christoffel(m, ginv):
    hs = m.spacings
    dg = np.stack([geometry.d1(m.g, axis=l, h=hs[l]) for l in range(m.n)], axis=-1)
    term = (np.einsum("...jli->...lij", dg) + np.einsum("...ilj->...lij", dg)
            - np.einsum("...ijl->...lij", dg))
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, term)


def _einsum_ricci(m, gamma):
    hs = m.spacings
    dgamma = np.stack([geometry.d1(gamma, axis=l, h=hs[l]) for l in range(m.n)], axis=-1)
    r = np.einsum("...kijk->...ij", dgamma)
    r -= np.einsum("...kkji->...ij", dgamma)
    r += np.einsum("...kkl,...lij->...ij", gamma, gamma)
    r -= np.einsum("...kil,...lkj->...ij", gamma, gamma)
    return 0.5 * (r + np.swapaxes(r, -1, -2))


def _einsum_covd_tensor(m, gamma, t):
    out = np.einsum("...ijl->...lij", geometry.partials(m, t))
    out -= np.einsum("...mli,...mj->...lij", gamma, t)
    out -= np.einsum("...mlj,...im->...lij", gamma, t)
    return out


@pytest.mark.parametrize("dims", SHAPES, ids=lambda d: "x".join(map(str, d)))
def test_unrolled_curvature_contractions_equal_einsum_bitwise(dims):
    """Christoffel, Ricci and the covariant derivative of a 2-tensor sum their
    component products in einsum's order, so they equal its result bitwise."""
    for seed in SEEDS:
        m = _random_spd(dims, seed)
        assert np.array_equal(m.gamma, _einsum_christoffel(m, np.linalg.inv(m.g)))
        assert np.array_equal(m.ric, _einsum_ricci(m, m.gamma))
        t = _random_spd(dims, seed + 10).g
        assert np.array_equal(geometry.covd_tensor(m, t), _einsum_covd_tensor(m, m.gamma, t))


def _einsum_rhs_deturck(m, h, tau):
    """-2 Ric + L_V g (+ g / tau) with every contraction spelled as einsum."""
    ginv = np.linalg.inv(m.g)
    gamma = _einsum_christoffel(m, ginv)
    v = np.einsum("...pq,...kpq->...k", ginv, gamma - _einsum_christoffel(h, np.linalg.inv(h.g)))
    w = np.einsum("...ij,...j->...i", m.g, v)
    dw = np.einsum("...ji->...ij", geometry.partials(m, w))
    dw = dw - np.einsum("...kij,...k->...ij", gamma, w)
    out = -2.0 * _einsum_ricci(m, gamma) + (dw + np.swapaxes(dw, -1, -2))
    return out + m.g / tau if np.isfinite(tau) else out


@pytest.mark.parametrize("tau", [0.7, np.inf])
def test_deturck_rhs_equals_its_einsum_spelling_bitwise(tau):
    h = GridModel.flat(2, (16, 16), (TWO_PI, TWO_PI))
    for seed in SEEDS:
        m = _random_spd((16, 16), seed)
        assert np.array_equal(flows.rhs_deturck(m, h, tau), _einsum_rhs_deturck(m, h, tau))

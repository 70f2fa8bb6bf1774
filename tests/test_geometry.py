"""Geometry layer: curvature against symbolic oracles, norms, validation."""

import math
import threading
from itertools import combinations

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from solitonlab import entropy, flows, geometry
from solitonlab.errors import NumericalFailureError, RejectedInputError
from solitonlab.geometry import FrameModel, GridModel

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# symbolic oracle: a generic smooth periodic metric on T^2


def _grid_function(coords, components, shape):
    """The symbolic ``components`` (row-major, of a tensor of ``shape``)
    evaluated on whole coordinate grids: a function of X, Y returning the
    node-major field of shape ``X.shape + shape``."""
    f = sp.lambdify(coords, components, "numpy")
    return lambda X, Y: np.stack([np.broadcast_to(c, X.shape) for c in f(X, Y)],
                                 axis=-1).reshape(X.shape + shape)


@pytest.fixture(scope="module")
def symbolic_t2_oracle():
    """Christoffel, Ricci, and scalar curvature of a non-trivial periodic
    metric, computed symbolically and lambdified for comparison on grids."""
    x, y = sp.symbols("x y", real=True)
    u = sp.Rational(1, 10) * sp.sin(x) * sp.cos(y)
    v = sp.Rational(1, 20) * sp.cos(x + y)
    w = sp.Rational(1, 25) * sp.sin(y)
    g = sp.Matrix([[sp.exp(2 * u), w], [w, sp.exp(2 * v)]])
    ginv = g.inv()
    coords = (x, y)
    n = 2
    pairs = [(i, j) for i in range(n) for j in range(n)]
    gamma = [[[sum(ginv[k, l] * (sp.diff(g[l, i], coords[j])
                                 + sp.diff(g[l, j], coords[i])
                                 - sp.diff(g[i, j], coords[l])) / 2
                   for l in range(n))
               for j in range(n)] for i in range(n)] for k in range(n)]
    ric = sp.zeros(n, n)
    for i, j in pairs:
        term = sum(sp.diff(gamma[k][i][j], coords[k]) for k in range(n))
        term -= sum(sp.diff(gamma[k][k][j], coords[i]) for k in range(n))
        term += sum(gamma[k][k][l] * gamma[l][i][j]
                    for k in range(n) for l in range(n))
        term -= sum(gamma[k][i][l] * gamma[l][k][j]
                    for k in range(n) for l in range(n))
        ric[i, j] = term
    scal = sum(ginv[i, j] * ric[i, j] for i, j in pairs)
    return {
        "metric": _grid_function(coords, [g[i, j] for i, j in pairs], (n, n)),
        "gamma": _grid_function(coords, [gamma[k][i][j] for k in range(n) for i, j in pairs],
                                (n, n, n)),
        "ricci": _grid_function(coords, [ric[i, j] for i, j in pairs], (n, n)),
        "scalar": _grid_function(coords, [scal], ()),
    }


def _oracle_grid(oracle, nside):
    m = GridModel.flat(2, (nside, nside), (TWO_PI, TWO_PI))
    X, Y = m.coords()
    return m.with_metric(oracle["metric"](X, Y)), X, Y


def _sup_error(field, exact_fn, X, Y):
    return np.max(np.abs(field - exact_fn(X, Y)))


def ricci(m):
    return geometry.node_major(m.ric_cm, 2)


@pytest.mark.parametrize("op,key", [
    (geometry.christoffel, "gamma"),
    (ricci, "ricci"),
    (geometry.scalar_curvature, "scalar"),
])
def test_curvature_matches_symbolic_oracle_at_second_order(symbolic_t2_oracle, op, key):
    errs = {}
    for nside in (32, 64):
        m, X, Y = _oracle_grid(symbolic_t2_oracle, nside)
        field = op(m)
        if key == "gamma":
            # christoffel returns Gamma[k, i, j] component-major; the oracle
            # indexing [k][i][j] matches the node-major [..., k, i, j] layout
            field = geometry.node_major(field, 3)
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


@pytest.mark.parametrize("dims", [(8, 8), (16, 16), (32, 32), (33, 17), (8, 8, 8), (12, 10, 9)],
                         ids=lambda d: "x".join(map(str, d)))
def test_d1_symbol_is_the_symbol_of_d1(dims):
    """``d1`` multiplies a Fourier mode by i ``d1_symbol``, whose planes are
    bitwise the sine of the meshgrid of phases over h: the spelling that the
    linearized flow's symbol used before it read them from here."""
    n = len(dims)
    rng = np.random.default_rng(0)
    for period in (TWO_PI, 6.0, 37.5):
        m = GridModel.flat(n, dims, (period,) * n)
        sym = geometry.d1_symbol(m)
        theta = np.meshgrid(*[2.0 * np.pi * np.fft.fftfreq(d) for d in dims], indexing="ij")
        k = tuple(int(rng.integers(d)) for d in dims)
        phase = sum(th[k] * j for th, j in zip(theta, np.meshgrid(*map(np.arange, dims),
                                                                 indexing="ij")))
        mode = np.exp(1j * phase)
        for a in range(n):
            assert np.array_equal(sym[a], np.sin(theta[a]) / m.spacings[a])
            assert np.allclose(geometry.d1(mode, axis=a, h=m.spacings[a]),
                               1j * sym[a][k] * mode, rtol=0.0, atol=1e-12 / m.spacings[a])


def test_flat_metric_curvature_vanishes_exactly():
    m = GridModel.flat(2, (16, 16), (TWO_PI, TWO_PI))
    assert np.max(np.abs(geometry.christoffel(m))) == 0.0
    assert np.max(np.abs(m.ric_cm)) == 0.0
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
        got = m.ric  # lowered diagonal coefficients
        oracle = _koszul_frame_ricci(m.lams, a)
        off = oracle - np.diag(np.diag(oracle))
        assert np.max(np.abs(off)) < 1e-12, "oracle Ricci should be diagonal"
        # the oracle traces against the orthonormal frame, so its diagonal
        # already carries the lowered bilinear-form values Ric(e_i, e_i)
        assert np.allclose(got, np.diag(oracle), atol=1e-12)


def test_round_sphere_frame_values():
    m = FrameModel.su2()  # unit round 3-sphere
    assert np.allclose(m.ric, 2.0 * m.a)
    assert np.isclose(geometry.scalar_curvature(m), 6.0)
    assert np.isclose(geometry.volume(m), 2.0 * np.pi**2)


@pytest.mark.parametrize("a", [1.0, 1e100, 1e150, 1e155, 1e210])
def test_round_frame_ricci_survives_an_overflowing_product(a):
    """The round sphere's lowered Ricci coefficients are 2 at every scale:
    a_j a_k overflows past a = 1.3e154, and the quotient a_i / (a_j a_k) is
    then taken one factor at a time (it read 0, so Ric read [0, 0, 0])."""
    assert np.allclose(FrameModel.su2(a=(a,) * 3).ric, 2.0, rtol=1e-14, atol=0.0)


def test_frame_volume_overflow_raises():
    with pytest.raises(NumericalFailureError, match="volume of the frame metric"):
        geometry.volume(FrameModel.su2(a=(1e210,) * 3))
    assert np.isfinite(geometry.volume(FrameModel.su2(a=(1e150,) * 3)))


def test_frame_ricci_is_permutation_natural():
    a = np.array([1.3, 0.9, 0.5])
    base = FrameModel.su2(a=tuple(a)).ric
    for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        permuted = FrameModel.su2(a=tuple(a[list(perm)])).ric
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
    ginv = geometry.node_major(m.ginv_cm, 2)
    delta_t = geometry.divergence(m, T)
    V_cm = geometry.component_major(V, 1)
    lhs = np.sum(np.einsum("...ij,...i,...j->...", ginv, delta_t,
                           geometry.node_major(geometry.lower_vector(m, V_cm), 1)) * dV)
    lie = geometry.node_major(geometry.lie_derivative_metric(m, V_cm), 2)
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
# the float frame kernels against their numpy spellings, bit for bit

# Milnor's unimodular signatures: SU(2), E(2), Nil, Sol and SL(2, R)
MILNOR_LAMS = {"su2": (2.0, 2.0, 2.0), "e2": (1.0, 1.0, 0.0), "nil": (1.0, 0.0, 0.0),
               "sol": (1.0, -1.0, 0.0), "sl2": (1.0, 1.0, -1.0)}


def _numpy_ricci_frame(m):
    """``_ricci_frame`` in numpy arithmetic on length-3 arrays: the reference
    whose bits the float kernel must give."""
    lams, a = m.lams, m.a
    x = a.tolist()
    idx = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    cbar = []
    for i, j, k in idx:
        p = x[j] * x[k]
        q = x[i] / p if 0.0 < p < math.inf else x[i] / x[j] / x[k]
        cbar.append(lams[i] * np.sqrt(q))
    cbar = np.array(cbar)
    mu = 0.5 * cbar.sum() - cbar
    return np.array([2.0 * mu[j] * mu[k] for i, j, k in idx]) * a


def _numpy_frame_volume(m):
    """The frame ``volume`` in numpy arithmetic, inf where it overflows."""
    return float(m.base_volume * np.prod(np.sqrt(m.a)))


def _numpy_accepts(a):
    return bool(((0.0 < a) & (a < np.inf)).all())


# log-uniform over the whole range, and hypothesis's own choice of floats in it
_COEFFICIENT = st.one_of(st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
                         st.floats(1e-300, 1e300))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(group=st.sampled_from(sorted(MILNOR_LAMS)),
       a=st.tuples(_COEFFICIENT, _COEFFICIENT, _COEFFICIENT))
@example(group="su2", a=(4.4, 4.0, 3.7))  # the Berger start of the entropy audit
@example(group="su2", a=(1e300, 1e300, 1e300))  # a_j a_k and the volume overflow
@example(group="nil", a=(1e300, 1e-300, 1e-300))  # a 0 lambda times an infinite quotient
@example(group="sol", a=(1e-300, 1e-300, 1e300))  # a_j a_k underflows to 0
@example(group="sl2", a=(1e200, 1e150, 1e-100))  # one product overflows, the volume not
def test_frame_kernels_equal_their_numpy_spellings_bitwise(group, a):
    """``_ricci_frame`` and the frame ``volume`` run on Python floats; they
    must give the bits of their numpy spellings.  The oracles run with
    numpy's warnings off: 0 * inf makes a NaN, which numpy warns about and
    floats do not."""
    m = FrameModel(lams=MILNOR_LAMS[group], a=a, base_volume=2.0 * np.pi**2)
    with np.errstate(all="ignore"):
        ric, vol = _numpy_ricci_frame(m), _numpy_frame_volume(m)
    assert np.array_equal(geometry._ricci_frame(m), ric, equal_nan=True)
    if math.isfinite(vol):
        assert np.array_equal(geometry.volume(m), vol, equal_nan=True)
    else:
        with pytest.raises(NumericalFailureError, match="volume of the frame metric"):
            geometry.volume(m)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=st.tuples(*[st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324]))] * 3))
def test_frame_model_accepts_what_the_array_check_accepted(a):
    """``FrameModel`` checks its coefficients on floats; it accepts exactly the
    coefficients the array check accepted (NaN, 0, -0.0 and inf rejected)."""
    if _numpy_accepts(np.array(a)):
        assert FrameModel.su2(a=a).a.tolist() == list(a)
    else:
        with pytest.raises(RejectedInputError, match="must be positive and finite"):
            FrameModel.su2(a=a)


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


@pytest.mark.parametrize("a", [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (np.nan, 1.0, 1.0),
                               (np.inf, 1.0, 1.0), (1.0, 1.0, -np.inf)])
def test_frame_model_rejects_non_positive_or_non_finite_coefficients(a):
    with pytest.raises(RejectedInputError, match="must be positive and finite"):
        FrameModel.su2(a=a)


@pytest.mark.parametrize("period", [(np.nan, TWO_PI), (0.0, TWO_PI), (TWO_PI, -1.0),
                                    (np.inf, TWO_PI)])
def test_grid_model_rejects_a_period_not_positive_and_finite(period):
    """``check_grid``, which every ``GridModel`` and the trajectory loader
    run, rejects a period that is NaN, zero (a grid step of 0), negative or
    infinite."""
    with pytest.raises(RejectedInputError, match="each period must be positive and finite"):
        GridModel.flat(2, (8, 8), period)
    with pytest.raises(RejectedInputError, match="each period must be positive and finite"):
        geometry.check_grid(2, (8, 8), period)


def test_non_spd_metric_rejected():
    m = GridModel.flat(2, (8, 8), (TWO_PI, TWO_PI))
    bad = m.g.copy()
    bad[0, 0] = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite at one node
    with pytest.raises(RejectedInputError):
        m.with_metric(bad)


@pytest.mark.parametrize("n,dims", [(2, (8, 12)), (3, (8, 9, 10))])
def test_flat_model_is_flat_and_spd_by_construction(n, dims):
    """``GridModel.flat`` sets ``is_flat`` and ``min_eig`` without reading
    its nodes, to what validating the identity metric gives; the models
    derived from it validate their own metric."""
    m = GridModel.flat(n, dims)
    validated = GridModel(n=n, dims=dims, period=m.period, g=m.g.copy())
    assert m.min_eig == validated.min_eig == geometry.validate_spd(m.g_cm) == 1.0
    assert m.is_flat and geometry.twin(m).is_flat and m.validate
    assert "g_cm" not in vars(GridModel.flat(n, dims))  # no node was read
    bad = m.g.copy()
    bad[(0,) * n] = np.diag([1.0] * (n - 2) + [-1.0, -1.0])  # det 1, not definite
    for derived in (m, geometry.twin(m)):
        with pytest.raises(RejectedInputError, match="not positive definite"):
            derived.with_metric(bad)
    assert not geometry.twin(m.with_metric(bad, validate=False)).is_flat


# ---------------------------------------------------------------------------
# derived fields


def test_derived_fields_are_cached_and_read_only(curved_t2):
    m = curved_t2.with_metric(curved_t2.g)
    assert np.array_equal(m.ginv_cm, geometry.inverse_metric(m))
    assert np.array_equal(m.gamma_cm, geometry.christoffel(m))
    assert np.array_equal(m.ric_cm, geometry._ricci_grid(m))
    assert np.array_equal(m.sqrt_det, np.sqrt(np.linalg.det(m.g)))
    assert np.array_equal(m.g_cm, geometry.component_major(m.g, 2))
    for cm, k in ((m.g_cm, 2), (m.ginv_cm, 2), (m.gamma_cm, 3), (m.ric_cm, 2)):
        assert cm.shape == (m.n,) * k + m.dims and cm.flags.c_contiguous
    # the geometry keeps one layout: no node-major copy of a derived field
    assert not any(hasattr(m, name) for name in ("ginv", "gamma", "ric"))
    frame = FrameModel.su2(a=(1.2, 1.0, 0.7))
    grid_fields = ("sqrt_det", "g_cm", "ginv_cm", "gamma_cm", "ric_cm")
    for model, names in ((m, grid_fields), (frame, ("ric",))):
        for name in names:
            field = getattr(model, name)
            assert getattr(model, name) is field  # derived once
            with pytest.raises(ValueError, match="read-only"):
                field[...] = 0.0


def test_twin_shares_the_metric_and_none_of_the_fields(curved_t2):
    m = curved_t2.with_metric(curved_t2.g)
    m.ric_cm
    t = geometry.twin(m)
    assert t.g is m.g and not {"sqrt_det", "g_cm", "ginv_cm", "gamma_cm",
                               "ric_cm"} & vars(t).keys()
    assert np.array_equal(t.ric_cm, m.ric_cm)


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


def _node_major_partials(m, f):
    """out[..., l] = d_l f of a node-major field: the einsum spellings' operand."""
    return np.stack([geometry.d1(f, axis=l, h=m.spacings[l]) for l in range(m.n)], axis=-1)


def _node_major_fields(m):
    """Node-major copies of the inverse metric, the Christoffel symbols and
    the Ricci tensor of a grid model: the einsum spellings' operands."""
    return (geometry.node_major(m.ginv_cm, 2), geometry.node_major(m.gamma_cm, 3),
            geometry.node_major(m.ric_cm, 2))


def _einsum_covd_tensor(m, gamma, t):
    out = np.einsum("...ijl->...lij", _node_major_partials(m, t))
    out -= np.einsum("...mli,...mj->...lij", gamma, t)
    out -= np.einsum("...mlj,...im->...lij", gamma, t)
    return out


@pytest.mark.parametrize("dims", SHAPES, ids=lambda d: "x".join(map(str, d)))
def test_unrolled_curvature_contractions_equal_einsum_bitwise(dims):
    """Christoffel, Ricci and the covariant derivative of a 2-tensor sum their
    component products in einsum's order, so they equal its result bitwise."""
    for seed in SEEDS:
        m = _random_spd(dims, seed)
        _, gamma, ric = _node_major_fields(m)
        assert np.array_equal(gamma, _einsum_christoffel(m, np.linalg.inv(m.g)))
        assert np.array_equal(ric, _einsum_ricci(m, gamma))
        t = _random_spd(dims, seed + 10).g
        got = geometry.covd_tensor(m, geometry.component_major(t, 2))
        assert np.array_equal(geometry.node_major(got, 3), _einsum_covd_tensor(m, gamma, t))


@pytest.mark.parametrize("dims", SHAPES, ids=lambda d: "x".join(map(str, d)))
def test_pointwise_magnitude_equals_its_einsum_spelling_bitwise(dims):
    """|w|^2 of a 1-form and |T|^2 of a (not necessarily symmetric) 2-tensor
    add their products in einsum's order, bit for bit (signed zeros too)."""
    n = len(dims)
    for seed in SEEDS:
        m = _random_spd(dims, seed)
        rng = np.random.default_rng(seed + 10)
        w, t = rng.standard_normal(dims + (n,)), rng.standard_normal(dims + (n, n))
        ginv = geometry.node_major(m.ginv_cm, 2)
        assert np.array_equal(_bits(geometry.pointwise_sq(m, geometry.component_major(w, 1))),
                              _bits(np.einsum("...ij,...i,...j->...", ginv, w, w)))
        assert np.array_equal(_bits(geometry.pointwise_sq(m, geometry.component_major(t, 2))),
                              _bits(np.einsum("...ik,...jl,...ij,...kl->...", ginv, ginv, t, t)))


@pytest.mark.parametrize("length", [2, 3, 4, 5, 6, 7, 8, 9, 16, 27])
def test_summation_helpers_add_in_einsums_order(length):
    """lane_sum and _sum_in_order against the einsum contractions they stand
    for: products of a wide range of magnitudes, where another order rounds
    differently, and products that are all -0.0, whose einsum sum is +0.0.
    From 8 terms on einsum's loop adds whole blocks of 8 in its unrolled order."""
    rng = np.random.default_rng(length)
    a, b = (rng.standard_normal((500, length)) * 2.0 ** rng.integers(-30, 30, (500, length))
            for _ in range(2))
    a[:100], b[:100] = 1.0, -0.0
    products = [a[:, j] * b[:, j] for j in range(length)]
    # einsum adds a contiguous run in SIMD lanes, a strided one term after term
    assert np.array_equal(_bits(geometry.lane_sum(products)),
                          _bits(np.einsum("...j,...j->...", a, b)))
    assert np.array_equal(_bits(geometry._sum_in_order(np.stack(products))),
                          _bits(np.einsum("j...,j...->...", a.T.copy(), b.T.copy())))
    assert not np.signbit(geometry.lane_sum(products)[:100]).any()


def _einsum_rhs_deturck(m, h, tau):
    """-2 Ric + L_V g (+ g / tau) with every contraction spelled as einsum."""
    ginv = np.linalg.inv(m.g)
    gamma = _einsum_christoffel(m, ginv)
    v = np.einsum("...pq,...kpq->...k", ginv, gamma - _einsum_christoffel(h, np.linalg.inv(h.g)))
    w = np.einsum("...ij,...j->...i", m.g, v)
    dw = np.einsum("...ji->...ij", _node_major_partials(m, w))
    dw = dw - np.einsum("...kij,...k->...ij", gamma, w)
    out = -2.0 * _einsum_ricci(m, gamma) + (dw + np.swapaxes(dw, -1, -2))
    return out + m.g / tau if np.isfinite(tau) else out


def _signed_zero_field(dims):
    """A random field whose off-diagonal entries are +0.0 on a third of the
    nodes and -0.0 on another, and which is constant along the first axis
    on half the grid, so that differences there are exact zeros too."""
    g = _random_spd(dims, 4).g.copy()
    n, half = len(dims), dims[0] // 2
    g[:half] = g[:1]
    off = np.arange(g[..., 0, 0].size).reshape(dims) % 3
    for i, j in combinations(range(n), 2):
        for k, zero in ((1, 0.0), (2, -0.0)):
            g[..., i, j][off == k] = zero
            g[..., j, i][off == k] = zero
    return g


def _asymmetric_field(dims):
    """A random field whose g_ij and g_ji differ by 1e-6 relative: within
    ``validate_spd``'s tolerance, so a shortcut that read g_ij for g_ji would
    change bits."""
    g = _random_spd(dims, 5).g.copy()
    n = len(dims)
    for i, j in combinations(range(n), 2):
        g[..., i, j] *= 1.0 + 1e-6
    return g


def _rhs_cases(dims):
    """Random fields, a field of signed zeros, a field that is symmetric only
    within the validation's tolerance, and last one of amplitude 0.6 with
    nodes that the closed-form inverse hands to np.linalg.inv; each with the
    number of those nodes."""
    n = len(dims)
    a = 0.6 * np.random.default_rng(3).standard_normal(tuple(dims) + (n, n))
    g = np.eye(n) + a @ np.swapaxes(a, -1, -2)
    fields = [_random_spd(dims, seed).g for seed in SEEDS]
    fields += [_signed_zero_field(dims), _asymmetric_field(dims),
               0.5 * (g + np.swapaxes(g, -1, -2))]
    models = [GridModel(n=n, dims=dims, period=(TWO_PI,) * n, g=f) for f in fields]
    return [(m, int(np.sum(np.abs(m.g[..., 1, 0]) > np.abs(m.g[..., 0, 0])))) for m in models]


@pytest.mark.parametrize("tau", [0.7, np.inf])
def test_deturck_rhs_equals_its_einsum_spelling_bitwise(tau, monkeypatch):
    """The component-major DeTurck and tau-flow right-hand sides against the
    node-major einsum spelling, bit for bit (signed zeros too), on every shape
    of SHAPES: random fields, one with exact and signed zeros, one whose g_ij
    and g_ji differ within the validation's tolerance, and one of amplitude
    0.6, which in 2-D has pivoted nodes that the closed-form inverse hands to
    np.linalg.inv."""
    real_inv = np.linalg.inv
    for dims in SHAPES:
        n = len(dims)
        h = GridModel.flat(n, dims, (TWO_PI,) * n)
        for m, n_pivoted in _rhs_cases(dims):
            inverted = []
            monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(len(a)) or real_inv(a))
            got = flows.rhs_deturck(m, h, tau)
            monkeypatch.undo()
            if n == 2:  # LAPACK inverts exactly the nodes it would pivot
                assert inverted == ([n_pivoted] if n_pivoted else [])
            assert np.array_equal(_bits(got), _bits(_einsum_rhs_deturck(m, h, tau)))
            oracle = -2.0 * _einsum_ricci(m, _einsum_christoffel(m, real_inv(m.g)))
            if np.isfinite(tau):
                oracle = oracle + m.g / tau
            assert np.array_equal(_bits(flows.rhs_tau_flow(geometry.twin(m), tau)),
                                  _bits(oracle))
        assert n_pivoted > 0 or n == 3  # the amplitude-0.6 field has pivoted nodes


def _einsum_covariant_hessian(m, f):
    """d_i d_j f - Gamma^k_ij d_k f of a scalar field, node-major, with the
    connection term spelled as einsum."""
    _, gamma, _ = _node_major_fields(m)
    hess = geometry.node_major(geometry.hessian(m, f), 2)
    return hess - np.einsum("...kij,...k->...ij", gamma, _node_major_partials(m, f))


def _einsum_w_and_grad(m, f, tau):
    """The grid entropy W of a potential and its gradient, every contraction
    spelled as a node-major einsum."""
    ginv, _, ric = _node_major_fields(m)
    c = entropy._heat_factor(tau, m.n)
    w = m.sqrt_det * np.prod(m.spacings)
    df = _node_major_partials(m, f)
    u = np.exp(-f)
    A = tau * (np.einsum("...ij,...i,...j->...", ginv, df, df)
               + np.einsum("...ij,...ij->...", ginv, ric)) + f - m.n
    grad = c * u * w * (1.0 - A)
    s = 2.0 * tau * c * (u * w)[..., None] * np.einsum("...ij,...j->...i", ginv, df)
    for l in range(m.n):
        grad -= geometry.d1(s[..., l], axis=l, h=m.spacings[l])
    return float(np.sum(c * u * w * A)), grad


@pytest.mark.parametrize("dims", SHAPES, ids=lambda d: "x".join(map(str, d)))
def test_grid_readers_equal_their_node_major_einsum_spelling_bitwise(dims):
    """Scalar curvature, the covariant derivative and the divergence of a
    2-tensor, the rough Laplacian, the soliton defect and its weighted square,
    and the grid entropy with its gradient against their node-major einsum
    spellings, bit for bit (signed zeros too): on the fields of _rhs_cases,
    with a 2-tensor of exact and signed zeros and a potential that is
    constant along the first axis on half the grid, so that its partials
    there are exact zeros."""
    n, tau = len(dims), 0.7
    f = 0.1 * np.random.default_rng(7).standard_normal(dims)
    f[:dims[0] // 2] = f[:1]
    t = _signed_zero_field(dims)
    for m, _ in _rhs_cases(dims):
        ginv, gamma, ric = _node_major_fields(m)
        assert np.array_equal(_bits(geometry.scalar_curvature(m)),
                              _bits(np.einsum("...ij,...ij->...", ginv, ric)))
        nabla = _einsum_covd_tensor(m, gamma, t)
        got = geometry.covd_tensor(m, geometry.component_major(t, 2))
        assert np.array_equal(_bits(geometry.node_major(got, 3)), _bits(nabla))
        assert np.array_equal(_bits(geometry.divergence(m, t)),
                              _bits(-np.einsum("...ik,...ikj->...j", ginv, nabla)))
        hess = _einsum_covariant_hessian(m, f)
        assert np.array_equal(_bits(geometry.laplacian_scalar(m, f)),
                              _bits(np.einsum("...ij,...ij->...", ginv, hess)))
        defect = ric + hess - m.g / (2.0 * tau)
        assert np.array_equal(_bits(entropy.soliton_defect(m, f, tau)), _bits(defect))
        mag_sq = np.einsum("...ik,...jl,...ij,...kl->...", ginv, ginv, defect, defect)
        c, w = entropy._heat_factor(tau, n), m.sqrt_det * np.prod(m.spacings)
        assert entropy.weighted_defect_sq(m, f, tau) == float(np.sum(c * np.exp(-f) * w * mag_sq))
        W, grad = entropy._w_and_grad(m, f, tau)
        W_want, grad_want = _einsum_w_and_grad(m, f, tau)
        assert W == W_want and np.array_equal(_bits(grad), _bits(grad_want))


@pytest.mark.parametrize("n", [2, 3])
def test_leading_minors_agree_with_the_eigenvalues(n):
    """Sylvester's criterion in closed form against eigvalsh, node by node,
    on symmetric fields about half of whose nodes are indefinite."""
    dims = (8,) * n
    rng = np.random.default_rng(n)
    for _ in range(20):
        a = rng.standard_normal(dims + (n, n))
        g = a @ np.swapaxes(a, -1, -2) - 0.3 * np.eye(n)
        spd = np.linalg.eigvalsh(g)[..., 0] > 0
        assert 0 < spd.sum() < spd.size
        for node in (np.argmax(spd), np.argmin(spd)):
            field = np.broadcast_to(g.reshape(-1, n, n)[node], g.shape).copy()
            m = GridModel(n=n, dims=dims, period=(TWO_PI,) * n, g=field, validate=False)
            assert geometry.leading_minors_positive(m) == spd.reshape(-1)[node]
        m = GridModel(n=n, dims=dims, period=(TWO_PI,) * n, g=g, validate=False)
        assert not geometry.leading_minors_positive(m)
    bad = np.broadcast_to(np.eye(n), dims + (n, n)).copy()
    bad[(0,) * n] = np.nan
    assert not geometry.leading_minors_positive(
        GridModel(n=n, dims=dims, period=(TWO_PI,) * n, g=bad, validate=False))


# ---------------------------------------------------------------------------
# closed-form inverse and 2-D validation against LAPACK


def _bits(a):
    """The float64 bit patterns of ``a``: equality here also tells -0.0 from 0.0."""
    return np.ascontiguousarray(a).view(np.int64)


def _openblas_build():
    """(OpenBLAS version, the kernel it chose for this CPU) of the LAPACK that
    np.linalg.inv calls, or None where that cannot be read."""
    import ctypes
    import glob
    import os

    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["version"]
        (path,) = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                         "numpy.libs", "*openblas*"))
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
    except (AttributeError, KeyError, TypeError, ValueError, OSError):
        return None
    corename.restype = ctypes.c_char_p
    return version, corename().decode()


def _inverse_2d_exact(g):
    """The 2-D closed form node by node, each operation rounded once from its
    exact rational value: the rounding inverse_metric documents, free of
    any machine's arithmetic.  Signs of zero are not modelled."""
    from fractions import Fraction

    def rn(q):
        return Fraction(float(q))

    out = np.empty(g.shape)
    for node, entries in zip(out.reshape(-1, 2, 2), g.reshape(-1, 4)):
        a00, a01, a10, a11 = map(Fraction, entries.tolist())
        r0 = rn(1 / a00)
        l10 = rn(a10 * r0)
        r1 = rn(1 / rn(a11 - rn(l10 * a01)))
        x10 = rn(-l10 * r1)
        node[:] = [[rn(rn(-x10 * a01 + 1) * r0), rn(-rn(a01 * r1) * r0)], [x10, r1]]
    return out


def _special_nodes():
    """Nodes LAPACK pivots, and nodes at the edges of the closed form."""
    pivoted = [np.array([[0.5, 0.9], [0.9, 3.0]])]  # |g10| > g00: rows swap
    asymmetric = np.eye(2) + 0.2
    asymmetric[1, 0] *= 1.0 + 1e-9  # within np.allclose of its transpose
    return pivoted, [asymmetric, np.diag([1.0, 2.0])]


def _inverse_cases(dims, seed):
    """A near-flat field, where the fused multiply-add takes the plain sum, and
    a random one with the special nodes, where it takes the exact product; each
    with the number of nodes LAPACK pivots."""
    a = 1e-3 * np.random.default_rng(seed).standard_normal(tuple(dims) + (2, 2))
    near_flat = GridModel(n=2, dims=dims, period=(TWO_PI,) * 2,
                          g=np.eye(2) + a + np.swapaxes(a, -1, -2))
    g = _random_spd(dims, seed).g.copy()
    pivoted, edges = _special_nodes()
    for k, node in enumerate(pivoted + edges):
        g.reshape(-1, 2, 2)[7 * k] = node
    return (near_flat, 0), (near_flat.with_metric(g), len(pivoted))


SHAPES_2D = [d for d in SHAPES if len(d) == 2]


@pytest.mark.parametrize("dims", SHAPES_2D, ids=lambda d: "x".join(map(str, d)))
def test_inverse_metric_rounds_as_documented(dims, monkeypatch):
    """On any machine: the 2-D closed form equals its exact-rational spelling,
    gives a diagonal node +0.0 off-diagonals, as LAPACK does, and hands
    np.linalg.inv exactly the nodes LAPACK pivots."""
    real_inv = np.linalg.inv
    for seed in SEEDS:
        for m, n_pivoted in _inverse_cases(dims, seed):
            inverted = []
            monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(len(a)) or real_inv(a))
            got = geometry.node_major(geometry.inverse_metric(m), 2)
            monkeypatch.undo()
            assert inverted == ([n_pivoted] if n_pivoted else [])
            kept = np.abs(m.g[..., 1, 0]) <= np.abs(m.g[..., 0, 0])
            assert np.array_equal(got[kept], _inverse_2d_exact(m.g[kept]))
    diagonal = GridModel(n=2, dims=(8, 8), period=(TWO_PI,) * 2,
                         g=np.broadcast_to(np.diag([1.0, 2.0]), (8, 8, 2, 2)).copy())
    assert not _bits(geometry.inverse_metric(diagonal)[[0, 1], [1, 0]]).any()


_MEASURED_BUILD = ("0.3.31.188.0", "SkylakeX")
_LAPACK_BUILD = _openblas_build()


@pytest.mark.skipif(_LAPACK_BUILD != _MEASURED_BUILD,
                    reason="the closed form matches LAPACK's bits where the dtrsm kernel "
                           "contracts its last update into a fused multiply-add; measured on "
                           f"OpenBLAS {_MEASURED_BUILD[0]} with its {_MEASURED_BUILD[1]} kernel, "
                           f"and this LAPACK is {_LAPACK_BUILD}")
@pytest.mark.parametrize("dims", SHAPES_2D, ids=lambda d: "x".join(map(str, d)))
def test_inverse_metric_is_lapack_inv_bitwise(dims):
    """On the build it was measured on, the 2-D closed form gives
    np.linalg.inv's bits, signed zeros included."""
    for seed in SEEDS:
        for m, _ in _inverse_cases(dims, seed):
            ginv = geometry.node_major(m.ginv_cm, 2)
            assert np.array_equal(_bits(ginv), _bits(np.linalg.inv(m.g)))


@pytest.mark.parametrize("n", [2, 3])
def test_inverse_metric_raises_on_a_singular_node(n):
    g = np.zeros((8,) * n + (n, n))
    g[...] = np.eye(n)
    g[(1,) * n] = 0.0
    m = GridModel(n=n, dims=(8,) * n, period=(TWO_PI,) * n, g=g, validate=False)
    with pytest.raises(np.linalg.LinAlgError):
        geometry.inverse_metric(m)


def test_fma_rounds_once():
    """a b + c rounded once, against exact rationals: small products, where
    the plain sum is the answer, and products just off a rounding tie of
    1 + RN(a b), which rounding the product first, or the error sum to
    nearest, misrounds."""
    from fractions import Fraction

    rng = np.random.default_rng(3)
    a = 1.0 + rng.random(2000)
    ties = (rng.integers(1, 50, a.size) * 2 + 1) * 2.0**-53 / a
    small = 1e-6 * rng.standard_normal(a.size)
    for b, c in ((small, 1.0 + rng.random(a.size)), (ties, np.ones_like(a))):
        exact = [float(Fraction(x) * Fraction(y) + Fraction(z)) for x, y, z in zip(a, b, c)]
        assert np.array_equal(geometry._fma(a, b, c), exact)
    assert not np.array_equal(a * ties + 1.0, exact)


def _validate_spd_eigvalsh(g):
    """The SPD check as one eigendecomposition per node: the oracle of the
    2-D closed form."""
    if not np.all(np.isfinite(g)):
        raise RejectedInputError("metric field contains non-finite entries")
    if not np.allclose(g, np.swapaxes(g, -1, -2)):
        raise RejectedInputError("metric field is not symmetric")
    eigs = np.linalg.eigvalsh(g)
    if np.any(np.prod(eigs, axis=-1) < geometry.DET_FLOOR):
        raise RejectedInputError("metric determinant below degeneracy floor")
    if np.any(eigs[..., 0] <= 0):
        raise RejectedInputError("metric is not positive definite at some node")
    return float(np.min(eigs[..., 0]))


# one node each; the asymmetric pairs pass np.isclose in one order only
_BAD_2D_NODES = {
    "upper-larger": [[1e4, 1e3 + 1e-2 + 5e-8], [1e3, 1e4]],
    "lower-larger": [[1e4, 1e3], [1e3 + 1e-2 + 5e-8, 1e4]],
    "det-floor": [[1e-7, 0.0], [0.0, 1e-6]],
    "indefinite": [[1.0, 2.0], [2.0, 1.0]],
    "negative-definite": [[-1.0, 0.5], [0.5, -2.0]],
    "non-finite": [[1.0, 0.0], [0.0, np.nan]],
}


@pytest.mark.parametrize("case", sorted(_BAD_2D_NODES))
def test_2d_validation_rejects_what_eigvalsh_rejects(case):
    g = _random_spd((16, 16), 0).g.copy()
    g[3, 5] = _BAD_2D_NODES[case]
    with pytest.raises(RejectedInputError) as oracle:
        _validate_spd_eigvalsh(g)
    with pytest.raises(RejectedInputError, match=str(oracle.value)):
        geometry.validate_spd(geometry.component_major(g, 2))


def test_2d_validation_reads_the_smallest_eigenvalue():
    """Largest relative deviation from eigvalsh measured over these fields:
    4.4e-16 (also over 150 random fields of three shapes)."""
    for dims in [d for d in SHAPES if len(d) == 2]:
        for seed in SEEDS:
            g = _random_spd(dims, seed).g
            oracle = _validate_spd_eigvalsh(g)
            got = geometry.validate_spd(geometry.component_major(g, 2))
            assert got == pytest.approx(oracle, rel=1e-15, abs=0.0)


def _validate_spd_node_major(g):
    """``validate_spd`` as it read node-major fields (g[..., i, j]) before it
    read component-major planes: the oracle of the layout change."""
    if not np.all(np.isfinite(g)):
        raise RejectedInputError("metric field contains non-finite entries")
    for i, j in combinations(range(g.shape[-1]), 2):
        upper, lower = g[..., i, j], g[..., j, i]
        if not np.all(np.abs(upper - lower)
                      <= 1e-8 + 1e-5 * np.minimum(np.abs(upper), np.abs(lower))):
            raise RejectedInputError("metric field is not symmetric")
    if g.shape[-1] == 2:
        a, b, d = g[..., 0, 0], g[..., 1, 0], g[..., 1, 1]
        det = a * d - b * b
        definite = a > 0
        half_diff = 0.5 * (a - d)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam_min = det / (0.5 * (a + d) + np.sqrt(half_diff * half_diff + b * b))
    else:
        eigs = np.linalg.eigvalsh(g)
        det = np.prod(eigs, axis=-1)
        definite = eigs[..., 0] > 0
        lam_min = eigs[..., 0]
    if np.any(det < geometry.DET_FLOOR):
        raise RejectedInputError("metric determinant below degeneracy floor")
    if not np.all(definite):
        raise RejectedInputError("metric is not positive definite at some node")
    return float(np.min(lam_min))


# one node each, of a 3 x 3 metric; the asymmetric pairs pass np.isclose in
# one order only, in the (0, 2) and (1, 2) pairs
_BAD_3D_NODES = {
    "upper-larger": [[1e4, 0.0, 1e3 + 1e-2 + 5e-8], [0.0, 1e4, 0.0], [1e3, 0.0, 1e4]],
    "lower-larger": [[1e4, 0.0, 0.0], [0.0, 1e4, 1e3], [0.0, 1e3 + 1e-2 + 5e-8, 1e4]],
    "det-floor": [[1e-5, 0.0, 0.0], [0.0, 1e-4, 0.0], [0.0, 0.0, 1e-4]],
    "indefinite": [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "two-negative": [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, -1.0]],  # det > 0
    "negative-definite": [[-1.0, 0.5, 0.0], [0.5, -2.0, 0.0], [0.0, 0.0, -1.0]],
    "non-finite": [[1.0, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, 1.0]],
}


def _validation_fields():
    """(name, node-major field) pairs: random fields of every shape of SHAPES,
    and each one with a bad node of every kind in its dimension."""
    for dims in SHAPES:
        bad_nodes = _BAD_2D_NODES if len(dims) == 2 else _BAD_3D_NODES
        for seed in SEEDS:
            g = _random_spd(dims, seed).g
            yield f"{dims} seed {seed}", g
            for case, node in sorted(bad_nodes.items()):
                bad = g.copy()
                bad[(3,) * len(dims)] = node
                yield f"{dims} seed {seed} {case}", bad


def test_validation_on_planes_decides_as_on_nodes():
    """validate_spd on component-major planes accepts and rejects exactly the
    fields that its node-major form did, with the same message, and returns
    the same smallest eigenvalue bitwise, in 2-D and in 3-D."""
    outcomes = set()
    for name, g in _validation_fields():
        try:
            want = _validate_spd_node_major(g)
        except RejectedInputError as exc:
            with pytest.raises(RejectedInputError) as got:
                geometry.validate_spd(geometry.component_major(g, 2))
            assert str(got.value) == str(exc), name
            outcomes.add((g.ndim, str(exc)))
            continue
        assert geometry.validate_spd(geometry.component_major(g, 2)) == want, name
        outcomes.add((g.ndim, "accepted"))
    messages = {"accepted", "metric field contains non-finite entries",
                "metric field is not symmetric", "metric determinant below degeneracy floor",
                "metric is not positive definite at some node"}
    assert outcomes == {(ndim, msg) for ndim in (4, 5) for msg in messages}


# ---------------------------------------------------------------------------
# the cached-field descriptor


def test_each_derived_field_is_derived_once(curved_t2, monkeypatch):
    """The kernels behind the cached fields run once per model, however often
    a field is read; the fields sit in the instance dict, where the
    descriptor, which defines no __set__, is not consulted again."""
    calls = []
    for name in ("inverse_metric", "christoffel", "_ricci_grid", "validate_spd"):
        def counted(*args, _fn=getattr(geometry, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(geometry, name, counted)
    m = curved_t2.with_metric(curved_t2.g)
    for _ in range(3):
        m.ginv_cm, m.gamma_cm, m.ric_cm, m.min_eig, m.gamma_is_zero
    assert sorted(calls) == ["_ricci_grid", "christoffel", "inverse_metric", "validate_spd"]
    assert not hasattr(geometry.cached_field, "__set__")
    assert {"min_eig", "g_cm", "ginv_cm", "gamma_cm", "ric_cm",
            "gamma_is_zero"} <= vars(m).keys()
    assert GridModel.flat(2, (8, 8)).gamma_is_zero  # a constant metric's Gamma is +0.0
    assert m.gamma_is_zero is False
    # a twin carries the metric alone, on grids and frames
    assert set(vars(geometry.twin(m))) == {"n", "dims", "period", "g", "validate"}
    frame = FrameModel.su2(a=(1.2, 1.0, 0.7))
    frame.ric
    assert set(vars(geometry.twin(frame))) == {"lams", "a", "base_volume"}


def test_with_metric_checks_only_the_shape(curved_t2):
    """A model built by with_metric keeps the grid's normalized dims and
    period, holds the same attributes as one built by the constructor, and
    checks the metric's shape and, when asked, its values."""
    m = curved_t2.with_metric(curved_t2.g.tolist(), validate=False)
    assert m.dims is curved_t2.dims and m.period is curved_t2.period
    assert m.g.dtype == float and np.array_equal(m.g, curved_t2.g)
    built = GridModel(n=m.n, dims=m.dims, period=m.period, g=m.g, validate=False)
    assert vars(m) == {**vars(built), "g": m.g}
    with pytest.raises(RejectedInputError, match=r"must have shape \(32, 32, 2, 2\)"):
        curved_t2.with_metric(curved_t2.g[:8])
    flipped = -curved_t2.g
    assert curved_t2.with_metric(flipped, validate=False).g is flipped
    with pytest.raises(RejectedInputError, match="not positive definite"):
        curved_t2.with_metric(flipped)


def test_frame_ricci_read_first_from_three_threads_is_one_value(monkeypatch):
    """Three threads that read a frame's Ricci first at the same moment (each
    held inside the derivation until all three are there, which a lock would
    not allow) all return one value: the one stored first."""
    barrier = threading.Barrier(3, timeout=10)
    real = geometry._ricci_frame

    def held(m):
        barrier.wait()
        return real(m)

    monkeypatch.setattr(geometry, "_ricci_frame", held)
    m = FrameModel.su2(a=(1.2, 1.0, 0.7))
    got = [None] * 3

    def read(i):
        got[i] = m.ric

    threads = [threading.Thread(target=read, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert got[0] is got[1] is got[2] is m.ric
    assert np.array_equal(_bits(got[0]), _bits(real(m)))
    with pytest.raises(ValueError, match="read-only"):
        got[0][...] = 0.0

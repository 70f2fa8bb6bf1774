"""Discrete differential geometry on the two desk-scale manifold models.

Two backgrounds are supported:

* ``FrameModel`` -- a homogeneous space described by the three structure
  constants lambda_k of a Milnor frame and diagonal metric coefficients.
  Curvature is closed-form, fields are constants, and flows reduce to ODEs.
* ``GridModel`` -- a flat periodic torus carrying a symmetric 2-tensor field
  (the metric) on a uniform grid.  All derivative operators are second-order
  central differences with periodic wraparound.

Grid fields are plain numpy arrays: scalars have shape ``dims``, vectors
``dims + (n,)`` and symmetric 2-tensors ``dims + (n, n)``.

The hot contractions over the n <= 3 component axes are sums of broadcast
products, added in the order ``einsum`` adds them, so they equal its result
bitwise.  A contraction that ``einsum`` adds in another order (it reduces some
in SIMD lanes), or computes faster in its one call, stays an ``einsum``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import RejectedInputError

DET_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class FrameModel:
    """Homogeneous model: a Milnor frame of a unimodular 3-dimensional Lie
    group and a diagonal metric.

    ``lams`` are the frame's structure constants: ``[e_i, e_j] = lams[k] e_k``
    for every cyclic permutation (i, j, k) of (0, 1, 2) (Milnor, Adv. Math. 21,
    1976); ``a[i] > 0`` are the diagonal metric coefficients, so ``g = diag(a)``
    in the frame.  ``base_volume`` is the volume of the group for
    ``a = (1, 1, 1)``.
    """

    lams: np.ndarray
    a: np.ndarray
    base_volume: float = 1.0
    n = 3  # a class constant, not a field: Milnor frames span 3-dimensional groups

    def __post_init__(self):
        object.__setattr__(self, "lams", np.asarray(self.lams, dtype=float))
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        if self.lams.shape != (3,):
            raise RejectedInputError("structure constants must have shape (3,)")
        if self.a.shape != (3,):
            raise RejectedInputError("metric coefficients must have shape (3,)")
        if not np.all(self.a > 0):  # NaN included
            raise RejectedInputError("metric coefficients must be positive")

    @classmethod
    def su2(cls, a=(1.0, 1.0, 1.0)) -> "FrameModel":
        """SU(2) with the frame normalized so a = (1,1,1) is the unit round S^3.

        Structure constants ``[e_i, e_j] = 2 eps_{ijk} e_k``; the group volume
        at unit coefficients is ``2 pi^2``.
        """
        return cls(lams=(2.0, 2.0, 2.0), a=a, base_volume=2.0 * np.pi**2)

    def with_a(self, a) -> "FrameModel":
        """The same frame with metric coefficients ``a``."""
        return FrameModel(lams=self.lams, a=a, base_volume=self.base_volume)

    @cached_property
    def ric(self) -> np.ndarray:
        """Ricci tensor as lowered diagonal coefficients, read-only."""
        return _read_only(_ricci_frame(self))


@dataclass(frozen=True)
class GridModel:
    """Periodic-grid model: a metric tensor field on a flat torus.

    ``g`` has shape ``dims + (n, n)`` and must be symmetric positive definite
    at every node.  Index arithmetic wraps modulo ``dims``.  Validation keeps
    the smallest eigenvalue of g as ``min_eig``.  The derived fields ``ginv``,
    ``gamma``, ``ric`` and ``sqrt_det`` are computed once, on first use, and
    are read-only: a model is never written to in place.
    """

    n: int
    dims: tuple
    period: tuple
    g: np.ndarray
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "period", tuple(float(p) for p in self.period))
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))
        if self.n not in (2, 3):
            raise RejectedInputError("grid models support n = 2 or 3")
        if len(self.dims) != self.n or len(self.period) != self.n:
            raise RejectedInputError("dims and period must have length n")
        if any(d < 8 for d in self.dims):
            raise RejectedInputError("grid needs at least 8 points per axis")
        if self.g.shape != self.dims + (self.n, self.n):
            raise RejectedInputError(f"metric field must have shape {self.dims + (self.n, self.n)}")
        if self.validate:
            object.__setattr__(self, "min_eig", validate_spd(self.g))

    @classmethod
    def flat(cls, n=2, dims=(16, 16), period=None) -> "GridModel":
        """Constant metric ``delta`` on the torus (default period 2 pi)."""
        if period is None:
            period = (2.0 * np.pi,) * n
        g = np.zeros(tuple(dims) + (n, n))
        g[...] = np.eye(n)
        return cls(n=n, dims=tuple(dims), period=tuple(period), g=g)

    @cached_property
    def min_eig(self) -> float:
        """Smallest eigenvalue of g over all nodes; validates g if not yet done."""
        return validate_spd(self.g)

    @cached_property
    def ginv(self) -> np.ndarray:
        """Inverse metric g^{ij}."""
        return _read_only(inverse_metric(self))

    @cached_property
    def gamma(self) -> np.ndarray:
        """Christoffel symbols Gamma[..., k, i, j]."""
        return _read_only(christoffel(self))

    @cached_property
    def ric(self) -> np.ndarray:
        """Ricci tensor field."""
        return _read_only(_ricci_grid(self))

    @cached_property
    def sqrt_det(self) -> np.ndarray:
        """Volume density sqrt(det g) per node."""
        return _read_only(np.sqrt(np.linalg.det(self.g)))

    @cached_property
    def is_flat(self) -> bool:
        """Whether g is the same at every node (to ``np.allclose``)."""
        g0 = self.g.reshape(-1, self.n, self.n)
        return bool(np.allclose(g0, g0[0]))

    @cached_property
    def spacings(self) -> np.ndarray:
        """Grid step period / points along each axis."""
        return _read_only(np.array([p / d for p, d in zip(self.period, self.dims)]))

    def coords(self):
        """Node coordinate arrays, one per axis, broadcastable to ``dims``."""
        axes = [np.arange(d) * (p / d) for d, p in zip(self.dims, self.period)]
        return np.meshgrid(*axes, indexing="ij")

    def with_metric(self, g, validate: bool = True) -> "GridModel":
        return GridModel(n=self.n, dims=self.dims, period=self.period, g=g, validate=validate)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def twin(m):
    """A copy of ``m`` sharing its metric but none of its derived fields: reads
    the geometry of a stored model without keeping that geometry on it."""
    if isinstance(m, FrameModel):
        return m.with_a(m.a)
    return m.with_metric(m.g, validate=False)


def validate_spd(g: np.ndarray) -> float:
    """Reject a metric field with a non-SPD or near-degenerate node.

    One eigendecomposition per node serves every check; returns the smallest
    eigenvalue over all nodes.
    """
    if not np.all(np.isfinite(g)):
        raise RejectedInputError("metric field contains non-finite entries")
    if not np.allclose(g, np.swapaxes(g, -1, -2)):
        raise RejectedInputError("metric field is not symmetric")
    eigs = np.linalg.eigvalsh(g)
    if np.any(np.prod(eigs, axis=-1) < DET_FLOOR):
        raise RejectedInputError("metric determinant below degeneracy floor")
    if np.any(eigs[..., 0] <= 0):
        raise RejectedInputError("metric is not positive definite at some node")
    return float(np.min(eigs[..., 0]))


def require_flat(h: GridModel) -> None:
    """Reject a background whose metric is not the same at every node."""
    if not h.is_flat:
        raise RejectedInputError("the background must be a constant (flat) metric")


def sym_components(n: int):
    """Index pairs (i, j), i <= j, of a symmetric n x n tensor, row-major."""
    return [(i, j) for i in range(n) for j in range(i, n)]


# ---------------------------------------------------------------------------
# finite differences


@lru_cache(maxsize=None)
def _neighbours(n: int):
    """Periodic index arrays (i + 1) mod n and (i - 1) mod n, read-only."""
    idx = np.arange(n)
    plus, minus = (idx + 1) % n, (idx - 1) % n
    plus.setflags(write=False)
    minus.setflags(write=False)
    return plus, minus


def d1(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second-order central first derivative along a grid axis."""
    plus, minus = _neighbours(f.shape[axis])
    return (f.take(plus, axis=axis) - f.take(minus, axis=axis)) / (2.0 * h)


def d2(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Compact 3-point second derivative along a grid axis."""
    plus, minus = _neighbours(f.shape[axis])
    return (f.take(plus, axis=axis) - 2.0 * f + f.take(minus, axis=axis)) / h**2


def partials(m: GridModel, f: np.ndarray) -> np.ndarray:
    """Stack of first partials, indexed by a trailing axis: out[..., l] = d_l f."""
    hs = m.spacings
    return np.stack([d1(f, axis=l, h=hs[l]) for l in range(m.n)], axis=-1)


def hessian(m: GridModel, f: np.ndarray) -> np.ndarray:
    """Coordinate second partials out[..., i, j] = d_i d_j f.

    Diagonal entries use the compact stencil; mixed entries are nested
    central differences.  ``f`` may carry trailing component axes.
    """
    hs = m.spacings
    n = m.n
    out = np.empty(f.shape + (n, n))
    for i in range(n):
        for j in range(i, n):
            if i == j:
                out[..., i, i] = d2(f, axis=i, h=hs[i])
            else:
                out[..., i, j] = d1(d1(f, axis=j, h=hs[j]), axis=i, h=hs[i])
                out[..., j, i] = out[..., i, j]
    return out


# ---------------------------------------------------------------------------
# connection and curvature


def inverse_metric(m: GridModel) -> np.ndarray:
    return np.linalg.inv(m.g)


def christoffel(m: GridModel) -> np.ndarray:
    """Christoffel symbols Gamma[..., k, i, j] of the grid metric."""
    hs = m.spacings
    n = m.n
    # dg[..., i, j, l] = d_l g_ij
    dg = np.stack([d1(m.g, axis=l, h=hs[l]) for l in range(n)], axis=-1)
    term = (np.einsum("...jli->...lij", dg) + np.einsum("...ilj->...lij", dg)
            - np.einsum("...ijl->...lij", dg))
    # term[..., l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    ginv = m.ginv
    # g^{kl} term_lij with l summed in order: bitwise einsum("...kl,...lij->...kij")
    return 0.5 * sum(ginv[..., :, l, None, None] * term[..., None, l, :, :] for l in range(n))


def ricci(m):
    """Ricci tensor: a symmetric field on a grid, diagonal coefficients on a frame."""
    return m.ric


def _ricci_frame(m: FrameModel) -> np.ndarray:
    """Closed-form Ricci of a unimodular Milnor frame, as lowered diagonal R_ii."""
    lams, a = m.lams, m.a
    idx = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    cbar = np.array([lams[i] * np.sqrt(a[i] / (a[j] * a[k])) for i, j, k in idx])
    s = 0.5 * cbar.sum()
    mu = s - cbar
    r = np.array([2.0 * mu[j] * mu[k] for i, j, k in idx])
    return r * a


def _ricci_grid(m: GridModel) -> np.ndarray:
    hs = m.spacings
    n = m.n
    gamma = m.gamma
    # dgamma[..., k, i, j, l] = d_l Gamma^k_ij
    dgamma = np.stack([d1(gamma, axis=l, h=hs[l]) for l in range(n)], axis=-1)
    r = np.einsum("...kijk->...ij", dgamma)
    r -= np.einsum("...kkji->...ij", dgamma)
    # the Gamma.Gamma terms with k outer and l inner: bitwise einsum("...kkl,...lij->...ij")
    # and einsum("...kil,...lkj->...ij")
    pairs = [(k, l) for k in range(n) for l in range(n)]
    r += sum(gamma[..., k, k, l, None, None] * gamma[..., l, :, :] for k, l in pairs)
    r -= sum(gamma[..., k, :, l, None] * gamma[..., l, k, None, :] for k, l in pairs)
    return 0.5 * (r + np.swapaxes(r, -1, -2))


def scalar_curvature(m):
    """Scalar curvature: a scalar field on a grid, a real on a frame model."""
    if isinstance(m, FrameModel):
        return float(np.sum(m.ric / m.a))
    return np.einsum("...ij,...ij->...", m.ginv, m.ric)


# ---------------------------------------------------------------------------
# covariant derivatives and tensor calculus on the grid


def lower_vector(m: GridModel, v: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...j->...i", m.g, v)


def covd_oneform(m: GridModel, w: np.ndarray) -> np.ndarray:
    """Covariant derivative of a 1-form: out[..., i, j] = nabla_i w_j."""
    dw = partials(m, w)  # dw[..., j, i] = d_i w_j
    return np.einsum("...ji->...ij", dw) - np.einsum("...kij,...k->...ij", m.gamma, w)


def covd_tensor(m: GridModel, t: np.ndarray) -> np.ndarray:
    """Covariant derivative of a (0,2)-tensor: out[..., l, i, j] = nabla_l T_ij."""
    dt = partials(m, t)  # dt[..., i, j, l] = d_l T_ij
    out = np.einsum("...ijl->...lij", dt)
    gamma, idx = m.gamma, range(m.n)
    # Gamma's upper index summed in order: bitwise einsum("...mli,...mj->...lij") and
    # einsum("...mlj,...im->...lij")
    out -= sum(gamma[..., p, :, :, None] * t[..., p, None, None, :] for p in idx)
    out -= sum(gamma[..., p, :, None, :] * t[..., None, :, p, None] for p in idx)
    return out


def divergence(m: GridModel, t: np.ndarray) -> np.ndarray:
    """Divergence (delta T)_j = -g^{ik} nabla_i T_kj, returned as a 1-form."""
    return -np.einsum("...ik,...ikj->...j", m.ginv, covd_tensor(m, t))


def lie_derivative_metric(m: GridModel, v: np.ndarray) -> np.ndarray:
    """(L_V g)_ij = nabla_i V_j + nabla_j V_i for an upper-index field V."""
    dv = covd_oneform(m, lower_vector(m, v))
    return dv + np.swapaxes(dv, -1, -2)


def laplacian_scalar(m: GridModel, f: np.ndarray) -> np.ndarray:
    """Rough Laplacian g^{ij} nabla_i nabla_j f of a scalar field."""
    hess = hessian(m, f) - np.einsum("...kij,...k->...ij", m.gamma, partials(m, f))
    return np.einsum("...ij,...ij->...", m.ginv, hess)


# ---------------------------------------------------------------------------
# norms and volume


@dataclass(frozen=True)
class NormReport:
    """Discrete norms of a grid field: L2 and sup."""

    l2: float
    sup: float


def _pointwise_sq(m: GridModel, f: np.ndarray) -> np.ndarray:
    """Squared pointwise magnitude of a scalar, 1-form or (0,2)-tensor field."""
    extra = f.ndim - len(m.dims)
    if extra == 0:
        return f**2
    ginv = m.ginv
    if extra == 1:
        return np.einsum("...ij,...i,...j->...", ginv, f, f)
    if extra == 2:
        return np.einsum("...ik,...jl,...ij,...kl->...", ginv, ginv, f, f)
    raise RejectedInputError("fields with more than two component axes are not supported")


def volume(m) -> float:
    """Total volume of the model."""
    if isinstance(m, FrameModel):
        return float(m.base_volume * np.sqrt(np.prod(m.a)))
    return float(np.sum(m.sqrt_det) * np.prod(m.spacings))


def norms(m: GridModel, f: np.ndarray) -> NormReport:
    """Discrete L2 norm against dV_g and the sup norm of a grid field.

    The pointwise magnitude contracts the field's lower indices with g^{-1}.
    """
    base_sq = _pointwise_sq(m, f)
    l2 = float(np.sqrt(np.sum(base_sq * m.sqrt_det) * np.prod(m.spacings)))
    return NormReport(l2=l2, sup=float(np.sqrt(np.max(base_sq))))

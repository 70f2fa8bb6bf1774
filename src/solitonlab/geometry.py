"""Discrete differential geometry on the two desk-scale manifold models.

Two backgrounds are supported:

* ``FrameModel`` -- a homogeneous space described by the three structure
  constants lambda_k of a Milnor frame and diagonal metric coefficients.
  Curvature is closed-form, fields are constants, and flows reduce to ODEs.
  Its closed forms run on Python floats, sparing numpy's per-call cost on
  length-3 arrays, with numpy's bits: three-term sums and products are
  taken left to right, as numpy reduces three entries, and sqrt is
  correctly rounded in both (the entropy code's exp and log stay numpy's).
* ``GridModel`` -- a flat periodic torus carrying a symmetric 2-tensor field
  (the metric) on a uniform grid.  All derivative operators are second-order
  central differences with periodic wraparound.

Grid fields are plain numpy arrays, stored one way inside the geometry:
component-major, with the component axes first.  Scalars have shape
``dims``, vectors ``(n,) + dims``, symmetric 2-tensors ``(n, n) + dims`` and
Christoffel symbols ``(n, n, n) + dims``, so each component is one
contiguous grid plane and every elementwise operation walks a whole plane in
its inner loop instead of the 2 or 3 entries of one node.  The derived
fields ``GridModel.g_cm``, ``ginv_cm``, ``gamma_cm`` and ``ric_cm`` have
this layout, and so does every field that ``inverse_metric``,
``christoffel``, ``partials``, ``hessian``, ``lower_vector``, ``trace``,
``connection_term``, ``covd_oneform``, ``covd_tensor``,
``lie_derivative_metric`` and ``pointwise_sq`` take and return.  Node-major arrays, with the grid axes first (``dims + (n, n)``), are
left at the boundary: the stored metric ``GridModel.g``, and what
``divergence``, ``laplacian_scalar``, ``scalar_curvature`` and ``norms`` take
and return.

Validation (``validate_spd``, which ``GridModel.min_eig`` runs) reads the
component-major planes of ``g_cm`` as well: the geometry reads them next.

The contractions over the n <= 3 component axes are sums of broadcast
products, added in the order numpy's ``einsum`` adds them over node-major
operands, so they equal its result bitwise.  A contiguous run of products
it adds in SIMD lanes (``lane_sum``); a strided or multi-operand
contraction one term after the other from +0.0 (``_sum_in_order``,
``pointwise_sq``).  The lane order is that of numpy's baseline SIMD on
x86-64, two float64 lanes.

A model's derived fields are ``cached_field``s: each is computed on first
read and kept in the instance ``__dict__``, where later reads find it
without a call, as Python 3.12's ``functools.cached_property`` does; Python
3.11's takes a lock on every first read, a cost paid by every stage model
of a flow.  ``GridModel.with_metric``, which builds those stage models,
checks only the new metric's shape, since the grid it copies is already
normalized; per-grid constants (the neighbour indices and the central
differences' 2 h) are cached at module level, not on models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, product

import numpy as np

from .errors import NumericalFailureError, RejectedInputError

DET_FLOOR = 1e-12


class cached_field(cached_property):
    """A model field derived on first read and read from the instance
    ``__dict__`` after that, where it shadows this non-data descriptor:
    ``functools.cached_property`` as Python 3.12 has it, without the lock
    that Python 3.11's takes on every first read.  Threads that read a field
    first at the same time may each derive it; every one returns the value
    stored first."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.setdefault(self.attrname, self.func(obj))


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class FrameModel:
    """Homogeneous model: a Milnor frame of a unimodular 3-dimensional Lie
    group and a diagonal metric.

    ``lams`` are the frame's structure constants: ``[e_i, e_j] = lams[k] e_k``
    for every cyclic permutation (i, j, k) of (0, 1, 2) (Milnor, Adv. Math. 21,
    1976); ``0 < a[i] < inf`` are the diagonal metric coefficients, so
    ``g = diag(a)`` in the frame.  ``base_volume`` is the volume of the group
    for ``a = (1, 1, 1)``.  ``a`` is checked, and its closed forms evaluated,
    on Python floats (see the module docstring).
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
        x = self.a.tolist()
        if not all(0.0 < v < math.inf for v in x):  # NaN included
            raise RejectedInputError("metric coefficients must be positive and finite, got "
                                     + ", ".join(f"{v:.6g}" for v in x))

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

    @cached_field
    def ric(self) -> np.ndarray:
        """Ricci tensor as lowered diagonal coefficients, read-only."""
        return _read_only(_ricci_frame(self))


def check_grid(n: int, dims: tuple, period: tuple) -> None:
    """Reject the grid parameters no ``GridModel`` takes: other than 2 or 3
    axes, ``dims`` or ``period`` of another length, under 8 points per axis."""
    if n not in (2, 3):
        raise RejectedInputError("grid models support n = 2 or 3")
    if len(dims) != n or len(period) != n:
        raise RejectedInputError("dims and period must have length n")
    if any(d < 8 for d in dims):
        raise RejectedInputError("grid needs at least 8 points per axis")


@dataclass(frozen=True)
class GridModel:
    """Periodic-grid model: a metric tensor field on a flat torus.

    ``g`` has shape ``dims + (n, n)`` and must be symmetric positive definite
    at every node.  Index arithmetic wraps modulo ``dims``.  Validation keeps
    the smallest eigenvalue of g as ``min_eig``.  The derived fields, the
    component-major ``g_cm``, ``ginv_cm``, ``gamma_cm`` and ``ric_cm`` (see the
    module docstring) and the density ``sqrt_det``, are computed once, on first
    use, and are read-only: a model is never written to in place.
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
        check_grid(self.n, self.dims, self.period)
        self._check_metric()

    def _check_metric(self):
        """Reject a metric of the wrong shape and, if ``validate``, one that
        ``validate_spd`` rejects."""
        if self.g.shape != self.dims + (self.n, self.n):
            raise RejectedInputError(f"metric field must have shape {self.dims + (self.n, self.n)}")
        if self.validate:
            self.min_eig  # validates g, keeping its smallest eigenvalue

    @classmethod
    def flat(cls, n=2, dims=(16, 16), period=None) -> "GridModel":
        """Constant metric ``delta`` on the torus (default period 2 pi)."""
        if period is None:
            period = (2.0 * np.pi,) * n
        g = np.zeros(tuple(dims) + (n, n))
        g[...] = np.eye(n)
        return cls(n=n, dims=tuple(dims), period=tuple(period), g=g)

    @cached_field
    def min_eig(self) -> float:
        """Smallest eigenvalue of g over all nodes, from ``validate_spd`` of
        ``g_cm``, which the geometry reads next."""
        return validate_spd(self.g_cm)

    @cached_field
    def g_cm(self) -> np.ndarray:
        """The metric component-major: g_cm[i, j] is the grid plane of g_ij."""
        return _read_only(component_major(self.g, 2))

    @cached_field
    def ginv_cm(self) -> np.ndarray:
        """Inverse metric g^{ij}, component-major."""
        return _read_only(inverse_metric(self))

    @cached_field
    def gamma_cm(self) -> np.ndarray:
        """Christoffel symbols Gamma[k, i, j], component-major."""
        return _read_only(christoffel(self))

    @cached_field
    def ric_cm(self) -> np.ndarray:
        """Ricci tensor field, component-major."""
        return _read_only(_ricci_grid(self))

    @cached_field
    def gamma_is_zero(self) -> bool:
        """Whether every Christoffel symbol is +0.0, as on a constant metric:
        then subtracting them changes no bit."""
        return not self.gamma_cm.view(np.int64).any()

    @cached_field
    def sqrt_det(self) -> np.ndarray:
        """Volume density sqrt(det g) per node."""
        return _read_only(np.sqrt(np.linalg.det(self.g)))

    @cached_field
    def is_flat(self) -> bool:
        """Whether g is the same at every node (to ``np.allclose``)."""
        g0 = self.g.reshape(-1, self.n, self.n)
        return bool(np.allclose(g0, g0[0]))

    @cached_field
    def spacings(self) -> np.ndarray:
        """Grid step period / points along each axis."""
        return _read_only(np.array([p / d for p, d in zip(self.period, self.dims)]))

    def coords(self):
        """Node coordinate arrays, one per axis, broadcastable to ``dims``."""
        axes = [np.arange(d) * (p / d) for d, p in zip(self.dims, self.period)]
        return np.meshgrid(*axes, indexing="ij")

    def with_metric(self, g, validate: bool = True) -> "GridModel":
        """This grid with the metric ``g``, of which only the shape is checked
        (and, if ``validate``, the values): this model's ``n``, ``dims`` and
        ``period`` are already normalized and checked."""
        m = object.__new__(GridModel)
        m.__dict__.update(n=self.n, dims=self.dims, period=self.period,
                          g=np.asarray(g, dtype=float), validate=validate)
        m._check_metric()
        return m


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def component_major(a: np.ndarray, k: int) -> np.ndarray:
    """A C-contiguous copy of the node-major field ``a`` with its ``k``
    trailing component axes moved to the front, in order."""
    return np.ascontiguousarray(a.transpose(_rotation(a.ndim, a.ndim - k)))


def node_major(a: np.ndarray, k: int) -> np.ndarray:
    """A C-contiguous copy of the component-major field ``a`` with its ``k``
    leading component axes moved to the back: undoes ``component_major``."""
    return np.ascontiguousarray(a.transpose(_rotation(a.ndim, k)))


@lru_cache(maxsize=None)
def _rotation(ndim: int, shift: int) -> tuple:
    """The axis order that moves the first ``shift`` of ``ndim`` axes to the back."""
    return tuple(range(shift, ndim)) + tuple(range(shift))


def _leading(a: np.ndarray, *order) -> np.ndarray:
    """A view of ``a`` with its leading axes permuted to ``order`` and the rest kept."""
    return a.transpose(order + tuple(range(len(order), a.ndim)))


def twin(m):
    """A copy of ``m`` sharing its metric but none of its derived fields: reads
    the geometry of a stored model without keeping that geometry on it."""
    if isinstance(m, FrameModel):
        return m.with_a(m.a)
    return m.with_metric(m.g, validate=False)


def validate_spd(g: np.ndarray) -> float:
    """Reject a component-major metric field (``g[i, j]`` the grid plane of
    g_ij, as ``GridModel.g_cm``) with a non-SPD or near-degenerate node.

    Symmetry is ``np.allclose(g, g^T)``, tested on the off-diagonal pairs in
    both orders.  In 2-D the checks read the lower triangle, as ``eigvalsh``
    does, in closed form: the determinant a d - b^2, positivity by Sylvester's
    criterion (a > 0 once the determinant is), and the smallest eigenvalue as
    det / lambda_max with lambda_max = (a + d)/2 + sqrt(((a - d)/2)^2 + b^2),
    which cancels nothing.  In 3-D one ``eigvalsh`` per node serves every
    check.  Every check is elementwise, or a reduction whose result does not
    depend on the order, so the layout changes no outcome.  Returns the
    smallest eigenvalue over all nodes.
    """
    if not np.isfinite(g).all():
        raise RejectedInputError("metric field contains non-finite entries")
    for i, j in combinations(range(len(g)), 2):
        upper, lower = g[i, j], g[j, i]
        # np.isclose(x, y) is |x - y| <= 1e-8 + 1e-5 |y|: both orders at once
        if not (np.abs(upper - lower)
                <= 1e-8 + 1e-5 * np.minimum(np.abs(upper), np.abs(lower))).all():
            raise RejectedInputError("metric field is not symmetric")
    if len(g) == 2:
        a, b, d = g[0, 0], g[1, 0], g[1, 1]
        det = a * d - b * b
        definite = a > 0
        half_diff = 0.5 * (a - d)
        # a node where lambda_max is 0 has det 0, which the floor rejects first
        with np.errstate(divide="ignore", invalid="ignore"):
            lam_min = det / (0.5 * (a + d) + np.sqrt(half_diff * half_diff + b * b))
    else:
        eigs = np.linalg.eigvalsh(np.moveaxis(g, (0, 1), (-2, -1)))
        det = np.prod(eigs, axis=-1)
        definite = eigs[..., 0] > 0
        lam_min = eigs[..., 0]
    if (det < DET_FLOOR).any():
        raise RejectedInputError("metric determinant below degeneracy floor")
    if not definite.all():
        raise RejectedInputError("metric is not positive definite at some node")
    return float(lam_min.min())


def leading_minors_positive(m: GridModel) -> bool:
    """Sylvester's criterion at every node: whether the leading principal
    minors of g, in closed form from its lower triangle, are all positive.
    Cheaper than ``validate_spd`` and without its tolerances; a non-finite
    entry fails it.  In 2-D ``validate_spd`` tests these same two minors."""
    g = m.g_cm
    # a NaN minimum compares False; each minor is formed once the last has passed
    if not g[0, 0].min() > 0.0:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        minor = g[0, 0] * g[1, 1]
        minor -= g[1, 0] * g[1, 0]
        if not minor.min() > 0.0:
            return False
        if m.n == 2:
            return True
        minor = (g[0, 0] * (g[1, 1] * g[2, 2] - g[2, 1] * g[2, 1])
                 - g[1, 0] * (g[1, 0] * g[2, 2] - g[2, 1] * g[2, 0])
                 + g[2, 0] * (g[1, 0] * g[2, 1] - g[1, 1] * g[2, 0]))
        return bool(minor.min() > 0.0)


def require_flat(h: GridModel) -> None:
    """Reject a background whose metric is not the same at every node."""
    if not h.is_flat:
        raise RejectedInputError("the background must be a constant (flat) metric")


def sym_components(n: int):
    """Index pairs (i, j), i <= j, of a symmetric n x n tensor, row-major."""
    return [(i, j) for i in range(n) for j in range(i, n)]


# ---------------------------------------------------------------------------
# finite differences


# The stencils gather neighbours with ``take(..., mode="clip")``: every index
# is in range, and unlike the default ``mode="raise"`` it checks none.


@lru_cache(maxsize=None)
def _neighbours(n: int):
    """Periodic index arrays (i + 1) mod n and (i - 1) mod n, read-only."""
    idx = np.arange(n)
    plus, minus = (idx + 1) % n, (idx - 1) % n
    plus.setflags(write=False)
    minus.setflags(write=False)
    return plus, minus


@lru_cache(maxsize=None)
def _two_h(dims: tuple, period: tuple) -> tuple:
    """The central differences' divisors 2 h_a of a grid, as floats: the
    bits of ``2.0 * spacings[a]``."""
    return tuple(2.0 * (p / d) for p, d in zip(period, dims))


def d1(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second-order central first derivative along a grid axis."""
    plus, minus = _neighbours(f.shape[axis])
    return (f.take(plus, axis=axis, mode="clip")
            - f.take(minus, axis=axis, mode="clip")) / (2.0 * h)


def d1_symbol(m: GridModel) -> tuple:
    """Fourier symbol over i of ``d1`` along each axis a of ``m``: sin(theta_a)/h_a, theta_a
    the phase advance per node, on the wavenumber grid (``m.dims``, fftn order)."""
    return np.meshgrid(*[np.sin(2.0 * np.pi * np.fft.fftfreq(d)) / h
                         for d, h in zip(m.dims, m.spacings)], indexing="ij")


def d2(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Compact 3-point second derivative along a grid axis."""
    plus, minus = _neighbours(f.shape[axis])
    return (f.take(plus, axis=axis, mode="clip") - 2.0 * f
            + f.take(minus, axis=axis, mode="clip")) / h**2


def partials(m: GridModel, f: np.ndarray) -> np.ndarray:
    """Stack of first partials of a component-major field, indexed by a
    leading axis: out[l] = d_l f, each bitwise ``d1``."""
    lead = f.ndim - m.n
    out = np.empty((m.n,) + f.shape)
    for l, two_h in enumerate(_two_h(m.dims, m.period)):
        plus, minus = _neighbours(f.shape[lead + l])
        d = out[l]
        f.take(plus, axis=lead + l, out=d, mode="clip")
        d -= f.take(minus, axis=lead + l, mode="clip")
        d /= two_h
    return out


def hessian(m: GridModel, f: np.ndarray) -> np.ndarray:
    """Coordinate second partials of a component-major field, indexed by two
    leading axes: out[i, j] = d_i d_j f.

    Diagonal entries use the compact stencil; mixed entries are nested
    central differences.
    """
    lead = f.ndim - m.n
    hs = m.spacings
    out = np.empty((m.n, m.n) + f.shape)
    for i in range(m.n):
        out[i, i] = d2(f, axis=lead + i, h=hs[i])
        for j in range(i + 1, m.n):
            out[i, j] = out[j, i] = d1(d1(f, axis=lead + j, h=hs[j]), axis=lead + i, h=hs[i])
    return out


# ---------------------------------------------------------------------------
# connection and curvature


def inverse_metric(m: GridModel) -> np.ndarray:
    """Inverse metric g^{ij} per node, component-major: a closed form in 2-D,
    ``np.linalg.inv`` in 3-D.

    ``np.linalg.inv`` solves g X = I with LAPACK ``dgesv``: an LU factorization
    with partial pivoting, then forward and back substitution that multiply by
    the reciprocal pivots.  In 2-D, where no row is swapped, this repeats that
    arithmetic in closed form, operation by operation, and rounds the last
    update of the back substitution once (``_fma``).  That is IEEE arithmetic,
    the same on every machine.  It gives ``np.linalg.inv``'s bits where the
    BLAS ``dtrsm`` kernel contracts that update into a fused multiply-add, as
    OpenBLAS 0.3.31's SkylakeX kernel does (numpy 2.4); ``tests/test_geometry.py``
    checks the equality where it runs on that build.  A node where pivoting
    would swap rows, a pivot is zero or the result is not finite goes through
    ``np.linalg.inv`` itself, which raises ``LinAlgError`` on an exactly
    singular node.
    """
    if m.n != 2:
        return component_major(np.linalg.inv(m.g), 2)
    g = m.g_cm
    x = np.empty(g.shape)
    a00, a01, a10, a11 = g[0, 0], g[0, 1], g[1, 0], g[1, 1]
    x00, x01, x10, r1 = x[0, 0], x[0, 1], x[1, 0], x[1, 1]  # views, written in place
    with np.errstate(all="ignore"):
        r0 = 1.0 / a00
        l10 = a10 * r0
        np.divide(1.0, a11 - l10 * a01, out=r1)
        np.multiply(0.0 - l10, r1, out=x10)
        np.multiply(0.0 - a01 * r1, r0, out=x01)
        np.multiply(_fma(-x10, a01, 1.0), r0, out=x00)
    # partial pivoting keeps a row unless the one below is larger in magnitude
    kept = np.abs(a10) <= np.abs(a00)
    if kept.all() and np.isfinite(x).all():
        return x
    pivoted = ~(kept & np.isfinite(x).all(axis=(0, 1)))
    x[..., pivoted] = np.moveaxis(np.linalg.inv(m.g[pivoted]), 0, -1)
    return x


# Veltkamp's splitting constant 2^27 + 1: splits a double into two halves of
# at most 26 bits, whose pairwise products are exact
_SPLIT = 134217729.0


def _fma(a, b, c):
    """``a * b + c`` rounded once, as a hardware fused multiply-add rounds it.

    p = a * b rounded lies within ulp(p)/2 <= |p| 2^-52 of the exact product,
    and rounding is monotone: where c + p rounds to the same float with p
    moved by |p| 2^-52 either way, so does a b + c, and the plain c + p is the
    answer.  Elsewhere, Dekker's TwoProduct (Veltkamp's split) and Knuth's
    TwoSum write a b + c = s + r + e exactly; s + (r + e), with the inner sum
    rounded to odd, is then the correctly rounded result (Boldo and Melquiond,
    IEEE Trans. Comput. 57, 2008).  Rounding r + e to nearest instead can round
    a near-tie of s + r + e to a tie, which then breaks to even, the wrong way.
    Exact unless a product overflows (the result is then not finite) or a
    nonzero one falls below 2^-969 while c is as small.
    """
    p = a * b
    s = c + p
    d = p * 2.0**-52
    if (c + (p - d) == c + (p + d)).all():
        return s
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # a b - p
    z = s - c
    r = (c - (s - z)) + (p - z)  # c + p - s
    v = r + e
    z = v - r
    w = (r - (v - z)) + (e - z)  # r + e - v
    # round to odd: truncate v toward zero, then set its last bit if inexact
    inexact = w != 0
    bits = v.view(np.int64) - (inexact & np.signbit(v * w))  # the sign of v w, zero or not
    return s + (bits | inexact).view(np.float64)


def christoffel(m: GridModel) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] of the grid metric, component-major."""
    dg = partials(m, m.g_cm)  # dg[l, i, j] = d_l g_ij
    # term[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    term = _leading(dg, 2, 0, 1) + _leading(dg, 2, 1, 0)
    term -= dg
    # g^{kl} term_lij, l summed in order: bitwise einsum("...kl,...lij->...kij")
    products = _leading(m.ginv_cm, 1, 0)[:, :, None, None] * term[:, None]  # [l, k, i, j]
    out = _sum_in_order(products)
    out *= 0.5
    return out


def _ricci_frame(m: FrameModel) -> np.ndarray:
    """Closed-form Ricci of a unimodular Milnor frame, as lowered diagonal R_ii.

    R_ii = 2 mu_j mu_k a_i, mu_i = (cbar_0 + cbar_1 + cbar_2) / 2 - cbar_i,
    cbar_i = lambda_i sqrt(a_i / (a_j a_k)); where a_j a_k overflows or
    underflows to zero, the quotient is taken one factor at a time.  On
    Python floats, whose products overflow to inf silently, with numpy's
    bits (see the module docstring).
    """
    lams, x = m.lams.tolist(), m.a.tolist()
    idx = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    cbar = []
    for i, j, k in idx:
        p = x[j] * x[k]
        q = x[i] / p if 0.0 < p < math.inf else x[i] / x[j] / x[k]
        cbar.append(lams[i] * math.sqrt(q))
    s = 0.5 * (cbar[0] + cbar[1] + cbar[2])
    mu = [s - c for c in cbar]
    return np.array([2.0 * mu[j] * mu[k] * x[i] for i, j, k in idx])


def _ricci_grid(m: GridModel) -> np.ndarray:
    """Ricci tensor R[i, j] of the grid metric, component-major."""
    gamma = m.gamma_cm
    dgamma = partials(m, gamma)  # dgamma[l, k, i, j] = d_l Gamma^k_ij
    # k summed in order over diagonal views, whose last axis is k: bitwise
    # einsum("...kijk->...ij") and einsum("...kkji->...ij") of the node-major
    # dgamma[..., k, i, j, l]
    r = _sum_in_order(dgamma.diagonal(0, 0, 1), axis=-1)  # d_k Gamma^k_ij
    r -= _sum_in_order(dgamma.diagonal(0, 1, 2), axis=-1)  # d_l Gamma^k_kj, l as i
    # the Gamma.Gamma terms summed over (k, l), k outer and l inner: bitwise
    # einsum("...kkl,...lij->...ij") and einsum("...kil,...lkj->...ij")
    diag = gamma.diagonal(0, 0, 1)  # diag[l, ..., k] = Gamma^k_kl
    diag = diag.transpose(_rotation(diag.ndim, diag.ndim - 1))  # a view: diag[k, l]
    r += _sum_in_order(_pairs(diag[:, :, None, None] * gamma[None]))
    r -= _sum_in_order(_pairs(_leading(gamma, 0, 2, 1)[:, :, :, None]  # Gamma^k_il
                              * _leading(gamma, 1, 0, 2)[:, :, None, :]))  # Gamma^l_kj
    out = r + np.swapaxes(r, 0, 1)
    out *= 0.5
    return out


def _pairs(a: np.ndarray) -> np.ndarray:
    """``a[k, l, ...]`` as one leading axis of the pairs (k, l), k outer."""
    return a.reshape((a.shape[0] * a.shape[1],) + a.shape[2:])


def _sum_in_order(terms: np.ndarray, axis: int = 0) -> np.ndarray:
    """The sum over one axis of ``terms`` (the leading one by default), added
    one term after the other from +0.0: what ``einsum`` computes over an index
    that is not the innermost in memory, and what Python's ``sum`` computes.
    numpy adds in that order along the leading axis of a C-contiguous array,
    and along any axis of fewer than 8 terms."""
    return np.add.reduce(terms, axis=axis, initial=0.0)


def scalar_curvature(m):
    """Scalar curvature: a scalar field on a grid, a real on a frame model."""
    if isinstance(m, FrameModel):
        return float(np.sum(m.ric / m.a))
    return trace(m, m.ric_cm)


# ---------------------------------------------------------------------------
# covariant derivatives and tensor calculus on the grid


def lane_sum(terms):
    """The sum of a list of at least 2 arrays in the order ``einsum`` adds a
    contiguous run of that many products: its SIMD loop adds the even- and
    the odd-numbered terms in two lanes, each whole block of 8 last to first
    (it is unrolled four vectors deep) and the rest in order, then the two
    lanes, then the zero it started from (so an exact zero sum is +0.0)."""
    lanes, blocks = [None, None], len(terms) - len(terms) % 8
    order = [k for s in range(0, blocks, 8) for k in range(s + 7, s - 1, -1)]
    for k in order + list(range(blocks, len(terms))):
        lanes[k % 2] = terms[k] if lanes[k % 2] is None else terms[k] + lanes[k % 2]
    return 0.0 + (lanes[0] + lanes[1])


def trace(m: GridModel, t: np.ndarray) -> np.ndarray:
    """g^{ij} t_ij over the last two component axes of the component-major
    ``t`` (shape ``lead + (n, n) + dims``), returned with the shape ``lead +
    dims``: bitwise einsum("...ij,...kij->...k") of the node-major fields,
    whose products g^{ij} t_kij run contiguous over (i, j) row-major."""
    x = m.ginv_cm * t
    grid = (slice(None),) * m.n
    return lane_sum([x[(Ellipsis, i, j) + grid] for i, j in product(range(m.n), repeat=2)])


def lower_vector(m: GridModel, v: np.ndarray) -> np.ndarray:
    """g_ij v^j, component-major in and out: bitwise einsum("...ij,...j->...i")."""
    products = m.g_cm * v  # [i, j]
    return lane_sum([products[:, j] for j in range(m.n)])


def covd_oneform(m: GridModel, w: np.ndarray) -> np.ndarray:
    """Covariant derivative of a 1-form, component-major in and out:
    out[i, j] = nabla_i w_j."""
    dw = partials(m, w)  # dw[i, j] = d_i w_j
    dw -= connection_term(m, w)
    return dw


def connection_term(m: GridModel, w: np.ndarray) -> np.ndarray:
    """Gamma^k_ij w_k of a 1-form, component-major in and out, k summed in
    order: bitwise einsum("...kij,...k->...ij")."""
    return _sum_in_order(m.gamma_cm * w[:, None, None])


def covd_tensor(m: GridModel, t: np.ndarray) -> np.ndarray:
    """Covariant derivative of a (0,2)-tensor, component-major in and out:
    out[l, i, j] = nabla_l T_ij."""
    out = partials(m, t)  # out[l, i, j] = d_l T_ij
    gamma = m.gamma_cm
    # Gamma's upper index m summed in order: bitwise einsum("...mli,...mj->...lij")
    # and einsum("...mlj,...im->...lij")
    out -= _sum_in_order(gamma[:, :, :, None] * t[:, None, None, :])
    out -= _sum_in_order(gamma[:, :, None, :] * _leading(t, 1, 0)[:, None, :, None])
    return out


def divergence(m: GridModel, t: np.ndarray) -> np.ndarray:
    """Divergence (delta T)_j = -g^{ik} nabla_i T_kj of a node-major
    (0,2)-tensor, returned as a node-major 1-form."""
    nabla = covd_tensor(m, component_major(t, 2))  # nabla[i, k, j]
    return node_major(-trace(m, _leading(nabla, 2, 0, 1)), 1)


def lie_derivative_metric(m: GridModel, v: np.ndarray) -> np.ndarray:
    """(L_V g)_ij = nabla_i V_j + nabla_j V_i for an upper-index field V,
    component-major in and out."""
    dv = covd_oneform(m, lower_vector(m, v))
    return dv + np.swapaxes(dv, 0, 1)


def laplacian_scalar(m: GridModel, f: np.ndarray) -> np.ndarray:
    """Rough Laplacian g^{ij} nabla_i nabla_j f of a scalar field."""
    hess = hessian(m, f)
    hess -= connection_term(m, partials(m, f))
    return trace(m, hess)


# ---------------------------------------------------------------------------
# norms and volume


@dataclass(frozen=True)
class NormReport:
    """Discrete norms of a grid field: L2 and sup."""

    l2: float
    sup: float


def pointwise_sq(m: GridModel, f: np.ndarray) -> np.ndarray:
    """Squared pointwise magnitude of a component-major scalar, 1-form or
    (0,2)-tensor field."""
    extra = f.ndim - len(m.dims)
    if extra == 0:
        return f**2
    if extra > 2:
        raise RejectedInputError("fields with more than two component axes are not supported")
    ginv = m.ginv_cm
    # products left to right in one array over the index tuples, added from
    # +0.0 in row-major tuple order: bitwise einsum("...ij,...i,...j->...")
    # and einsum("...ik,...jl,...ij,...kl->...")
    if extra == 1:
        terms = ginv * f[:, None]
        terms *= f[None, :]
    else:
        terms = ginv[:, None, :, None] * ginv[None, :, None, :]  # [i, j, k, l]
        terms *= f[:, :, None, None]
        terms *= f[None, None]
    return _sum_in_order(terms.reshape((-1,) + f.shape[extra:]))


def volume(m) -> float:
    """Total volume of the model; ``NumericalFailureError`` where a frame
    model's volume overflows.  A frame's is base_volume ((sqrt a_0 sqrt a_1)
    sqrt a_2), on floats (see the module docstring)."""
    if isinstance(m, FrameModel):
        s0, s1, s2 = map(math.sqrt, m.a.tolist())
        vol = m.base_volume * (s0 * s1 * s2)  # no overflow of prod(a)
        if not math.isfinite(vol):
            raise NumericalFailureError(f"the volume of the frame metric a = {m.a.tolist()} "
                                        "overflows")
        return vol
    return float(np.sum(m.sqrt_det) * np.prod(m.spacings))


def norms(m: GridModel, f: np.ndarray) -> NormReport:
    """Discrete L2 norm against dV_g and the sup norm of a grid field.

    The pointwise magnitude contracts the field's lower indices with g^{-1}.
    """
    base_sq = pointwise_sq(m, component_major(f, f.ndim - len(m.dims)))
    l2 = float(np.sqrt(np.sum(base_sq * m.sqrt_det) * np.prod(m.spacings)))
    return NormReport(l2=l2, sup=float(np.sqrt(np.max(base_sq))))

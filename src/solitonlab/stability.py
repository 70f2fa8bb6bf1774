"""Linearized stability machinery: operator assembly, spectra, the
growing/decaying/neutral trichotomy, projection onto the flat soliton
family, evolution-residual monitoring, and exponential-rate fitting.

Perturbations of a grid metric are flattened component-major: for each
upper-triangle component (i <= j) the node values are raveled in C order
and the blocks concatenated.  The Euclidean inner product on these vectors
is what all projections and orthogonality statements refer to.

Spectra take one of two paths.  At a flat background the assembled operator
(``assemble_linearized_pde``) is a constant-coefficient stencil acting alike
on every component, so it is a ``FourierOperator``: its eigenvalues are its
per-wavenumber symbol, repeated once per component, at O(N log N) cost and
with no grid-size cap.  Its dense matrix is built only when asked for, and
``apply`` and the report's eigenvectors go through that matrix.  Every other ``LinearOperator`` (frame
Jacobians, the finite-difference ``linearize_flow_rhs``, hand-built
matrices) is decomposed densely, and ``linearize_flow_rhs`` stays capped at
``DENSE_GRID_CAP`` nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from . import flows, geometry
from .errors import InsufficientDataError, NumericalFailureError, RejectedInputError
from .geometry import FrameModel, GridModel

DENSE_GRID_CAP = 32 * 32  # nodes; dense finite-difference linearizations stay at desk scale
NOISE_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# flattening of symmetric 2-tensor fields


def sym_components(n: int):
    return [(i, j) for i in range(n) for j in range(i, n)]


def tensor_to_vec(field: np.ndarray, n: int) -> np.ndarray:
    return np.concatenate([field[..., i, j].ravel() for (i, j) in sym_components(n)])


def vec_to_tensor(vec: np.ndarray, dims, n: int) -> np.ndarray:
    N = int(np.prod(dims))
    out = np.zeros(tuple(dims) + (n, n))
    for c, (i, j) in enumerate(sym_components(n)):
        block = vec[c * N:(c + 1) * N].reshape(dims)
        out[..., i, j] = block
        out[..., j, i] = block
    return out


# ---------------------------------------------------------------------------
# operators


@dataclass(frozen=True)
class LinearOperator:
    """Dense matrix acting on flattened metric perturbations."""

    matrix: np.ndarray
    background: object
    tau: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, field: np.ndarray) -> np.ndarray:
        m = self.background
        if isinstance(m, GridModel):
            return vec_to_tensor(self.matrix @ tensor_to_vec(field, m.n), m.dims, m.n)
        return self.matrix @ field


def _axis_matrices(dims, spacings):
    d1s, d2s = [], []
    for d, h in zip(dims, spacings):
        s_plus, s_minus = np.roll(np.eye(d), -1, axis=1), np.roll(np.eye(d), 1, axis=1)
        d1s.append((s_plus - s_minus) / (2.0 * h))
        d2s.append((s_plus - 2.0 * np.eye(d) + s_minus) / h**2)
    return d1s, d2s


def _kron_chain(mats) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def scalar_laplacian_matrix(h: GridModel) -> np.ndarray:
    """Dense matrix of the constant-coefficient Laplacian h^{ij} d_i d_j.

    Diagonal directions use the compact 3-point stencil, mixed directions
    nested central differences, matching the pointwise grid operators.
    """
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


def laplacian_symbol(h: GridModel, tau: float) -> np.ndarray:
    """Fourier symbol of ``scalar_laplacian_matrix(h)`` plus 1/tau (if finite).

    Shape ``h.dims``, wavenumbers in ``np.fft.fftn`` order.  Per axis the
    compact stencil contributes -h^{aa} 2 (1 - cos theta_a)/dx_a^2 and each
    nested-central mixed pair -2 h^{ab} sin(theta_a) sin(theta_b)/(dx_a dx_b),
    theta_a being the phase advance per node.  Reads the metric at the first
    node, as the matrix assembly does.
    """
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


@dataclass(frozen=True)
class FourierOperator:
    """Constant-coefficient stencil operator on a flat periodic grid.

    It acts alike on each of the ``ncomp`` symmetric components and is
    diagonal in the discrete Fourier basis: ``symbol`` (shape
    ``background.dims``, fftn order) holds its eigenvalue per wavenumber.
    The dense ``matrix`` is the Kronecker assembly, built on first access;
    ``apply`` multiplies by it.
    """

    symbol: np.ndarray
    ncomp: int
    background: GridModel
    tau: float

    @property
    def dim(self) -> int:
        return self.ncomp * self.symbol.size

    @cached_property
    def matrix(self) -> np.ndarray:
        mat = np.kron(np.eye(self.ncomp), scalar_laplacian_matrix(self.background))
        if np.isfinite(self.tau):
            mat = mat + np.eye(self.dim) / self.tau
        return mat

    apply = LinearOperator.apply


def assemble_linearized_pde(h: GridModel, tau: float) -> FourierOperator:
    """The linearized gauge-fixed flow operator at a flat background.

    At a constant-coefficient background the gauge-fixed linearization has
    no zeroth- or first-order curvature terms, leaving the componentwise
    Laplacian plus the 1/tau dilation term (omitted when tau = inf).  The
    operator is returned through its Fourier symbol; no matrix is formed.
    """
    g0 = h.g.reshape(-1, h.n, h.n)
    if not np.allclose(g0, g0[0]):
        raise RejectedInputError("operator assembly requires a flat (constant) background")
    if np.isfinite(tau) and not tau > 0:
        raise RejectedInputError("tau must be positive or inf")
    return FourierOperator(symbol=laplacian_symbol(h, tau), ncomp=len(sym_components(h.n)),
                           background=h, tau=tau)


def jacobian_ode(rhs: Callable, background: FrameModel, step: float = 1e-6) -> LinearOperator:
    """Central finite-difference Jacobian of a frame-ODE right-hand side."""
    a0 = np.array(background.a, dtype=float)
    dim = len(a0)
    mat = np.empty((dim, dim))
    for k in range(dim):
        hk = step * max(1.0, abs(a0[k]))
        ap, am = a0.copy(), a0.copy()
        ap[k] += hk
        am[k] -= hk
        mat[:, k] = (rhs(background.with_a(ap)) - rhs(background.with_a(am))) / (2.0 * hk)
    return LinearOperator(matrix=mat, background=background, tau=np.nan)


def linearize_flow_rhs(background: GridModel, variant: str, tau: float,
                       reference: Optional[GridModel] = None,
                       step: float = 1e-7) -> LinearOperator:
    """Exact-to-roundoff linearization of the discrete flow right-hand side.

    Columns are central finite differences of the actual grid stencils, so
    the operator reproduces the flow code's own discretization (including
    its wide first-derivative stencils), which the evolution-residual
    monitor needs to see a genuinely quadratic remainder.
    """
    n = background.n
    N = int(np.prod(background.dims))
    if N > DENSE_GRID_CAP:
        raise RejectedInputError(f"dense tensor spectra are capped at {DENSE_GRID_CAP} nodes")
    rhs = flows.make_metric_rhs(variant, tau, background=reference)
    comps = sym_components(n)
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
            mat[:, col] = tensor_to_vec((vp - vm) / (2.0 * step), n)
            col += 1
    return LinearOperator(matrix=mat, background=background, tau=tau)


# ---------------------------------------------------------------------------
# spectra and the trichotomy


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: np.ndarray  # sorted by real part, ascending
    eps_neutral: float
    n_grow: int
    n_neutral: int
    n_decay: int
    gap: float
    mode_basis: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def modes(self) -> np.ndarray:
        """Eigenvectors as columns in eigenvalue order, built on first access."""
        return self.mode_basis()

    def classification(self) -> np.ndarray:
        """Per-mode labels: +1 growing, 0 neutral, -1 decaying."""
        re = np.real(self.eigenvalues)
        return np.where(re > self.eps_neutral, 1, np.where(re < -self.eps_neutral, -1, 0))

    def to_document(self) -> dict:
        """JSON-ready report; ``eigenvalues_im`` is omitted for a real spectrum."""
        doc = {
            "eigenvalues_re": np.real(self.eigenvalues).tolist(),
            "eigenvalues_im": np.imag(self.eigenvalues).tolist(),
            "eps_neutral": self.eps_neutral,
            "counts": {"grow": self.n_grow, "neutral": self.n_neutral,
                       "decay": self.n_decay},
            "gap": self.gap,
            "convention": "forward-time: Re(lambda) > 0 grows under e^{Lt}",
        }
        if not np.any(np.imag(self.eigenvalues)):
            del doc["eigenvalues_im"]
        return doc


def default_neutral_tolerance(op: LinearOperator | FourierOperator) -> float:
    """One tenth of the flat-background gap estimate, scale-based otherwise.

    For a grid background the estimate is the smallest magnitude above
    1e-10 of the compact operator's symbol (the operator's own, for a
    ``FourierOperator``); frame operators fall back to a norm-based floor.
    """
    if isinstance(op, FourierOperator):
        sym = op.symbol
    elif isinstance(op.background, GridModel):
        sym = laplacian_symbol(op.background, op.tau)
    else:
        return max(float(np.max(np.abs(op.matrix))), 1.0) * 1e-8
    mags = np.abs(sym.ravel())
    return float(np.min(mags[mags > 1e-10]) / 10.0)


def spectrum(op: LinearOperator | FourierOperator, eps_neutral: Optional[float] = None) -> SpectralReport:
    """Eigenvalues with neutral-band classification.

    A ``FourierOperator``'s eigenvalues are its symbol repeated once per
    component; its modes are a dense ``eigh`` of its matrix, taken only on
    request.  Any other operator gets a full dense eigendecomposition.
    """
    if eps_neutral is None:
        eps_neutral = default_neutral_tolerance(op)
    if isinstance(op, FourierOperator):
        repeated = np.repeat(op.symbol.ravel(), op.ncomp)
        vals = np.sort(repeated).astype(complex)
        mode_basis = lambda: np.linalg.eigh(op.matrix)[1]
    else:
        sym = np.allclose(op.matrix, op.matrix.T, atol=1e-12)
        try:
            if sym:
                vals, vecs = np.linalg.eigh(op.matrix)
                vals = vals.astype(complex)
            else:
                vals, vecs = np.linalg.eig(op.matrix)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
        order = np.argsort(np.real(vals))
        vals, vecs = vals[order], vecs[:, order]
        mode_basis = lambda: vecs
    re = np.real(vals)
    n_grow = int(np.sum(re > eps_neutral))
    n_decay = int(np.sum(re < -eps_neutral))
    n_neutral = len(vals) - n_grow - n_decay
    outside = np.abs(re)[np.abs(re) > eps_neutral]
    gap = float(np.min(outside)) if outside.size else np.inf
    return SpectralReport(eigenvalues=vals, eps_neutral=float(eps_neutral),
                          n_grow=n_grow, n_neutral=n_neutral, n_decay=n_decay, gap=gap,
                          mode_basis=mode_basis)


@dataclass(frozen=True)
class TrichotomySplit:
    F_up: np.ndarray
    F_down: np.ndarray
    F_0: np.ndarray

    def reassembled(self) -> np.ndarray:
        return self.F_up + self.F_down + self.F_0


def trichotomy_split(F: np.ndarray, report: SpectralReport) -> TrichotomySplit:
    """Expand F in the eigenmode basis and regroup by classification.

    Forward-time convention: modes with Re(lambda) > eps grow under the
    propagator e^{Lt}.  (In the source decomposition a_k e^{-lambda_k t}
    the growing part carries lambda_k < 0; the classifications coincide
    after the sign flip of the exponent convention.)
    """
    coeff = np.linalg.solve(report.modes, F.astype(complex))
    labels = report.classification()
    parts = []
    for want in (1, -1, 0):
        sel = coeff * (labels == want)
        parts.append(np.real_if_close(report.modes @ sel))
    up, down, zero = (np.real(p) for p in parts)
    return TrichotomySplit(F_up=up, F_down=down, F_0=zero)


# ---------------------------------------------------------------------------
# interval lemmas


@dataclass(frozen=True)
class GrowthDecayVerdict:
    alpha: float
    sup_first: float
    sup_second: float
    growth_holds: bool
    decay_holds: bool


def growth_decay_check(first: Sequence[float], second: Sequence[float],
                       delta: float, L: float) -> GrowthDecayVerdict:
    """Two-interval growth/decay inequalities with alpha = e^{delta L}.

    ``first`` and ``second`` are sup-norm samples over [0, L] and [L, 2L].
    A purely growing part must gain the factor alpha between intervals; a
    purely decaying part must lose it.
    """
    alpha = float(np.exp(delta * L))
    s1, s2 = float(np.max(first)), float(np.max(second))
    return GrowthDecayVerdict(alpha=alpha, sup_first=s1, sup_second=s2,
                              growth_holds=bool(s2 >= alpha * s1 * (1.0 - 1e-12)),
                              decay_holds=bool(s2 <= s1 / alpha * (1.0 + 1e-12)))


def three_interval_test(first: Sequence[float], second: Sequence[float],
                        third: Sequence[float], beta: float) -> str:
    """Propagation dichotomy over three consecutive length-L intervals.

    Growth propagates forward: sup2 >= beta sup1 implies sup3 >= beta sup2.
    Decay propagates backward: sup3 <= sup2/beta implies sup2 <= sup1/beta.
    With no neutral part at least one implication holds non-vacuously or
    both are vacuous; "violation" means a triggered implication failed.
    The vacuous case reports "decay-propagates" (nothing is growing).
    """
    s1, s2, s3 = float(np.max(first)), float(np.max(second)), float(np.max(third))
    if s2 >= beta * s1:
        return "growth-propagates" if s3 >= beta * s2 else "violation"
    if s3 <= s2 / beta:
        return "decay-propagates" if s2 <= s1 / beta else "violation"
    return "decay-propagates"


def project_neutral(k, report: SpectralReport):
    """Euclidean-orthogonal projection onto the neutral eigenspace.

    ``k`` may be a single flattened perturbation or a sequence of samples;
    a sequence is projected sample-wise and averaged in time, the discrete
    stand-in for the space-time kernel projection on a static background.
    """
    labels = report.classification()
    basis = np.real_if_close(report.modes[:, labels == 0])
    if basis.size == 0:
        sample = k[0] if isinstance(k, (list, tuple)) else k
        return np.zeros_like(np.asarray(sample, dtype=float))
    q, _ = np.linalg.qr(np.real(basis))
    if isinstance(k, (list, tuple)):
        projs = [q @ (q.T @ np.asarray(ki, dtype=float)) for ki in k]
        return np.mean(projs, axis=0)
    return q @ (q.T @ np.asarray(k, dtype=float))


# ---------------------------------------------------------------------------
# the flat soliton family


@dataclass(frozen=True)
class FamilyProjection:
    g1: GridModel
    distance_to_family: float
    pi_norm: float
    factor_two_holds: bool
    ratio: float


def nearest_soliton_in_family(g: GridModel, h0: GridModel) -> FamilyProjection:
    """Project onto the constant-coefficient (flat) metric moduli.

    Every constant SPD metric on the torus is a stationary gauge-fixed
    solution relative to h0 (both connections vanish), so the family
    realizing integrability is the set of spatial constants; the member
    killing the neutral projection of g - g1 is h0 + mean(g - h0).  The
    factor-two comparison ||g1 - h0|| <= 2 ||pi(g - h0)|| is evaluated in
    the flat L2 norm and reported, not assumed.
    """
    diff = g.g - h0.g
    mean = diff.reshape(-1, g.n, g.n).mean(axis=0)
    g1 = h0.with_metric(np.broadcast_to(h0.g.reshape(-1, g.n, g.n)[0] + mean,
                                        g.g.shape).copy())
    # for this family the neutral projection of g - h0 is exactly its mean
    pi_field = np.broadcast_to(mean, g.g.shape).copy()
    dist = geometry.norms(h0, g1.g - h0.g).l2
    pi_norm = geometry.norms(h0, pi_field).l2
    ratio = dist / pi_norm if pi_norm > 0 else (np.inf if dist > 0 else 1.0)
    return FamilyProjection(g1=g1, distance_to_family=dist, pi_norm=pi_norm,
                            factor_two_holds=bool(dist <= 2.0 * pi_norm + 1e-15),
                            ratio=float(ratio))


# ---------------------------------------------------------------------------
# residual monitoring and rate fitting


@dataclass(frozen=True)
class ResidualRecord:
    t: float
    remainder: float
    quadratic_proxy: float
    k_norm: float


def residual_evolution_monitor(traj, op: LinearOperator | FourierOperator,
                               g1: GridModel) -> list:
    """Nonlinear remainder ||dk/dt - L k|| along a trajectory, k = g - g1.

    Per interior sample the time derivative is a centered difference; the
    quadratic proxy is ||k||_sup ||D^2 k||_sup + ||Dk||_sup^2, the shape of
    the expected remainder bound.  The fitted constant is the max ratio.
    """
    states = traj.states
    if len(states) < 3:
        raise InsufficientDataError("residual monitoring needs at least three samples")
    n = g1.n
    records = []
    for i in range(1, len(states) - 1):
        km = states[i - 1].model.g - g1.g
        k0 = states[i].model.g - g1.g
        kp = states[i + 1].model.g - g1.g
        dt_m = states[i].t - states[i - 1].t
        dt_p = states[i + 1].t - states[i].t
        if not np.isclose(dt_m, dt_p):
            raise RejectedInputError("residual monitoring expects uniform sampling")
        dkdt = (kp - km) / (dt_m + dt_p)
        lk = op.apply(k0)
        rem = geometry.norms(g1, dkdt - lk).l2
        sup_k = float(np.max(np.sqrt(np.sum(k0**2, axis=(-2, -1)))))
        proxy = sup_k * _deriv_sup(g1, k0, 2) + _deriv_sup(g1, k0, 1) ** 2
        records.append(ResidualRecord(t=states[i].t, remainder=float(rem),
                                      quadratic_proxy=float(proxy),
                                      k_norm=float(geometry.norms(g1, k0).l2)))
    return records


def _deriv_sup(m: GridModel, field: np.ndarray, order: int) -> float:
    """Sup of the Frobenius magnitude of coordinate partials of given order."""
    arr = field
    for _ in range(order):
        arr = geometry.partials(m, arr)
    return float(np.max(np.sqrt(np.sum(arr**2, axis=tuple(range(m.n, arr.ndim))))))


def fitted_remainder_constant(records: Sequence[ResidualRecord]) -> float:
    proxies = np.array([r.quadratic_proxy for r in records])
    rems = np.array([r.remainder for r in records])
    usable = proxies > NOISE_FLOOR
    if not np.any(usable):
        return 0.0
    return float(np.max(rems[usable] / proxies[usable]))


@dataclass(frozen=True)
class RateFit:
    amplitude: float
    rate: float
    residual: float
    samples_used: int


def fit_exponential_rate(times: Sequence[float], norms: Sequence[float]) -> RateFit:
    """Least-squares exponential fit ||k(t)|| ~ C e^{-c t} on the tail.

    Uses the last half of the samples above the noise floor; fewer than
    five usable samples raise ``InsufficientDataError``.  Positive ``rate``
    means decay.
    """
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    usable = norms > NOISE_FLOOR
    t, y = times[usable], norms[usable]
    half = len(t) // 2
    t, y = t[half:], y[half:]
    if len(t) < 5:
        raise InsufficientDataError("exponential fit needs at least 5 tail samples above the noise floor")
    A = np.stack([np.ones_like(t), -t], axis=1)
    sol, *_ = np.linalg.lstsq(A, np.log(y), rcond=None)
    logc, rate = sol
    resid = float(np.sqrt(np.mean((A @ sol - np.log(y)) ** 2)))
    return RateFit(amplitude=float(np.exp(logc)), rate=float(rate),
                   residual=resid, samples_used=len(t))

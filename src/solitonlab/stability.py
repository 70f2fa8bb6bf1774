"""Linearized stability machinery: operator assembly, spectra, the
growing/decaying/neutral trichotomy, the two- and three-interval lemmas,
projection onto the flat soliton family, evolution-residual monitoring, and
exponential-rate fitting.

Perturbations of a grid metric are flattened component-major: for each
upper-triangle component (i <= j) the node values are raveled in C order
and the blocks concatenated.  The Euclidean inner product on these vectors
is what the trichotomy split and its orthogonality statements refer to.

At a flat background the grid operators (``assemble_linearized_pde``'s
compact stencil, ``linearize_flow_rhs``'s impulse response of the discrete
flow) are translation invariant and act alike on every component, so they
are ``FourierOperator``s and live in Fourier space only: the eigenvalues are
the per-wavenumber symbol, repeated once per component; ``apply`` and the
trichotomy split (whose neutral part ``F_0`` is the projection onto the
kernel) are FFT multiplies, with no grid-size cap; their ``matrix`` is a
dense view rebuilt from the symbol, kept only for the benchmark's tracer.
Dense ``LinearOperator``s (frame Jacobians, hand-built matrices) are
decomposed by ``eig``/``eigh``; their reports keep the modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import flows, geometry
from .errors import InsufficientDataError, NumericalFailureError, RejectedInputError
from .geometry import FrameModel, GridModel, require_flat, sym_components

NOISE_FLOOR = 1e-12
# central-difference step of ``linearize_flow_rhs``, and the component coupling
# it takes for finite-difference noise (about 1e-11 relative at this step);
# ungauged flows couple at O(1)
FD_STEP = 1e-5
COMPONENT_RTOL = 1e-6


# ---------------------------------------------------------------------------
# operators


@dataclass(frozen=True)
class LinearOperator:
    """Dense matrix acting on vectors: frame Jacobians and hand-built operators."""

    matrix: np.ndarray


def laplacian_symbol(h: GridModel, tau: float) -> np.ndarray:
    """Fourier symbol of the Laplacian h^{ij} d_i d_j plus 1/tau (if finite).

    Shape ``h.dims``, wavenumbers in ``np.fft.fftn`` order.  Per axis the
    compact stencil contributes -h^{aa} 2 (1 - cos theta_a)/dx_a^2 and each
    nested-central mixed pair -2 h^{ab} sin(theta_a) sin(theta_b)/(dx_a dx_b),
    theta_a being the phase advance per node.  Reads the metric at the first
    node.
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


def _fourier_multiply(multiplier: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Multiply the grids on the trailing axes by a real, even Fourier multiplier."""
    axes = tuple(range(-multiplier.ndim, 0))
    return np.fft.ifftn(multiplier * np.fft.fftn(blocks, axes=axes), axes=axes).real


@dataclass(frozen=True)
class FourierOperator:
    """Translation-invariant operator on a flat periodic grid.

    It acts alike on each of the ``ncomp`` symmetric components and is
    diagonal in the discrete Fourier basis: ``symbol`` (shape the grid's
    ``dims``, fftn order) holds its eigenvalue per wavenumber.
    """

    symbol: np.ndarray
    ncomp: int

    @property
    def dim(self) -> int:
        return self.ncomp * self.symbol.size

    def apply(self, field: np.ndarray) -> np.ndarray:
        blocks = np.moveaxis(field, (-2, -1), (0, 1))
        return np.moveaxis(_fourier_multiply(self.symbol, blocks), (0, 1), (-2, -1))

    @property
    def matrix(self) -> np.ndarray:
        """Dense view, built from the symbol on every read.  Nothing in the
        package reads it: it stays only because ``perfbench/tracer.py``
        (``_operator_dim``) reads ``matrix.shape[0]`` after each traced
        ``spectrum``, and goes when the tracer reads ``dim`` (ROADMAP item 5)."""
        import scipy.linalg

        N = self.symbol.size
        units = np.eye(N).reshape((N,) + self.symbol.shape)
        block = _fourier_multiply(self.symbol, units).reshape(N, N).T
        return scipy.linalg.block_diag(*[block] * self.ncomp)


def assemble_linearized_pde(h: GridModel, tau: float) -> FourierOperator:
    """The linearized gauge-fixed flow operator at a flat background.

    At a constant-coefficient background the gauge-fixed linearization has
    no zeroth- or first-order curvature terms, leaving the componentwise
    Laplacian plus the 1/tau dilation term (omitted when tau = inf).  The
    operator is returned through its Fourier symbol; no matrix is formed.
    """
    require_flat(h)
    if np.isfinite(tau) and not tau > 0:
        raise RejectedInputError("tau must be positive or inf")
    return FourierOperator(symbol=laplacian_symbol(h, tau), ncomp=len(sym_components(h.n)))


def jacobian_ode(rhs: Callable, background: FrameModel) -> LinearOperator:
    """Central finite-difference Jacobian of a frame-ODE right-hand side, with
    step 1e-6 relative to each coefficient (absolute below 1)."""
    a0 = np.array(background.a, dtype=float)
    dim = len(a0)
    mat = np.empty((dim, dim))
    for k in range(dim):
        hk = 1e-6 * max(1.0, abs(a0[k]))
        ap, am = a0.copy(), a0.copy()
        ap[k] += hk
        am[k] -= hk
        mat[:, k] = (rhs(background.with_a(ap)) - rhs(background.with_a(am))) / (2.0 * hk)
    return LinearOperator(matrix=mat)


def linearize_flow_rhs(background: GridModel, variant: str, tau: float,
                       reference: Optional[GridModel] = None) -> FourierOperator:
    """Linearization of the discrete flow right-hand side, accurate to about
    1e-11 relative at the step ``FD_STEP``.

    At a flat background it is a convolution: central differences at one
    node per component (2 ncomp RHS evaluations), FFT-ed, give its symbol.
    It reproduces the flow code's own stencils (wide first derivatives
    included), which the evolution-residual monitor needs to see a quadratic
    remainder.  A curved background, or components coupled or unequal beyond
    ``COMPONENT_RTOL`` (the ungauged tau and unnormalized flows), is rejected.
    """
    require_flat(background)
    n = background.n
    comps = sym_components(n)
    rhs = flows.make_metric_rhs(variant, tau, background=reference)
    response = np.empty((len(comps), len(comps)) + background.dims)
    for c, (i, j) in enumerate(comps):
        bump = np.zeros(background.g.shape)
        bump[(0,) * n + (i, j)] = bump[(0,) * n + (j, i)] = FD_STEP
        dv = (rhs(background.with_metric(background.g + bump, validate=False))
              - rhs(background.with_metric(background.g - bump, validate=False))) / (2.0 * FD_STEP)
        response[:, c] = [dv[..., a, b] for (a, b) in comps]
    blocks = np.fft.fftn(response, axes=tuple(range(2, 2 + n)))
    symbol = np.mean(np.diagonal(blocks, axis1=0, axis2=1).real, axis=-1)
    identity = np.eye(len(comps)).reshape((len(comps),) * 2 + (1,) * n)
    mismatch = float(np.max(np.abs(blocks - identity * symbol)))
    if mismatch > COMPONENT_RTOL * max(1.0, float(np.max(np.abs(blocks)))):
        raise RejectedInputError(
            f"the linearized {variant!r} flow couples or distinguishes the metric components "
            f"(symbol mismatch {mismatch:.3g}); it has no componentwise Fourier form")
    return FourierOperator(symbol=symbol, ncomp=len(comps))


# ---------------------------------------------------------------------------
# spectra and the trichotomy


def _labels(values: np.ndarray, eps_neutral: float) -> np.ndarray:
    re = np.real(values)
    return np.where(re > eps_neutral, 1, np.where(re < -eps_neutral, -1, 0))


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: np.ndarray  # sorted by real part, ascending
    eps_neutral: float
    n_grow: int
    n_neutral: int
    n_decay: int
    gap: float
    # a FourierOperator's symbol, or a dense operator's eigenvectors (columns)
    symbol: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    modes: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

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
    """One tenth of the smallest symbol magnitude above 1e-10 for a
    ``FourierOperator``; a norm-based floor for a dense operator."""
    if isinstance(op, FourierOperator):
        mags = np.abs(op.symbol.ravel())
        return float(np.min(mags[mags > 1e-10]) / 10.0)
    return max(float(np.max(np.abs(op.matrix))), 1.0) * 1e-8


def spectrum(op: LinearOperator | FourierOperator, eps_neutral: Optional[float] = None) -> SpectralReport:
    """Eigenvalues with neutral-band classification.

    A ``FourierOperator``'s eigenvalues are its symbol repeated once per
    component; any other operator gets a dense eigendecomposition.
    """
    if eps_neutral is None:
        eps_neutral = default_neutral_tolerance(op)
    symbol = modes = None
    if isinstance(op, FourierOperator):
        symbol = op.symbol
        vals = np.sort(np.repeat(symbol.ravel(), op.ncomp)).astype(complex)
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
        vals, modes = vals[order], vecs[:, order]
    labels = _labels(vals, eps_neutral)
    n_grow = int(np.sum(labels == 1))
    n_decay = int(np.sum(labels == -1))
    n_neutral = len(vals) - n_grow - n_decay
    re = np.real(vals)
    outside = np.abs(re)[np.abs(re) > eps_neutral]
    gap = float(np.min(outside)) if outside.size else np.inf
    return SpectralReport(eigenvalues=vals, eps_neutral=float(eps_neutral),
                          n_grow=n_grow, n_neutral=n_neutral, n_decay=n_decay, gap=gap,
                          symbol=symbol, modes=modes)


def _symbol_mask(report: SpectralReport, want: int, F: np.ndarray) -> np.ndarray:
    """The part of the flattened ``F`` on the wavenumbers labelled ``want``."""
    mask = (_labels(report.symbol, report.eps_neutral) == want).astype(float)
    blocks = np.reshape(F, (-1,) + report.symbol.shape)
    return _fourier_multiply(mask, blocks).ravel()


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
    if report.symbol is not None:
        up, down, zero = (_symbol_mask(report, want, F) for want in (1, -1, 0))
    else:
        coeff = np.linalg.solve(report.modes, F.astype(complex))
        labels = _labels(report.eigenvalues, report.eps_neutral)
        up, down, zero = (np.real(report.modes @ (coeff * (labels == want)))
                          for want in (1, -1, 0))
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


def residual_evolution_monitor(traj, op: FourierOperator,
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

"""Linearized stability machinery: operator assembly, spectra, the two- and
three-interval lemmas, projection onto the flat soliton family, the quadratic
remainder of a run against the RK4 scheme that integrated it,
exponential-rate fitting, and the stage that applies them to a grid run
(``run_verdicts``).

At a flat background the grid operators (``assemble_linearized_pde``'s
compact stencil, ``linearized_deturck_flow``'s wide stencils of the
integrated flow) are translation invariant and act alike on every component,
so they are ``FourierOperator``s and live in Fourier space only: the
eigenvalues are the per-wavenumber symbol, repeated once per component, and
``apply`` is an FFT multiply, with no grid-size cap; their ``matrix`` is a
dense view rebuilt from the symbol, kept only for the benchmark's tracer.
These are the only operators the package analyzes: the limit soliton of a
grid run is flat, so no dense eigendecomposition is ever needed.  The 3x3
frame Jacobian of ``jacobian_ode`` is a plain matrix for numpy.

A ``SpectralReport`` is written as ``to_json``, the text of
``json.dumps(to_document(), indent=2)``, formatting each run of equal
eigenvalues once.  ``spectrum`` raises ``NumericalFailureError`` for a symbol
with a non-finite entry or no magnitude above the neutral floor: it has no gap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import geometry
from .errors import InsufficientDataError, NumericalFailureError, RejectedInputError
from .geometry import FrameModel, GridModel, require_flat, sym_components

NOISE_FLOOR = 1e-12
# the window length L of the interval lemmas: they hold for every L > 0, and
# L = 1 makes alpha = e^{gap} and beta = e^{gap/4}
INTERVAL_LENGTH = 1.0


# ---------------------------------------------------------------------------
# operators


def laplacian_symbol(h: GridModel, tau: float) -> np.ndarray:
    """Fourier symbol of the Laplacian h^{ij} d_i d_j plus 1/tau (if finite).

    Shape ``h.dims``, wavenumbers in ``np.fft.fftn`` order.  Per axis the
    compact stencil contributes -h^{aa} 2 (1 - cos theta_a)/dx_a^2 and each
    nested-central mixed pair -2 h^{ab} sin(theta_a) sin(theta_b)/(dx_a dx_b),
    theta_a being the phase advance per node.  Reads the metric at the first
    node.  Each term is formed on its axes' wavenumbers and broadcast into
    the grid: each element sees the operations it would on full grid planes.
    """
    n = h.n
    hinv = np.linalg.inv(h.g.reshape(-1, n, n)[0])
    # theta[a] varies along axis a alone: shape 1 on every other axis
    theta = [(2.0 * np.pi * np.fft.fftfreq(d)).reshape([-1 if b == a else 1 for b in range(n)])
             for a, d in enumerate(h.dims)]
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
        N = self.symbol.size
        units = np.eye(N).reshape((N,) + self.symbol.shape)
        block = _fourier_multiply(self.symbol, units).reshape(N, N).T
        out = np.zeros((self.ncomp * N, self.ncomp * N))
        for c in range(self.ncomp):
            out[c * N:(c + 1) * N, c * N:(c + 1) * N] = block
        return out


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


def jacobian_ode(rhs: Callable, background: FrameModel) -> np.ndarray:
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
    return mat


def linearized_deturck_flow(g1: GridModel) -> FourierOperator:
    """The DeTurck flow's right-hand side at tau = inf, linearized at the flat
    ``g1`` against a flat reference, exactly.

    At a constant metric the Christoffel symbols and every difference of the
    metric vanish, and so do those of the flat reference, which therefore
    drops out.  What is left is linear in the perturbation k, each term two
    of the flow code's wide central differences D_a D_b with constant
    coefficients.  Those stencils commute, so the continuum cancellation of
    the cross terms of -2 Ric and L_V g holds node for node, leaving
    g1^{ab} D_a D_b k_ij on each component.  D_a multiplies a Fourier mode by
    i sin(theta_a)/dx_a, theta_a being the phase advance per node: the symbol
    is -g1^{ab} sin(theta_a) sin(theta_b)/(dx_a dx_b).  ``rk4_remainder``
    steps a run's deviation by it, so it leaves the quadratic remainder
    alone; the compact symbol would leave an O(|k|) mismatch.
    """
    require_flat(g1)
    n = g1.n
    ginv = np.linalg.inv(g1.g.reshape(-1, n, n)[0])
    sines = geometry.d1_symbol(g1)
    symbol = -sum(ginv[a, b] * sines[a] * sines[b] for a in range(n) for b in range(n))
    return FourierOperator(symbol=symbol, ncomp=len(sym_components(n)))


# ---------------------------------------------------------------------------
# spectra


def _labels(values: np.ndarray, eps_neutral: float) -> np.ndarray:
    return np.where(values > eps_neutral, 1, np.where(values < -eps_neutral, -1, 0))


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: np.ndarray  # real, ascending
    eps_neutral: float
    n_grow: int
    n_neutral: int
    n_decay: int
    gap: float

    def to_document(self, eigenvalues: bool = True) -> dict:
        """JSON-ready report; ``eigenvalues=False`` leaves its eigenvalue list empty."""
        return {
            "eigenvalues_re": self.eigenvalues.tolist() if eigenvalues else [],
            "eps_neutral": self.eps_neutral,
            "counts": {"grow": self.n_grow, "neutral": self.n_neutral,
                       "decay": self.n_decay},
            "gap": self.gap,
            "convention": "forward-time: Re(lambda) > 0 grows under e^{Lt}",
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_document(), indent=2)``, byte for byte, with
        each run of equal bit patterns formatted once: the symbol is repeated
        once per component and even in the wavenumber, and the eigenvalues
        are sorted, so a 32^2 report holds 3,072 eigenvalues in at most 289
        runs.  Any order gives the same bytes; sorted, it is the fewest runs."""
        doc = self.to_document(eigenvalues=False)
        bits = self.eigenvalues.view(np.int64)
        starts = np.flatnonzero(np.diff(bits)) + 1  # where a run of equal bits begins
        if bits.size:
            starts = np.concatenate(([0], starts))
        items = []
        for x, length in zip(self.eigenvalues[starts].tolist(),
                             np.diff(starts, append=bits.size).tolist()):
            items += [_json_float(x)] * length
        listed = "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"
        return json.dumps(doc, indent=2).replace('"eigenvalues_re": []',
                                                 '"eigenvalues_re": ' + listed, 1)


def _json_float(x: float) -> str:
    """``x`` as ``json`` writes a float (``allow_nan``: NaN, Infinity, -Infinity)."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def default_neutral_tolerance(op: FourierOperator) -> float:
    """One tenth of the smallest symbol magnitude above 1e-10; a symbol with
    none above it (a grid step so long that every mode is neutral) raises
    ``NumericalFailureError``."""
    mags = np.abs(op.symbol.ravel())
    mags = mags[mags > 1e-10]
    if not mags.size:
        raise NumericalFailureError("spectrum: no symbol magnitude lies above 1e-10, "
                                    "so the spectrum has no gap")
    return float(np.min(mags) / 10.0)


def spectrum(op: FourierOperator) -> SpectralReport:
    """Eigenvalues with neutral-band classification at
    ``default_neutral_tolerance``: the symbol repeated once per component,
    sorted.  A non-finite symbol entry (a grid step so short that 1/h^2
    overflows) raises ``NumericalFailureError``."""
    if not np.all(np.isfinite(op.symbol)):
        raise NumericalFailureError("spectrum: the operator's symbol has a non-finite entry")
    eps_neutral = default_neutral_tolerance(op)
    vals = np.sort(np.repeat(op.symbol.ravel(), op.ncomp))
    labels = _labels(vals, eps_neutral)
    n_grow = int(np.sum(labels == 1))
    n_decay = int(np.sum(labels == -1))
    n_neutral = len(vals) - n_grow - n_decay
    gap = float(np.min(np.abs(vals)[np.abs(vals) > eps_neutral]))
    return SpectralReport(eigenvalues=vals, eps_neutral=float(eps_neutral),
                          n_grow=n_grow, n_neutral=n_neutral, n_decay=n_decay, gap=gap)


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
# the quadratic remainder, rate fitting, and the stability stage

# the smallest ||k_i|| whose step enters ``rk4_remainder``: below it the
# remainder is rounding, and dividing by ||k_i||^2 amplifies it
REMAINDER_FLOOR = 1e-6


def rk4_remainder(traj, norms: Sequence[float], g1: GridModel, h: GridModel,
                  dt: float) -> tuple:
    """Quadratic remainder of a DeTurck tau = inf trajectory at its limit ``g1``.

    The discrete flow linearized at ``g1`` (``linearized_deturck_flow``) has
    symbol lambda; one RK4 step of the linear flow multiplies each Fourier
    mode by R(dt lambda), R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, so between
    samples m = Delta t / dt steps apart it is R^m.  With k_i = g(t_i) - g1
    and ``norms[i]`` its L2 norm in ``h``, the ratio
    ||k_{i+1} - R^m k_i|| / ||k_i||^2 measures the remainder's constant over
    that interval.  Returns the largest ratio over
    the samples with ||k_i|| above ``REMAINDER_FLOOR``, and the ratio at the
    last of them, or (None, None) when no sample is above it.  A step that
    ``flows.run_flow`` halved was not R(dt lambda), so its interval is inexact.
    """
    op = linearized_deturck_flow(g1)
    z = dt * op.symbol
    amplification = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
    states, ratios = traj.states, []
    for i in range(len(states) - 1):
        if norms[i] <= REMAINDER_FLOOR:
            continue
        m = round((states[i + 1].t - states[i].t) / dt)
        linear = FourierOperator(symbol=amplification**m, ncomp=op.ncomp)
        k0, k1 = states[i].model.g - g1.g, states[i + 1].model.g - g1.g
        ratios.append(geometry.norms(h, k1 - linear.apply(k0)).l2 / norms[i] ** 2)
    return (max(ratios), ratios[-1]) if ratios else (None, None)


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


def run_verdicts(traj, h: GridModel, gap: float, dt: float, t_end: float,
                 verdicts: dict) -> None:
    """The stability stage of a grid run from the flat ``h`` at step ``dt``:
    distance of ``traj`` to the flat soliton family, the interval lemmas, its
    decay rate against ``gap`` (of the spectrum at ``h``) with the fit's
    residual and sample count, and the quadratic remainder of a DeTurck
    tau = inf run (``rk4_remainder``; null for other flows, which it reads
    off ``traj``).

    A run whose ``t_end`` reaches 3L (L = ``INTERVAL_LENGTH``) gets the
    three-interval dichotomy over [0, L], [L, 2L], [2L, 3L] at
    beta = e^{L gap / 4} and the two-interval lemma (``"growth"``, ``"decay"``
    or ``"neither"`` at delta = the gap) over the first two windows; both are
    null when a window holds no sample.  A sample belongs to the windows that
    hold its step index, so one at L or 2L ends one window and starts the
    next.  Each verdict goes into ``verdicts`` as soon as it is known, so a
    failure keeps those before it."""
    final = traj.states[-1].model
    fam = nearest_soliton_in_family(final, h)
    verdicts["factor_two_holds"] = fam.factor_two_holds
    verdicts["distance_to_family"] = float(np.max(np.abs(final.g - fam.g1.g)))

    times = traj.times
    norms = [geometry.norms(h, s.model.g - fam.g1.g).l2 for s in traj.states]
    verdicts["final_norm"] = norms[-1]
    if float(np.max(norms)) < NOISE_FLOOR:
        verdicts["stationary"] = True
        return
    verdicts["stationary"] = False
    L = INTERVAL_LENGTH
    if t_end >= 3.0 * L:
        beta = float(np.exp(L * gap / 4.0))
        # windows by step index, not by the float sum of the steps, which can
        # put a shared sample at t = L or 2L past the end of the earlier window;
        # a window end that is a whole number of steps to 1e-9 includes it
        steps = np.rint(times / dt)
        per_window = L / dt
        windows = [[nv for k, nv in zip(steps, norms)
                    if (i - 1e-9) * per_window <= k <= (i + 1 + 1e-9) * per_window]
                   for i in range(3)]
        if all(windows):
            verdicts["three_interval"] = three_interval_test(*windows, beta)
            lemma = growth_decay_check(windows[0], windows[1], gap, L)
            verdicts["two_interval"] = ("growth" if lemma.growth_holds
                                        else "decay" if lemma.decay_holds else "neither")
        else:  # a window falls between two samples
            verdicts["three_interval"] = verdicts["two_interval"] = None
    try:
        fit = fit_exponential_rate(times, norms)
        verdicts["rate"] = fit.rate
        verdicts["rate_fit_residual"] = fit.residual
        verdicts["rate_fit_samples"] = fit.samples_used
        verdicts["rate_gap_relative_deviation"] = abs(fit.rate - gap) / gap
    except InsufficientDataError:
        verdicts["rate"] = None
    remainder = (None, None)
    if traj.convention == "deturck" and np.isinf(traj.tau):
        remainder = rk4_remainder(traj, norms, fam.g1, h, dt)
    verdicts["remainder_constant"], verdicts["remainder_ratio_last"] = remainder

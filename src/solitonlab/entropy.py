"""The entropy functional, its constrained minimization, and the monotonicity audit.

The functional

    W(g, f, tau) = (4 pi tau)^{-n/2} int e^{-f} [tau(|grad f|^2 + R) + f - n] dV

is evaluated under the constraint ``(4 pi tau)^{-n/2} int e^{-f} dV = 1``.
Its infimum over admissible potentials (the mu-invariant) is found by
L-BFGS on grids and by a ground-state iteration for polar profiles; along a
coupled flow the numeric derivative of W is audited against the weighted
square of the soliton-defect tensor ``Ric + Hess f - g / (2 tau)``.

The polar-profile starts of ``minimize_mu_multistart`` run together, each
whole on a thread of its own (the first on the calling thread); their
tridiagonal eigensolves (``lapack.lowest_eigenpair``) release the GIL, so
they overlap.  A start's result has the bits of its solve run alone.

Potentials come in three shapes: a float (constant potential on a frame
model), a 1-d array (a polar-angle profile on a round frame model, used to
resolve the concentration regime at small tau), or a grid scalar field.
Each shape has one W: ``w_functional`` sums the same terms that the mu
solver of that shape minimizes (``_grid_terms``, ``_radial_w``).

The grid terms read the model's component-major fields (see ``geometry``)
and add their products in the order einsum adds them over node-major
operands, so they have the bits of their einsum spellings.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import NonConvergenceError, NumericalFailureError, RejectedInputError
from .geometry import FrameModel, GridModel

CONSTRAINT_TOL = 1e-8
GRAD_TOL = 1e-8
MAX_ITER = 100_000
RADIAL_MAX_ITER = 1000  # the radial solve lowers any larger max_iter to this
_TINY = 1e-150  # floor of v = e^{-f/2} in the radial solve


@dataclass(frozen=True)
class EntropyRecord:
    """Per-sample entropy audit values."""

    t: float
    W: float
    defect_l2: float
    dWdt_numeric: float = np.nan
    dWdt_formula: float = np.nan
    monotone: bool = True


@dataclass(frozen=True)
class MuResult:
    """Outcome of a mu-invariant minimization."""

    f: object
    mu: float
    iterations: int
    grad_norm: float


# ---------------------------------------------------------------------------
# potential shapes


def _is_radial(model, f) -> bool:
    return isinstance(model, FrameModel) and isinstance(f, np.ndarray) and f.ndim == 1


def _require_round(model: FrameModel) -> float:
    """Radius of a round frame sphere; rejects anisotropic coefficients."""
    if not (np.allclose(model.lams, 2.0) and np.allclose(model.a, model.a[0])):
        raise RejectedInputError("polar-profile potentials need a round sphere frame model")
    return float(np.sqrt(model.a[0]))


class _RadialQuadrature:
    """Cell-centered polar-angle quadrature on a round 3-sphere of radius r.

    Nodes theta_i = (i + 1/2) dtheta on (0, pi); weights 4 pi r^3 sin^2 theta
    dtheta sum to the sphere volume 2 pi^2 r^3.  The gradient energy is
    written through v = e^{-f/2} (so u |grad f|^2 = 4 |grad v|^2) and lives
    on the interior cell faces: the staggered scheme couples every neighbor
    pair, so the quadrature admits no checkerboard null mode that a
    minimizer could exploit (a centered difference does, and drives W to
    -inf), and it is quadratic in v, which the mu solver relies on.
    """

    def __init__(self, r: float, n_theta: int):
        self.r = r
        self.dtheta = np.pi / n_theta
        self.theta = (np.arange(n_theta) + 0.5) * self.dtheta
        self.w = 4.0 * np.pi * r**3 * np.sin(self.theta) ** 2 * self.dtheta
        theta_face = np.arange(1, n_theta) * self.dtheta
        self.w_face = 4.0 * np.pi * r**3 * np.sin(theta_face) ** 2 * self.dtheta

    def face_slope(self, v: np.ndarray) -> np.ndarray:
        """dv/ds at interior faces, s = r theta the arclength from the pole."""
        return (v[1:] - v[:-1]) / (self.r * self.dtheta)


def _radial_w(quad: _RadialQuadrature, v: np.ndarray, R: float, tau: float, n: int) -> float:
    """W of the polar profile v = e^{-f/2}: the face energies 4 w_face (dv/ds)^2
    (pole faces carry zero flux), and -v^2 log v^2 for u f at the nodes."""
    c = _heat_factor(tau, n)
    w, wf = quad.w, quad.w_face
    vsq = v**2
    ent = np.where(vsq > 0.0, vsq * np.log(np.maximum(vsq, _TINY**2)), 0.0)
    kin = 4.0 * np.sum(wf * quad.face_slope(v) ** 2)
    return float(c * (tau * (kin + np.sum(w * vsq * R)) - np.sum(w * (n * vsq + ent))))


def _heat_factor(tau: float, n: int) -> float:
    """(4 pi tau)^{-n/2}; ``NumericalFailureError`` where it overflows (n = 3, tau < 1e-206)."""
    try:
        return float(4.0 * np.pi * tau) ** (-n / 2.0)
    except OverflowError:
        raise NumericalFailureError(f"(4 pi tau)^(-{n}/2) overflows at tau = {tau!r}") from None


def _weights(model, f):
    """Per-node volume weights w and potential values of the quadrature."""
    if isinstance(model, GridModel):
        return model.sqrt_det * np.prod(model.spacings), np.asarray(f, dtype=float)
    if _is_radial(model, f):
        return _RadialQuadrature(_require_round(model), len(f)).w, f
    # constant potential on a homogeneous model
    return np.array([geometry.volume(model)]), np.array([float(f)])


def _grid_terms(model: GridModel, f, tau: float):
    """W = sum c u w A of a grid potential, with its per-node factors c,
    u = e^{-f}, the weights w, A = tau (|grad f|^2 + R) + f - n, and the
    partials of f, component-major."""
    c = _heat_factor(tau, model.n)
    w, _ = _weights(model, f)
    df = geometry.partials(model, f)
    gsq = geometry.pointwise_sq(model, df)
    R = geometry.scalar_curvature(model)
    u = np.exp(-f)
    A = tau * (gsq + R) + f - model.n
    return float(np.sum(c * u * w * A)), c, u, w, A, df


def _mass(model, f, tau: float) -> float:
    """(4 pi tau)^{-n/2} int e^{-f} dV."""
    w, fv = _weights(model, f)
    return _heat_factor(tau, model.n) * np.sum(np.exp(-fv) * w)


# ---------------------------------------------------------------------------
# constraint and functional


def constant_potential(model, tau: float):
    """The constant potential f = log Vol(g) - (n/2) log(4 pi tau) satisfying
    the normalization constraint; ``NumericalFailureError`` where Vol, e^{-f}
    or e^{-f} Vol = (4 pi tau)^{n/2} overflows (at a volume of 0 too)."""
    n = model.n
    vol = geometry.volume(model)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # named below
        c = float(np.log(vol) - 0.5 * n * np.log(4.0 * np.pi * tau))
        weight = float(np.exp(-c))
        mass = weight * vol
    if not np.isfinite(mass):
        raise NumericalFailureError(f"e^(-f) Vol, which the constraint sets to (4 pi tau)^({n}/2), "
                                    f"is not finite: Vol = {vol!r}, e^(-f) = {weight!r}, "
                                    f"tau = {tau!r}")
    if isinstance(model, GridModel):
        return np.full(model.dims, c)
    return c


def constraint_residual(model, f, tau: float) -> float:
    """|(4 pi tau)^{-n/2} int e^{-f} dV - 1|."""
    return float(abs(_mass(model, f, tau) - 1.0))


def normalize_f(model, f, tau: float):
    """Shift f by the unique constant that restores the constraint."""
    shift = float(np.log(_mass(model, f, tau)))
    if isinstance(f, np.ndarray):
        return f + shift
    return float(f) + shift


def w_functional(model, f, tau: float) -> float:
    """Midpoint-quadrature value of the entropy functional.

    Rejects potentials whose constraint residual exceeds ``CONSTRAINT_TOL``.
    """
    if not constraint_residual(model, f, tau) <= CONSTRAINT_TOL:  # a NaN residual too
        raise RejectedInputError("potential violates the normalization constraint")
    return _w_value(model, f, tau)


def _w_value(model, f, tau: float) -> float:
    """W of a grid potential, a polar profile or a constant, by the sums that
    the mu solvers minimize."""
    if isinstance(model, GridModel):
        return _grid_terms(model, f, tau)[0]
    R = geometry.scalar_curvature(model)
    if _is_radial(model, f):
        quad = _RadialQuadrature(_require_round(model), len(f))
        return _radial_w(quad, np.exp(-0.5 * f), R, tau, model.n)
    # constant potential on a homogeneous model
    n = model.n
    w, fv = _weights(model, f)
    return float(_heat_factor(tau, n) * np.sum(np.exp(-fv) * w * (tau * R + fv - n)))


# ---------------------------------------------------------------------------
# soliton defect


def soliton_defect(model, f, tau: float):
    """The tensor Ric + Hess f - g / (2 tau).

    Zero defect characterizes the gradient solitons of the fixed-tau flow.
    Frame models return lowered diagonal coefficients (constant potential
    only); grids return a symmetric tensor field.
    """
    if isinstance(model, FrameModel):
        return model.ric - model.a / (2.0 * tau)
    hess = geometry.hessian(model, f)
    hess -= geometry.connection_term(model, geometry.partials(model, f))
    return geometry.node_major(model.ric_cm + hess - model.g_cm / (2.0 * tau), 2)


def weighted_defect_sq(model, f, tau: float) -> float:
    """int |Ric + Hess f - g/(2 tau)|^2 dm with dm the constrained measure."""
    if isinstance(model, FrameModel) and isinstance(f, np.ndarray):
        raise RejectedInputError("defect on a frame model needs a constant potential")
    d = soliton_defect(model, f, tau)
    w, fv = _weights(model, f)
    c = _heat_factor(tau, model.n)
    if isinstance(model, FrameModel):
        mag_sq = float(np.sum((d / model.a) ** 2))
        return float(mag_sq * c * np.sum(np.exp(-fv) * w))
    mag_sq = geometry.pointwise_sq(model, geometry.component_major(d, 2))
    return float(np.sum(c * np.exp(-fv) * w * mag_sq))


def defect_l2(model, f, tau: float) -> float:
    return float(np.sqrt(weighted_defect_sq(model, f, tau)))


def entropy_record(model, tau: float, t: float) -> EntropyRecord:
    """W and defect of the flow state ``model`` at time ``t`` with its coupled
    potential, ``constant_potential(model, tau)``; a potential or value that
    is not finite (an overflowed volume, factor or defect) raises
    ``NumericalFailureError`` naming t."""
    try:
        f = constant_potential(model, tau)
        with np.errstate(over="ignore"):  # an overflowed W or defect is named below
            W = w_functional(model, f, tau)
            defect = defect_l2(model, f, tau)
        if not (np.isfinite(W) and np.isfinite(defect)):
            raise NumericalFailureError(f"W={W}, defect_l2={defect}")
    except NumericalFailureError as exc:
        raise NumericalFailureError(f"non-finite entropy audit at t={t:.6g}: {exc}") from exc
    return EntropyRecord(t=t, W=W, defect_l2=defect)


# ---------------------------------------------------------------------------
# monotonicity audit


def monotonicity_report(traj) -> list:
    """Audit the entropy derivative along a coupled-flow trajectory.

    Reads the W and ``defect_l2`` that ``flows.run_flow`` records for every
    sample of a coupled run (``diagnostics[i]["entropy"]``, see
    ``entropy_record``) and evaluates nothing again.  Per sample: W, the
    centered-difference dW/dt, and the closed-form derivative
    ``2 tau int |defect|^2 dm = 2 tau defect_l2^2``.  ``monotone`` flags any
    sample where the numeric derivative dips below -1e-10.  A trajectory
    without those records is rejected.
    """
    states = traj.states
    if any("entropy" not in d for d in traj.diagnostics):
        raise RejectedInputError("monotonicity audit requires the per-sample entropy records "
                                 "that a coupled run_flow writes into the diagnostics")
    times = traj.times
    W = np.array([d["entropy"]["W"] for d in traj.diagnostics])
    defects = [d["entropy"]["defect_l2"] for d in traj.diagnostics]
    records = []
    for i, defect in enumerate(defects):
        if 0 < i < len(states) - 1:
            numeric = (W[i + 1] - W[i - 1]) / (times[i + 1] - times[i - 1])
        elif i == 0 and len(states) > 1:
            numeric = (W[1] - W[0]) / (times[1] - times[0])
        elif i == len(states) - 1 and len(states) > 1:
            numeric = (W[-1] - W[-2]) / (times[-1] - times[-2])
        else:
            numeric = np.nan
        records.append(EntropyRecord(
            t=float(times[i]), W=float(W[i]), defect_l2=float(defect),
            dWdt_numeric=float(numeric), dWdt_formula=float(2.0 * traj.tau * defect**2),
            monotone=bool(numeric >= -1e-10)))
    return records


# ---------------------------------------------------------------------------
# mu-invariant minimization


def _w_and_grad(model: GridModel, f, tau):
    """Entropy value and its exact discrete gradient dW/df per grid node."""
    W, c, u, w, A, df = _grid_terms(model, f, tau)
    grad = c * u * w * (1.0 - A)
    # adjoint of the periodic central difference is its negative
    # g^{ij} d_j f: bitwise einsum("...ij,...j->...i")
    gdf = geometry.lane_sum([model.ginv_cm[:, j] * df[j] for j in range(model.n)])
    s = 2.0 * tau * c * (u * w) * gdf
    for l in range(model.n):
        grad -= geometry.d1(s[l], axis=l, h=model.spacings[l])
    return W, grad


def _minimize_mu_radial(model, tau: float, f0: np.ndarray, grad_tol: float,
                        max_iter: int):
    """Ground-state solve of the radial entropy minimization.

    In the substitution v = e^{-f/2} the functional is quadratic in v except
    for the -v^2 log v^2 term, and the critical-point equation is a
    Schroedinger eigenproblem H v = lambda v with the log term frozen into
    the potential.  Damped self-consistent iteration on tridiagonal
    eigensolves converges where descent on f is hopelessly ill conditioned.
    At the fixed point W = lambda + 1 (multiplier of the unit-mass
    constraint), which doubles as an internal consistency check.
    """
    from . import lapack

    r = _require_round(model)
    quad = _RadialQuadrature(r, len(f0))
    nn, c = model.n, _heat_factor(tau, model.n)
    R = geometry.scalar_curvature(model)
    w, wf, ds = quad.w, quad.w_face, r * quad.dtheta
    # face weights padded with the zero-flux pole faces
    wl = np.concatenate([[0.0], wf])
    wr = np.concatenate([wf, [0.0]])

    def normalize(v):
        return v / np.sqrt(c * np.sum(w * v**2))

    def potential(v):
        return tau * R - nn - 1.0 - 2.0 * np.log(np.maximum(v, _TINY))

    def apply_h(v, V):
        av = (wl * np.concatenate([[0.0], v[1:] - v[:-1]])
              - wr * np.concatenate([v[1:] - v[:-1], [0.0]])) / ds**2
        return 4.0 * tau * av / w + V * v

    v = normalize(np.maximum(np.exp(-0.5 * np.asarray(f0, dtype=float)), _TINY))
    beta, W_prev = 0.5, np.inf
    for it in range(1, max_iter + 1):
        V = potential(v)
        diag = 4.0 * tau * (wl + wr) / (ds**2 * w) + V
        off = -4.0 * tau * wf / (ds**2 * np.sqrt(w[:-1] * w[1:]))
        lam, y = lapack.lowest_eigenpair(diag, off)
        psi = normalize(np.abs(y[:, 0]) / np.sqrt(w))
        v_new = normalize((1.0 - beta) * v + beta * psi)
        W = _radial_w(quad, v_new, R, tau, nn)
        if W > W_prev + 1e-14:
            beta = max(0.25 * beta, 1e-3)
        v, W_prev = v_new, W
        hv = apply_h(v, potential(v))
        lam_r = c * np.sum(w * v * hv)
        res = hv - lam_r * v
        gnorm = float(np.sqrt(c * np.sum(w * res**2)))
        if gnorm < grad_tol:
            f = normalize_f(model, -2.0 * np.log(np.maximum(v, _TINY)), tau)
            return MuResult(f=f, mu=W, iterations=it, grad_norm=gnorm)
    f = normalize_f(model, -2.0 * np.log(np.maximum(v, _TINY)), tau)
    raise NonConvergenceError(
        f"radial mu solve stalled at residual {gnorm:.3e}",
        last_iterate=MuResult(f=f, mu=W, iterations=max_iter, grad_norm=gnorm))


def _projected_grad_norm(f, w_nodes, grad):
    """Weighted L2 norm of the constraint-tangent functional gradient."""
    u = np.exp(-f)
    gamma = grad / w_nodes
    proj = np.sum(gamma * u * w_nodes) / np.sum(u * u * w_nodes)
    gamma = gamma - proj * u
    return float(np.sqrt(np.sum(gamma**2 * w_nodes)))


def minimize_mu(model, tau: float, f0=None, grad_tol: float = GRAD_TOL,
                max_iter: int = MAX_ITER) -> MuResult:
    """Quasi-Newton minimization of the entropy over constrained potentials.

    The normalization constraint is eliminated by renormalizing inside the
    objective, which makes it shift-invariant; L-BFGS-B then runs on the
    free potential with the exact chain-rule gradient.  Convergence means
    the projected L2 gradient norm drops below ``grad_tol``; failure raises
    ``NonConvergenceError`` carrying the last iterate.  ``max_iter`` caps a
    grid solve; the radial solve of a polar-profile start caps it at
    ``RADIAL_MAX_ITER``.

    A constant start on a homogeneous frame model is a symmetric critical
    point and is returned immediately with mu = W(const).
    """
    from scipy.optimize import minimize as _scipy_minimize

    if f0 is None:
        f0 = constant_potential(model, tau)
    if isinstance(model, FrameModel) and not isinstance(f0, np.ndarray):
        f = normalize_f(model, float(f0), tau)
        return MuResult(f=f, mu=_w_value(model, f, tau), iterations=0, grad_norm=0.0)
    if _is_radial(model, f0):
        return _radial_mu(model, tau, [f0], grad_tol, max_iter)[0]
    if isinstance(model, FrameModel):
        raise RejectedInputError("a frame model takes a constant potential or a "
                                 "1-d polar profile")

    f = normalize_f(model, np.asarray(f0, dtype=float), tau)
    shape = f.shape
    w_nodes, _ = _weights(model, f)
    c = _heat_factor(tau, model.n)

    def objective(ft):
        # line-search probes may overflow e^{-f}; the renormalization recovers
        with np.errstate(over="ignore", invalid="ignore"):
            fn = normalize_f(model, ft.reshape(shape), tau)
            W, grad = _w_and_grad(model, fn, tau)
            # chain rule through the renormalization shift; dm sums to one
            dm = c * np.exp(-fn) * w_nodes
            g = grad - np.sum(grad) * dm
        return W, g.ravel()

    x = f.ravel()
    iters = 0
    for _ in range(4):  # cold restarts recover when the memory goes stale
        res = _scipy_minimize(objective, x, jac=True, method="L-BFGS-B",
                              options={"maxiter": max_iter, "maxfun": 10 * max_iter,
                                       "ftol": 1e-18, "gtol": 1e-14})
        x = res.x
        iters += int(res.nit)
        f = normalize_f(model, x.reshape(shape), tau)
        W, grad = _w_and_grad(model, f, tau)
        gnorm = _projected_grad_norm(f, w_nodes, grad)
        if gnorm < grad_tol:
            break
    result = MuResult(f=f, mu=W, iterations=iters, grad_norm=gnorm)
    if gnorm >= grad_tol:
        raise NonConvergenceError(
            f"mu minimization stalled at |grad| = {gnorm:.3e}", last_iterate=result)
    return result


def _radial_mu(model, tau: float, starts: list, grad_tol: float, max_iter: int) -> list:
    """The radial solves from ``starts``, in order: the first on this thread,
    each other one whole on a worker thread in a copy of this thread's
    context, so its numpy error state holds there.  Every result has the
    bits of its solve run alone.  Once every start has ended, the failure of
    the lowest-indexed one that failed is raised, as running them one after
    the other would raise it; no worker outlives the call."""
    from concurrent.futures import ThreadPoolExecutor  # lazily: it loads logging

    def solve(f0):
        return _minimize_mu_radial(model, tau, f0, grad_tol, min(max_iter, RADIAL_MAX_ITER))

    with ThreadPoolExecutor(max_workers=max(len(starts) - 1, 1)) as pool:
        rest = [pool.submit(contextvars.copy_context().run, solve, f0) for f0 in starts[1:]]
        first = solve(starts[0])
    return [first] + [future.result() for future in rest]


def minimize_mu_multistart(model, tau: float, starts) -> list:
    """Run ``minimize_mu`` from several starts; returns all results.

    Polar-profile starts run together, one thread each (``_radial_mu``), to
    ``RADIAL_MAX_ITER`` iterations, and a failing one raises once all have
    ended, the first failing start's error; other starts run one after the
    other on the calling thread, to ``MAX_ITER``.
    """
    starts = list(starts)
    if starts and all(_is_radial(model, f0) for f0 in starts):
        return _radial_mu(model, tau, starts, GRAD_TOL, MAX_ITER)
    return [minimize_mu(model, tau, f0=f0) for f0 in starts]

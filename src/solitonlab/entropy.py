"""The entropy functional, its constrained minimization, and the monotonicity audit.

The functional

    W(g, f, tau) = (4 pi tau)^{-n/2} int e^{-f} [tau(|grad f|^2 + R) + f - n] dV

is evaluated under the constraint ``(4 pi tau)^{-n/2} int e^{-f} dV = 1``.
Its infimum over admissible potentials (the mu-invariant) is found by
projected gradient descent; along a coupled flow the numeric derivative of W
is audited against the weighted square of the soliton-defect tensor
``Ric + Hess f - g / (2 tau)``.

Potentials come in three shapes: a float (constant potential on a frame
model), a 1-d array (a polar-angle profile on a round frame model, used to
resolve the concentration regime at small tau), or a grid scalar field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import NonConvergenceError, RejectedInputError
from .geometry import FrameModel, GridModel

CONSTRAINT_TOL = 1e-8
GRAD_TOL = 1e-8
MAX_ITER = 100_000


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

    def kinetic(self, f: np.ndarray) -> np.ndarray:
        """Node shares of the face quadrature of int u |grad f|^2 dV.

        Each interior face energy 4 w_face (dv/ds)^2 is split evenly between
        its two cells; pole faces carry zero weight (zero flux).
        """
        q = 4.0 * self.w_face * self.face_slope(np.exp(-0.5 * f)) ** 2
        acc = np.zeros_like(f)
        acc[:-1] += q
        acc[1:] += q
        return 0.5 * acc


def _weights(model, f):
    """Per-node volume weights w and potential values of the quadrature."""
    if isinstance(model, GridModel):
        return model.sqrt_det * np.prod(model.spacings), np.asarray(f, dtype=float)
    if _is_radial(model, f):
        return _RadialQuadrature(_require_round(model), len(f)).w, f
    # constant potential on a homogeneous model
    return np.array([geometry.volume(model)]), np.array([float(f)])


def _grad_sq(model: GridModel, f):
    """Partials of a grid potential and |grad f|^2 per node."""
    df = geometry.partials(model, f)
    return df, np.einsum("...ij,...i,...j->...", model.ginv, df, df)


def _quadrature_terms(model, f):
    """Per-node weights w, potential values, kinetic term u w |grad f|^2, R."""
    w, fv = _weights(model, f)
    R = geometry.scalar_curvature(model)
    if isinstance(model, GridModel):
        return w, fv, np.exp(-f) * w * _grad_sq(model, f)[1], R
    if _is_radial(model, f):
        kin = _RadialQuadrature(_require_round(model), len(f)).kinetic(f)
        return w, fv, kin, np.full_like(f, R)
    return w, fv, np.array([0.0]), np.array([R])


def _mass(model, f, tau: float) -> float:
    """(4 pi tau)^{-n/2} int e^{-f} dV."""
    w, fv = _weights(model, f)
    return (4.0 * np.pi * tau) ** (-model.n / 2.0) * np.sum(np.exp(-fv) * w)


# ---------------------------------------------------------------------------
# constraint and functional


def constant_potential(model, tau: float):
    """The constant potential satisfying the normalization constraint."""
    n = model.n
    c = float(np.log(geometry.volume(model)) - 0.5 * n * np.log(4.0 * np.pi * tau))
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
    if constraint_residual(model, f, tau) > CONSTRAINT_TOL:
        raise RejectedInputError("potential violates the normalization constraint")
    return _w_value(model, f, tau)


def _w_value(model, f, tau: float) -> float:
    n = model.n
    w, fv, kin, R = _quadrature_terms(model, f)
    u = np.exp(-fv)
    c = (4.0 * np.pi * tau) ** (-n / 2.0)
    return float(c * np.sum(tau * kin + u * w * (tau * R + fv - n)))


# ---------------------------------------------------------------------------
# soliton defect


def soliton_defect(model, f, tau: float):
    """The tensor Ric + Hess f - g / (2 tau).

    Zero defect characterizes the gradient solitons of the fixed-tau flow.
    Frame models return lowered diagonal coefficients (constant potential
    only); grids return a symmetric tensor field.
    """
    if isinstance(model, FrameModel):
        return geometry.ricci(model) - model.a / (2.0 * tau)
    df = geometry.partials(model, f)
    hess = geometry.hessian(model, f) - np.einsum("...kij,...k->...ij", model.gamma, df)
    return geometry.ricci(model) + hess - model.g / (2.0 * tau)


def weighted_defect_sq(model, f, tau: float) -> float:
    """int |Ric + Hess f - g/(2 tau)|^2 dm with dm the constrained measure."""
    if isinstance(model, FrameModel) and isinstance(f, np.ndarray):
        raise RejectedInputError("defect on a frame model needs a constant potential")
    d = soliton_defect(model, f, tau)
    w, fv = _weights(model, f)
    c = (4.0 * np.pi * tau) ** (-model.n / 2.0)
    if isinstance(model, FrameModel):
        mag_sq = float(np.sum((d / model.a) ** 2))
        return float(mag_sq * c * np.sum(np.exp(-fv) * w))
    mag_sq = np.einsum("...ik,...jl,...ij,...kl->...", model.ginv, model.ginv, d, d)
    return float(np.sum(c * np.exp(-fv) * w * mag_sq))


def defect_l2(model, f, tau: float) -> float:
    return float(np.sqrt(weighted_defect_sq(model, f, tau)))


def entropy_record(state) -> EntropyRecord:
    """W and defect for a single flow state carrying a potential."""
    return EntropyRecord(
        t=state.t,
        W=w_functional(state.model, state.f, state.tau),
        defect_l2=defect_l2(state.model, state.f, state.tau),
    )


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
    without potentials or without those records is rejected.
    """
    states = traj.states
    if any(s.f is None for s in states):
        raise RejectedInputError("monotonicity audit requires a trajectory with the potential evolved")
    if any("entropy" not in d for d in traj.diagnostics):
        raise RejectedInputError("monotonicity audit requires the per-sample entropy records "
                                 "that a coupled run_flow writes into the diagnostics")
    times = traj.times
    W = np.array([d["entropy"]["W"] for d in traj.diagnostics])
    defects = [d["entropy"]["defect_l2"] for d in traj.diagnostics]
    records = []
    for i, (s, defect) in enumerate(zip(states, defects)):
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
            dWdt_numeric=float(numeric), dWdt_formula=float(2.0 * s.tau * defect**2),
            monotone=bool(numeric >= -1e-10)))
    return records


# ---------------------------------------------------------------------------
# mu-invariant minimization


def _w_and_grad(model: GridModel, f, tau):
    """Entropy value and its exact discrete gradient dW/df per grid node."""
    n = model.n
    c = (4.0 * np.pi * tau) ** (-n / 2.0)
    w, _ = _weights(model, f)
    df, gsq = _grad_sq(model, f)
    R = geometry.scalar_curvature(model)
    u = np.exp(-f)
    A = tau * (gsq + R) + f - n
    W = float(np.sum(c * u * w * A))
    grad = c * u * w * (1.0 - A)
    # adjoint of the periodic central difference is its negative
    s = 2.0 * tau * c * (u * w)[..., None] * np.einsum("...ij,...j->...i", model.ginv, df)
    for l in range(model.n):
        grad -= geometry.d1(s[..., l], axis=l, h=model.spacings[l])
    return W, grad


def _minimize_mu_radial(model, tau: float, f0: np.ndarray, grad_tol: float,
                        max_iter: int) -> MuResult:
    """Ground-state solve of the radial entropy minimization.

    In the substitution v = e^{-f/2} the functional is quadratic in v except
    for the -v^2 log v^2 term, and the critical-point equation is a
    Schroedinger eigenproblem H v = lambda v with the log term frozen into
    the potential.  Damped self-consistent iteration on tridiagonal
    eigensolves converges where descent on f is hopelessly ill conditioned.
    At the fixed point W = lambda + 1 (multiplier of the unit-mass
    constraint), which doubles as an internal consistency check.
    """
    from scipy.linalg import eigh_tridiagonal

    r = _require_round(model)
    quad = _RadialQuadrature(r, len(f0))
    nn, c = model.n, (4.0 * np.pi * tau) ** (-model.n / 2.0)
    R = geometry.scalar_curvature(model)
    w, wf, ds = quad.w, quad.w_face, r * quad.dtheta
    # face weights padded with the zero-flux pole faces
    wl = np.concatenate([[0.0], wf])
    wr = np.concatenate([wf, [0.0]])
    tiny = 1e-150

    def normalize(v):
        return v / np.sqrt(c * np.sum(w * v**2))

    def w_of(v):
        vsq = v**2
        ent = np.where(vsq > 0.0, vsq * np.log(np.maximum(vsq, tiny**2)), 0.0)
        kin = 4.0 * np.sum(wf * quad.face_slope(v) ** 2)
        return float(c * (tau * (kin + np.sum(w * vsq * R)) - np.sum(w * (nn * vsq + ent))))

    def potential(v):
        return tau * R - nn - 1.0 - 2.0 * np.log(np.maximum(v, tiny))

    def apply_h(v, V):
        av = (wl * np.concatenate([[0.0], v[1:] - v[:-1]])
              - wr * np.concatenate([v[1:] - v[:-1], [0.0]])) / ds**2
        return 4.0 * tau * av / w + V * v

    v = normalize(np.maximum(np.exp(-0.5 * np.asarray(f0, dtype=float)), tiny))
    beta, W_prev = 0.5, np.inf
    for it in range(1, max_iter + 1):
        V = potential(v)
        diag = 4.0 * tau * (wl + wr) / (ds**2 * w) + V
        off = -4.0 * tau * wf / (ds**2 * np.sqrt(w[:-1] * w[1:]))
        lam, y = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
        psi = normalize(np.abs(y[:, 0]) / np.sqrt(w))
        v_new = normalize((1.0 - beta) * v + beta * psi)
        W = w_of(v_new)
        if W > W_prev + 1e-14:
            beta = max(0.25 * beta, 1e-3)
        v, W_prev = v_new, W
        hv = apply_h(v, potential(v))
        lam_r = c * np.sum(w * v * hv)
        res = hv - lam_r * v
        gnorm = float(np.sqrt(c * np.sum(w * res**2)))
        if gnorm < grad_tol:
            f = normalize_f(model, -2.0 * np.log(np.maximum(v, tiny)), tau)
            return MuResult(f=f, mu=W, iterations=it, grad_norm=gnorm)
    f = normalize_f(model, -2.0 * np.log(np.maximum(v, tiny)), tau)
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
    ``NonConvergenceError`` carrying the last iterate.

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
        return _minimize_mu_radial(model, tau, f0, grad_tol, min(max_iter, 1000))
    if isinstance(model, FrameModel):
        raise RejectedInputError("a frame model takes a constant potential or a "
                                 "1-d polar profile")

    f = normalize_f(model, np.asarray(f0, dtype=float), tau)
    shape = f.shape
    w_nodes, _ = _weights(model, f)
    c = (4.0 * np.pi * tau) ** (-model.n / 2.0)

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


def minimize_mu_multistart(model, tau: float, starts) -> list:
    """Run ``minimize_mu`` from several starts; returns all results."""
    return [minimize_mu(model, tau, f0=f0) for f0 in starts]

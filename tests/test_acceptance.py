"""End-to-end acceptance gate.

Each criterion prints one PASS/FAIL verdict line (collected again in the
terminal summary) and asserts at its stated tolerance.
"""

import numpy as np
import pytest

from solitonlab import entropy, flows, gauge, geometry, harness, stability
from solitonlab.geometry import FrameModel, GridModel

TWO_PI = 2.0 * np.pi

VERDICT_LINES = []


def _verdict(num: int, desc: str, ok: bool, detail: str = "") -> bool:
    line = f"[acceptance {num}] {desc}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    VERDICT_LINES.append(line)
    print(line)
    return ok


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def flat16():
    return GridModel.flat(2, (16, 16), (TWO_PI, TWO_PI))


@pytest.fixture(scope="module")
def flat16_report(flat16):
    op = stability.assemble_linearized_pde(flat16, np.inf)
    return stability.spectrum(op)


@pytest.fixture(scope="module")
def decay_run(flat16):
    """Long unnormalized gauge-fixed run of a perturbed flat torus."""
    cfg = harness.RunConfig(dims=(16, 16), amplitude=1e-2, seed=7)
    model0 = harness.build_model(cfg)
    traj = flows.run_flow(model0, "deturck", np.inf, dt=0.02, t_end=16.0,
                          background=flat16, sample_every=4)
    fam = stability.nearest_soliton_in_family(traj.states[-1].model, flat16)
    norms = np.array([geometry.norms(flat16, s.model.g - fam.g1.g).l2
                      for s in traj.states])
    return model0, traj, fam, norms


def _smooth_perturbed(n, amp):
    """The same continuum initial metric sampled on an n x n grid."""
    h = GridModel.flat(2, (n, n), (TWO_PI, TWO_PI))
    X, Y = h.coords()
    g = h.g.copy()
    g[..., 0, 0] += amp * np.sin(X + Y)
    g[..., 1, 1] += amp * np.cos(X)
    g[..., 0, 1] = g[..., 1, 0] = amp * np.sin(Y)
    return h, h.with_metric(g)


def _gauge_discrepancy(n, amp, t_end):
    """Max sup-norm discrepancy of the gauge transport at resolution n."""
    h, g0 = _smooth_perturbed(n, amp)
    dt = 0.5 * flows.cfl_bound(g0)
    nsteps = int(round(t_end / dt))
    dt = t_end / nsteps
    sample_every = max(1, nsteps // 10)
    ricci = flows.run_flow(g0, "unnormalized", np.inf, dt, t_end,
                           sample_every=sample_every)
    det = flows.run_flow(g0, "deturck", np.inf, dt, t_end,
                         background=h, sample_every=sample_every)
    ginterp = flows.MetricInterpolant(ricci)
    gt = gauge.run_harmonic_gauge(ginterp, h, np.zeros(h.dims + (h.n,)),
                                  0.0, t_end, dt)
    idx = [int(round(t / dt)) for t in ricci.times]
    sub = gauge.GaugeTrajectory(h=h, times=[gt.times[i] for i in idx],
                                F=[gt.F[i] for i in idx])
    return float(np.max(gauge.gauge_equivalence_check(ricci, det, sub)))


# ---------------------------------------------------------------------------
# the criteria


def test_criterion_1_exact_solutions():
    m = FrameModel(lams=np.zeros(3), a=(1.0, 2.0, 3.0))  # the flat 3-torus
    tau = 1.0
    traj = flows.run_flow(m, "tau", tau=tau, dt=1e-3, t_end=1.0)
    rel = max(float(np.max(np.abs(s.model.a - m.a * np.exp(s.t / tau))
                           / (m.a * np.exp(s.t / tau))))
              for s in traj.states)

    fixed = FrameModel.su2(a=(4.0, 4.0, 4.0))  # r^2 = 2 (n-1) tau at tau = 1
    ftraj = flows.run_flow(fixed, "tau", tau=1.0, dt=1e-3, t_end=1.0)
    drift = float(np.max(np.abs(ftraj.states[-1].model.a - 4.0))) / 1.0

    ok = rel < 1e-9 and drift < 1e-10
    assert _verdict(1, "exact-solution conformance", ok,
                    f"dilation rel err {rel:.2e} < 1e-9, "
                    f"fixed-point drift {drift:.2e}/unit time < 1e-10")


def test_criterion_2_entropy_monotonicity():
    m = FrameModel.su2(a=(4.4, 4.0, 3.7))
    traj = flows.run_flow(m, "tau", tau=1.0, dt=1e-4, t_end=0.02,
                          couple_f=True, sample_every=10)
    records = entropy.monotonicity_report(traj)
    W = np.array([r.W for r in records])
    nondecreasing = bool(np.all(np.diff(W) >= -1e-13))
    interior = records[1:-1]
    rel = max(abs(r.dWdt_numeric - r.dWdt_formula) / abs(r.dWdt_formula)
              for r in interior)
    ok = nondecreasing and rel < 1e-3
    assert _verdict(2, "entropy monotonicity and derivative formula", ok,
                    f"W non-decreasing at all {len(records)} samples, "
                    f"max rel dW/dt mismatch {rel:.2e} < 1e-3")


def test_criterion_3_gauge_equivalence_refinement():
    d16 = _gauge_discrepancy(16, 1e-2, 0.5)
    d32 = _gauge_discrepancy(32, 1e-2, 0.5)
    ratio = d16 / d32
    ok = ratio >= 3.5
    assert _verdict(3, "gauge equivalence under refinement", ok,
                    f"sup discrepancy {d16:.2e} -> {d32:.2e}, "
                    f"ratio {ratio:.2f} >= 3.5")


def test_criterion_4_spectral_ground_truth(flat16, flat16_report):
    hs = flat16.spacings[0]
    ks = 2.0 * np.pi * np.fft.fftfreq(16) / hs
    sym = -(2.0 * (1.0 - np.cos(ks[:, None] * hs)) / hs**2
            + 2.0 * (1.0 - np.cos(ks[None, :] * hs)) / hs**2)
    oracle = np.sort(np.tile(sym.ravel(), 3))
    got = np.sort(np.real(flat16_report.eigenvalues))
    err = float(np.max(np.abs(got - oracle)))
    ok = err < 1e-8 and flat16_report.n_neutral == 3
    assert _verdict(4, "spectral ground truth", ok,
                    f"max eigenvalue error {err:.1e} < 1e-8, "
                    f"kernel dim {flat16_report.n_neutral} == 3 at tau = inf")


def test_criterion_5_trichotomy_lemmas(flat16_report):
    delta, L = flat16_report.gap, 1.0
    ts = np.linspace(0.0, L, 50)
    g = stability.growth_decay_check(np.exp(delta * ts), np.exp(delta * (ts + L)),
                                     delta, L)
    d = stability.growth_decay_check(np.exp(-delta * ts), np.exp(-delta * (ts + L)),
                                     delta, L)
    eq_growth = abs(g.sup_second / g.sup_first - g.alpha) < 1e-6 * g.alpha
    eq_decay = abs(d.sup_first / d.sup_second - d.alpha) < 1e-6 * d.alpha
    equality = g.growth_holds and d.decay_holds and eq_growth and eq_decay

    lams = np.real(flat16_report.eigenvalues)
    nz = lams[np.abs(lams) > flat16_report.eps_neutral]
    beta = float(np.exp(L * delta / 4.0))
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 3 * L, 121)
    violations = 0
    n_draws = 1000
    for _ in range(n_draws):
        c = rng.standard_normal(len(nz)) * (rng.random(len(nz)) < 0.1)
        if not np.any(c):
            c[rng.integers(len(nz))] = 1.0
        # norm of the eigen-expansion solution (orthonormal modes)
        vals = np.sqrt(np.exp(np.outer(t, 2.0 * nz)) @ c**2)
        sel = lambda lo, hi: vals[(t >= lo) & (t <= hi)]
        verdict = stability.three_interval_test(sel(0, L), sel(L, 2 * L),
                                                sel(2 * L, 3 * L), beta)
        violations += verdict == "violation"
    ok = equality and violations == 0
    assert _verdict(5, "trichotomy interval lemmas", ok,
                    f"pure-mode equality within 1e-6, "
                    f"{violations}/{n_draws} seeded draws violate at "
                    f"beta = e^(L delta/4)")


def test_criterion_6_integrability_projection(flat16, decay_run):
    model0, traj, fam, _ = decay_run
    holds = [fam.factor_two_holds]
    for seed in range(5):
        cfg = harness.RunConfig(dims=(16, 16), amplitude=10.0 ** -(2 + seed % 3),
                                seed=seed)
        g = harness.build_model(cfg)
        holds.append(stability.nearest_soliton_in_family(g, flat16).factor_two_holds)
    final_sup = float(np.max(np.abs(traj.states[-1].model.g - fam.g1.g)))
    ok = all(holds) and final_sup < 1e-6
    assert _verdict(6, "integrability projection and flat limit", ok,
                    f"factor-2 inequality holds for {len(holds)} perturbations, "
                    f"final sup distance {final_sup:.2e} < 1e-6 at T = 16")


def test_criterion_7_exponential_uniqueness(flat16, flat16_report, decay_run):
    _, traj, fam, norms = decay_run
    fit = stability.fit_exponential_rate(traj.times, norms)
    deviation = abs(fit.rate - flat16_report.gap) / flat16_report.gap
    ok = deviation < 0.10 and fam.distance_to_family >= 0.0 \
        and float(np.max(np.abs(traj.states[-1].model.g - fam.g1.g))) < 1e-6
    assert _verdict(7, "exponential uniqueness pipeline", ok,
                    f"fitted rate {fit.rate:.4f} vs gap {flat16_report.gap:.4f} "
                    f"({100 * deviation:.1f}% < 10%), limit within 1e-6 of the "
                    f"flat family")


def test_criterion_8_mu_invariant_sign():
    m = FrameModel.su2(a=(1.0, 1.0, 1.0))
    tau = 1e-2
    quad = entropy._RadialQuadrature(1.0, 8192)
    base = quad.theta**2 / (4.0 * tau)
    starts = [entropy.normalize_f(m, s * base, tau) for s in (0.5, 1.0, 2.0)]
    results = entropy.minimize_mu_multistart(m, tau, starts)
    mus = np.array([r.mu for r in results])
    spread = float(np.max(mus) - np.min(mus))
    ok = bool(np.all(mus < 0.0)) and spread < 1e-6
    assert _verdict(8, "mu-invariant sign at small tau", ok,
                    f"mu(round S3, 1e-2) = {mus.min():.3e} < 0, "
                    f"multi-start spread {spread:.1e} < 1e-6")

"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line on stderr; ``conftest.py`` repeats
these lines in the terminal summary.  Shared long runs live in
module-scoped fixtures: the two full Example-2 comparisons (each one
``run_comparison``, as ``mrswm compare`` runs it), the Example-1
convergence family, and the Example-3 reference run.
"""

import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import Legendre

from mrswm import closure, experiments as ex
from mrswm import fv1d, hyperbolicity as hyp, model1d, ref2d


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stderr__)
    assert ok, line


# --------------------------------------------------------------------------
# shared long runs
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ex2_linear():
    return ex.run_comparison(ex.make_spec(2, "linear"), (0, 1, 2, 3))


@pytest.fixture(scope="module")
def ex2_quadratic():
    return ex.run_comparison(ex.make_spec(2, "quadratic"), (0, 1, 2, 3))


@pytest.fixture(scope="module")
def ex1_convergence():
    spec = ex.make_spec(1, "constant")
    t_final = 0.2
    tic = time.perf_counter()
    sols = {}
    for n in (100, 200, 400, 1600):
        params = ex.model_params(spec, 0)
        s0 = ex.initial_moment_solution(replace(spec, n_cells=n), 0)
        sols[n], _ = fv1d.run(s0, params, t_final, nu=spec.nu, theta=spec.theta)
    return sols, time.perf_counter() - tic


@pytest.fixture(scope="module")
def ex3_reference():
    spec = ex.make_spec(3, "sinusoid")
    sol0 = ex.initial_reference_solution(spec)
    tic = time.perf_counter()
    sol, stats = ref2d.run2d(sol0, ex.ref_params(spec), spec.t_final,
                             nu=spec.nu, theta=spec.theta)
    return spec, sol, stats, time.perf_counter() - tic


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------

def _oracle_gauss(n):
    x, _ = np.polynomial.legendre.leggauss(n)
    x = x.astype(np.longdouble)

    def leg(xv):
        p_prev, p = np.ones_like(xv), xv.copy()
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * xv * p - (k - 1) * p_prev) / k
        return p, n * (xv * p - p_prev) / (xv * xv - 1.0)

    for _ in range(3):
        p, dp = leg(x)
        x = x - p / dp
    _, dp = leg(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return (x + 1.0) / 2.0, w / 2.0


def test_criterion_1_closure_exactness():
    tic = time.perf_counter()
    z, w = _oracle_gauss(200)
    worst = 0.0
    for order in range(1, 7):
        t = closure.build_tensors(order)
        phi = np.array([(-1.0) ** l * Legendre.basis(l, domain=[0.0, 1.0])(z)
                        for l in range(1, order + 1)])
        dphi = np.array([(-1.0) ** l * Legendre.basis(l, domain=[0.0, 1.0]).deriv()(z)
                         for l in range(1, order + 1)])
        iphi = np.array([(-1.0) ** l *
                         Legendre.basis(l, domain=[0.0, 1.0]).integ(lbnd=0.0)(z)
                         for l in range(1, order + 1)])
        scale = 2.0 * np.arange(1, order + 1).astype(np.longdouble) + 1.0
        A = scale[:, None, None] * np.einsum("p,ip,lp,np->iln", w, phi, phi, phi)
        B = scale[:, None, None] * np.einsum("p,ip,lp,np->iln", w, dphi, iphi, phi)
        G = scale[:, None] * np.einsum("p,p,ip,lp->il", w, z, phi, dphi)
        worst = max(worst,
                    np.abs(t.A - A.astype(float)).max(),
                    np.abs(t.B - B.astype(float)).max(),
                    np.abs(t.Gamma - G.astype(float)).max())
    t3 = closure.build_tensors(6)
    spot = max(abs(t3.A[0, 0, 0]), abs(t3.Gamma[0, 0] - 1.0),
               np.abs(t3.phi_at_one - (-1.0) ** np.arange(1, 7)).max())
    wall = time.perf_counter() - tic
    ok = worst <= 1e-13 and spot <= 1e-13 and wall < 1.0
    report(1, "closure exactness", ok,
           f"max oracle dev {worst:.2e}, spot checks {spot:.2e}, {wall:.2f}s")


def test_criterion_2_eigenvalue_oracles():
    tic = time.perf_counter()
    rng = np.random.default_rng(2024)
    n = 1000
    p0 = model1d.ModelParams(g=1.0, order=0)
    U0 = np.empty((n, 5))
    U0[:, 0] = rng.uniform(0.2, 3.0, n)
    U0[:, 1:] = rng.normal(size=(n, 4)) * U0[:, :1]
    lam = np.sort(model1d.eigenvalues(U0, p0).real, axis=-1)
    v = U0[:, 2] / U0[:, 0]
    b = U0[:, 4] / U0[:, 0]
    root = np.sqrt(b * b + U0[:, 0])
    closed = np.sort(np.stack([v, v - np.abs(b), v + np.abs(b),
                               v - root, v + root], axis=-1), axis=-1)
    dev0 = np.abs(lam - closed).max()

    p1 = model1d.ModelParams(g=1.0, order=1)
    U1 = np.empty((n, 9))
    U1[:, 0] = rng.uniform(0.2, 3.0, n)
    U1[:, 1:] = 0.3 * rng.normal(size=(n, 8)) * U1[:, :1]
    spec1 = model1d.eigenvalues(U1, p1)
    v = U1[:, 2] / U1[:, 0]
    b = U1[:, 4] / U1[:, 0]
    be = U1[:, 6] / U1[:, 0]
    et = U1[:, 8] / U1[:, 0]
    s3 = 1.0 / np.sqrt(3.0)
    closed5 = np.stack([v - be,
                        v - b - s3 * np.abs(be - et), v - b + s3 * np.abs(be - et),
                        v + b - s3 * np.abs(be + et), v + b + s3 * np.abs(be + et)],
                       axis=-1)
    dev1 = np.abs(spec1[:, None, :] - closed5[:, :, None]).min(axis=-1).max()
    wall = time.perf_counter() - tic
    ok = dev0 <= 1e-10 and dev1 <= 1e-8 and wall < 10.0
    report(2, "eigenvalue oracles", ok,
           f"M=0 dev {dev0:.2e}, M=1 dev {dev1:.2e}, {wall:.1f}s")


def test_criterion_3_conservation_and_constraint(ex2_linear):
    c = ex2_linear
    initial = ex.initial_moment_solution(c.spec, 3)
    m0 = initial.cells[:, 0].sum() * initial.grid.dy
    m1 = c.moment_runs[3].cells[:, 0].sum() * c.moment_runs[3].grid.dy
    drift = abs(m1 - m0) / abs(m0)
    hb_dev = np.abs(c.moment_runs[3].cells[:, 4] - 1.1).max()
    wall = c.moment_stats[3].wall_time
    ok = drift <= 1e-11 and hb_dev <= 1e-12 and wall < 60.0
    report(3, "conservation and constraint", ok,
           f"mass drift {drift:.2e}, hb_m dev {hb_dev:.2e}, M=3 run {wall:.0f}s")


def test_criterion_4_reduction_identities(ex2_quadratic):
    c = ex2_quadratic
    d01 = np.abs(c.moment_runs[1].cells[:, :5] - c.moment_runs[0].cells).max()
    d23 = np.abs(c.moment_runs[3].cells[:, :13] - c.moment_runs[2].cells).max()
    ok = d01 <= 1e-12 and d23 <= 1e-12
    report(4, "reduction identities", ok,
           f"|M1-M0| {d01:.2e}, |M3-M2| {d23:.2e} at t=1.5")


def test_criterion_5_error_hierarchy(ex2_linear, ex2_quadratic):
    lin = ex2_linear.errors
    decreasing = all(lin[m + 1][var] < lin[m][var]
                     for var in ("h", "v_m", "b_m") for m in (0, 1, 2))
    quad = ex2_quadratic.errors
    eq01 = max(abs(quad[1][var] - quad[0][var]) for var in ("h", "v_m", "b_m"))
    eq23 = max(abs(quad[3][var] - quad[2][var]) for var in ("h", "v_m", "b_m"))
    drop = min(quad[0][var] / quad[2][var] for var in ("h", "v_m", "b_m"))
    wall = (ex2_linear.ref_stats.wall_time
            + sum(s.wall_time for s in ex2_linear.moment_stats.values()))
    ok = (decreasing and eq01 <= 1e-12 and eq23 <= 1e-12 and drop >= 3.0
          and wall < 1800.0)
    lin_h = [f"{lin[m]['h']:.3e}" for m in range(4)]
    report(5, "error hierarchy", ok,
           f"linear L1(h) {lin_h} decreasing={decreasing}, quadratic step "
           f"|e1-e0| {eq01:.1e} |e3-e2| {eq23:.1e}, drop x{drop:.1f} "
           f"(linear campaign {wall:.0f}s)")


def test_criterion_6_convergence_order(ex1_convergence):
    sols, wall = ex1_convergence
    fine = sols[1600].cells[:, 0]
    errs = []
    for n in (100, 200, 400):
        factor = 1600 // n
        restricted = fine.reshape(n, factor).mean(axis=1)
        errs.append(ex.l1_error(sols[n].cells[:, 0], restricted, 2.0 / n))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    ok = bool(np.all(orders >= 1.8)) and wall < 120.0
    report(6, "convergence order", ok,
           f"L1(h) {[f'{e:.2e}' for e in errs]}, orders {np.round(orders, 2)}, "
           f"{wall:.0f}s")


def test_criterion_7_reference_divergence(ex2_linear):
    c = ex2_linear
    worst = c.ref_stats.max_div_residual
    ok = worst <= 1e-12
    report(7, "reference divergence-free", ok,
           f"max normalized residual {worst:.2e} over {c.ref_stats.n_steps} steps")


def test_criterion_8_cross_model_consistency():
    spec = ex.make_spec(1, "constant")
    tic = time.perf_counter()
    errs = ex.lockstep_cross_check(spec, t_final=0.5, n_cells=200, n_zeta=8)
    wall = time.perf_counter() - tic
    worst = max(errs.values())
    ok = worst <= 1e-8
    report(8, "cross-model consistency", ok,
           f"max L1 {worst:.2e} after t=0.5 ({wall:.0f}s)")


def test_criterion_9_hyperbolicity_facts():
    tic = time.perf_counter()
    slice0 = hyp.scan_region((0.0, 0.0), (-10, 10), (-10, 10), (1, 51, 51))
    rng = np.random.default_rng(9)
    p0 = model1d.ModelParams(g=1.0, order=0)
    U = np.empty((1000, 5))
    U[:, 0] = rng.uniform(0.2, 3.0, 1000)
    U[:, 1:] = rng.normal(size=(1000, 4)) * U[:, :1]
    lam = model1d.eigenvalues(U, p0)
    im = np.abs(lam.imag).max(axis=-1)
    re = np.maximum(np.abs(lam.real).max(axis=-1), 1e-14)
    m0_frac = float((im / re <= 1e-8).mean())
    scan = hyp.scan_region((-5, 5), (-10, 10), (-10, 10), 51, gh=1.0)
    wall = time.perf_counter() - tic
    ok = (slice0.hyperbolic_fraction == 1.0 and m0_frac == 1.0
          and 0.0 < scan.hyperbolic_fraction < 1.0 and wall < 60.0)
    report(9, "hyperbolicity facts", ok,
           f"b=0 slice {slice0.hyperbolic_fraction:.0%} hyperbolic, M=0 "
           f"{m0_frac:.0%}, 51^3 scan hyperbolic fraction "
           f"{scan.hyperbolic_fraction:.3f}, {wall:.0f}s")


def test_criterion_10_example3_profile_diagnostic(ex3_reference):
    spec, sol, stats, wall = ex3_reference
    _, zeta, prim = ref2d.profile_slice(sol, -5.0)
    means = ex.reference_mean_fields(sol)
    y = sol.grid.y_centers()
    j = int(np.argmin(np.abs(y - (-5.0))))
    b_m = means["b_m"][j]
    perturbation = float(np.abs(prim[:, 4] - b_m).max() / abs(b_m))
    in_band = 0.02 <= perturbation <= 0.08
    # documented soft criterion: reported, not enforced (grid is a choice
    # the source material does not pin down)
    ok = np.isfinite(perturbation) and perturbation > 0.0
    band_note = "within" if in_band else "OUTSIDE"
    report(10, "example 3 profile diagnostic", ok,
           f"max |b-b_m|/b_m = {perturbation:.3f} at y=-5, t=10 "
           f"({band_note} [0.02, 0.08]; {stats.n_steps} steps, {wall:.0f}s)")

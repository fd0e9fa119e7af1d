"""End-to-end acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a PASS line with the measured worst residual and runtime, so a plain
``pytest -s tests/test_acceptance.py`` reads as a checklist.
"""

import time
from fractions import Fraction
from math import comb

import numpy as np

from folsub import foliation as fln
from folsub import newton, verify
from folsub.quadrature import grid_for, refined
from helpers import leaf_field, newton_transform_explicit, total_curvature_recursion_constant

RNG_SEED = 20250


def _report(name, worst, bound, elapsed, budget=None):
    line = f"ACCEPTANCE {name}: PASS  worst residual {worst:.3e} (bound {bound:.0e})"
    if budget is not None:
        line += f"  runtime {elapsed:.2f}s (< {budget:.0f}s)"
    print(line)


def test_criterion_1_algebraic_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    per_n = 1000 // 6
    for n in range(1, 7):
        count = per_n + (1 if n <= 1000 - 6 * per_n else 0)
        A = rng.uniform(-1.0, 1.0, (count, n, n))
        A = 0.5 * (A + np.swapaxes(A, -1, -2))
        sigma, tau = newton.sigma_values(A), newton.power_sums(A)
        s2 = sigma[..., 2] if n >= 2 else np.zeros(count)
        t2 = tau[..., 1] if n >= 2 else tau[..., 0] ** 2
        worst = max(worst, float(np.max(np.abs(2 * s2 - (tau[..., 0] ** 2 - t2)))))
        worst = max(worst, float(np.max(np.abs(newton.newton_transform(n, A)))))
        for r in range(n):
            worst = max(worst, float(np.max(np.abs(newton.trace_identity_residuals(r, A)))))
            diff = newton.newton_transform(r, A) - newton_transform_explicit(r, A)
            worst = max(worst, float(np.max(np.abs(diff))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-11
    assert elapsed < 5.0
    _report("1 (algebraic suite)", worst, 1e-11, elapsed, 5)


def test_criterion_2_differential_suite(warped3, warped4):
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED + 1)
    worst_diff = 0.0  # 1e-8 family
    worst_first = 0.0  # 1e-9 family
    for s in (warped3, warped4):
        pts = s.manifold.random_points(rng, 200)
        geom = fln.Geometry(s.fol, pts, order=2)
        for i in range(s.n):
            for j in range(i + 1, s.n):
                worst_diff = max(
                    worst_diff,
                    fln.codazzi_residual(s.fol, leaf_field(s.fol, i), leaf_field(s.fol, j), pts),
                )
        for r in range(s.n):
            agree = np.abs(geom.div_F_newton_direct(r) - geom.div_F_newton_formula(r))
            worst_diff = max(worst_diff, float(np.max(agree)))
            worst_diff = max(worst_diff, float(np.max(np.abs(geom.newton_z_divergence_residual(r)))))
        worst_diff = max(worst_diff, geom.adapted_identity_residual())
        for _ in range(4):
            X = verify.random_distribution_field(s.fol, rng)
            worst_first = max(worst_first, fln.divx_residual(s.fol, X, pts))
    elapsed = time.perf_counter() - t0
    assert worst_diff <= 1e-8
    assert worst_first <= 1e-9
    assert elapsed < 30.0
    _report("2 (differential identities)", max(worst_diff, worst_first), 1e-8, elapsed, 30)


def test_criterion_3_integral_suite(warped3, warped4, tilted):
    t0 = time.perf_counter()
    worst = 0.0
    for s in (warped3, warped4, tilted):
        assert max(s.default_grid) <= 64  # z-axis node budget
        assert all(k == 4 for k in s.default_grid[:-1])  # homogeneous axes
        reports = [verify.verify_reeb(s)]
        for r in range(s.n):
            reports.append(verify.verify_main(s, r))
            reports.append(verify.verify_leaf(s, r))
        for rep in reports:
            assert rep.verdict == "pass", (s.name, rep.formula_id, rep.verdict)
            worst = max(worst, abs(rep.residual))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 60.0
    _report("3 (integral formulas)", worst, 1e-6, elapsed, 60)


def test_criterion_4_projected_curvature_discrimination(heisenberg):
    t0 = time.perf_counter()
    geom = fln.Geometry(heisenberg.fol, heisenberg.manifold.base_point(), order=2)
    ric_p = float(geom.ricci_p(geom.N.value))
    ric_ambient = float(np.trace(geom.riemann_matrix(geom.N.value), axis1=-2, axis2=-1))
    assert abs(ric_p - 0.0) <= 1e-9
    assert abs(ric_ambient - 0.25) <= 1e-9

    rep = verify.verify_main(heisenberg, 0)
    assert abs(rep.residual) <= 1e-9  # balances with the projected curvature
    assert rep.verdict != "fail"
    sub = rep.terms["riemannian_substituted_residual"]
    assert abs(sub - (-0.25 * heisenberg.volume)) <= 1e-9  # and breaks with the ambient one
    elapsed = time.perf_counter() - t0
    _report("4 (curvature discrimination)", max(abs(rep.residual), abs(sub + 0.25 * heisenberg.volume)), 1e-9, elapsed)


def test_criterion_5_inadmissibility_diagnostic(round_s3):
    t0 = time.perf_counter()
    adm = fln.Geometry(round_s3.fol, round_s3.manifold.base_point(), order=1).admissibility_residual()
    assert abs(adm - 1.0) <= 1e-9
    rep = verify.verify_main(round_s3, 0)
    assert rep.verdict == "inadmissible"
    assert abs(rep.residual - (-4 * np.pi**2)) <= 1e-6
    elapsed = time.perf_counter() - t0
    _report("5 (inadmissibility diagnostic)", abs(rep.residual + 4 * np.pi**2), 1e-6, elapsed)


def test_criterion_6_closed_form_corollaries():
    t0 = time.perf_counter()
    worst = 0.0
    vol = 1.7
    for n in range(2, 11, 2):
        for c in (0.6, 1.9):
            S = total_curvature_recursion_constant(n, c, vol)
            E = newton.total_curvature_recursion_einstein(n, c, vol)
            for r in range(n + 1):
                if r % 2 == 1:
                    worst = max(worst, abs(S[r]), abs(E[r]))
                else:
                    worst = max(worst, abs(S[r] - newton.total_curvature_closed_constant(n, r, c, vol)))
                    worst = max(worst, abs(E[r] - newton.total_curvature_closed_einstein(n, r, c, vol)))
    for n in range(1, 13):
        for r in range(n + 1):
            assert newton.umbilical_coefficient_sum(n, r) == newton.umbilical_coefficient(n, r)
    for n in range(2, 13):
        for r in range(1, n):
            assert newton.binomial_reduction_sum(n, r) == Fraction(comb(n - 2, r - 1))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    _report("6 (closed-form corollaries)", worst, 1e-12, elapsed, 1)


def test_criterion_7_umbilical_reduction():
    t0 = time.perf_counter()
    rep = verify.verify_umbilical_reduction(samples=1000, seed=RNG_SEED + 7)
    assert rep.verdict == "pass"
    assert rep.residual <= 1e-11
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("7 (umbilical reduction)", rep.residual, 1e-11, elapsed, 1)


def test_criterion_8_stack_self_calibration(flat, warped3, warped4, tilted):
    t0 = time.perf_counter()
    grid = grid_for(flat.manifold, (32, 32, 32))
    selftest = verify.verify_grid_checks(flat, ["divergence-selftest"], grid)[0]
    assert selftest.residual <= 1e-9
    selftest_w = verify.verify_grid_checks(warped4, ["divergence-selftest"], grid_for(warped4.manifold, warped4.default_grid))[0]
    assert selftest_w.residual <= 1e-9

    worst_gap = 0.0
    for s, orders in ((warped3, (0,)), (warped4, (0, 1)), (tilted, (0, 1))):
        coarse = grid_for(s.manifold, s.default_grid)
        fine = refined(s.manifold, coarse)
        checks = [lambda g: verify.verify_reeb(s, g)]
        for r in orders:
            checks.append(lambda g, rr=r: verify.verify_main(s, rr, g))
        for check in checks:
            ca, cb = check(coarse), check(fine)
            gap = abs(ca.residual - cb.residual)
            assert gap < 0.1 * ca.tolerance, (s.name, ca.formula_id, gap)
            worst_gap = max(worst_gap, gap)
        for r in orders:
            la = verify.verify_leaf(s, r)
            lb = verify.verify_leaf(s, r, grid_axes=tuple(2 * s.default_grid[ax] for ax in s.leaf().axes))
            gap = abs(la.residual - lb.residual)
            assert gap < 0.1 * la.tolerance
            worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - t0
    _report("8 (stack self-calibration)", max(selftest.residual, worst_gap), 1e-9, elapsed)

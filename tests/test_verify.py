import numpy as np
import pytest

from folsub import verify
from folsub.errors import EvaluationError, UnsupportedLeafError
from folsub.manifolds import constant_field
from folsub.quadrature import grid_for

TWO_PI = 2 * np.pi


def test_divergence_selftest_constant_field(flat):
    r = verify.verify_divergence_theorem(flat, X_field=constant_field([1.0, -2.0, 0.5]))
    assert r.residual == 0.0 and r.verdict == "pass"


def test_divergence_selftest_trig_fields_flat(flat):
    grid = grid_for(flat.manifold, (32, 32, 32))
    r = verify.verify_divergence_theorem(flat, grid=grid)
    assert r.residual <= 1e-9
    assert r.verdict == "pass"


def test_divergence_selftest_sigma1_normal_field(warped4):
    # the field sigma_1 N drives the closed-manifold formulas; its divergence
    # integral is the truncation floor of the whole stack
    from folsub.foliation import Geometry
    from folsub.quadrature import integrate

    def div_sigma1_N(pts):
        geom = Geometry(warped4.fol, pts, order=2)
        n_sigma = geom.direction_derivative(geom.sigma_jet(1), geom.Narr)
        return n_sigma - geom.sigma_arr(1) ** 2  # N(s1) + s1 Div N with Div N = -s1

    got = integrate(warped4.manifold, div_sigma1_N, grid_for(warped4.manifold, warped4.default_grid))
    assert abs(got) <= 1e-7


def test_calibration_floor(warped4):
    grid = grid_for(warped4.manifold, warped4.default_grid)
    tol, floor = verify.calibrate_tolerance(warped4, grid)
    assert tol >= 1e-7
    assert tol >= 10 * floor


def test_reeb(flat, warped3, warped4, nonharmonic):
    for s in (flat, warped3, warped4):
        r = verify.verify_reeb(s)
        assert r.verdict == "pass"
        assert abs(r.residual) <= 1e-7
    r = verify.verify_reeb(nonharmonic)
    assert r.verdict == "precondition-violation"
    assert abs(r.residual) > 1.0  # genuinely fails without harmonicity


def test_main_flat_all_orders(flat_wide):
    for r_ in range(flat_wide.n):
        r = verify.verify_main(flat_wide, r_)
        assert r.verdict == "pass"
        assert abs(r.residual) < 1e-12


def test_main_warped(warped4, warped3):
    for s, orders in ((warped3, (0,)), (warped4, (0, 1))):
        for r_ in orders:
            r = verify.verify_main(s, r_)
            assert r.verdict == "pass"
            assert abs(r.residual) <= 1e-7


def test_main_r_out_of_range(warped3):
    with pytest.raises(ValueError):
        verify.verify_main(warped3, 1)


def test_main_nonfinite_term_raises(flat, monkeypatch):
    real_terms = verify._main_terms

    def poisoned(geom, r):
        out = real_terms(geom, r)
        out["normal_curvature"] = np.where(np.arange(geom.batch[0]) == 5, np.nan, out["normal_curvature"])
        return out

    monkeypatch.setattr(verify, "_main_terms", poisoned)
    with pytest.raises(EvaluationError, match="normal_curvature"):
        verify.verify_main(flat, 0, grid=(4, 4, 4), tolerance=1e-7)


def test_main_round_s3_inadmissible(round_s3):
    r = verify.verify_main(round_s3, 0)
    assert r.verdict == "inadmissible"
    assert abs(r.residual - (-4 * np.pi**2)) <= 1e-6
    assert r.admissibility_max == 1.0


def test_main_heisenberg_discrimination(heisenberg):
    r = verify.verify_main(heisenberg, 0)
    assert abs(r.residual) <= 1e-9  # the projected-curvature formula balances
    assert r.verdict == "inadmissible"  # hypotheses still not met
    # substituting the ambient curvature would break it by a quarter of the volume
    assert abs(r.terms["riemannian_substituted_residual"] + 0.25 * heisenberg.volume) <= 1e-9


def test_main_nonharmonic_precondition(nonharmonic):
    r = verify.verify_main(nonharmonic, 0)
    assert r.verdict == "precondition-violation"


def test_leaf_formulas(flat, warped4, tilted):
    r = verify.verify_leaf(flat, 0)
    assert r.verdict == "pass" and r.residual == 0.0
    for s in (warped4, tilted):
        for r_ in (0, 1):
            r = verify.verify_leaf(s, r_)
            assert r.verdict == "pass"
            assert abs(r.residual) <= 1e-8


def test_leaf_unknown_leaf(warped4):
    with pytest.raises(UnsupportedLeafError):
        verify.verify_leaf(warped4, 0, leaf="nope")


def test_closed_form_c_flat(flat):
    r = verify.verify_closed_form_c(flat)
    assert r.verdict == "pass"
    assert abs(r.residual) <= 1e-9
    assert abs(r.terms["total_sigma_0"] - flat.volume) < 1e-12


def test_closed_form_c_flat_even_leaf_dimension(flat_wide):
    # n = 3 keeps the odd-r chain; build a flat torus with n = 2 for the closed form
    from folsub.scenarios import build_flat_torus

    s = build_flat_torus(m=4, n=2)
    r = verify.verify_closed_form_c(s)
    assert r.verdict == "pass"


def test_closed_form_c_round_s3_records_violation(round_s3):
    r = verify.verify_closed_form_c(round_s3)
    assert r.verdict == "inadmissible"
    # the r = 0 recursion step demands 2 sigma_2 totals = 2 vol, but sigma_2 = 0
    assert abs(r.residual - 2.0 * round_s3.volume) <= 1e-6


def test_closed_form_c_not_declared(warped4):
    r = verify.verify_closed_form_c(warped4)
    assert r.verdict == "precondition-violation"


def test_closed_form_einstein():
    r = verify.verify_closed_form_einstein(6, 1.7, 2.0)
    assert r.verdict == "pass"
    assert r.terms["coefficients_exact"] == 1.0
    r = verify.verify_closed_form_einstein(2, 1.3, 2.0)
    assert r.verdict == "pass"


def test_umbilical_reduction_report():
    r = verify.verify_umbilical_reduction(samples=300)
    assert r.verdict == "pass"
    assert r.residual <= 1e-11
    assert r.terms["binomial_identity_exact"] == 1.0


def test_umbilical_reduction_validation():
    with pytest.raises(ValueError):
        verify.umbilical_reduction_residual(1, 0, 0.5, 0.1, 0.1)
    with pytest.raises(ValueError):
        verify.umbilical_reduction_residual(4, 4, 0.5, 0.1, 0.1)


def test_sigma2_image(flat, warped4, heisenberg):
    r = verify.sigma2_image_diagnostic(flat)
    assert r.verdict == "info"
    assert r.terms["sigma2_min"] == r.terms["sigma2_max"] == 0.0

    r = verify.sigma2_image_diagnostic(heisenberg)
    assert r.terms["sigma2_min"] == r.terms["sigma2_max"] == 0.0

    r = verify.sigma2_image_diagnostic(warped4)
    assert r.terms["sigma2_min"] <= 0.0 < r.terms["sigma2_max"]
    # with a small positive c the witnessed interval contains (0, c]
    r = verify.sigma2_image_diagnostic(warped4, c=0.01)
    assert r.terms["interval_witnessed"] == 1.0


def test_divergence_identities_hold_at_every_grid_node(warped4, tilted):
    from folsub.foliation import Geometry, divx_residual

    for s in (warped4, tilted):
        grid = grid_for(s.manifold, s.default_grid)
        geom = Geometry(s.fol, grid.nodes, order=1)
        assert np.max(np.abs(geom.div_F(geom.N) + geom.sigma_arr(1))) <= 1e-9
        rng = np.random.default_rng(19)
        X = verify.random_distribution_field(s.fol, rng)
        assert divx_residual(s.fol, X, grid.nodes) <= 1e-9


def test_leaf_formula_on_homogeneous_backends(heisenberg, round_s3):
    rep = verify.verify_leaf(heisenberg, 0)
    assert abs(rep.residual) <= 1e-12  # everything vanishes pointwise
    rep = verify.verify_leaf(round_s3, 0)
    assert rep.verdict == "inadmissible"
    assert abs(rep.residual - (-2.0) * 2 * np.pi) <= 1e-9  # integrand -2 over a 2pi circle


def test_pointwise_batteries_all_scenarios(catalog):
    for s in catalog.values():
        assert verify.check_divergence_split(s).verdict == "pass"
        assert verify.check_leaf_divergence_of_normal(s).verdict == "pass"
        assert verify.check_codazzi(s).verdict == "pass"
        for rep in verify.check_trace_identities(s):
            assert rep.verdict == "pass"
        for r_ in range(s.n):
            assert verify.check_newton_div_agreement(s, r_).verdict == "pass"
            rep = verify.check_newton_z_divergence(s, r_)
            if s.flags.admissible:
                assert rep.verdict == "pass" and rep.residual <= 1e-8
            else:
                assert rep.verdict == "inadmissible"
        rep = verify.check_adapted_identity(s)
        if s.flags.admissible:
            assert rep.verdict == "pass" and rep.residual <= 1e-8
        else:
            assert rep.verdict == "inadmissible"


def test_round_s3_adapted_identity_records_defect(round_s3):
    rep = verify.check_adapted_identity(round_s3)
    assert rep.verdict == "inadmissible"
    assert abs(rep.residual - 2.0) < 1e-12


def test_reports_are_reproducible(warped4):
    a = verify.verify_main(warped4, 0)
    b = verify.verify_main(warped4, 0)
    assert a.residual == b.residual
    assert a.terms == b.terms
    assert a.grid == b.grid


def test_convergence_gap(warped3):
    coarse, fine = verify.convergence_gap(warped3, lambda g: verify.verify_reeb(warped3, g))
    assert abs(coarse - fine) < 0.1 * 1e-7

import dataclasses

import numpy as np
import pytest

from folsub import scenarios as scn
from folsub import quadrature, verify
from folsub.errors import ConfigError, EvaluationError
from folsub.quadrature import grid_for

TWO_PI = 2 * np.pi


def _grid_check(scenario, check, grid=None, tolerance=None):
    """The report of one grid check, from its own grid pass."""
    return verify.verify_grid_checks(scenario, [check], grid, tolerance)[0]


def test_divergence_selftest_trig_fields_flat(flat):
    grid = grid_for(flat.manifold, (32, 32, 32))
    r = _grid_check(flat, "divergence-selftest", grid)
    assert r.residual <= 1e-9
    assert r.verdict == "pass"


def test_divergence_selftest_sigma1_normal_field(warped4):
    # the field sigma_1 N drives the closed-manifold formulas; its divergence
    # integral is the truncation floor of the whole stack
    from folsub.foliation import Geometry
    from folsub.quadrature import integrate

    def div_sigma1_N(pts):
        geom = Geometry(warped4.fol, pts, order=2)
        n_sigma = np.einsum("...k,...k->...", geom.N.value, geom.sigma.grad[..., 1, :])
        return n_sigma - geom.sigma.value[..., 1] ** 2  # N(s1) + s1 Div N with Div N = -s1

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
    # Poisoned at grid node 5: every flat-torus node shares one Geometry
    # point, whose samples reach the reduction as one grouped entry standing
    # for all 64 nodes; the poison splits node 5 off it as an entry of its own.
    real_integrate = verify._integrate_terms

    def poisoned(scenario, grid, term_fn, density=None):
        def poisoned_terms(pts):
            out = term_fn(pts)
            key = ("main:0", "normal_curvature")
            g = out[key]
            assert isinstance(g, quadrature.Grouped) and g.counts.tolist() == [grid.count]
            out[key] = quadrature.Grouped(
                np.append(g.values, np.nan), np.append(g.counts - 1, 1), np.append(g.first, 5)
            )
            return out

        return real_integrate(scenario, grid, poisoned_terms, density)

    monkeypatch.setattr(verify, "_integrate_terms", poisoned)
    grid = grid_for(flat.manifold, (4, 4, 4))
    with pytest.raises(EvaluationError, match="normal_curvature") as info:
        _grid_check(flat, "main:0", grid, 1e-7)
    assert str(info.value).endswith(f"at point {grid.nodes[5]!r}")


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


@pytest.mark.parametrize("grid", [(4, 4), (4, 4, 0, 4), ()])
def test_a_run_grid_needs_one_positive_count_per_axis(warped4, grid):
    # Only a missing grid (None) means the default grid, on every path.
    with pytest.raises(ValueError, match="need a positive node count per axis"):
        verify.verify_reeb(warped4, grid=grid)
    for check in ("reeb", "leaf:0"):
        with pytest.raises(ValueError, match="need a positive node count per axis"):
            verify.run_checks(warped4, [check], grid, tolerance=1e-7)


MALFORMED_RUN_GRIDS = {
    "not-an-integer": (2.5, 4, 4, 32),
    "one-axis-short": [4, 4, 32],
    "zero-count": [4, 4, 4, 0],
    "a-bool": (True, 4, 4, 32),
    "a-string": "4,4,4,32",
    "over-the-node-cap": (1024, 1024, 1024, 1024),
}
# Every entry point that takes a run grid, on each kind of run: grid checks,
# leaf checks alone, sampled checks alone.
GRID_ENTRY_POINTS = {
    "verify_reeb": lambda s, grid: verify.verify_reeb(s, grid),
    "verify_grid_checks": lambda s, grid: verify.verify_grid_checks(s, ["reeb", "main:0", "leaf:0"], grid),
    "verify_grid_checks-leaf": lambda s, grid: verify.verify_grid_checks(s, ["leaf:1"], grid, tolerance=1e-7),
    "run_checks": lambda s, grid: verify.run_checks(s, ["main:0", "sigma2-image"], grid),
    "run_checks-leaf": lambda s, grid: verify.run_checks(s, ["leaf:0"], grid),
    "run_checks-sampled": lambda s, grid: verify.run_checks(s, ["codazzi", "umbilical"], grid, samples=5),
}


@pytest.mark.parametrize("entry", GRID_ENTRY_POINTS.values(), ids=GRID_ENTRY_POINTS)
@pytest.mark.parametrize("grid", MALFORMED_RUN_GRIDS.values(), ids=MALFORMED_RUN_GRIDS)
def test_every_entry_point_refuses_a_malformed_run_grid_before_building_geometry(entry, grid, warped4, monkeypatch):
    from folsub import foliation

    def no_geometry(*args, **kwargs):
        raise AssertionError("a Geometry was built on a malformed run grid")

    monkeypatch.setattr(foliation.Geometry, "__init__", no_geometry)
    with pytest.raises(ConfigError, match=r"^grid .*(needs a positive integer node count|need a positive node count|has more than)"):
        entry(warped4, grid)


def test_the_run_grid_rule_is_verifys_one_rule(warped4, heisenberg):
    # A count is never rounded: 2.5 nodes are not taken for 2.
    with pytest.raises(ConfigError, match=r"grid \(2\.5, 4, 32\) needs a positive integer node count per axis"):
        verify.verify_reeb(scn.build("warped_torus_3"), (2.5, 4, 32))
    # the cap is verify's: one node over it is refused, the cap itself is not
    with pytest.raises(ConfigError, match=f"has more than {verify.MAX_GRID_NODES} nodes"):
        verify.run_checks(warped4, ["codazzi"], [1, 1, 1, verify.MAX_GRID_NODES + 1])
    assert verify.run_checks(warped4, [], [1, 1, 1, verify.MAX_GRID_NODES]) == []
    # an invariant frame integrates on one node, so it takes any well-formed counts, and no malformed ones
    strip = lambda rep: (repr(rep.residual), rep.grid)
    alone = [strip(rep) for rep in verify.run_checks(heisenberg, ["reeb", "leaf:0"], tolerance=1e-7)]
    for grid in ([], [4, 4, 4], (np.int64(2),)):
        assert [strip(rep) for rep in verify.run_checks(heisenberg, ["reeb", "leaf:0"], grid, tolerance=1e-7)] == alone
    for grid in ([4, 0], (4.0,), "4"):
        with pytest.raises(ConfigError, match="^grid "):
            verify.run_checks(heisenberg, ["codazzi"], grid)


SAMPLED_CHECKS = {
    "check_divergence_split": lambda s, k: verify.check_divergence_split(s, k),
    "check_leaf_divergence_of_normal": lambda s, k: verify.check_leaf_divergence_of_normal(s, k),
    "check_newton_div_agreement": lambda s, k: verify.check_newton_div_agreement(s, 0, k),
    "check_adapted_identity": lambda s, k: verify.check_adapted_identity(s, k),
    "check_newton_z_divergence": lambda s, k: verify.check_newton_z_divergence(s, 0, k),
    "check_codazzi": lambda s, k: verify.check_codazzi(s, k),
    "check_trace_identities": lambda s, k: verify.check_trace_identities(s, k),
}


@pytest.mark.parametrize("samples", [0, -1, verify.MAX_SAMPLES + 1, 2.5, True])
@pytest.mark.parametrize("check", SAMPLED_CHECKS.values(), ids=SAMPLED_CHECKS)
def test_a_sampled_check_refuses_a_sample_count_before_drawing(check, samples, warped4, monkeypatch):
    from folsub import manifolds

    def no_draw(*args, **kwargs):
        raise AssertionError("points were drawn for a sample count outside 1..MAX_SAMPLES")

    monkeypatch.setattr(manifolds.ChartManifold, "random_points", no_draw)
    with pytest.raises(ConfigError, match=f"samples {samples!r} must be a positive integer <= {verify.MAX_SAMPLES}"):
        check(warped4, samples)


@pytest.mark.parametrize("samples", [0, -1])
def test_the_umbilical_check_refuses_a_count_below_one(samples):
    # A count below 1 draws nothing, and nothing drawn is no pass.
    with pytest.raises(ConfigError, match=f"samples {samples} must be a positive integer"):
        verify.verify_umbilical_reduction(samples=samples)
    assert verify.verify_umbilical_reduction(samples=1).verdict == "pass"


def test_the_leaf_checks_of_a_run_share_one_leaf_pass(warped4, tilted, monkeypatch):
    from folsub import foliation

    for s in (warped4, tilted):
        checks = ["leaf:1", "reeb", "leaf:0", "leaf:1"]
        alone = [verify.verify_leaf(s, r) for r in (1, 0, 1)]
        builds, real_init = [], foliation.Geometry.__init__

        def counting_init(self, fol, points, order=2):
            builds.append(order)
            real_init(self, fol, points, order)

        with monkeypatch.context() as m:
            m.setattr(foliation.Geometry, "__init__", counting_init)
            # on a copy, whose leaf grid holds no geometry yet
            reports = verify.run_checks(dataclasses.replace(s), checks, tolerance=1e-7)
        lgrid = quadrature.leaf_grid(s.manifold, s.leaf, tuple(s.default_grid[ax] for ax in s.leaf.axes))
        assert builds.count(2) == -(-lgrid.count // quadrature.CHUNK)  # one Geometry(order=2) per leaf chunk
        leaf_reports = [reports[0], reports[2], reports[3]]
        strip = lambda rep: (rep.formula_id, repr(rep.residual), rep.tolerance, rep.verdict, rep.grid, rep.terms)
        assert [strip(r) for r in leaf_reports] == [strip(r) for r in alone]


def test_a_run_grid_sets_the_leaf_counts(warped4, heisenberg):
    grid = grid_for(warped4.manifold, (4, 8, 8, 16))
    leaf, reeb = verify.run_checks(warped4, ["leaf:0", "reeb"], grid, tolerance=1e-7)
    assert leaf.grid["axes"] == [8, 8] and reeb.grid["axes"] == [4, 8, 8, 16]
    # only the counts on the leaf's axes 1 and 2 set the leaf grid
    assert repr(leaf.residual) == repr(_grid_check(warped4, "leaf:0", [1, 8, 8, 1], 1e-7).residual)
    with pytest.raises(ValueError, match="positive node count per axis"):
        verify.run_checks(warped4, ["leaf:0"], [8])
    # the single node of an invariant-frame leaf takes no counts
    strip = lambda rep: (repr(rep.residual), rep.grid)
    assert strip(verify.run_checks(heisenberg, ["leaf:0"], [8, 8])[0]) == strip(verify.verify_leaf(heisenberg, 0))


def test_closed_form_c_flat(flat):
    r = _grid_check(flat, "closed-form-c")
    assert r.verdict == "pass"
    assert abs(r.residual) <= 1e-9
    assert abs(r.terms["total_sigma_0"] - flat.volume) < 1e-12


def test_closed_form_c_flat_even_leaf_dimension(flat_wide):
    # n = 3 keeps the odd-r chain; build a flat torus with n = 2 for the closed form
    from folsub.scenarios import build_flat_torus

    s = build_flat_torus(m=4, n=2)
    r = _grid_check(s, "closed-form-c")
    assert r.verdict == "pass"


def test_closed_form_c_round_s3_records_violation(round_s3):
    r = _grid_check(round_s3, "closed-form-c")
    assert r.verdict == "inadmissible"
    # the r = 0 recursion step demands 2 sigma_2 totals = 2 vol, but sigma_2 = 0
    assert abs(r.residual - 2.0 * round_s3.volume) <= 1e-6


def test_closed_form_c_not_declared(warped4):
    r = _grid_check(warped4, "closed-form-c")
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
    with pytest.raises(ValueError):  # one order out of range in a batch
        verify.umbilical_reduction_residual(4, np.array([0, 3, 4]), 0.5, 0.1, 0.1)
    with pytest.raises(ValueError):
        verify.umbilical_reduction_residual(4, np.array([-1, 0]), 0.5, 0.1, 0.1)


def test_sigma2_image(flat, warped4, heisenberg):
    r = _grid_check(flat, "sigma2-image")
    assert r.verdict == "info"
    assert r.terms["sigma2_min"] == r.terms["sigma2_max"] == 0.0

    r = _grid_check(heisenberg, "sigma2-image")
    assert r.terms["sigma2_min"] == r.terms["sigma2_max"] == 0.0

    r = _grid_check(warped4, "sigma2-image")
    assert r.terms["sigma2_min"] <= 0.0 < r.terms["sigma2_max"]
    # with a small positive c the witnessed interval contains (0, c]
    r = _grid_check(warped4, "sigma2-image:0.01")
    assert r.terms["interval_witnessed"] == 1.0


def test_sigma2_image_is_independent_of_the_chunk_size(warped4, tilted, monkeypatch):
    from folsub import quadrature

    for s in (warped4, tilted):
        grid = verify._grid(s)
        monkeypatch.setattr(quadrature, "CHUNK", grid.count)
        whole = _grid_check(s, "sigma2-image:0.01", grid)
        monkeypatch.setattr(quadrature, "CHUNK", 512)
        chunked = _grid_check(s, "sigma2-image:0.01", grid)
        assert grid.count > 512
        assert chunked.terms == whole.terms


def test_sigma2_image_shares_the_grid_pass_of_the_integral_checks(warped4, tilted):
    for s in (warped4, tilted):
        shared = verify.verify_grid_checks(s, ["main:1", "sigma2-image:0.01", "reeb"])[1]
        alone = _grid_check(s, "sigma2-image:0.01")
        assert shared.terms == alone.terms and shared.grid == alone.grid
        assert shared.verdict == "info" and shared.grid["c"] == 0.01


def test_curvature_trace_kernel_and_leaf_integrand_match_the_code_they_replaced(catalog):
    from folsub.foliation import Geometry
    from helpers import div_F_newton_formula_per_basis, leaf_integrand_from_main_terms, z_curvature_loop

    for s in catalog.values():
        geom = Geometry(s.fol, s.manifold.random_points(np.random.default_rng(61), 20), order=2)
        for r in range(s.n):
            terms = verify._main_terms(geom, r)
            assert np.array_equal(terms["z_curvature"], z_curvature_loop(geom, r, geom.RP)), s.name
            assert np.array_equal(terms["z_curvature_riemannian"], z_curvature_loop(geom, r, geom.R)), s.name
            assert np.array_equal(geom.div_F_newton_formula(r), div_F_newton_formula_per_basis(geom, r)), s.name
            leaf = geom.leaf_formula_integrand(r) - leaf_integrand_from_main_terms(geom, r)
            assert np.max(np.abs(leaf)) <= 1e-13, s.name


def test_closed_form_overflow_raises_evaluation_error(warped4):
    # The overflows are on purpose: silenced as cli.run silences them, they must still raise.
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(EvaluationError):
        verify.verify_closed_form_einstein(2, 1e308, warped4.volume)  # both sides overflow to inf
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(EvaluationError):
        verify.verify_closed_form_einstein(4, 1e200, 1.0)  # the closed form's power overflows


def test_a_grid_over_a_manifold_of_another_dimension_is_refused(warped3, warped4):
    for s, other in ((warped4, warped3), (warped3, warped4)):
        grid = grid_for(other.manifold, other.default_grid)
        message = f"^a grid of {other.manifold.dim}-dimensional nodes is not over {s.name}, of dimension {s.manifold.dim}$"
        with pytest.raises(ConfigError, match=message):
            verify.verify_reeb(s, grid)
        with pytest.raises(ConfigError, match=message):
            verify.verify_grid_checks(s, ["leaf:0"], grid)  # the leaf pass reads the grid's counts


def test_divergence_identities_hold_at_every_grid_node(warped4, tilted):
    from folsub.foliation import Geometry, divx_residual

    for s in (warped4, tilted):
        grid = grid_for(s.manifold, s.default_grid)
        geom = Geometry(s.fol, grid.nodes, order=1)
        assert np.max(np.abs(geom.div_F(geom.N) + geom.sigma.value[..., 1])) <= 1e-9
        rng = np.random.default_rng(19)
        X = verify.random_distribution_field(s.fol, rng)
        assert divx_residual(s.fol, X, grid.nodes) <= 1e-9


def test_leaf_formula_on_homogeneous_backends(heisenberg, round_s3):
    rep = verify.verify_leaf(heisenberg, 0)
    assert abs(rep.residual) <= 1e-12  # everything vanishes pointwise
    rep = verify.verify_leaf(round_s3, 0)
    assert rep.verdict == "inadmissible"
    assert abs(rep.residual - (-2.0) * 2 * np.pi) <= 1e-9  # integrand -2 over a 2pi circle
    # leaf axis counts mean nothing on the single invariant node
    assert _grid_check(round_s3, "leaf:0", [8, 8]).residual == rep.residual


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
    grid = verify._grid(warped4)  # twice on one grid object: the second call reads its plan
    for rep in (verify.verify_main(warped4, 0, grid), verify.verify_main(warped4, 0, grid)):
        assert (rep.residual, rep.tolerance, rep.terms, rep.grid) == (a.residual, a.tolerance, a.terms, a.grid)


def test_convergence_gap(warped3):
    grid = verify._grid(warped3)
    coarse = verify.verify_reeb(warped3, grid).residual
    fine = verify.verify_reeb(warped3, quadrature.refined(warped3.manifold, grid)).residual
    assert abs(coarse - fine) < 0.1 * 1e-7


@pytest.mark.parametrize("tolerance", [None, 1e-7])
def test_shared_grid_pass_reports_equal_their_own_checks(catalog, tolerance, tmp_path):
    # One verify_grid_checks call, the leaf:r checks mixed in among those over M.
    from folsub import cli

    strip = lambda rep: {**dataclasses.asdict(rep), "wall_time_s": None}
    for name in ("warped_torus_4", "tilted_torus_4", "flat_torus", "heisenberg"):
        s = catalog[name]
        checks = ["main:0", "leaf:0", "divergence-selftest", "closed-form-c", "reeb"]
        checks += [f"{base}:{r}" for r in range(1, s.n) for base in ("main", "leaf")]
        config = cli.RunConfig(scenario=name, checks=checks, tolerance=tolerance, output=str(tmp_path / "r.json"))
        status, shared = cli.run(config, scenario=s)
        assert status == 0
        alone = [_grid_check(s, check, tolerance=tolerance) for check in checks]
        assert [r.formula_id for r in shared] == checks
        assert [strip(r) for r in shared] == [strip(r) for r in alone], name


def test_leaf_checks_alone_build_no_grid_over_m_and_run_no_self_test(warped4, heisenberg, monkeypatch):
    # On the 2**20-node run grid, the leaf:r checks integrate over 8 x 8 leaf nodes only.
    from folsub import foliation

    for s, grid in ((warped4, [8, 8, 8, 2048]), (dataclasses.replace(heisenberg), None)):  # a copy: no check read its leaf grid
        calls, real_init = [], foliation.Geometry.__init__

        def counting_init(self, fol, points, order=2):
            calls.append(f"Geometry(order={order})")
            real_init(self, fol, points, order)

        def counted(name, real):
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(foliation.Geometry, "__init__", counting_init)
            for name in ("_grid", "grid_for", "_selftest_fields", "calibrate_tolerance"):
                m.setattr(verify, name, counted(name, getattr(verify, name)))
            reports = verify.run_checks(s, ["leaf:1", "leaf:0"][-s.n :], grid)
        assert calls == ["Geometry(order=2)"], s.name  # one leaf chunk
        assert all(rep.grid["points"] <= 64 for rep in reports)


def test_parse_check_defaults_for_every_table_entry():
    for name, check in verify.CHECKS.items():
        assert verify.parse_check(name) == (name, None if check.arg is None else check.arg[1])
        assert verify.parse_check(name, n=1) == verify.parse_check(name)
        assert (check.grid is None) != (check.run is None), name  # a grid check, or one run by a function
    assert verify.parse_check("main:2", n=3) == ("main", 2)
    assert verify.parse_check("leaf:0") == ("leaf", 0)
    assert verify.parse_check("closed-form-einstein:-2.5") == ("closed-form-einstein", -2.5)
    assert verify.parse_check("sigma2-image:0.01") == ("sigma2-image", 0.01)


@pytest.mark.parametrize(
    "name, n, message",
    [
        ("frobnicate", None, "unknown check"),
        ("main0", None, "unknown check"),
        (":1", None, "unknown check"),
        ("reeb:1", None, "takes no argument"),
        ("pointwise:", None, "takes no argument"),
        ("main:x", None, "integer order"),
        ("leaf:1.0", None, "integer order"),
        ("main:", None, "integer order"),
        ("closed-form-einstein:inf", None, "finite number"),
        ("closed-form-einstein:1e400", None, "finite number"),
        ("sigma2-image:nan", None, "finite number"),
        ("sigma2-image:x", None, "finite number"),
        ("main:1", 1, "outside 0..0"),
        ("leaf:-1", 2, "outside 0..1"),
        ("main:1" + "0" * 400, 4, "outside 0..3"),
    ],
)
def test_parse_check_rejects(name, n, message):
    with pytest.raises(ConfigError, match=message):
        verify.parse_check(name, n)


def test_grid_checks_reject_a_check_of_another_kind(flat):
    with pytest.raises(ConfigError, match="not a grid check"):
        verify.verify_grid_checks(flat, ["reeb", "codazzi"])


def test_divergence_split_builds_one_geometry(warped4, monkeypatch):
    from folsub import foliation

    builds = []
    real_init = foliation.Geometry.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(foliation.Geometry, "__init__", counting_init)
    assert verify.check_divergence_split(warped4, samples=10).verdict == "pass"
    assert len(builds) == 1


def test_nonfinite_residual_raises_instead_of_passing():
    # sin of theta amplitudes near 1e160 loses every digit: the Codazzi
    # residual is NaN at every point, and max() would have dropped it
    with np.errstate(over="ignore", invalid="ignore"):
        steep = scn.build_tilted_torus(theta=scn.sine_profile(1e160))
    with np.errstate(all="ignore"), pytest.raises(EvaluationError, match="codazzi residual is not finite"):
        verify.check_codazzi(steep, samples=5)
    with np.errstate(all="ignore"), pytest.raises(EvaluationError, match="non-finite sigma_2 sample of sigma2-image"):
        _grid_check(steep, "sigma2-image")
    with pytest.raises(EvaluationError, match="residual is not finite"):
        verify.make_report("reeb", float("nan"), 1e-7, 0.0)

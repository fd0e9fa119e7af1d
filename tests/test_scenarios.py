import numpy as np
import pytest

from folsub import foliation as fln
from folsub import scenarios as scn
from folsub.errors import ConfigError, ConstructionError, UnsupportedLeafError

RNG = np.random.default_rng(71)


def _computed_quantity(s, key, pts):
    if key == "shape_operator":
        return fln.Geometry(s.fol, pts, order=1).A.value
    if key == "curvature_Z":
        return fln.Geometry(s.fol, pts, order=1).Z.value
    if key == "ricci_p_NN":
        geom = fln.Geometry(s.fol, pts, order=2)
        return geom.ricci_p(geom.N.value)
    if key == "riemann_ricci_NN":
        geom = fln.Geometry(s.fol, pts, order=2)
        return np.trace(geom._operator_matrix(geom.R, geom.N.value), axis1=-2, axis2=-1)
    if key == "admissibility_residual":
        return fln.Geometry(s.fol, pts, order=1).admissibility_residual()
    if key == "mean_curvature_perp_norm":
        geom = fln.Geometry(s.fol, pts, order=1)
        H = geom.Hperp.value
        return float(np.max(np.sqrt(np.maximum(np.einsum("...ij,...i,...j->...", geom.g.value, H, H), 0.0))))
    if key == "volume":
        return s.volume
    if key == "main_residual_r0":
        from folsub.verify import verify_main

        return verify_main(s, 0).residual
    raise KeyError(key)


def test_expected_values_rederived_at_random_points(catalog):
    # every closed-form fixture must match the generic stack
    for s in catalog.values():
        pts = s.manifold.random_points(RNG, 100)
        for key, exp in s.expected.items():
            got = _computed_quantity(s, key, pts)
            want = exp.value(pts) if callable(exp.value) else exp.value
            assert np.max(np.abs(np.asarray(got) - np.asarray(want))) <= 1e-8, (s.name, key)
            assert exp.note


def test_flags_match_measured_residuals(catalog):
    for s in catalog.values():
        r = s.residuals
        assert s.flags.harmonic_perp == (r["mean_curvature_perp_max"] <= 1e-9)
        assert s.flags.admissible == (r["admissibility_max"] <= 1e-8)
        assert s.flags.p_curvature_invariant == (r["p_curvature_invariance"] <= 1e-9)
        assert s.flags.umbilical == (r["umbilical_deviation"] <= 1e-10)
        if s.flags.satisfies_pcurv_c:
            assert r["pcurv_constant"] <= 1e-9
        assert r["frame_orthonormality"] <= 1e-12
        assert r["integrability"] <= 1e-9
        assert r["shape_asymmetry"] <= 1e-10


def test_catalog_names():
    names = scn.catalog_names()
    assert names == sorted(names)
    for expected in ("flat_torus", "warped_torus_4", "round_s3", "tilted_torus_4", "heisenberg"):
        assert expected in names
    with pytest.raises(ConfigError, match=r"^unknown scenario 'no_such_scenario'; known: flat_torus, heisenberg, "):
        scn.build("no_such_scenario")


def test_flat_torus_validation():
    with pytest.raises(ValueError):
        scn.build_flat_torus(m=3, n=2)  # complement would be empty
    with pytest.raises(ValueError):
        scn.build_flat_torus(m=3, n=0)


def test_warp_positivity_enforced():
    with pytest.raises(ConstructionError, match="positive"):
        scn.build_warped_torus(3, a=scn.fourier_profile(const=0.5, cos1=1.0))
    with pytest.raises(ValueError):
        scn.build_warped_torus(5)


def test_tilted_reduces_to_warped_at_zero_amplitude(warped4):
    s0 = scn.build_tilted_torus(theta=scn.sine_profile(0.0))
    pts = s0.manifold.random_points(RNG, 50)
    geom0 = fln.Geometry(s0.fol, pts, order=1)
    A0 = geom0.A.value
    A1 = fln.Geometry(warped4.fol, pts, order=1).A.value
    assert np.max(np.abs(A0 - A1)) < 1e-14
    Z0 = geom0.Z.value
    assert np.max(np.abs(Z0)) < 1e-14
    assert s0.flags.harmonic_perp and s0.flags.admissible


def test_tilted_flags_are_measured_not_assumed(tilted):
    assert tilted.flags.harmonic_perp
    assert tilted.flags.admissible
    assert not tilted.flags.p_curvature_invariant
    assert not tilted.flags.umbilical
    assert tilted.leaves and tilted.leaves[0].fixed[3] == 0.0


def test_tilted_without_closed_leaf_declares_none():
    # a profile that never passes through zero rotation leaves no coordinate leaf
    s = scn.build_tilted_torus(theta=scn.fourier_profile(const=0.2, sin1=0.1))
    assert s.leaves == ()
    with pytest.raises(UnsupportedLeafError):
        s.leaf()


def test_declared_flag_contradiction_rejected():
    # declaring the nonharmonic torus harmonic must fail re-verification
    from folsub.distribution import DistributionSpec
    from folsub.foliation import FoliationStructure
    from folsub.manifolds import ChartManifold

    a, c = scn.TWO_PLUS_COS, scn.TWO_PLUS_SIN

    def metric(coords):
        av, cv = a(coords[2]), c(coords[2])
        return [[cv * cv, 0.0, 0.0], [0.0, av * av, 0.0], [0.0, 0.0, 1.0]]

    man = ChartManifold(dim=3, periods=(2 * np.pi,) * 3, metric=metric, name="bad_claim")
    leaf_frame = lambda coords: [[0.0, 1.0 / a(coords[2]), 0.0]]
    normal = lambda coords: [0.0, 0.0, 1.0]
    perp = lambda coords: [[1.0 / c(coords[2]), 0.0, 0.0]]
    dist = DistributionSpec(man, 2, lambda coords: leaf_frame(coords) + [normal(coords)], perp)
    fol = FoliationStructure(dist, leaf_frame, normal)
    with pytest.raises(ConstructionError, match="harmonic_perp"):
        scn._finalize(
            "bad_claim",
            fol,
            declared=dict(harmonic_perp=True),
            expected={},
            leaves=(),
            default_grid=(4, 4, 16),
        )


def test_scenario_leaf_lookup(warped4, catalog):
    assert warped4.leaf().name == "y-torus"
    assert warped4.leaf().axes == (1, 2)
    assert all(len(s.leaves) <= 1 for s in catalog.values())  # the one leaf the leaf:r checks integrate over


def test_umbilical_variant_flag(warped4_umbilical):
    assert warped4_umbilical.flags.umbilical
    A = fln.Geometry(warped4_umbilical.fol, warped4_umbilical.manifold.random_points(RNG, 20), order=1).A.value
    H = np.trace(A, axis1=-2, axis2=-1) / 2
    assert np.max(np.abs(A - H[..., None, None] * np.eye(2))) < 1e-13


def test_volume_against_reduced_integral(catalog):
    for s in catalog.values():
        exp = s.expected.get("volume")
        if exp is not None:
            assert abs(s.volume - exp.value) <= 1e-8 * max(1.0, abs(exp.value))

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folsub import cli
from folsub import foliation as fln
from folsub import scenarios as scn
from folsub import verify
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
    assert tilted.leaf is not None and tilted.leaf.fixed[3] == 0.0


def test_tilted_without_closed_leaf_declares_none():
    # a profile that never passes through zero rotation leaves no coordinate leaf
    s = scn.build_tilted_torus(theta=scn.fourier_profile(const=0.2, sin1=0.1))
    assert s.leaf is None
    with pytest.raises(UnsupportedLeafError, match="tilted_torus_4 declares no closed leaves"):
        verify.verify_grid_checks(s, ["leaf:0"])


def test_declared_flag_contradiction_rejected():
    # declaring the nonharmonic torus harmonic must fail re-verification
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
    fol = FoliationStructure(man, 1, leaf_frame, normal, perp)
    with pytest.raises(ConstructionError, match="harmonic_perp"):
        scn._finalize(
            "bad_claim",
            fol,
            declared=dict(harmonic_perp=True),
            expected={},
            leaf=None,
            default_grid=(4, 4, 16),
        )


# Perturbations of a foliation whose frames no longer split as n leaf-frame
# vectors, N and m - n - 1 D-perp vectors of length m; each maps warped_torus_4's
# foliation (n = 2, m = 4) to a broken one.
BROKEN_FRAMES = {
    "n too small": lambda f: replace(f, n=1),
    "n too large": lambda f: replace(f, n=3),
    "n out of range": lambda f: replace(f, n=4),
    "dropped leaf vector": lambda f: replace(f, leaf_frame=lambda c: f.leaf_frame(c)[:1]),
    "extra leaf vector": lambda f: replace(f, leaf_frame=lambda c: [*f.leaf_frame(c), f.normal(c)]),
    "dropped D-perp vector": lambda f: replace(f, frame_Dperp=lambda c: []),
    "extra D-perp vector": lambda f: replace(f, frame_Dperp=lambda c: [*f.frame_Dperp(c), f.normal(c)]),
    "short normal": lambda f: replace(f, normal=lambda c: f.normal(c)[:-1]),
    "short leaf vectors": lambda f: replace(f, leaf_frame=lambda c: [v[:-1] for v in f.leaf_frame(c)]),
    "long D-perp vector": lambda f: replace(f, frame_Dperp=lambda c: [[*v, 0.0] for v in f.frame_Dperp(c)]),
}


@pytest.mark.parametrize("broken", BROKEN_FRAMES.values(), ids=BROKEN_FRAMES.keys())
def test_a_frame_of_the_wrong_shape_is_refused(broken, warped4):
    with pytest.raises((ConstructionError, ValueError)):
        s = scn._finalize("broken", broken(warped4.fol), {}, {}, None, warped4.default_grid)
        verify.run_checks(s, ["reeb", "main:0"])  # reached only if the construction let it through
    # a directly built Geometry reads its frames through the same check
    with pytest.raises((ConstructionError, ValueError)):
        geom = fln.Geometry(broken(warped4.fol), warped4.manifold.random_points(RNG, 4), order=1)
        geom.e, geom.N, geom.xis
    # and so does the pointwise battery, whose random D-fields call the closures themselves
    with pytest.raises((ConstructionError, ValueError)):
        verify.run_checks(replace(warped4, fol=broken(warped4.fol)), ["pointwise"])


def _perturbed(out: list, how: str, i: int, m: int) -> list:
    """A frame's vectors, or the metric's rows, ``out`` perturbed by ``how``; a ragged perturbation cuts vector ``i``."""
    return {
        "drop a vector": lambda: out[:-1],
        "add a vector": lambda: [*out, [0.0] * m],
        "short vectors": lambda: [v[:-1] for v in out],
        "long vectors": lambda: [[*v, 0.0] for v in out],
        "ragged rows": lambda: [v[:-1] if j == i % len(out) else v for j, v in enumerate(out)],
        "smaller square": lambda: [v[:-1] for v in out[:-1]],
        "larger square": lambda: [*([*v, 0.0] for v in out), [0.0] * m + [1.0]],
    }[how]()


FRAME_PERTURBATIONS = [
    "drop a vector", "add a vector", "short vectors", "long vectors", "ragged rows", "smaller square", "larger square"
]
NORMAL_PERTURBATIONS = ["short vectors", "long vectors", "ragged rows"]  # the normal is one vector


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_no_closure_of_the_wrong_shape_escapes_a_run(catalog, data):
    # A closure of a catalog scenario perturbed, or n moved by one: either the
    # foliation refuses n itself, or the run exits 2 with no report.  The
    # metric is a closure on the chart backend only; an invariant frame is
    # orthonormal by construction.
    s = catalog[data.draw(st.sampled_from(sorted(catalog)), label="scenario")]
    m = s.manifold.dim
    closures = ["leaf_frame", "normal", "frame_Dperp", "n"] + (["metric"] if hasattr(s.manifold, "metric") else [])
    closure = data.draw(st.sampled_from(closures), label="closure")
    if closure == "n":
        try:
            fol = replace(s.fol, n=s.n + data.draw(st.sampled_from([-1, 1]), label="n moved by"))
        except ValueError:
            return
    else:
        how = data.draw(st.sampled_from(NORMAL_PERTURBATIONS if closure == "normal" else FRAME_PERTURBATIONS), label="how")
        i = data.draw(st.integers(0, m - 1), label="i")
        if closure == "normal" and how == "ragged rows":
            broken = lambda out: [[c] if j == i else c for j, c in enumerate(out)]
        elif closure == "normal":
            broken = lambda out: _perturbed([out], how, i, m)[0]
        else:
            broken = lambda out: _perturbed(out, how, i, m)
        if closure == "metric":
            metric = s.manifold.metric
            fol = replace(s.fol, manifold=replace(s.manifold, metric=lambda c: broken(metric(c))))
        else:
            given_closure = getattr(s.fol, closure)
            fol = replace(s.fol, **{closure: lambda c: broken(given_closure(c))})
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "r.json"
        config = cli.RunConfig(scenario=s.name, checks=["reeb", "main:0", "pointwise"], output=str(out))
        assert cli.run(config, scenario=replace(s, fol=fol)) == (2, [])
        assert not out.exists()


def test_a_leaf_frame_count_that_disagrees_with_n_names_the_closure(warped4):
    message = r"^leaf_frame gives shape \(2, 4\) per point, not \(1, 4\)"
    with pytest.raises(ConstructionError, match=message):
        scn._finalize("mismatch", replace(warped4.fol, n=1), {}, {}, None, (4, 4, 4, 32))
    geom = fln.Geometry(replace(warped4.fol, n=1), warped4.manifold.random_points(RNG, 4), order=1)
    with pytest.raises(ConstructionError, match=message):
        geom.A


def test_scenario_leaf_lookup(warped4):
    assert warped4.leaf.name == "y-torus"
    assert warped4.leaf.axes == (1, 2)


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

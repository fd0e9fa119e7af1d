"""Metamorphic oracles: a change of the structure under which every term transforms in a known way.

Negating the unit normal N, the last vector of D's frame, leaves
the leaves, D, the projector P and the projected curvature R^P as they are,
and negates the shape operator A, so sigma_r -> (-1)^r sigma_r and
T_r -> (-1)^r T_r, while Z = P nabla_N N is even in N.  So every term of the
main formula at order r, and of the compact-leaf one, scales by (-1)^r,
except the integral of |Z|^2 (``z_norm_sq_integral``), which holds no A, and
the ``reeb`` integral of sigma_1 changes sign.  Negation is exact in floating
point and commutes with the exact reduction, so the integrals match bit for
bit, except that a zero may change its sign: values are compared as floats.

Negating the leaf frame instead (``rotated_foliation(flip=True)``) changes
neither N nor A, whose entries carry one factor of e_i and one of e_j.

Scaling the metric, g -> lambda^2 g with the three frames scaled by
1/lambda to stay orthonormal, keeps the Levi-Civita connection, the leaves,
D, P and the curvature tensor R^P as a (1, 3) tensor, and divides A by
lambda: sigma_k and T_k scale by lambda^-k, Z's leaf components by
lambda^-1, each normal-curvature trace by lambda^-2, and the volume by
lambda^m.  So every term of the main formula at order r scales by
lambda^(m - r - 2), and the integral of |Z|^2 by lambda^(m - 2).  The grid
and its nodes are the same, so they match to rounding; a term at the
rounding level is noise, which does not scale.

Translating the chart, z -> z + s on ``tilted_torus_4`` with every profile
shifted to match, is an isometry of the torus onto itself that carries one
structure to the other.  Every integral over M is unchanged; on the
trapezoid grid, whose nodes the shift moves unless s is a multiple of the
node spacing, they agree to the grid's (spectral) truncation, far below
the integral tolerances.
"""

from dataclasses import replace

import numpy as np
import pytest

from folsub import quadrature, scenarios, verify
from folsub.foliation import Geometry
from helpers import rotated_foliation

CATALOG = scenarios.catalog_names()
CHARTS = ["flat_torus", "tilted_torus_4", "warped_torus_3", "warped_torus_4", "warped_torus_4_umbilical"]


def _normal_flipped(scenario):
    """The scenario with N negated."""
    fol = scenario.fol
    normal = lambda coords: [(-1.0) * c for c in fol.normal(coords)]
    flipped = replace(fol, normal=normal, integrability_witness=fol.integrability_witness + " (normal flipped)")
    return replace(scenario, fol=flipped)


def _points(scenario):
    return scenario.manifold.random_points(np.random.default_rng(11), 20)


@pytest.mark.parametrize("name", CATALOG)
def test_a_normal_flip_scales_sigma_r_by_its_sign_and_keeps_p_rp_and_z(name, catalog):
    s = catalog[name]
    base, flipped = (Geometry(t.fol, _points(s), order=1) for t in (s, _normal_flipped(s)))
    assert np.array_equal(flipped.N.value, -base.N.value)
    for r in range(s.n + 1):
        assert np.array_equal(flipped.sigma.value[..., r], (-1.0) ** r * base.sigma.value[..., r]), r
    assert np.array_equal(flipped.P.value, base.P.value)
    assert np.array_equal(flipped.RP, base.RP)
    assert np.array_equal(flipped.Z.value, base.Z.value)


@pytest.mark.parametrize("name", CATALOG)
def test_a_normal_flip_scales_every_integral_by_its_sign(name, catalog):
    s = catalog[name]
    checks = ["reeb", *(f"main:{r}" for r in range(s.n))]
    signs = [-1.0, *((-1.0) ** r for r in range(s.n))]
    base, flipped = (verify.verify_grid_checks(t, checks, tolerance=1e-7) for t in (s, _normal_flipped(s)))
    for check, sign, a, b in zip(checks, signs, base, flipped):
        assert b.residual == sign * a.residual, check
        assert b.terms.keys() == a.terms.keys(), check
        for key, value in a.terms.items():
            assert b.terms[key] == (1.0 if key == "z_norm_sq_integral" else sign) * value, (check, key)
    leaf_checks = [f"leaf:{r}" for r in range(s.n)]
    base, flipped = (verify.verify_grid_checks(t, leaf_checks, tolerance=1e-7) for t in (s, _normal_flipped(s)))
    for r, (a, b) in enumerate(zip(base, flipped)):
        assert b.residual == (-1.0) ** r * a.residual, f"leaf:{r}"


@pytest.mark.parametrize("name", CATALOG)
def test_a_leaf_frame_flip_keeps_the_shape_operator(name, catalog):
    s = catalog[name]
    base, flipped = (Geometry(fol, _points(s), order=1) for fol in (s.fol, rotated_foliation(s.fol, flip=True)))
    assert np.array_equal(flipped.e.value, -base.e.value)
    assert repr(flipped.A.value) == repr(base.A.value)
    assert repr(flipped.sigma.value) == repr(base.sigma.value)


def _shifted(const=0.0, cos1=0.0, sin1=0.0, s=0.0):
    """The first-harmonic profile f(z + s), for f = const + cos1 cos z + sin1 sin z."""
    c, t = np.cos(s), np.sin(s)
    return scenarios.fourier_profile(const, cos1 * c + sin1 * t, sin1 * c - cos1 * t)


@pytest.mark.parametrize("shift", [0.37, 1.0, 5 * 2 * np.pi / 48])
def test_a_chart_translation_keeps_every_integral_over_m(shift):
    def tilted(s):
        theta, a, b = _shifted(sin1=0.3, s=s), _shifted(2.0, cos1=1.0, s=s), _shifted(2.0, sin1=1.0, s=s)
        return scenarios.build_tilted_torus(theta=theta, a=a, b=b)

    checks = ["reeb", "main:0", "main:1"]
    base, moved = (verify.verify_grid_checks(tilted(s), checks, tolerance=1e-7) for s in (0.0, shift))
    for check, a, b in zip(checks, base, moved):
        assert abs(b.residual - a.residual) <= 1e-11, check
        assert b.terms.keys() == a.terms.keys(), check
        for key, value in a.terms.items():
            assert abs(b.terms[key] - value) <= 1e-11, (check, key)


def _homothetic(scenario, lam):
    """The scenario under g -> lam^2 g, each frame vector scaled by 1/lam, with its flags measured again."""
    fol, man = scenario.fol, scenario.manifold
    shrink = lambda v: [(1.0 / lam) * c for c in v]
    scaled = replace(
        fol,
        manifold=replace(man, metric=lambda coords: [[lam**2 * gij for gij in row] for row in man.metric(coords)]),
        leaf_frame=lambda coords: [shrink(v) for v in fol.leaf_frame(coords)],
        normal=lambda coords: shrink(fol.normal(coords)),
        frame_Dperp=lambda coords: [shrink(v) for v in fol.frame_Dperp(coords)],
    )
    c = scenario.flags.pcurv_c
    declared = {} if c is None else {"pcurv_c": c / lam**2}
    return scenarios._finalize(scenario.name, scaled, declared, {}, scenario.leaf, scenario.default_grid)


# The main-formula terms above the rounding level on the default grids; every other term is noise.
SCALED_TERMS = {
    "tilted_torus_4": [
        ("main:0", "z_norm_sq_integral"),
        ("main:1", "normal_curvature_term"),
        ("main:1", "z_curvature_term"),
        ("main:1", "z_norm_sq_integral"),
    ],
    "warped_torus_4_umbilical": [("main:0", "sigma_term"), ("main:0", "normal_curvature_term")],
}


@pytest.mark.parametrize("name", CHARTS)
def test_a_homothety_scales_each_main_term_by_its_weight_and_keeps_every_verdict(name, catalog):
    s = catalog[name]
    big, m = _homothetic(s, 2.0), s.manifold.dim
    grid = verify._grid(s)
    volume = quadrature.total_volume(s.manifold, grid)
    assert abs(quadrature.total_volume(big.manifold, grid) - 2.0**m * volume) <= 1e-12 * 2.0**m * volume
    assert verify.battery(big) == verify.battery(s)
    base, scaled = (verify.run_checks(t, verify.battery(s)) for t in (s, big))
    assert [(rep.formula_id, rep.verdict) for rep in scaled] == [(rep.formula_id, rep.verdict) for rep in base]
    scaled_terms = []
    for a, b in zip(base, scaled):
        check, _, r = a.formula_id.partition(":")
        for key, value in a.terms.items() if check == "main" else ():
            want = 2.0 ** (m - 2 if key == "z_norm_sq_integral" else m - int(r) - 2) * value
            if abs(value) >= 1e-6:
                assert abs(b.terms[key] - want) <= 1e-12 * abs(want), (a.formula_id, key)
                scaled_terms.append((a.formula_id, key))
    assert scaled_terms == SCALED_TERMS.get(name, [])


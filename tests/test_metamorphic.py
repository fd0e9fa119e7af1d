"""Metamorphic oracles: a change of the structure under which every term transforms in a known way.

Negating the unit normal N (and with it the D-frame's normal vector) leaves
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

from folsub import scenarios, verify
from folsub.foliation import FoliationStructure, Geometry
from helpers import rotated_foliation

CATALOG = scenarios.catalog_names()


def _normal_flipped(scenario):
    """The scenario with N, and the D-frame's last vector, negated: in the catalog D is spanned by the leaf frame, then N."""
    fol = scenario.fol
    normal = lambda coords: [(-1.0) * c for c in fol.normal(coords)]
    dist = replace(fol.dist, frame_D=lambda coords: fol.leaf_frame(coords) + [normal(coords)])
    flipped = FoliationStructure(dist, fol.leaf_frame, normal, fol.integrability_witness + " (normal flipped)")
    return replace(scenario, dist=dist, fol=flipped)


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

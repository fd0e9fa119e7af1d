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
    base, flipped = (verify.verify_leaf_checks(t, range(s.n), tolerance=1e-7) for t in (s, _normal_flipped(s)))
    for r, (a, b) in enumerate(zip(base, flipped)):
        assert b.residual == (-1.0) ** r * a.residual, f"leaf:{r}"


@pytest.mark.parametrize("name", CATALOG)
def test_a_leaf_frame_flip_keeps_the_shape_operator(name, catalog):
    s = catalog[name]
    base, flipped = (Geometry(fol, _points(s), order=1) for fol in (s.fol, rotated_foliation(s.fol, flip=True)))
    assert np.array_equal(flipped.e.value, -base.e.value)
    assert repr(flipped.A.value) == repr(base.A.value)
    assert repr(flipped.sigma.value) == repr(base.sigma.value)

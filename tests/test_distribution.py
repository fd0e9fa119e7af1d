import numpy as np
import pytest

from folsub import distribution as dst
from folsub import jets
from folsub.errors import ConstructionError, DomainError
from folsub.foliation import FoliationStructure, Geometry
from folsub.manifolds import ChartManifold
from folsub.scenarios import _finalize
from helpers import (
    constant_field,
    curvature_P,
    curvature_P_fields,
    d_frame,
    metric_inner,
    nabla_P,
    projector_jets_full_order,
    random_leaf_field,
    warp_a,
    warp_da,
)

RNG = np.random.default_rng(47)


def _projector(fol, p):
    """The projector onto D at the points p, from the closures' values."""
    coords = fol.manifold.seed(np.asarray(p, dtype=float), order=0)
    return dst.projector_jets(d_frame(fol, coords), jets.stack(fol.manifold.metric_jets(coords), coords)).value


def test_projector_flat_matrix(flat):
    P = _projector(flat.fol, flat.manifold.base_point())
    assert np.array_equal(P, np.diag([1.0, 1.0, 0.0]))


def test_projector_heisenberg_kills_complement(heisenberg):
    P = _projector(heisenberg.fol, heisenberg.manifold.base_point())
    assert np.array_equal(P @ np.array([0.0, 1.0, 0.0]), np.zeros(3))
    assert np.array_equal(P @ np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(P @ np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]))


def test_projector_invariants_on_catalog(catalog):
    for s in catalog.values():
        pts = s.manifold.random_points(RNG, 1000)
        geom = Geometry(s.fol, pts, order=0)
        P, g = geom.P.value, geom.g.value
        assert np.max(np.abs(P @ P - P)) <= 1e-12
        PG = np.einsum("...ki,...kj->...ij", P, g)  # lowered projector
        assert np.max(np.abs(PG - np.swapaxes(PG, -1, -2))) <= 1e-12


def test_projector_jets_match_full_order_product(catalog):
    for s in catalog.values():
        man = s.manifold
        pts = man.random_points(np.random.default_rng(12), 40)
        coords = man.seed(pts, order=2)
        g = man.metric_jets(coords)
        got = Geometry(s.fol, pts, order=2).P
        want = jets.stack(projector_jets_full_order(s.fol, coords, g), coords).at_order(1)
        assert got.order <= 1
        assert np.array_equal(got.value, want.value), s.name
        assert np.array_equal(got.grad, want.grad), s.name


def test_projector_rejects_bad_frame():
    man = ChartManifold(dim=3, periods=(1.0,) * 3, metric=lambda c: jets.mat_identity(3))
    fol = FoliationStructure(
        man,
        1,
        lambda coords: [[1.0, 0.0, 0.0]],
        lambda coords: [1.0, 1.0, 0.0],  # neither unit nor orthogonal to the leaf frame
        lambda coords: [[0.0, 0.0, 1.0]],
    )
    with pytest.raises(ConstructionError, match="frames not orthonormal"):
        _finalize("bad_frame", fol, {}, {}, None, (4, 4, 4))


def test_nabla_p_examples(flat, warped4, heisenberg):
    out = nabla_P(flat.fol, constant_field([1.0, 0.0, 0.0]), constant_field([0.0, 1.0, 0.0]), flat.manifold.base_point())
    assert np.max(np.abs(out.components)) == 0.0

    # Heisenberg: P nabla_X T = P(-Y/2) = 0
    p0 = heisenberg.manifold.base_point()
    out = nabla_P(heisenberg.fol, constant_field([1.0, 0.0, 0.0]), constant_field([0.0, 0.0, 1.0]), p0)
    assert np.max(np.abs(out.components)) == 0.0

    p = warped4.manifold.random_points(RNG)
    z = p[3]
    e1 = lambda coords: [0.0, 1.0 / (2.0 + jets.cos(coords[3])), 0.0, 0.0]
    N = lambda coords: [0.0, 0.0, 0.0, 1.0]
    out = nabla_P(warped4.fol, e1, N, p)
    want = np.zeros(4)
    want[1] = warp_da(z) / warp_a(z) ** 2  # (a'/a) e1 in coordinates
    assert np.max(np.abs(out.components - want)) < 1e-13


def test_nabla_p_metric_compatibility(warped4, tilted):
    for s in (warped4, tilted):
        man = s.manifold
        pts = man.random_points(RNG, 30)
        rng = np.random.default_rng(12)
        U = random_leaf_field(s.fol, rng)
        V = random_leaf_field(s.fol, rng)
        X = lambda coords: [1.0, jets.sin(coords[3]), 0.0, 1.0]
        coords = man.seed(pts, order=1)
        g = man.metric_jets(coords)
        f = metric_inner(g, U(coords), V(coords))
        Xarr = jets.stack(X(coords), coords).value
        lhs = np.einsum("...k,...k->...", Xarr, f.grad)
        dU = nabla_P(s.fol, X, U, pts).components
        dV = nabla_P(s.fol, X, V, pts).components
        garr = jets.stack(g, coords).value
        Uarr = jets.stack(U(coords), coords).value
        Varr = jets.stack(V(coords), coords).value
        rhs = np.einsum("...i,...ij,...j->...", dU, garr, Varr) + np.einsum(
            "...i,...ij,...j->...", Uarr, garr, dV
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_nabla_p_rejects_section_outside_distribution(flat):
    # third coordinate spans the complement for the flat scenario
    with pytest.raises(DomainError):
        nabla_P(flat.fol, constant_field([1.0, 0.0, 0.0]), constant_field([0.0, 0.0, 1.0]), flat.manifold.base_point())


def test_curvature_p_examples(flat, heisenberg, round_s3):
    out = curvature_P(
        flat.fol,
        constant_field([1.0, 0.0, 0.0]),
        constant_field([0.0, 1.0, 0.0]),
        constant_field([1.0, 0.0, 0.0]),
        flat.manifold.base_point(),
    )
    assert np.max(np.abs(out.components)) == 0.0

    X, T = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    out = curvature_P(heisenberg.fol, X, T, T, heisenberg.manifold.base_point())
    assert np.max(np.abs(out.components)) == 0.0

    e1, e2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    out = curvature_P(round_s3.fol, e1, e2, e2, round_s3.manifold.base_point())
    assert abs(out.components @ e1 - 2.0) < 1e-14


def test_curvature_p_rejects_v_outside_distribution(flat):
    with pytest.raises(DomainError):
        curvature_P(
            flat.fol,
            constant_field([1.0, 0.0, 0.0]),
            constant_field([0.0, 1.0, 0.0]),
            np.array([0.0, 0.0, 1.0]),
            flat.manifold.base_point(),
        )


def test_curvature_p_antisymmetries(catalog):
    for s in catalog.values():
        man = s.manifold
        pts = man.random_points(RNG, 100)
        geom = Geometry(s.fol, pts, order=2)
        RP, Parr, g = geom.RP, geom.P.value, geom.g.value
        rng = np.random.default_rng(3)
        X, Y = (rng.uniform(-1, 1, (100, man.dim)) for _ in range(2))
        # V, U random sections of D
        V = np.einsum("...ij,...j->...i", Parr, rng.uniform(-1, 1, (100, man.dim)))
        U = np.einsum("...ij,...j->...i", Parr, rng.uniform(-1, 1, (100, man.dim)))
        low = np.einsum("...lm,...lkij->...mkij", g, RP)
        r_xy = np.einsum("...mkij,...k,...i,...j,...m->...", low, V, X, Y, U)
        r_yx = np.einsum("...mkij,...k,...i,...j,...m->...", low, V, Y, X, U)
        assert np.max(np.abs(r_xy + r_yx)) < 1e-9
        r_vu = np.einsum("...mkij,...k,...i,...j,...m->...", low, U, X, Y, V)
        assert np.max(np.abs(r_xy + r_vu)) < 1e-9


def test_curvature_p_field_route_matches_tensor_route(catalog):
    for s in catalog.values():
        man = s.manifold
        p = man.random_points(np.random.default_rng(5))
        coords = man.seed(p, order=2)
        RP = Geometry(s.fol, p, order=2).RP
        e = s.fol.leaf_frame(coords)
        Nf = s.fol.normal
        Xf = lambda c: s.fol.leaf_frame(c)[0]
        Vf = Nf
        m = man.dim
        if s.n >= 2:
            Yf = lambda c: s.fol.leaf_frame(c)[1]
        else:
            Yf = Nf
            Vf = lambda c: s.fol.leaf_frame(c)[0]
        comps = curvature_P_fields(s.fol, Xf, Yf, Vf, coords)
        got = comps.value
        Xa, Ya, Va = (jets.stack(f(coords), coords).value for f in (Xf, Yf, Vf))
        want = np.einsum("...lkij,...k,...i,...j->...l", RP, Va, Xa, Ya)
        assert np.max(np.abs(got - want)) < 1e-10


def test_curvature_p_tensoriality_under_rescaled_extensions(warped4, tilted):
    # multiplying the extensions by functions equal to 1 at p must not move the value
    for s in (warped4, tilted):
        man = s.manifold
        p = man.random_points(np.random.default_rng(21))
        coords = man.seed(p, order=2)

        Xf = lambda c: s.fol.leaf_frame(c)[0]
        Yf = lambda c: s.fol.leaf_frame(c)[1]
        Vf = s.fol.normal

        def rescale(fld, axis, p0):
            def scaled(c):
                f = 1.0 + 0.5 * jets.sin(c[axis] - float(p0[axis]))
                return [f * comp for comp in fld(c)]

            return scaled

        base = curvature_P_fields(s.fol, Xf, Yf, Vf, coords).value
        scaled = curvature_P_fields(
            s.fol, rescale(Xf, 1, p), rescale(Yf, 3, p), rescale(Vf, 2, p), coords
        ).value
        assert np.max(np.abs(base - scaled)) < 1e-9


def test_mean_curvature_perp(catalog, nonharmonic):
    def norm(s, pts):
        geom = Geometry(s.fol, pts, order=1)
        H = geom.Hperp.value
        return float(np.max(np.sqrt(np.maximum(np.einsum("...ij,...i,...j->...", geom.g.value, H, H), 0.0))))

    for s in catalog.values():
        out = norm(s, s.manifold.random_points(RNG, 10))
        assert out <= dst.HARMONIC_TOL
        assert out <= 1e-9
    out = norm(nonharmonic, nonharmonic.manifold.random_points(RNG, 10))
    assert out > dst.HARMONIC_TOL
    assert out > 1e-2


def test_admissibility_residuals(catalog):
    want = {
        "flat_torus": 0.0,
        "warped_torus_3": 0.0,
        "warped_torus_4": 0.0,
        "warped_torus_4_umbilical": 0.0,
        "tilted_torus_4": 0.0,
        "heisenberg": 0.5,
        "round_s3": 1.0,
    }
    for name, s in catalog.items():
        got = Geometry(s.fol, s.manifold.random_points(RNG, 20), order=1).admissibility_residual()
        assert abs(got - want[name]) < 1e-12


def test_curvature_invariance_flags(catalog):
    for name, s in catalog.items():
        if name == "tilted_torus_4":
            assert not s.flags.p_curvature_invariant
            assert s.residuals["p_curvature_invariance"] > 1e-2
        else:
            assert s.flags.p_curvature_invariant
            assert s.residuals["p_curvature_invariance"] <= 1e-9

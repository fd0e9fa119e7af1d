from dataclasses import replace

import numpy as np
import pytest

from folsub import foliation as fln
from folsub import jets
from folsub import manifolds as mfd
from folsub import verify
from folsub.errors import DomainError
from folsub.foliation import _leaf_input
from folsub.manifolds import ChartManifold
from folsub.scenarios import TWO_PLUS_COS
from helpers import (
    codazzi_classic_residual,
    constant_field,
    leaf_field,
    rotated_foliation,
    tilted_rp_leaf,
    tilted_rp_normal,
    warp_a,
    warp_b,
    warp_d2a,
    warp_d2b,
    warp_da,
    warp_db,
)

RNG = np.random.default_rng(53)


def _geom(s, pts, order=1):
    return fln.Geometry(s.fol, np.asarray(pts, dtype=float), order=order)


def test_shape_operator_examples(flat, warped4, round_s3, tilted):
    assert np.max(np.abs(_geom(flat, flat.manifold.random_points(RNG, 5)).A.value)) == 0.0

    p = warped4.manifold.random_points(RNG)
    z = p[3]
    A = _geom(warped4, p).A.value
    want = np.diag([-warp_da(z) / warp_a(z), -warp_db(z) / warp_b(z)])
    assert np.max(np.abs(A - want)) < 1e-13

    A = _geom(round_s3, round_s3.manifold.base_point()).A.value
    assert A.shape == (1, 1) and A[0, 0] == 0.0

    p = tilted.manifold.random_points(RNG)
    got = _geom(tilted, p).A.value
    want = tilted.expected["shape_operator"].value(p)
    assert np.max(np.abs(got - want)) < 1e-13


def test_shape_operator_symmetry(catalog):
    for s in catalog.values():
        asym = _geom(s, s.manifold.random_points(RNG, 50)).A_asym
        assert asym <= 1e-10


def test_curvature_vector_Z(flat, warped4, tilted):
    assert np.max(np.abs(_geom(flat, flat.manifold.base_point()).Z.value)) == 0.0
    pts = warped4.manifold.random_points(RNG, 20)
    assert np.max(np.abs(_geom(warped4, pts).Z.value)) < 1e-14

    pts = tilted.manifold.random_points(RNG, 20)
    got = _geom(tilted, pts).Z.value
    want = tilted.expected["curvature_Z"].value(pts)
    assert np.max(np.abs(got - want)) < 1e-13
    assert np.max(np.abs(want)) > 0.05  # the tilt genuinely turns Z on


def _second_fundamental_form(geom, X, Y):
    """h(X, Y), the off-leaf part of nabla_X Y, for leaf fields or leaf vectors X, Y."""
    Xc, Yc = _leaf_input(geom, X, "X"), _leaf_input(geom, Y, "Y")
    return geom.off_leaf(jets.einsum("...i,...ki->...k", Xc, mfd.differential(geom.gamma, Yc)).value)


def test_second_fundamental_form(flat, warped4):
    e0 = constant_field([1.0, 0.0, 0.0])
    out = _second_fundamental_form(_geom(flat, flat.manifold.base_point()), e0, e0)
    assert np.max(np.abs(out)) == 0.0

    p = warped4.manifold.random_points(RNG)
    z = p[3]
    e1 = lambda coords: warped4.fol.leaf_frame(coords)[0]
    geom = _geom(warped4, p)
    h11 = _second_fundamental_form(geom, e1, e1)
    g = geom.g.value
    N = np.array([0.0, 0.0, 0.0, 1.0])
    assert abs(h11 @ g @ N - (-warp_da(z) / warp_a(z))) < 1e-13


def test_second_fundamental_form_symmetry_and_shape_pairing(warped4, tilted):
    for s in (warped4, tilted):
        p = s.manifold.random_points(np.random.default_rng(3))
        geom = _geom(s, p)
        g, leaf, normal = geom.g.value, geom.e.value, geom.N.value
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.uniform(-1, 1, s.n) @ leaf
            y = rng.uniform(-1, 1, s.n) @ leaf
            hxy = _second_fundamental_form(geom, x, y)
            hyx = _second_fundamental_form(geom, y, x)
            assert np.max(np.abs(hxy - hyx)) < 1e-9
            A = geom.A.value
            xl = leaf @ g @ x
            yl = leaf @ g @ y
            assert abs(hxy @ g @ normal - xl @ A @ yl) < 1e-9


def test_second_fundamental_form_domain_error(warped4):
    p = warped4.manifold.random_points(RNG)
    with pytest.raises(DomainError):
        _second_fundamental_form(_geom(warped4, p), np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0]))


def test_ricci_p_values(flat, warped4, round_s3):
    def ricci_p(s, X, pts):
        geom = _geom(s, pts)
        return geom.ricci_p(np.broadcast_to(X, geom.batch + X.shape))

    assert ricci_p(flat, np.array([0.0, 1.0, 0.0]), flat.manifold.base_point()) == 0.0

    pts = warped4.manifold.random_points(RNG, 20)
    z = pts[..., 3]
    got = ricci_p(warped4, np.array([0.0, 0.0, 0.0, 1.0]), pts)
    want = -warp_d2a(z) / warp_a(z) - warp_d2b(z) / warp_b(z)
    assert np.max(np.abs(got - want)) < 1e-12

    got = ricci_p(round_s3, np.array([0.0, 1.0, 0.0]), round_s3.manifold.base_point())
    assert abs(got - 2.0) < 1e-14


def test_rp_operator_matrix_tilted_oracle(tilted):
    pts = tilted.manifold.random_points(RNG, 20)
    z = pts[..., 3]
    geom = fln.Geometry(tilted.fol, pts, order=2)
    # operator attached to the direction e2: V -> R^P(V, e2)N, leaf-frame matrix
    E = geom.e.value
    M = geom.rp_matrix(E[..., 1, :])
    assert np.max(np.abs(M[..., 0, 0] - tilted_rp_normal(z))) < 1e-12
    # and the leaf-leaf block of the curvature through the normal operator
    MN = geom.rp_matrix(geom.N.value)
    got = np.einsum(
        "...lkab,...k,...a,...b,...lm,...m->...",
        geom.RP,
        E[..., 1, :],
        E[..., 0, :],
        E[..., 1, :],
        geom.g.value,
        E[..., 0, :],
    )
    assert np.max(np.abs(got - tilted_rp_leaf(z))) < 1e-12
    assert np.max(np.abs(MN)) > 1e-3  # nontrivial content


def test_order_one_geometry_values_match_order_two(catalog):
    from folsub.scenarios import _sample_points

    for s in catalog.values():
        pts = _sample_points(s.manifold, s.default_grid)
        first, second = fln.Geometry(s.fol, pts, order=1), fln.Geometry(s.fol, pts, order=2)
        pairs = [(first.sigma.value[..., k], second.sigma.value[..., k]) for k in range(s.n + 1)]
        pairs += [(first.T[r].value, second.T[r].value) for r in range(s.n)]
        pairs += [(getattr(first, name).value, getattr(second, name).value) for name in ("A", "Z", "Hperp")]
        pairs += [(getattr(first, name), getattr(second, name)) for name in ("RP", "R")]
        for a, b in pairs:
            assert np.array_equal(a, b), s.name


def test_tensor_jets_match_the_scalar_jet_route(catalog):
    # the array contractions against the nested-list Jet computation they
    # replaced: values bit for bit, first derivatives to rounding
    from folsub.verify import random_distribution_field
    from helpers import NestedGeometry

    for s in catalog.values():
        pts = s.manifold.random_points(np.random.default_rng(31), 20)
        field = random_distribution_field(s.fol, np.random.default_rng(32))
        for order in (1, 2):
            geom, ref = fln.Geometry(s.fol, pts, order=order), NestedGeometry(s.fol, pts, order)
            as_jet = lambda x: jets.stack(x, geom.coords).at_order(order - 1)
            pairs = [(geom.A, as_jet(ref.A)), (geom.sigma[..., : s.n + 1], as_jet(ref.sigmas))]
            pairs += [(geom.T[r], as_jet(ref.T[r])) for r in range(s.n + 1)]
            pairs += [(geom.Z, as_jet(ref.Z)), (geom.Z_leaf, as_jet(ref.Z_leaf))]
            for got, want in pairs:
                assert np.array_equal(got.value, want.value), s.name
                if order == 2:
                    assert np.max(np.abs(got.grad - want.grad)) <= 1e-13, s.name
            assert np.array_equal(geom.div_F(geom.N), ref.div_F(ref.N) + np.zeros(pts.shape[:-1])), s.name
            got, want = geom.div_F(field(geom.coords)), ref.div_F(field(ref.coords))
            assert np.array_equal(got, want + np.zeros(pts.shape[:-1])), s.name


def test_leafwise_divergence_and_normal_identity(catalog):
    for s in catalog.values():
        pts = s.manifold.random_points(RNG, 30)
        geom = fln.Geometry(s.fol, pts, order=1)
        got = geom.div_F(constant_field([0.0] * s.manifold.dim)(geom.coords))
        assert np.max(np.abs(got)) == 0.0
        assert np.max(np.abs(geom.div_F(geom.N) + geom.sigma.value[..., 1])) <= 1e-9


def test_divergence_split_random_fields(catalog):
    from folsub.verify import random_distribution_field

    rng = np.random.default_rng(8)
    for s in catalog.values():
        pts = s.manifold.random_points(RNG, 40)
        for _ in range(3):
            X = random_distribution_field(s.fol, rng)
            assert fln.divx_residual(s.fol, X, pts) <= 1e-9


def test_divF_newton_modes(flat_wide, warped4, tilted):
    # div_F T_r by jets ("direct") and by the inductive curvature-trace formula
    def div_F_newton(s, r, pts, mode):
        geom = _geom(s, pts, order=2)
        return geom.div_F_newton_direct(r) if mode == "direct" else geom.div_F_newton_formula(r)

    # zero order is exactly zero, any backend
    for s in (flat_wide, warped4, tilted):
        pts = s.manifold.random_points(RNG, 10)
        assert np.max(np.abs(div_F_newton(s, 0, pts, "direct"))) < 1e-14
        assert np.max(np.abs(div_F_newton(s, 0, pts, "formula"))) == 0.0

    # flat: all orders vanish
    for r in range(flat_wide.n):
        pts = flat_wide.manifold.random_points(RNG, 10)
        assert np.max(np.abs(div_F_newton(flat_wide, r, pts, "direct"))) < 1e-13

    # warped and tilted: the two evaluation routes agree
    for s in (warped4, tilted):
        pts = s.manifold.random_points(RNG, 40)
        for r in range(s.n):
            d = div_F_newton(s, r, pts, "direct")
            f = div_F_newton(s, r, pts, "formula")
            assert np.max(np.abs(d - f)) <= 1e-8

    # curvature-invariant scenario: the divergence vanishes identically
    pts = warped4.manifold.random_points(RNG, 40)
    assert np.max(np.abs(div_F_newton(warped4, 1, pts, "formula"))) < 1e-12
    # the tilt breaks invariance and turns it on
    pts = tilted.manifold.random_points(RNG, 40)
    assert np.max(np.abs(div_F_newton(tilted, 1, pts, "formula"))) > 1e-3


def test_divF_newton_validation(warped4):
    with pytest.raises(ValueError):
        verify.check_newton_div_agreement(warped4, 2, samples=1)


def _nabla_N_A(fol, pts):
    """The leafwise covariant derivative of the shape operator along N, by jets."""
    geom = fln.Geometry(fol, np.asarray(pts, dtype=float), order=2)
    return geom.nabla_F_operator(geom.A, geom.N)


def test_nablaF_N_A(flat, warped4, heisenberg):
    assert np.max(np.abs(_nabla_N_A(flat.fol, flat.manifold.random_points(RNG, 5)))) == 0.0
    assert np.max(np.abs(_nabla_N_A(heisenberg.fol, heisenberg.manifold.base_point()))) == 0.0

    pts = warped4.manifold.random_points(RNG, 20)
    z = pts[..., 3]
    got = _nabla_N_A(warped4.fol, pts)
    # d/dz of -a'/a and -b'/b
    da = -(warp_d2a(z) / warp_a(z) - (warp_da(z) / warp_a(z)) ** 2)
    db = -(warp_d2b(z) / warp_b(z) - (warp_db(z) / warp_b(z)) ** 2)
    want = np.zeros(pts.shape[:-1] + (2, 2))
    want[..., 0, 0] = da
    want[..., 1, 1] = db
    assert np.max(np.abs(got - want)) < 1e-12


def test_frame_rotation_invariance(warped4, tilted, warped3):
    # tensor outputs and integrated terms must not depend on the choice of leaf frame
    for s in (warped4, tilted):
        rot = rotated_foliation(s.fol, angle_profile=lambda z: 0.4 * jets.sin(z))
        checks = ["reeb", *(f"main:{r}" for r in range(s.n))]
        reports = [verify.verify_grid_checks(t, checks, tolerance=1e-7) for t in (s, replace(s, fol=rot))]
        for check, a, b in zip(checks, *reports):
            assert abs(b.residual - a.residual) <= 1e-12, (s.name, check)
            if check != "reeb":
                assert b.terms.keys() == a.terms.keys()
                for key, value in a.terms.items():
                    assert abs(b.terms[key] - value) <= 1e-12, (s.name, check, key)
        pts = s.manifold.random_points(np.random.default_rng(9), 20)
        base = _nabla_N_A(s.fol, pts)
        other = _nabla_N_A(rot, pts)
        # compare frame-independent invariants: trace and Frobenius norm
        assert np.max(np.abs(np.trace(base, axis1=-2, axis2=-1) - np.trace(other, axis1=-2, axis2=-1))) < 1e-9
        assert np.max(np.abs(np.sum(base**2, (-2, -1)) - np.sum(other**2, (-2, -1)))) < 1e-9
        # leaf covector compared as an ambient vector
        for r in range(s.n):
            geom_b = fln.Geometry(s.fol, pts, order=2)
            geom_r = fln.Geometry(rot, pts, order=2)
            vb = np.einsum("...j,...jm->...m", geom_b.div_F_newton_direct(r), geom_b.e.value)
            vr = np.einsum("...j,...jm->...m", geom_r.div_F_newton_direct(r), geom_r.e.value)
            assert np.max(np.abs(vb - vr)) < 1e-9

    flip = rotated_foliation(warped3.fol, flip=True)
    pts = warped3.manifold.random_points(np.random.default_rng(2), 10)
    assert np.max(np.abs(_nabla_N_A(warped3.fol, pts) - _nabla_N_A(flip, pts))) < 1e-12


def test_codazzi_residual(flat, warped4, tilted):
    e0 = leaf_field(flat.fol, 0)
    assert fln.codazzi_residual(flat.fol, e0, e0, flat.manifold.base_point()) == 0.0

    for s in (warped4, tilted):
        pts = s.manifold.random_points(RNG, 30)
        res = fln.codazzi_residual(s.fol, leaf_field(s.fol, 0), leaf_field(s.fol, 1), pts)
        assert res <= 1e-8

    # on the tilted torus the individual sides are nonzero
    pts = tilted.manifold.random_points(RNG, 30)
    z = pts[..., 3]
    assert np.max(np.abs(tilted_rp_normal(z))) > 1e-2


def test_codazzi_classic_full_tangent():
    # leaves of codimension one in the whole manifold: the projected and the
    # classical equations coincide, checked through the second-form route
    a = TWO_PLUS_COS

    def metric(coords):
        av = a(coords[1])
        return [[av * av, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, av * av]]

    man = ChartManifold(dim=3, periods=(2 * np.pi,) * 3, metric=metric, name="full_tangent")
    leaf_frame = lambda coords: [
        [1.0 / a(coords[1]), 0.0, 0.0],
        [0.0, 0.0, 1.0 / a(coords[1])],
    ]
    normal = lambda coords: [0.0, 1.0, 0.0]
    fol = fln.FoliationStructure(man, 2, leaf_frame, normal, lambda coords: [], "coordinate subtori, full tangent bundle")
    pts = man.random_points(RNG, 30)
    X, Y = leaf_field(fol, 0), leaf_field(fol, 1)
    assert fln.codazzi_residual(fol, X, Y, pts) <= 1e-8
    for U in (X, Y):
        assert codazzi_classic_residual(fol, X, Y, U, pts) <= 1e-8


def test_newton_derivative_self_adjoint(warped4, tilted):
    for s in (warped4, tilted):
        pts = s.manifold.random_points(np.random.default_rng(6), 30)
        geom = fln.Geometry(s.fol, pts, order=2)
        for r in range(s.n + 1):
            for Xc in (geom.e[..., 0, :], geom.e[..., 1, :], geom.N):
                M = geom.nabla_F_operator(geom.T[r], Xc)
                assert np.max(np.abs(M - np.swapaxes(M, -1, -2))) <= 1e-8


def test_trace_identities_field_version(warped4, tilted):
    for s in (warped4, tilted):
        pts = s.manifold.random_points(np.random.default_rng(7), 50)
        for r in range(s.n):
            res = fln.trace_identities(s.fol, r, pts)
            assert np.max(res[:3]) <= 1e-11
            assert res[3] <= 1e-8
    # the tilted frame has a z-component, so sigma genuinely varies along it
    geom = fln.Geometry(tilted.fol, tilted.manifold.random_points(np.random.default_rng(3), 20), order=2)
    X2 = jets.stack(tilted.fol.leaf_frame(geom.coords)[1], geom.coords).value
    rate = np.einsum("...k,...k->...", X2, geom.sigma.grad[..., 1, :])
    assert np.max(np.abs(rate)) > 1e-3


def test_adapted_identity_residuals(warped4, tilted, round_s3, heisenberg):
    for s in (warped4, tilted):
        geom = fln.Geometry(s.fol, s.manifold.random_points(RNG, 50), order=2)
        assert geom.adapted_identity_residual() <= 1e-8
    geom = fln.Geometry(round_s3.fol, round_s3.manifold.base_point(), order=2)
    assert abs(geom.adapted_identity_residual() - 2.0) < 1e-14  # fails by Ric^P exactly
    geom = fln.Geometry(heisenberg.fol, heisenberg.manifold.base_point(), order=2)
    assert geom.adapted_identity_residual() == 0.0


def test_newton_z_divergence_residuals(warped4, tilted):
    for s in (warped4, tilted):
        geom = fln.Geometry(s.fol, s.manifold.random_points(RNG, 50), order=2)
        for r in range(s.n):
            assert np.max(np.abs(geom.newton_z_divergence_residual(r))) <= 1e-8


def test_integrability_detector():
    man = ChartManifold(dim=3, periods=(2 * np.pi,) * 3, metric=lambda c: jets.mat_identity(3))
    sqrt = lambda x: jets.lift(x, np.sqrt, lambda v: 0.5 / np.sqrt(v), lambda v: -0.25 * v**-1.5)

    def leaf_frame(coords):
        s, c = jets.sin(coords[0]), jets.cos(coords[0])
        nrm = sqrt(1.0 + s * s)
        return [[1.0, 0.0, 0.0], [0.0, (1.0 / nrm), s / nrm]]

    def normal(coords):
        s = jets.sin(coords[0])
        nrm = sqrt(1.0 + s * s)
        return [0.0, (-1.0) * s / nrm, 1.0 / nrm]

    fol = fln.FoliationStructure(man, 2, leaf_frame, normal, lambda c: [], "deliberately non-integrable")
    pts = man.random_points(RNG, 50)
    assert fln.integrability_residual(fol, pts) > 0.1

    from folsub.errors import ConstructionError
    from folsub.scenarios import _finalize

    with pytest.raises(ConstructionError, match="integrable"):
        _finalize("broken", fol, {}, {}, None, (4, 4, 4))


def test_adapted_frame(warped4):
    p = warped4.manifold.random_points(RNG)
    geom = fln.Geometry(warped4.fol, p, order=0)
    g = geom.g.value
    basis = np.concatenate([geom.e.value, geom.N.value[None, :], geom.xis.value], axis=0)
    gram = basis @ g @ basis.T
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-12


@pytest.mark.parametrize("n", [-1, 3], ids=["negative", "m"])
def test_a_foliation_needs_a_leaf_dimension_from_0_to_m_minus_1(n, warped3):
    # the rank rule of D = TF ⊕ span(N): 1 <= n + 1 <= m
    with pytest.raises(ValueError, match="leaf dimension out of range"):
        replace(warped3.fol, n=n)
    assert [replace(warped3.fol, n=k).n for k in (0, 2)] == [0, 2]


def test_a_geometry_runs_the_leaf_frame_and_the_normal_once(tilted):
    # P is contracted from the e and N jets the context already holds, not from a second frame of D
    calls = {"leaf_frame": 0, "normal": 0}

    def counted(name):
        closure = getattr(tilted.fol, name)

        def run(coords):
            calls[name] += 1
            return closure(coords)

        return run

    fol = replace(tilted.fol, leaf_frame=counted("leaf_frame"), normal=counted("normal"))
    geom = fln.Geometry(fol, tilted.manifold.random_points(RNG, 5), order=2)
    geom.RP, geom.Z, geom.Hperp, geom.T
    assert calls == {"leaf_frame": 1, "normal": 1}

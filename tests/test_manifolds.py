import numpy as np
import pytest

from folsub import jets
from folsub import manifolds as mfd
from folsub.errors import LinearSolveError
from helpers import (
    constant_field,
    coordinate_field,
    fd_gradient,
    metric_inner,
    reference_ambient_field,
    warp_a,
    warp_b,
    warp_d2a,
    warp_da,
    warp_db,
)

RNG = np.random.default_rng(31)


def _metric(man, p):
    """Metric matrices at the points p, from the closure's values."""
    coords = man.seed(np.asarray(p, dtype=float), order=0)
    return jets.stack(man.metric_jets(coords), coords).value


def _christoffel(man, p):
    """Connection coefficients gamma[..., k, i, j] at the points p, with their batch axes."""
    p = np.asarray(p, dtype=float)
    gamma = man.gamma_jets(man.seed(p, order=1)).gamma
    return np.broadcast_to(gamma, p.shape[:-1] + gamma.shape[-3:])


def _riemann_tensor(man, p):
    """Curvature components R[..., l, k, i, j] at the points p, with their batch axes."""
    p = np.asarray(p, dtype=float)
    R = mfd.riemann_jets(man, man.seed(p, order=2))
    return np.broadcast_to(R, p.shape[:-1] + R.shape[-4:])


def _covariant_derivative(man, X_field, Y_field, p):
    """nabla_X Y at the points p, for fields X, Y given as functions of the coordinate seeds."""
    coords = man.seed(np.asarray(p, dtype=float), order=1)
    X, Y = (jets.stack(f(coords), coords) for f in (X_field, Y_field))
    return jets.einsum("...i,...ki->...k", X, mfd.differential(man.gamma_jets(coords), Y)).value


def test_metric_at_examples(flat, warped4, heisenberg):
    p = flat.manifold.base_point()
    assert np.array_equal(_metric(flat.manifold, p), np.eye(3))

    p = warped4.manifold.random_points(RNG)
    g = _metric(warped4.manifold, p)
    z = p[3]
    assert np.allclose(g, np.diag([1, warp_a(z) ** 2, warp_b(z) ** 2, 1]), atol=1e-15)

    assert np.array_equal(_metric(heisenberg.manifold, heisenberg.manifold.base_point()), np.eye(3))


def test_metric_positive_definite_on_catalog(catalog):
    for s in catalog.values():
        pts = s.manifold.random_points(RNG, 50)
        g = _metric(s.manifold, pts)
        assert np.min(np.linalg.eigvalsh(g)) > 0


def test_christoffel_flat_and_symmetry(flat, warped4):
    p = flat.manifold.random_points(RNG)
    assert np.max(np.abs(_christoffel(flat.manifold, p))) == 0.0

    p = warped4.manifold.random_points(RNG)
    G = _christoffel(warped4.manifold, p)
    assert np.array_equal(G, np.swapaxes(G, -1, -2))  # exact symmetry on charts


def test_christoffel_warped_oracle(warped4):
    p = warped4.manifold.random_points(RNG)
    z = p[3]
    G = _christoffel(warped4.manifold, p)
    assert abs(G[1, 1, 3] - warp_da(z) / warp_a(z)) < 1e-14
    assert abs(G[1, 3, 1] - warp_da(z) / warp_a(z)) < 1e-14
    assert abs(G[3, 1, 1] + warp_a(z) * warp_da(z)) < 1e-14
    assert abs(G[2, 2, 3] - warp_db(z) / warp_b(z)) < 1e-14
    assert abs(G[3, 2, 2] + warp_b(z) * warp_db(z)) < 1e-14


def test_christoffel_singular_metric_raises():
    bad = mfd.ChartManifold(
        dim=2, periods=(1.0, 1.0), metric=lambda coords: [[1.0, 0.0], [0.0, 0.0]]
    )
    with pytest.raises(LinearSolveError):
        _christoffel(bad, np.zeros(2))


def _chart_scenarios(catalog):
    return [s for s in catalog.values() if isinstance(s.manifold, mfd.ChartManifold)]


def test_christoffel_matches_finite_difference_koszul(catalog):
    # Koszul formula on a finite-difference metric gradient, inverted by numpy
    for s in _chart_scenarios(catalog):
        man = s.manifold
        for p in man.random_points(RNG, 3):
            ginv = np.linalg.inv(_metric(man, p))
            dg = fd_gradient(lambda x: _metric(man, x), p)  # dg[a, b, c] = d_c g[a, b]
            S = np.einsum("lji->lij", dg) + dg - np.einsum("ijl->lij", dg)
            want = 0.5 * np.einsum("kl,lij->kij", ginv, S)
            assert np.max(np.abs(_christoffel(man, p) - want)) < 1e-8, s.name


def test_riemann_matches_finite_difference_of_christoffel(catalog):
    # R[l, k, i, j] = d_i G[l, j, k] - d_j G[l, i, k] + G[a, j, k] G[l, i, a] - G[a, i, k] G[l, j, a]
    for s in _chart_scenarios(catalog):
        man = s.manifold
        for p in man.random_points(RNG, 3):
            G = _christoffel(man, p)
            dG = fd_gradient(lambda x: _christoffel(man, x), p)  # dG[k, i, j, a] = d_a G[k, i, j]
            D = np.einsum("ljki->lkij", dG)
            GG = np.einsum("ajk,lia->lkij", G, G)
            want = D - np.swapaxes(D, -1, -2) + GG - np.swapaxes(GG, -1, -2)
            assert np.max(np.abs(_riemann_tensor(man, p) - want)) < 1e-8, s.name


def test_bi_invariant_connection_is_half_bracket(round_s3, heisenberg):
    # Koszul oracle: fully antisymmetric structure constants give 1/2 [e_i, e_j]
    man = round_s3.manifold
    G = _christoffel(man, man.base_point())
    c = man.structure_constants
    assert np.max(np.abs(G - 0.5 * np.einsum("kij->kij", c))) < 1e-15

    # Heisenberg [X, Y] = T is not bi-invariant; hand Koszul values: nabla_X Y = T/2,
    # nabla_Y X = -T/2, nabla_X T = nabla_T X = -Y/2, nabla_Y T = nabla_T Y = X/2
    want = np.zeros((3, 3, 3))
    want[2, 0, 1], want[2, 1, 0] = 0.5, -0.5
    want[1, 0, 2], want[1, 2, 0] = -0.5, -0.5
    want[0, 1, 2], want[0, 2, 1] = 0.5, 0.5
    man = heisenberg.manifold
    assert np.array_equal(_christoffel(man, man.base_point()), want)

    # torsion-free and metric, the two properties that single out Levi-Civita
    for s in (round_s3, heisenberg):
        man = s.manifold
        G = _christoffel(man, man.base_point())
        assert np.max(np.abs(G - np.swapaxes(G, -1, -2) - man.structure_constants)) < 1e-15
        assert np.max(np.abs(G + np.einsum("kij->jik", G))) < 1e-15


def test_covariant_derivative_examples(flat, warped4):
    const = constant_field([1.0, 2.0, -0.5])
    out = _covariant_derivative(flat.manifold, const, const, flat.manifold.base_point())
    assert np.max(np.abs(out)) == 0.0

    p = warped4.manifold.random_points(RNG)
    z = p[3]
    dy1 = coordinate_field(1, 4)
    dz = coordinate_field(3, 4)
    out = _covariant_derivative(warped4.manifold, dy1, dz, p)
    want = np.zeros(4)
    want[1] = warp_da(z) / warp_a(z)
    assert np.max(np.abs(out - want)) < 1e-14


def test_metric_compatibility(warped4, tilted):
    # X<Y,Y> = 2 <nabla_X Y, Y> at random points
    for s in (warped4, tilted):
        man = s.manifold
        pts = man.random_points(RNG, 40)
        rng = np.random.default_rng(8)
        X = reference_ambient_field(man, rng)
        Y = reference_ambient_field(man, rng)
        coords = man.seed(pts, order=1)
        g = man.metric_jets(coords)
        Yc = Y(coords)
        f = metric_inner(g, Yc, Yc)
        Xj, Yj = jets.stack(X(coords), coords), jets.stack(Yc, coords)
        lhs = np.einsum("...k,...k->...", Xj.value, f.grad)
        dY = jets.einsum("...i,...ki->...k", Xj, mfd.differential(man.gamma_jets(coords, g), Yj))
        rhs = 2.0 * np.einsum("...ij,...i,...j->...", jets.stack(g, coords).value, dY.value, Yj.value)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_covariant_derivative_leibniz_and_linearity(warped4):
    # nabla_{fX} Y = f nabla_X Y and nabla_X (fY) = X(f) Y + f nabla_X Y
    man = warped4.manifold
    p = man.random_points(RNG)
    z = p[3]
    X = lambda coords: [0.0, 1.0, jets.cos(coords[3]), 1.0]
    Y = lambda coords: [jets.sin(coords[3]), 1.0, 0.0, jets.cos(coords[1])]
    f = lambda coords: 2.0 + jets.sin(coords[3])

    fX = lambda coords: [f(coords) * c for c in X(coords)]
    fY = lambda coords: [f(coords) * c for c in Y(coords)]

    base = _covariant_derivative(man, X, Y, p)
    scaled = _covariant_derivative(man, fX, Y, p)
    assert np.max(np.abs(scaled - (2.0 + np.sin(z)) * base)) < 1e-13

    prod = _covariant_derivative(man, X, fY, p)
    coords = man.seed(p, order=1)
    Xf_rate = np.einsum("...k,...k->...", jets.stack(X(coords), coords).value, f(coords).grad)
    Yarr = jets.stack(Y(coords), coords).value
    want = Xf_rate * Yarr + (2.0 + np.sin(z)) * base
    assert np.max(np.abs(prod - want)) < 1e-13


def test_riemann_flat_zero(flat):
    pts = flat.manifold.random_points(RNG, 10)
    assert np.max(np.abs(_riemann_tensor(flat.manifold, pts))) == 0.0


def test_riemann_round_sphere_sectional(round_s3):
    man = round_s3.manifold
    p = man.base_point()
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    out = np.einsum("...lkij,...k,...i,...j->...l", _riemann_tensor(man, p), e2, e1, e2)
    # bi-invariant oracle: sectional curvature = |[X, Y]|^2 / 4 = 1
    assert abs(out @ e1 - 1.0) < 1e-14


def test_riemann_warped_sectional(warped4):
    man = warped4.manifold
    p = man.random_points(RNG)
    z = p[3]
    e1 = np.array([0.0, 1.0 / warp_a(z), 0.0, 0.0])
    N = np.array([0.0, 0.0, 0.0, 1.0])
    out = np.einsum("...lkij,...k,...i,...j->...l", _riemann_tensor(man, p), N, e1, N)
    g = _metric(man, p)
    assert abs(out @ g @ e1 - (-warp_d2a(z) / warp_a(z))) < 1e-13


def test_riemann_symmetries_and_bianchi(catalog):
    for s in catalog.values():
        man = s.manifold
        pts = man.random_points(RNG, 100)
        R = _riemann_tensor(man, pts)
        g = _metric(man, pts)
        Rlow = np.einsum("...lm,...mkij->...lkij", g, R)
        rng = np.random.default_rng(17)
        X, Y, V, U = (rng.uniform(-1, 1, (100, man.dim)) for _ in range(4))
        r1 = np.einsum("...lkij,...k,...i,...j,...l->...", Rlow, V, X, Y, U)
        r2 = np.einsum("...lkij,...k,...i,...j,...l->...", Rlow, V, Y, X, U)
        assert np.max(np.abs(r1 + r2)) < 1e-9
        r3 = np.einsum("...lkij,...k,...i,...j,...l->...", Rlow, U, X, Y, V)
        assert np.max(np.abs(r1 + r3)) < 1e-9
        bianchi = (
            np.einsum("...lkij,...k,...i,...j->...l", R, V, X, Y)
            + np.einsum("...lkij,...k,...i,...j->...l", R, X, Y, V)
            + np.einsum("...lkij,...k,...i,...j->...l", R, Y, V, X)
        )
        assert np.max(np.abs(bianchi)) < 1e-9


def test_periodicity_wrap(warped4, tilted):
    for s in (warped4, tilted):
        man = s.manifold
        p = man.random_points(RNG)
        g1 = _metric(man, p)
        g2 = _metric(man, p + np.asarray(man.periods))
        assert np.max(np.abs(g1 - g2)) <= 1e-12
        G1 = _christoffel(man, p)
        G2 = _christoffel(man, p + np.asarray(man.periods))
        assert np.max(np.abs(G1 - G2)) <= 1e-12


def _divergence(man, X_field, p):
    """Div X at the points p, the trace of nabla X."""
    coords = man.seed(np.asarray(p, dtype=float), order=1)
    return mfd.divergence_jets(man, coords, man.gamma_jets(coords), X_field(coords))


def test_divergence_closed_forms(flat, warped4):
    # flat: hand-computed divergence of a trigonometric field
    man = flat.manifold
    two_pi = 2 * np.pi

    def X(coords):
        return [jets.sin(coords[0] * two_pi), jets.sin(coords[2] * two_pi), 1.0]

    pts = man.random_points(RNG, 20)
    got = _divergence(man, X, pts)
    want = two_pi * np.cos(two_pi * pts[..., 0])
    assert np.max(np.abs(got - want)) < 1e-12

    # warped: Div(f(z) dz) = (a b f)' / (a b)
    man = warped4.manifold

    def Y(coords):
        return [0.0, 0.0, 0.0, jets.sin(coords[3])]

    pts = man.random_points(RNG, 20)
    z = pts[..., 3]
    got = _divergence(man, Y, pts)
    ab = warp_a(z) * warp_b(z)
    dab = warp_da(z) * warp_b(z) + warp_a(z) * warp_db(z)
    want = np.cos(z) + np.sin(z) * dab / ab
    assert np.max(np.abs(got - want)) < 1e-12


def test_invariant_frame_validation():
    c = np.zeros((3, 3, 3))
    c[2, 0, 1] = 1.0  # missing the antisymmetric partner
    with pytest.raises(ValueError, match="antisymmetric"):
        mfd.InvariantFrameManifold(dim=3, structure_constants=c, volume=1.0)

    c = np.zeros((3, 3, 3))
    # [e0,e1] = e2, [e1,e2] = e0, [e2,e0] = e0: the cyclic sum leaves e2 over
    c[2, 0, 1], c[2, 1, 0] = 1.0, -1.0
    c[0, 1, 2], c[0, 2, 1] = 1.0, -1.0
    c[0, 2, 0], c[0, 0, 2] = 1.0, -1.0
    with pytest.raises(ValueError, match="Jacobi"):
        mfd.InvariantFrameManifold(dim=3, structure_constants=c, volume=1.0)

    with pytest.raises(ValueError, match="volume"):
        mfd.InvariantFrameManifold(dim=3, structure_constants=np.zeros((3, 3, 3)), volume=-1.0)

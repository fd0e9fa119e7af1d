import numpy as np
import pytest

from folsub import scenarios as scn


@pytest.fixture(scope="session")
def flat():
    return scn.build("flat_torus")


@pytest.fixture(scope="session")
def flat_wide():
    # higher leaf dimension, exercises r = 0..2 code paths on a flat background
    return scn.build_flat_torus(m=5, n=3)


@pytest.fixture(scope="session")
def warped3():
    return scn.build("warped_torus_3")


@pytest.fixture(scope="session")
def warped4():
    return scn.build("warped_torus_4")


@pytest.fixture(scope="session")
def warped4_umbilical():
    return scn.build("warped_torus_4_umbilical")


@pytest.fixture(scope="session")
def tilted():
    return scn.build("tilted_torus_4")


@pytest.fixture(scope="session")
def heisenberg():
    return scn.build("heisenberg")


@pytest.fixture(scope="session")
def round_s3():
    return scn.build("round_s3")


@pytest.fixture(scope="session")
def catalog(flat, warped3, warped4, warped4_umbilical, tilted, heisenberg, round_s3):
    return {
        s.name: s
        for s in (flat, warped3, warped4, warped4_umbilical, tilted, heisenberg, round_s3)
    }


def build_nonharmonic_torus():
    """Warped 3-torus whose orthogonal circle has z-dependent length.

    The complement direction is no longer geodesic, so the mean curvature of
    the orthogonal distribution is nonzero and the harmonicity hypothesis of
    the integral formulas genuinely fails.
    """
    from folsub.foliation import FoliationStructure
    from folsub.manifolds import ChartManifold
    from folsub.scenarios import TWO_PLUS_COS, TWO_PLUS_SIN, _finalize

    a, c = TWO_PLUS_COS, TWO_PLUS_SIN

    def metric(coords):
        av, cv = a(coords[2]), c(coords[2])
        return [[cv * cv, 0.0, 0.0], [0.0, av * av, 0.0], [0.0, 0.0, 1.0]]

    man = ChartManifold(dim=3, periods=(2 * np.pi,) * 3, metric=metric, name="nonharmonic_torus")
    leaf_frame = lambda coords: [[0.0, 1.0 / a(coords[2]), 0.0]]
    normal = lambda coords: [0.0, 0.0, 1.0]
    perp = lambda coords: [[1.0 / c(coords[2]), 0.0, 0.0]]
    fol = FoliationStructure(man, 1, leaf_frame, normal, perp, "coordinate circles")
    return _finalize(
        "nonharmonic_torus",
        fol,
        declared=dict(harmonic_perp=False, admissible=True),
        expected={},
        leaf=None,
        default_grid=(4, 4, 32),
    )


@pytest.fixture(scope="session")
def nonharmonic():
    return build_nonharmonic_torus()


def build_conformal_torus():
    """Conformally flat 4-torus phi(x, y1, y2, z)^2 (dx^2 + dy1^2 + dy2^2 + dz^2).

    The conformal factor depends on every coordinate, so no two nodes of a
    product grid share their metric or frames.  Leaves are the (y1, y2)-tori
    with unit normal along z; the complement is the x-direction.
    """
    from folsub import jets
    from folsub.foliation import FoliationStructure
    from folsub.manifolds import ChartManifold
    from folsub.scenarios import LeafSpec, _finalize

    def phi(coords):
        x, y1, y2, z = coords
        return 2.0 + 0.3 * jets.sin(x) + 0.2 * jets.cos(y1) + 0.1 * jets.sin(y2) + 0.25 * jets.cos(z)

    def metric(coords):
        p2 = phi(coords) * phi(coords)
        return [[p2 if i == k else 0.0 for k in range(4)] for i in range(4)]

    def axis(i):
        return lambda coords: [1.0 / phi(coords) if k == i else 0.0 for k in range(4)]

    man = ChartManifold(dim=4, periods=(2 * np.pi,) * 4, metric=metric, name="conformal_torus")
    fol = FoliationStructure(
        man,
        2,
        lambda coords: [axis(1)(coords), axis(2)(coords)],
        axis(3),
        lambda coords: [axis(0)(coords)],
        "leaves are coordinate subtori at fixed (x, z)",
    )
    leaf = LeafSpec("y-torus", fixed={0: 0.0, 3: 0.0}, axes=(1, 2))
    return _finalize("conformal_torus", fol, declared={}, expected={}, leaf=leaf, default_grid=(4, 4, 4, 8))


@pytest.fixture(scope="session")
def conformal():
    return build_conformal_torus()

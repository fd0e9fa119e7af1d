import numpy as np
import pytest

from folsub import quadrature as quad
from folsub import verify
from folsub.errors import EvaluationError, UnsupportedLeafError
from folsub.foliation import Geometry
from helpers import loop_integral, warp_a, warp_b, warp_da, warp_db

RNG = np.random.default_rng(61)
TWO_PI = 2 * np.pi


def test_constant_on_unit_flat_torus(flat):
    grid = quad.grid_for(flat.manifold, (4, 4, 4))
    assert abs(quad.integrate(flat.manifold, lambda pts: np.ones(pts.shape[0]), grid) - 1.0) < 1e-15


def test_weights_positive_and_sum_to_volume(flat, warped4, heisenberg):
    grid = quad.grid_for(warped4.manifold, (4, 4, 4, 16))
    assert np.all(grid.weights > 0)
    assert abs(np.sum(grid.weights) - TWO_PI**4) < 1e-9
    vol = quad.total_volume(warped4.manifold, grid)
    assert abs(vol - TWO_PI**3 * loop_integral(lambda z: warp_a(z) * warp_b(z))) < 1e-9

    grid = quad.grid_for(heisenberg.manifold)
    assert grid.count == 1 and grid.weights[0] == 1.0


def test_grid_validation(warped4):
    with pytest.raises(ValueError):
        quad.grid_for(warped4.manifold)
    with pytest.raises(ValueError):
        quad.grid_for(warped4.manifold, (4, 4))
    with pytest.raises(ValueError):
        quad.grid_for(warped4.manifold, (4, 4, 0, 4))


def test_sigma1_total_vanishes_on_warped(warped4):
    # the reduced 1-d integrand is the exact derivative -(ab)'
    grid = quad.grid_for(warped4.manifold, warped4.default_grid)

    def sigma1(pts):
        return Geometry(warped4.fol, pts, order=1).sigma.value[..., 1]

    assert abs(quad.integrate(warped4.manifold, sigma1, grid)) < 1e-9


def test_sigma1_square_matches_reduced_integral(warped4):
    grid = quad.grid_for(warped4.manifold, warped4.default_grid)

    def s1sq(pts):
        return Geometry(warped4.fol, pts, order=1).sigma.value[..., 1] ** 2

    got = quad.integrate(warped4.manifold, s1sq, grid)

    def reduced(z):
        ab = warp_a(z) * warp_b(z)
        dab = warp_da(z) * warp_b(z) + warp_a(z) * warp_db(z)
        return dab**2 / ab

    want = TWO_PI**3 * loop_integral(reduced)
    assert abs(want) > 1.0
    assert abs(got - want) < 1e-8 * abs(want)


def test_homogeneous_integral_is_value_times_volume(heisenberg, round_s3):
    for s, c in ((heisenberg, 0.7), (round_s3, -1.3)):
        grid = quad.grid_for(s.manifold)
        got = quad.integrate(s.manifold, lambda pts: np.full(pts.shape[0], c), grid)
        assert abs(got - c * s.manifold.volume) < 1e-12


def test_refinement_gate(warped4):
    grid = quad.grid_for(warped4.manifold, (4, 4, 4, 16))
    fine = quad.refined(warped4.manifold, grid)
    assert fine.axes == (8, 8, 8, 32)

    def smooth(pts):
        return np.sin(pts[..., 3]) ** 2 + np.cos(pts[..., 1])

    a = quad.integrate(warped4.manifold, smooth, grid)
    b = quad.integrate(warped4.manifold, smooth, fine)
    assert abs(a - b) < 1e-9


def test_chunking_does_not_change_the_sum(warped4, monkeypatch):
    grid = quad.grid_for(warped4.manifold, (4, 4, 4, 16))

    def smooth(pts):
        return np.sin(pts[..., 3]) + np.cos(pts[..., 0]) * np.sin(pts[..., 2])

    full = quad.integrate(warped4.manifold, smooth, grid)
    main = verify.verify_main(warped4, 1, tolerance=1e-7)
    monkeypatch.setattr(quad, "CHUNK", 100)
    chunked = quad.integrate(warped4.manifold, smooth, grid)
    assert full == chunked  # bitwise, thanks to fsum over grid-ordered samples

    # the dict-valued form: every term of a multi-term integral
    monkeypatch.setattr(quad, "CHUNK", 500)
    main_chunked = verify.verify_main(warped4, 1, tolerance=1e-7)
    assert main_chunked.residual == main.residual
    assert main_chunked.terms == main.terms


def test_leaf_grid_and_density(warped4, heisenberg):
    lf = warped4.leaf()
    lgrid = quad.leaf_grid(warped4.manifold, lf, (8, 8))
    area = quad.integrate(
        warped4.manifold,
        lambda pts: np.ones(pts.shape[0]),
        lgrid,
        density=lambda pts: quad.leaf_density(warped4.manifold, lf, pts),
    )
    want = TWO_PI**2 * warp_a(0.0) * warp_b(0.0)
    assert abs(area - want) < 1e-12

    lgrid = quad.leaf_grid(heisenberg.manifold, heisenberg.leaf())
    assert lgrid.count == 1 and lgrid.weights[0] == 1.0

    from folsub.scenarios import LeafSpec

    with pytest.raises(UnsupportedLeafError):
        quad.leaf_grid(heisenberg.manifold, LeafSpec("bad"))


def test_nonfinite_sample_raises(flat):
    grid = quad.grid_for(flat.manifold, (4, 4, 4))

    def bad(pts):
        out = np.ones(pts.shape[0])
        out[3] = np.nan
        return out

    with pytest.raises(EvaluationError):
        quad.integrate(flat.manifold, bad, grid)


def test_reduction_keeps_samples_as_float64_blocks(flat):
    # The reduction holds each key's weighted samples until its one fsum; as
    # float64 blocks that is 8 bytes per node, where a list of Python floats
    # took about 32.
    import tracemalloc

    grid = quad.grid_for(flat.manifold, (64, 64, 64))
    ones = lambda pts: np.ones(pts.shape[0])
    terms = lambda pts: {key: 1.0 for key in range(4)}
    tracemalloc.start()
    try:
        got = quad.integrate_terms(flat.manifold, terms, grid, density=ones)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == {key: 1.0 for key in range(4)}
    assert peak / (grid.count * 4) < 16.0

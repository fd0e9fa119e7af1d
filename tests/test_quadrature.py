import math
import tracemalloc

import numpy as np
import pytest

from folsub import quadrature as quad
from folsub import verify
from folsub.errors import EvaluationError, UnsupportedLeafError
from folsub.foliation import Geometry
from folsub.jets import stack
from folsub.manifolds import InvariantFrameManifold
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


def test_refining_the_invariant_single_node_returns_it_unchanged(heisenberg):
    grid = quad.grid_for(heisenberg.manifold)
    fine = quad.refined(heisenberg.manifold, grid)
    assert np.array_equal(fine.nodes, grid.nodes)
    assert np.array_equal(fine.weights, grid.weights)
    assert fine.axes == grid.axes == (1,)


def test_grid_arrays_are_read_only_copies(warped4):
    nodes, weights = np.zeros((3, 4)), np.ones(3)
    grid = quad.QuadratureGrid(nodes, weights, (3,))
    nodes[:] = 1.0
    weights[:] = 2.0
    assert np.all(grid.nodes == 0.0) and np.all(grid.weights == 1.0)
    grid = quad.grid_for(warped4.manifold, warped4.default_grid)
    with pytest.raises(ValueError, match="read-only"):
        grid.nodes[:] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        grid.weights[0] = 0.0


def test_a_grid_copies_a_read_only_array_its_caller_owns():
    nodes, weights = np.zeros((3, 4)), np.ones(3)
    nodes.flags.writeable = weights.flags.writeable = False
    grid = quad.QuadratureGrid(nodes, weights, (3,))
    nodes.flags.writeable = weights.flags.writeable = True
    nodes[:] = 1.0
    weights[:] = 2.0
    assert np.all(grid.nodes == 0.0) and np.all(grid.weights == 1.0)


def _meshgrid_grid(manifold, counts: dict, fixed: dict):
    """Nodes and weights of a product grid as ``np.meshgrid`` and ``np.stack`` built them."""
    lines = [
        np.array([fixed[ax]]) if ax in fixed else np.arange(counts[ax]) * (L / counts[ax])
        for ax, L in enumerate(manifold.periods)
    ]
    mesh = np.meshgrid(*lines, indexing="ij")
    nodes = np.stack([mm.ravel() for mm in mesh], axis=-1)
    w = float(np.prod([manifold.periods[ax] / k for ax, k in counts.items()]))
    return nodes, np.full(nodes.shape[0], w)


def test_product_grids_have_the_bits_of_a_meshgrid(catalog):
    for s in catalog.values():
        man = s.manifold
        if isinstance(man, InvariantFrameManifold):
            continue
        for axes in (s.default_grid, tuple(2 * k for k in s.default_grid)):
            built = [(quad.grid_for(man, axes), dict(enumerate(axes)), {})]
            if (leaf := s.leaf) is not None:
                counts = {ax: axes[ax] for ax in leaf.axes}
                built.append((quad.leaf_grid(man, leaf, tuple(counts.values())), counts, leaf.fixed))
            for grid, counts, fixed in built:
                nodes, weights = _meshgrid_grid(man, counts, fixed)
                assert grid.nodes.shape == nodes.shape and grid.nodes.tobytes() == nodes.tobytes(), s.name
                assert grid.weights.tobytes() == weights.tobytes(), s.name
                assert not grid.nodes.flags.writeable and not grid.weights.flags.writeable


def test_a_product_grid_peaks_at_the_arrays_it_holds(warped4):
    # 2**20 nodes on four axes hold 40 MB of nodes and weights.
    quad.grid_for(warped4.manifold, (2, 2, 2, 2))  # first-call allocations
    tracemalloc.start()
    try:
        grid = quad.grid_for(warped4.manifold, (8, 8, 8, 2048))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.count == 2**20
    assert peak <= 48 * 2**20


def test_chunking_does_not_change_the_sum(warped4, monkeypatch):
    grid = quad.grid_for(warped4.manifold, (4, 4, 4, 16))

    def smooth(pts):
        return np.sin(pts[..., 3]) + np.cos(pts[..., 0]) * np.sin(pts[..., 2])

    full = quad.integrate(warped4.manifold, smooth, grid)
    main = verify.verify_grid_checks(warped4, ["main:1"], tolerance=1e-7)[0]
    monkeypatch.setattr(quad, "CHUNK", 100)
    chunked = quad.integrate(warped4.manifold, smooth, grid)
    assert full == chunked  # bitwise, thanks to the exact sum

    # the dict-valued form: every term of a multi-term integral
    monkeypatch.setattr(quad, "CHUNK", 500)
    main_chunked = verify.verify_grid_checks(warped4, ["main:1"], tolerance=1e-7)[0]
    assert main_chunked.residual == main.residual
    assert main_chunked.terms == main.terms


def test_leaf_grid_and_density(warped4, heisenberg):
    man, lf = warped4.manifold, warped4.leaf
    lgrid = quad.leaf_grid(man, lf, (8, 8))

    def induced_density(pts):
        """sqrt(det) of the metric restricted to the leaf's axes."""
        coords = man.seed(pts, order=0)
        g = stack(man.metric_jets(coords), coords).value
        return np.sqrt(np.linalg.det(g[..., list(lf.axes), :][..., list(lf.axes)]))

    area = quad.integrate(man, lambda pts: np.ones(pts.shape[0]), lgrid, density=induced_density)
    want = TWO_PI**2 * warp_a(0.0) * warp_b(0.0)
    assert abs(area - want) < 1e-12

    lgrid = quad.leaf_grid(heisenberg.manifold, heisenberg.leaf)
    assert lgrid.count == 1 and lgrid.weights[0] == 1.0

    from folsub.scenarios import LeafSpec

    with pytest.raises(UnsupportedLeafError):
        quad.leaf_grid(heisenberg.manifold, LeafSpec("bad"))


@pytest.mark.parametrize("doubled", [False, True], ids=["default", "doubled"])
def test_a_grid_pass_weights_by_the_volume_density(catalog, doubled):
    # The pass's density is sqrt(det g) of its own geometry's metric, on the
    # distinct nodes; it must give every node the bits of volume_density.
    for s in catalog.values():
        grid = verify._grid(s)
        grid = quad.refined(s.manifold, grid) if doubled else grid
        integrals = verify._grid_pass(s, grid, [("closed-form-c", verify.CHECKS["closed-form-c"], None)])
        assert integrals["closed-form-c", "volume"] == quad.total_volume(s.manifold, grid), s.name


def test_nonfinite_sample_raises(flat):
    grid = quad.grid_for(flat.manifold, (4, 4, 4))

    def bad(pts):
        out = np.ones(pts.shape[0])
        out[3] = np.nan
        return out

    with pytest.raises(EvaluationError):
        quad.integrate(flat.manifold, bad, grid)


def test_reduction_keeps_samples_as_float64_blocks(flat):
    # The reduction holds one exact integer per key and no sample beyond its
    # chunk; float64 blocks of every sample would take 8 bytes per node, a
    # list of Python floats about 32.
    import tracemalloc

    grid = quad.grid_for(flat.manifold, (64, 64, 64))
    ones = lambda pts: np.ones(pts.shape[0])
    terms = lambda pts: {key: 1.0 for key in range(4)}
    tracemalloc.start()
    try:
        got = quad.integrate_terms(terms, grid, density=ones)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == {key: 1.0 for key in range(4)}
    assert peak / (grid.count * 4) < 16.0


def test_reduction_memory_does_not_grow_with_the_grid():
    import tracemalloc

    from conftest import build_conformal_torus

    man = build_conformal_torus().manifold
    peaks = []
    for axes in ((8, 8, 8, 64), (8, 8, 8, 512)):  # 32,768 and 262,144 nodes
        grid = quad.grid_for(man, axes)
        tracemalloc.start()
        try:
            quad.integrate_terms(lambda pts: {key: pts[:, key] for key in range(3)}, grid, man.volume_density)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 64 * 1024, peaks


@pytest.mark.parametrize("grouped", [False, True], ids=["per-node", "grouped"])
def test_a_sum_of_finite_samples_that_overflows_names_its_key(grouped):
    # The CLI maps EvaluationError, not OverflowError, to exit 2.
    grid = quad.QuadratureGrid(np.array([[0.0], [1.0]]), np.ones(2), (2,))
    key = ("main:0", "sigma")
    if grouped:
        terms = lambda pts: {key: quad.Grouped(np.array([1e308]), np.array([2]), np.array([0]))}
    else:
        terms = lambda pts: {key: np.full(pts.shape[0], 1e308)}
    with pytest.raises(EvaluationError, match="the sum of sigma samples of main:0 overflows"):
        quad.integrate_terms(terms, grid)


def test_a_sum_whose_partial_sums_overflow_but_total_does_not_is_exact_in_both_forms(monkeypatch):
    # The partial sum 2e308 is too large for a float; the total is not.
    monkeypatch.setattr(quad, "CHUNK", 2)
    grid = quad.QuadratureGrid(np.arange(3.0)[:, None], np.ones(3), (3,))
    samples = np.array([1e308, 1e308, -1e308])
    per_node = quad.integrate_terms(lambda pts: {"x": samples[pts[:, 0].astype(int)]}, grid)
    emitted = iter([{"x": quad.Grouped(np.array([1e308, -1e308]), np.array([2, 1]), np.array([0, 2]))}])
    grouped = quad.integrate_terms(lambda pts: next(emitted, {}), grid)
    assert per_node == grouped == {"x": 1e308}


def test_grouped_samples_take_no_density():
    grid = quad.QuadratureGrid(np.zeros((2, 1)), np.ones(2), (2,))
    terms = lambda pts: {"x": quad.Grouped(np.ones(1), np.array([2]), np.array([0]))}
    with pytest.raises(ValueError, match="grouped x samples take no density"):
        quad.integrate_terms(terms, grid, lambda pts: np.ones(pts.shape[0]))


def _group_sets(rng, count):
    """``count`` synthetic group sets: per entry a sample, a node count and the index of its weight among two."""
    two_weights = (2 * np.pi / 4) ** 3, 0.3
    for i in range(count):
        n = int(rng.integers(1, 9))
        kind = i % 6
        if kind == 0:  # signed zeros only: the sum is +0.0
            values = rng.choice([0.0, -0.0], n)
        elif kind == 1:  # subnormals
            values = rng.choice([-1, 1], n) * rng.integers(0, 2**52, n) * 5e-324
        elif kind == 2:  # near 1e300 and 1e-300
            values = rng.standard_normal(n) * 10.0 ** rng.choice([-300, 300], n)
        elif kind == 3:  # mixed signs and magnitudes, with cancelling pairs
            values = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
            values[: n // 2] = -values[n - n // 2 :][: n // 2]
        else:
            values = rng.uniform(-1.0, 1.0, n)
        counts = rng.integers(1, 65, n)
        if i % 250 == 7:
            counts[0] = 2**20
        elif i % 3 == 0:
            counts = 2 ** rng.integers(0, 11, n) + rng.integers(0, 2, n)
        weights = rng.integers(0, 2, n) if i % 2 else np.zeros(n, dtype=int)
        yield values, counts, np.array(two_weights)[weights]


def test_grouped_samples_sum_to_the_fsum_of_their_per_node_copies():
    # The oracle is math.fsum over every node's copy, (value + 0.0) * weight,
    # in grid order; the grouped sum must have its bits, signed zeros
    # included, and so must the sum of the copies given per node.
    rng = np.random.default_rng(1997)
    for values, counts, weights in _group_sets(rng, 2000):
        first = np.concatenate([[0], np.cumsum(counts)[:-1]])
        node_weights = np.repeat(weights, counts)
        grid = quad.QuadratureGrid(np.arange(node_weights.size, dtype=float)[:, None], node_weights, (node_weights.size,))
        want = math.fsum(np.repeat((values + 0.0) * weights, counts).tolist())
        emitted = iter([{"x": quad.Grouped(values, counts, first)}])
        got = quad.integrate_terms(lambda pts: next(emitted, {}), grid)["x"]
        copies = np.repeat(values, counts)
        per_node = quad.integrate_terms(lambda pts: {"x": copies[pts[:, 0].astype(int)]}, grid)["x"]
        assert repr(got) == repr(per_node) == repr(want), (values, counts, weights)

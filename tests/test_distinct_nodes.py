"""Distinct-node evaluation, held bit for bit to the evaluation on every node.

``foliation.distinct_nodes`` groups the nodes of a whole grid by their
coordinates on the axes the closures read, whatever ``quadrature.CHUNK``;
the grid passes, the leaf integrals and the scenario measurement build one
``Geometry`` point per group.  Two oracles hold it: the grouping by the
closures' output bytes (``helpers.fingerprint_groups``), which it must
equal on every grid the catalog and the conformal torus are evaluated on,
and the same code with every node its own group
(``helpers.evaluate_per_node``), under which a pass must build ``Geometry``
on every node of its grid, and, for the calibration floor, the connection
evaluated from order-1 seeds on every node
(``helpers.per_node_selftest_floor``).
"""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import build_conformal_torus
from folsub import foliation, quadrature, scenarios, verify
from folsub.errors import EvaluationError
from folsub.foliation import FoliationStructure, distinct_nodes
from folsub.jets import Jet
from folsub.manifolds import ChartManifold
from helpers import evaluate_per_node, fingerprint_groups, per_node_selftest_floor, record_geometry_points

CATALOG = scenarios.catalog_names()
CHUNKS = (4096, 512, 32, 1)


def _all_grid_checks(scenario) -> list:
    return ["divergence-selftest", "reeb", *(f"main:{r}" for r in range(scenario.n)), "closed-form-c", "sigma2-image"]


def _bits(report) -> tuple:
    """Everything a report carries except its wall time, every number by ``repr``."""
    return (
        report.formula_id,
        report.verdict,
        repr(report.residual),
        repr(report.tolerance),
        repr(report.admissibility_max),
        repr(sorted(report.grid.items())),
        {key: repr(value) for key, value in report.terms.items()},
    )


def _fresh(grid):
    """A new grid object with the nodes of ``grid``: it holds no plan, so its first pass groups the nodes itself."""
    return quadrature.QuadratureGrid(grid.nodes, grid.weights, grid.axes)


# -- the grouping, against the closures' output bytes ------------------------------------


def _point_sets(scenario) -> dict:
    """Every node set the scenario is grouped on: its default and doubled grids, its leaf grids and its flag sample."""
    man = scenario.manifold
    grid = verify._grid(scenario)
    sets = {"default": grid.nodes, "doubled": quadrature.refined(man, grid).nodes}
    if (spec := scenario.leaf) is not None:
        axes = tuple(scenario.default_grid[ax] for ax in spec.axes)
        sets[f"leaf {spec.name}"] = quadrature.leaf_grid(man, spec, axes).nodes
    sets["sample"] = scenarios._sample_points(man, scenario.default_grid)
    return sets


@pytest.mark.parametrize("name", CATALOG + ["conformal_torus"])
def test_the_groups_equal_those_of_the_closure_output_bytes(name, catalog, conformal, monkeypatch):
    s = conformal if name == "conformal_torus" else catalog[name]
    for label, points in _point_sets(s).items():
        groups = []
        for chunk in CHUNKS:
            monkeypatch.setattr(quadrature, "CHUNK", chunk)
            groups.append(distinct_nodes(s.fol, points))
        first, group = groups[0]
        assert first.dtype == group.dtype == np.intp and group.shape == (points.shape[0],)
        for order in (1, 2):  # one grouping serves a Geometry of either order
            want = fingerprint_groups(s.fol, points, order)
            for chunk, (first, group) in zip(CHUNKS, groups):
                assert np.array_equal(first, want[0]) and np.array_equal(group, want[1]), (label, order, chunk)


def _metric_entry_foliation(entry):
    """A 3-torus foliation whose metric has the closure ``entry`` off the diagonal; every frame is constant."""

    def metric(coords):
        off = entry(coords)
        return [[1.0, off, 0.0], [off, 1.0, 0.0], [0.0, 0.0, 1.0]]

    man = ChartManifold(dim=3, periods=(1.0,) * 3, metric=metric)
    unit = lambda i: [1.0 if k == i else 0.0 for k in range(3)]
    return FoliationStructure(man, 1, lambda coords: [unit(0)], lambda coords: unit(1), lambda coords: [unit(2)])


def _nodes(xs):
    return np.array([[x, 0.25, 0.5] for x in xs])


def _reports_equal_the_per_node_evaluation(fol, points, monkeypatch):
    """Assert that the grid checks over the nodes ``points`` report the bits of the per-node evaluation."""
    s = scenarios._finalize("entry_torus", fol, declared={}, expected={}, leaf=None, default_grid=(2, 2, 2))
    grid = quadrature.QuadratureGrid(points, np.full(points.shape[0], 0.25), (points.shape[0],))
    grouped = [_bits(rep) for rep in verify.verify_grid_checks(s, _all_grid_checks(s), grid)]
    with monkeypatch.context() as m:
        evaluate_per_node(m)
        assert [_bits(rep) for rep in verify.verify_grid_checks(s, _all_grid_checks(s), _fresh(grid))] == grouped


def test_nodes_differing_only_in_the_sign_of_a_zero_are_distinct(monkeypatch):
    # x * 0.0 is -0.0 at negative x and 0.0 elsewhere; its derivatives are all
    # 0.0.  The closure outputs at x = -1 and -2 (and at 1 and 2) agree bit for
    # bit, but the nodes differ in x, which the metric reads: they stay apart.
    fol = _metric_entry_foliation(lambda coords: coords[0] * 0.0)
    points = _nodes([-1.0, 1.0, -2.0, 2.0, 1.0])
    assert [a.tolist() for a in fingerprint_groups(fol, points, 1)] == [[0, 1], [0, 1, 0, 1, 1]]
    first, group = distinct_nodes(fol, points)
    assert first.tolist() == [0, 1, 2, 3]
    assert group.tolist() == [0, 1, 2, 3, 1]
    _reports_equal_the_per_node_evaluation(fol, points, monkeypatch)


@pytest.mark.parametrize("chunk", [1, 2])
def test_a_signed_zero_pair_in_different_chunks_stays_apart(chunk, monkeypatch):
    # The last node repeats the second in a later chunk, which reads its held rows.
    monkeypatch.setattr(quadrature, "CHUNK", chunk)
    fol = _metric_entry_foliation(lambda coords: coords[0] * 0.0)
    points = _nodes([-1.0, 1.0, -2.0, 2.0, 1.0])
    first, group = distinct_nodes(fol, points)
    assert first.tolist() == [0, 1, 2, 3]
    assert group.tolist() == [0, 1, 2, 3, 1]
    _reports_equal_the_per_node_evaluation(fol, points, monkeypatch)


def test_a_coordinate_pair_of_signed_zeros_stays_apart():
    fol = _metric_entry_foliation(lambda coords: coords[0] * 0.0 + 0.0)  # 0.0 at x = -0.0 and 0.0
    points = _nodes([0.0, -0.0, 0.0, -0.0])
    assert [a.tolist() for a in fingerprint_groups(fol, points, 1)] == [[0], [0, 0, 0, 0]]
    first, group = distinct_nodes(fol, points)
    assert first.tolist() == [0, 1]
    assert group.tolist() == [0, 1, 0, 1]


def test_nodes_differing_by_one_ulp_in_one_hessian_entry_are_distinct(monkeypatch):
    # The entry is 0.0 with Hessian 1.0 at positive x and one ulp above at
    # negative x: the closure outputs at x = 2 and 1 (and at -1 and -3) agree
    # bit for bit, but the nodes differ in x, which the entry reads.
    def entry(coords):
        x = coords[0]
        if x.hess is None:  # the flag measurement reads values and gradients only
            return x * 0.0 + 0.0
        hess = np.zeros(x.hess.shape)
        hess[..., 0, 0] = np.where(x.value > 0.0, 1.0, np.nextafter(1.0, 2.0))
        return Jet(np.zeros(x.value.shape), np.zeros(x.grad.shape), hess)

    fol = _metric_entry_foliation(entry)
    points = _nodes([2.0, -1.0, 1.0, -3.0])
    assert [a.tolist() for a in fingerprint_groups(fol, points, 1)] == [[0, 1], [0, 1, 0, 1]]
    first, group = distinct_nodes(fol, points)
    assert first.tolist() == [0, 1, 2, 3]
    assert group.tolist() == [0, 1, 2, 3]
    _reports_equal_the_per_node_evaluation(fol, points, monkeypatch)


# -- the support: the coordinates the closures read --------------------------------------


def _xy_grid():
    """The nodes of a grid with two values on each of x, y and z, so a grouping on any set of axes can be read off."""
    return np.array(list(itertools.product([0.0, 0.5], repeat=3)))


@pytest.mark.parametrize(
    "entry, axes",
    [
        (lambda coords: coords[2] * 0.0, [2]),
        (lambda coords: coords[-1] * 0.0, [2]),  # a negative index records its axis
        (lambda coords: sum(coords[1:]) * 0.0, [1, 2]),  # a slice records its indices
        (lambda coords: coords[0] * 0.0 + coords[2] * 0.0, [0, 2]),
        (lambda coords: sum(c * 0.0 for c in coords), [0, 1, 2]),  # iteration reads every coordinate
        (lambda coords: (lambda x, y, z: z * 0.0)(*coords), [0, 1, 2]),  # so does unpacking, used or not
        (lambda coords: coords.copy()[2] * 0.0, [0, 1, 2]),  # and every list method that reads the items
        (lambda coords: (coords + [])[2] * 0.0, [0, 1, 2]),
        (lambda coords: ([] + coords)[2] * 0.0, [0, 1, 2]),
        (lambda coords: next(reversed(coords)) * 0.0, [0, 1, 2]),
        (lambda coords: 0.0, []),
    ],
)
def test_nodes_are_grouped_by_the_coordinates_the_closures_read(entry, axes):
    points = _xy_grid()
    first, group = distinct_nodes(_metric_entry_foliation(entry), points)
    keys = [tuple(p[axes]) for p in points]
    assert [keys.index(key) for key in keys] == first[group].tolist()
    assert first.size == len(set(keys))


def test_a_branch_on_a_read_value_raises_instead_of_hiding_a_read():
    def entry(coords):
        return coords[1] * 0.0 if coords[0].value > 0.5 else 0.0

    with pytest.raises(ValueError, match="truth value"):
        distinct_nodes(_metric_entry_foliation(entry), _xy_grid())


@pytest.mark.parametrize("name", ["flat_torus", "heisenberg", "round_s3"])
def test_constant_closures_give_one_group(name, catalog):
    s = catalog[name]
    for points in _point_sets(s).values():
        first, group = distinct_nodes(s.fol, points)
        assert first.tolist() == [0] and not group.any()


def test_groups_are_numbered_by_their_first_node_in_grid_order(tilted, conformal):
    grid = verify._grid(tilted)
    first, group = distinct_nodes(tilted.fol, grid.nodes)
    z = grid.nodes[:, 3]
    assert np.array_equal(grid.nodes[first], grid.nodes[: grid.axes[3]])  # the closures read z alone
    assert np.array_equal(z, z[first][group])
    assert np.array_equal(first, [np.flatnonzero(group == g)[0] for g in range(first.size)])
    grid = verify._grid(conformal)
    first, group = distinct_nodes(conformal.fol, grid.nodes)
    assert np.array_equal(first, np.arange(grid.count)) and np.array_equal(group, first)


def test_frames_split_the_groups_under_a_constant_metric():
    one = scenarios.fourier_profile(const=1.0)
    flat_tilted = scenarios.build_tilted_torus(a=one, b=one)  # flat metric, frames turning with z
    grid = verify._grid(flat_tilted)
    first, _ = distinct_nodes(flat_tilted.fol, grid.nodes)
    assert first.size == grid.axes[3]


def test_the_groups_are_the_same_under_any_chunk_size(warped4, conformal, monkeypatch):
    for s in (warped4, conformal):
        grid = verify._grid(s)
        groups = []
        for chunk in CHUNKS:
            monkeypatch.setattr(quadrature, "CHUNK", chunk)
            groups.append(distinct_nodes(s.fol, grid.nodes))
        for first, group in groups[1:]:
            assert np.array_equal(first, groups[0][0]) and np.array_equal(group, groups[0][1]), s.name
        assert first.dtype == group.dtype == np.intp and group.shape == (grid.count,)


@pytest.mark.parametrize("where", ["main-term", "sigma2-image-scan"])
def test_a_nonfinite_sample_names_the_first_bad_node_in_grid_order(where, warped4, monkeypatch):
    monkeypatch.setattr(quadrature, "CHUNK", 512)
    grid = verify._grid(warped4)
    z_bad = grid.nodes[5, 3]
    poison = lambda geom, vals: np.where(geom.points[:, 3] == z_bad, np.nan, vals)
    if where == "main-term":
        real = verify._main_terms
        monkeypatch.setattr(verify, "_main_terms", lambda geom, r: {k: poison(geom, v) for k, v in real(geom, r).items()})
        checks, match = ["main:0"], "sigma sample of main:0"
    else:
        real = foliation.Geometry.ricci_p
        monkeypatch.setattr(foliation.Geometry, "ricci_p", lambda geom, X: poison(geom, real(geom, X)))
        checks, match = ["sigma2-image"], "ricci_p_NN sample of sigma2-image"
    messages = []
    for per_node in (False, True):
        with monkeypatch.context() as m:
            if per_node:
                evaluate_per_node(m)
            with pytest.raises(EvaluationError, match=match) as info:
                verify.verify_grid_checks(warped4, checks, _fresh(grid), tolerance=1e-7)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].endswith(f"at point {grid.nodes[5]!r}")


# -- the passes, against the per-node evaluation ----------------------------------------


@pytest.mark.parametrize(
    "name, refine",
    [(name, False) for name in CATALOG] + [("conformal_torus", False), ("warped_torus_4", True)],
)
def test_grid_checks_equal_the_per_node_evaluation(name, refine, catalog, conformal, monkeypatch):
    scenario = conformal if name == "conformal_torus" else catalog[name]
    grid = verify._grid(scenario)
    if refine:
        grid = quadrature.refined(scenario.manifold, grid)
    checks = _all_grid_checks(scenario)
    with monkeypatch.context() as m:
        points = record_geometry_points(m)
        grouped = [_bits(rep) for rep in verify.verify_grid_checks(scenario, checks, grid)]
    assert sum(points) == verify.grid_plan(scenario.fol, grid).first.size
    with monkeypatch.context() as m:
        evaluate_per_node(m)
        points = record_geometry_points(m)
        per_node = [_bits(rep) for rep in verify.verify_grid_checks(scenario, checks, _fresh(grid))]
    assert sum(points) == grid.count  # the oracle reached the pass
    assert grouped == per_node
    floor = grouped[0][2]
    assert repr(verify.calibrate_tolerance(scenario, grid)[1]) == floor == repr(per_node_selftest_floor(scenario, grid))


def test_nodes_repeating_across_chunks_but_not_within_one_share_one_geometry(warped4, monkeypatch):
    # The default grid's 32 z-values, the only coordinate the closures read,
    # run fastest: a chunk of 32 nodes holds each once, and every chunk after
    # the first repeats the first.
    grid = verify._grid(warped4)
    checks = _all_grid_checks(warped4)
    whole = [_bits(rep) for rep in verify.verify_grid_checks(warped4, checks, _fresh(grid))]
    monkeypatch.setattr(quadrature, "CHUNK", 32)
    fresh = _fresh(grid)
    with monkeypatch.context() as m:
        points = record_geometry_points(m)
        chunked = [_bits(rep) for rep in verify.verify_grid_checks(warped4, checks, fresh)]
    plan = verify.grid_plan(warped4.fol, fresh)
    assert np.array_equal(plan.group, np.tile(np.arange(32), grid.count // 32))
    assert points == [32]
    assert chunked == whole
    with monkeypatch.context() as m:
        evaluate_per_node(m)
        assert [_bits(rep) for rep in verify.verify_grid_checks(warped4, checks, _fresh(grid))] == chunked


@pytest.mark.parametrize("name, axes", [("warped_torus_4", (2, 2, 4, 32)), ("conformal_torus", (2, 2, 4, 8))])
def test_reports_are_the_same_under_any_chunk_size(name, axes, catalog, conformal, monkeypatch):
    s = conformal if name == "conformal_torus" else catalog[name]
    grid = quadrature.grid_for(s.manifold, axes)
    reports = []
    for chunk in CHUNKS:
        monkeypatch.setattr(quadrature, "CHUNK", chunk)
        grid_reports = verify.verify_grid_checks(s, _all_grid_checks(s), _fresh(grid))
        leaf_reports = verify.verify_grid_checks(s, [f"leaf:{r}" for r in range(s.n)])
        reports.append([_bits(rep) for rep in grid_reports + leaf_reports])
    assert all(other == reports[0] for other in reports[1:])


def _traced_peaks(scenario, axes) -> tuple[int, int, int]:
    """Traced peak bytes of building a grid's plan and of one grid pass over it, beyond what it starts with, and the pass's integral count."""
    grid = quadrature.grid_for(scenario.manifold, axes)
    fields = verify._selftest_fields(scenario.manifold)
    wanted = [("reeb", verify.CHECKS["reeb"], None), ("closed-form-c", verify.CHECKS["closed-form-c"], None)]
    wanted += [(f"main:{r}", verify.CHECKS["main"], r) for r in range(scenario.n)]
    tracemalloc.start()
    try:
        verify.grid_plan(scenario.fol, grid)
        plan = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]  # the plan, held for the grid's lifetime, not the pass's
        tracemalloc.reset_peak()
        integrals = verify._grid_pass(scenario, grid, wanted, fields)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return plan, peak, len(integrals)


def test_a_pass_over_a_grid_without_repeated_nodes_holds_nothing_beyond_its_reduction(conformal):
    # Every node is its own representative, so no chunk reads another's rows,
    # and the reduction holds one integer per integral: four times the nodes
    # may cost at most 1 MB more.  Grouping the nodes may cost 256 B per node.
    _traced_peaks(conformal, (2, 2, 2, 2))  # first-call allocations
    small_plan, small, _ = _traced_peaks(conformal, (8, 8, 8, 16))
    large_plan, large, _ = _traced_peaks(conformal, (8, 8, 8, 64))
    extra = 8**3 * (64 - 16)
    assert large - small <= 2**20
    assert large_plan - small_plan <= 256 * extra


def test_a_pass_evaluates_the_metric_on_the_probe_and_the_representatives_only(warped4):
    # The doubled grid has 32,768 nodes and 64 distinct z-values, the only
    # coordinate the closures read.
    seen = []

    def counting(coords):
        out = warped4.manifold.metric(coords)
        seen.append(next(x.value.shape[0] for row in out for x in row if isinstance(x, Jet)))
        return out

    man = replace(warped4.manifold, metric=counting)
    s = replace(warped4, fol=replace(warped4.fol, manifold=man))
    grid = quadrature.refined(man, verify._grid(s))
    verify.verify_grid_checks(s, ["reeb"], grid)
    assert grid.count == 32768 and sum(seen) <= 64 + 2


def test_grouped_samples_reach_the_reduction_once_per_group(warped4, monkeypatch):
    # With a tolerance the pass runs no self-test, so every key it emits is
    # grouped: each chunk hands over at most one entry per group new to it,
    # 64 per key over the doubled grid (32,768 nodes), with all the nodes'
    # counts.  The new groups are counted from z, the coordinate the closures read.
    monkeypatch.setattr(quadrature, "CHUNK", 512)
    real_integrate = verify._integrate_terms
    entries, counts, seen = {}, {}, set()

    def recording(scenario, grid, term_fn, density=None):
        def recorded(pts):
            out = term_fn(pts)
            new = {float(z) for z in pts[:, 3]} - seen
            seen.update(new)
            for key, vals in out.items():
                assert isinstance(vals, quadrature.Grouped), key
                assert len(vals.values) == len(vals.counts) == len(vals.first) <= len(new), key
                entries[key] = entries.get(key, 0) + len(vals.values)
                counts[key] = counts.get(key, 0) + int(np.sum(vals.counts))
            return out

        return real_integrate(scenario, grid, recorded, density)

    monkeypatch.setattr(verify, "_integrate_terms", recording)
    axes = tuple(2 * k for k in warped4.default_grid)
    verify.verify_grid_checks(warped4, ["reeb", "main:0", "main:1"], axes, tolerance=1e-7)
    assert len(seen) == 64 and len(entries) == 1 + 2 * 7  # sigma_1 and seven terms per order
    assert set(entries.values()) == {64} and set(counts.values()) == {32768}


def test_leaf_integrals_equal_the_per_node_evaluation(catalog, conformal, monkeypatch):
    cases = [(s, r) for s in (*catalog.values(), conformal) if s.leaf is not None for r in range(s.n)]
    assert {s.name for s, _ in cases} == set(CATALOG) | {"conformal_torus"}
    grouped = [_bits(verify.verify_leaf(s, r)) for s, r in cases]
    with monkeypatch.context() as m:
        evaluate_per_node(m)
        points = record_geometry_points(m)
        assert [_bits(verify.verify_leaf(s, r)) for s, r in cases] == grouped
    leaf_nodes = [quadrature.leaf_grid(s.manifold, s.leaf, tuple(s.default_grid[ax] for ax in s.leaf.axes)).count for s, _ in cases]
    assert points == leaf_nodes  # one pass per case, every node its own Geometry point


def test_scenario_measurement_equals_the_per_node_evaluation(catalog, conformal, monkeypatch):
    grouped = {**catalog, "conformal_torus": conformal}
    with monkeypatch.context() as m:
        evaluate_per_node(m)
        per_node = {name: scenarios.build(name) for name in CATALOG}
        per_node["conformal_torus"] = build_conformal_torus()
    for name, scenario in grouped.items():
        assert repr(scenario.residuals) == repr(per_node[name].residuals), name
        assert scenario.flags == per_node[name].flags, name

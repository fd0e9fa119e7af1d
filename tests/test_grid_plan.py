"""The plan a quadrature grid carries: node groups and calibration floor, once per (foliation, grid).

``verify.grid_plan`` computes them on the first grid pass over a grid object;
every later grid check on that object reads them back, under any
``quadrature.CHUNK``: the groups are grid-wide.  The plan holds no
density: each pass takes it from its own geometry, so no grid pass calls
``volume_density``.  The reports must be those of a fresh grid with equal
nodes, bit for bit.
"""

import gc
from concurrent.futures import ThreadPoolExecutor
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from folsub import quadrature, scenarios, verify
from folsub.manifolds import ChartManifold, InvariantFrameManifold
from helpers import evaluate_per_node, rotated_foliation

CATALOG = scenarios.catalog_names()


def _bits(report) -> str:
    """The report by ``repr``, without its wall time."""
    return repr(replace(report, wall_time_s=0.0))


def _fresh(grid):
    """A new grid object with the nodes, weights and axes of ``grid``."""
    return quadrature.QuadratureGrid(grid.nodes, grid.weights, grid.axes)


def _count_calls(monkeypatch) -> dict:
    """Count the node groupings, densities and self-test field evaluations from here on."""
    calls = {"distinct_nodes": 0, "volume_density": 0, "trig_scalars": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in ("distinct_nodes", "trig_scalars"):
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    for cls in (ChartManifold, InvariantFrameManifold):
        monkeypatch.setattr(cls, "volume_density", counting("volume_density", cls.volume_density))
    return calls


@pytest.mark.parametrize("name", CATALOG)
def test_a_second_grid_check_on_the_grid_recomputes_nothing_the_plan_holds(name, catalog, monkeypatch):
    s = catalog[name]
    grid = verify._grid(s)
    verify.verify_reeb(s, grid)
    with monkeypatch.context() as m:
        calls = _count_calls(m)
        second = verify.verify_main(s, 0, grid)
    assert calls == {"distinct_nodes": 0, "volume_density": 0, "trig_scalars": 0}
    assert _bits(second) == _bits(verify.verify_main(s, 0, _fresh(grid)))


def test_calibration_on_a_planned_grid_returns_the_same_floor(warped4, monkeypatch):
    grid = verify._grid(warped4)
    verify.verify_main(warped4, 1, grid)
    with monkeypatch.context() as m:
        calls = _count_calls(m)
        held = verify.calibrate_tolerance(warped4, grid)
    assert calls["trig_scalars"] == 0
    assert repr(held) == repr(verify.calibrate_tolerance(warped4, _fresh(grid)))
    assert repr(held[1]) == repr(verify.grid_plan(warped4.fol, grid).floor)


def test_two_foliations_on_one_grid_get_separate_plans(warped4):
    rotated = replace(warped4, fol=rotated_foliation(warped4.fol))
    grid = verify._grid(warped4)
    reports = [verify.verify_main(s, 1, grid) for s in (warped4, rotated)]
    plans = [verify.grid_plan(s.fol, grid) for s in (warped4, rotated)]
    assert plans[0] is not plans[1] and grid.plans == plans
    assert [plan.fol for plan in plans] == [warped4.fol, rotated.fol]
    assert [_bits(r) for r in reports] == [_bits(verify.verify_main(s, 1, _fresh(grid))) for s in (warped4, rotated)]


def test_a_changed_chunk_size_reuses_the_plan(warped4, monkeypatch):
    grid = verify._grid(warped4)
    whole = verify.verify_main(warped4, 1, grid)
    plan = verify.grid_plan(warped4.fol, grid)
    assert not hasattr(plan, "chunk") and plan.group.shape == (grid.count,)
    monkeypatch.setattr(quadrature, "CHUNK", 512)
    calls = _count_calls(monkeypatch)
    chunked = verify.verify_main(warped4, 1, grid)
    assert grid.plans == [plan] and verify.grid_plan(warped4.fol, grid) is plan
    assert calls == {"distinct_nodes": 0, "volume_density": 0, "trig_scalars": 0}  # the floor is held too
    assert _bits(chunked) == _bits(whole)
    fresh = _fresh(grid)
    assert _bits(verify.verify_main(warped4, 1, fresh)) == _bits(whole)
    rebuilt = verify.grid_plan(warped4.fol, fresh)
    assert (rebuilt.first == plan.first).all() and (rebuilt.group == plan.group).all()


def test_the_plan_dies_with_its_grid(warped4):
    grid = verify._grid(warped4)
    verify.verify_reeb(warped4, grid)
    plan = weakref.ref(verify.grid_plan(warped4.fol, grid))
    assert plan() is not None
    del grid
    gc.collect()
    assert plan() is None


def test_a_fresh_grid_per_call_shares_no_plan(warped4, monkeypatch):
    verify.verify_reeb(warped4)
    calls = _count_calls(monkeypatch)
    verify.verify_reeb(warped4)
    assert calls["distinct_nodes"] == calls["trig_scalars"] == 1 and calls["volume_density"] == 0


def test_plans_are_keyed_by_foliation_alone(warped4):
    # Whatever order a pass builds Geometry at, the grid holds one grouping per foliation.
    grid = verify._grid(warped4)
    plan = verify.grid_plan(warped4.fol, grid)
    assert [f.name for f in fields(plan)] == ["fol", "first", "group", "count", "floor"]
    verify.verify_grid_checks(warped4, ["reeb", "main:1"], grid)
    assert grid.plans == [plan] and verify.grid_plan(warped4.fol, grid) is plan
    assert np.array_equal(plan.count, np.bincount(plan.group)) and plan.count.sum() == grid.count


def test_a_grid_of_two_weights_groups_the_nodes_by_weight_too(warped4, monkeypatch):
    # The nodes at x = 0 weigh double, so each of the 32 z-values, the only
    # coordinate the closures read, names two groups: its nodes at x = 0 and
    # those from x = 1 on.  The pass's integrals are those of an evaluation
    # on every node, bit for bit.
    grid = verify._grid(warped4)
    weights = grid.weights * np.where(grid.nodes[:, 0] == 0.0, 2.0, 1.0)
    two = quadrature.QuadratureGrid(grid.nodes, weights, grid.axes)
    plan = verify.grid_plan(warped4.fol, two)
    assert plan.first.size == 64 and plan.count.sum() == two.count
    assert np.array_equal(plan.first, np.concatenate([np.arange(32), two.count // 4 + np.arange(32)]))
    assert all(np.unique(two.weights[plan.group == g]).size == 1 for g in range(64))
    selftest = verify._selftest_fields(warped4.manifold)
    wanted = [("reeb", verify.CHECKS["reeb"], None), ("closed-form-c", verify.CHECKS["closed-form-c"], None)]
    wanted += [(f"main:{r}", verify.CHECKS["main"], r) for r in (0, 1)]
    grouped = verify._grid_pass(warped4, two, wanted, selftest)
    evaluate_per_node(monkeypatch)
    per_node = verify._grid_pass(warped4, _fresh(two), wanted, selftest)
    assert repr(grouped) == repr(per_node)


def test_two_threads_on_one_grid_report_what_a_sequential_run_does(warped4):
    # No lock guards grid.plans: both threads may group the nodes and append
    # a plan for the same foliation, and each may store the floor.
    def reports(run):
        grid = verify._grid(warped4)
        out = run(lambda r: verify.verify_main(warped4, r, grid), (0, 1))
        return [_bits(rep) for rep in out], grid

    sequential, _ = reports(lambda check, orders: [check(r) for r in orders])
    for _ in range(3):
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded, grid = reports(lambda check, orders: list(pool.map(check, orders)))
        assert threaded == sequential
        assert 1 <= len(grid.plans) <= 2 and all(plan.fol is warped4.fol for plan in grid.plans)

"""The per-axis evaluator of the random trig test fields against their closure form.

``verify.trig_scalars`` evaluates each sine factor once per distinct value of
its axis and multiplies only the gradient columns a factor touches; it returns
order-1 jets whatever the order of the seeds.  ``helpers.reference_trig_scalar``
draws the same scalars from the same RNG and evaluates them by one ``jets.sin``
lift and ``Jet`` product per factor on every point.  On order-1 seeds values
must agree bit for bit, which is stricter than by ``repr``, and gradients by
``np.array_equal``, since the closures can leave -0.0 in an untouched entry
where the evaluator leaves +0.0.
"""

import numpy as np
import pytest

from conftest import build_conformal_torus
from folsub import foliation, jets, quadrature, verify
from helpers import reference_distribution_field, reference_trig_scalar

# The calibration's own draws, then one scalar from each of two seeds: 134
# draws a constant mode (every wave number zero) beside a non-constant one on
# three and on four axes, and 2477 a scalar whose modes are all constant on
# three axes.
SEEDS = (verify.SELFTEST_SEED, 134, 2477)
GRID_SCENARIOS = ("warped_torus_4", "tilted_torus_4", "warped_torus_3", "conformal_torus")


def _draws(manifold, draw):
    """Every seed's scalars: the calibration's count for its seed, one for the others."""
    out = []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        count = verify.SELFTEST_FIELDS * manifold.dim if seed == verify.SELFTEST_SEED else 1
        out += [draw(manifold, rng) for _ in range(count)]
    return out


def _blocks(scenario):
    """Every quadrature chunk of the default and doubled grids, 50 random points and one point."""
    man = scenario.manifold
    grid = verify._grid(scenario)
    for g in (grid, quadrature.refined(man, grid)):
        for start in range(0, g.count, quadrature.CHUNK):
            yield g.nodes[start : start + quadrature.CHUNK]
    rng = np.random.default_rng(17)
    yield man.random_points(rng, 50)
    yield man.random_points(rng)


def _assert_same(got, want):
    if not isinstance(want, jets.Jet):
        assert type(got) is float and repr(got) == repr(want)
        return
    assert isinstance(got, jets.Jet) and got.order == want.order == 1
    assert got.value.shape == want.value.shape and got.value.tobytes() == want.value.tobytes()
    assert np.array_equal(got.grad, want.grad)


@pytest.fixture(scope="module")
def scenarios(catalog):
    return {**catalog, "conformal_torus": build_conformal_torus()}


@pytest.mark.parametrize("name", [*GRID_SCENARIOS, "heisenberg"])
def test_evaluator_equals_the_closures_on_every_chunk(name, scenarios):
    man = scenarios[name].manifold
    scalars, closures = _draws(man, verify.random_trig_scalar), _draws(man, reference_trig_scalar)
    for pts in _blocks(scenarios[name]):
        coords = man.seed(pts, 1)
        for got, ref in zip(verify.trig_scalars(scalars, coords), closures, strict=True):
            _assert_same(got, ref(coords))


@pytest.mark.parametrize("name", [*GRID_SCENARIOS, "heisenberg"])
def test_order_two_seeds_give_the_order_one_jets(name, scenarios):
    man = scenarios[name].manifold
    scalars = _draws(man, verify.random_trig_scalar)
    for pts in _blocks(scenarios[name]):
        first = verify.trig_scalars(scalars, man.seed(pts, 1))
        for got, want in zip(verify.trig_scalars(scalars, man.seed(pts, 2)), first, strict=True):
            if not isinstance(want, jets.Jet):
                assert type(got) is float and repr(got) == repr(want)
                continue
            assert isinstance(got, jets.Jet) and got.order == 1
            assert got.value.tobytes() == want.value.tobytes() and got.grad.tobytes() == want.grad.tobytes()


def test_the_draws_cover_every_kind_of_mode(scenarios):
    for name in ("warped_torus_3", "warped_torus_4"):
        man = scenarios[name].manifold
        scalars = _draws(man, verify.random_trig_scalar)
        factors = [f for s in scalars for _, f in s]
        assert any(rate < 0 for f in factors for _, rate, _ in f)
        assert any(0 < len(f) < man.dim for f in factors)
        assert any(not f for f in factors)
    three_axes = _draws(scenarios["warped_torus_3"].manifold, verify.random_trig_scalar)
    assert any(all(not f for _, f in s) for s in three_axes)
    assert all(type(s) is float for s in _draws(scenarios["heisenberg"].manifold, verify.random_trig_scalar))


def test_calibration_fields_build_each_axis_table_once(warped4, monkeypatch):
    man = warped4.manifold
    coords = man.seed(verify._grid(warped4).nodes, order=1)
    fields = verify._selftest_fields(man)
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    assert len(fields(coords)) == verify.SELFTEST_FIELDS
    assert len(calls) == man.dim


@pytest.mark.parametrize("s", range(4))
def test_divergence_split_equals_the_closure_fields(s, catalog, monkeypatch):
    seed = 31 + 1000 * s
    for scenario in catalog.values():
        got = verify.check_divergence_split(scenario, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(verify, "random_distribution_field", reference_distribution_field)
            want = verify.check_divergence_split(scenario, seed=seed)
        assert repr(got.residual) == repr(want.residual), scenario.name
        assert got.verdict == want.verdict == "pass", scenario.name


@pytest.mark.parametrize("s", range(4))
def test_divergence_split_equals_an_order_two_geometry(s, catalog, monkeypatch):
    seed = 31 + 1000 * s
    order_two = lambda fol, pts, order: foliation.Geometry(fol, pts, order=2)
    for scenario in catalog.values():
        got = verify.check_divergence_split(scenario, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(verify, "Geometry", order_two)
            want = verify.check_divergence_split(scenario, seed=seed)
        assert repr(got.residual) == repr(want.residual), scenario.name
        pts = scenario.manifold.random_points(np.random.default_rng(seed), 50)
        X = verify.random_distribution_field(scenario.fol, np.random.default_rng(seed + 1))
        got = foliation.divx_residual(scenario.fol, X, pts)
        assert repr(got) == repr(foliation.Geometry(scenario.fol, pts, order=2).divx_residual(X)), scenario.name

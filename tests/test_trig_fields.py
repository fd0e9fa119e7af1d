"""The per-axis evaluator of the random trig test fields against their closure form.

``verify.trig_scalars`` evaluates each sine factor once per distinct value of
its axis, and its derivative only for the gradient columns its caller reads:
all of them for the divergence split, the component's own axis for the
calibration's self-test.  ``helpers.reference_trig_scalar`` draws the same
scalars from the same RNG and evaluates them by one ``jets.sin`` lift and
``Jet`` product per factor on every point.  On order-1 seeds values must agree
bit for bit, which is stricter than by ``repr``, and gradients by
``np.array_equal``, since the closures can leave -0.0 in an untouched entry
where the evaluator leaves +0.0.

Every divergence is taken from the diagonal of the covariant derivative
alone (``manifolds.traced_divergence``), which must give the bits of the
trace of the whole ``manifolds.differential``.  The self-test's divergences,
from the value and diagonal arrays of ``verify._selftest_fields``, must have
the bytes of its path through full jets (``helpers.reference_trig_jets``,
``jets.stack`` and the trace, in
``helpers.reference_selftest_divergences``).

The evaluator lays its tables on a block by broadcasting when the block is a
box, the C-order product of its axes' distinct values, and by gathering
otherwise.  Every chunk of the catalog's default grids and of the doubled
``warped_torus_4`` grid must take the broadcast route, a shuffled copy the
gather route with the same bytes, and the doubled ``tilted_torus_4`` grid's
chunks the gather route; degenerate and random product grids keep the bytes
of the full jets.  The index-order sum of the diagonal must give the bytes of
the trace (``helpers.reference_traced_divergence``) on signed zeros and
subnormals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_conformal_torus
from folsub import foliation, jets, quadrature, verify
from folsub.manifolds import InvariantFrameManifold, differential, divergence_jets, traced_divergence
from folsub.scenarios import catalog_names
from helpers import (
    reference_distribution_field,
    reference_selftest_divergences,
    reference_traced_divergence,
    reference_trig_jets,
    reference_trig_scalar,
)

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


def _every_column(scalars, m):
    return [tuple(range(m))] * len(scalars)


def _axes(pts):
    return np.moveaxis(pts, -1, 0)


def _assert_same(got, want):
    """An evaluator entry ``(value, grad)`` of every column against a closure's float or order-1 jet."""
    value, grad = got
    if not isinstance(want, jets.Jet):
        assert type(value) is float and repr(value) == repr(want) and grad == {}
        return
    assert want.order == 1 and grad
    assert value.shape == want.value.shape and value.tobytes() == want.value.tobytes()
    for j in range(want.grad.shape[-1]):
        assert np.array_equal(np.broadcast_to(grad.get(j, 0.0), value.shape), want.grad[..., j])


@pytest.fixture(scope="module")
def scenarios(catalog):
    return {**catalog, "conformal_torus": build_conformal_torus()}


@pytest.mark.parametrize("name", [*GRID_SCENARIOS, "heisenberg"])
def test_evaluator_equals_the_closures_on_every_chunk(name, scenarios):
    man = scenarios[name].manifold
    scalars, closures = _draws(man, verify.random_trig_scalar), _draws(man, reference_trig_scalar)
    for pts in _blocks(scenarios[name]):
        coords = man.seed(pts, 1)
        for got, ref in zip(verify.trig_scalars(scalars, _axes(pts), _every_column(scalars, man.dim)), closures, strict=True):
            _assert_same(got, ref(coords))


@pytest.mark.parametrize("name", [*GRID_SCENARIOS, "heisenberg"])
def test_each_column_has_its_bits_whichever_columns_are_read(name, scenarios):
    # Every column asked for alone, or with the others, is the column of the
    # full jets before the evaluator took the columns its caller reads.
    man = scenarios[name].manifold
    scalars = _draws(man, verify.random_trig_scalar)
    reads = [(), *((k,) for k in range(man.dim)), tuple(range(man.dim))[::-1]]
    for pts in _blocks(scenarios[name]):
        want = reference_trig_jets(scalars, man.seed(pts, 1))
        for read in reads:
            for (value, grad), ref in zip(verify.trig_scalars(scalars, _axes(pts), [read] * len(scalars)), want, strict=True):
                if not isinstance(ref, jets.Jet):
                    assert type(value) is float and repr(value) == repr(ref) and grad == {}
                    continue
                assert value.tobytes() == ref.value.tobytes() and set(grad) <= set(read)
                for j in read:
                    col = np.broadcast_to(grad.get(j, 0.0), value.shape)
                    assert col.tobytes() == ref.grad[..., j].tobytes()


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
    nodes = verify._grid(warped4).nodes
    fields = verify._selftest_fields(man)
    calls = []
    sort = np.sort
    monkeypatch.setattr(np, "sort", lambda *a, **k: calls.append(1) or sort(*a, **k))
    assert len(fields(nodes)) == verify.SELFTEST_FIELDS
    assert len(calls) == man.dim


@pytest.mark.parametrize("name", GRID_SCENARIOS)
def test_a_selftest_chunk_derives_each_component_along_its_own_axis_only(name, scenarios, monkeypatch):
    # One derivative (a cosine of a factor) per (component, mode) whose
    # factors touch the component's own axis, and a sine per factor: the
    # self-test computes no other column.
    man = scenarios[name].manifold
    m = man.dim
    rng = np.random.default_rng(verify.SELFTEST_SEED)
    scalars = [verify.random_trig_scalar(man, rng) for _ in range(verify.SELFTEST_FIELDS * m)]
    own = sum(any(i == c % m for i, _, _ in factors) for c, s in enumerate(scalars) for _, factors in s)
    every = sum(len(factors) for s in scalars for _, factors in s)
    assert 0 < own < every
    fields, nodes = verify._selftest_fields(man), verify._grid(scenarios[name]).nodes
    calls = {"sin": 0, "cos": 0}
    for fn in calls:
        ufunc = getattr(np, fn)
        monkeypatch.setattr(np, fn, lambda x, ufunc=ufunc, fn=fn: calls.__setitem__(fn, calls[fn] + 1) or ufunc(x))
    fields(nodes[: quadrature.CHUNK])
    assert calls == {"sin": every, "cos": own}


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


SIZES = (1, 2, 3, 5, 16, 100, 511, 1024, 4096)


def _gammas(man, pts):
    """Γ^k_{kj} at ``pts`` as the manifold gives it, and broadcast to the batch.

    heisenberg and round_s3 hold Γ without a batch axis, so their slice comes
    without one too; the self-test broadcasts it to the batch.
    """
    diagonal = np.arange(man.dim)
    coords = man.seed(pts, order=1)
    gamma_kk = man.gamma_jets(coords, man.metric_jets(coords)).gamma[..., diagonal, diagonal, :]
    return gamma_kk, np.broadcast_to(gamma_kk, pts.shape[:-1] + gamma_kk.shape[-2:])


@pytest.mark.parametrize("name", [*catalog_names(), "conformal_torus"])
def test_the_diagonal_divergence_has_the_bits_of_the_full_trace(name, scenarios):
    man = scenarios[name].manifold
    rng = np.random.default_rng(23)
    draw = np.random.default_rng(verify.SELFTEST_SEED)
    scalars = [verify.random_trig_scalar(man, draw) for _ in range(verify.SELFTEST_FIELDS * man.dim)]
    diagonal = np.arange(man.dim)
    for size in SIZES:
        pts = man.random_points(rng, size)
        coords = man.seed(pts, order=1)
        gamma = man.gamma_jets(coords, man.metric_jets(coords))
        comps = reference_trig_jets(scalars, coords)
        for f in range(verify.SELFTEST_FIELDS):
            X = comps[f * man.dim : (f + 1) * man.dim]
            W = jets.stack(X, coords)
            want = jets.einsum("...kk->...", differential(gamma, W)).value
            diag = W.grad[..., diagonal, diagonal]
            for got in (*(traced_divergence(G, W.value, diag) for G in _gammas(man, pts)),
                        divergence_jets(man, coords, gamma, X)):
                assert got.shape == want.shape == (size,) and got.tobytes() == want.tobytes()


def _assert_selftest_matches_the_full_jets(man, pts):
    fields = verify._selftest_fields(man)
    for gamma_kk in _gammas(man, pts):
        want = reference_selftest_divergences(man, pts, gamma_kk)
        got = [traced_divergence(gamma_kk, value, diag) for value, diag in fields(pts)]
        assert len(got) == len(want) == verify.SELFTEST_FIELDS
        for a, b in zip(got, want):
            assert a.shape == b.shape == pts.shape[:-1] and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", [*catalog_names(), "conformal_torus"])
def test_selftest_divergences_have_the_bytes_of_the_full_jets(name, seed, scenarios, monkeypatch):
    # Every chunk of the default and doubled grids and every batch size, for
    # the calibration's draws and for seeds that draw constant modes.
    monkeypatch.setattr(verify, "SELFTEST_SEED", seed)
    man = scenarios[name].manifold
    rng = np.random.default_rng(29)
    for pts in [*_blocks(scenarios[name]), *(man.random_points(rng, size) for size in SIZES)]:
        _assert_selftest_matches_the_full_jets(man, pts)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(GRID_SCENARIOS), size=st.integers(1, 300))
def test_selftest_divergences_have_the_bytes_of_the_full_jets_for_any_draw(seed, name, size, scenarios):
    # Three- and four-axis charts, random draws and random points.
    man = scenarios[name].manifold
    pts = man.random_points(np.random.default_rng(seed), size)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verify, "SELFTEST_SEED", seed)
        _assert_selftest_matches_the_full_jets(man, pts)


def _routes(monkeypatch) -> list:
    """The box each ``trig_scalars`` call lays its factors on from here on: its shape, or None for the gather route."""
    found, box = [], verify._box
    monkeypatch.setattr(verify, "_box", lambda xs, table: found.append(box(xs, table)) or found[-1])
    return found


def _chunks(grid):
    return [grid.nodes[start : start + quadrature.CHUNK] for start in range(0, grid.count, quadrature.CHUNK)]


def _unshuffled(a, perm):
    """``a``, evaluated on the points ``pts[perm]``, back in the order of ``pts``."""
    if isinstance(a, float):
        return a
    out = np.empty_like(a)
    out[..., perm] = a
    return out


def _product_chunks(catalog):
    """Every chunk of each catalog chart scenario's default grid and of the doubled ``warped_torus_4`` grid."""
    for s in catalog.values():
        if not isinstance(s.manifold, InvariantFrameManifold):
            yield from ((s.manifold, pts) for pts in _chunks(s.grid))
    warped = catalog["warped_torus_4"]
    doubled = quadrature.refined(warped.manifold, warped.grid)
    assert doubled.axes == (8, 8, 8, 64) and doubled.count == 8 * quadrature.CHUNK
    yield from ((warped.manifold, pts) for pts in _chunks(doubled))


def test_product_grid_chunks_are_boxes_and_shuffled_ones_are_gathered_to_the_same_bytes(catalog, monkeypatch):
    routes = _routes(monkeypatch)
    rng = np.random.default_rng(61)
    blocks = 0
    for man, pts in _product_chunks(catalog):
        blocks += 1
        scalars = _draws(man, verify.random_trig_scalar)
        columns = _every_column(scalars, man.dim)
        fields = verify._selftest_fields(man)
        got, got_fields = verify.trig_scalars(scalars, _axes(pts), columns), fields(pts)
        assert routes[-2] is not None and routes[-1] == routes[-2] and np.prod(routes[-1]) == len(pts)
        perm = rng.permutation(len(pts))
        shuffled, shuffled_fields = verify.trig_scalars(scalars, _axes(pts[perm]), columns), fields(pts[perm])
        assert routes[-2:] == [None, None]
        for (value, grad), (sv, sgrad) in zip(got, shuffled, strict=True):
            assert type(value) is type(sv) and set(grad) == set(sgrad)
            for a, b in [(value, sv), *((grad[j], sgrad[j]) for j in grad)]:
                assert repr(a) == repr(b) if isinstance(a, float) else a.tobytes() == _unshuffled(b, perm).tobytes()
        for a, b in zip(got_fields, shuffled_fields, strict=True):
            for x, y in zip(a, b, strict=True):  # values and diagonals, (K, m)
                assert x.tobytes() == _unshuffled(y.T, perm).T.tobytes()
    assert blocks == 5 + 8


def test_the_doubled_tilted_grids_chunks_cut_its_axis_lines_and_are_gathered(tilted, monkeypatch):
    man = tilted.manifold
    doubled = quadrature.refined(man, tilted.grid)
    assert doubled.axes == (8, 8, 8, 96)
    routes = _routes(monkeypatch)
    fields = verify._selftest_fields(man)
    for pts in _chunks(doubled):
        fields(pts)
    assert routes == [None] * 12


DEGENERATE = {3: [(1, 1, 1), (1, 5, 1), (3, 1, 2)], 4: [(1, 1, 1, 1), (2, 1, 1, 3), (1, 4, 1, 1), (1, 1, 6, 1)]}


@pytest.mark.parametrize("name", GRID_SCENARIOS)
def test_degenerate_product_grids_are_boxes_that_keep_the_bytes(name, scenarios, monkeypatch):
    # A 1-node grid and axes with a single node: boxes with axes of length 1.
    man = scenarios[name].manifold
    routes = _routes(monkeypatch)
    for counts in DEGENERATE[man.dim]:
        _assert_selftest_matches_the_full_jets(man, quadrature.grid_for(man, counts).nodes)
        assert routes[-1] == counts
    assert None not in routes


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(GRID_SCENARIOS),
    counts=st.lists(st.integers(1, 6), min_size=4, max_size=4),
)
def test_random_product_grids_are_boxes_that_keep_the_bytes(seed, name, counts, scenarios):
    man = scenarios[name].manifold
    counts = tuple(counts[: man.dim])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verify, "SELFTEST_SEED", seed)
        routes = _routes(m)
        _assert_selftest_matches_the_full_jets(man, quadrature.grid_for(man, counts).nodes)
    assert routes and all(r == counts for r in routes)


# Signed zeros, the smallest subnormal, a subnormal near the normal range and
# ones: products and sums of them give -0.0, +0.0 and subnormal diagonals,
# terms and divergences.
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, -(2.0**-1030), 1.0, -1.0, 0.5])


@pytest.mark.parametrize("m", (1, 2, 3, 4, 5, 16))
def test_the_index_order_trace_keeps_signed_zeros_and_subnormals(m):
    rng = np.random.default_rng(67 + m)
    size = 512
    gamma, value, diag = (rng.choice(SPECIAL, shape) for shape in ((size, m, m), (size, m), (size, m)))
    for a in (gamma, value, diag):  # the second half of the points from the zeros and subnormals alone
        a[size // 2 :] = rng.choice(SPECIAL[:6], a[size // 2 :].shape)
    tiny = np.finfo(float).tiny
    for a in (diag, gamma * value[:, None, :]):  # the diagonal and the terms of Γ^k_{kj} X^j
        assert np.any((a == 0) & np.signbit(a)) and np.any((a != 0) & (np.abs(a) < tiny))
    for G in (gamma, gamma[0]):  # with the batch axis, and without it as the invariant backend holds Γ
        got, want = traced_divergence(G, value, diag), reference_traced_divergence(G, value, diag)
        assert got.shape == want.shape == (size,) and got.tobytes() == want.tobytes()
        assert np.any((want != 0) & (np.abs(want) < tiny))
    for k in range(size):  # one point, no batch axis at all
        got, want = traced_divergence(gamma[k], value[k], diag[k]), reference_traced_divergence(gamma[k], value[k], diag[k])
        assert np.shape(got) == np.shape(want) == () and np.asarray(got).tobytes() == np.asarray(want).tobytes()

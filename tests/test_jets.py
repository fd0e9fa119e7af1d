import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folsub import jets
from folsub.errors import LinearSolveError
from helpers import fd_gradient, fd_hessian

RNG = np.random.default_rng(2024)


def _exp(x):
    return jets.lift(x, np.exp, np.exp, np.exp)


def random_trig_function(rng, m=3):
    """Random smooth periodic scalar; returns both a float and a jet evaluator."""
    terms = []
    for _ in range(3):
        amp = rng.uniform(-1.0, 1.0)
        ks = rng.integers(-2, 3, m)
        ph = rng.uniform(0.0, 2 * np.pi, m)
        terms.append((amp, ks, ph))

    def plain(x):
        acc = 0.0
        for amp, ks, ph in terms:
            prod = amp
            for i in range(m):
                if ks[i]:
                    prod = prod * np.sin(ks[i] * x[i] + ph[i])
            acc += prod
        return acc

    def jet_eval(coords):
        acc = 0.0
        for amp, ks, ph in terms:
            prod = amp
            for i in range(m):
                if ks[i]:
                    prod = prod * jets.sin(coords[i] * float(ks[i]) + ph[i])
            acc = acc + prod
        return acc

    return plain, jet_eval


def test_jets_match_finite_differences_on_200_random_functions():
    m = 3
    worst = 0.0
    for _ in range(200):
        plain, jet_eval = random_trig_function(RNG, m)
        x = RNG.uniform(0, 2 * np.pi, m)
        j = jet_eval(jets.variables(x))
        assert abs(j.value - plain(x)) < 1e-12
        scale = max(1.0, float(np.max(np.abs(j.grad))), float(np.max(np.abs(j.hess))))
        worst = max(worst, float(np.max(np.abs(j.grad - fd_gradient(plain, x)))) / scale)
        worst = max(worst, float(np.max(np.abs(j.hess - fd_hessian(plain, x)))) / scale)
    assert worst <= 1e-6


def test_arithmetic_on_division_and_composition():
    x = jets.variables(np.array([0.7, -0.3]))
    f = _exp(jets.sin(x[0]) * x[1]) / (2.0 + jets.cos(x[0]))

    def plain(p):
        return np.exp(np.sin(p[0]) * p[1]) / (2.0 + np.cos(p[0]))

    p = np.array([0.7, -0.3])
    assert abs(f.value - plain(p)) < 1e-14
    assert np.max(np.abs(f.grad - fd_gradient(plain, p))) < 1e-8
    assert np.max(np.abs(f.hess - fd_hessian(plain, p))) < 1e-6


def test_order_degradation_through_derivative():
    x = jets.variables(np.array([0.2, 0.4]), order=2)
    f = jets.sin(x[0]) * x[1]
    df = f.d()[..., 0]
    assert f.order == 2 and df.order == 1
    assert abs(df.value - np.cos(0.2) * 0.4) < 1e-15
    assert abs(df.d()[..., 1].value - np.cos(0.2)) < 1e-15
    with pytest.raises(ValueError):
        df.d()[..., 1].d()


def test_coordinate_seeds():
    pts = np.array([[0.1, 0.2], [0.3, 0.4]])
    xs = jets.variables(pts)
    assert xs[0].value.shape == (2,)
    assert np.all(xs[0].grad[:, 0] == 1.0) and np.all(xs[0].grad[:, 1] == 0.0)
    assert np.all(xs[1].hess == 0.0)


@settings(max_examples=50)
@given(
    a=st.floats(-2, 2, allow_nan=False),
    b=st.floats(-2, 2, allow_nan=False),
    v=st.floats(0.3, 3.0),
)
def test_product_and_quotient_rules(a, b, v):
    x = jets.variables(np.array([v]))[0]
    f = jets.sin(x * a) + b
    g = 2.0 + jets.cos(x)
    prod = f * g
    quot = f / g
    fv, fg = np.sin(a * v) + b, a * np.cos(a * v)
    gv, gg = 2.0 + np.cos(v), -np.sin(v)
    assert abs(prod.grad[0] - (fv * gg + gv * fg)) < 1e-12
    assert abs(quot.grad[0] - (fg * gv - fv * gg) / gv**2) < 1e-12


def test_batched_matches_pointwise():
    pts = RNG.uniform(0, 2 * np.pi, (17, 3))
    plain, jet_eval = random_trig_function(np.random.default_rng(7), 3)
    batch = jet_eval(jets.variables(pts))
    for i in range(17):
        single = jet_eval(jets.variables(pts[i]))
        assert np.allclose(batch.value[i], single.value, atol=0, rtol=0)
        assert np.allclose(batch.hess[i], single.hess, atol=0, rtol=0)


def test_mat_inverse_and_identities():
    n = 4
    A = RNG.uniform(-1, 1, (3, n, n))
    A = A @ np.swapaxes(A, -1, -2) + n * np.eye(n)
    inv = jets.mat_inverse(A)
    assert np.max(np.abs(inv @ A - np.eye(n))) < 1e-12
    rows = jets.mat_inverse(jets.Jet(A))
    assert rows.order == 0 and np.array_equal(rows.value, inv)


def test_mat_inverse_rejects_singular():
    with pytest.raises(LinearSolveError):
        jets.mat_inverse(np.array([[1.0, 0.0], [0.0, 0.0]]))
    # the threshold is relative to the largest entry, as in the scalar solve
    with pytest.raises(LinearSolveError):
        jets.mat_inverse(np.array([[1.0, 0.0], [0.0, 1e-14]]))
    jets.mat_inverse(np.array([[1.0, 0.0], [0.0, 1e-12]]))


def test_mat_inverse_on_jets_tracks_derivative():
    # d/dz of 1/(2+cos z)^2 for the diagonal metric entry
    coords = jets.variables(np.array([0.6]))
    a = 2.0 + jets.cos(coords[0])
    inv = jets.mat_inverse(jets.stack([[a * a]], coords))[..., 0, 0]
    zz = 0.6
    want = -2.0 * (-np.sin(zz)) / (2.0 + np.cos(zz)) ** 3
    assert abs(inv.grad[0] - want) < 1e-13


def test_mat_inverse_matches_scalar_elimination_bit_for_bit(catalog):
    from helpers import mat_inverse_nested

    for s in catalog.values():
        man = s.manifold
        coords = man.seed(man.random_points(np.random.default_rng(4), 30), order=2)
        g = jets.stack(man.metric_jets(coords), coords)
        m = man.dim
        scalar = [[jets.Jet(g.value[..., i, j], g.grad[..., i, j, :]) for j in range(m)] for i in range(m)]
        want = jets.stack(mat_inverse_nested(scalar), coords).at_order(1)
        got = jets.mat_inverse(g.at_order(1))
        assert np.array_equal(got.value, want.value) and np.array_equal(got.grad, want.grad), s.name


def test_stack_shapes_orders_and_empty_frames():
    coords = jets.variables(RNG.uniform(0, 1, (5, 3)), order=2)
    frame = jets.stack([[coords[0], 1.0, 0.0], [0.0, jets.sin(coords[2]), coords[1]]], coords)
    assert frame.shape == (5, 2, 3) and frame.grad.shape == (5, 2, 3, 3) and frame.hess.shape == (5, 2, 3, 3, 3)
    assert np.array_equal(frame[..., 1, 1].grad[:, 2], np.cos(coords[2].value))
    assert np.all(frame.grad[:, 0, 1] == 0.0)
    cut = jets.stack([[coords[0], 1.0, 0.0]], coords).at_order(1)
    assert cut.order == 1 and np.array_equal(cut.grad, frame.grad[:, :1])
    assert jets.stack(frame, coords) is frame
    empty = jets.stack([], coords)
    assert empty.shape == (5, 0, 3) and empty.hess.shape == (5, 0, 3, 3, 3)


def test_stack_last_matches_stack_and_np_stack():
    coords = jets.variables(RNG.uniform(0, 1, (5, 3)), order=2)
    items = [1.0, coords[0] * coords[1], jets.sin(coords[2]).at_order(1), 0.0]
    got, want = jets.stack_last(items), jets.stack(items, coords).at_order(1)
    assert got.order == 1
    assert np.array_equal(got.value, want.value) and np.array_equal(got.grad, want.grad)
    arrays = [np.ones(5), coords[0].value, 2.0]
    assert np.array_equal(jets.stack_last(arrays), np.stack(np.broadcast_arrays(*arrays), axis=-1))


def test_einsum_product_rule_matches_scalar_jets():
    # a contraction over jets equals the same sum of scalar jet products,
    # values bit for bit and derivatives to rounding, at the lowest order
    pts = RNG.uniform(0, 2 * np.pi, (7, 3))
    coords = jets.variables(pts, order=2)
    x, y, z = coords
    M = [[jets.sin(x) * y, 2.0 + jets.cos(z)], [x * z, _exp(y)]]
    v = [jets.cos(x + z), y * y]
    c = RNG.uniform(-1, 1, 2)
    Mj, vj = jets.stack(M, coords), jets.stack(v, coords)
    got = jets.einsum("...ij,...j,j->...i", Mj, vj, c)
    for i in range(2):
        want = M[i][0] * v[0] * c[0] + M[i][1] * v[1] * c[1]
        assert np.array_equal(got.value[:, i], want.value)
        scale = 1.0 + np.abs(want.value)
        assert np.max(np.abs(got.grad[:, i] - want.grad) / scale[:, None]) < 1e-14
        assert np.max(np.abs(got.hess[:, i] - want.hess) / scale[:, None, None]) < 1e-14
    low = jets.einsum("...ij,...j->...i", Mj, vj.at_order(1))
    full = jets.einsum("...ij,...j->...i", Mj, vj)
    assert low.order == 1 and np.array_equal(low.grad, full.grad)
    assert isinstance(jets.einsum("ij,j->i", np.eye(2), c), np.ndarray)


def test_tensor_jet_arithmetic_broadcasts_against_constants():
    coords = jets.variables(RNG.uniform(0, 1, (4, 2)), order=1)
    row = jets.stack([coords[0], coords[1]], coords)
    scaled = np.array([2.0, 3.0]) * row
    assert np.array_equal(scaled.grad[:, 1, 1], np.full(4, 3.0))
    diff = np.ones(2) - row[..., 0, None] * row
    assert diff.shape == (4, 2) and np.array_equal(diff.value, 1.0 - coords[0].value[:, None] * row.value)

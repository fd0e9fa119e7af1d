"""Independent oracles shared by the test modules.

Everything here deliberately avoids the jet/connection machinery under test:
finite differences for derivatives, eigenvalue brute force for symmetric
functions, dense one-dimensional quadrature for reduced integrals, and
hand-derived closed forms for the warped and tilted example metrics.  The
exceptions are references that other code is held to bit for bit: the
umbilical integrand, which runs the nested-list Newton path for the batched
ndarray path; the projector jets at the seeds' full derivative order, for
the first-order ``distribution.projector_jets``; and the scalar-jet route of
``foliation.Geometry`` (:class:`NestedGeometry`) with its Gauss-Jordan
solve, one ``Jet`` product at a time over nested lists, for the tensor-jet
contractions that replaced it; and the two curvature-trace loops and the
compact-leaf integrand composed from the main-formula terms, for the one
kernel (``Geometry.newton_curvature_trace``) and the one leaf integrand
(``Geometry.leaf_formula_integrand``) that replaced them; and the per-node
evaluation (:func:`evaluate_per_node`, :func:`per_node_selftest_floor`), a
``Geometry`` on every node of a block and the calibration's connection from
order-1 seeds on every node, for the grid passes, the leaf integrals and the
scenario measurement that evaluate each distinct node once; and the
grouping of nodes by the bytes of their closure outputs
(:func:`fingerprint_groups`), for ``foliation.distinct_nodes``, which groups
them by the coordinates the closures read; and the closure form of the random trig test fields (:func:`reference_trig_scalar`
and the fields built from it), one ``jets.sin`` lift and ``Jet`` product per
factor on every point, for the per-axis evaluator ``verify.trig_scalars``;
and the self-test's path through full jets (:func:`reference_trig_jets`,
:func:`reference_selftest_divergences`), every gradient column of every
field stacked into one jet and its ∇ traced, for the values and diagonal
derivatives that ``verify._selftest_fields`` hands
``manifolds.traced_divergence``; and the point operations that nothing in
the program calls: the commutator-definition route to the projected
curvature (:func:`curvature_P_fields`, :func:`curvature_P`) and the
induced connection (:func:`nabla_P`), for ``distribution.curvature_P_tensor``,
the classical Codazzi residual (:func:`codazzi_classic_residual`), the
alternating-sum Newton transformations (:func:`newton_transform_explicit`)
and the constant-curvature recursion of the total sigma_r
(:func:`total_curvature_recursion_constant`), with the fields they take
(:func:`constant_field`, :func:`coordinate_field`, :func:`leaf_field`) and
the rotated or flipped leaf frame of the frame-invariance tests
(:func:`rotated_foliation`).
"""

from dataclasses import dataclass

import numpy as np

from folsub import jets, verify
from folsub.distribution import DistributionSpec, projector_jets
from folsub.errors import DomainError, LinearSolveError
from folsub.foliation import FoliationStructure, Geometry, _leaf_input
from folsub.jets import Jet, einsum, stack
from folsub.manifolds import Connection, InvariantFrameManifold, Point, differential, lie_bracket
from folsub.newton import newton_transforms_nested, sigma_values, sigmas_nested

TWO_PI = 2.0 * np.pi


def fd_gradient(f, x, h=1e-6):
    """Central differences; for an array-valued f the derivative axis comes last."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h))
    return np.stack(cols, axis=-1)


def fd_hessian(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    m = x.size
    H = np.zeros((m, m))
    f0 = f(x)
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h
        H[i, i] = (f(x + ei) - 2 * f0 + f(x - ei)) / h**2
        for j in range(i + 1, m):
            ej = np.zeros(m)
            ej[j] = h
            H[i, j] = H[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4 * h**2)
    return H


def eig_elementary_symmetric(A):
    """sigma_0..sigma_n from eigenvalues, coefficient recursion on prod(t + lam)."""
    lam = np.linalg.eigvalsh(np.asarray(A, dtype=float))
    coeffs = np.array([1.0])
    for ev in lam:
        coeffs = np.concatenate([coeffs, [0.0]])
        coeffs[1:] += ev * coeffs[:-1].copy()
    return coeffs


def umbilical_main_integrand_nested(n, r, H, ric_nn, ric_zn):
    """Main-formula integrand at A = H Id, on nested lists of Python floats.

    Mirrors ``newton.umbilical_main_integrand`` term by term, including its
    ``np.trace`` calls, but takes sigma_k and T_k from the jet path.
    """
    A = (H * np.eye(n)).tolist()
    sig = sigmas_nested(A)
    sget = lambda k: float(sig[k]) if k <= n else 0.0
    Ts = [np.array(T, dtype=float) for T in newton_transforms_nested(A, sig)]
    out = (r + 2) * sget(r + 2)
    out -= float(np.trace(Ts[r] @ ((ric_nn / n) * np.eye(n))))
    for j in range(1, r + 1):
        out -= (-1.0) ** (j - 1) * H ** (j - 1) * float(np.trace(Ts[r - j] @ ((ric_zn / n) * np.eye(n))))
    return out


def projector_jets_full_order(dist, coords, g):
    """P[i][j] = sum_a v_a^i (g v_a)_j over the D-frame, with no truncation."""
    m = dist.manifold.dim
    P = [[0.0 for _ in range(m)] for _ in range(m)]
    for v in dist.frame_D(coords):
        low = [sum(g[i][j] * v[j] for j in range(m)) for i in range(m)]
        for i in range(m):
            for j in range(m):
                P[i][j] = P[i][j] + v[i] * low[j]
    return P


def loop_integral(fn, k=8192):
    """Dense trapezoid (= rectangle) rule on one period of a smooth function."""
    z = np.arange(k) * (TWO_PI / k)
    return float(np.sum(fn(z)) * (TWO_PI / k))


# hand-derived closed forms for the default warps a = 2 + cos z, b = 2 + sin z
def warp_a(z):
    return 2.0 + np.cos(z)


def warp_da(z):
    return -np.sin(z)


def warp_d2a(z):
    return -np.cos(z)


def warp_b(z):
    return 2.0 + np.sin(z)


def warp_db(z):
    return np.cos(z)


def warp_d2b(z):
    return -np.sin(z)


def tilted_rp_leaf(z, amp=0.3):
    """<R^P(e1, e2)e2, e1> on the tilted torus, hand Koszul computation."""
    th = amp * np.sin(z)
    c, s = np.cos(th), np.sin(th)
    alpha = warp_da(z) / warp_a(z)
    beta = warp_db(z) / warp_b(z)
    return -(c**2 * alpha * beta + s**2 * warp_d2a(z) / warp_a(z))


def tilted_rp_normal(z, amp=0.3):
    """<R^P(e1, e2)N, e1> on the tilted torus, hand Koszul computation."""
    th = amp * np.sin(z)
    c, s = np.cos(th), np.sin(th)
    alpha = warp_da(z) / warp_a(z)
    beta = warp_db(z) / warp_b(z)
    return s * c * (warp_d2a(z) / warp_a(z) - alpha * beta)


# -- the scalar-jet route, over nested lists of Jet entries ---------------------


def _d(x, i):
    return x.d()[..., i] if isinstance(x, jets.Jet) else 0.0


def _cut(entries, order):
    """A nested list of jets and constants with every jet cut to ``order``."""
    if isinstance(entries, (list, tuple)):
        return [_cut(x, order) for x in entries]
    return entries.at_order(order) if isinstance(entries, jets.Jet) else entries


def metric_inner(g, u, v):
    """Inner product sum_ij g[i][j] u^i v^j over generic scalars."""
    m = len(u)
    return sum(g[i][j] * u[i] * v[j] for i in range(m) for j in range(m))


def mat_vec(A, v):
    return [sum(A[i][j] * v[j] for j in range(len(v))) for i in range(len(A))]


def mat_inverse_nested(A):
    """Gauss-Jordan inverse over generic scalars, entry by entry, without pivoting."""
    n = len(A)
    work = [list(row) for row in A]
    inv = jets.mat_identity(n)
    scale = max(max(float(np.max(np.abs(jets.value_of(x)))) for row in A for x in row), 1.0)
    for c in range(n):
        piv = work[c][c]
        if float(np.min(np.abs(jets.value_of(piv)))) <= 1e-13 * scale:
            raise LinearSolveError(f"singular pivot in metric solve at column {c}")
        pinv = 1.0 / piv
        for j in range(n):
            work[c][j] = work[c][j] * pinv
            inv[c][j] = inv[c][j] * pinv
        for r in range(n):
            if r == c:
                continue
            f = work[r][c]
            for j in range(n):
                work[r][j] = work[r][j] - f * work[c][j]
                inv[r][j] = inv[r][j] - f * inv[c][j]
    return inv


class NestedGeometry:
    """A, sigma_r, T_r, Z and div_F at ``points`` by scalar jets over nested lists.

    Frames are seeded at ``order`` and the metric at order 2, as in
    ``foliation.Geometry``; Γ comes from the same connection arrays, viewed
    entry by entry at one order below the frames.
    """

    def __init__(self, fol, points, order):
        man, m = fol.manifold, fol.manifold.dim
        self.coords = man.seed(points, order)
        seeds2 = man.seed(points, 2)
        g2 = man.metric_jets(seeds2)
        gamma = man.gamma_jets(seeds2, g2)
        G, dG = gamma.gamma, gamma.dgamma if order >= 2 else None
        self.G = [
            [[jets.Jet(G[..., k, i, j], None if dG is None else dG[..., k, i, j, :]) for j in range(m)] for i in range(m)]
            for k in range(m)
        ]
        self.g = _cut(g2, order)
        self.e = fol.leaf_frame(self.coords)
        self.N = fol.normal(self.coords)
        P = [[0.0] * m for _ in range(m)]
        for v in _cut(fol.dist.frame_D(self.coords), 1):
            low = mat_vec(_cut(g2, 1), v)
            P = [[P[i][j] + v[i] * low[j] for j in range(m)] for i in range(m)]
        raw = [[-self.inner(self.nabla(ei, self.N), ej) for ej in self.e] for ei in self.e]
        n = len(self.e)
        self.A = [[(raw[i][j] + raw[j][i]) * 0.5 for j in range(n)] for i in range(n)]
        self.sigmas = sigmas_nested(self.A)
        self.T = newton_transforms_nested(self.A, self.sigmas)
        self.Z = mat_vec(P, self.nabla(self.N, self.N))
        self.Z_leaf = [self.inner(self.Z, ei) for ei in self.e]

    def inner(self, u, v):
        return metric_inner(self.g, u, v)

    def nabla(self, X, W):
        m = len(W)
        out = [0.0] * m
        for i in range(m):
            Di = [_d(W[k], i) + sum(self.G[k][i][j] * W[j] for j in range(m)) for k in range(m)]
            out = [out[k] + X[i] * Di[k] for k in range(m)]
        return out

    def div_F(self, field):
        acc = 0.0
        for ei in self.e:
            acc = acc + self.inner(self.nabla(ei, field), ei)
        return jets.value_of(acc)


# -- the curvature-trace loops and the leaf integrand the Geometry kernels replaced --


def z_curvature_loop(geom, r, tensor):
    """sum_j (-1)^{j-1} tr(T_{r-j} tensor(., A^{j-1} Z)N), the main-formula terms' own loop."""
    T = [Tk.value for Tk in geom.T]
    E, zl = geom.e.value, geom.Z_leaf.value
    tz = np.zeros(geom.batch)
    Aj = zl
    for j in range(1, r + 1):
        M = geom._operator_matrix(tensor, np.einsum("...i,...im->...m", Aj, E))
        tz = tz + (-1.0) ** (j - 1) * np.einsum("...ik,...ki->...", T[r - j], M)
        Aj = np.einsum("...ik,...k->...i", geom.A.value, Aj)
    return tz


def div_F_newton_formula_per_basis(geom, r):
    """The inductive formula for div_F T_r, one leaf-frame basis vector at a time."""
    n = geom.n
    out = np.zeros(geom.batch + (n,))
    if r == 0:
        return out
    A, E = geom.A.value, geom.e.value
    for j in range(n):
        Aj = np.zeros(geom.batch + (n,))
        Aj[..., j] = 1.0
        for jj in range(1, r + 1):
            M = geom.rp_matrix(np.einsum("...i,...im->...m", Aj, E))
            out[..., j] += (-1.0) ** (jj - 1) * np.einsum("...ik,...ki->...", geom.T[r - jj].value, M)
            Aj = np.einsum("...ik,...k->...i", A, Aj)
    return out


def leaf_integrand_from_main_terms(geom, r):
    """The compact-leaf integrand composed from the main-formula terms, on an order-2 geometry."""
    from folsub.verify import _main_terms

    terms = _main_terms(geom, r)
    sig = geom.sigma.value
    n_sigma = np.einsum("...k,...k->...", geom.N.value, geom.sigma.grad[..., r + 1, :])
    return (
        terms["sigma"]
        + n_sigma
        - sig[..., 1] * sig[..., r + 1]
        - terms["normal_curvature"]
        - np.einsum("...i,...i->...", np.einsum("...ij,...j->...i", geom.T[r].value, geom.Z_leaf.value), geom.Z_leaf.value)
        - terms["z_curvature"]
    )


# -- the per-node evaluation that the distinct-node passes replaced ----------------


def fingerprint_groups(fol, points, order, block=1024):
    """``foliation.distinct_nodes`` by the closures' outputs: nodes whose closure jets agree bit for bit share a group.

    A node's key is the raw bytes of every closure jet a ``Geometry`` of
    ``order`` reads there, the metric to order 2 and the four frames to
    ``order``, each stacked over the batch (constants broadcast), so -0.0
    and 0.0 differ.  The closures run on blocks of ``block`` nodes, and one
    dict numbers the groups in grid order of first appearance.
    """
    pts = np.asarray(points, dtype=float)
    man, dist = fol.manifold, fol.dist
    group = np.empty(pts.shape[0], dtype=np.intp)
    keys, first = {}, []
    for start in range(0, pts.shape[0], block):
        blk = pts[start : start + block]
        seeds, seeds2 = man.seed(blk, order), man.seed(blk, 2)
        outputs = [jets.stack(man.metric_jets(seeds2), seeds2)]
        outputs += [jets.stack(f(seeds), seeds) for f in (fol.leaf_frame, fol.normal, dist.frame_D, dist.frame_Dperp)]
        parts = [p.reshape(blk.shape[0], -1) for jet in outputs for p in (jet.value, jet.grad, jet.hess) if p is not None]
        rows = np.ascontiguousarray(np.concatenate(parts, axis=1))
        for i, key in enumerate(rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()):
            group[start + i] = keys.setdefault(key, len(keys))
            if group[start + i] == len(first):
                first.append(start + i)
    return np.array(first, dtype=np.intp), group


def every_node_its_own_group(fol, points, weights=None):
    """``foliation.distinct_nodes`` without grouping: every node of the grid is its own group."""
    k = np.asarray(points).shape[0]
    return np.arange(k), np.arange(k)


def evaluate_per_node(monkeypatch):
    """Make the grid passes, the leaf integrals and the scenario measurement evaluate every node.

    They group the nodes through ``distinct_nodes`` as their modules name it
    (``verify.grid_plan`` and ``scenarios.measure_scenario``); the tests check
    that a pass under this oracle builds ``Geometry`` on every node of its
    grid, so a grouping reached by another name cannot pass unnoticed.
    """
    from folsub import scenarios, verify

    for module in (scenarios, verify):
        monkeypatch.setattr(module, "distinct_nodes", every_node_its_own_group)


def record_geometry_points(monkeypatch) -> list:
    """The number of points of every ``Geometry`` built from here on, in order."""
    from folsub import foliation

    points, real_init = [], foliation.Geometry.__init__

    def recording_init(self, fol, pts, *args, **kwargs):
        points.append(len(pts))
        real_init(self, fol, pts, *args, **kwargs)

    monkeypatch.setattr(foliation.Geometry, "__init__", recording_init)
    return points


def per_node_selftest_floor(scenario, grid):
    """The calibration floor in its own pass, with the connection from order-1 seeds on every node."""
    from folsub.manifolds import divergence_jets
    from folsub.quadrature import integrate_terms

    man = scenario.manifold
    rng = np.random.default_rng(verify.SELFTEST_SEED)
    fields = [reference_ambient_field(man, rng) for _ in range(verify.SELFTEST_FIELDS)]

    def terms(pts):
        coords = man.seed(pts, order=1)
        gamma = man.gamma_jets(coords, man.metric_jets(coords))
        return {f"div_{i}": divergence_jets(man, coords, gamma, X(coords)) for i, X in enumerate(fields)}

    return max(abs(v) for v in integrate_terms(terms, grid, man.volume_density).values())


# -- the random trig test fields as closures, one Jet operation at a time ---------


def reference_trig_scalar(manifold, rng):
    """The random scalar ``verify.random_trig_scalar`` draws, as a closure over coordinate jets.

    It draws from ``rng`` exactly what ``random_trig_scalar`` draws, and
    evaluates each mode as ``amp * sin(x_i * k_i f_i + phase_i) * ...`` by
    ``jets.sin`` lifts and ``Jet`` products on every point.
    """
    if isinstance(manifold, InvariantFrameManifold):
        val = float(rng.uniform(-1.0, 1.0))
        return lambda coords: val
    m = manifold.dim
    freqs = [2.0 * np.pi / L for L in manifold.periods]
    terms = [
        (float(rng.uniform(-1.0, 1.0)), rng.integers(-2, 3, m), rng.uniform(0.0, 2.0 * np.pi, m))
        for _ in range(verify.TRIG_MODES)
    ]

    def fn(coords):
        acc = 0.0
        for amp, ks, phases in terms:
            prod = amp
            for i in range(m):
                if ks[i] != 0:
                    prod = prod * jets.sin(coords[i] * (ks[i] * freqs[i]) + phases[i])
            acc = acc + prod
        return acc

    return fn


def reference_ambient_field(manifold, rng):
    comps = [reference_trig_scalar(manifold, rng) for _ in range(manifold.dim)]
    return lambda coords: [c(coords) for c in comps]


def _leaf_combination(fol, us, coords, out):
    """``out`` plus sum_a u_a(coords) e_a over the leaf frame."""
    for u, ev in zip(us, fol.leaf_frame(coords)):
        uv = u(coords)
        out = [out[k] + uv * ev[k] for k in range(fol.manifold.dim)]
    return out


def reference_distribution_field(fol, rng):
    """``verify.random_distribution_field`` with its coefficients from :func:`reference_trig_scalar`."""
    man = fol.manifold
    us = [reference_trig_scalar(man, rng) for _ in range(fol.n)]
    cN = float(rng.uniform(-1.0, 1.0))

    def fld(coords):
        Nc = fol.normal(coords)
        return _leaf_combination(fol, us, coords, [cN * Nc[k] for k in range(man.dim)])

    return fld


def random_leaf_field(fol, rng):
    """A random field tangent to the leaves: random trig coefficients on the leaf frame."""
    us = [reference_trig_scalar(fol.manifold, rng) for _ in range(fol.n)]
    return lambda coords: _leaf_combination(fol, us, coords, [0.0] * fol.manifold.dim)


def reference_trig_jets(scalars, coords) -> list:
    """The random trig scalars ``scalars`` (``verify.random_trig_scalar``) as order-1 jets with every gradient column.

    The per-axis evaluator as it was before it took the columns its caller
    reads: each sine factor and its derivative are evaluated once per
    distinct value of their axis and gathered to the points, and a mode's
    product carries every column its factors touch.  A scalar without a
    non-constant mode comes back as a float.
    """
    m, shape = len(coords), coords[0].value.shape
    tables = {}

    def factor(axis, rate, phase, scale=1.0):
        if axis not in tables:
            u, inv = np.unique(coords[axis].value, return_inverse=True)
            tables[axis] = (u, inv.reshape(shape))
        u, inv = tables[axis]
        arg = u * rate + phase
        return (np.sin(arg) * scale)[inv], (np.cos(arg) * rate * scale)[inv]

    out = []
    for scalar in scalars:
        if isinstance(scalar, float):
            out.append(scalar)
            continue
        value, grad = 0.0, {}
        for amp, factors in scalar:
            if not factors:
                value = value + amp
                continue
            (i, rate, phase), rest = factors[0], factors[1:]
            v, d = factor(i, rate, phase, amp)
            g = {i: d}
            for i, rate, phase in rest:
                sv, sd = factor(i, rate, phase)
                g = {j: sv * gj for j, gj in g.items()} | {i: v * sd}
                v = v * sv
            value = value + v
            for j, col in g.items():
                grad[j] = grad[j] + col if j in grad else col
        if not grad:
            out.append(value)
            continue
        dv = np.zeros(shape + (m,))
        for j, col in grad.items():
            dv[..., j] = col
        out.append(jets.Jet(value, dv))
    return out


def reference_selftest_divergences(manifold, points, gamma_kk) -> list:
    """Div X of each calibration field at ``points``, from full jets: the self-test's path before it read ∂_k X^k alone.

    The fields' components come from :func:`reference_trig_jets` on order-1
    seeds, every field is stacked into one jet with its whole gradient, and
    the diagonal of its ∇ is set on a zero matrix and traced.
    """
    rng = np.random.default_rng(verify.SELFTEST_SEED)
    m = manifold.dim
    scalars = [verify.random_trig_scalar(manifold, rng) for _ in range(verify.SELFTEST_FIELDS * m)]
    coords = manifold.seed(points, order=1)
    comps = reference_trig_jets(scalars, coords)
    d = np.arange(m)
    out = []
    for f in range(verify.SELFTEST_FIELDS):
        W = jets.stack(comps[f * m : (f + 1) * m], coords)
        nabla = np.zeros(W.value.shape + (m,))
        nabla[..., d, d] = W.grad[..., d, d] + np.einsum("...kj,...j->...k", gamma_kk, W.value)
        out.append(np.einsum("...kk->...", nabla))
    return out


# -- the point operations and fields the tests hold the live path to ---------------


@dataclass(frozen=True)
class TangentVector:
    """Components in the backend basis at a base point."""

    components: np.ndarray
    base: Point


def nabla(gamma: Connection, X, W: Jet) -> Jet:
    """Covariant derivative ∇_X W of the vector field W along the vector X."""
    return einsum("...i,...ki->...k", X, differential(gamma, W))


def coordinate_field(i: int, m: int):
    return lambda coords: [1.0 if k == i else 0.0 for k in range(m)]


def constant_field(comps):
    vals = [float(c) for c in np.asarray(comps, dtype=float)]
    return lambda coords: list(vals)


# Largest off-D part of a D argument that nabla_P and curvature_P accept.
D_CHECK_TOL = 1e-10


def _as_field(arg, dist, kind: str):
    """Extend a pointwise vector to a field, or pass a field evaluator through.

    Ambient vectors extend with constant components in the backend basis;
    D-vectors extend with constant coefficients over the D-frame so the
    extension stays a section of D.
    """
    if callable(arg):
        return arg
    comps = np.asarray(arg.components if isinstance(arg, TangentVector) else arg, dtype=float)
    if kind == "ambient":
        return lambda coords: [comps[..., k] for k in range(comps.shape[-1])]

    def section(coords):
        V = stack(dist.frame_D(coords), coords)
        coeff = einsum("...ij,...i,...aj->...a", stack(dist.manifold.metric_jets(coords), coords), comps, V)
        return einsum("...a,...ak->...k", coeff, V)

    return section


def _check_argument_in_D(dist, coords, g, arg, tol: float, what: str):
    if callable(arg):
        comps = stack(arg(coords), coords).value
    else:
        comps = np.asarray(arg.components if isinstance(arg, TangentVector) else arg, dtype=float)
    W = stack(dist.frame_Dperp(coords), coords).value
    ip = np.einsum("...ij,...i,...aj->...a", stack(g, coords).value, comps, W)
    worst = float(np.max(np.abs(ip), initial=0.0))
    if worst > tol:
        raise DomainError(f"{what} is not a section of the distribution (residual {worst:.3e})")


def nabla_P(dist: DistributionSpec, X, U, p: Point) -> TangentVector:
    """Induced-connection derivative P nabla_X U at p; U must lie in D."""
    p = np.asarray(p, dtype=float)
    coords = dist.manifold.seed(p, order=1)
    g = stack(dist.manifold.metric_jets(coords), coords)
    gamma = dist.manifold.gamma_jets(coords, g)
    _check_argument_in_D(dist, coords, g, U, D_CHECK_TOL, "U")
    Xc = stack(_as_field(X, dist, "ambient")(coords), coords)
    Uc = stack(_as_field(U, dist, "section")(coords), coords)
    w = einsum("...ij,...j->...i", projector_jets(dist, coords, g), nabla(gamma, Xc, Uc))
    return TangentVector(w.value, p)


def curvature_P_fields(dist: DistributionSpec, Xf, Yf, Vf, coords) -> Jet:
    """Commutator-definition evaluation of the projected curvature on fields.

    Returns R^P(X, Y)V as a jet; ``coords`` must be seeded at order >= 2.
    """
    man = dist.manifold
    g = stack(man.metric_jets(coords), coords)
    gamma = man.gamma_jets(coords, g)
    P = projector_jets(dist, coords, g)
    X, Y, V = (stack(f(coords), coords) for f in (Xf, Yf, Vf))
    proj = lambda W: einsum("...ij,...j->...i", P, W)

    term1 = proj(nabla(gamma, X, proj(nabla(gamma, Y, V))))
    term2 = proj(nabla(gamma, Y, proj(nabla(gamma, X, V))))
    term3 = proj(nabla(gamma, lie_bracket(man, X, Y), V))
    return term1 - term2 - term3


def curvature_P(dist: DistributionSpec, X, Y, V, p: Point) -> TangentVector:
    """R^P(X, Y)V at p.

    Pointwise arguments are extended as constant-coefficient fields (over the
    backend basis for X, Y and over the D-frame for V); field evaluators are
    used as given.  V(p) must lie in D.
    """
    p = np.asarray(p, dtype=float)
    coords = dist.manifold.seed(p, order=2)
    g = dist.manifold.metric_jets(coords)
    _check_argument_in_D(dist, coords, g, V, D_CHECK_TOL, "V")
    Vf = _as_field(V, dist, "section")
    comps = curvature_P_fields(
        dist, _as_field(X, dist, "ambient"), _as_field(Y, dist, "ambient"), Vf, coords
    )
    return TangentVector(comps.value, p)


def leaf_field(fol: FoliationStructure, i: int):
    """The i-th leaf-frame vector as a field evaluator."""
    return lambda coords: fol.leaf_frame(coords)[i]


def codazzi_classic_residual(fol: FoliationStructure, X, Y, U, p: Point) -> float:
    """Classical Codazzi residual for the leaves as submanifolds of M.

    |(nabla_X h)(Y, U) - (nabla_Y h)(X, U) - (R(X, Y)U)^perp| with the
    second fundamental form h valued in the full orthogonal complement of
    the leaf bundle.
    """
    geom = Geometry(fol, np.asarray(p, dtype=float), order=2)
    Xc, Yc, Uc = (_leaf_input(geom, V, what) for V, what in ((X, "X"), (Y, "Y"), (U, "U")))
    cov = lambda V, W: nabla(geom.gamma, V, W)

    def h_field(Ac, Bc):
        w = cov(Ac, Bc)
        return w - geom.tangential(w)

    def cov_h(Ac, Bc, Cc):
        # (nabla_A h)(B, C) = perp(nabla_A (h(B,C))) - h(nabla^F_A B, C) - h(B, nabla^F_A C)
        out = geom.off_leaf(cov(Ac, h_field(Bc, Cc)).value)
        out = out - h_field(geom.tangential(cov(Ac, Bc)), Cc).value
        return out - h_field(Bc, geom.tangential(cov(Ac, Cc))).value

    lhs = cov_h(Xc, Yc, Uc) - cov_h(Yc, Xc, Uc)
    RXYU = np.einsum("...lkab,...k,...a,...b->...l", geom.R, Uc.value, Xc.value, Yc.value)
    return geom.max_norm(lhs - geom.off_leaf(RXYU))


def rotated_foliation(fol: FoliationStructure, angle_profile=None, flip: bool = False) -> FoliationStructure:
    """Same leaves, leaf frame rotated pointwise; for tensoriality checks.

    For n >= 2 rotates in the (e_0, e_1) plane by ``angle_profile`` of the
    last coordinate; for n = 1 a sign flip is the only isometry.
    """
    n = fol.n

    def frame(coords):
        e = fol.leaf_frame(coords)
        if n == 1 or flip:
            return [[-c for c in v] for v in e]
        th = angle_profile(coords[-1]) if angle_profile is not None else 0.3 * coords[-1]
        c, s = jets.cos(th), jets.sin(th)
        out = [list(v) for v in e]
        out[0] = [c * a + s * b for a, b in zip(e[0], e[1])]
        out[1] = [(-1.0) * s * a + c * b for a, b in zip(e[0], e[1])]
        return out

    return FoliationStructure(
        dist=fol.dist,
        leaf_frame=frame,
        normal=fol.normal,
        integrability_witness=fol.integrability_witness + " (rotated frame)",
    )


def newton_transform_explicit(r: int, A: np.ndarray) -> np.ndarray:
    """Alternating-sum form sum_j (-1)^j sigma_{r-j} A^j, used as a cross-check."""
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    if not 0 <= r <= n:
        raise ValueError(f"Newton transformation index {r} outside 0..{n}")
    sig = sigma_values(A)
    eye = np.broadcast_to(np.eye(n), A.shape).copy()
    out = np.zeros_like(A)
    Aj = eye
    for j in range(r + 1):
        out = out + (-1.0) ** j * sig[..., r - j, None, None] * Aj
        Aj = Aj @ A
    return out


def total_curvature_recursion_constant(n: int, c: float, vol: float) -> np.ndarray:
    """Iterate (r+2) S_{r+2} = c (n-r) S_r from S_0 = vol, S_1 = 0.

    S_r plays the role of the total r-th mean curvature of the foliation under
    the constant-curvature reduction of the main integral formula.
    """
    S = np.zeros(n + 1)
    S[0] = vol
    if n >= 1:
        S[1] = 0.0
    for r in range(0, n - 1):
        S[r + 2] = c * (n - r) * S[r] / (r + 2)
    return S

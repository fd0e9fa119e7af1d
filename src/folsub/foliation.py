"""Foliation structure inside a distribution and its derived invariants.

The leaf bundle TF sits inside the distribution D together with a unit
normal N spanning the rest of D, so D = TF ⊕ span(N): a
:class:`FoliationStructure` gives the leaf frame, N and a frame of D's
complement, and D's frame is the leaf frame followed by N.  All operations
below are built from one shared evaluation context (:class:`Geometry`)
holding the frames, the projector, the shape operator with its symmetric
functions and Newton transformations, the leaf curvature vector Z, and the
projected curvature tensor at a batch of points.  The context is created
per call: evaluators are pure functions of (scenario data, point) and safe
to use concurrently.

Each user closure is evaluated once on the coordinate seeds and stacked into
a tensor jet; every quantity after that is an array contraction on those
jets (``jets.einsum``), so its derivatives come with it to the order the
frames were seeded at.

The closures (the metric, the leaf frame, the normal, the D-perp frame)
read the coordinates only through ``coords``, are pure functions of what
they read, keep no state, and give each node a result that does not
depend on its position in the batch.  :func:`distinct_nodes` relies on it.

Conventions: ``A[..., i, j] = <A e_i, e_j>`` in the leaf frame (symmetrized
after assembly with the asymmetry kept as a residual), operator matrices act
as ``(M v)^i = M[i][j] v^j``, and leafwise covectors are reported through
their frame components ``<., e_j>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import distribution as dst
from . import manifolds as mfd
from . import newton
from .errors import ConstructionError, DomainError
from .jets import Jet, einsum, stack, stack_last, value_of
from .manifolds import Manifold, Point

# Largest off-leaf norm of a vector passed where a leaf vector is expected.
LEAF_TANGENCY_TOL = 1e-9


@dataclass(frozen=True)
class FoliationStructure:
    """Leaves of dimension n inside the distribution D = TF ⊕ span(N) of a manifold.

    ``leaf_frame``, ``normal`` and ``frame_Dperp`` map coordinate jets to
    component lists: the n leaf-frame vectors, N, and a frame of D's
    complement; together orthonormal to rounding at every point.  D's frame
    is the leaf frame followed by N.
    """

    manifold: Manifold
    n: int
    leaf_frame: Callable[[Sequence[Jet]], list]
    normal: Callable[[Sequence[Jet]], list]
    frame_Dperp: Callable[[Sequence[Jet]], list]
    integrability_witness: str = ""

    def __post_init__(self):
        if not 0 <= self.n <= self.manifold.dim - 1:
            raise ValueError("leaf dimension out of range")


class Geometry:
    """Lazy shared evaluation context at a batch of points.

    ``order`` is the derivative order the user's frames are seeded at.  Every
    quantity is one tensor jet whose ``.value`` is the array: the frames
    ``e`` (..., n, m), ``N`` and ``xis`` carry ``order``; the shape operator
    ``A``, the symmetric functions ``sigma`` (sigma_0..sigma_{n+1}, the last
    identically zero), the Newton transformations ``T[r]`` and ``Z`` carry
    one order less.  So ``order=1`` gives their values, which is all that
    ``ricci_p``, the scenario flag measurement, ``divx_residual``, div_F N
    and the integrands of the grid checks over M (``verify.Check.integrand``,
    the sigma_2 scan among them) read; ``order=2`` adds their first
    derivatives, for the checks that differentiate A, Z or sigma_r (the rest
    of the pointwise battery, Codazzi, the trace identities and the
    integrand over a closed leaf).  Values are bit-identical at both orders.

    The metric is always seeded at order 2, because the Riemann tensor in
    ``RP`` and ``R`` needs ∂Γ; ``g`` keeps its derivatives to ``order``.  The connection (``gamma``) is evaluated
    once, as arrays, and computes ∂Γ only when something reads it.  Values
    that are only ever contracted (``Hperp``, ``RP``, ``R``) are computed
    without derivatives.  The projector ``P`` is contracted from D's frame,
    the jets ``e`` and ``N`` already held, so each closure runs once.  The
    metric and each frame are checked for shape on their first read
    (:meth:`_stacked`).

    One method per formula: ``newton_curvature_trace``, the alternating R^P trace
    behind div_F T_r and the main formula; ``leaf_formula_integrand``, the leaf one.

    Every quantity at a point is a function of the closure jets read there
    (the metric, the leaf frame, the normal and the D-perp frame), except
    what a method computes from a field its caller passes.
    :func:`distinct_nodes` measures the coordinates exactly those closures
    read, which does not depend on ``order``, so one grouping of a grid
    serves a context of either order, built on one point per distinct node
    of the whole grid; a closure read here that it does not probe would
    merge nodes that differ.
    """

    def __init__(self, fol: FoliationStructure, points, order: int = 2):
        self.fol = fol
        self.man = fol.manifold
        self.points = np.asarray(points, dtype=float)
        self.batch = self.points.shape[:-1]
        self.m = self.man.dim
        self.n = fol.n
        self.order = order
        self.coords = self.man.seed(self.points, order)

    # -- primitive fields --------------------------------------------------

    @cached_property
    def _seeds2(self) -> list:
        return self.coords if self.order == 2 else self.man.seed(self.points, 2)

    @cached_property
    def _metric(self) -> tuple[Jet, mfd.Connection]:
        """The metric cut to ``order``, and the connection built from its order-2 jet.

        Only the connection holds the metric Hessian, and only until it forms ∂Γ.
        """
        g = self._stacked("metric", self.man.metric_jets(self._seeds2), self._seeds2, (self.m, self.m))
        return g.at_order(self.order), self.man.gamma_jets(self._seeds2, g)

    @property
    def g(self) -> Jet:
        return self._metric[0]

    @property
    def gamma(self) -> mfd.Connection:
        return self._metric[1]

    def _frame(self, closure: str, shape: tuple) -> Jet:
        """The closure's components stacked on the seeds, of ``shape`` per point (:meth:`_stacked`)."""
        return self._stacked(closure, getattr(self.fol, closure)(self.coords), self.coords, shape)

    def _stacked(self, closure: str, entries, seeds, shape: tuple) -> Jet:
        """The nested list ``entries`` that ``closure`` gave on ``seeds``, stacked, of ``shape`` per point.

        A ragged list or any other shape raises :class:`ConstructionError`
        naming the closure: an orthonormal frame of the wrong split would
        otherwise pass as formulas of another leaf dimension, and a metric
        of the wrong size would fail deep inside the connection.
        """
        try:
            out = stack(entries, seeds)
        except ValueError as exc:  # jets.stack refuses a ragged list
            raise ConstructionError(f"{closure} gives a {exc} (n={self.n}, m={self.m})") from exc
        per_point = out.shape[len(self.batch) :]
        if per_point != shape:
            raise ConstructionError(f"{closure} gives shape {per_point} per point, not {shape} (n={self.n}, m={self.m})")
        return out

    @cached_property
    def e(self) -> Jet:
        return self._frame("leaf_frame", (self.n, self.m))

    @cached_property
    def N(self) -> Jet:
        return self._frame("normal", (self.m,))

    @cached_property
    def xis(self) -> Jet:
        return self._frame("frame_Dperp", (self.m - self.n - 1, self.m))

    @cached_property
    def E_low(self) -> np.ndarray:
        """Metric-lowered leaf frame, (..., n, m)."""
        return np.einsum("...im,...am->...ai", self.g.value, self.e.value)

    # -- derivative helpers --------------------------------------------------

    @cached_property
    def _dN(self) -> Jet:
        return mfd.differential(self.gamma, self.N)

    def tangential(self, W):
        """Leaf-tangent part of an ambient field W: sum_a <W, e_a> e_a."""
        coeff = einsum("...ij,...i,...aj->...a", self.g, W, self.e)
        return einsum("...a,...ak->...k", coeff, self.e)

    def div_F(self, field_comps) -> np.ndarray:
        """Leafwise divergence values of an ambient field, given as a list of jets or a jet."""
        F = stack(field_comps, self.coords).at_order(1)
        dF = einsum("...ai,...ki->...ak", self.e, mfd.differential(self.gamma, F))
        per_leaf = np.einsum("...ij,...ai,...aj->...a", self.g.value, dF.value, self.e.value)
        return per_leaf.sum(axis=-1) + np.zeros(self.batch)

    # -- projector and curvature tensors -------------------------------------

    @cached_property
    def P(self) -> Jet:
        return dst.projector_jets([self.e[..., a, :] for a in range(self.n)] + [self.N], self.g)

    @cached_property
    def _curvature_arrays(self):
        return dst.curvature_P_tensor(self.man, self.gamma, self.P)

    @property
    def RP(self) -> np.ndarray:
        return self._curvature_arrays[0]

    @property
    def R(self) -> np.ndarray:
        return self._curvature_arrays[1]

    # -- shape data -----------------------------------------------------------

    @cached_property
    def A_raw(self) -> Jet:
        """<A e_i, e_j> = -<nabla_{e_i} N, e_j> before symmetrization."""
        dN = einsum("...ai,...ki->...ak", self.e, self._dN)
        return -einsum("...ij,...ai,...bj->...ab", self.g, dN, self.e)

    @cached_property
    def A(self) -> Jet:
        raw = self.A_raw
        return (raw + einsum("...ij->...ji", raw)) * 0.5

    @cached_property
    def A_asym(self) -> float:
        raw = self.A_raw.value
        return float(np.max(np.abs(raw - np.swapaxes(raw, -1, -2))))

    @cached_property
    def sigma(self) -> Jet:
        """sigma_0..sigma_n of A, then sigma_{n+1} = 0 for the formulas that read sigma_{r+2}."""
        sig = newton.sigma_values(self.A)
        return stack_last([sig[..., k] for k in range(self.n + 1)] + [0.0])

    @cached_property
    def T(self) -> list[Jet]:
        """T_0..T_n by the recursion T_r = sigma_r Id - A T_{r-1}."""
        return newton.newton_transforms(self.A, self.sigma)

    @cached_property
    def Z(self) -> Jet:
        return einsum("...ij,...j->...i", self.P, einsum("...i,...ki->...k", self.N, self._dN))

    @cached_property
    def Z_leaf(self) -> Jet:
        """Leaf-frame components <Z, e_a>."""
        return einsum("...ij,...i,...aj->...a", self.g, self.Z, self.e)

    @cached_property
    def Hperp(self) -> Jet:
        return dst.mean_curvature_perp_vector(self.gamma, self.P, self.xis.at_order(1))

    # -- curvature operator matrices ------------------------------------------

    def _operator_matrix(self, tensor: np.ndarray, Xarr: np.ndarray) -> np.ndarray:
        """Leaf-frame matrix of V -> curvature(V, X)N for a (l,k,i,j) tensor."""
        w = np.einsum("...lkab,...k,...b->...la", tensor, self.N.value, Xarr)
        return np.einsum("...il,...la,...ja->...ij", self.E_low, w, self.e.value)

    def rp_matrix(self, Xarr: np.ndarray) -> np.ndarray:
        return self._operator_matrix(self.RP, Xarr)

    def ricci_p(self, Xarr: np.ndarray) -> np.ndarray:
        return np.trace(self.rp_matrix(Xarr), axis1=-2, axis2=-1)

    # -- leafwise tensor derivatives -------------------------------------------

    def nabla_F_operator(self, M: Jet, X, paired: bool = False) -> np.ndarray:
        """Leaf-frame matrix of the leafwise covariant derivative of the operator M along X.

        Row i is <nabla_X (M e_i), e_j> - <nabla_X e_i, e_k> M[k][j]; with
        ``paired`` the direction of row i is the frame vector X[..., i, :].
        """
        x = "...ix" if paired else "...x"
        e = self.e.at_order(1)
        Me = einsum("...ij,...jk->...ik", M, e)
        dMe = einsum(x + ",...ikx->...ik", X, mfd.differential(self.gamma, Me, frame=True))
        de = einsum(x + ",...ikx->...ik", X, mfd.differential(self.gamma, e, frame=True))
        g, E = self.g.value, self.e.value
        first = np.einsum("...pq,...ip,...jq->...ij", g, dMe.value, E)
        conn = np.einsum("...pq,...ip,...kq->...ik", g, de.value, E)
        return first - np.einsum("...ik,...kj->...ij", conn, value_of(M))

    def div_F_newton_direct(self, r: int) -> np.ndarray:
        """Leaf covector components of the leafwise divergence of T_r, by jets."""
        return self.nabla_F_operator(self.T[r], self.e, paired=True).sum(axis=-2)

    def off_leaf(self, arr: np.ndarray) -> np.ndarray:
        """Part of ambient vectors (..., m) orthogonal to the leaf bundle."""
        return arr - np.einsum("...il,...l,...im->...m", self.E_low, arr, self.e.value)

    def max_norm(self, arr: np.ndarray) -> float:
        """Largest metric norm of ambient vectors (..., m) over the points."""
        return float(np.sqrt(max(np.max(np.einsum("...l,...lk,...k->...", arr, self.g.value, arr)), 0.0)))

    def newton_curvature_trace(self, r: int, X: np.ndarray, tensor: np.ndarray) -> np.ndarray:
        """sum_{j=1..r} (-1)^{j-1} tr(T_{r-j} tensor(., A^{j-1} X)N) for leaf components X (..., n).

        With ``tensor`` = R^P this is the inductive formula for <div_F T_r, X>.
        """
        out = np.zeros(self.batch)
        for j in range(1, r + 1):
            M = self._operator_matrix(tensor, np.einsum("...i,...im->...m", X, self.e.value))
            out = out + (-1.0) ** (j - 1) * np.einsum("...ik,...ki->...", self.T[r - j].value, M)
            X = np.einsum("...ik,...k->...i", self.A.value, X)
        return out

    def div_F_newton_formula(self, r: int) -> np.ndarray:
        """Same covector through the inductive curvature-trace formula, one leaf-frame vector at a time."""
        units = np.eye(self.n) + np.zeros(self.batch + (self.n, self.n))
        return np.stack([self.newton_curvature_trace(r, units[..., j, :], self.RP) for j in range(self.n)], axis=-1)

    def adapted_identity_residual(self) -> float:
        """Max residual of the pointwise normal-derivative identity.

        <nabla_{e_i} Z, e_j> against A^2 + curvature + leafwise derivative of A
        along N plus the Z rank-one term; exact where the adapted-frame
        hypotheses can be met (vanishing admissibility residual).
        """
        dZ = einsum("...ai,...ki->...ak", self.e, mfd.differential(self.gamma, self.Z))
        lhs = np.einsum("...ij,...ai,...bj->...ab", self.g.value, dZ.value, self.e.value)
        A = self.A.value
        curv = np.swapaxes(self.rp_matrix(self.N.value), -1, -2)
        dNA = self.nabla_F_operator(self.A, self.N)
        zl = self.Z_leaf.value
        rhs = A @ A + curv - dNA + zl[..., :, None] * zl[..., None, :]
        return float(np.max(np.abs(lhs - rhs)))

    def leaf_formula_integrand(self, r: int) -> np.ndarray:
        """Integrand of the compact-leaf formula at order r, per point.

        (r+2) sigma_{r+2} + N(sigma_{r+1}) - sigma_1 sigma_{r+1} - tr(T_r R^P(., N)N)
        - <T_r Z, Z> - the curvature trace along Z; it is -div_F(T_r Z) where admissible.
        """
        sig, N, zl, Tr = self.sigma.value, self.N.value, self.Z_leaf.value, self.T[r].value
        return (
            (r + 2) * sig[..., r + 2]
            + np.einsum("...k,...k->...", N, self.sigma.grad[..., r + 1, :])
            - sig[..., 1] * sig[..., r + 1]
            - np.einsum("...ik,...ki->...", Tr, self.rp_matrix(N))
            - np.einsum("...i,...i->...", np.einsum("...ij,...j->...i", Tr, zl), zl)
            - self.newton_curvature_trace(r, zl, self.RP)
        )

    def newton_z_divergence_residual(self, r: int) -> np.ndarray:
        """Residual of the leafwise divergence identity for T_r Z, per point."""
        TZ = einsum("...ij,...j->...i", self.T[r], self.Z_leaf)
        return self.div_F(einsum("...i,...ik->...k", TZ, self.e)) + self.leaf_formula_integrand(r)

    def divx_residual(self, X_field) -> float:
        """Residual of Div X = Div_F X - <X, Z> - <X, Hperp> for a field X in D.

        It holds for fields whose normal component is constant along the N-curves.
        The frames are read first, so that their shape check refuses a
        closure of the wrong shape before ``X_field``, which may call the
        closures itself, reads it.
        """
        self.e, self.N
        X = stack(X_field(self.coords), self.coords).at_order(1)
        full = mfd.divergence_jets(self.man, self.coords, self.gamma, X)
        xz = np.einsum("...l,...lk,...k->...", X.value, self.g.value, self.Z.value)
        xh = np.einsum("...l,...lk,...k->...", X.value, self.g.value, self.Hperp.value)
        return float(np.max(np.abs(full - (self.div_F(X) - xz - xh))))

    def integrability_residual(self) -> float:
        """Max norm of the off-leaf part of [e_i, e_j] over the leaf frame."""
        worst = 0.0
        for i in range(self.n):
            for j in range(i + 1, self.n):
                br = mfd.lie_bracket(self.man, self.e[..., i, :], self.e[..., j, :]).value
                worst = max(worst, self.max_norm(self.off_leaf(br)))
        return worst

    def admissibility_residual(self) -> float:
        """max over the D-perp frame of |P nabla_xi N| at the points."""
        return dst.admissibility_max(self.g.value, self.P, self.xis, self._dN)

    # -- Codazzi and the trace identities at this context's points --------------

    def codazzi_residual(self, X: Jet, Y: Jet) -> float:
        """Norm of (nabla^F_X A)Y - (nabla^F_Y A)X + R^P(X, Y)N for leaf fields X, Y."""
        Xarr, Yarr = value_of(X), value_of(Y)
        g, E = self.g.value, self.e.value
        Xl, Yl = (np.einsum("...ij,...i,...aj->...a", g, V, E) for V in (Xarr, Yarr))
        v = np.einsum("...ij,...i->...j", self.nabla_F_operator(self.A, X), Yl)
        v = v - np.einsum("...ij,...i->...j", self.nabla_F_operator(self.A, Y), Xl)
        w = np.einsum("...lkab,...k,...a,...b->...l", self.RP, self.N.value, Xarr, Yarr)
        resid = v + np.einsum("...il,...l->...i", self.E_low, w)
        return float(np.max(np.sqrt(np.sum(resid**2, axis=-1))))

    def trace_identity_field_residual(self, r: int, X) -> float:
        """Residual of tr(T_{r-1} nabla^F_X A) = X(sigma_r) along a leaf field X."""
        lhs = np.einsum("...ik,...ki->...", self.T[r - 1].value, self.nabla_F_operator(self.A, X))
        rhs = np.einsum("...k,...k->...", value_of(X), self.sigma.grad[..., r, :])
        return float(np.max(np.abs(lhs - rhs)))

    def trace_identities_algebraic(self, r: int) -> np.ndarray:
        """Worst residuals of the three algebraic trace identities for T_r over the points."""
        return np.abs(newton.trace_identity_residuals(r, self.A.value)).reshape(-1, 3).max(axis=0)

    def trace_identities_field(self, r: int) -> float:
        """Worst field-identity residual for T_r over every leaf-frame direction."""
        if r + 1 > self.n:
            return 0.0
        return max(self.trace_identity_field_residual(r + 1, self.e[..., i, :]) for i in range(self.n))


def distinct_nodes(fol: FoliationStructure, points, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Group the nodes ``points`` (K, m) at which a ``Geometry`` reads the same inputs.

    A :class:`Geometry` reads the user's closures at a node and nothing else
    of it: the metric, the leaf frame, the normal and the D-perp frame.  A
    closure is a pure function of the coordinates it reads, so nodes that
    agree on those coordinates get bit-identical values at any seed order.
    Which coordinates they are, the support S, is measured once per call,
    before any value is grouped: each closure runs once on the order-2 seeds
    of the first two nodes, handed over in one list that records what is
    read (:class:`_Reads`).  Two points make a Python ``if``
    on a value array raise, so a branch cannot hide a read.

    The nodes are grouped by the raw bytes of their coordinates on S, so
    -0.0 and 0.0 differ, and, given quadrature ``weights`` (K,) that are not
    all one value, by the bits of their weight too, so that every group
    shares one weight; an empty key gives one group.  Returns ``(first,
    group)``: the index of each group's first node, ascending, and each
    node's group, numbered in grid order of first appearance.  They do not
    depend on ``quadrature.CHUNK``.  ``Geometry(fol, points[first], order)``
    evaluates every group once, and ``values[group]`` gives each node its
    group's value, so a reduction over the nodes sees the per-node samples.
    Only closure-derived quantities may be read this way: a field the caller
    passes to a ``Geometry`` method would be evaluated at the first nodes alone.
    """
    pts = np.asarray(points, dtype=float)
    k = pts.shape[0]
    columns = pts[:, _support(fol, pts[:2]) if k > 1 else []]
    w = None if weights is None else np.asarray(weights, dtype=float)
    if w is not None and np.any(w.view(np.int64) != w[:1].view(np.int64)):
        columns = np.column_stack((columns, w))
    if not columns.shape[1]:
        return np.arange(min(k, 1), dtype=np.intp), np.zeros(k, dtype=np.intp)
    # One key per node, its raw bytes: a single column sorts faster as uint64, with the same bytes.
    width = np.uint64 if columns.shape[1] == 1 else np.dtype((np.void, 8 * columns.shape[1]))
    keys = np.ascontiguousarray(columns).view(width).ravel()
    _, index, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_first = np.argsort(index)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    return index[by_first], rank[inverse]


class _Reads(list):
    """Coordinate seeds that record which of them a closure reads.

    An index or a slice records its indices; iteration, unpacking and the
    list operations that copy the items (``copy``, ``+``, ``*``,
    ``reversed``) record all of them.
    """

    def __init__(self, seeds):
        super().__init__(seeds)
        self.read: set[int] = set()

    def __getitem__(self, key):
        picked = range(len(self))[key]
        self.read.update(picked if isinstance(picked, range) else (picked,))
        return super().__getitem__(key)

    def __radd__(self, other):
        return other + list(self)  # iteration records every index


def _reading_all(method):
    def reads_all(self, *args):
        self.read.update(range(len(self)))
        return method(self, *args)

    return reads_all


for _name in ("__iter__", "__reversed__", "__add__", "__mul__", "__rmul__", "copy"):
    setattr(_Reads, _name, _reading_all(getattr(list, _name)))


def _support(fol: FoliationStructure, probe: np.ndarray) -> list[int]:
    """The coordinates the closures of a ``Geometry`` read at the nodes ``probe``, ascending."""
    seeds = _Reads(fol.manifold.seed(probe, 2))
    fol.manifold.metric_jets(seeds)
    for closure in (fol.leaf_frame, fol.normal, fol.frame_Dperp):
        closure(seeds)
    return sorted(seeds.read)


# -- residuals at points (perfbench/tracing.py wraps these names) ----------------


def _leaf_input(geom, X, what: str):
    """Accept a leaf field evaluator or a pointwise leaf vector; extend the latter."""
    if callable(X):
        comps = stack(X(geom.coords), geom.coords)
    else:
        comps = np.broadcast_to(np.asarray(X, dtype=float), geom.batch + (geom.m,))
    resid = geom.max_norm(geom.off_leaf(value_of(comps)))
    if resid > LEAF_TANGENCY_TOL:
        raise DomainError(f"{what} is not tangent to the leaves (residual {resid:.3e})")
    return comps if callable(X) else geom.tangential(comps)


def codazzi_residual(fol: FoliationStructure, X, Y, p: Point) -> float:
    """Norm of (nabla^F_X A)Y - (nabla^F_Y A)X + R^P(X, Y)N at p."""
    geom = Geometry(fol, np.asarray(p, dtype=float), order=2)
    return geom.codazzi_residual(_leaf_input(geom, X, "X"), _leaf_input(geom, Y, "Y"))


def trace_identities(fol: FoliationStructure, r: int, p: Point) -> np.ndarray:
    """Four residuals: the three algebraic trace identities and the field one."""
    geom = Geometry(fol, np.asarray(p, dtype=float), order=2)
    return np.append(geom.trace_identities_algebraic(r), geom.trace_identities_field(r))


def integrability_residual(fol: FoliationStructure, p: Point) -> float:
    """Max norm of the off-leaf part of [e_i, e_j] over the leaf frame."""
    return Geometry(fol, np.asarray(p, dtype=float), order=1).integrability_residual()


def divx_residual(fol: FoliationStructure, X_field, p: Point) -> float:
    """Residual of the divergence split for a field X in D (:meth:`Geometry.divx_residual`)."""
    return Geometry(fol, np.asarray(p, dtype=float), order=1).divx_residual(X_field)

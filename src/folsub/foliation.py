"""Foliation structure inside a distribution and its derived invariants.

The leaf bundle TF sits inside the distribution D together with a unit
normal N spanning the rest of D.  All operations below are built from one
shared evaluation context (:class:`Geometry`) holding the frames, the
projector, the shape operator with its symmetric functions and Newton
transformations, the leaf curvature vector Z, and the projected curvature
tensor at a batch of points.  The context is created per call: evaluators
are pure functions of (scenario data, point) and safe to use concurrently.

Each user closure is evaluated once on the coordinate seeds and stacked into
a tensor jet; every quantity after that is an array contraction on those
jets (``jets.einsum``), so its derivatives come with it to the order the
frames were seeded at.

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
from .errors import DomainError
from .jets import Jet, cos as jcos, einsum, sin as jsin, stack, stack_last, value_of
from .manifolds import Point, TangentVector

# Largest off-leaf norm of a vector passed where a leaf vector is expected.
LEAF_TANGENCY_TOL = 1e-9


@dataclass(frozen=True)
class FoliationStructure:
    """Leaf frame, unit normal inside D, and an integrability witness note."""

    dist: dst.DistributionSpec
    leaf_frame: Callable[[Sequence[Jet]], list]
    normal: Callable[[Sequence[Jet]], list]
    integrability_witness: str = ""

    @property
    def manifold(self):
        return self.dist.manifold

    @property
    def n(self) -> int:
        return self.dist.rank - 1


@dataclass(frozen=True)
class AdaptedFrame:
    """Evaluated orthonormal frame (leaf vectors, normal, complement) at a point."""

    leaf: np.ndarray
    normal: np.ndarray
    perp: np.ndarray
    base: Point


class Geometry:
    """Lazy shared evaluation context at a batch of points.

    ``order`` is the derivative order the user's frames are seeded at.  Every
    quantity is one tensor jet whose ``.value`` is the array: the frames
    ``e`` (..., n, m), ``N`` and ``xis`` carry ``order``; the shape operator
    ``A``, the symmetric functions ``sigma`` (sigma_0..sigma_{n+1}, the last
    identically zero), the Newton transformations ``T[r]`` and ``Z`` carry
    one order less.  So ``order=1`` gives their values, which is all the grid
    integrands (``reeb``, ``main:r``, ``closed-form-c``), the ``sigma2-image``
    scan, ``ricci_p``, the scenario flag measurement, ``divx_residual`` and
    div_F N read; ``order=2`` adds their first derivatives, for the checks
    that differentiate A, Z or sigma_r (the rest of the pointwise battery,
    Codazzi, the trace identities and ``leaf:r``).  Values are bit-identical
    at both orders.

    The metric is always seeded at order 2, because the Riemann tensor in
    ``RP`` and ``R`` needs ∂Γ; ``g`` keeps its derivatives to ``order``.  The connection (``gamma``) is evaluated
    once, as arrays, and computes ∂Γ only when something reads it.  Values
    that are only ever contracted (``Hperp``, ``RP``, ``R``) are computed
    without derivatives.

    One method per formula: ``newton_curvature_trace``, the alternating R^P trace
    behind div_F T_r and the main formula; ``leaf_formula_integrand``, the leaf one.

    Every quantity at a point is a function of the closure jets read there
    (the metric, the leaf frame, the normal, the D-frame and the D-perp
    frame), except what a method computes from a field its caller passes.
    :func:`distinct_nodes` fingerprints exactly those closures, so a grid
    pass can build one context per group of identical nodes; a closure read
    here that it does not fingerprint would merge nodes that differ.
    """

    def __init__(self, fol: FoliationStructure, points, order: int = 2):
        self.fol = fol
        self.dist = fol.dist
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
        g = stack(self.man.metric_jets(self._seeds2), self._seeds2)
        return g.at_order(self.order), self.man.gamma_jets(self._seeds2, g)

    @property
    def g(self) -> Jet:
        return self._metric[0]

    @property
    def gamma(self) -> mfd.Connection:
        return self._metric[1]

    @cached_property
    def e(self) -> Jet:
        return stack(self.fol.leaf_frame(self.coords), self.coords)

    @cached_property
    def N(self) -> Jet:
        return stack(self.fol.normal(self.coords), self.coords)

    @cached_property
    def xis(self) -> Jet:
        return stack(self.dist.frame_Dperp(self.coords), self.coords)

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
        return dst.projector_jets(self.dist, self.coords, self.g)

    @cached_property
    def _curvature_arrays(self):
        return dst.curvature_P_tensor(self.dist, self.coords, self.g, self.gamma, self.P)

    @property
    def RP(self) -> np.ndarray:
        return self._curvature_arrays[0]

    @property
    def R(self) -> np.ndarray:
        return self._curvature_arrays[3]

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

    def riemann_matrix(self, Xarr: np.ndarray) -> np.ndarray:
        return self._operator_matrix(self.R, Xarr)

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
        """
        X = stack(X_field(self.coords), self.coords).at_order(1)
        full = mfd.divergence_jets(self.man, self.coords, self.gamma, X).value
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


def distinct_nodes(fol: FoliationStructure, points, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Group the nodes ``points`` (K, m) at which a ``Geometry`` of ``order`` reads the same inputs.

    A node's fingerprint is every closure jet a :class:`Geometry` reads there:
    the metric to order 2, and the leaf frame, the normal, the D-frame and the
    D-perp frame to ``order``.  Everything a ``Geometry`` computes at a node
    is a function of those jets alone, so nodes whose jets agree bit for bit
    get bit-identical values.  The jets are compared as raw bytes (so -0.0
    and 0.0 differ), over the entries that vary within the block.

    Returns ``(first, group)``: the index of each group's first node,
    ascending, and each node's group.  ``Geometry(fol, points[first], order)``
    evaluates every group once, and ``values[group]`` gives each node its
    group's value, so a reduction over the nodes sees the per-node samples.
    Only closure-derived quantities may be read this way: a field the caller
    passes to a ``Geometry`` method would be evaluated at the first nodes alone.
    """
    pts = np.asarray(points, dtype=float)
    k = pts.shape[0]
    man, dist = fol.manifold, fol.dist
    seeds, seeds2 = man.seed(pts, order), man.seed(pts, 2)
    outputs = [man.metric_jets(seeds2)]
    outputs += [f(seeds) for f in (fol.leaf_frame, fol.normal, dist.frame_D, dist.frame_Dperp)]
    columns = []
    for part in _closure_arrays(outputs):
        if part.shape[:1] != (k,):
            continue  # no batch axis: the same at every node
        bits = np.asarray(part, dtype=float).reshape(k, -1).view(np.uint64)
        live = np.any(bits != bits[0], axis=0)
        if np.any(live):
            columns.append(bits[:, live])
    if not columns:
        return np.zeros(1, dtype=np.intp), np.zeros(k, dtype=np.intp)
    rows = np.ascontiguousarray(np.concatenate(columns, axis=1))
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    by_node = np.argsort(first)
    rank = np.empty_like(by_node)
    rank[by_node] = np.arange(by_node.size)
    return first[by_node], rank[group.ravel()]


def _closure_arrays(entries):
    """The arrays of a closure's nested-list output: each jet's value and derivatives, and bare arrays.

    Its numbers are constants, the same at every node.
    """
    if isinstance(entries, Jet):
        yield from (part for part in (entries.value, entries.grad, entries.hess) if part is not None)
    elif isinstance(entries, np.ndarray):
        yield entries
    elif isinstance(entries, (list, tuple)):
        for x in entries:
            yield from _closure_arrays(x)


# -- public operations ---------------------------------------------------------


def leaf_field(fol: FoliationStructure, i: int):
    """The i-th leaf-frame vector as a field evaluator."""
    return lambda coords: fol.leaf_frame(coords)[i]


def adapted_frame(fol: FoliationStructure, p: Point) -> AdaptedFrame:
    p = np.asarray(p, dtype=float)
    geom = Geometry(fol, p, order=0)
    return AdaptedFrame(leaf=geom.e.value, normal=geom.N.value, perp=geom.xis.value, base=p)


def shape_operator(fol: FoliationStructure, p: Point) -> np.ndarray:
    """Leaf-frame shape operator matrix at p (symmetrized)."""
    return Geometry(fol, p, order=1).A.value


def shape_operator_asymmetry(fol: FoliationStructure, p: Point) -> float:
    return Geometry(fol, p, order=1).A_asym


def curvature_vector_Z(fol: FoliationStructure, p: Point) -> TangentVector:
    p = np.asarray(p, dtype=float)
    return TangentVector(Geometry(fol, p, order=1).Z.value, p)


def second_fundamental_form(fol: FoliationStructure, X, Y, p: Point) -> TangentVector:
    """h(X, Y): component of nabla_X Y orthogonal to the leaf bundle."""
    p = np.asarray(p, dtype=float)
    geom = Geometry(fol, p, order=1)
    w = mfd.nabla(geom.gamma, _leaf_input(geom, X, "X"), _leaf_input(geom, Y, "Y"))
    return TangentVector(geom.off_leaf(w.value), p)


def _leaf_input(geom, X, what: str):
    """Accept a leaf field evaluator or a pointwise leaf vector; extend the latter."""
    if callable(X):
        comps = stack(X(geom.coords), geom.coords)
    else:
        raw = np.asarray(X.components if isinstance(X, TangentVector) else X, dtype=float)
        comps = np.broadcast_to(raw, geom.batch + (geom.m,))
    resid = geom.max_norm(geom.off_leaf(value_of(comps)))
    if resid > LEAF_TANGENCY_TOL:
        raise DomainError(f"{what} is not tangent to the leaves (residual {resid:.3e})")
    return comps if callable(X) else geom.tangential(comps)


def ricci_p(fol: FoliationStructure, X, p: Point) -> np.ndarray:
    """Leaf-frame trace of V -> R^P(V, X)N for X in D."""
    p = np.asarray(p, dtype=float)
    geom = Geometry(fol, p, order=1)
    return geom.ricci_p(_ambient_components(geom, X))


def rp_operator_matrix(fol: FoliationStructure, X, p: Point) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    geom = Geometry(fol, p, order=1)
    return geom.rp_matrix(_ambient_components(geom, X))


def _ambient_components(geom, X) -> np.ndarray:
    if callable(X):
        return stack(X(geom.coords), geom.coords).value
    raw = X.components if isinstance(X, TangentVector) else X
    return np.broadcast_to(np.asarray(raw, dtype=float), geom.batch + (geom.m,))


def leafwise_divergence(fol: FoliationStructure, X_field, p: Point) -> np.ndarray:
    """Trace of nabla X over the leaf frame only."""
    geom = Geometry(fol, np.asarray(p, dtype=float), order=1)
    return geom.div_F(X_field(geom.coords))


def divF_newton(fol: FoliationStructure, r: int, p: Point, mode: str = "direct") -> np.ndarray:
    """Leafwise divergence of T_r as a leaf covector, by jets or by the formula."""
    if not 0 <= r <= fol.n - 1:
        raise ValueError(f"Newton divergence index {r} outside 0..{fol.n - 1}")
    geom = Geometry(fol, np.asarray(p, dtype=float), order=2)
    if mode == "direct":
        return geom.div_F_newton_direct(r)
    if mode == "formula":
        return geom.div_F_newton_formula(r)
    raise ValueError(f"unknown mode {mode!r}")


def nablaF_N_A(fol: FoliationStructure, p: Point) -> np.ndarray:
    """Leafwise covariant derivative of the shape-operator field along N."""
    geom = Geometry(fol, np.asarray(p, dtype=float), order=2)
    return geom.nabla_F_operator(geom.A, geom.N)


def codazzi_residual(fol: FoliationStructure, X, Y, p: Point) -> float:
    """Norm of (nabla^F_X A)Y - (nabla^F_Y A)X + R^P(X, Y)N at p."""
    geom = Geometry(fol, np.asarray(p, dtype=float), order=2)
    return geom.codazzi_residual(_leaf_input(geom, X, "X"), _leaf_input(geom, Y, "Y"))


def codazzi_classic_residual(fol: FoliationStructure, X, Y, U, p: Point) -> float:
    """Classical Codazzi residual for the leaves as submanifolds of M.

    |(nabla_X h)(Y, U) - (nabla_Y h)(X, U) - (R(X, Y)U)^perp| with the
    second fundamental form h valued in the full orthogonal complement of
    the leaf bundle.
    """
    geom = Geometry(fol, np.asarray(p, dtype=float), order=2)
    Xc, Yc, Uc = (_leaf_input(geom, V, what) for V, what in ((X, "X"), (Y, "Y"), (U, "U")))
    nabla = lambda V, W: mfd.nabla(geom.gamma, V, W)

    def h_field(Ac, Bc):
        w = nabla(Ac, Bc)
        return w - geom.tangential(w)

    def cov_h(Ac, Bc, Cc):
        # (nabla_A h)(B, C) = perp(nabla_A (h(B,C))) - h(nabla^F_A B, C) - h(B, nabla^F_A C)
        out = geom.off_leaf(nabla(Ac, h_field(Bc, Cc)).value)
        out = out - h_field(geom.tangential(nabla(Ac, Bc)), Cc).value
        return out - h_field(Bc, geom.tangential(nabla(Ac, Cc))).value

    lhs = cov_h(Xc, Yc, Uc) - cov_h(Yc, Xc, Uc)
    RXYU = np.einsum("...lkab,...k,...a,...b->...l", geom.R, Uc.value, Xc.value, Yc.value)
    return geom.max_norm(lhs - geom.off_leaf(RXYU))


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
        c, s = jcos(th), jsin(th)
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

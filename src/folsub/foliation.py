"""Foliation structure inside a distribution and its derived invariants.

The leaf bundle TF sits inside the distribution D together with a unit
normal N spanning the rest of D.  All operations below are built from one
shared evaluation context (:class:`Geometry`) holding the frames, the
projector, the shape operator with its symmetric functions and Newton
transformations, the leaf curvature vector Z, and the projected curvature
tensor at a batch of points.  The context is created per call: evaluators
are pure functions of (scenario data, point) and safe to use concurrently.

Conventions: ``A[i][j] = <A e_i, e_j>`` in the leaf frame (symmetrized after
assembly with the asymmetry kept as a residual), operator matrices act as
``(M v)^i = M[i][j] v^j``, and leafwise covectors are reported through their
frame components ``<., e_j>``.
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
from .jets import (
    Jet,
    cos as jcos,
    mat_vec,
    metric_inner,
    sin as jsin,
    stack_jets,
    stack_values,
    truncate,
    value_of,
)
from .manifolds import Point, TangentVector


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

    ``order`` is the derivative order the user's frames are seeded at, and
    so the order every field built from them carries: ``order=1`` gives
    values of the shape operator, its symmetric functions and Newton
    transformations, Z, H-perp and the curvature tensors, which is all the
    grid integrands (``reeb``, ``main:r``, ``closed-form-c``), the
    ``sigma2-image`` scan, ``ricci_p`` and the scenario flag measurement
    read; ``order=2`` adds their first derivatives, for the checks that
    differentiate A, Z or sigma_r (the pointwise battery, Codazzi, the trace
    identities and ``leaf:r``).  Values are bit-identical at both orders.

    The metric is always seeded at order 2, because the Riemann tensor in
    ``RP`` and ``Rarr`` needs ∂Γ.  The connection (``gamma``) is evaluated
    once, as arrays, and computes ∂Γ only when something reads it; ``nabla``
    multiplies by Γ truncated to ``order - 1``.  Plain ndarrays are used
    once a quantity is only ever contracted.
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
    def _metric(self) -> tuple[list, list]:
        """Order-2 coordinate seeds and the metric jets on them."""
        coords = self.coords if self.order == 2 else self.man.seed(self.points, 2)
        return coords, self.man.metric_jets(coords)

    @cached_property
    def g(self):
        return truncate(self._metric[1], self.order)

    @cached_property
    def gamma(self):
        return self.man.gamma_jets(*self._metric)

    @cached_property
    def e(self) -> list:
        return self.fol.leaf_frame(self.coords)

    @cached_property
    def N(self) -> list:
        return self.fol.normal(self.coords)

    @cached_property
    def xis(self) -> list:
        return self.dist.frame_Dperp(self.coords)

    @cached_property
    def E(self) -> np.ndarray:
        return stack_jets(self.e, self.batch, self.m, 0)[0]

    @cached_property
    def Narr(self) -> np.ndarray:
        return stack_values(self.N, self.batch)

    @cached_property
    def g_arr(self) -> np.ndarray:
        return stack_jets(self.g, self.batch, self.m, 0)[0]

    @cached_property
    def E_low(self) -> np.ndarray:
        """Metric-lowered leaf frame, (..., n, m)."""
        return np.einsum("...im,...am->...ai", self.g_arr, self.E)

    # -- derivative helpers --------------------------------------------------

    def nabla(self, Xc, Wc):
        return mfd.nabla(self.man, self.gamma, Xc, Wc, self.order - 1)

    def inner(self, u, v):
        return metric_inner(self.g, u, v)

    def leaf_components(self, comps) -> list:
        return [self.inner(comps, ei) for ei in self.e]

    def leaf_part(self, comps) -> list:
        """Component jets of the leaf-tangent part of an ambient field."""
        out = [0.0] * self.m
        for ei in self.e:
            coeff = self.inner(comps, ei)
            out = [out[k] + coeff * ei[k] for k in range(self.m)]
        return out

    def div_F(self, field_comps) -> np.ndarray:
        """Leafwise divergence values of an ambient field given as jets."""
        acc = 0.0
        for ei in self.e:
            acc = acc + self.inner(self.nabla(ei, field_comps), ei)
        return np.asarray(value_of(acc), dtype=float) + np.zeros(self.batch)

    # -- projector and curvature tensors -------------------------------------

    @cached_property
    def P(self):
        return dst.projector_jets(self.dist, self.coords, self.g)

    @cached_property
    def _curvature_arrays(self):
        return dst.curvature_P_tensor(self.dist, self.coords, self.g, self.gamma, self.P)

    @property
    def RP(self) -> np.ndarray:
        return self._curvature_arrays[0]

    @property
    def Parr(self) -> np.ndarray:
        return self._curvature_arrays[1]

    @property
    def Rarr(self) -> np.ndarray:
        return self._curvature_arrays[3]

    # -- shape data -----------------------------------------------------------

    @cached_property
    def _A_raw(self):
        rows = []
        for ei in self.e:
            dN = self.nabla(ei, self.N)
            rows.append([-self.inner(dN, ej) for ej in self.e])
        return rows

    @cached_property
    def A(self) -> list:
        raw = self._A_raw
        n = self.n
        return [[(raw[i][j] + raw[j][i]) * 0.5 for j in range(n)] for i in range(n)]

    @cached_property
    def A_asym(self) -> float:
        raw = stack_jets(self._A_raw, self.batch, self.m, 0)[0]
        return float(np.max(np.abs(raw - np.swapaxes(raw, -1, -2))))

    @cached_property
    def A_arr(self) -> np.ndarray:
        return stack_jets(self.A, self.batch, self.m, 0)[0]

    @cached_property
    def sigmas(self) -> list:
        return newton.sigmas_nested(self.A)

    def sigma_jet(self, k: int):
        return newton.sigma_entry(self.sigmas, k)

    def sigma_arr(self, k: int) -> np.ndarray:
        return np.asarray(value_of(self.sigma_jet(k)), dtype=float) + np.zeros(self.batch)

    @cached_property
    def newtons(self) -> list:
        return newton.newton_transforms_nested(self.A, self.sigmas)

    def newton_arr(self, r: int) -> np.ndarray:
        return stack_jets(self.newtons[r], self.batch, self.m, 0)[0]

    @cached_property
    def Z(self) -> list:
        return mat_vec(self.P, self.nabla(self.N, self.N))

    @cached_property
    def Zarr(self) -> np.ndarray:
        return stack_values(self.Z, self.batch)

    @cached_property
    def Z_leaf(self) -> list:
        return self.leaf_components(self.Z)

    @cached_property
    def Z_leaf_arr(self) -> np.ndarray:
        return stack_values(self.Z_leaf, self.batch)

    @cached_property
    def Hperp_arr(self) -> np.ndarray:
        m = self.m
        acc = [0.0] * m
        for xi in self.xis:
            w = mat_vec(self.P, self.nabla(xi, xi))
            acc = [acc[k] + w[k] for k in range(m)]
        return stack_values(acc, self.batch)

    # -- curvature operator matrices ------------------------------------------

    def _operator_matrix(self, tensor: np.ndarray, Xarr: np.ndarray) -> np.ndarray:
        """Leaf-frame matrix of V -> curvature(V, X)N for a (l,k,i,j) tensor."""
        w = np.einsum("...lkab,...k,...b->...la", tensor, self.Narr, Xarr)
        return np.einsum("...il,...la,...ja->...ij", self.E_low, w, self.E)

    def rp_matrix(self, Xarr: np.ndarray) -> np.ndarray:
        return self._operator_matrix(self.RP, Xarr)

    def riemann_matrix(self, Xarr: np.ndarray) -> np.ndarray:
        return self._operator_matrix(self.Rarr, Xarr)

    def ricci_p(self, Xarr: np.ndarray) -> np.ndarray:
        return np.trace(self.rp_matrix(Xarr), axis1=-2, axis2=-1)

    # -- leafwise tensor derivatives -------------------------------------------

    def leaf_operator_field(self, M: list, i: int) -> list:
        """Ambient component jets of the field q -> M(q) e_i(q) for a leaf operator."""
        m, n = self.m, self.n
        out = [0.0] * m
        for j in range(n):
            for k in range(m):
                out[k] = out[k] + M[i][j] * self.e[j][k]
        return out

    def _nabla_F_row(self, M: list, i: int, Xc) -> np.ndarray:
        """Row i of the leaf-frame matrix of the leafwise covariant derivative of M along X."""
        dfield = self.nabla(Xc, self.leaf_operator_field(M, i))
        de = self.nabla(Xc, self.e[i])
        row = []
        for j in range(self.n):
            second = 0.0
            for k in range(self.n):
                second = second + self.inner(de, self.e[k]) * M[k][j]
            row.append(self.inner(dfield, self.e[j]) - second)
        return stack_values(row, self.batch)

    def nabla_F_operator(self, M: list, Xc) -> np.ndarray:
        """Leaf-frame matrix of the leafwise covariant derivative of M along X."""
        return np.stack([self._nabla_F_row(M, i, Xc) for i in range(self.n)], axis=-2)

    def div_F_newton_direct(self, r: int) -> np.ndarray:
        """Leaf covector components of the leafwise divergence of T_r, by jets."""
        rows = (self._nabla_F_row(self.newtons[r], i, self.e[i]) for i in range(self.n))
        return sum(rows, np.zeros(self.batch + (self.n,)))

    def off_leaf(self, arr: np.ndarray) -> np.ndarray:
        """Part of ambient vectors (..., m) orthogonal to the leaf bundle."""
        return arr - np.einsum("...il,...l,...im->...m", self.E_low, arr, self.E)

    def max_norm(self, arr: np.ndarray) -> float:
        """Largest metric norm of ambient vectors (..., m) over the points."""
        return float(np.sqrt(max(np.max(np.einsum("...l,...lk,...k->...", arr, self.g_arr, arr)), 0.0)))

    def div_F_newton_formula(self, r: int) -> np.ndarray:
        """Same covector through the inductive curvature-trace formula."""
        n = self.n
        out = np.zeros(self.batch + (n,))
        if r == 0:
            return out
        Aarr = self.A_arr
        for j in range(n):
            X = self.E[..., j, :]
            Aj = np.zeros(self.batch + (n,))
            Aj[..., j] = 1.0
            for jj in range(1, r + 1):
                Xarr = np.einsum("...i,...im->...m", Aj, self.E)
                M = self.rp_matrix(Xarr)
                out[..., j] += (-1.0) ** (jj - 1) * np.einsum(
                    "...ik,...ki->...", self.newton_arr(r - jj), M
                )
                Aj = np.einsum("...ik,...k->...i", Aarr, Aj)
        return out

    def adapted_identity_residual(self) -> float:
        """Max residual of the pointwise normal-derivative identity.

        <nabla_{e_i} Z, e_j> against A^2 + curvature + leafwise derivative of A
        along N plus the Z rank-one term; exact where the adapted-frame
        hypotheses can be met (vanishing admissibility residual).
        """
        dZ = [self.nabla(ei, self.Z) for ei in self.e]
        lhs = stack_jets([self.leaf_components(dZi) for dZi in dZ], self.batch, self.m, 0)[0]
        A2 = self.A_arr @ self.A_arr
        curv = np.swapaxes(self.rp_matrix(self.Narr), -1, -2)
        dNA = self.nabla_F_operator(self.A, self.N)
        zz = self.Z_leaf_arr[..., :, None] * self.Z_leaf_arr[..., None, :]
        rhs = A2 + curv - dNA + zz
        return float(np.max(np.abs(lhs - rhs)))

    def newton_z_divergence_residual(self, r: int) -> np.ndarray:
        """Residual of the leafwise divergence identity for T_r Z, per point."""
        n = self.n
        T = self.newtons[r]
        TZ_leaf = [sum(T[i][j] * self.Z_leaf[j] for j in range(n)) for i in range(n)]
        field = [
            sum(TZ_leaf[i] * self.e[i][k] for i in range(n)) for k in range(self.m)
        ]
        lhs = self.div_F(field)
        divT = self.div_F_newton_formula(r)
        rhs = np.einsum("...j,...j->...", divT, self.Z_leaf_arr)
        rhs = rhs + np.einsum("...ik,...ki->...", self.newton_arr(r), self.rp_matrix(self.Narr))
        TZarr = np.einsum("...ij,...j->...i", self.newton_arr(r), self.Z_leaf_arr)
        rhs = rhs + np.einsum("...i,...i->...", TZarr, self.Z_leaf_arr)
        rhs = rhs - (r + 2) * self.sigma_arr(r + 2)
        rhs = rhs - self.direction_derivative(self.sigma_jet(r + 1), self.Narr)
        rhs = rhs + self.sigma_arr(1) * self.sigma_arr(r + 1)
        return lhs - rhs

    def direction_derivative(self, scalar_jet, Xarr: np.ndarray) -> np.ndarray:
        """X(f) for a scalar jet f and an ambient direction array."""
        if not isinstance(scalar_jet, Jet):
            return np.zeros(self.batch)
        return np.einsum("...k,...k->...", Xarr, scalar_jet.grad)


# -- public operations ---------------------------------------------------------


def leaf_field(fol: FoliationStructure, i: int):
    """The i-th leaf-frame vector as a field evaluator."""
    return lambda coords: fol.leaf_frame(coords)[i]


def normal_field(fol: FoliationStructure):
    return lambda coords: fol.normal(coords)


def adapted_frame(fol: FoliationStructure, p: Point) -> AdaptedFrame:
    p = np.asarray(p, dtype=float)
    geom = Geometry(fol, p, order=0)
    perp = (
        np.stack([stack_values(v, geom.batch) for v in geom.xis], axis=-2)
        if geom.xis
        else np.zeros(geom.batch + (0, geom.m))
    )
    return AdaptedFrame(leaf=geom.E, normal=geom.Narr, perp=perp, base=p)


def shape_operator(fol: FoliationStructure, p: Point) -> np.ndarray:
    """Leaf-frame shape operator matrix at p (symmetrized)."""
    return Geometry(fol, p, order=1).A_arr


def shape_operator_asymmetry(fol: FoliationStructure, p: Point) -> float:
    return Geometry(fol, p, order=1).A_asym


def curvature_vector_Z(fol: FoliationStructure, p: Point) -> TangentVector:
    p = np.asarray(p, dtype=float)
    geom = Geometry(fol, p, order=1)
    return TangentVector(geom.Zarr, p)


def second_fundamental_form(fol: FoliationStructure, X, Y, p: Point) -> TangentVector:
    """h(X, Y): component of nabla_X Y orthogonal to the leaf bundle."""
    p = np.asarray(p, dtype=float)
    geom = Geometry(fol, p, order=1)
    Xc = _leaf_input(fol, geom, X, "X")
    Yc = _leaf_input(fol, geom, Y, "Y")
    w = geom.nabla(Xc, Yc)
    tang = geom.leaf_part(w)
    comps = stack_values([w[k] - tang[k] for k in range(geom.m)], geom.batch)
    return TangentVector(comps, p)


def _leaf_input(fol, geom, X, what: str):
    """Accept a leaf field evaluator or a pointwise leaf vector; extend the latter."""
    if callable(X):
        comps = X(geom.coords)
    else:
        raw = np.asarray(X.components if isinstance(X, TangentVector) else X, dtype=float)
        comps = [raw[..., k] for k in range(geom.m)]
    resid = geom.max_norm(geom.off_leaf(stack_values(comps, geom.batch)))
    if resid > 1e-9:
        raise DomainError(f"{what} is not tangent to the leaves (residual {resid:.3e})")
    return comps if callable(X) else geom.leaf_part(comps)


def sigma(fol_or_matrix, r: int = None, p: Point = None):
    """sigma_r of the shape operator; also accepts a plain matrix."""
    if isinstance(fol_or_matrix, FoliationStructure):
        A = shape_operator(fol_or_matrix, p)
    else:
        A = np.asarray(fol_or_matrix, dtype=float)
    return newton.sigma(r, A)


def ricci_p(fol: FoliationStructure, X, p: Point) -> np.ndarray:
    """Leaf-frame trace of V -> R^P(V, X)N for X in D."""
    p = np.asarray(p, dtype=float)
    geom = Geometry(fol, p, order=1)
    Xarr = _ambient_components(geom, X)
    return geom.ricci_p(Xarr)


def rp_operator_matrix(fol: FoliationStructure, X, p: Point) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    geom = Geometry(fol, p, order=1)
    return geom.rp_matrix(_ambient_components(geom, X))


def _ambient_components(geom, X) -> np.ndarray:
    if isinstance(X, TangentVector):
        return np.broadcast_to(np.asarray(X.components, dtype=float), geom.batch + (geom.m,))
    if callable(X):
        return stack_values(X(geom.coords), geom.batch)
    return np.broadcast_to(np.asarray(X, dtype=float), geom.batch + (geom.m,))


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
    Xc = _leaf_input(fol, geom, X, "X")
    Yc = _leaf_input(fol, geom, Y, "Y")
    dXA = geom.nabla_F_operator(geom.A, Xc)
    dYA = geom.nabla_F_operator(geom.A, Yc)
    Xl = stack_values(geom.leaf_components(Xc), geom.batch)
    Yl = stack_values(geom.leaf_components(Yc), geom.batch)
    v = np.einsum("...ij,...i->...j", dXA, Yl) - np.einsum("...ij,...i->...j", dYA, Xl)
    Xarr = stack_values(Xc, geom.batch)
    Yarr = stack_values(Yc, geom.batch)
    w = np.einsum("...lkab,...k,...a,...b->...l", geom.RP, geom.Narr, Xarr, Yarr)
    wl = np.einsum("...il,...l->...i", geom.E_low, w)
    resid = v + wl
    return float(np.max(np.sqrt(np.sum(resid**2, axis=-1))))


def codazzi_classic_residual(fol: FoliationStructure, X, Y, U, p: Point) -> float:
    """Classical Codazzi residual for the leaves as submanifolds of M.

    |(nabla_X h)(Y, U) - (nabla_Y h)(X, U) - (R(X, Y)U)^perp| with the
    second fundamental form h valued in the full orthogonal complement of
    the leaf bundle.
    """
    geom = Geometry(fol, np.asarray(p, dtype=float), order=2)
    Xc = _leaf_input(fol, geom, X, "X")
    Yc = _leaf_input(fol, geom, Y, "Y")
    Uc = _leaf_input(fol, geom, U, "U")

    def h_field(Ac, Bc):
        w = geom.nabla(Ac, Bc)
        out = list(w)
        for ei in geom.e:
            coeff = geom.inner(w, ei)
            out = [out[k] - coeff * ei[k] for k in range(geom.m)]
        return out

    def cov_h(Ac, Bc, Cc):
        # (nabla_A h)(B, C) = perp(nabla_A (h(B,C))) - h(nabla^F_A B, C) - h(B, nabla^F_A C)
        hBC = h_field(Bc, Cc)
        d1 = stack_values(geom.nabla(Ac, hBC), geom.batch)
        out = geom.off_leaf(d1)
        out = out - stack_values(h_field(geom.leaf_part(geom.nabla(Ac, Bc)), Cc), geom.batch)
        out = out - stack_values(h_field(Bc, geom.leaf_part(geom.nabla(Ac, Cc))), geom.batch)
        return out

    lhs = cov_h(Xc, Yc, Uc) - cov_h(Yc, Xc, Uc)
    Xarr = stack_values(Xc, geom.batch)
    Yarr = stack_values(Yc, geom.batch)
    Uarr = stack_values(Uc, geom.batch)
    RXYU = np.einsum("...lkab,...k,...a,...b->...l", geom.Rarr, Uarr, Xarr, Yarr)
    rhs = geom.off_leaf(RXYU)
    return geom.max_norm(lhs - rhs)


def trace_identity_field_residual(fol: FoliationStructure, r: int, X, p: Point) -> float:
    """Residual of tr(T_{r-1} nabla^F_X A) = X(sigma_r) along a leaf direction."""
    if not 1 <= r <= fol.n:
        raise ValueError(f"field trace identity index {r} outside 1..{fol.n}")
    geom = Geometry(fol, np.asarray(p, dtype=float), order=2)
    Xc = _leaf_input(fol, geom, X, "X")
    dXA = geom.nabla_F_operator(geom.A, Xc)
    lhs = np.einsum("...ik,...ki->...", geom.newton_arr(r - 1), dXA)
    Xarr = stack_values(Xc, geom.batch)
    rhs = geom.direction_derivative(geom.sigma_jet(r), Xarr)
    return float(np.max(np.abs(lhs - rhs)))


def trace_identities_algebraic(fol: FoliationStructure, r: int, p: Point) -> np.ndarray:
    """Worst residuals of the three algebraic trace identities over the points."""
    A = shape_operator(fol, p)
    return np.abs(newton.trace_identity_residuals(r, A)).reshape(-1, 3).max(axis=0)


def trace_identities_field(fol: FoliationStructure, r: int, p: Point) -> float:
    """Worst residual of the field identity for T_r over every leaf-frame direction."""
    worst = 0.0
    if r + 1 <= fol.n:
        for i in range(fol.n):
            worst = max(worst, trace_identity_field_residual(fol, r + 1, leaf_field(fol, i), p))
    return worst


def trace_identities(fol: FoliationStructure, r: int, p: Point) -> np.ndarray:
    """Four residuals: the three algebraic trace identities and the field one."""
    return np.append(trace_identities_algebraic(fol, r, p), trace_identities_field(fol, r, p))


def integrability_residual(fol: FoliationStructure, p: Point) -> float:
    """Max norm of the off-leaf part of [e_i, e_j] over the leaf frame."""
    geom = Geometry(fol, np.asarray(p, dtype=float), order=1)
    worst = 0.0
    for i in range(geom.n):
        for j in range(i + 1, geom.n):
            br = stack_values(mfd.lie_bracket(geom.man, geom.e[i], geom.e[j]), geom.batch)
            worst = max(worst, geom.max_norm(geom.off_leaf(br)))
    return worst


def divx_residual(fol: FoliationStructure, X_field, p: Point) -> float:
    """Residual of the divergence split for a field X in D.

    Div X = Div_F X - <X, Z> - <X, Hperp>; the split as displayed holds for
    fields whose normal component is constant along the N-curves, which is
    the class the integral formulas use.
    """
    geom = Geometry(fol, np.asarray(p, dtype=float), order=2)
    Xc = X_field(geom.coords)
    full = value_of(mfd.divergence_jets(geom.man, geom.coords, geom.gamma, Xc))
    leafdiv = geom.div_F(Xc)
    Xarr = stack_values(Xc, geom.batch)
    xz = np.einsum("...l,...lk,...k->...", Xarr, geom.g_arr, geom.Zarr)
    xh = np.einsum("...l,...lk,...k->...", Xarr, geom.g_arr, geom.Hperp_arr)
    return float(np.max(np.abs(full - (leafdiv - xz - xh))))


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

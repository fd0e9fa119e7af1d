"""Distribution data: orthoprojector, induced connection, projected curvature.

The distribution D is presented by orthonormal frames for D and its
orthogonal complement.  The induced connection applies the orthoprojector P
after the ambient covariant derivative.  Its curvature is computed two ways:

* a field route straight from the commutator definition, with the arguments
  extended as closed-form fields (used by the public pointwise operation and
  for tensoriality certification), and
* a pointwise tensor route, P R(X,Y)V + P (nabla_X P)(nabla_Y P) V
  - P (nabla_Y P)(nabla_X P) V, valid for V in D, which the batched
  verification pipeline uses.

Both agree to rounding; tests certify the field route is extension-invariant.
The projector is built as first-order jets from the user's frames
(``projector_jets``), because Z and the field route differentiate it once
and nothing differentiates it twice.  The tensor route stacks
those jets once into value and gradient arrays and computes nabla P, R and
R^P as values only, with ``einsum`` over the connection arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import manifolds
from .errors import DomainError, FrameError
from .jets import (
    Jet,
    mat_vec,
    metric_inner,
    stack_jets,
    stack_values,
    truncate,
    value_of,
)
from .manifolds import Manifold, Point, TangentVector, lie_bracket, nabla


@dataclass(frozen=True)
class DistributionSpec:
    """Rank-(n+1) distribution with orthonormal frames for D and its complement.

    ``frame_D`` and ``frame_Dperp`` map coordinate jets to lists of component
    lists; frames must be orthonormal to rounding at every point.
    """

    manifold: Manifold
    rank: int
    frame_D: Callable[[Sequence[Jet]], list]
    frame_Dperp: Callable[[Sequence[Jet]], list]

    def __post_init__(self):
        m = self.manifold.dim
        if not 1 <= self.rank <= m:
            raise ValueError("distribution rank out of range")


def projector_jets(dist: DistributionSpec, coords, g=None):
    """P[i][j] = sum_a v_a^i (g v_a)_j over the D-frame, as jets of order at most 1.

    No consumer reads more than ∂P (every product with the connection
    truncates to first order), so the frame and metric jets are truncated
    to order 1 first; the value and gradient are those of the full product.
    """
    m = dist.manifold.dim
    if g is None:
        g = dist.manifold.metric_jets(coords)
    g = truncate(g, 1)
    vs = truncate(dist.frame_D(coords), 1)
    P = [[0.0 for _ in range(m)] for _ in range(m)]
    for v in vs:
        low = mat_vec(g, v)
        for i in range(m):
            for j in range(m):
                P[i][j] = P[i][j] + v[i] * low[j]
    return P


def frame_gram_residual(g_arr: np.ndarray, frames: np.ndarray) -> float:
    """Largest deviation from the identity of the Gram matrix of ``frames`` (..., r, m)."""
    gram = np.einsum("...am,...mn,...bn->...ab", frames, g_arr, frames)
    return float(np.max(np.abs(gram - np.eye(frames.shape[-2]))))


def orthoprojector(dist: DistributionSpec, p: Point, check_tol: float = 1e-10) -> np.ndarray:
    """Projector matrix onto D at p.  Raises FrameError on a bad frame."""
    p = np.asarray(p, dtype=float)
    batch, m = p.shape[:-1], dist.manifold.dim
    coords = dist.manifold.seed(p, order=0)
    g = dist.manifold.metric_jets(coords)
    frames = stack_jets(dist.frame_D(coords) + dist.frame_Dperp(coords), batch, m, 0)[0]
    resid = frame_gram_residual(stack_jets(g, batch, m, 0)[0], frames)
    if resid > check_tol:
        raise FrameError(f"distribution frame not orthonormal: residual {resid:.3e}")
    return stack_jets(projector_jets(dist, coords, g), batch, m, 0)[0]


class Projector:
    """Matrix-valued evaluator p -> P(p) for the orthoprojector onto D."""

    def __init__(self, dist: DistributionSpec):
        self.dist = dist

    def __call__(self, p: Point) -> np.ndarray:
        return orthoprojector(self.dist, p)

    def complement(self, p: Point) -> np.ndarray:
        P = self(p)
        return np.eye(self.dist.manifold.dim) - P


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
        return lambda coords: [comps[..., k] for k in range(len(comps))]

    def section(coords):
        vs = dist.frame_D(coords)
        g = dist.manifold.metric_jets(coords)
        m = dist.manifold.dim
        out = [0.0] * m
        for v in vs:
            coeff = metric_inner(g, [comps[..., k] for k in range(m)], v)
            out = [out[k] + coeff * v[k] for k in range(m)]
        return out

    return section


def _check_argument_in_D(dist, coords, g, arg, tol: float, what: str):
    if callable(arg):
        comps = arg(coords)
    else:
        raw = np.asarray(arg.components if isinstance(arg, TangentVector) else arg, dtype=float)
        comps = [raw[..., k] for k in range(dist.manifold.dim)]
    for w in dist.frame_Dperp(coords):
        ip = float(np.max(np.abs(value_of(metric_inner(g, comps, w)))))
        if ip > tol:
            raise DomainError(f"{what} is not a section of the distribution (residual {ip:.3e})")


def nabla_P(dist: DistributionSpec, X, U, p: Point) -> TangentVector:
    """Induced-connection derivative P nabla_X U at p; U must lie in D."""
    p = np.asarray(p, dtype=float)
    coords = dist.manifold.seed(p, order=1)
    g = dist.manifold.metric_jets(coords)
    gamma = dist.manifold.gamma_jets(coords, g)
    _check_argument_in_D(dist, coords, g, U, 1e-10, "U")
    Xc = _as_field(X, dist, "ambient")(coords)
    Uc = _as_field(U, dist, "section")(coords)
    P = projector_jets(dist, coords, g)
    w = nabla(dist.manifold, gamma, Xc, Uc)
    out = mat_vec(P, w)
    return TangentVector(stack_values(out, p.shape[:-1]), p)


def curvature_P_fields(dist: DistributionSpec, Xf, Yf, Vf, coords):
    """Commutator-definition evaluation of the projected curvature on fields.

    Returns component jets of R^P(X, Y)V; ``coords`` must be seeded at
    order >= 2.
    """
    man = dist.manifold
    g = man.metric_jets(coords)
    gamma = man.gamma_jets(coords, g)
    P = projector_jets(dist, coords, g)
    Xc, Yc, Vc = Xf(coords), Yf(coords), Vf(coords)

    inner_Y = mat_vec(P, nabla(man, gamma, Yc, Vc))
    inner_X = mat_vec(P, nabla(man, gamma, Xc, Vc))
    term1 = mat_vec(P, nabla(man, gamma, Xc, inner_Y))
    term2 = mat_vec(P, nabla(man, gamma, Yc, inner_X))
    brk = lie_bracket(man, Xc, Yc)
    term3 = mat_vec(P, nabla(man, gamma, brk, Vc))
    return [term1[k] - term2[k] - term3[k] for k in range(man.dim)]


def curvature_P(dist: DistributionSpec, X, Y, V, p: Point) -> TangentVector:
    """R^P(X, Y)V at p.

    Pointwise arguments are extended as constant-coefficient fields (over the
    backend basis for X, Y and over the D-frame for V); field evaluators are
    used as given.  V(p) must lie in D.
    """
    p = np.asarray(p, dtype=float)
    coords = dist.manifold.seed(p, order=2)
    g = dist.manifold.metric_jets(coords)
    _check_argument_in_D(dist, coords, g, V, 1e-10, "V")
    Vf = _as_field(V, dist, "section")
    comps = curvature_P_fields(
        dist, _as_field(X, dist, "ambient"), _as_field(Y, dist, "ambient"), Vf, coords
    )
    return TangentVector(stack_values(comps, p.shape[:-1]), p)


def curvature_P_tensor(dist: DistributionSpec, coords, g=None, gamma=None, P=None, R=None):
    """Pointwise projected-curvature tensor RP[..., l, k, i, j] as ndarrays.

    Acts on sections of D: (R^P(e_i, e_j)V)^l = RP[l, k, i, j] V^k.  Returns
    ``(RP, P, DP, R)``: the projector values, DP[..., i, a, b] = (nabla_i P)[a, b]
    and the Riemann tensor, all values only with the batch axes.  They come
    from the connection arrays and the projector jets stacked once.
    """
    man = dist.manifold
    if g is None:
        g = man.metric_jets(coords)
    if gamma is None:
        gamma = man.gamma_jets(coords, g)
    if P is None:
        P = projector_jets(dist, coords, g)
    if R is None:
        R = manifolds.riemann_jets(man, coords, gamma)

    Parr, dP = stack_jets(P, coords[0].value.shape, man.dim, 1)
    G = gamma.gamma
    DP = (
        np.moveaxis(dP, -1, -3)
        + np.einsum("...aic,...cb->...iab", G, Parr)
        - np.einsum("...cib,...ac->...iab", G, Parr)
    )
    PR = np.einsum("...lx,...xkij->...lkij", Parr, R)
    Q = np.einsum("...ax,...ixy,...jyk->...ijak", Parr, DP, DP, optimize=True)
    RP = PR + np.moveaxis(Q, (-4, -3), (-2, -1)) - np.moveaxis(np.swapaxes(Q, -4, -3), (-4, -3), (-2, -1))
    return RP, Parr, DP, np.broadcast_to(R, RP.shape)


class MeanCurvaturePerp(NamedTuple):
    vector: TangentVector
    norm: float
    harmonic: bool


def mean_curvature_perp(dist: DistributionSpec, p: Point, tol: float = 1e-9) -> MeanCurvaturePerp:
    """Mean curvature vector of the orthogonal distribution, projected into D.

    The harmonic flag records whether its norm is below ``tol``.
    """
    p = np.asarray(p, dtype=float)
    coords = dist.manifold.seed(p, order=1)
    g = dist.manifold.metric_jets(coords)
    gamma = dist.manifold.gamma_jets(coords, g)
    P = projector_jets(dist, coords, g)
    m = dist.manifold.dim
    acc = [0.0] * m
    for xi in dist.frame_Dperp(coords):
        w = mat_vec(P, nabla(dist.manifold, gamma, xi, xi))
        acc = [acc[k] + w[k] for k in range(m)]
    comps = stack_values(acc, p.shape[:-1])
    sq = value_of(metric_inner(g, acc, acc))
    norm = float(np.max(np.sqrt(np.maximum(sq, 0.0))))
    return MeanCurvaturePerp(TangentVector(comps, p), norm, norm <= tol)


def admissibility_residual(dist: DistributionSpec, fol, p: Point) -> float:
    """max over the D-perp frame of |P nabla_xi N| at p.

    Zero is necessary for the adapted-frame hypotheses of the pointwise
    normal-derivative identity to be satisfiable at p.
    """
    p = np.asarray(p, dtype=float)
    coords = dist.manifold.seed(p, order=1)
    g = dist.manifold.metric_jets(coords)
    gamma = dist.manifold.gamma_jets(coords, g)
    P = projector_jets(dist, coords, g)
    Nc = fol.normal(coords)
    worst = 0.0
    for xi in dist.frame_Dperp(coords):
        w = mat_vec(P, nabla(dist.manifold, gamma, xi, Nc))
        sq = value_of(metric_inner(g, w, w))
        worst = max(worst, float(np.max(np.sqrt(np.maximum(sq, 0.0)))))
    return worst

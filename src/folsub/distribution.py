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
The projector is a tensor jet of order at most 1 contracted from the user's
frames (``projector_jets``), because Z and the field route differentiate it
once and nothing differentiates it twice.  The tensor route reads its value
and gradient and computes nabla P, R and R^P as values only, with ``einsum``
over the connection arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import manifolds
from .errors import DomainError, FrameError
from .jets import Jet, einsum, stack, stack_last
from .manifolds import Manifold, Point, TangentVector, differential, lie_bracket, nabla

# Largest frame-Gram defect, or off-D part of a D argument, the pointwise operations accept.
D_CHECK_TOL = 1e-10
# Largest mean curvature of the orthogonal distribution counted as harmonic.
HARMONIC_TOL = 1e-9


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


def projector_jets(dist: DistributionSpec, coords, g=None) -> Jet:
    """P[..., i, j] = sum_a v_a^i (g v_a)_j over the D-frame, as a jet of order at most 1.

    No consumer reads more than ∂P, so the frame and the metric (the
    closure's list or a jet) enter cut to order 1; the value and gradient
    are those of the full product.  The sums run frame vector by frame
    vector and column by column, each product rule added before the next
    term, so the gradient rounds as the entrywise product does.  Frame
    entries that are identically zero, most of them in the catalog, add
    nothing and are skipped.
    """
    g = stack(dist.manifold.metric_jets(coords) if g is None else g, coords).at_order(1)
    V = stack(dist.frame_D(coords), coords).at_order(1)
    rows = [0.0] * V.shape[-1]
    for a in range(V.shape[-2]):
        v = V[..., a, :]
        live = [j for j in range(V.shape[-1]) if not _is_zero(v[..., j])]
        low = 0.0
        for j in live:
            low = low + g[..., :, j] * v[..., j, None]
        for i in live:
            rows[i] = rows[i] + v[..., i, None] * low
    return einsum("...ji->...ij", stack_last(rows))


def _is_zero(x: Jet) -> bool:
    return not (np.any(x.value) or (x.grad is not None and np.any(x.grad)))


def frame_gram_residual(g: np.ndarray, frames: np.ndarray) -> float:
    """Largest deviation from the identity of the Gram matrix of ``frames`` (..., r, m)."""
    gram = np.einsum("...am,...mn,...bn->...ab", frames, g, frames)
    return float(np.max(np.abs(gram - np.eye(frames.shape[-2]))))


def orthoprojector(dist: DistributionSpec, p: Point, check_tol: float = D_CHECK_TOL) -> np.ndarray:
    """Projector matrix onto D at p.  Raises FrameError on a bad frame."""
    coords = dist.manifold.seed(np.asarray(p, dtype=float), order=0)
    g = stack(dist.manifold.metric_jets(coords), coords)
    frames = stack(dist.frame_D(coords) + dist.frame_Dperp(coords), coords).value
    resid = frame_gram_residual(g.value, frames)
    if resid > check_tol:
        raise FrameError(f"distribution frame not orthonormal: residual {resid:.3e}")
    return projector_jets(dist, coords, g).value


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


def curvature_P_tensor(dist: DistributionSpec, coords, g=None, gamma=None, P=None, R=None):
    """Pointwise projected-curvature tensor RP[..., l, k, i, j] as ndarrays.

    Acts on sections of D: (R^P(e_i, e_j)V)^l = RP[l, k, i, j] V^k.  Returns
    ``(RP, P, DP, R)``: the projector values, DP[..., i, a, b] = (nabla_i P)[a, b]
    and the Riemann tensor, all values only with the batch axes.  They come
    from the connection arrays and the projector jet.
    """
    man = dist.manifold
    g = stack(man.metric_jets(coords) if g is None else g, coords)
    if gamma is None:
        gamma = man.gamma_jets(coords, g)
    if P is None:
        P = projector_jets(dist, coords, g)
    if R is None:
        R = manifolds.riemann_jets(man, coords, gamma)

    Parr, dP = P.value, P.grad
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


def mean_curvature_perp_vector(gamma, P: Jet, xis: Jet) -> Jet:
    """sum_a P nabla_{xi_a} xi_a over the D-perp frame ``xis`` (..., a, m)."""
    D = differential(gamma, xis, frame=True)
    w = einsum("...ij,...aj->...ai", P, einsum("...ai,...aki->...ak", xis, D))
    return einsum("...ai->...i", w)


def _perp_setup(dist: DistributionSpec, p: Point):
    """Order-1 seeds at p with the metric, the connection, the projector and the D-perp frame."""
    coords = dist.manifold.seed(np.asarray(p, dtype=float), order=1)
    g = stack(dist.manifold.metric_jets(coords), coords)
    gamma = dist.manifold.gamma_jets(coords, g)
    return coords, g.value, gamma, projector_jets(dist, coords, g), stack(dist.frame_Dperp(coords), coords)


def mean_curvature_perp(dist: DistributionSpec, p: Point, tol: float = HARMONIC_TOL) -> MeanCurvaturePerp:
    """Mean curvature vector of the orthogonal distribution, projected into D.

    The harmonic flag records whether its norm is below ``tol``.
    """
    _, g, gamma, P, xis = _perp_setup(dist, p)
    H = mean_curvature_perp_vector(gamma, P, xis).value
    sq = np.einsum("...ij,...i,...j->...", g, H, H)
    norm = float(np.max(np.sqrt(np.maximum(sq, 0.0))))
    return MeanCurvaturePerp(TangentVector(H, np.asarray(p, dtype=float)), norm, norm <= tol)


def admissibility_max(g: np.ndarray, P: Jet, xis: Jet, dN: Jet) -> float:
    """max over the D-perp frame ``xis`` of |P nabla_xi N|, given ∇N (``dN``, direction last)."""
    w = einsum("...ij,...aj->...ai", P, einsum("...ai,...ki->...ak", xis, dN)).value
    sq = np.einsum("...ij,...ai,...aj->...a", g, w, w)
    return float(np.max(np.sqrt(np.maximum(sq, 0.0)), initial=0.0))


def admissibility_residual(dist: DistributionSpec, fol, p: Point) -> float:
    """max over the D-perp frame of |P nabla_xi N| at p.

    Zero is necessary for the adapted-frame hypotheses of the pointwise
    normal-derivative identity to be satisfiable at p.
    """
    coords, g, gamma, P, xis = _perp_setup(dist, p)
    return admissibility_max(g, P, xis, differential(gamma, stack(fol.normal(coords), coords)))

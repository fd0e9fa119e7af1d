"""Distribution data: orthoprojector, induced connection, projected curvature.

The distribution D is presented by orthonormal frames for D and its
orthogonal complement.  The induced connection applies the orthoprojector P
after the ambient covariant derivative.  Its curvature is computed by the
pointwise tensor route, P R(X,Y)V + P (nabla_X P)(nabla_Y P) V
- P (nabla_Y P)(nabla_X P) V, valid for V in D (``curvature_P_tensor``).
The tests hold it to a second route straight from the commutator
definition, with the arguments extended as closed-form fields, and certify
that route extension-invariant.
The projector is a tensor jet of order at most 1 contracted from the user's
frames (``projector_jets``), because Z differentiates it once and nothing
differentiates it twice.  The tensor route reads its value and gradient and
computes nabla P, R and R^P as values only, with ``einsum`` over the
connection arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import manifolds
from .jets import Jet, einsum, stack, stack_last
from .manifolds import Manifold, differential

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


def projector_jets(dist: DistributionSpec, coords, g) -> Jet:
    """P[..., i, j] = sum_a v_a^i (g v_a)_j over the D-frame, as a jet of order at most 1.

    No consumer reads more than ∂P, so the frame and the metric (the
    closure's list or a jet ``g``) enter cut to order 1; the value and gradient
    are those of the full product.  The sums run frame vector by frame
    vector and column by column, each product rule added before the next
    term, so the gradient rounds as the entrywise product does.  Frame
    entries that are identically zero, most of them in the catalog, add
    nothing and are skipped.
    """
    g = stack(g, coords).at_order(1)
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


def curvature_P_tensor(dist: DistributionSpec, gamma, P: Jet):
    """Pointwise projected-curvature tensor RP[..., l, k, i, j] as ndarrays.

    Acts on sections of D: (R^P(e_i, e_j)V)^l = RP[l, k, i, j] V^k.  Returns
    ``(RP, R)``, R the Riemann tensor, both values only with the batch axes.
    They come from the connection ``gamma`` (its ∂Γ included) and the
    projector jet ``P`` (:func:`projector_jets`), through
    DP[..., i, a, b] = (nabla_i P)[a, b].
    """
    R = manifolds.riemann_jets(dist.manifold, gamma)

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
    return RP, np.broadcast_to(R, RP.shape)


def mean_curvature_perp_vector(gamma, P: Jet, xis: Jet) -> Jet:
    """sum_a P nabla_{xi_a} xi_a over the D-perp frame ``xis`` (..., a, m)."""
    D = differential(gamma, xis, frame=True)
    w = einsum("...ij,...aj->...ai", P, einsum("...ai,...aki->...ak", xis, D))
    return einsum("...ai->...i", w)


def admissibility_max(g: np.ndarray, P: Jet, xis: Jet, dN: Jet) -> float:
    """max over the D-perp frame ``xis`` of |P nabla_xi N|, given ∇N (``dN``, direction last)."""
    w = einsum("...ij,...aj->...ai", P, einsum("...ai,...ki->...ak", xis, dN)).value
    sq = np.einsum("...ij,...ai,...aj->...a", g, w, w)
    return float(np.max(np.sqrt(np.maximum(sq, 0.0)), initial=0.0))

"""Closed-manifold backends and the Levi-Civita calculus on them.

Two backends cover the example catalog:

* :class:`ChartManifold` - a product of circles with a globally periodic
  metric given in closed form.  Points are chart coordinates taken modulo
  the periods; all derivatives come from second-order jets of the metric.
* :class:`InvariantFrameManifold` - a homogeneous space presented by an
  orthonormal invariant frame with constant structure coefficients.  Every
  geometric field is point-independent, so a point is just a tag and the
  connection coefficients come from the Koszul formula on the structure
  constants.

Both expose the same small protocol (``seed``, ``metric_jets``,
``gamma_jets``, ``structure_constants``), so the connection, curvature and
divergence routines below are written once.

The metric and every field reach this module as tensor jets (see
``jets``).  ``gamma_jets`` returns a :class:`Connection` holding the
Christoffel symbols as an array; their derivatives ∂Γ are contracted from
the same metric arrays the first time something reads them, so value-only
consumers never form them.  ``riemann_jets`` contracts Γ and ∂Γ into the
Riemann tensor.  The covariant derivative of a field known to order k,
``differential``, is known to order k - 1, so it reads ∂Γ only when the
field carries a Hessian.  Index conventions:
``gamma[..., k, i, j]`` multiplies direction i and argument j, and the
curvature components satisfy ``(R(X, Y)V)^l = R[..., l, k, i, j] V^k X^i Y^j``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import jets
from .jets import Jet, einsum, mat_inverse, stack

Point = np.ndarray


class Connection:
    """Levi-Civita coefficients at a batch of points, as arrays.

    ``gamma[..., k, i, j]`` multiplies direction i and argument j, and
    ``dgamma[..., k, i, j, a]`` is its derivative in direction a, computed
    on first use and ``None`` when the chart seeds carried no Hessian.
    Value-only consumers never read it, so they never pay for it.  The
    invariant-frame backend's coefficients are constant: no batch axis, and
    ``dgamma`` is zero.
    """

    def __init__(self, gamma: np.ndarray, dgamma: np.ndarray | Callable[[], np.ndarray] | None = None):
        self.gamma = gamma
        self._dgamma = dgamma

    @cached_property
    def dgamma(self) -> np.ndarray | None:
        make = self._dgamma
        value = make() if callable(make) else make
        self._dgamma = None  # release the stacked metric arrays the builder holds
        return value

    def jet(self, order: int) -> Jet:
        """Γ as a jet of at most ``order``: ∂Γ is read, and formed, only for order 1."""
        return Jet(self.gamma, self.dgamma if order >= 1 else None)


@dataclass(frozen=True)
class ChartManifold:
    """Product of circles with a periodic closed-form metric.

    ``metric`` maps a list of coordinate jets to a nested m x m list of
    jets/constants; it must be smooth and periodic in each coordinate.
    """

    dim: int
    periods: tuple[float, ...]
    metric: Callable[[Sequence[Jet]], list]
    name: str = "chart"

    def __post_init__(self):
        if len(self.periods) != self.dim:
            raise ValueError("one period per coordinate required")
        if any(p <= 0 for p in self.periods):
            raise ValueError("periods must be positive")

    @property
    def structure_constants(self) -> np.ndarray:
        return np.zeros((self.dim, self.dim, self.dim))

    def seed(self, points, order: int = 2) -> list[Jet]:
        return jets.variables(points, order)

    def base_point(self) -> Point:
        return np.zeros(self.dim)

    def random_points(self, rng: np.random.Generator, size=()) -> np.ndarray:
        if isinstance(size, int):
            size = (size,)
        return rng.uniform(0.0, 1.0, size + (self.dim,)) * np.asarray(self.periods)

    def metric_jets(self, coords):
        return self.metric(coords)

    def gamma_jets(self, coords, g) -> Connection:
        """Levi-Civita connection on the seeds; ``g`` is the metric, as the closure's list or a jet."""
        g = stack(g, coords)
        if g.order < 1:
            raise ValueError("connection coefficients need seeds of order >= 1")
        dg, H = g.grad, g.hess
        # The inverse metric and, with a Hessian, its gradient come from one jet solve,
        # bit-identical to a scalar jet evaluation of the whole formula.
        ginv = mat_inverse(g.at_order(g.order - 1))
        # S[l, i, j] = d_i g[l, j] + d_j g[l, i] - d_l g[i, j]; dg[..., p, q, r] = d_r g[p, q]
        S = np.swapaxes(dg, -1, -2) + dg - np.einsum("...ijl->...lij", dg)
        gamma = 0.5 * np.einsum("...kl,...lij->...kij", ginv.value, S)
        if H is None:
            return Connection(gamma)

        def dgamma() -> np.ndarray:
            dS = np.swapaxes(H, -3, -2) + H
            dS -= np.einsum("...ijla->...lija", H)
            out = np.einsum("...kla,...lij->...kija", ginv.grad, S, optimize=True)
            out += np.einsum("...kl,...lija->...kija", ginv.value, dS, optimize=True)
            out *= 0.5
            return out

        return Connection(gamma, dgamma)

    def volume_density(self, points) -> np.ndarray:
        coords = self.seed(points, order=0)
        return np.sqrt(np.linalg.det(stack(self.metric(coords), coords).value))


@dataclass(frozen=True)
class InvariantFrameManifold:
    """Homogeneous backend: orthonormal invariant frame, constant structure.

    ``structure_constants[k, i, j]`` is the e_k component of [e_i, e_j].
    Only point-independent (constant-component) fields are meaningful here;
    the total Riemannian volume is supplied by the scenario.
    """

    dim: int
    structure_constants: np.ndarray
    volume: float
    name: str = "invariant"

    def __post_init__(self):
        c = np.asarray(self.structure_constants, dtype=float)
        object.__setattr__(self, "structure_constants", c)
        if c.shape != (self.dim, self.dim, self.dim):
            raise ValueError("structure constants must be (m, m, m)")
        if np.max(np.abs(c + np.swapaxes(c, 1, 2))) > 0.0:
            raise ValueError("structure constants must be antisymmetric in the lower pair")
        jac = np.einsum("lia,ajk->lijk", c, c)
        resid = jac + np.einsum("lja,aki->lijk", c, c) + np.einsum("lka,aij->lijk", c, c)
        if np.max(np.abs(resid)) > 1e-12:
            raise ValueError("structure constants violate the Jacobi identity")
        if self.volume <= 0:
            raise ValueError("volume must be positive")

    def seed(self, points, order: int = 2) -> list[Jet]:
        return jets.variables(points, order)

    def base_point(self) -> Point:
        return np.zeros(self.dim)

    def random_points(self, rng: np.random.Generator, size=()) -> np.ndarray:
        if isinstance(size, int):
            size = (size,)
        return np.zeros(size + (self.dim,))

    def metric_jets(self, coords):
        return jets.mat_identity(self.dim)

    def gamma_jets(self, coords, g) -> Connection:
        c = self.structure_constants
        # Koszul on an orthonormal invariant frame, indices lowered trivially.
        gamma = 0.5 * (c - np.einsum("ijk->kij", c) + np.einsum("jki->kij", c))
        return Connection(gamma, np.zeros(gamma.shape + (self.dim,)))

    def volume_density(self, points) -> np.ndarray:
        return np.ones(np.asarray(points, dtype=float).shape[:-1])


Manifold = ChartManifold | InvariantFrameManifold


# -- covariant calculus on tensor jets -----------------------------------------


def differential(gamma: Connection, W: Jet, frame: bool = False) -> Jet:
    """Covariant derivative of a vector field W in every direction, the direction last.

    ``(∇_i W)^k = ∂_i W^k + Γ^k_ij W^j``, known to one order less than W, so
    ∂Γ enters only when W carries a Hessian.  A ``frame`` W of shape
    (..., a, m) gives (..., a, k, i).
    """
    spec = "...kij,...aj->...aki" if frame else "...kij,...j->...ki"
    return W.d() + einsum(spec, gamma.jet(W.order - 1), W)


def lie_bracket(manifold, X: Jet, Y: Jet) -> Jet:
    """[X, Y] components, including the anholonomic frame term."""
    out = einsum("...i,...ki->...k", X, Y.d()) - einsum("...i,...ki->...k", Y, X.d())
    c = manifold.structure_constants
    if np.any(c):
        out = out + einsum("kij,...i,...j->...k", c, X, Y)
    return out


def riemann_jets(manifold, gamma: Connection) -> np.ndarray:
    """Curvature components R[..., l, k, i, j] from the connection arrays."""
    G, dG = gamma.gamma, gamma.dgamma
    if dG is None:
        raise ValueError("the Riemann tensor needs seeds of order 2")
    # A[l, k, i, j] = d_i gamma[l, j, k] + gamma[a, j, k] gamma[l, i, a]; R antisymmetrizes it in (i, j).
    A = np.einsum("...ljki->...lkij", dG) + np.einsum("...ajk,...lia->...lkij", G, G, optimize=True)
    R = A - np.swapaxes(A, -1, -2)
    c = manifold.structure_constants
    if np.any(c):  # a coordinate frame (every chart) has no bracket term
        R -= np.einsum("aij,...lak->...lkij", c, G)
    return R


def divergence_jets(manifold, coords, gamma: Connection, X) -> np.ndarray:
    """Full divergence: trace of the covariant derivative of the field X (a list or a jet)."""
    W = stack(X, coords)
    d = np.arange(len(coords))
    return traced_divergence(gamma.gamma[..., d, d, :], W.value, W.grad[..., d, d])


def traced_divergence(gamma_kk: np.ndarray, value: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Div X from the diagonal of ∇X alone: ∂_k X^k + Γ^k_{kj} X^j, traced.

    ``value[..., k]`` is X^k and ``diag[..., k]`` is ∂_k X^k, all the field
    this reads, and ``gamma_kk[..., k, j]`` is Γ^k_{kj}, with the batch
    axes or without them.  The diagonal is set on a zero matrix and traced
    with ``np.einsum("...kk->...")``, so it sums in the order a trace of the
    whole :func:`differential` would, bit for bit.
    """
    d = np.arange(value.shape[-1])
    nabla = np.zeros(value.shape + (d.size,))
    nabla[..., d, d] = diag + np.einsum("...kj,...j->...k", gamma_kk, value)
    return np.einsum("...kk->...", nabla)

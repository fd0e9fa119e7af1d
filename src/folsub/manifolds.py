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

Jets end at the metric: ``gamma_jets`` stacks the metric jets once into
value, gradient and Hessian arrays with a batch axis and returns a
:class:`Connection` holding the Christoffel symbols as an array; their
derivatives ∂Γ are contracted from the same stacked arrays the first time
something reads them, so value-only consumers never form them.
``riemann_jets`` contracts Γ and ∂Γ into the Riemann tensor with
``einsum``.  Covariant derivatives of jet-valued fields (``nabla``,
``divergence_jets``) read a jet view of the same arrays, truncated to the
order the caller's fields can use: values only for fields known to first
order, values and ∂Γ for fields known to second order.  Index conventions:
``gamma[..., k, i, j]`` multiplies direction i and argument j, and the
curvature components satisfy ``(R(X, Y)V)^l = R[..., l, k, i, j] V^k X^i Y^j``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import jets
from .errors import EvaluationError
from .jets import Jet, d_of, jet_view, mat_inverse, stack_jets, stack_values, value_of

Point = np.ndarray


@dataclass(frozen=True)
class TangentVector:
    """Components in the backend basis at a base point."""

    components: np.ndarray
    base: Point


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
        self.order = 0 if dgamma is None else 1
        self._dgamma = dgamma
        self._views: dict[int, list] = {}

    @cached_property
    def dgamma(self) -> np.ndarray | None:
        make = self._dgamma
        value = make() if callable(make) else make
        self._dgamma = None  # release the stacked metric arrays the builder holds
        return value

    def entries(self, order: int = 1) -> list:
        """Jet view ``entries[k][i][j]`` of Γ truncated to ``order``, for the jet-valued nabla.

        Order 0 holds values only; order 1 (when the connection has it) adds ∂Γ.
        """
        order = max(0, min(order, self.order))
        if order not in self._views:
            self._views[order] = jet_view(self.gamma, self.dgamma if order else None, 3)
        return self._views[order]


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

    def wrap(self, points) -> np.ndarray:
        return np.mod(np.asarray(points, dtype=float), np.asarray(self.periods))

    def base_point(self) -> Point:
        return np.zeros(self.dim)

    def random_points(self, rng: np.random.Generator, size=()) -> np.ndarray:
        if isinstance(size, int):
            size = (size,)
        return rng.uniform(0.0, 1.0, size + (self.dim,)) * np.asarray(self.periods)

    def metric_jets(self, coords):
        return self.metric(coords)

    def gamma_jets(self, coords, g=None) -> Connection:
        if g is None:
            g = self.metric(coords)
        order = min(coords[0].order, 2)
        if order < 1:
            raise ValueError("connection coefficients need seeds of order >= 1")
        batch = coords[0].value.shape
        gv, dg, *hess = stack_jets(g, batch, self.dim, order)
        # The inverse metric and, with a Hessian, its gradient come from jets, so both
        # are bit-identical to a jet evaluation of the whole formula.  One solve gives
        # both: solving again for the gradient alone would repeat every value operation.
        ginv, *dginv = stack_jets(mat_inverse(jet_view(gv, dg if hess else None, 2)), batch, self.dim, order - 1)
        # S[l, i, j] = d_i g[l, j] + d_j g[l, i] - d_l g[i, j]; dg[..., p, q, r] = d_r g[p, q]
        S = np.swapaxes(dg, -1, -2) + dg - np.einsum("...ijl->...lij", dg)
        gamma = 0.5 * np.einsum("...kl,...lij->...kij", ginv, S)
        if not hess:
            return Connection(gamma)

        def dgamma() -> np.ndarray:
            H = hess[0]
            dS = np.swapaxes(H, -3, -2) + H
            dS -= np.einsum("...ijla->...lija", H)
            out = np.einsum("...kla,...lij->...kija", dginv[0], S)
            out += np.einsum("...kl,...lija->...kija", ginv, dS)
            out *= 0.5
            return out

        return Connection(gamma, dgamma)

    def volume_density(self, points) -> np.ndarray:
        coords = self.seed(points, order=0)
        g = self.metric(coords)
        batch = np.asarray(points, dtype=float).shape[:-1]
        rows = [stack_values(row, batch) for row in g]
        gval = np.stack(rows, axis=-2)
        return np.sqrt(np.linalg.det(gval))


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

    def wrap(self, points) -> np.ndarray:
        return np.asarray(points, dtype=float)

    def base_point(self) -> Point:
        return np.zeros(self.dim)

    def random_points(self, rng: np.random.Generator, size=()) -> np.ndarray:
        if isinstance(size, int):
            size = (size,)
        return np.zeros(size + (self.dim,))

    def metric_jets(self, coords):
        return jets.mat_identity(self.dim)

    def gamma_jets(self, coords, g=None) -> Connection:
        c = self.structure_constants
        # Koszul on an orthonormal invariant frame, indices lowered trivially.
        gamma = 0.5 * (c - np.einsum("ijk->kij", c) + np.einsum("jki->kij", c))
        return Connection(gamma, np.zeros(gamma.shape + (self.dim,)))

    def volume_density(self, points) -> np.ndarray:
        return np.ones(np.asarray(points, dtype=float).shape[:-1])


Manifold = ChartManifold | InvariantFrameManifold


# -- connection-level helpers over component lists ---------------------------


def nabla_dir(manifold, gamma: Connection, comps, i: int, order: int = 1):
    """Covariant derivative of a vector field in frame direction i, with Γ truncated to ``order``."""
    m = manifold.dim
    G = gamma.entries(order)
    return [d_of(comps[k], i) + sum(G[k][i][j] * comps[j] for j in range(m)) for k in range(m)]


def nabla(manifold, gamma, Xc, Wc, order: int = 1):
    """Covariant derivative of the field W along the vector X (components).

    Γ enters truncated to ``order``: a field known to order k has a
    covariant derivative known to order k - 1 at most, so a caller that
    carries its fields to order k passes k - 1 and no ∂Γ is formed for
    value-only results.
    """
    m = manifold.dim
    out = [0.0] * m
    for i in range(m):
        Di = nabla_dir(manifold, gamma, Wc, i, order)
        out = [out[k] + Xc[i] * Di[k] for k in range(m)]
    return out


def lie_bracket(manifold, Xc, Yc):
    """[X, Y] components, including the anholonomic frame term."""
    m = manifold.dim
    c = manifold.structure_constants
    out = []
    for k in range(m):
        acc = 0.0
        for i in range(m):
            acc = acc + Xc[i] * d_of(Yc[k], i) - Yc[i] * d_of(Xc[k], i)
        for i in range(m):
            for j in range(m):
                cij = c[k, i, j]
                if cij != 0.0:
                    acc = acc + cij * Xc[i] * Yc[j]
        out.append(acc)
    return out


def riemann_jets(manifold, coords, gamma: Connection | None = None) -> np.ndarray:
    """Curvature components R[..., l, k, i, j] from the connection arrays."""
    if gamma is None:
        gamma = manifold.gamma_jets(coords)
    G, dG = gamma.gamma, gamma.dgamma
    if dG is None:
        raise ValueError("the Riemann tensor needs seeds of order 2")
    # A[l, k, i, j] = d_i gamma[l, j, k] + gamma[a, j, k] gamma[l, i, a]; R antisymmetrizes it in (i, j).
    A = np.einsum("...ljki->...lkij", dG) + np.einsum("...ajk,...lia->...lkij", G, G)
    R = A - np.swapaxes(A, -1, -2)
    c = manifold.structure_constants
    if np.any(c):  # a coordinate frame (every chart) has no bracket term
        R -= np.einsum("aij,...lak->...lkij", c, G)
    return R


def divergence_jets(manifold, coords, gamma, Xc):
    """Full divergence: trace of the covariant derivative of X."""
    return sum(nabla_dir(manifold, gamma, Xc, k)[k] for k in range(manifold.dim))


def coordinate_field(i: int, m: int):
    return lambda coords: [1.0 if k == i else 0.0 for k in range(m)]


def constant_field(comps):
    vals = [float(c) for c in np.asarray(comps, dtype=float)]
    return lambda coords: list(vals)


# -- public operations --------------------------------------------------------


def metric_at(manifold, p: Point) -> np.ndarray:
    """Metric matrix at p; symmetric positive definite by contract."""
    p = np.asarray(p, dtype=float)
    m = manifold.dim
    g = stack_jets(manifold.metric_jets(manifold.seed(p, order=0)), p.shape[:-1], m, 0)[0]
    bad = np.argwhere(~np.isfinite(g.reshape(-1, m, m)).all(axis=0))
    if bad.size:
        i, j = bad[0]
        raise EvaluationError(f"metric coefficient g[{i}][{j}] is non-finite at {p!r}")
    return g


def christoffel(manifold, p: Point) -> np.ndarray:
    """Connection coefficients gamma[k, i, j] at p."""
    p = np.asarray(p, dtype=float)
    gamma = manifold.gamma_jets(manifold.seed(p, order=1)).gamma
    return np.broadcast_to(gamma, p.shape[:-1] + gamma.shape[-3:])


def covariant_derivative(manifold, X_field, Y_field, p: Point) -> TangentVector:
    """(nabla_X Y) at p for field evaluators X, Y."""
    p = np.asarray(p, dtype=float)
    coords = manifold.seed(p, order=1)
    gamma = manifold.gamma_jets(coords)
    comps = nabla(manifold, gamma, X_field(coords), Y_field(coords))
    return TangentVector(stack_values(comps, p.shape[:-1]), p)


def riemann_tensor(manifold, p: Point) -> np.ndarray:
    """Curvature components R[l, k, i, j] at p."""
    p = np.asarray(p, dtype=float)
    R = riemann_jets(manifold, manifold.seed(p, order=2))
    return np.broadcast_to(R, p.shape[:-1] + R.shape[-4:])


def _components(v, p) -> np.ndarray:
    if isinstance(v, TangentVector):
        return np.asarray(v.components, dtype=float)
    return np.asarray(v, dtype=float)


def riemann(manifold, X, Y, V, p: Point) -> TangentVector:
    """R(X, Y)V at p for pointwise argument vectors."""
    p = np.asarray(p, dtype=float)
    R = riemann_tensor(manifold, p)
    comps = np.einsum(
        "...lkij,...k,...i,...j->...l", R, _components(V, p), _components(X, p), _components(Y, p)
    )
    return TangentVector(comps, p)


def divergence(manifold, X_field, p: Point):
    """Full divergence of the field X at p (trace of nabla X)."""
    p = np.asarray(p, dtype=float)
    coords = manifold.seed(p, order=1)
    gamma = manifold.gamma_jets(coords)
    return value_of(divergence_jets(manifold, coords, gamma, X_field(coords)))

"""Quadrature over closed scenario manifolds and their coordinate leaves.

On periodic chart backends the rule is the product trapezoid rule, which on
a circle collapses to equally weighted nodes and is spectrally accurate for
smooth periodic integrands.  Homogeneous invariant-frame backends integrate
with a single node carrying the declared total volume.  Reductions use
``math.fsum`` over samples collected in grid order, so results are exact to
one rounding and independent of any evaluation chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, UnsupportedLeafError
from .jets import stack
from .manifolds import InvariantFrameManifold

CHUNK = 4096


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes (K, m), coordinate weights (K,), and per-axis counts."""

    nodes: np.ndarray
    weights: np.ndarray
    axes: tuple[int, ...]

    @property
    def count(self) -> int:
        return self.nodes.shape[0]


def grid_for(manifold, axes=None) -> QuadratureGrid:
    """Product grid for a chart backend; single weighted node for invariant ones."""
    if isinstance(manifold, InvariantFrameManifold):
        node = manifold.base_point()[None, :]
        return QuadratureGrid(node, np.array([manifold.volume]), (1,))
    if axes is None:
        raise ValueError("chart backends need per-axis node counts")
    axes = tuple(int(k) for k in axes)
    if len(axes) != manifold.dim or any(k < 1 for k in axes):
        raise ValueError("need a positive node count per axis")
    lines = [np.arange(k) * (L / k) for k, L in zip(axes, manifold.periods)]
    mesh = np.meshgrid(*lines, indexing="ij")
    nodes = np.stack([mm.ravel() for mm in mesh], axis=-1)
    w = float(np.prod([L / k for k, L in zip(axes, manifold.periods)]))
    return QuadratureGrid(nodes, np.full(nodes.shape[0], w), axes)


def refined(manifold, grid: QuadratureGrid) -> QuadratureGrid:
    """The same grid with every axis count doubled."""
    if isinstance(manifold, InvariantFrameManifold):
        return grid
    return grid_for(manifold, tuple(2 * k for k in grid.axes))


def leaf_grid(manifold, leaf, axes=None) -> QuadratureGrid:
    """Grid over a closed coordinate leaf (chart) or its single node (invariant)."""
    if isinstance(manifold, InvariantFrameManifold):
        if leaf.volume is None:
            raise UnsupportedLeafError("invariant-frame leaf needs a declared volume")
        node = manifold.base_point()[None, :]
        return QuadratureGrid(node, np.array([leaf.volume]), (1,))
    if axes is None:
        raise ValueError("chart leaves need per-axis node counts")
    counts = {ax: int(k) for ax, k in zip(leaf.axes, axes)}
    lines = []
    for ax in range(manifold.dim):
        if ax in leaf.fixed:
            lines.append(np.array([leaf.fixed[ax]]))
        else:
            k = counts[ax]
            lines.append(np.arange(k) * (manifold.periods[ax] / k))
    mesh = np.meshgrid(*lines, indexing="ij")
    nodes = np.stack([mm.ravel() for mm in mesh], axis=-1)
    w = float(np.prod([manifold.periods[ax] / counts[ax] for ax in leaf.axes]))
    return QuadratureGrid(nodes, np.full(nodes.shape[0], w), tuple(counts[ax] for ax in leaf.axes))


def leaf_density(manifold, leaf, points) -> np.ndarray:
    """Volume density of the induced metric on a coordinate leaf."""
    if isinstance(manifold, InvariantFrameManifold):
        return np.ones(np.asarray(points).shape[:-1])
    coords = manifold.seed(points, order=0)
    g = stack(manifold.metric_jets(coords), coords).value
    axes = list(leaf.axes)
    return np.sqrt(np.linalg.det(g[..., axes, :][..., axes]))


def integrate_terms(manifold, terms, grid: QuadratureGrid, density=None) -> dict:
    """Integrals of a dict of point functions, evaluated together per chunk.

    ``terms`` maps an (K, m) block of points to a dict of (K,) sample arrays
    (or scalars).  The density defaults to sqrt(det g); pass
    :func:`leaf_density` bound to a leaf for leaf integrals.  Each key's
    samples are accumulated in grid order and reduced with ``fsum`` for a
    deterministic, chunking-independent result.  A non-finite sample of any
    key raises :class:`EvaluationError`; a key may be a ``(check, term)``
    pair, so that the error names both.
    """
    samples: dict[object, list[float]] = {}
    for start in range(0, grid.count, CHUNK):
        pts = grid.nodes[start : start + CHUNK]
        w = grid.weights[start : start + CHUNK]
        dens = manifold.volume_density(pts) if density is None else density(pts)
        for key, vals in terms(pts).items():
            block = (np.asarray(vals, dtype=float) + np.zeros(pts.shape[0])) * dens * w
            if not np.all(np.isfinite(block)):
                bad = pts[~np.isfinite(block)][0]
                term, where = (key[1], f" of {key[0]}") if isinstance(key, tuple) else (key, "")
                raise EvaluationError(f"non-finite {term} sample{where} at point {bad!r}")
            samples.setdefault(key, []).extend(block.tolist())
    return {key: math.fsum(vals) for key, vals in samples.items()}


def integrate(manifold, field, grid: QuadratureGrid, density=None) -> float:
    """Integral of a scalar point function against the Riemannian volume.

    ``field`` maps an (K, m) block of points to (K,) sample values; this is
    the single-term form of :func:`integrate_terms`.
    """
    return integrate_terms(manifold, lambda pts: {"integrand": field(pts)}, grid, density)["integrand"]


def total_volume(manifold, grid: QuadratureGrid) -> float:
    return integrate(manifold, lambda pts: np.ones(pts.shape[0]), grid)

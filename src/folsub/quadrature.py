"""Quadrature over closed scenario manifolds and their coordinate leaves.

On periodic chart backends the rule is the product trapezoid rule, which on
a circle collapses to equally weighted nodes and is spectrally accurate for
smooth periodic integrands.  Homogeneous invariant-frame backends integrate
with a single node carrying the declared total volume.  Reductions use
``math.fsum`` over samples collected in grid order, so results are exact to
one rounding and independent of any evaluation chunking.

The weights here are coordinate weights only; the density is the caller's.
:func:`integrate` takes the manifold's volume density by default, and the
grid passes (``verify._grid_pass``) weight their own samples by the volume
density of the metric their geometry already holds, over the axes they
integrate over: every axis of M, or a leaf's axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import EvaluationError, UnsupportedLeafError
from .manifolds import InvariantFrameManifold

CHUNK = 4096


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes (K, m), coordinate weights (K,), and per-axis counts.

    ``nodes`` and ``weights`` are read-only copies of the arrays given, so
    values computed from them stay valid while the grid lives.  ``plans``
    holds those values: the evaluation plans that the grid passes attach, one
    per (foliation, order) (:func:`verify.grid_plan`), which die with the grid.
    A plan groups the distinct nodes of the whole grid, so it serves a pass
    under any ``CHUNK``.
    """

    nodes: np.ndarray
    weights: np.ndarray
    axes: tuple[int, ...]
    plans: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("nodes", "weights"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def count(self) -> int:
        return self.nodes.shape[0]


def chunks(grid: QuadratureGrid):
    """The grid's ``(nodes, weights)`` in consecutive blocks of ``CHUNK`` nodes, in grid order."""
    for start in range(0, grid.count, CHUNK):
        yield grid.nodes[start : start + CHUNK], grid.weights[start : start + CHUNK]


def _single_node(manifold, weight: float) -> QuadratureGrid:
    """The base point alone, carrying ``weight``: the rule of a homogeneous backend."""
    return QuadratureGrid(manifold.base_point()[None, :], np.array([weight]), (1,))


def _product_grid(manifold, counts: dict, fixed: dict) -> QuadratureGrid:
    """Trapezoid product grid: ``counts[ax]`` equally spaced nodes on each free axis, ``fixed[ax]`` on the rest."""
    lines = [
        np.array([fixed[ax]]) if ax in fixed else np.arange(counts[ax]) * (L / counts[ax])
        for ax, L in enumerate(manifold.periods)
    ]
    mesh = np.meshgrid(*lines, indexing="ij")
    nodes = np.stack([mm.ravel() for mm in mesh], axis=-1)
    w = float(np.prod([manifold.periods[ax] / k for ax, k in counts.items()]))
    return QuadratureGrid(nodes, np.full(nodes.shape[0], w), tuple(counts.values()))


def grid_for(manifold, axes=None) -> QuadratureGrid:
    """Product grid for a chart backend; single weighted node for invariant ones, whatever ``axes``."""
    if isinstance(manifold, InvariantFrameManifold):
        return _single_node(manifold, manifold.volume)
    if axes is None:
        raise ValueError("chart backends need per-axis node counts")
    return _product_grid(manifold, dict(enumerate(_counts(axes, manifold.dim))), {})


def _counts(axes, k: int) -> tuple[int, ...]:
    """``axes`` as ``k`` positive node counts; raises ``ValueError`` otherwise."""
    axes = tuple(int(a) for a in axes)
    if len(axes) != k or any(a < 1 for a in axes):
        raise ValueError("need a positive node count per axis")
    return axes


def refined(manifold, grid: QuadratureGrid) -> QuadratureGrid:
    """The same grid with every axis count doubled; the invariant single node is its own refinement."""
    return grid_for(manifold, tuple(2 * k for k in grid.axes))


def leaf_grid(manifold, leaf, axes=None) -> QuadratureGrid:
    """Grid over a closed coordinate leaf (chart) or its single node (invariant, whatever ``axes``)."""
    if isinstance(manifold, InvariantFrameManifold):
        if leaf.volume is None:
            raise UnsupportedLeafError("invariant-frame leaf needs a declared volume")
        return _single_node(manifold, leaf.volume)
    if axes is None:
        raise ValueError("chart leaves need per-axis node counts")
    return _product_grid(manifold, dict(zip(leaf.axes, _counts(axes, len(leaf.axes)))), leaf.fixed)


def integrate_terms(terms, grid: QuadratureGrid, density=None) -> dict:
    """Integrals of a dict of point functions, evaluated together per chunk.

    ``terms`` maps an (K, m) block of points to a dict of (K,) sample arrays
    (or scalars), already carrying any density the caller weights them by;
    a ``density``, when given, maps the block to the factor it is
    multiplied by.  Each key's samples, times the coordinate weights, are
    kept as float64 blocks in grid order and reduced with one ``fsum``,
    correctly rounded, so the result is deterministic and independent of the
    chunking.  A non-finite sample of any key raises
    :class:`EvaluationError` (:func:`require_finite`); a ``(check, term)``
    key names both.
    """
    blocks: dict[object, list[np.ndarray]] = {}
    for pts, w in chunks(grid):
        dens = None if density is None else density(pts)
        for key, vals in terms(pts).items():
            block = np.asarray(vals, dtype=float) + np.zeros(pts.shape[0])
            block = (block if dens is None else block * dens) * w
            require_finite(key, block, pts)
            blocks.setdefault(key, []).append(block)
    return {key: math.fsum(chain.from_iterable(b.tolist() for b in parts)) for key, parts in blocks.items()}


def require_finite(key, vals: np.ndarray, pts: np.ndarray) -> None:
    """Raise :class:`EvaluationError` at the first non-finite sample in ``vals``, named by ``key``."""
    if not np.all(np.isfinite(vals)):
        bad = pts[~np.isfinite(vals)][0]
        term, where = (key[1], f" of {key[0]}") if isinstance(key, tuple) else (key, "")
        raise EvaluationError(f"non-finite {term} sample{where} at point {bad!r}")


def integrate(manifold, field, grid: QuadratureGrid, density=None) -> float:
    """Integral of a scalar point function against ``density``, by default the Riemannian volume.

    ``field`` maps an (K, m) block of points to (K,) sample values; this is
    the single-term form of :func:`integrate_terms`, with the density
    ``manifold.volume_density`` unless one is given.
    """
    density = manifold.volume_density if density is None else density
    return integrate_terms(lambda pts: {"integrand": field(pts)}, grid, density)["integrand"]


def total_volume(manifold, grid: QuadratureGrid) -> float:
    return integrate(manifold, lambda pts: np.ones(pts.shape[0]), grid)

"""Quadrature over closed scenario manifolds and their coordinate leaves.

On periodic chart backends the rule is the product trapezoid rule, which on
a circle collapses to equally weighted nodes and is spectrally accurate for
smooth periodic integrands.  Homogeneous invariant-frame backends integrate
with a single node carrying the declared total volume.  Every reduction is
exact to one rounding and independent of any evaluation chunking: each
weighted sample enters an exact integer sum once per node it stands for,
once for a per-node sample and ``count`` times for one that stands for a
group of nodes (:class:`Grouped`), so the result is ``math.fsum`` over the
per-node samples bit for bit.

The weights here are coordinate weights only; the density is the caller's.
:func:`integrate` takes the manifold's volume density by default, and the
grid passes (``verify._grid_pass``) weight their own samples by the volume
density of the metric their geometry already holds, over the axes they
integrate over: every axis of M, or a leaf's axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, UnsupportedLeafError
from .manifolds import InvariantFrameManifold

CHUNK = 4096
# Every finite double is an integer multiple of 2**-1074, the least subnormal.
_SCALE = 1 << 1074


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes (K, m), coordinate weights (K,), and per-axis counts.

    ``nodes`` and ``weights`` are read-only copies of the arrays given, so
    values computed from them stay valid while the grid lives; the grids
    this module builds hold their own arrays, read-only, uncopied
    (:func:`_owning`).  ``plans``
    holds those values: the evaluation plans that the grid passes attach, one
    per foliation (:func:`verify.grid_plan`), which die with the grid.  A
    plan groups the distinct nodes of the whole grid, split by weight only
    where the weights differ, so it serves a pass under any ``CHUNK``.
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

    @classmethod
    def _owning(cls, nodes: np.ndarray, weights: np.ndarray, axes: tuple[int, ...]) -> QuadratureGrid:
        """A grid over float arrays just built and referenced nowhere else: made read-only, not copied."""
        grid = cls.__new__(cls)
        nodes.flags.writeable = weights.flags.writeable = False
        for name, value in (("nodes", nodes), ("weights", weights), ("axes", axes), ("plans", [])):
            object.__setattr__(grid, name, value)
        return grid

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
    """Trapezoid product grid: ``counts[ax]`` equally spaced nodes on each free axis, ``fixed[ax]`` on the rest.

    The nodes run in C order over the axes, the last fastest.  Each axis
    line is broadcast into its column of one (K, m) array, which the grid
    then holds without a copy.
    """
    lines = [
        np.array([fixed[ax]]) if ax in fixed else np.arange(counts[ax]) * (L / counts[ax])
        for ax, L in enumerate(manifold.periods)
    ]
    m = len(lines)
    nodes = np.empty(tuple(line.size for line in lines) + (m,))
    for ax, line in enumerate(lines):
        nodes[..., ax] = line.reshape([-1 if a == ax else 1 for a in range(m)])
    nodes = nodes.reshape(-1, m)
    w = float(np.prod([manifold.periods[ax] / k for ax, k in counts.items()]))
    return QuadratureGrid._owning(nodes, np.full(nodes.shape[0], w), tuple(counts.values()))


def grid_for(manifold, axes=None) -> QuadratureGrid:
    """Product grid for a chart backend; single weighted node for invariant ones, whatever ``axes``."""
    if isinstance(manifold, InvariantFrameManifold):
        return _single_node(manifold, manifold.volume)
    return _product_grid(manifold, dict(enumerate(_counts(axes, manifold.dim))), {})


def _counts(axes, k: int) -> tuple[int, ...]:
    """``axes`` as ``k`` node counts, integers >= 1 (:func:`is_int`), never rounded; raises ``ValueError`` otherwise, None included."""
    axes = () if axes is None else tuple(axes)
    if len(axes) != k or not all(is_int(a) and a >= 1 for a in axes):
        raise ValueError("need a positive node count per axis")
    return tuple(map(int, axes))


def is_int(a) -> bool:
    """``a`` is an integer, numpy's included, and not a bool."""
    return isinstance(a, (int, np.integer)) and not isinstance(a, bool)


def refined(manifold, grid: QuadratureGrid) -> QuadratureGrid:
    """The same grid with every axis count doubled; the invariant single node is its own refinement."""
    return grid_for(manifold, tuple(2 * k for k in grid.axes))


def leaf_grid(manifold, leaf, axes=None) -> QuadratureGrid:
    """Grid over a closed coordinate leaf (chart) or its single node (invariant, whatever ``axes``)."""
    if isinstance(manifold, InvariantFrameManifold):
        if leaf.volume is None:
            raise UnsupportedLeafError("invariant-frame leaf needs a declared volume")
        return _single_node(manifold, leaf.volume)
    return _product_grid(manifold, dict(zip(leaf.axes, _counts(axes, len(leaf.axes)))), leaf.fixed)


@dataclass(frozen=True)
class Grouped:
    """Samples that each stand for several grid nodes: a term's value on a group of equal nodes.

    ``values[i]`` is the sample at ``counts[i]`` nodes that share the weight
    of node ``first[i]``, their first in grid order, which also names them
    when the sample is not finite.  :func:`integrate_terms` sums it as it
    would sum those nodes' copies of it.
    """

    values: np.ndarray
    counts: np.ndarray
    first: np.ndarray


def integrate_terms(terms, grid: QuadratureGrid, density=None) -> dict:
    """Integrals of a dict of point functions, evaluated together per chunk.

    ``terms`` maps an (K, m) block of points to a dict of (K,) sample arrays
    (or scalars), or of :class:`Grouped` samples, each entry standing for
    its nodes wherever they lie in the grid.  A ``density``, when given,
    maps points to the factor the per-node samples are multiplied by;
    grouped samples must carry theirs already, and are refused with one.
    Each sample, times its coordinate weight, is added once per node it
    stands for into one exact integer sum per key (:func:`_scaled_sum`),
    rounded once at the end.  So the result is ``math.fsum`` over every
    node's weighted sample, deterministic, independent of the chunking, and
    the same bits whichever form carries the samples.  A non-finite sample
    of any key raises :class:`EvaluationError` (:func:`require_finite`)
    naming its first node in grid order; a ``(check, term)`` key names both.
    So does a sum too large for a float.
    """
    sums: dict[object, int] = {}
    for pts, w in chunks(grid):
        dens = None if density is None else density(pts)
        for key, vals in terms(pts).items():
            if isinstance(vals, Grouped):
                if density is not None:
                    raise ValueError(f"grouped {_named(key, 'samples')} take no density")
                x, counts = np.asarray(vals.values, dtype=float) * grid.weights[vals.first], vals.counts
                if not np.all(np.isfinite(x)):
                    order = np.argsort(vals.first, kind="stable")
                    require_finite(key, x[order], grid.nodes[vals.first[order]])
            else:
                x, counts = np.asarray(vals, dtype=float) + np.zeros(pts.shape[0]), 1
                x = (x if dens is None else x * dens) * w
                require_finite(key, x, pts)
            sums[key] = sums.get(key, 0) + _scaled_sum(x, counts)
    out = {}
    for key, total in sums.items():
        try:
            out[key] = total / _SCALE
        except OverflowError:
            raise EvaluationError(f"the sum of {_named(key, 'samples')} overflows") from None
    return out


def _scaled_sum(x: np.ndarray, counts) -> int:
    """The exact sum of ``counts[i]`` copies of each finite ``x[i]``, in units of 2**-1074.

    Each sample is an integer mantissa below 2**53 times a power of two.
    Split in three pieces below 2**18, each piece times its count is an
    integer below 2**49, and so is the sum of those of one exponent while
    the counts add up to less than 2**31, as those of any grid's nodes do:
    ``np.bincount`` adds them exactly in float64, with no sort, one bin per
    exponent from the least to the greatest.  The per-exponent sums meet in
    one Python integer.
    """
    if x.size == 0:
        return 0
    mant, exp = np.frexp(x)
    mant = (mant * 2.0**53).astype(np.int64)  # x = mant * 2**(exp - 53), exactly
    shift = exp.astype(np.int64) + (1074 - 53)
    mant >>= np.maximum(-shift, 0)  # a subnormal's low bits are zero
    shift = np.maximum(shift, 0)
    low = int(shift.min())
    shift -= low
    counts = np.asarray(counts, dtype=np.int64)
    parts = (mant & 0x3FFFF, mant >> 18 & 0x3FFFF, mant >> 36)
    pieces = [np.bincount(shift, part * counts).tolist() for part in parts]
    return sum((int(a) + (int(b) << 18) + (int(c) << 36)) << s for s, (a, b, c) in enumerate(zip(*pieces), low))


def require_finite(key, vals: np.ndarray, pts: np.ndarray) -> None:
    """Raise :class:`EvaluationError` at the first non-finite sample in ``vals``, named by ``key``."""
    if not np.all(np.isfinite(vals)):
        bad = pts[~np.isfinite(vals)][0]
        raise EvaluationError(f"non-finite {_named(key, 'sample')} at point {bad!r}")


def _named(key, what: str) -> str:
    """``what`` of a sample key as errors name it: after its term, and before its check if it has one."""
    return f"{key[1]} {what} of {key[0]}" if isinstance(key, tuple) else f"{key} {what}"


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

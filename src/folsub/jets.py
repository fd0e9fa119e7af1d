"""Second-order forward jets, scalar or tensor-valued, and their contractions.

A :class:`Jet` carries the value, gradient and Hessian of a quantity with
respect to the coordinates (or frame directions) of a manifold point.
Arithmetic propagates derivatives exactly to rounding, so connection and
curvature formulas built from jets carry no finite-difference truncation.
Finite differences appear in this package only as a test oracle.

A jet is elementwise over an arbitrary value shape: a tensor field sampled
on K grid points stores value ``(K, *shape)``, grad ``(K, *shape, m)`` and
hess ``(K, *shape, m, m)``.  Plain numbers and ndarrays mix freely with
jets and are treated as constants.  Differentiating a jet drops its order
by one; an order-0 jet is a bare value.

The user's closures (the metric, the frames, test fields) are written over
the scalar coordinate seeds of :func:`variables` and return nested lists of
jets and constants.  :func:`stack` turns such a list into one tensor jet
(:func:`stack_last` does the same for a flat list of scalar jets, arrays or
numbers, such as the power sums), and from there every derived quantity
(the Christoffel symbols, covariant derivatives, the shape operator, Z, the
symmetric functions and the Newton transformations) is contracted with
:func:`einsum`, which applies the product rule to each jet operand at the
lowest order among them.  :func:`opt_einsum` is ``np.einsum`` with an
optimized contraction path that is planned once per spec and operand shapes.
:func:`mat_inverse` is the metric solve on those arrays.

The nested-list helpers at the bottom (``mat_identity``, ``mat_mul``,
``mat_trace``) serve the scalar reference chain in ``newton``, which the
tests hold the array path to.
"""

from __future__ import annotations

import string
from typing import Callable

import numpy as np

from .errors import LinearSolveError

# The step kernels ``np.einsum(..., optimize=True)`` runs its contraction list
# with; without them :func:`opt_einsum` calls ``np.einsum``.
try:
    from numpy._core.einsumfunc import bmm_einsum, c_einsum
except ImportError:
    bmm_einsum = c_einsum = None


class Jet:
    """Truncated Taylor data (value, gradient, Hessian), elementwise over the value's shape."""

    __slots__ = ("value", "grad", "hess")
    # ``ndarray <op> Jet`` defers to the jet's reflected operator instead of
    # building an object array.
    __array_ufunc__ = None

    def __init__(self, value, grad=None, hess=None):
        self.value = np.asarray(value, dtype=float)
        self.grad = None if grad is None else np.asarray(grad, dtype=float)
        self.hess = None if hess is None else np.asarray(hess, dtype=float)

    @property
    def order(self) -> int:
        if self.hess is not None:
            return 2
        if self.grad is not None:
            return 1
        return 0

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def d(self) -> "Jet":
        """Every partial derivative along a new last axis (``x.d()[..., i]`` is ∂_i x), one order less."""
        if self.grad is None:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(self.grad, self.hess)

    def at_order(self, order: int) -> "Jet":
        """The same jet without the derivatives above ``order``; the arrays are shared."""
        return Jet(self.value, self.grad if order >= 1 else None, self.hess if order >= 2 else None)

    def __getitem__(self, idx) -> "Jet":
        """Index the trailing (tensor) axes of the value, as ``value[..., *idx]`` would."""
        idx = idx if isinstance(idx, tuple) else (idx,)
        key = (Ellipsis,) + (idx[1:] if idx and idx[0] is Ellipsis else idx)
        tail = (slice(None),)
        return Jet(
            self.value[key],
            None if self.grad is None else self.grad[key + tail],
            None if self.hess is None else self.hess[key + tail * 2],
        )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            o = min(self.order, other.order)
            return Jet(
                self.value + other.value,
                self.grad + other.grad if o >= 1 else None,
                self.hess + other.hess if o >= 2 else None,
            )
        return Jet(self.value + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet(
            -self.value,
            None if self.grad is None else -self.grad,
            None if self.hess is None else -self.hess,
        )

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other, dtype=float))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            o = min(self.order, other.order)
            v = self.value * other.value
            g = h = None
            if o >= 1:
                g = self.value[..., None] * other.grad + other.value[..., None] * self.grad
            if o >= 2:
                cross = self.grad[..., :, None] * other.grad[..., None, :]
                h = (
                    self.value[..., None, None] * other.hess
                    + other.value[..., None, None] * self.hess
                    + cross
                    + np.swapaxes(cross, -1, -2)
                )
            return Jet(v, g, h)
        c = np.asarray(other, dtype=float)
        return Jet(
            self.value * c,
            None if self.grad is None else self.grad * c[..., None],
            None if self.hess is None else self.hess * c[..., None, None],
        )

    __rmul__ = __mul__

    def _reciprocal(self) -> "Jet":
        return lift(self, lambda v: 1.0 / v, lambda v: -1.0 / v**2, lambda v: 2.0 / v**3)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        return self * (1.0 / np.asarray(other, dtype=float))

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("jets support nonnegative integer powers only")
        out = 1.0
        for _ in range(n):
            out = self * out
        return out

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Jet(order={self.order}, value={self.value!r})"


def lift(x, f: Callable, d1: Callable, d2: Callable):
    """Apply a smooth univariate function with known derivatives to ``x``.

    Works on jets (chain rule to second order) and on plain numbers/arrays,
    so closed-form profiles can be written once and evaluated either way.
    """
    if not isinstance(x, Jet):
        return f(x)
    v = f(x.value)
    if x.grad is None:
        return Jet(v)
    fp = d1(x.value)
    g = fp[..., None] * x.grad
    if x.hess is None:
        return Jet(v, g)
    fpp = d2(x.value)
    h = fp[..., None, None] * x.hess + fpp[..., None, None] * (
        x.grad[..., :, None] * x.grad[..., None, :]
    )
    return Jet(v, g, h)


def sin(x):
    return lift(x, np.sin, np.cos, lambda v: -np.sin(v))


def cos(x):
    return lift(x, np.cos, lambda v: -np.sin(v), lambda v: -np.cos(v))


def variables(points, order: int = 2) -> list[Jet]:
    """Seed coordinate jets at ``points`` of shape ``(..., m)``."""
    pts = np.asarray(points, dtype=float)
    m = pts.shape[-1]
    batch = pts.shape[:-1]
    out = []
    for i in range(m):
        g = h = None
        if order >= 1:
            g = np.zeros(batch + (m,))
            g[..., i] = 1.0
        if order >= 2:
            h = np.zeros(batch + (m, m))
        out.append(Jet(pts[..., i], g, h))
    return out


def value_of(x):
    """Bare value of a jet, or the input unchanged for plain numbers/arrays."""
    return x.value if isinstance(x, Jet) else x


def stack(entries, coords) -> Jet:
    """One tensor jet from a nested list of jets and constants evaluated on ``coords``.

    The value has shape ``batch + shape``, the gradient ``batch + shape +
    (m,)`` and the Hessian ``batch + shape + (m, m)``, where ``shape`` is the
    nesting shape of ``entries``; an empty list stacks as a ``(0, m)``
    frame.  Derivatives are kept up to the order of the seeds; constants, and
    derivatives an entry does not carry, are zero.  A jet is returned as it is.
    A ragged list raises ``ValueError`` naming the first entry whose length
    differs from the first entry's at its depth.
    """
    if isinstance(entries, Jet):
        return entries
    batch, m = coords[0].value.shape, len(coords)
    order = coords[0].order
    lengths = []
    probe = entries
    while isinstance(probe, (list, tuple)):
        lengths.append(len(probe))
        if not probe:
            break
        probe = probe[0]
    # Walk the nesting level by level against the first entries' lengths,
    # ending with every leaf and its index.
    level = [((), entries)]
    for depth, length in enumerate(lengths):
        for idx, x in level:
            if not isinstance(x, (list, tuple)) or len(x) != length:
                got = f"has length {len(x)}" if isinstance(x, (list, tuple)) else "is not a list"
                raise ValueError(f"ragged nested list: entry {list(idx)} {got}, entry {[0] * depth} has length {length}")
        level = [(idx + (i,), item) for idx, x in level for i, item in enumerate(x)]
    for idx, x in level:
        if isinstance(x, (list, tuple)):
            first = [0] * len(idx)
            raise ValueError(f"ragged nested list: entry {list(idx)} has length {len(x)}, entry {first} is not a list")
    shape = tuple(lengths) + ((m,) if lengths and lengths[-1] == 0 else ())
    out = [np.zeros(batch + shape + (m,) * k) for k in range(order + 1)]
    for idx, x in level:
        parts = (x.value, x.grad, x.hess) if isinstance(x, Jet) else (x,)
        for k, (arr, part) in enumerate(zip(out, parts)):
            if part is not None:
                arr[(Ellipsis,) + idx + (slice(None),) * k] = part
    return Jet(*out)


def stack_last(items):
    """Stack scalars (jets, ndarrays or numbers) along a new last value axis.

    Without a jet among the items this is ``np.stack`` of the broadcast
    items.  Otherwise the result carries the lowest order among the jets,
    and the derivatives of a constant item are zero.
    """
    value = np.stack(np.broadcast_arrays(*(value_of(x) for x in items)), axis=-1)
    jet_items = [x for x in items if isinstance(x, Jet)]
    if not jet_items:
        return value
    parts = [value]
    for k in range(1, min(x.order for x in jet_items) + 1):
        cols = [(x.grad, x.hess)[k - 1] if isinstance(x, Jet) else None for x in items]
        ref = next(c for c in cols if c is not None)
        cols = np.broadcast_arrays(*(np.zeros(ref.shape) if c is None else c for c in cols))
        parts.append(np.stack(cols, axis=-1 - k))
    return Jet(*parts)


# (spec, operand shapes) -> numpy's contraction list for them, as (operand positions, step spec) pairs.
_PLANS: dict = {}


def opt_einsum(spec: str, *operands) -> np.ndarray:
    """``np.einsum(spec, *operands, optimize=True)``, with the contraction path planned once per shape.

    ``np.einsum`` searches for a path on every call.  This looks numpy's
    contraction list up in a cache keyed by the spec and the operand shapes
    (so it stays bounded by the shapes a program contracts), and replays it
    with numpy's own step kernels, ``bmm_einsum`` for a two-operand step and
    ``c_einsum`` otherwise, so the result is bit-identical.  Where numpy
    lacks those kernels it calls ``np.einsum(..., optimize=True)``.
    """
    if bmm_einsum is None or c_einsum is None:
        return np.einsum(spec, *operands, optimize=True)
    ops = [np.asanyarray(x) for x in operands]
    key = (spec, *(x.shape for x in ops))
    steps = _PLANS.get(key)
    if steps is None:
        _, contractions = np.einsum_path(spec, *ops, optimize=True, einsum_call=True)
        steps = _PLANS[key] = [(positions, step) for positions, step, _ in contractions]
    for positions, step in steps:
        args = [ops.pop(i) for i in positions]
        ops.append(bmm_einsum(step, *args) if len(args) == 2 else c_einsum(step, *args))
    return ops[0]


def einsum(spec: str, *operands):
    """``np.einsum`` over jets and ndarrays, with the product rule for the jets.

    ``spec`` must name its output (``"...->..."``).  The result carries
    derivatives to the lowest order among the jet operands; the gradient
    and Hessian axes ride along after the output indices.  Without a jet
    operand this is ``np.einsum``.  Values are contracted by plain
    ``np.einsum``, so they sum in the order a scalar jet loop would on the
    catalog's sparse frames; derivative terms take numpy's optimized
    contraction path through :func:`opt_einsum`, which plans it once per
    spec and shapes; that is faster and moves only their last bits.
    """
    values = [value_of(x) for x in operands]
    value = np.einsum(spec, *values)
    jet_at = [k for k, x in enumerate(operands) if isinstance(x, Jet)]
    if not jet_at:
        return value
    order = min(operands[k].order for k in jet_at)
    inputs, output = spec.split("->")
    subs = inputs.split(",")
    a, b = [c for c in string.ascii_letters if c not in spec][:2]

    def term(replace: dict, extra: str) -> np.ndarray:
        ops = [replace[k][0] if k in replace else v for k, v in enumerate(values)]
        sub = [s + replace[k][1] if k in replace else s for k, s in enumerate(subs)]
        return opt_einsum(",".join(sub) + "->" + output + extra, *ops)

    grad = hess = None
    if order >= 1:
        grad = sum(term({k: (operands[k].grad, a)}, a) for k in jet_at)
    if order >= 2:
        hess = sum(term({k: (operands[k].hess, a + b)}, a + b) for k in jet_at)
        for i, j in ((i, j) for n, i in enumerate(jet_at) for j in jet_at[n + 1 :]):
            cross = term({i: (operands[i].grad, a), j: (operands[j].grad, b)}, a + b)
            hess = hess + cross + np.swapaxes(cross, -1, -2)
    return Jet(value, grad, hess)


def mat_inverse(A):
    """Gauss-Jordan inverse of a batch of matrices ``(..., n, n)``, a jet or an ndarray.

    The elimination runs on whole rows in the textbook order, so every entry
    sees the operations a scalar elimination would give it, derivatives
    included.  No pivoting: intended for symmetric positive definite metric
    matrices, where the unpivoted elimination is stable.
    """
    value = value_of(A)
    n = value.shape[-1]
    scale = max(float(np.max(np.abs(value))), 1.0)
    work = [A[..., i, :] for i in range(n)]
    inv = list(np.eye(n))
    for c in range(n):
        piv = work[c][..., c]
        if float(np.min(np.abs(value_of(piv)))) <= 1e-13 * scale:
            raise LinearSolveError(f"singular pivot in metric solve at column {c}")
        pinv = (1.0 / piv)[..., None]
        work[c] = work[c] * pinv
        inv[c] = inv[c] * pinv
        for r in range(n):
            if r == c:
                continue
            f = work[r][..., c, None]
            work[r] = work[r] - f * work[c]
            inv[r] = inv[r] - f * inv[c]
    if not isinstance(A, Jet):
        return np.stack(inv, axis=-2)
    parts = ([row.value for row in inv], [row.grad for row in inv], [row.hess for row in inv])
    return Jet(*(np.stack(p, axis=-2 - k) for k, p in enumerate(parts[: A.order + 1])))


# -- the scalar reference chain's nested-list matrices ------------------------


def mat_identity(n: int) -> list[list[float]]:
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, k, p = len(A), len(B), len(B[0])
    return [[sum(A[i][x] * B[x][j] for x in range(k)) for j in range(p)] for i in range(n)]


def mat_trace(A):
    return sum(A[i][i] for i in range(len(A)))

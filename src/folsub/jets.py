"""Second-order forward jets and small dense linear algebra over them.

A :class:`Jet` carries the value, gradient and Hessian of a scalar quantity
with respect to the coordinates (or frame directions) of a manifold point.
Arithmetic propagates derivatives exactly to rounding, so connection and
curvature formulas built from jets carry no finite-difference truncation.
Finite differences appear in this package only as a test oracle.

Values are numpy arrays with an arbitrary leading batch shape: a jet of a
field sampled on K grid points stores value ``(K,)``, grad ``(K, m)`` and
hess ``(K, m, m)``.  Plain numbers and ndarrays mix freely with jets and are
treated as constants.  Differentiating a jet drops its order by one; an
order-0 jet is a bare value.

Jets differentiate what the user writes as closures (the metric and the
frames) and the fields built from them (the shape operator, Z and the
Newton transformations).  :func:`stack_jets` is where jets end and arrays
begin: it turns a nested list of jets into value, gradient and Hessian
arrays, from which the connection and curvature tensors are contracted.
:func:`jet_view` goes back, giving those arrays a jet face where jet-valued
fields need them, and :func:`truncate` cuts jets to the derivative order
their consumers read.

The linear-algebra helpers at the bottom operate on matrices represented as
nested lists whose entries are any mix of floats, ndarrays and jets, which
lets the shape-operator and Newton-transformation code carry derivatives
through jet-valued operator fields.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import LinearSolveError


class Jet:
    """Truncated Taylor data (value, gradient, Hessian) of a scalar."""

    __slots__ = ("value", "grad", "hess")

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

    def d(self, i: int) -> "Jet":
        """Partial derivative in direction ``i``; the result has one order less."""
        if self.grad is None:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(self.grad[..., i], None if self.hess is None else self.hess[..., i, :])

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
        return Jet(
            self.value * other,
            None if self.grad is None else self.grad * other,
            None if self.hess is None else self.hess * other,
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


def exp(x):
    return lift(x, np.exp, np.exp, np.exp)


def sqrt(x):
    return lift(x, np.sqrt, lambda v: 0.5 / np.sqrt(v), lambda v: -0.25 * v**-1.5)


def log(x):
    return lift(x, np.log, lambda v: 1.0 / v, lambda v: -1.0 / v**2)


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


def d_of(x, i: int):
    """Partial derivative of a jet entry; constants differentiate to zero."""
    return x.d(i) if isinstance(x, Jet) else 0.0


def stack_values(comps: Sequence, batch_shape: tuple[int, ...]) -> np.ndarray:
    """Stack component values into an ``(..., k)`` float array."""
    cols = [np.broadcast_to(np.asarray(value_of(c), dtype=float), batch_shape) for c in comps]
    return np.stack(cols, axis=-1)


def stack_jets(entries, batch_shape: tuple[int, ...], m: int, order: int) -> list[np.ndarray]:
    """Value, gradient, ... arrays of a nested list of jets and constants.

    Returns ``order + 1`` arrays: values ``batch + shape``, gradients
    ``batch + shape + (m,)`` and Hessians ``batch + shape + (m, m)``, where
    ``shape`` is the nesting shape of ``entries``.  Constants and derivatives
    an entry does not carry are zero.
    """
    shape = []
    probe = entries
    while isinstance(probe, (list, tuple)):
        shape.append(len(probe))
        probe = probe[0]
    out = [np.zeros(batch_shape + tuple(shape) + (m,) * k) for k in range(order + 1)]
    for idx in np.ndindex(*shape):
        x = entries
        for i in idx:
            x = x[i]
        parts = (x.value, x.grad, x.hess) if isinstance(x, Jet) else (x,)
        for k, (arr, part) in enumerate(zip(out, parts)):
            if part is not None:
                arr[(Ellipsis,) + idx + (slice(None),) * k] = part
    return out


def truncate(entries, order: int):
    """A nested list of jets and constants with every jet cut to ``order``.

    Truncation drops derivatives and never changes the ones kept, so values
    and gradients computed from the result are bit-identical to those
    computed from ``entries``.  The arrays are shared, not copied.
    """
    if isinstance(entries, (list, tuple)):
        return [truncate(x, order) for x in entries]
    if isinstance(entries, Jet) and entries.order > order:
        return Jet(entries.value, entries.grad if order >= 1 else None)
    return entries


def jet_view(value: np.ndarray, grad: np.ndarray | None, ndim: int) -> list:
    """Nested lists of jets over the ``ndim`` trailing axes of ``value``; undoes :func:`stack_jets`.

    ``grad`` has one more trailing axis, the derivative direction.  Entries
    are views of the arrays, so no data is copied.
    """
    lead = tuple(range(ndim))
    v = np.moveaxis(value, tuple(range(-ndim, 0)), lead)
    gr = None if grad is None else np.moveaxis(grad, tuple(range(-ndim - 1, -1)), lead)
    out = np.empty(v.shape[:ndim], dtype=object)
    for idx in np.ndindex(out.shape):
        out[idx] = Jet(v[idx], None if gr is None else gr[idx])
    return out.tolist()


# -- generic small dense linear algebra over nested lists -------------------


def mat_identity(n: int) -> list[list[float]]:
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def mat_vec(A, v):
    n = len(A)
    return [sum(A[i][j] * v[j] for j in range(len(v))) for i in range(n)]


def mat_mul(A, B):
    n, k, p = len(A), len(B), len(B[0])
    return [[sum(A[i][x] * B[x][j] for x in range(k)) for j in range(p)] for i in range(n)]


def mat_trace(A):
    return sum(A[i][i] for i in range(len(A)))


def metric_inner(g, u, v):
    """Inner product sum_ij g[i][j] u^i v^j over generic scalars."""
    m = len(u)
    return sum(g[i][j] * u[i] * v[j] for i in range(m) for j in range(m))


def _abs_scale(A) -> float:
    s = 0.0
    for row in A:
        for entry in row:
            s = max(s, float(np.max(np.abs(value_of(entry)))))
    return s


def mat_inverse(A):
    """Gauss-Jordan inverse over generic scalars.

    No pivoting: intended for symmetric positive definite metric matrices,
    where the unpivoted elimination is stable.
    """
    n = len(A)
    work = [list(row) for row in A]
    inv = mat_identity(n)
    scale = max(_abs_scale(A), 1.0)
    for c in range(n):
        piv = work[c][c]
        if float(np.min(np.abs(value_of(piv)))) <= 1e-13 * scale:
            raise LinearSolveError(f"singular pivot in metric solve at column {c}")
        pinv = 1.0 / piv
        for j in range(n):
            work[c][j] = work[c][j] * pinv
            inv[c][j] = inv[c][j] * pinv
        for r in range(n):
            if r == c:
                continue
            f = work[r][c]
            for j in range(n):
                work[r][j] = work[r][j] - f * work[c][j]
                inv[r][j] = inv[r][j] - f * inv[c][j]
    return inv

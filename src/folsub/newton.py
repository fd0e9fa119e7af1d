"""Symmetric functions, Newton transformations, and their trace identities.

Coefficients of the characteristic polynomial are recovered from power sums
through Newton's identities; no eigendecomposition is involved, which keeps
the evaluation deterministic and exact for diagonal input.

The Newton-identity step, :func:`_newton_identities`, runs over generic
scalars.  The front ends :func:`power_sums`, :func:`sigma_values` and
:func:`newton_transforms` take a batch of operators ``(..., n, n)``, either
an ndarray or a tensor jet (``foliation.Geometry``'s shape operator, whose
derivatives then come along into sigma_r and T_r), and multiply with
``jets.einsum``, which is ``np.einsum`` on ndarrays.  Their traces add the
diagonal in index order, as ``jets.mat_trace`` does, instead of calling
``np.trace``: numpy sums eight or more terms pairwise, which moves the last
bits, while the index order keeps them bit-identical to the scalar chain on
diagonal input such as the umbilical operator H Id.

The ``*_nested`` functions are that scalar chain, on nested lists of
generic scalars.  Nothing in the package calls them: they are the reference
the tests hold the batched and jet paths to.

The umbilical integrands (:func:`umbilical_main_integrand`,
:func:`umbilical_reduced_integrand`) take arrays of samples of one leaf
dimension n and evaluate them as one (k, n, n) stack of H Id.  Each sample
keeps the bits of its scalar evaluation: powers of H are Python's float
power, because numpy's vectorized ``power`` may differ in the last bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import numpy as np

from .jets import Jet, einsum, mat_identity, mat_mul, mat_trace, stack_last


def _newton_identities(taus: list) -> list:
    """sigma_0..sigma_n from the power sums tau_1..tau_n, over generic scalars."""
    sig = [1.0]
    for k in range(1, len(taus) + 1):
        acc = 0.0
        for i in range(1, k + 1):
            term = sig[k - i] * taus[i - 1]
            acc = acc + (term if i % 2 == 1 else -term)
        sig.append(acc * (1.0 / k))
    return sig


def power_sums_nested(A) -> list:
    """tau_j = tr(A^j) for j = 1..n."""
    n = len(A)
    taus = []
    Ak = A
    for _ in range(n):
        taus.append(mat_trace(Ak))
        Ak = mat_mul(Ak, A)
    return taus


def sigmas_nested(A) -> list:
    """sigma_0..sigma_n of an n x n operator via Newton's identities."""
    return _newton_identities(power_sums_nested(A))


def newton_transforms_nested(A, sigmas=None) -> list:
    """All T_0..T_n, by the recursion T_r = sigma_r Id - A T_{r-1}."""
    n = len(A)
    if sigmas is None:
        sigmas = sigmas_nested(A)
    eye = mat_identity(n)
    out = [eye]
    for r in range(1, n + 1):
        ATprev = mat_mul(A, out[-1])
        out.append([[sigmas[r] * eye[i][j] - ATprev[i][j] for j in range(n)] for i in range(n)])
    return out


# -- array front ends --------------------------------------------------------


def _operators(A):
    return A if isinstance(A, Jet) else np.asarray(A, dtype=float)


def _trace(M):
    """Trace over the last two axes, added in index order like ``jets.mat_trace``."""
    out = M[..., 0, 0]
    for i in range(1, M.shape[-1]):
        out = out + M[..., i, i]
    return out


def _sigmas_from_power_sums(tau):
    return stack_last(_newton_identities([tau[..., j] for j in range(tau.shape[-1])]))


def power_sums(A):
    """tau_1..tau_n of a batch of operators (ndarray or jet), shape (..., n)."""
    A = _operators(A)
    Ak = A
    taus = [_trace(A)]
    for _ in range(1, A.shape[-1]):
        Ak = einsum("...ix,...xj->...ij", Ak, A)
        taus.append(_trace(Ak))
    return stack_last(taus)


def sigma_values(A):
    """sigma_0..sigma_n of a batch of operators (ndarray or jet), shape (..., n+1)."""
    return _sigmas_from_power_sums(power_sums(A))


def newton_transforms(A, sig=None) -> list:
    """All T_0..T_n of a batch of operators (ndarray or jet), by T_r = sigma_r Id - A T_{r-1}.

    ``sig`` is ``sigma_values(A)`` when the caller already has it.
    """
    A = _operators(A)
    if sig is None:
        sig = sigma_values(A)
    eye = np.eye(A.shape[-1])
    out = [sig[..., 0, None, None] * eye]
    for r in range(1, A.shape[-1] + 1):
        out.append(sig[..., r, None, None] * eye - einsum("...ix,...xj->...ij", A, out[-1]))
    return out


def newton_transform(r: int, A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    if not 0 <= r <= n:
        raise ValueError(f"Newton transformation index {r} outside 0..{n}")
    return newton_transforms(A)[r]


def trace_identity_residuals(r: int, A: np.ndarray) -> np.ndarray:
    """Residuals of the three algebraic Newton-trace identities at index r.

    tr T_r = (n-r) sigma_r,
    tr(A T_r) = (r+1) sigma_{r+1},
    tr(A^2 T_r) = sigma_1 sigma_{r+1} - (r+2) sigma_{r+2}.
    Returns shape (..., 3).
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    if not 0 <= r <= n - 1:
        raise ValueError(f"trace identity index {r} outside 0..{n - 1}")
    sig = sigma_values(A)
    sget = lambda k: sig[..., k] if k <= n else np.zeros(A.shape[:-2])
    Tr = newton_transforms(A, sig)[r]
    ATr = A @ Tr
    r1 = _trace(Tr) - (n - r) * sget(r)
    r2 = _trace(ATr) - (r + 1) * sget(r + 1)
    r3 = _trace(A @ ATr) - (sget(1) * sget(r + 1) - (r + 2) * sget(r + 2))
    return np.stack([r1, r2, r3], axis=-1)


# -- exact combinatorics for the umbilical and constant-curvature reductions --


def umbilical_coefficient_sum(n: int, r: int) -> Fraction:
    """sum_{i=0}^{r} (-1)^{r-i} C(n, i), exact."""
    return Fraction(sum((-1) ** (r - i) * comb(n, i) for i in range(r + 1)))


def umbilical_coefficient(n: int, r: int) -> Fraction:
    """((n-r)/n) C(n, r), exact; equals the alternating sum above."""
    return Fraction(n - r, n) * comb(n, r)


def binomial_reduction_sum(n: int, r: int) -> Fraction:
    """sum_{j=1}^{r} (-1)^{j-1} ((n-r+j)/n) C(n, r-j), exact.

    Collapses to C(n-2, r-1) for n >= 2.
    """
    return Fraction(sum((-1) ** (j - 1) * (n - r + j) * comb(n, r - j) for j in range(1, r + 1)), n)


def total_curvature_closed_constant(n: int, r: int, c: float, vol: float) -> float:
    """Closed form: c^{r/2} C(n/2, r/2) vol for n, r even; 0 for odd r."""
    if r % 2 == 1:
        return 0.0
    if n % 2 != 0:
        raise ValueError("closed form stated for even leaf dimension only")
    return c ** (r // 2) * comb(n // 2, r // 2) * vol


def total_curvature_recursion_einstein(n: int, C: float, vol: float) -> np.ndarray:
    """Iterate S_{r+2} = C (n-r) / (n (r+2)) S_r from S_0 = vol, S_1 = 0."""
    S = np.zeros(n + 1)
    S[0] = vol
    if n >= 1:
        S[1] = 0.0
    for r in range(0, n - 1):
        S[r + 2] = C * (n - r) * S[r] / (n * (r + 2))
    return S


def total_curvature_closed_einstein(n: int, r: int, C: float, vol: float) -> float:
    """Closed form: (C/n)^{r/2} C(n/2, r/2) vol for n, r even; 0 for odd r."""
    if r % 2 == 1:
        return 0.0
    if n % 2 != 0:
        raise ValueError("closed form stated for even leaf dimension only")
    return (C / n) ** (r // 2) * comb(n // 2, r // 2) * vol


def umbilical_common_factor(n: int, r: int) -> float:
    """(r+1)! (n-r-1)! / (n-2)!, the ratio between the two umbilical integrands."""
    if n < 2:
        raise ValueError("umbilical reduction needs leaf dimension >= 2")
    return factorial(r + 1) * factorial(n - r - 1) / factorial(n - 2)


def _umbilical_samples(r, H, ric_nn, ric_zn):
    """The samples broadcast together and flattened: ``r`` as ints, the rest as floats, with their common shape."""
    shape = np.broadcast(r, H, ric_nn, ric_zn).shape
    r, H, ric_nn, ric_zn = (np.broadcast_to(x, shape).ravel() for x in (r, H, ric_nn, ric_zn))
    return shape, r.astype(int), H.astype(float), ric_nn.astype(float), ric_zn.astype(float)


def _power(H: np.ndarray, k) -> np.ndarray:
    """H ** k elementwise by Python's float power, as the scalar forms take it.

    numpy's vectorized ``power`` may differ from it in the last bit.
    """
    return np.power(H.astype(object), k).astype(float)


def umbilical_main_integrand(n: int, r, H, ric_nn, ric_zn):
    """Pointwise main-formula integrand for A = H Id, built from actual matrices.

    The two curvature-operator traces are substituted by operators consistent
    with umbilicity: the normal-direction operator has trace ric_nn, and the
    operator attached to A^{j-1} Z contributes H^{j-1} times an operator with
    trace ric_zn.  One leaf dimension ``n``; ``r``, ``H``, ``ric_nn`` and
    ``ric_zn`` broadcast together, and each sample equals the scalar
    evaluation bit for bit: the k samples share one ``sigma_values`` and one
    ``newton_transforms`` on the (k, n, n) stack of H Id.
    """
    shape, r, H, ric_nn, ric_zn = _umbilical_samples(r, H, ric_nn, ric_zn)
    at = np.arange(H.size)
    eye = np.eye(n)
    A = H[:, None, None] * eye
    sig = sigma_values(A)
    Ts = np.stack(newton_transforms(A, sig))
    sig = np.concatenate([sig, np.zeros((H.size, 2))], axis=-1)  # sigma_k = 0 for k > n

    def traces(ric):
        return np.trace(Ts @ ((ric / n)[:, None, None] * eye), axis1=-2, axis2=-1)

    out = (r + 2) * sig[at, r + 2]
    out = out - traces(ric_nn)[r, at]
    tz = traces(ric_zn)
    for j in range(1, int(np.max(r, initial=0)) + 1):
        term = (-1.0) ** (j - 1) * _power(H, j - 1) * tz[np.maximum(r - j, 0), at]
        out = np.where(j <= r, out - term, out)
    return out.reshape(shape)[()]


def umbilical_reduced_integrand(n: int, r, H, ric_nn, ric_zn):
    """Pointwise integrand of the umbilical mean-curvature display.

    H^{r-1} (H^3 n (n-1)(n-r-1) - H (n-1)(r+1) ric_nn - r (r+1) ric_zn),
    with the H^{r-1} prefactor distributed so r = 0 carries no singularity.
    The arguments broadcast as in :func:`umbilical_main_integrand`.
    """
    shape, r, H, ric_nn, ric_zn = _umbilical_samples(r, H, ric_nn, ric_zn)
    out = _power(H, r + 2) * n * (n - 1) * (n - r - 1)
    out -= _power(H, r) * (n - 1) * (r + 1) * ric_nn
    out = np.where(r >= 1, out - _power(H, np.maximum(r - 1, 0)) * r * (r + 1) * ric_zn, out)
    return out.reshape(shape)[()]

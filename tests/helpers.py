"""Independent oracles shared by the test modules.

Everything here deliberately avoids the jet/connection machinery under test:
finite differences for derivatives, eigenvalue brute force for symmetric
functions, dense one-dimensional quadrature for reduced integrals, and
hand-derived closed forms for the warped and tilted example metrics.  The
two exceptions are references that other code is held to bit for bit: the
umbilical integrand, which runs the nested-list Newton path for the batched
ndarray path, and the projector jets at the seeds' full derivative order,
for the first-order ``distribution.projector_jets``.
"""

import numpy as np

from folsub.newton import newton_transforms_nested, sigmas_nested

TWO_PI = 2.0 * np.pi


def fd_gradient(f, x, h=1e-6):
    """Central differences; for an array-valued f the derivative axis comes last."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h))
    return np.stack(cols, axis=-1)


def fd_hessian(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    m = x.size
    H = np.zeros((m, m))
    f0 = f(x)
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h
        H[i, i] = (f(x + ei) - 2 * f0 + f(x - ei)) / h**2
        for j in range(i + 1, m):
            ej = np.zeros(m)
            ej[j] = h
            H[i, j] = H[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4 * h**2)
    return H


def eig_elementary_symmetric(A):
    """sigma_0..sigma_n from eigenvalues, coefficient recursion on prod(t + lam)."""
    lam = np.linalg.eigvalsh(np.asarray(A, dtype=float))
    coeffs = np.array([1.0])
    for ev in lam:
        coeffs = np.concatenate([coeffs, [0.0]])
        coeffs[1:] += ev * coeffs[:-1].copy()
    return coeffs


def umbilical_main_integrand_nested(n, r, H, ric_nn, ric_zn):
    """Main-formula integrand at A = H Id, on nested lists of Python floats.

    Mirrors ``newton.umbilical_main_integrand`` term by term, including its
    ``np.trace`` calls, but takes sigma_k and T_k from the jet path.
    """
    A = (H * np.eye(n)).tolist()
    sig = sigmas_nested(A)
    sget = lambda k: float(sig[k]) if k <= n else 0.0
    Ts = [np.array(T, dtype=float) for T in newton_transforms_nested(A, sig)]
    out = (r + 2) * sget(r + 2)
    out -= float(np.trace(Ts[r] @ ((ric_nn / n) * np.eye(n))))
    for j in range(1, r + 1):
        out -= (-1.0) ** (j - 1) * H ** (j - 1) * float(np.trace(Ts[r - j] @ ((ric_zn / n) * np.eye(n))))
    return out


def projector_jets_full_order(dist, coords, g):
    """P[i][j] = sum_a v_a^i (g v_a)_j over the D-frame, with no truncation."""
    m = dist.manifold.dim
    P = [[0.0 for _ in range(m)] for _ in range(m)]
    for v in dist.frame_D(coords):
        low = [sum(g[i][j] * v[j] for j in range(m)) for i in range(m)]
        for i in range(m):
            for j in range(m):
                P[i][j] = P[i][j] + v[i] * low[j]
    return P


def loop_integral(fn, k=8192):
    """Dense trapezoid (= rectangle) rule on one period of a smooth function."""
    z = np.arange(k) * (TWO_PI / k)
    return float(np.sum(fn(z)) * (TWO_PI / k))


# hand-derived closed forms for the default warps a = 2 + cos z, b = 2 + sin z
def warp_a(z):
    return 2.0 + np.cos(z)


def warp_da(z):
    return -np.sin(z)


def warp_d2a(z):
    return -np.cos(z)


def warp_b(z):
    return 2.0 + np.sin(z)


def warp_db(z):
    return np.cos(z)


def warp_d2b(z):
    return -np.sin(z)


def tilted_rp_leaf(z, amp=0.3):
    """<R^P(e1, e2)e2, e1> on the tilted torus, hand Koszul computation."""
    th = amp * np.sin(z)
    c, s = np.cos(th), np.sin(th)
    alpha = warp_da(z) / warp_a(z)
    beta = warp_db(z) / warp_b(z)
    return -(c**2 * alpha * beta + s**2 * warp_d2a(z) / warp_a(z))


def tilted_rp_normal(z, amp=0.3):
    """<R^P(e1, e2)N, e1> on the tilted torus, hand Koszul computation."""
    th = amp * np.sin(z)
    c, s = np.cos(th), np.sin(th)
    alpha = warp_da(z) / warp_a(z)
    beta = warp_db(z) / warp_b(z)
    return s * c * (warp_d2a(z) / warp_a(z) - alpha * beta)

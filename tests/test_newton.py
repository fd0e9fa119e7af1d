from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from folsub import newton
from folsub.jets import mat_mul, mat_trace
from helpers import (
    eig_elementary_symmetric,
    exact_elementary_symmetric,
    newton_transform_explicit,
    total_curvature_recursion_constant,
    umbilical_main_integrand_nested,
)

RNG = np.random.default_rng(11)


def random_symmetric(rng, n, size=()):
    A = rng.uniform(-1.0, 1.0, size + (n, n))
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def nested(A):
    n = A.shape[-1]
    return [[A[..., i, j] for j in range(n)] for i in range(n)]


def stacked(values, batch, axis=-1):
    return np.stack([np.broadcast_to(v, batch) for v in values], axis=axis)


def jet_path(A):
    """Power sums, sigmas, T_0..T_n and trace-identity residuals on nested lists."""
    A_n, batch, n = nested(A), A.shape[:-2], A.shape[-1]
    sig_n = newton.sigmas_nested(A_n)
    sig = stacked(sig_n, batch)
    Ts_n = newton.newton_transforms_nested(A_n, sig_n)
    sget = lambda k: sig[..., k] if k <= n else 0.0
    res = []
    for r in range(n):
        AT = mat_mul(A_n, Ts_n[r])
        res.append(
            stacked(
                [
                    mat_trace(Ts_n[r]) - (n - r) * sget(r),
                    mat_trace(AT) - (r + 1) * sget(r + 1),
                    mat_trace(mat_mul(A_n, AT)) - (sget(1) * sget(r + 1) - (r + 2) * sget(r + 2)),
                ],
                batch,
            )
        )
    Ts = [stacked([stacked(row, batch) for row in T], batch + (n,), axis=-2) for T in Ts_n]
    return stacked(newton.power_sums_nested(A_n), batch), sig, Ts, res


def ndarray_path(A):
    n = A.shape[-1]
    Ts = newton.newton_transforms(A)
    for r in range(n + 1):
        assert np.array_equal(Ts[r], newton.newton_transform(r, A))
    return newton.power_sums(A), newton.sigma_values(A), Ts, [newton.trace_identity_residuals(r, A) for r in range(n)]


@pytest.mark.parametrize("batch", [(), (7,), (2, 3)])
def test_front_ends_equal_jet_path_on_umbilical_operators(batch):
    rng = np.random.default_rng(17)
    for n in range(1, 9):
        H = rng.uniform(-1.5, 1.5, batch)
        A = np.asarray(H)[..., None, None] * np.eye(n)
        got, want = ndarray_path(A), jet_path(A)
        for g, w in zip(got[:2], want[:2]):
            assert g.shape == w.shape == batch + w.shape[-1:]
            assert np.array_equal(g, w)
        for g, w in zip(got[2] + got[3], want[2] + want[3]):
            assert g.shape == w.shape
            assert np.array_equal(g, w)


@pytest.mark.parametrize("batch", [(), (40,), (2, 3)])
def test_front_ends_match_jet_path_and_eigenvalues_on_random_operators(batch):
    for n in range(1, 9):
        A = random_symmetric(RNG, n, batch)
        got, want = ndarray_path(A), jet_path(A)
        # relative to the largest sigma of each operator: Newton's identities
        # cancel, so single entries can sit far below the terms they come from
        scale = np.maximum(1.0, np.max(np.abs(want[1]), axis=-1))
        eig = np.stack([eig_elementary_symmetric(a) for a in A.reshape(-1, n, n)]).reshape(want[1].shape)
        assert np.all(np.abs(got[1] - want[1]) <= 1e-12 * scale[..., None])
        assert np.all(np.abs(got[1] - eig) <= 1e-12 * scale[..., None])
        assert np.all(np.abs(got[0] - want[0]) <= 1e-12 * np.maximum(1.0, np.max(np.abs(want[0]), axis=-1))[..., None])
        for g, w in zip(got[2], want[2]):
            assert np.all(np.abs(g - w) <= 1e-12 * scale[..., None, None])
        for g, w in zip(got[3], want[3]):
            assert np.all(np.abs(g - w) <= 1e-12 * scale[..., None])


def test_umbilical_integrand_equals_nested_reference():
    rng = np.random.default_rng(23)
    for n in range(2, 9):
        for r in range(n):
            for _ in range(5):
                H, rn, rz = (float(x) for x in rng.uniform(-1, 1, 3))
                assert newton.umbilical_main_integrand(n, r, H, rn, rz) == umbilical_main_integrand_nested(n, r, H, rn, rz)


def test_sigma_examples():
    A = np.eye(3)
    assert np.allclose(newton.sigma_values(A), [1, 3, 3, 1], atol=0)
    A = np.diag([1.0, 2.0])
    sig, tau = newton.sigma_values(A), newton.power_sums(A)
    assert sig[1] == 3.0 and sig[2] == 2.0
    assert tau[1] == 5.0


def test_sigma_matches_eigenvalue_oracle():
    for n in range(1, 7):
        A = random_symmetric(RNG, n, (40,))
        sig = newton.sigma_values(A)
        for k in range(40):
            assert np.max(np.abs(sig[k] - eig_elementary_symmetric(A[k]))) < 1e-12


def test_front_end_index_range_validation():
    A = np.eye(3)
    with pytest.raises(ValueError):
        newton.newton_transform(4, A)
    with pytest.raises(ValueError):
        newton.trace_identity_residuals(3, A)


def test_newton_transform_examples():
    A = random_symmetric(RNG, 4)
    sig = newton.sigma_values(A)
    assert np.allclose(newton.newton_transform(0, A), np.eye(4), atol=0)
    T1 = newton.newton_transform(1, A)
    assert np.max(np.abs(T1 - (sig[1] * np.eye(4) - A))) < 1e-14
    assert np.max(np.abs(newton.newton_transform(4, A))) < 1e-13


def test_recursive_vs_explicit_and_commutation():
    for n in range(1, 7):
        A = random_symmetric(RNG, n, (25,))
        for r in range(n + 1):
            Tr = newton.newton_transform(r, A)
            Te = newton_transform_explicit(r, A)
            assert np.max(np.abs(Tr - Te)) < 1e-11
            assert np.max(np.abs(A @ Tr - Tr @ A)) < 1e-11
            assert np.max(np.abs(Tr - np.swapaxes(Tr, -1, -2))) < 1e-11


def test_trace_identities_random():
    for n in range(1, 7):
        A = random_symmetric(RNG, n, (30,))
        for r in range(n):
            res = newton.trace_identity_residuals(r, A)
            assert np.max(np.abs(res)) < 1e-11


def test_trace_identities_zero_matrix():
    for n in (1, 3, 5):
        res = newton.trace_identity_residuals(0, np.zeros((n, n)))
        assert np.max(np.abs(res)) == 0.0


def test_sigma2_power_sum_relation():
    for n in range(1, 7):
        A = random_symmetric(RNG, n, (30,))
        sig, tau = newton.sigma_values(A), newton.power_sums(A)
        s2 = sig[..., 2] if n >= 2 else np.zeros(30)
        t2 = tau[..., 1] if n >= 2 else tau[..., 0] ** 2
        assert np.max(np.abs(2 * s2 - (tau[..., 0] ** 2 - t2))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        (3, 3),
        elements=st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    )
)
# eigvalsh gives this operator's eigenvalues, +-0.375, as +-0.37499991: an
# eigenvalue oracle would be 6.9e-8 off the exact sigma_2 = -0.140625
@example(M=np.array([[0.0, 1.3774553e-159, 0.0], [0.0, 0.0, 0.75], [0.0, 0.0, 0.0]]))
def test_hypothesis_newton_properties(M):
    A = 0.5 * (M + M.T)
    sig = newton.sigma_values(A)
    assert np.max(np.abs(sig - exact_elementary_symmetric(A))) < 1e-10
    assert np.max(np.abs(newton.newton_transform(3, A))) < 1e-10
    assert np.max(np.abs(newton.trace_identity_residuals(1, A))) < 1e-10


def test_umbilical_newton_transform():
    rng = np.random.default_rng(5)
    for n in range(2, 9):
        H = rng.uniform(-1, 1)
        A = H * np.eye(n)
        sig = newton.sigma_values(A)
        assert abs(sig[2] - comb(n, 2) * H**2) < 1e-12
        for r in range(n + 1):
            Tr = newton.newton_transform(r, A)
            want = (n - r) / n * sig[r] * np.eye(n)
            assert np.max(np.abs(Tr - want)) < 1e-11


def test_umbilical_coefficient_exact():
    for n in range(1, 13):
        for r in range(n + 1):
            assert newton.umbilical_coefficient_sum(n, r) == newton.umbilical_coefficient(n, r)
            assert newton.umbilical_coefficient(n, r) == Fraction(comb(n - 1, r)) if r < n else True


def test_binomial_reduction_identity_exact():
    for n in range(2, 13):
        for r in range(1, n):
            assert newton.binomial_reduction_sum(n, r) == Fraction(comb(n - 2, r - 1))


def test_constant_curvature_recursion_closed_form():
    vol = 2.75
    for n in range(2, 11, 2):
        for c in (0.5, 1.0, 2.3):
            S = total_curvature_recursion_constant(n, c, vol)
            for r in range(n + 1):
                if r % 2 == 1:
                    assert S[r] == 0.0
                else:
                    want = newton.total_curvature_closed_constant(n, r, c, vol)
                    assert abs(S[r] - want) <= 1e-12 * max(1.0, abs(want))


def test_constant_curvature_zero_c_kills_chain():
    S = total_curvature_recursion_constant(6, 0.0, 3.0)
    assert S[0] == 3.0
    assert np.all(S[1:] == 0.0)


def test_einstein_recursion_closed_form():
    vol = 1.5
    for n in range(2, 11, 2):
        for C in (0.7, 2.0):
            S = newton.total_curvature_recursion_einstein(n, C, vol)
            for r in range(0, n + 1, 2):
                want = newton.total_curvature_closed_einstein(n, r, C, vol)
                assert abs(S[r] - want) <= 1e-12 * max(1.0, abs(want))
            for r in range(1, n + 1, 2):
                assert S[r] == 0.0


def test_einstein_single_step_n2():
    C, vol = 1.3, 2.0
    S = newton.total_curvature_recursion_einstein(2, C, vol)
    assert abs(S[2] - C / 2.0 * vol) < 1e-15


def test_umbilical_integrands_agree():
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(0, n))
        H, rn, rz = rng.uniform(-1, 1, 3)
        lhs = newton.umbilical_main_integrand(n, r, H, rn, rz)
        rhs = newton.umbilical_reduced_integrand(n, r, H, rn, rz)
        assert abs(lhs - rhs / newton.umbilical_common_factor(n, r)) < 1e-11


def test_umbilical_integrand_top_order_form():
    # r = n-1 collapses to a multiple of H^{n-2} (H ric_nn + ric_zn)
    rng = np.random.default_rng(3)
    for n in range(2, 8):
        H, rn, rz = rng.uniform(-1, 1, 3)
        got = newton.umbilical_reduced_integrand(n, n - 1, H, rn, rz)
        want = -n * (n - 1) * H ** (n - 2) * (H * rn + rz)
        assert abs(got - want) < 1e-12


def test_umbilical_integrands_vanish_for_zero_mean_high_order():
    for n in range(4, 8):
        for r in range(2, n):
            assert newton.umbilical_reduced_integrand(n, r, 0.0, 0.3, -0.7) == 0.0
            assert abs(newton.umbilical_main_integrand(n, r, 0.0, 0.3, -0.7)) < 1e-15

"""The umbilical and Einstein-type checks evaluate their samples as one batch per leaf dimension.

Every batched sample must equal the scalar evaluation by ``repr``: the main
integrand the nested-list chain (``helpers.umbilical_main_integrand_nested``),
the residual the scalar residual (``helpers.umbilical_reduction_residual_scalar``),
and each T_r of the Einstein check's (16, n, n) stack the Newton
transformations of its one operator H Id.
"""

import numpy as np
import pytest

from folsub import newton, verify
from helpers import umbilical_main_integrand_nested, umbilical_reduction_residual_scalar


@pytest.mark.parametrize("n", range(2, 9))
def test_each_batched_umbilical_sample_equals_the_scalar_oracle(n):
    rng = np.random.default_rng(31 + n)
    r = np.repeat(np.arange(n), 6)
    H, ric_nn, ric_zn = rng.uniform(-1.0, 1.0, (3, r.size))
    main = newton.umbilical_main_integrand(n, r, H, ric_nn, ric_zn)
    residual = verify.umbilical_reduction_residual(n, r, H, ric_nn, ric_zn)
    assert main.shape == residual.shape == r.shape
    for k in range(r.size):
        sample = (n, int(r[k]), float(H[k]), float(ric_nn[k]), float(ric_zn[k]))
        assert repr(float(main[k])) == repr(umbilical_main_integrand_nested(*sample))
        assert repr(float(residual[k])) == repr(umbilical_reduction_residual_scalar(*sample))


def test_the_umbilical_check_is_the_largest_scalar_residual_over_its_draws():
    rng = np.random.default_rng(4242)
    want = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(0, n))
        H, ric_nn, ric_zn = rng.uniform(-1.0, 1.0, 3)
        want = max(want, umbilical_reduction_residual_scalar(n, r, float(H), float(ric_nn), float(ric_zn)))
    assert repr(verify.verify_umbilical_reduction(samples=200).residual) == repr(want)


def test_scalar_arguments_broadcast_against_a_batch():
    r = np.array([0, 1, 2])
    got = newton.umbilical_main_integrand(3, r, 0.4, -0.2, 0.7)
    assert got.shape == (3,)
    for k in range(3):
        assert repr(float(got[k])) == repr(umbilical_main_integrand_nested(3, k, 0.4, -0.2, 0.7))
    assert np.ndim(newton.umbilical_reduced_integrand(3, 1, 0.4, -0.2, 0.7)) == 0


@pytest.mark.parametrize("n", range(1, 9))
def test_each_einstein_newton_transform_of_the_stack_equals_the_per_operator_form(n):
    H = np.random.default_rng(99).uniform(-1.0, 1.0, 16)
    A = H[:, None, None] * np.eye(n)
    sig = newton.sigma_values(A)
    Ts = newton.newton_transforms(A, sig)
    assert len(Ts) == n + 1
    for k, h in enumerate(H):
        one = float(h) * np.eye(n)
        sig_one = newton.sigma_values(one)
        assert sig[k].tobytes() == sig_one.tobytes()
        for T, T_one in zip(Ts, newton.newton_transforms(one, sig_one)):
            assert T[k].tobytes() == T_one.tobytes()

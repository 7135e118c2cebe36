"""Property tests of the bounds over covariances of random MA processes.

Each covariance is the autocorrelation of an MA coefficient vector, so its
zero-extended spectral density is |hat c|^2 >= 0 and every route accepts it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrobound import (
    CovarianceSequence,
    gaussian_entropy_rate,
    gaussian_psd_bound,
    psd_from_finite_covariance,
    tdist_bound_1,
    tdist_bound_k,
    toeplitz_gaussian_bound_finite,
    univariate_me_bound,
)
from entrobound.numerics import ConvergenceError

SLACK = 1e-9  # the bench's invariant slack

coefficients = st.lists(
    st.floats(-3.0, 3.0, allow_nan=False), min_size=2, max_size=7
).filter(lambda c: sum(x * x for x in c) > 1e-2)

property_settings = settings(max_examples=50, deadline=None, database=None)


def ma_covariance(c) -> CovarianceSequence:
    """R(0..k) of the MA(k) process with coefficients c and unit innovations."""
    c = np.asarray(c, dtype=float)
    k = len(c) - 1
    return CovarianceSequence(tuple(float(np.dot(c[: k + 1 - m], c[m:])) for m in range(k + 1)))


def rate_or_none(cov):
    # the rate's quadrature can fail where the PSD nearly touches zero
    try:
        return gaussian_entropy_rate(psd_from_finite_covariance(cov))
    except ConvergenceError:
        return None


@property_settings
@given(coefficients)
def test_alternating_sign_flip_leaves_every_bound_unchanged(c):
    # R_m -> (-1)^m R_m is the process (-1)^n X_n: its PSD is Phi(pi - lambda)
    cov = ma_covariance(c)
    flip = CovarianceSequence(tuple((-1) ** m * r for m, r in enumerate(cov.values)))
    signs = np.array([(-1) ** m for m in range(1, cov.k + 1)])

    for bound in (tdist_bound_k, lambda s: tdist_bound_1(s.values[0], s.values[1])):
        res, res_flip = bound(cov), bound(flip)
        assert res_flip.value == pytest.approx(res.value, abs=1e-12)
        np.testing.assert_allclose(res_flip.argmin, signs[: len(res.argmin)] * res.argmin, rtol=0, atol=1e-8)

    psd, psd_flip = psd_from_finite_covariance(cov), psd_from_finite_covariance(flip)
    assert gaussian_psd_bound(psd_flip).value == pytest.approx(gaussian_psd_bound(psd).value, abs=1e-12)
    assert toeplitz_gaussian_bound_finite(flip, 64) == pytest.approx(
        toeplitz_gaussian_bound_finite(cov, 64), abs=1e-12
    )
    rate, rate_flip = rate_or_none(cov), rate_or_none(flip)
    if rate is not None and rate_flip is not None:
        if math.isinf(rate):
            assert rate_flip == rate
        else:
            assert rate_flip == pytest.approx(rate, abs=1e-12)


@property_settings
@given(coefficients)
def test_tdist_bound_k_does_not_increase_with_k(c):
    cov = ma_covariance(c)
    values = [univariate_me_bound(cov.values[0])] + [
        tdist_bound_k(CovarianceSequence(cov.values[: j + 1])).value for j in range(1, cov.k + 1)
    ]
    for lower, higher in zip(values[1:], values[:-1]):
        assert lower <= higher + SLACK


@property_settings
@given(coefficients)
def test_rate_below_psd_bound_below_tdist_bound(c):
    cov = ma_covariance(c)
    psd_value = gaussian_psd_bound(psd_from_finite_covariance(cov)).value
    assert psd_value <= tdist_bound_k(cov).value + SLACK
    rate = rate_or_none(cov)
    if rate is not None:
        assert rate <= psd_value + SLACK

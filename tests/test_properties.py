"""Property tests of the bounds over covariances of random MA processes, and
of the quantized moments over random model parameters.

Each covariance is the autocorrelation of an MA coefficient vector, so its
zero-extended spectral density is |hat c|^2 >= 0 and every route accepts it.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrobound import (
    CovarianceSequence,
    DomainError,
    QuantizedArModel,
    QuantizedMaModel,
    cli,
    gaussian_bound_k,
    gaussian_entropy_rate,
    gaussian_psd_bound,
    psd_from_finite_covariance,
    qar_r0,
    qar_rk,
    qma_k_ratio,
    qma_r0,
    qma_r1,
    tdist_bound_1,
    tdist_bound_k,
    toeplitz_gaussian_bound_finite,
    univariate_me_bound,
)

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


def rate(cov):
    return gaussian_entropy_rate(psd_from_finite_covariance(cov))


@property_settings
@given(coefficients)
@example([1.0, 1.0, 1.0])  # two double zeros of the PSD on the unit circle
@example([1.0, 1.0])  # a double zero at lambda = pi, which the flip moves to 0
@example([1.0, 0.0, 0.0, 1.0, 1e-05])  # three near-double zeros, one extreme root
@example([5.960464477539063e-08, 0.75, 0.0, 0.75])  # double zeros and an extreme root
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
    assert rate(flip) == pytest.approx(rate(cov), abs=1e-12)


@property_settings
@given(coefficients)
def test_tdist_bound_k_does_not_increase_with_k(c):
    cov = ma_covariance(c)
    # the chain starts at order 1's closed form, which order k must not exceed
    values = [univariate_me_bound(cov.values[0]), tdist_bound_1(cov.values[0], cov.values[1]).value] + [
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
    assert rate(cov) <= psd_value + SLACK


@property_settings
@given(coefficients)
def test_gaussian_bound_k_does_not_increase_with_k(c):
    cov = ma_covariance(c)
    values = [gaussian_bound_k(CovarianceSequence(cov.values[: j + 1])).value for j in range(cov.k + 1)]
    for lower, higher in zip(values[1:], values[:-1]):
        assert lower <= higher


@property_settings
@given(coefficients)
@example([1.0, 0.0, 1.0, 1.4196112600886954e-40])  # a last covariance of 1.4e-40
def test_psd_bound_below_gaussian_bound_k_below_tdist_bound(c):
    cov = ma_covariance(c)
    gaussian = gaussian_bound_k(cov).value
    assert gaussian_psd_bound(psd_from_finite_covariance(cov)).value <= gaussian + SLACK
    assert gaussian <= tdist_bound_k(cov).value + SLACK


@property_settings
@given(
    st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=6),
    st.data(),
    st.floats(1e-6, 10.0),
    st.sampled_from([1.0, -1.0]),
)
def test_lag_above_r0_is_rejected_on_every_route(rho, data, excess, sign):
    # |R_m| > R_0 for some m: the 2 x 2 minor on rows 0 and m is negative
    m = data.draw(st.integers(1, len(rho)))
    values = [1.0] + rho
    values[m] = sign * (1.0 + excess)
    with pytest.raises(DomainError):
        CovarianceSequence(tuple(values))
    if m == 1:
        with pytest.raises(DomainError):
            tdist_bound_1(values[0], values[1])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cov.txt")
        with open(path, "w") as f:
            f.write(",".join(repr(v) for v in values) + "\n")
        for command in ("bound-cov", "bound-psd"):
            with contextlib.redirect_stderr(io.StringIO()):
                assert cli.main([command, "--input", path, "--out", os.path.join(tmp, "out.csv")]) == 2


# sigma from 0.05, where R(0) ~ 1e-23 and the lag moments fall under the
# resolution rule, to 50
scales = st.floats(0.05, 50.0)


@property_settings
@given(scales, st.floats(0.0, 5.0))
@example(0.05, 0.0)
@example(0.05, 0.1)  # the double sum rounds to 2e-19 here, R(0) is 5e-23
@example(0.0489, 1.0)  # R(0) at the lag resolution rule
@example(0.2, 0.0)  # the small-scale rule of R(0)
def test_quantized_ma_moments_are_a_covariance(sigma, theta):
    model = QuantizedMaModel(sigma, theta)
    r0, r1 = qma_r0(model), qma_r1(model)
    assert r0 >= 0.0
    assert abs(r1) <= r0  # Cauchy-Schwarz
    assert abs(qma_k_ratio(model)) <= 1.0


@property_settings
@given(scales, st.floats(-0.99, 0.99), st.floats(0.0, 10.0), st.integers(1, 6))
@example(0.05, 0.5, 0.0, 1)
@example(0.06, -0.5, 0.0, 1)
@example(0.05, 0.99, 0.0, 1)
def test_quantized_ar_moments_are_a_covariance(sigma, phi, nu, k):
    model = QuantizedArModel(sigma, phi, nu)
    r0 = qar_r0(model)
    assert r0 >= 0.0
    assert abs(qar_rk(model, k)) <= r0  # Cauchy-Schwarz


# Extreme numbers for every float option: zero, signed subnormal-scale values,
# beyond int64 (1e19), where a square overflows (1e154 doubled, 1e200, 1e300)
EXTREMES = ["0", "1e-300", "-1e-300", "1e19", "1e154", "1e200", "1e300", "0.5"]
SEEDS = ["0", "5", "-1", str(-(2**63)), str(2**64 - 1), str(2**64)]
SIMULATE_OPTIONS = {
    "poisson": ["--rate"],
    "dma": ["--variance"],
    "binomial-hmm": ["--gamma1", "--gamma2", "--p1", "--p2"],
    "poisson-hmm": ["--gamma1", "--gamma2", "--rate1", "--rate2"],
    "quantized-ma": ["--sigma", "--theta"],
    "quantized-ar": ["--sigma", "--phi", "--nu"],
}


@st.composite
def extreme_commands(draw):
    value = st.sampled_from(EXTREMES)
    command = draw(st.sampled_from(["simulate", "fig2", "fig3", "fig4"]))
    if command == "simulate":
        model = draw(st.sampled_from(sorted(SIMULATE_OPTIONS)))
        argv = ["simulate", "--model", model, "-n", draw(st.sampled_from(["1", "8", "0", str(2**64)]))]
        argv.append(f"--seed={draw(st.sampled_from(SEEDS))}")
        for option in draw(st.lists(st.sampled_from(SIMULATE_OPTIONS[model]), max_size=2, unique=True)):
            argv.append(f"{option}={draw(value)}")  # '=' keeps argparse from reading -1e-300 as an option
        return argv
    if command in ("fig2", "fig3"):  # one grid point, theta = 0
        return [command, f"--sigma={draw(value)}", "--theta-max", "0"]
    phi = draw(value)  # one grid point
    return ["fig4", f"--sigma={draw(value)}", f"--nu={draw(value)}", f"--phi-min={phi}", f"--phi-max={phi}", "--k", "2"]


@settings(max_examples=150, deadline=None, database=None)
@given(extreme_commands())
@example(["fig2", "--sigma", "1e300", "--theta-max", "0"])
@example(["fig4", "--sigma", "1", "--nu", "1e200", "--phi-min", "0.7", "--phi-max", "0.7"])
@example(["fig2", "--sigma", "1e154", "--theta-max", "2", "--theta-step", "1"])
@example(["simulate", "--model", "quantized-ma", "--sigma", "1e19", "-n", "8", "--seed", "3"])
@example(["simulate", "--model", "poisson", "-n", "5", "--seed", "-1"])
@example(["fig2", "--sigma", "1e154", "--theta-max", "0"])
@example(["fig2", "--sigma", "8.9e153", "--theta-max", "1", "--theta-step", "1"])
def test_extreme_numbers_exit_cleanly(argv):
    # 0 with finite output, 2 with one error line, or 3; never a traceback,
    # a wrapped value or a non-finite field
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3), argv
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
    if code == 0:
        fields = {f for line in out.getvalue().splitlines() for f in line.split(",")}
        assert not fields & {"nan", "inf", "-inf"}, (argv, out.getvalue())
    if code == 0 and argv[0] == "simulate":
        assert str(np.iinfo(np.int64).min) not in out.getvalue(), argv

"""Shared errors, tolerances and scalar kernels, in plain ``math``.

Everything here is a pure function of its inputs and safe to call from
multiple threads.  All computation is in 64-bit floating point.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)
LOG_2PI_E = math.log(2.0 * math.pi * math.e)

# Node budget and tolerances of the node doublings: ``spectrum``'s periodic
# quadrature stops once two successive estimates differ by less than ABS_TOL,
# or by less than REL_TOL of the estimate when that is larger (|estimate| above
# 1e4, where the rounding of the sum itself exceeds ABS_TOL), and gives up with
# ConvergenceError beyond MAX_POINTS nodes.  The order-k doubling in ``bounds``
# runs from 256 nodes up to MAX_POINTS until its duality gap is below ABS_TOL.
# MAX_POINTS also caps the conditional-entropy trapezoid in ``processes``, and
# n in ``spectrum``'s toeplitz_gaussian_bound_finite and tridiagonal_determinant.
MAX_POINTS = 2**21
ABS_TOL = 1e-9
REL_TOL = 1e-13

# Most lags a CovarianceSequence carries, and the highest cosine degree whose
# log-integral ``bounds`` takes: half the first 256-node table of the order-k
# solve, where its cosines start to alias.  Checked before any O(k^2) work.
MAX_LAGS = 128


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative scheme failed to reach its tolerance.

    ``estimates`` holds the last two successive estimates, for diagnostics.
    """

    def __init__(self, message: str, estimates: tuple = ()):
        super().__init__(message)
        self.estimates = tuple(estimates)


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def converged(est: float, prev: float) -> bool:
    """Whether two successive estimates of a node doubling agree to tolerance."""
    diff = abs(est - prev)
    return diff < ABS_TOL or diff < REL_TOL * abs(est)


def univariate_me_bound(variance: float) -> float:
    """1/2 log(2*pi*e*(variance + 1/12)), the single-sample bound."""
    if not 0 <= variance < math.inf:
        raise DomainError(f"variance must be finite and non-negative, got {variance!r}")
    return 0.5 * math.log(2.0 * math.pi * math.e * (variance + 1.0 / 12.0))

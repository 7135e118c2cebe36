"""Shared numerical kernels: special functions and 1-D quadrature.

Everything here is a pure function of its inputs and safe to call from
multiple threads.  All computation is in 64-bit floating point.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)

# Node budget and tolerances of the node doublings: the periodic quadrature
# below stops once two successive estimates differ by less than ABS_TOL, or by
# less than REL_TOL of the estimate when that is larger (|estimate| above 1e4,
# where the rounding of the sum itself exceeds ABS_TOL), and gives up with
# ConvergenceError beyond MAX_POINTS nodes.  The order-k doubling in ``bounds``
# runs from 256 nodes up to MAX_POINTS until its duality gap is below ABS_TOL.
# MAX_POINTS also caps the conditional-entropy trapezoid in ``processes``, and
# n in ``spectrum``'s toeplitz_gaussian_bound_finite and tridiagonal_determinant.
MAX_POINTS = 2**21
ABS_TOL = 1e-9
REL_TOL = 1e-13


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


def integrate_periodic(f: Callable) -> float:
    """Integrate a continuous 2*pi-periodic function over [0, 2*pi].

    ``f`` is vectorized: it takes an array of nodes and returns an array of
    the same shape.  A wrong shape or a non-finite value raises DomainError,
    and so does any DomainError of ``f``.  Composite trapezoid rule
    (spectrally accurate for smooth periodic integrands) with node doubling,
    reusing the previous nodes, until two successive estimates differ by
    less than ``ABS_TOL`` (relatively ``REL_TOL`` for large values); beyond
    ``MAX_POINTS`` nodes it raises ConvergenceError with the last two.
    """

    def node_sum(x: np.ndarray) -> float:
        fx = np.asarray(f(x), dtype=float)
        if fx.shape != x.shape:
            raise DomainError(f"integrand returned shape {fx.shape} for nodes of shape {x.shape}")
        if not np.all(np.isfinite(fx)):
            raise DomainError("integrand returned a non-finite value")
        return float(fx.sum())

    n = 16
    total = node_sum(TWO_PI * np.arange(n) / n)
    est = total * TWO_PI / n
    prev = math.inf
    while n <= MAX_POINTS:
        if converged(est, prev):
            return est
        total += node_sum(TWO_PI * (np.arange(n) + 0.5) / n)
        n *= 2
        prev = est
        est = total * TWO_PI / n
    raise ConvergenceError(
        f"periodic quadrature did not converge within {MAX_POINTS} nodes",
        estimates=(prev, est),
    )

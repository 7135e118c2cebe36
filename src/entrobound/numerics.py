"""Shared numerical kernels: special functions and 1-D quadrature.

Everything here is a pure function of its inputs and safe to call from
multiple threads.  All computation is in 64-bit floating point.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)

# Node budget and tolerances of the node doublings: the periodic quadrature
# below stops once two successive estimates differ by less than ABS_TOL, or by
# less than REL_TOL of the estimate when that is larger (|estimate| above 1e4,
# where the rounding of the sum itself exceeds ABS_TOL), and gives up with
# ConvergenceError beyond MAX_POINTS nodes.  The order-k doubling in ``bounds``
# runs from 256 nodes up to MAX_POINTS until its duality gap is below ABS_TOL;
# the conditional-entropy one in ``processes`` shares MAX_POINTS.
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


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    points: int


def std_normal_cdf(t: float) -> float:
    """Standard normal CDF, evaluated through the complementary error function.

    Absolute error is at the level of erfc itself (well below 1e-14);
    saturates cleanly to 0/1 for large ``|t|``.
    """
    if not math.isfinite(t):
        raise DomainError(f"std_normal_cdf requires finite t, got {t!r}")
    return 0.5 * math.erfc(-t / SQRT2)


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def converged(est: float, prev: float) -> bool:
    """Whether two successive estimates of a node doubling agree to tolerance."""
    diff = abs(est - prev)
    return diff < ABS_TOL or diff < REL_TOL * abs(est)


def _eval_vectorized(f: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate ``f`` on an array of nodes, accepting scalar-only callables.

    A DomainError from the vectorized call propagates: the input is outside
    the integrand's domain, and a node-by-node rerun would only repeat it.
    """
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape == x.shape:
            return y
    except DomainError:
        raise
    except (TypeError, ValueError):
        pass
    values = np.fromiter((float(f(xi)) for xi in x.ravel()), dtype=float, count=x.size)
    return values.reshape(x.shape)


def _finite_values(f: Callable, x: np.ndarray) -> np.ndarray:
    fx = _eval_vectorized(f, x)
    if not np.all(np.isfinite(fx)):
        raise DomainError("integrand returned a non-finite value")
    return fx


def integrate_periodic_full(f: Callable) -> QuadratureResult:
    """Integrate a continuous 2*pi-periodic function over [0, 2*pi].

    Composite trapezoid rule (spectrally accurate for smooth periodic
    integrands) with node doubling until two successive estimates differ
    by less than ``ABS_TOL`` (relatively ``REL_TOL`` for large values).
    Previous nodes are reused at each doubling.
    """
    n = 16
    total = float(_finite_values(f, TWO_PI * np.arange(n) / n).sum())
    est = total * TWO_PI / n
    prev = math.inf
    while n <= MAX_POINTS:
        if converged(est, prev):
            return QuadratureResult(est, abs(est - prev), n)
        total += float(_finite_values(f, TWO_PI * (np.arange(n) + 0.5) / n).sum())
        n *= 2
        prev = est
        est = total * TWO_PI / n
    raise ConvergenceError(
        f"periodic quadrature did not converge within {MAX_POINTS} nodes",
        estimates=(prev, est),
    )


def integrate_periodic(f: Callable) -> float:
    """Value-only wrapper around :func:`integrate_periodic_full`."""
    return integrate_periodic_full(f).value

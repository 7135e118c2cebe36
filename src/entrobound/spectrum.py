"""Covariance sequences, spectral densities, Toeplitz utilities and the periodic quadrature."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numerics import MAX_LAGS, MAX_POINTS, TWO_PI, ConvergenceError, DomainError, converged

_NEGATIVITY_SLACK = 1e-9


class PsdValidationError(DomainError):
    """A candidate spectral density is negative, non-finite or too large where it is checked."""


def cosine_degree(c: np.ndarray) -> tuple[int, float]:
    """Degree and scale |c_0| + 2 sum|c_m| of a cosine series, its tail below eps*scale dropped."""
    size = 2.0 * np.abs(c)
    size[0] = abs(c[0])
    scale = float(size.sum())
    kept = np.flatnonzero(size > np.finfo(float).eps * scale)
    return (int(kept[-1]) if len(kept) else 0), scale


def reflection_coefficients(r: Sequence[float], n: int | None = None) -> tuple[list, list]:
    """Reflection coefficients kappa_1.. and prediction errors err_0, err_1, ..
    of r[0..k] zero-padded to n terms (n = k + 1 by default).

    The Schur recursion on the two generator rows (Kailath & Sayed, SIAM
    Review 37, 1995); each row is a window of k + 1 terms, so a step costs
    O(k).  It stops at the first |kappa_m| >= 1, where the Toeplitz matrix of
    r[0..m] is not positive definite, and returns that kappa_m last.  It also
    stops once err has stayed unchanged in floating point (kappa_m^2 below
    half an ulp of 1) for k + 1 successive steps, the window's length.
    """
    u = [float(x) for x in r]
    v = u[1:] + [0.0]
    kappas, errs, same = [], [u[0]], 0
    for _ in range((len(u) if n is None else n) - 1):
        kappa = -v[0] / u[0]
        kappas.append(kappa)
        if not abs(kappa) < 1.0:
            break
        for i in range(1, len(u)):  # u <- u + kappa * v, v <- shifted (v + kappa * u)
            x, y = u[i], v[i]
            u[i], v[i - 1] = x + kappa * y, y + kappa * x
        v[-1] = 0.0
        err = u[0] * (1.0 - kappa * kappa)
        same = same + 1 if err == u[0] else 0
        u[0] = err
        errs.append(err)
        if same == len(u):
            break
    return kappas, errs


@dataclass(frozen=True)
class CovarianceSequence:
    """Autocovariances [R(0), R(1), ..., R(k)] of a stationary process."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) == 0:
            raise DomainError("covariance sequence needs at least R(0)")
        if len(vals) > MAX_LAGS + 1:
            raise DomainError(f"{len(vals) - 1} lags exceed the limit of {MAX_LAGS}")
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("covariances must be finite")
        r0 = vals[0]
        if not r0 > 0:
            raise DomainError(f"R(0) must be positive, got {r0!r}")
        # The Toeplitz matrix of R(0..k) must be positive semidefinite, up to
        # a relative 1e-12 raise of its diagonal (singular sequences pass).
        kappas, _ = reflection_coefficients((r0 * (1.0 + 1e-12),) + vals[1:])
        if len(kappas) == 1 and not abs(kappas[0]) < 1.0:
            raise DomainError(f"|R(1)| = {abs(vals[1])} exceeds R(0) = {r0} (Cauchy-Schwarz)")
        if kappas and not abs(kappas[-1]) < 1.0:
            raise DomainError(
                f"covariances R(0..{len(kappas)}) are not positive semidefinite "
                f"(reflection coefficient {kappas[-1]:.6g}); no process has them"
            )

    @property
    def k(self) -> int:
        """Number of positive lags carried."""
        return len(self.values) - 1

    def lag(self, m: int) -> float:
        """R(|m|), zero beyond the stored lags."""
        m = abs(int(m))
        return self.values[m] if m < len(self.values) else 0.0


@dataclass(frozen=True)
class SpectralDensity:
    """A power spectral density on [0, 2*pi]:

        Phi(lambda) = c_0 + 2 sum_m c_m cos(m*lambda)
                      + a (1 - w^2) / (1 + w^2 - 2w cos(lambda)),

    a cosine series plus a Markov term, with ``coefficients`` (c_0, .., c_L),
    ``a`` and ``omega`` = w, |w| < 1.  :meth:`cosine_series` sets a = w = 0,
    where the Markov term is exactly 0; :meth:`markov_mixture` a single c_0.
    Frozen: equal fields compare equal.  Construction checks Phi >= 0 (up to
    1e-9 max(1, max|Phi|)) and finiteness at 0, pi and the stationary points
    of e = Phi D (:meth:`product_series`), which has Phi's sign and, for a
    series or a mixture, its extremes: the roots of sum_m m e_m U_{m-1}(x),
    x = cos(lambda), from a comrade matrix.  A degree above MAX_LAGS raises first.
    """

    coefficients: tuple
    a: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.ndim != 1 or len(c) == 0:
            raise DomainError("cosine series needs a finite 1-D coefficient list")
        if not abs(self.omega) < 1:
            raise DomainError(f"markov mixture requires |omega| < 1, got {self.omega!r}")
        object.__setattr__(self, "coefficients", tuple(c.tolist()))
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "omega", float(self.omega))
        with np.errstate(all="ignore"):  # an overflow is reported below
            e = self.product_series(0.0)
            q, scale = cosine_degree(e)
            if q > MAX_LAGS:
                raise DomainError(f"cosine series of degree {q} exceeds the limit of {MAX_LAGS} lags")
            lam = np.array([0.0, math.pi])
            if q > 1 and math.isfinite(scale):
                comrade = 0.5 * (np.eye(q - 1, k=1) + np.eye(q - 1, k=-1))
                comrade[-1] -= np.arange(1, q) / (2 * q) * (e[1:q] / e[q])
                lam = np.concatenate((lam, np.arccos(np.linalg.eigvals(comrade).real.clip(-1.0, 1.0))))
            vals = self(lam)
            if not np.isfinite(vals).all() and np.isfinite(c).all() and math.isfinite(self.a):
                # an overflow inside the sum: Phi * 2**-k, from exactly scaled terms, cannot
                k = math.frexp(max(float(np.abs(c).max()), abs(self.a)))[1]
                scaled = self._evaluate(np.ldexp(c, -k), math.ldexp(self.a, -k), lam)
                low = int(np.argmin(scaled))
                if scaled[low] < -_NEGATIVITY_SLACK * float(np.abs(scaled).max()):
                    value = np.ldexp(scaled[low], k)
                    raise PsdValidationError(f"PSD is negative at lambda = {lam[low]:.6f} (value {value:.3e})")
        if not np.isfinite(vals).all():
            raise PsdValidationError(f"PSD is non-finite at lambda = {lam[~np.isfinite(vals)][0]:.6f}")
        if not math.isfinite(scale):
            raise PsdValidationError(f"PSD is too large to check: |e_0| + 2 sum|e_m| = {scale}")
        low = int(np.argmin(vals))
        if vals[low] < -_NEGATIVITY_SLACK * max(1.0, float(np.abs(vals).max())):
            raise PsdValidationError(f"PSD is negative at lambda = {lam[low]:.6f} (value {vals[low]:.3e})")

    @classmethod
    def cosine_series(cls, coefficients: Sequence[float]) -> "SpectralDensity":
        """c_0 + 2 * sum_m c_m cos(m*lambda) from coefficients [c_0, ..., c_L]."""
        c = np.asarray(coefficients, dtype=float)
        if not np.all(np.isfinite(c)):
            raise DomainError("cosine series needs a finite 1-D coefficient list")
        return cls(c)

    @classmethod
    def markov_mixture(cls, a: float, b: float, omega: float) -> "SpectralDensity":
        """a * (1 - omega^2) / (1 + omega^2 - 2*omega*cos(lambda)) + b."""
        return cls((b,), a, omega)

    def product_series(self, shift: float) -> np.ndarray:
        """(Phi + shift) D, D = |1 - w e^{i lambda}|^2, as a cosine series one degree
        longer: c + shift e_0 convolved with (-w, 1 + w^2, -w), plus a (1 - w^2) on e_0.
        Its log-integral is Phi + shift's: (1/2pi) Int log D = 0 for |w| < 1 (Kolmogorov-Szego)."""
        c = np.array(self.coefficients)
        c[0] += shift
        w = self.omega
        e = np.convolve(np.concatenate((c[:0:-1], c)), [-w, 1.0 + w * w, -w])[len(c) :]
        e[0] += self.a * (1.0 - w * w)
        return e

    def __call__(self, lam):
        scalar = np.isscalar(lam)
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        out = self._evaluate(np.array(self.coefficients), self.a, lam)
        return float(out[0]) if scalar else out

    def _evaluate(self, c: np.ndarray, a: float, lam: np.ndarray) -> np.ndarray:
        """Phi at lam with coefficients c and Markov weight a in place of its own."""
        series = c[0] + 2.0 * np.cos(np.multiply.outer(lam, np.arange(1, len(c)))) @ c[1:]
        w = self.omega
        return series + a * (1.0 - w**2) / (1.0 + w**2 - 2.0 * w * np.cos(lam))


@dataclass(frozen=True)
class ToeplitzSpec:
    """Symmetric banded Toeplitz matrix given by its symbol coefficients.

    Entry (i, j) equals ``diagonal`` when i = j and ``off_diagonals[|i-j|-1]``
    for 1 <= |i-j| <= bandwidth, zero beyond.  The strict diagonal-dominance
    flag implements the sufficient positive-definiteness criterion
    sum_{j != 0} |h(j)| < h(0).
    """

    diagonal: float
    off_diagonals: tuple
    n: int
    strictly_diagonally_dominant: bool = field(init=False)

    def __post_init__(self):
        offs = tuple(float(v) for v in self.off_diagonals)
        object.__setattr__(self, "off_diagonals", offs)
        if self.n < 1:
            raise DomainError("matrix dimension must be positive")
        dominant = 2.0 * sum(abs(v) for v in offs) < self.diagonal
        object.__setattr__(self, "strictly_diagonally_dominant", bool(dominant))

    def matrix(self) -> np.ndarray:
        """Dense realization (for small n / testing)."""
        band = np.array((self.diagonal,) + self.off_diagonals + (0.0,), dtype=float)
        lags = np.abs(np.subtract.outer(np.arange(self.n), np.arange(self.n)))
        return band[np.minimum(lags, len(band) - 1)]


def psd_from_finite_covariance(cov: CovarianceSequence) -> SpectralDensity:
    """Cosine-series PSD with c_m = R(m): the PSD of the sequence extended by
    zeros, exact when the covariance vanishes beyond the stored lags (MA-type
    processes)."""
    return SpectralDensity.cosine_series(cov.values)


def closed_form_log_cos_integral(s: float) -> float:
    """(1/2pi) * integral of log(1 + s*cos(lambda)) over [0, 2*pi], |s| <= 1.

    Evaluated as log((1 + sqrt(1 - s^2)) / 2), which is algebraically equal
    to -log((2 - 2*sqrt(1 - s^2)) / s^2) for s != 0 and is exact (0) at s = 0.
    """
    if not abs(s) <= 1.0:
        raise DomainError(f"closed form requires |s| <= 1, got {s!r}")
    return math.log(0.5 * (1.0 + math.sqrt(1.0 - s * s)))


def integrate_periodic(f: Callable) -> float:
    """Integrate a continuous 2*pi-periodic function over [0, 2*pi].

    ``f`` is vectorized: it takes an array of nodes and returns an array of
    the same shape.  A wrong shape or a non-finite value raises DomainError,
    and so does any DomainError of ``f``.  Composite trapezoid rule
    (spectrally accurate for smooth periodic integrands) with node doubling,
    reusing the previous nodes, until two successive estimates differ by
    less than ``ABS_TOL`` (relatively ``REL_TOL`` for large values); beyond
    ``MAX_POINTS`` nodes it raises ConvergenceError with the last two.  No
    bound calls it: it is the reference the closed forms are tested against.
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


def _check_dimension(n: int) -> None:
    if not (isinstance(n, (int, np.integer)) and 1 <= n <= MAX_POINTS):
        raise DomainError(f"n must lie in [1, {MAX_POINTS}] and be an integer, got {n!r}")


def toeplitz_gaussian_bound_finite(cov: CovarianceSequence, n: int) -> float:
    """Finite-n Gaussian bound (1/n)[(n/2) log(2*pi*e) + (1/2) log det(K + I/12)].

    K is the n x n Toeplitz matrix with entries R(|i-j|) (zero beyond the
    stored lags).  log det(K + I/12) is the sum of log err_m, m < n, from
    :func:`reflection_coefficients` on (R(0) + 1/12, R(1), .., R(k)), O(k) a
    step.  Where that recursion stops early at step M, err_M stands in for
    the later err_m; err is non-increasing, so the truncated tail can only
    raise the value, which stays an upper bound up to rounding.  n is an
    integer in [1, MAX_POINTS], checked before any work.
    """
    _check_dimension(n)
    kappas, errs = reflection_coefficients((cov.values[0] + 1.0 / 12.0,) + cov.values[1:], n)
    if kappas and not abs(kappas[-1]) < 1.0:
        raise DomainError("Toeplitz matrix K + I/12 is not positive definite; the covariance sequence is invalid")
    logdet = math.fsum(map(math.log, errs)) + (n - len(errs)) * math.log(errs[-1])
    return 0.5 * math.log(TWO_PI * math.e) + logdet / (2.0 * n)


def fiedler_determinant_check(
    eigs_a: Sequence[float], eigs_b: Sequence[float], det_sum: float
) -> bool:
    """Check prod(a_i + b_i) <= det_sum <= prod(a_i + b_{n+1-i}).

    Eigenvalue lists are sorted internally; both must be positive and of
    equal length n <= 16.  A relative slack of 1e-9 absorbs rounding in
    the supplied determinant.
    """
    a = np.sort(np.asarray(eigs_a, dtype=float))[::-1]
    b = np.sort(np.asarray(eigs_b, dtype=float))[::-1]
    if a.shape != b.shape:
        raise DomainError("eigenvalue lists must have equal length")
    if len(a) > 16:
        raise DomainError("check is restricted to n <= 16")
    if not (np.all(a > 0) and np.all(b > 0)):
        raise DomainError("eigenvalues must be positive")
    lower = float(np.prod(a + b))
    upper = float(np.prod(a + b[::-1]))
    slack = 1e-9
    return lower * (1.0 - slack) <= det_sum <= upper * (1.0 + slack)


def tridiagonal_determinant(alpha: float, beta: float, n: int) -> float:
    """Determinant of the n x n tridiagonal Toeplitz matrix tri(beta, alpha, beta).

    Uses the recursion phi_{m+2} = alpha*phi_{m+1} - beta^2*phi_m with
    phi_0 = 1, phi_1 = alpha; valid (positive definite) for |beta| < alpha/2.
    n is an integer in [1, MAX_POINTS], checked before any work.
    """
    _check_dimension(n)
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    if not abs(beta) < alpha / 2.0:
        raise DomainError(f"positive definiteness requires |beta| < alpha/2, got beta={beta!r}")
    prev, cur = 1.0, alpha
    for _ in range(n - 1):
        prev, cur = cur, alpha * cur - beta * beta * prev
    return cur

"""Entropy-rate upper bounds in nats.

Four single-letter bounds for discrete-valued stationary processes, all
driven by second-order statistics:

* :func:`gaussian_psd_bound` - 1/2 log(2*pi*e) + (1/4pi) Int log(Phi + 1/12),
  needing the full spectral density;
* :func:`tdist_bound_k` - a minimization over a banded t-reference family,
  needing only the first k autocovariances;
* :func:`tdist_bound_1` - the closed-form order-1 special case;
* :func:`gaussian_bound_k` - Burg's order-k maximum-entropy value.

Plus the exact Gaussian (Kolmogorov) differential entropy rate and the
one-dimensional maximum-entropy bound they all degenerate to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    ABS_TOL, LOG_2PI_E, MAX_POINTS, TWO_PI, ConvergenceError, DomainError, univariate_me_bound,
)
from .spectrum import CovarianceSequence, SpectralDensity, closed_form_log_cos_integral, cosine_degree
from .spectrum import reflection_coefficients


# In _cosine_log_integral a root within _NEAR_CIRCLE of the unit circle may be
# a zero of Phi, and a root pair beyond _EXTREME is divided out first.
_NEAR_CIRCLE, _EXTREME = 1e-3, 1e2
_EPS = np.finfo(float).eps

# Primal-dual solve of the boundary case: multipliers start at _MU_START /
# slack; each step goes _STEP_FRACTION of the way to the nearest bound; after
# a step that raised slack . multipliers, the centring weight is at least
# _SIGMA_FLOOR; the solve stops once slack . multipliers <= _PATH_GAP, and
# gives up once it exceeds _DIVERGED times its start.
_MU_START = 1e-2
_PATH_GAP = 1e-13
_STEP_FRACTION = 0.99
_SIGMA_FLOOR = 0.3
_MAX_ITERATIONS = 100
_DIVERGED = 1e12


@dataclass
class BoundResult:
    """A bound value plus diagnostics.  ``duality_gap`` is the value minus a
    weak-duality lower bound, so it certifies how far ``value`` can lie above the
    infimum; ``optimizer_iterations`` counts primal-dual iterations (0 for closed forms)."""

    value: float
    argmin: list | None = None
    optimizer_iterations: int = 0
    duality_gap: float = 0.0


def _deflate(poly: np.ndarray, root) -> np.ndarray:
    """The quotient of poly by z - root, by synthetic division (Horner)."""
    quotient = np.array(poly[:-1], dtype=np.result_type(poly, root))
    for i in range(1, len(quotient)):
        quotient[i] += root * quotient[i - 1]
    return quotient


def _cosine_log_integral(c: np.ndarray) -> float:
    """(1/2pi) Int log Phi for Phi(lambda) = c_0 + 2 sum_m c_m cos(m*lambda) >= 0.

    Jensen's formula on the palindromic z^q Phi(z), z = e^{i lambda}: log|c_q| plus
    log|r| over its roots outside the unit circle, once ``cosine_degree`` drops the
    terms below eps*scale.  A zero of Phi on the circle is a multiple root, resolved
    to about eps^(1/m): a root within _NEAR_CIRCLE of the circle where Phi <= 64
    eps*scale adds 0, exact for c_0 lowered that much.  The flip c_m -> (-1)^m c_m
    (Phi(pi - lambda)) keeps the integral; the solve takes the orientation whose
    first nonzero odd c_m is positive, so the value keeps it bit for bit.  Degree 0
    and 1 take the closed form log c_0 + :func:`closed_form_log_cos_integral`
    (2 c_1 / c_0), the ratio clamped to [-1, 1], and -inf for c_0 <= 0.
    """
    odd = c[1::2][c[1::2] != 0.0]
    if len(odd) and odd[0] < 0.0:
        c = c * (-1.0) ** np.arange(len(c))
    q, scale = cosine_degree(c)
    if q <= 1:  # log c_0 + (1/2pi) Int log(1 + (2 c_1 / c_0) cos), in closed form
        if not c[0] > 0.0:
            return -math.inf
        ratio = max(-1.0, min(1.0, 2.0 * c[1] / c[0])) if q else 0.0
        return math.log(c[0]) + closed_form_log_cos_integral(ratio)
    series = 2.0 * c[: q + 1]
    series[0] = c[0]
    poly = np.concatenate((c[q:0:-1], c[: q + 1]))
    roots = np.roots(poly)
    big = roots[np.abs(roots) > _EXTREME]
    # an extreme pair (R, 1/R) grades the companion matrix and blurs the other
    # roots: forward division by z - 1/R, on poly and on its reversal, removes it
    for small in 1.0 / big:
        poly = _deflate(_deflate(poly, small)[::-1], small)[::-1]
    if len(big):
        roots = np.concatenate((big, np.roots(poly)))
    outside = roots[np.abs(roots) > 1.0]
    logs = np.log(np.abs(outside))
    near = logs < _NEAR_CIRCLE
    if near.any():
        phi = series @ np.cos(np.multiply.outer(np.arange(q + 1), np.angle(outside[near])))
        logs[near] = np.where(phi <= 64.0 * _EPS * scale, 0.0, logs[near])
    return math.log(abs(c[q])) + float(logs.sum())


def gaussian_entropy_rate(psd: SpectralDensity) -> float:
    """Exact differential entropy rate of the Gaussian process with this PSD.

    1/2 log(2*pi*e) + (1/4pi) Int_0^{2pi} log Phi(lambda) d lambda (Kolmogorov-
    Szego), in closed form.  A zero of Phi is an integrable log singularity:
    the rate is finite unless Phi vanishes identically.
    """
    return 0.5 * (LOG_2PI_E + _cosine_log_integral(psd.product_series(0.0)))


def gaussian_psd_bound(psd: SpectralDensity) -> BoundResult:
    """Entropy-rate bound from the spectral density.

    1/2 log(2*pi*e) + (1/4pi) Int log(Phi(lambda) + 1/12); always finite
    because the shifted integrand is bounded below by log(1/12).
    """
    return BoundResult(value=0.5 * (LOG_2PI_E + _cosine_log_integral(psd.product_series(1.0 / 12.0))))


def tdist_bound_1(r0: float, r1: float) -> BoundResult:
    """Order-1 bound from R(0) and R(1), in closed form.

    inf over s in (-1, 1) of
    1/2 log(4*pi*e * ((R(0) + 1/12) + s*R(1)) / (1 + sqrt(1 - s^2)))
    equals 1/2 log(2*pi*e * (sigma - R(1)^2 / sigma)) with sigma = R(0) + 1/12,
    attained at s* = -2*rho / (1 + rho^2), rho = R(1) / sigma.  The argument is
    ((R(0) - |R(1)|) + 1/12) * (1 + |R(1)| / sigma), which neither cancels nor overflows.
    """
    if not (0 < r0 < math.inf and math.isfinite(r1)):
        raise DomainError(f"need a finite R(0) > 0 and a finite R(1), got {r0!r}, {r1!r}")
    gap = (r0 - abs(r1)) + 1.0 / 12.0
    if abs(r1) > r0 * (1.0 + 1e-12) or not gap > 0:
        raise DomainError(f"|R(1)| = {abs(r1)} exceeds R(0) = {r0}")
    sig = r0 + 1.0 / 12.0
    rho = r1 / sig
    return BoundResult(
        value=0.5 * (LOG_2PI_E + math.log(gap * (1.0 + abs(r1) / sig))),
        argmin=[-2.0 * rho / (1.0 + rho * rho)],
    )


def _cosine_table(k: int, n: int) -> np.ndarray:
    """cos(m*lambda) for m = 0..k on the n uniform nodes of [0, 2*pi)."""
    lam = TWO_PI * np.arange(n) / n
    return np.cos(np.multiply.outer(np.arange(k + 1), lam))


@np.errstate(over="raise", divide="raise", invalid="raise")
def _central_path(a: np.ndarray, table: np.ndarray):
    """Primal-dual solve of min a.p - mean log Psi_p over sum_m |p_m| <= p_0.

    Psi_p(lambda) = p_0 + sum_m p_m cos(m*lambda), averaged over the nodes
    of ``table``.  The state is one vector x = (p_0..p_k, t_1..t_k, s, lam)
    with views p, t, s, lam: the 2k + 1 slacks s = (t_m - p_m, t_m + p_m,
    p_0 - sum_m t_m) and their multipliers lam.  Mehrotra predictor-corrector
    steps (Mehrotra, SIAM J. Optim. 2, 1992) condense t out of each Newton
    system in closed form and write the direction into dx, laid out like x;
    one ratio test on the (s, lam) block sets the step h of x + h*dx.  s is
    an iterate, not recomputed from x: t_m - p_m cancels to 0 near the end.
    Stops when s.lam <= _PATH_GAP; returns ((p, t), iterations).  Raises
    ConvergenceError with the last finite (s.lam, residual) and the iterations
    run after _MAX_ITERATIONS, past _DIVERGED, or at a step that overflows.
    """
    k, n = len(a) - 1, table.shape[1]
    x, dx = np.zeros((2, 6 * k + 3))
    (p, t, s, lam), (dp, dt, ds, dlam) = (np.split(v, [k + 1, 2 * k + 1, 4 * k + 2]) for v in (x, dx))
    sx, dsx = x[2 * k + 1 :], dx[2 * k + 1 :]  # the (s, lam) block
    p[0], t[:] = 1.0 / a[0], 1.0 / ((k + 1) * a[0])
    s[:k], s[k:-1], s[-1] = t - p[1:], t + p[1:], p[0] - t.sum()
    np.divide(_MU_START, s, out=lam)
    e, buf = np.ones(k + 1), np.empty(k + 1)  # e[0] stays 1; buf is scratch laid out like p

    def direction(r_c):  # writes (dp, dt, ds, dlam) into dx
        v = r_c / s
        b_t = v[:k] + v[k:-1] - v[-1] - r_t
        sig_t = (b_t / d).sum()
        buf[0], buf[1:] = v[-1], v[k:-1] - v[:k] - e[1:] * b_t
        y = scale * (inv @ (scale * (rho * sig_t * e - r_p + buf)))
        np.subtract(y, (e @ y) * z, out=dp)
        np.subtract((b_t - rho * (sig_t - e @ dp)) / d, e[1:] * dp[1:], out=dt)
        ds[:k], ds[k:-1], ds[-1] = dt - dp[1:], dt + dp[1:], dp[0] - dt.sum()
        np.divide(r_c - lam * ds, s, out=dlam)

    def max_step():  # the min of a concatenation is the min of the mins
        low = (dsx / sx).min()
        return math.inf if low >= 0.0 else -1.0 / low

    rose, last = False, None
    try:
        for steps in range(_MAX_ITERATIONS + 1):
            # dual residuals: gradient minus constraint normals times multipliers
            w = table / (p @ table)
            buf[0], buf[1:] = lam[-1], lam[k:-1] - lam[:k]
            r_p = a - w.sum(axis=1) / n - buf
            r_t = lam[-1] - lam[:k] - lam[k:-1]
            gap = float(s @ lam)
            last = gap, r_p, r_t
            if gap <= _PATH_GAP:
                return x[: 2 * k + 1].copy(), steps
            if steps == _MAX_ITERATIONS or gap > _DIVERGED * _MU_START * len(s):
                break
            # Newton system condensed onto p: with q = lam/s, eliminating t leaves
            # W + diag(0, 4 q1 q2/(q1 + q2)) + rho e e^T, solved by diagonal
            # scaling plus Sherman-Morrison for the rank-one term
            q = lam / s
            q1, q2, q3 = q[:k], q[k:-1], q[-1]
            d = q1 + q2
            np.divide(q2 - q1, d, out=e[1:])
            rho = 1.0 / (1.0 / q3 + (1.0 / d).sum())
            hess = (w @ w.T) / n
            hess.reshape(-1)[k + 2 :: k + 2] += 4.0 * q1 * q2 / d  # (m, m) for m = 1..k
            scale = 1.0 / np.sqrt(hess.diagonal())
            inv = np.linalg.inv(hess * scale * scale[:, None])
            z = scale * (inv @ (scale * e))
            z *= rho / (1.0 + rho * (e @ z))
            s_lam = s * lam
            direction(-s_lam)
            h = min(1.0, max_step())
            ahead = sx + h * dsx
            sigma = ((ahead[: 2 * k + 1] @ ahead[2 * k + 1 :]) / gap) ** 3
            if rose:
                sigma = max(sigma, _SIGMA_FLOOR)
            direction(sigma * gap / len(s) - s_lam - ds * dlam)
            h = min(1.0, _STEP_FRACTION * max_step())
            x += h * dx
            rose = float(s @ lam) > gap
    except FloatingPointError:  # a step overflowed: stop at the last finite iterate
        pass
    estimates = () if last is None else (last[0], max(np.abs(last[1]).max(), np.abs(last[2]).max()))
    message = f"order-k primal-dual solve stalled after {steps} iterations"
    raise ConvergenceError(message, estimates=estimates, iterations=steps)


def _dual_bound(a: np.ndarray, beta: np.ndarray, table: np.ndarray) -> float:
    """A lower bound on the order-k minimum from the moments of 1/Psi at beta.

    For mu >= 0 and |z_m| <= mu, weak duality bounds the minimum below by the
    Gaussian maximum-entropy value of (a_0 - mu, a_1 + z_1, ..., a_k + z_k),
    from its order-k prediction error.  The multipliers are read off
    g_m = mean(cos(m*lambda) / Psi_p) at p = (1, beta) / Sigma(beta)
    through the KKT conditions g = (a_0 - mu, a_1 + z_1, ...), so the
    bound is tight when beta is optimal.
    """
    g = (a[0] + beta @ a[1:]) * (table / (1.0 + beta @ table[1:])).mean(axis=1)
    mu = max(0.0, a[0] - g[0])
    dual = np.concatenate(([a[0] - mu], a[1:] + np.clip(g[1:] - a[1:], -mu, mu)))
    kappas, errs = reflection_coefficients(dual)
    if not (dual[0] > 0.0 and abs(kappas[-1]) < 1.0):
        return -math.inf
    return 0.5 * (LOG_2PI_E + math.log(errs[-1]))


def _burg(cov: CovarianceSequence) -> tuple[np.ndarray, np.ndarray, float]:
    """(R(0) + 1/12, R(1..k)), its prediction polynomial (stepped up from the
    reflection coefficients, a <- a + kappa * reversed(a)) and error."""
    a = np.asarray(cov.values, dtype=float)
    a[0] += 1.0 / 12.0
    kappas, errs = reflection_coefficients(a)
    if kappas and not abs(kappas[-1]) < 1.0:
        raise DomainError("Toeplitz matrix of R(0..k) + I/12 is not positive definite")
    poly = [1.0]
    for kappa in kappas:
        poly = [x + kappa * y for x, y in zip(poly + [0.0], [0.0] + poly[::-1])]
    return a, np.array(poly), errs[-1]


def gaussian_bound_k(cov: CovarianceSequence) -> BoundResult:
    """Burg's bound 1/2 log(2*pi*e*sigma_k^2), sigma_k^2 the order-k prediction
    error of the dithered covariances (R(0) + 1/12, R(1..k)): no process with
    them beats the Gaussian AR(k) (Cover & Thomas, Thm 12.6.1)."""
    return BoundResult(value=0.5 * (LOG_2PI_E + math.log(_burg(cov)[2])))


def tdist_bound_k(cov: CovarianceSequence) -> BoundResult:
    """Order-k bound from the covariances [R(0), ..., R(k)].

    Minimizes 1/2 log(2*pi*e*Sigma(beta)) - (1/4pi) Int log Psi(beta, lambda)
    over sum|beta_m| < 1, where Sigma(beta) = (R(0) + 1/12) + sum_m beta_m R(m)
    and Psi(beta, lambda) = 1 + sum_m beta_m cos(m*lambda).  Psi(t*beta) >=
    t*Psi(beta) for t in [0, 1], so by dominated convergence the infimum is
    the minimum over the closed region sum|beta_m| <= 1.

    Without the region the minimum is Burg's maximum-entropy value
    1/2 log(2*pi*e*sigma_k^2), with sigma_k^2 the order-k prediction error
    of (R(0) + 1/12, R(1), ..., R(k)) and beta_m = 2 c_m / c_0,
    c_m = sum_j a_j a_{j+m} for its prediction polynomial a.  When that
    beta lies in the region it is returned as is.
    Otherwise the minimum lies on the region's boundary; the problem is convex
    in the precision coordinates p = (1, beta) / Sigma(beta) and is solved by
    a primal-dual interior-point method on 256 quadrature nodes, doubled while
    the gap is at least ``numerics.ABS_TOL``.  The value is the exact objective
    (Jensen's formula) at the solution scaled onto the boundary, and
    ``duality_gap`` is the value minus a weak-duality bound from the same
    nodes: the infimum lies in [value - gap, value].
    """
    k = cov.k
    if k == 0:
        return BoundResult(value=univariate_me_bound(cov.values[0]), argmin=[])
    a, poly, err = _burg(cov)
    c = np.correlate(poly, poly, "full")[k:]
    beta = 2.0 * c[1:] / c[0]
    if np.abs(beta).sum() <= 1.0:
        return BoundResult(
            value=0.5 * (LOG_2PI_E + math.log(err)),
            argmin=[float(b) for b in beta],
        )

    steps, estimates = 0, ()
    for level in range(8, MAX_POINTS.bit_length()):  # 256, 512, ..., MAX_POINTS nodes
        table = _cosine_table(k, 2**level)
        try:
            x, used = _central_path(a, table)
        except ConvergenceError as stalled:  # try the next level
            steps += stalled.iterations
            continue
        steps += used
        # the path stops just inside the region: scale beta onto its boundary,
        # take the exact objective there and certify it on the same table
        path_beta = x[1 : k + 1] / x[0]
        beta = path_beta / np.abs(path_beta).sum()
        log_psi = _cosine_log_integral(np.concatenate(([1.0], 0.5 * beta)))
        value = 0.5 * (LOG_2PI_E + math.log(a[0] + beta @ a[1:]) - log_psi)
        gap = value - _dual_bound(a, path_beta, table)
        estimates = (value, gap)
        if gap < ABS_TOL:
            argmin = [float(b) for b in beta]
            return BoundResult(value, argmin, optimizer_iterations=steps, duality_gap=gap)
    message = f"order-k duality gap not below {ABS_TOL} within {MAX_POINTS} nodes"
    raise ConvergenceError(message, estimates=estimates)

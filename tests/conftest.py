import csv
import math
import pathlib

import numpy as np
import pytest

DATA_DIR = pathlib.Path(__file__).parent / "data"


def load_reference(name: str) -> list[dict]:
    """Rows of a frozen reference table, all fields as floats."""
    with open(DATA_DIR / name) as f:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]


def random_ma_covariance(rng: np.random.Generator, max_lags: int = 4, lags: int | None = None):
    """A random finitely-supported covariance sequence (always a valid PSD).

    Built as the autocorrelation of a random coefficient vector, so the
    implied spectral density is |hat c|^2 >= 0 by construction.  The number
    of lags is ``lags`` if given, else drawn uniformly from 1..max_lags.
    """
    from entrobound import CovarianceSequence

    L = lags if lags is not None else int(rng.integers(1, max_lags + 1))
    c = rng.normal(size=L + 1)
    values = [float(np.dot(c[: L + 1 - k], c[k:])) for k in range(L + 1)]
    return CovarianceSequence(tuple(values))


def banded_cholesky_bound(values, n: int) -> float:
    """1/2 log(2*pi*e) + log det(K + I/12) / (2n) through scipy's banded Cholesky
    factorization, O(n * k^2): the reference for
    ``spectrum.toeplitz_gaussian_bound_finite``.

    K is the n x n Toeplitz matrix of ``values`` = R(0..k), zero beyond lag k.
    Raises ``scipy.linalg.LinAlgError`` where K + I/12 is not positive definite.
    """
    from scipy import linalg

    k = min(len(values) - 1, n - 1)
    ab = np.zeros((k + 1, n))
    ab[0, :] = values[0] + 1.0 / 12.0
    for i in range(1, k + 1):
        ab[i, : n - i] = values[i]
    logdet = 2.0 * float(np.sum(np.log(linalg.cholesky_banded(ab, lower=True)[0, :])))
    return 0.5 * math.log(2.0 * math.pi * math.e) + logdet / (2.0 * n)


def _rectangle_cells(sd: float, rho: float):
    """Exact cell probabilities of Y = Q(U), (U_0, U_1) bivariate normal.

    U_0 and U_1 have mean 0, standard deviation ``sd`` and correlation
    ``rho``, and Y = Q(U) puts each integer i on the cell (i - 1/2, i + 1/2).
    Cell probabilities are four-corner differences of the bivariate normal
    CDF, written with Owen's T function (Owen 1956, Ann. Math. Statist.
    27:1075):

        Phi2(h, k; rho) = Phi(h)/2 + Phi(k)/2 - T(h, a_h) - T(k, a_k) - beta,
        a_h = (k - rho h) / (h sqrt(1 - rho^2)), beta = 1/2 if h k < 0 else 0.

    Cell edges are half-integers, so h and k are never 0.  Every cell is
    taken from the quadrant i, j <= 0: U_0 -> -U_0 maps cell i to cell -i
    and rho to -rho, so P(i, j; rho) = P(-|i|, -|j|; rho sign(i j)).  In
    that quadrant no corner lies above 1/2, so a tail cell is a difference
    of values no larger than its tail and keeps its digits; corners near 1
    would leave round-off of 1e-16 in every tail cell, about 2e-11 in H at
    scale 10.
    The index box |i| <= 14 sd + 2 leaves out less than 1e-12 of the mass.
    Returns the indices i, the joint table P(Y_0 = i, Y_1 = j) and the
    marginal cells.
    """
    from scipy.special import ndtr, owens_t

    bound = math.ceil(14.0 * sd) + 2
    h = (np.arange(-bound, 2) - 0.5) / sd  # the corners of cells -bound..0
    x, y = np.meshgrid(h, h, indexing="ij")

    def quadrant(r):
        s = math.sqrt(1.0 - r * r)
        cdf = (
            0.5 * ndtr(x)
            + 0.5 * ndtr(y)
            - owens_t(x, (y - r * x) / (x * s))
            - owens_t(y, (x - r * y) / (y * s))
            - np.where(x * y < 0.0, 0.5, 0.0)
        )
        return cdf[1:, 1:] - cdf[:-1, 1:] - cdf[1:, :-1] + cdf[:-1, :-1]

    i = np.arange(-bound, bound + 1)
    folded = np.ix_(bound - np.abs(i), bound - np.abs(i))
    joint = np.where(np.multiply.outer(i, i) < 0, quadrant(-rho)[folded], quadrant(rho)[folded])
    marginal = np.diff(ndtr(h))
    return i, joint, np.concatenate([marginal, marginal[-2::-1]])


def rectangle_conditional_entropy(sd: float, rho: float) -> float:
    """H(Y_1 | Y_0) for Y = Q(U) from the exact rectangle cells above.

    An oracle independent of the library's s-grid quadrature.
    """
    _, joint, marginal = _rectangle_cells(sd, rho)
    # the four-corner difference leaves round-off negatives in the tails
    joint = np.clip(joint, 0.0, None)

    def entropy(p):
        p = p[p > 0.0]
        return float(-np.sum(p * np.log(p)))

    return entropy(joint.ravel()) - entropy(marginal)


def quantized_rectangle_cross_moment(var: float, cov: float) -> float:
    """E[Q(U_0) Q(U_1)] = sum_ij i j P(Y_0 = i, Y_1 = j) over the exact cells.

    U_0 and U_1 are centred normal with variance ``var`` and covariance
    ``cov``.  An oracle that shares nothing with the Fourier sums of
    :func:`quantized_cross_moment` or of the library: the cells come from
    Owen's T function.  Agrees with the 40-digit oracle to about 1e-14
    relative wherever the moment is not far below ``var``.
    """
    i, joint, _ = _rectangle_cells(math.sqrt(var), cov / var)
    return float(i @ joint @ i)


def qma_rectangle_conditional_entropy(sigma: float, theta: float) -> float:
    """H(Y_{n+1} | Y_n) of the quantized MA(1) from exact rectangle probabilities.

    (X_n, X_{n+1}) has variance sigma^2 (1 + theta^2) and correlation
    theta / (1 + theta^2).
    """
    sd = sigma * math.sqrt(1.0 + theta * theta)
    return rectangle_conditional_entropy(sd, theta / (1.0 + theta * theta))


def qar_rectangle_conditional_entropy(sigma: float, phi: float, nu: float) -> float:
    """H(Y_1 | Y_0) of the quantized-hidden AR(1) from exact rectangle probabilities.

    U_n = X_n + V_n has variance sigma0^2 + nu^2, with sigma0^2 the stationary
    AR variance sigma^2 / (1 - phi^2), and lag-1 correlation
    phi sigma0^2 / (sigma0^2 + nu^2).
    """
    var0 = sigma * sigma / (1.0 - phi * phi)
    var = var0 + nu * nu
    return rectangle_conditional_entropy(math.sqrt(var), phi * var0 / var)


def cell_conditional_entropy(var: float, cov: float, dps: int = 15):
    """H(Y_1 | Y_0) for Y = Q(U), (U_0, U_1) centred normal with variance
    ``var`` and covariance ``cov``, from mpmath cell integrals.

    Each cell P(Y_0 = i, Y_1 = j) is the integral over U_0 in cell i of the
    normal density times the conditional cell probability of U_1, done by
    tanh-sinh quadrature on the integrand scaled to 1 at the cell edges, so
    that a cell of 1e-300 gets the same relative accuracy as a cell of 1.
    Row i enters as sum_j p_ij log(row / p_ij) over its other cells plus
    -p_max log1p(-rest / row) for its largest one: no difference of
    near-equal numbers, so tiny H keep their digits (matches dps = 30 to
    1e-12 relative on the fig3 sigma = 0.05 grid).  Rows |i| <= 8 sd + 1,
    and in row i the columns within 8 conditional sds + 1 of rho i, the
    conditional mean of U_1 at the row's centre; meant for small scales (sd
    below about 0.3), where that is a handful of cells.
    """
    import mpmath

    with mpmath.workdps(dps):
        v = mpmath.mpf(var)
        rho = mpmath.mpf(cov) / v
        sd = mpmath.sqrt(v)
        sc = mpmath.sqrt(v * (1 - rho * rho))
        r2 = mpmath.sqrt(2)

        def cell(lo, hi):
            # P(N(0, 1) in [lo, hi]) without cancellation in either tail
            if lo >= 0:
                return (mpmath.erfc(lo / r2) - mpmath.erfc(hi / r2)) / 2
            if hi <= 0:
                return (mpmath.erfc(-hi / r2) - mpmath.erfc(-lo / r2)) / 2
            return 1 - (mpmath.erfc(-lo / r2) + mpmath.erfc(hi / r2)) / 2

        def joint(i, j):
            def f(u):
                return mpmath.exp(-u * u / (2 * v)) * cell((j - 0.5 - rho * u) / sc, (j + 0.5 - rho * u) / sc)

            ends = [i - mpmath.mpf(1) / 2, i + mpmath.mpf(1) / 2]
            top = max(f(u) for u in ends)
            return top * mpmath.quad(lambda u: f(u) / top, ends) / (sd * mpmath.sqrt(2 * mpmath.pi))

        # rho u spans rho/2 across a cell
        reach = int(8 * float(sc) + abs(float(rho)) / 2) + 1
        h = mpmath.mpf(0)
        for i in range(int(8 * float(sd)) + 2):
            if i == 0:  # row 0 is symmetric: P(0, -j) = P(0, j)
                half = [joint(0, j) for j in range(1, reach + 1)]
                cells = sorted([joint(0, 0)] + half + half)
            else:  # rows i and -i are mirror images
                mid = round(float(rho) * i)
                cells = sorted(joint(i, j) for j in range(mid - reach, mid + reach + 1))
            rest = mpmath.fsum(cells[:-1])
            row = cells[-1] + rest
            row_h = mpmath.fsum(p * mpmath.log(row / p) for p in cells[:-1] if p > 0)
            row_h -= cells[-1] * mpmath.log1p(-rest / row)
            h += row_h if i == 0 else 2 * row_h
        return h


def quantized_second_moment(var: float):
    """E[Q(X)^2] for X ~ N(0, var), as a 40-digit mpmath value.

    The direct cell sum of k^2 P(Q = k) over both tails, with no Fourier
    series: an oracle independent of the library's sums.
    """
    import mpmath

    with mpmath.workdps(40):
        s = mpmath.sqrt(2 * mpmath.mpf(var))
        return sum(
            k * k * (mpmath.erfc((k - 0.5) / s) - mpmath.erfc((k + 0.5) / s))
            for k in range(1, int(14 * math.sqrt(var)) + 3)
        )


def quantized_cross_moment(var_x: float, var_y: float, cov: float, terms: int = 8):
    """E[Q(X) Q(Y)] for centred jointly normal (X, Y), as a 40-digit mpmath value.

    An oracle independent of the library's quadrature.  Write Q(x) = x - e(x)
    with the sawtooth e(x) = sum_{k>=1} (-1)^(k+1) sin(2 pi k x) / (pi k).
    Gaussian characteristic functions give, with a = 2 pi^2,

        E[X e(Y)]    = 2 cov sum_k (-1)^(k+1) exp(-a k^2 var_y),
        E[e(X) e(Y)] = sum_{k,l} (-1)^(k+l) / (2 pi^2 k l)
                       * (exp(-a q(k, -l)) - exp(-a q(k, l))),
        q(k, l)      = k^2 var_x + 2 k l cov + l^2 var_y,

    so E[Q(X) Q(Y)] = cov - E[X e(Y)] - E[e(X) Y] + E[e(X) e(Y)].  Since
    q(k, l) >= (min(var_x, var_y) - |cov|)(k^2 + l^2), the terms beyond
    ``terms`` are below exp(-a (min var - |cov|) terms^2); the oracle needs
    min var - |cov| well above 0 (it does not cover E[Q(X)^2]).  A pair whose
    exponents a q(k, l) and a q(k, -l) both exceed 100 (checked in double) is
    skipped: its term is below e^-100 < 4e-44.  So hundreds of terms a side
    cost 40-digit work only on the pairs that matter.
    """
    import mpmath

    with mpmath.workdps(40):
        vx, vy, c = mpmath.mpf(var_x), mpmath.mpf(var_y), mpmath.mpf(cov)
        a = 2 * mpmath.pi**2

        def q(k, l):
            return k * k * vx + 2 * k * l * c + l * l * vy

        def negligible(k, l):
            return min(k * k * var_x + s * 2 * k * l * cov + l * l * var_y for s in (-1, 1)) * 2 * math.pi**2 > 100

        total = c
        for k in range(1, terms + 1):
            total -= (-1) ** (k + 1) * 2 * c * (mpmath.exp(-a * k * k * vx) + mpmath.exp(-a * k * k * vy))
            for l in range(1, terms + 1):
                if negligible(k, l):
                    continue
                weight = (-1) ** (k + l) / (2 * mpmath.pi**2 * k * l)
                total += weight * (mpmath.exp(-a * q(k, -l)) - mpmath.exp(-a * q(k, l)))
        return total


def hmm_entropy_sandwich(model, n: int = 5) -> tuple[float, float]:
    """(lower, upper) on the entropy rate H of a binomial hidden Markov process.

    H(Y_n | Y^(n-1), X_1) <= H <= H(Y_n | Y^(n-1)) (Cover & Thomas, Thm
    4.5.1), each a difference of block entropies over every sequence of n
    emissions.  A forward recursion carries P(Y^L = y, X_L = x | X_1 = x_1)
    for all (trials + 1)^L sequences y at once.
    """
    g1, g2 = model.gamma1, model.gamma2
    trans = np.array([[1.0 - g1, g1], [g2, 1.0 - g2]])
    trials = model.emission.trials
    y = np.arange(trials + 1)
    choose = np.array([math.comb(trials, int(j)) for j in y], dtype=float)
    emit = np.stack([choose * p**y * (1.0 - p) ** (trials - y) for p in (model.emission.p1, model.emission.p2)], axis=1)
    start = np.asarray(model.stationary)

    def block_entropies(alpha):
        given_x1 = alpha.sum(axis=2)  # P(Y^L = y | X_1 = x_1)
        entropy = [-(p * np.log(p)).sum() for p in (start @ given_x1, *given_x1)]
        return entropy[0], start @ entropy[1:]

    alpha = np.eye(2)[:, None, :] * emit[None, :, :]
    blocks = [block_entropies(alpha)]
    for _ in range(n - 1):
        alpha = ((alpha @ trans)[:, :, None, :] * emit[None, None, :, :]).reshape(2, -1, 2)
        blocks.append(block_entropies(alpha))
    (h_before, h_before_x1), (h_n, h_n_x1) = blocks[-2:]
    return h_n_x1 - h_before_x1, h_n - h_before


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

"""Example process models with exact second-order statistics and entropies.

Models: i.i.d. Poisson, the discrete moving average DMA(L), two-state hidden
Markov chains with binomial or Poisson emissions, and the nearest-integer
quantizations of a Gaussian MA(1) and of a noisy AR(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .bounds import (
    BoundResult,
    gaussian_psd_bound,
    tdist_bound_1,
    tdist_bound_k,
    univariate_me_bound,
)
from .numerics import MAX_POINTS, SQRT2, DomainError
from .spectrum import CovarianceSequence, SpectralDensity, closed_form_log_cos_integral


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def _finite_positive(x: float) -> bool:
    return math.isfinite(x) and x > 0


@dataclass(frozen=True)
class PoissonModel:
    """i.i.d. Poisson counts with rate > 0."""

    rate: float

    def __post_init__(self):
        if not _finite_positive(self.rate):
            raise DomainError(f"Poisson rate must be finite and positive: {self.rate!r}")


@dataclass(frozen=True)
class DmaModel:
    """Discrete moving average: S_n = Y_{n - Theta_n} with mixing weights delta."""

    mixture_weights: tuple
    innovation_variance: float

    def __post_init__(self):
        w = tuple(float(x) for x in self.mixture_weights)
        object.__setattr__(self, "mixture_weights", w)
        if len(w) == 0 or not all(x >= 0 for x in w):
            raise DomainError("mixture weights must be non-negative")
        if abs(sum(w) - 1.0) > 1e-12:
            raise DomainError(f"mixture weights must sum to 1, got {sum(w)!r}")
        if not _finite_positive(self.innovation_variance):
            raise DomainError(
                f"innovation variance must be finite and positive: {self.innovation_variance!r}"
            )

    @property
    def order(self) -> int:
        return len(self.mixture_weights) - 1


@dataclass(frozen=True)
class BinomialEmission:
    trials: int
    p1: float
    p2: float

    def __post_init__(self):
        if int(self.trials) != self.trials or self.trials < 1:
            raise DomainError("trials must be a positive integer")
        object.__setattr__(self, "trials", int(self.trials))
        for p in (self.p1, self.p2):
            if not 0.0 <= p <= 1.0:
                raise DomainError(f"emission probability out of [0,1]: {p!r}")


@dataclass(frozen=True)
class PoissonEmission:
    rate1: float
    rate2: float

    def __post_init__(self):
        for lam in (self.rate1, self.rate2):
            if not (math.isfinite(lam) and lam >= 0):
                raise DomainError(f"emission rate must be >= 0: {lam!r}")


@dataclass(frozen=True)
class TwoStateHmm:
    """Two-state stationary Markov chain with state-dependent count emissions."""

    gamma1: float
    gamma2: float
    emission: Union[BinomialEmission, PoissonEmission]

    def __post_init__(self):
        for g in (self.gamma1, self.gamma2):
            if not 0.0 < g < 1.0:
                raise DomainError(f"transition probability must lie in (0,1): {g!r}")
        if not isinstance(self.emission, (BinomialEmission, PoissonEmission)):
            raise DomainError(f"emission must be binomial or Poisson: {self.emission!r}")

    @property
    def stationary(self) -> tuple:
        s = self.gamma1 + self.gamma2
        return (self.gamma2 / s, self.gamma1 / s)

    @property
    def omega(self) -> float:
        return 1.0 - self.gamma1 - self.gamma2


@dataclass(frozen=True)
class QuantizedMaModel:
    """Nearest-integer quantization of X_n = W_n + theta*W_{n-1}, W ~ N(0, sigma^2)."""

    sigma: float
    theta: float

    def __post_init__(self):
        if not _finite_positive(self.sigma):
            raise DomainError(f"sigma must be finite and positive: {self.sigma!r}")
        if not (math.isfinite(self.theta) and self.theta >= 0):
            raise DomainError(f"theta must be finite and non-negative: {self.theta!r}")
        if not math.isfinite(self.sigma * self.sigma * (1.0 + self.theta * self.theta)):
            raise DomainError(f"the variance sigma^2 (1 + theta^2) overflows: {self.sigma!r}, {self.theta!r}")


@dataclass(frozen=True)
class QuantizedArModel:
    """Quantization of U_n = X_n + V_n with X_n = phi*X_{n-1} + W_n."""

    sigma: float
    phi: float
    nu: float

    def __post_init__(self):
        if not _finite_positive(self.sigma):
            raise DomainError(f"sigma must be finite and positive: {self.sigma!r}")
        if not abs(self.phi) < 1.0:
            raise DomainError(f"stationarity requires |phi| < 1: {self.phi!r}")
        if not (math.isfinite(self.nu) and self.nu >= 0):
            raise DomainError(f"nu must be finite and non-negative: {self.nu!r}")
        if not math.isfinite(self.sigma * self.sigma / (1.0 - self.phi * self.phi) + self.nu * self.nu):
            raise DomainError(
                f"the variance sigma^2 / (1 - phi^2) + nu^2 overflows: {self.sigma!r}, {self.phi!r}, {self.nu!r}"
            )

    @property
    def stationary_variance(self) -> float:
        return self.sigma**2 / (1.0 - self.phi**2)


ProcessModel = Union[
    PoissonModel, DmaModel, TwoStateHmm, QuantizedMaModel, QuantizedArModel
]


# ---------------------------------------------------------------------------
# quantization and Gaussian interval kernels
# ---------------------------------------------------------------------------


def quantize(s: float) -> int:
    """Nearest integer; half-integer ties round toward the smaller integer."""
    if not math.isfinite(s):
        raise DomainError(f"quantize requires finite input, got {s!r}")
    return int(math.ceil(s - 0.5))


def _erfc(x: np.ndarray) -> np.ndarray:
    """Elementwise math.erfc: on tables this small, cheaper than numpy calls."""
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _cell_probs(z: np.ndarray) -> np.ndarray:
    """P(N(0, 1) in [z[..., k], z[..., k+1])) for increasing edges z.

    One erfc per edge: q = erfc(|z|/sqrt2) is the two-sided tail beyond |z|,
    so a cell on one side of 0 is half the difference of its edges' q and
    the one cell that straddles 0 is 1 - (q_lo + q_hi)/2.  Far-tail cells
    keep full relative accuracy instead of cancelling to roundoff.
    """
    q = _erfc(np.abs(z) / SQRT2)
    q_lo, q_hi = q[..., :-1], q[..., 1:]
    p = 0.5 * np.abs(q_lo - q_hi)
    straddle = (z[..., :-1] < 0.0) & (z[..., 1:] > 0.0)
    p[straddle] = 1.0 - 0.5 * (q_lo[straddle] + q_hi[straddle])
    return p


def _interval_probs(idx: np.ndarray, mu: np.ndarray, sd: float) -> np.ndarray:
    """P(N(mu, sd^2) in [i-1/2, i+1/2)) for mu (rows) x idx (columns), sd > 0.

    ``idx`` must be consecutive integers, so that neighbouring cells share
    an edge and each edge costs one erfc (see :func:`_cell_probs`).
    """
    edges = idx[0] - 0.5 + np.arange(len(idx) + 1)
    return _cell_probs((edges[None, :] - np.asarray(mu, dtype=float)[:, None]) / sd)


def _lattice_rows(idx: np.ndarray, s: np.ndarray, sd: float, period: int) -> np.ndarray:
    """:func:`_interval_probs` at nodes s = q + f, q an integer and 0 <= f < 1:
    cell i is cell i - q of N(f, sd^2), so one table with a row per distinct
    offset f and a column per integer the nodes reach serves every node.  The
    nodes are h apart, h a power of two, so f repeats every ``period`` nodes."""
    q = np.floor(s).astype(np.intp)
    table = _interval_probs(np.arange(idx[0] - q.max(), idx[-1] - q.min() + 1), (s - q)[:period], sd)
    return table[np.arange(len(s))[:, None] % period, idx - idx[0] + q.max() - q[:, None]]


# erfc elements per block, which sets the chunk length.  A chunk of n nodes has
# < n * (box width + 3) edges: its r offset rows reach <= n/r + 1 more
# integers, or r = 1 and h < box width
_BLOCK_ELEMENTS = 2**21


# Largest half-width, in cells, of the index box the Gaussian-cell kernels
# build (a scale near 1e5).  Beyond it a kernel raises DomainError before
# allocating; every row of the paper's figures stays far below.
MAX_HALFWIDTH = 2**20


def _box_halfwidth(scale: float) -> int:
    """Half-width of the index box |i| <= 10*scale + 2 holding a pmf of scale."""
    halfwidth = int(math.ceil(10.0 * scale)) + 2
    if halfwidth > MAX_HALFWIDTH:
        raise DomainError(
            f"a Gaussian scale of {scale:.6g} needs {halfwidth} cells on each side, "
            f"over the limit of {MAX_HALFWIDTH}"
        )
    return halfwidth


def _marginal_pmf(scale: float) -> tuple[np.ndarray, np.ndarray]:
    box = _box_halfwidth(scale)
    idx = np.arange(-box, box + 1)
    p = _interval_probs(idx, np.zeros(1), scale)[0]
    return idx, p


def _pmf_entropy(p: np.ndarray) -> float:
    """H(Y_1 | Y_0) of a joint pmf p[i, j] that sums to 1; a 1-D pmf is one
    row, and gives its entropy.  Summed row by row, each row's largest cell
    through log1p(-rest/row), so that a near-certain row keeps its relative
    accuracy.  Consumes p: each row's largest cell is set to 0."""
    p = np.atleast_2d(p)
    largest = (np.arange(len(p)), p.argmax(axis=1))
    peak = p[largest]
    p[largest] = 0.0
    rest = p.sum(axis=1)
    row = peak + rest
    ratio = np.divide(p, row[:, None], out=np.ones_like(p), where=p > 0.0)
    h = -float(np.vdot(p, np.log(ratio, out=ratio)))
    h -= float(peak @ np.log1p(-np.divide(rest, row, out=np.zeros_like(row), where=row > 0.0)))
    return h + 0.0  # a certain pmf gives 0, not -0


# Largest joint table _pair_conditional_entropy builds: 2**22 cells (32 MiB).
# A call holds at most two tables of this size at once: the half-grid sum
# beside a chunk's product, or beside the folded rows i >= 0 and their
# entropy scratch (half a table each).  The limit is reached near a marginal
# scale of 102 (sigma ~ 45 for the MA at theta = 2).
MAX_JOINT_CELLS = 2**22

# Bound on the conditional-entropy trapezoid's error summed over the joint's
# cells: the joint's rounding level.  It sets the s-grid spacing (see below).
ALIASING_TOL = 1e-15


def _pair_conditional_entropy(var: float, cov: float) -> float:
    """H(Y_1 | Y_0) for Y_i = Q(U_i), (U_0, U_1) centred normal with variance
    var each and covariance cov, |cov| < var.

    One-factor split: U_0 = s + A and U_1 = sign(cov) s + B, with
    s ~ N(0, |cov|) and A, B ~ N(0, var - |cov|) independent.  Q(-u) = -Q(u)
    off the cell edges, and relabelling Y_1 as -Y_1 leaves H(Y_1 | Y_0) as
    it is, so the kernel runs at |cov|: given s both are the same smoothed
    staircase of s, and one table P(Q(s + A) = i | s) serves rows and
    columns.  The joint pmf is accumulated on the box |i| <= 10*sqrt(var) + 2
    by one trapezoid level in s.

    Spacing.  Cell (i, j) integrates f(s) = w(s) P(i | s) P(j | s), w the
    N(0, |cov|) weight.  Per (u_0, u_1) in the cell the three factors are
    Gaussian in s, and their product is a Gaussian of variance tau^2,
    1/tau^2 = 1/|cov| + 2/sd^2 with sd^2 = var - |cov|, times the pair's
    density.  So on the strip |Im s| < a the integral of |f| along a line is
    at most p_ij exp(a^2 / 2 tau^2), p_ij the exact cell, and the trapezoid
    on h * Z is off by at most 2 p_ij exp(a^2 / 2 tau^2) / (e^(2 pi a / h) - 1)
    (Trefethen & Weideman, SIAM Rev. 56, 2014, Thm 5.1).  At a = 2 pi tau^2 / h
    that is about 2 p_ij exp(-2 pi^2 tau^2 / h^2); summed over the cells it
    is below ALIASING_TOL once h <= pi tau sqrt(2 / log(2 / ALIASING_TOL)),
    0.749 tau.  h is the largest power of two below that, and one level is
    evaluated.  tau is also the spread of s where the first off-diagonal
    cells get their mass, near s* = |cov| / (var + |cov|) <= 1/2.

    Span.  The nodes run out to b = 8 weight sds, or s* + 8 tau where that
    is wider but the weight has not underflowed (exp(-745) = 0).  Besides
    the trapezoid's error they leave out less than 1e-14 of the joint:
    erfc(8 / sqrt2) = 1.2e-15 of the weight beyond b, at most h w(b) / 2 <
    2e-15 at each end node's half weight (h < weight sd), and outside the
    box less than erfc(10 / sqrt2) = 1.5e-23 of each of Y_0 and Y_1.  So the
    total the joint is normalized by is within 1e-14 of one, and no mass
    goes missing that a check would have to catch.  By the symmetry
    (s, i, j) -> (-s, -i, -j) only s >= 0 is summed (s = 0 at half
    weight), and H over rows i >= 0.  On h * Z a chunk of nodes needs one
    erfc table, a row per fractional offset (:func:`_lattice_rows`), and
    its size is capped; the offsets repeat with the period 1/h, so no sort
    finds them.  cov = 0 gives the marginal entropy, and var = 0
    (Y identically 0) gives 0.  A joint table of more than MAX_JOINT_CELLS
    cells, or a level of more than MAX_POINTS nodes (var - |cov| below about
    1e-10 var), raises DomainError before allocating.
    """
    if var == 0.0:
        return 0.0
    scale = math.sqrt(var)
    if cov == 0.0:
        return _pmf_entropy(_marginal_pmf(scale)[1])
    box = _box_halfwidth(scale)
    cells = (2 * box + 1) ** 2
    if cells > MAX_JOINT_CELLS:
        raise DomainError(
            f"the conditional-entropy joint table would have {cells} cells "
            f"(marginal scale {scale:.6g}), over the limit of {MAX_JOINT_CELLS}"
        )
    idx = np.arange(-box, box + 1)
    chunk = max(1, _BLOCK_ELEMENTS // (len(idx) + 3))
    sd = math.sqrt(var - abs(cov))
    weight_sigma = math.sqrt(abs(cov))
    saddle = abs(cov) / (var + abs(cov))
    tau = sd * math.sqrt(saddle)
    b = max(8.0 * weight_sigma, min(saddle + 8.0 * tau, math.sqrt(2.0 * 745.0) * weight_sigma))
    step = 2.0 ** math.floor(math.log2(math.pi * tau * math.sqrt(2.0 / math.log(2.0 / ALIASING_TOL))))
    panels = math.ceil(b / step)
    if panels > MAX_POINTS:
        raise DomainError(
            f"the conditional-entropy trapezoid would need {panels} nodes (cell sd "
            f"{sd:.3g} against weight sd {weight_sigma:.3g}), over the limit of {MAX_POINTS}"
        )
    s = step * np.arange(panels + 1)
    w = np.exp(-0.5 * (s / weight_sigma) ** 2)  # the weight, up to its constant
    w[0] *= 0.5  # s = 0 is shared with the s <= 0 half
    w[-1] *= 0.5
    # offsets repeat every 1/step nodes; capped at a chunk, as 1/step can pass 2**63
    period = max(1, min(chunk, round(1.0 / step)))
    half = np.zeros((len(idx), len(idx)))  # sum over s >= 0 of w(s) outer(P(i | s), P(j | s))
    for start in range(0, len(s), chunk):
        rows = _lattice_rows(idx, s[start : start + chunk], sd, period)
        half += rows.T @ (rows * w[start : start + chunk, None])
    p = half[box:] + half[box::-1, ::-1]  # rows i >= 0 of the joint
    p *= 0.5 / float(half.sum())  # each half holds half the joint's mass
    p[1:] *= 2.0  # rows i < 0 mirror rows i > 0
    return _pmf_entropy(p)


# ---------------------------------------------------------------------------
# Poisson
# ---------------------------------------------------------------------------


# H(rate) ~ 1/2 log(2 pi e rate) + sum_j c_j / rate^j, from Stirling's series
# averaged over the Poisson central moments.  Six terms leave a truncation
# error below 1e-13 from rate 100 on, where the series below starts to lose
# digits (2e-11 at rate 100, 5e-8 at rate 1000).
_POISSON_ASYMPTOTIC = (-1 / 12, -1 / 24, -19 / 360, -9 / 80, -863 / 2520, -1375 / 1008)
_POISSON_ASYMPTOTIC_FROM = 100.0


def poisson_entropy(model: PoissonModel) -> float:
    """Entropy of a Poisson(rate) variable in nats.

    Below rate 100: rate*(1 - log rate) + e^{-rate} * sum_k rate^k log(k!) / k!,
    with the series truncated once a geometric tail bound falls below 1e-12.
    From rate 100 on: the asymptotic expansion, accurate to 1e-13.
    """
    lam = model.rate
    if lam >= _POISSON_ASYMPTOTIC_FROM:
        correction = 0.0
        for c in reversed(_POISSON_ASYMPTOTIC):
            correction = (correction + c) / lam
        return 0.5 * math.log(2.0 * math.pi * math.e * lam) + correction
    log_lam = math.log(lam)
    total = lam * (1.0 - log_lam)
    k = 1
    log_fact = 0.0  # log(k!)
    while True:
        k += 1
        log_fact += math.log(k)
        term = math.exp(k * log_lam - lam - log_fact) * log_fact
        total += term
        # for k >= 4*lam the term ratio is below ~1/2, so the tail is < term
        if k >= max(10.0, 4.0 * lam) and term < 0.5e-12:
            return total


def poisson_me_bound(model: PoissonModel) -> float:
    """Maximum-entropy bound from the Poisson variance (= rate)."""
    return univariate_me_bound(model.rate)


# ---------------------------------------------------------------------------
# DMA(L)
# ---------------------------------------------------------------------------


def dma_covariance(model: DmaModel, k: int) -> float:
    """Autocovariance of the DMA process at lag k >= 0."""
    if k < 0:
        raise DomainError("lag must be non-negative")
    if k == 0:
        return model.innovation_variance
    w = model.mixture_weights
    L = model.order
    if k > L:
        return 0.0
    return model.innovation_variance * sum(w[j] * w[j + k] for j in range(L - k + 1))


def dma_psd(model: DmaModel) -> SpectralDensity:
    """Exact cosine-series PSD of the DMA process (finitely correlated)."""
    coeffs = [dma_covariance(model, k) for k in range(model.order + 1)]
    return SpectralDensity.cosine_series(coeffs)


# ---------------------------------------------------------------------------
# two-state hidden Markov processes
# ---------------------------------------------------------------------------


def hmm_alpha_beta_omega(model: TwoStateHmm) -> tuple[float, float, float]:
    """(alpha, beta, omega) of the binomial-hidden Markov process.

    alpha = delta1*delta2*(p2 - p1)^2, beta = delta1*p1*(1-p1) + delta2*p2*(1-p2),
    omega = 1 - gamma1 - gamma2.
    """
    if not isinstance(model.emission, BinomialEmission):
        raise DomainError("alpha/beta/omega closed form requires a binomial emission")
    d1, d2 = model.stationary
    p1, p2 = model.emission.p1, model.emission.p2
    alpha = d1 * d2 * (p2 - p1) ** 2
    beta = d1 * p1 * (1.0 - p1) + d2 * p2 * (1.0 - p2)
    return alpha, beta, model.omega


def _hmm_mixture_params(model: TwoStateHmm) -> tuple[float, float, float]:
    """(a, b, omega) with R(0) = a + b and R(k) = a*omega^|k|."""
    if isinstance(model.emission, BinomialEmission):
        alpha, beta, omega = hmm_alpha_beta_omega(model)
        n = model.emission.trials
        return n * n * alpha, n * beta, omega
    # Poisson emissions: conditional mean lambda_i, conditional variance lambda_i.
    # Same conditional-moment algebra as the binomial case gives
    # a = delta1*delta2*(lambda2 - lambda1)^2 and b = delta1*lambda1 + delta2*lambda2.
    # No closed form is quoted for this case; validated against simulation only.
    d1, d2 = model.stationary
    l1, l2 = model.emission.rate1, model.emission.rate2
    return d1 * d2 * (l2 - l1) ** 2, d1 * l1 + d2 * l2, model.omega


def hmm_covariance(model: TwoStateHmm, k: int) -> float:
    """Autocovariance of the hidden Markov process at lag k >= 0."""
    if k < 0:
        raise DomainError("lag must be non-negative")
    a, b, omega = _hmm_mixture_params(model)
    return a + b if k == 0 else a * omega**k


def hmm_psd(model: TwoStateHmm) -> SpectralDensity:
    """Rational PSD a*(1 - w^2)/(1 + w^2 - 2w cos) + b of the hidden chain."""
    a, b, omega = _hmm_mixture_params(model)
    return SpectralDensity.markov_mixture(a, b, omega)


def hmm_entropy_bound(model: TwoStateHmm) -> BoundResult:
    """Entropy-rate bound of the hidden Markov process via its PSD."""
    return gaussian_psd_bound(hmm_psd(model))


# ---------------------------------------------------------------------------
# quantized moments: Poisson summation of the cell sums
# ---------------------------------------------------------------------------

# Write Q(x) = x - e(x) with the sawtooth e(x) = sum_k (-1)^(k+1) sin(2 pi k x)
# / (pi k); on [-1/2, 1/2], x^2 = 1/12 + sum_k (-1)^k cos(2 pi k x) / (pi k)^2.
# Gaussian characteristic functions then give each moment as a short sum of
# exp(-a * quadratic form) terms, a = 2 pi^2 (Poisson summation of the cells).
_A = 2.0 * math.pi**2

# The Fourier form of E[Q(X)^2] keeps an absolute accuracy near 3e-17, so it
# loses relative accuracy as the moment falls (0.012 at scale 0.2, 6e-7 at
# 0.1, where it is 3e-11 off).  Below this scale the cell sum takes over.
SMALL_SCALE = 0.2

# Terms per axis of the double sum, which needs about sqrt(40 / (a * gap)),
# gap = var - |cov|.  The cap is reached at gap = 7.7e-6; both quantized
# models have gap >= sigma^2 / 2, so none with sigma >= 0.004 reaches it.
# The sums take O(1) memory and the double sum a band, so the cap bounds time.
MAX_FOURIER_TERMS = 2**9

# The double sum rounds to about 5e-14 var.  Where E[Q(X)^2] is below this
# multiple of var (scale below 0.069), |E[Q(X) Q(Y)]| <= E[Q(X)^2]
# (Cauchy-Schwarz) is below what the sum resolves, and the lag moment is 0.
LAG_RESOLUTION = 1e-10


def _fourier_terms(gap: float) -> int:
    """Terms a side, the n with exp(-a * gap * (n+1)^2) < e^-40."""
    n = int(math.sqrt(40.0 / (_A * gap))) + 1
    if n > MAX_FOURIER_TERMS:
        raise DomainError(
            f"the quantized moment needs {n} Fourier terms a side (variance minus "
            f"|covariance| = {gap:.3g}), over the limit of {MAX_FOURIER_TERMS}"
        )
    return n


def _second_moment(var: float) -> float:
    """E[Q(X)^2] for X ~ N(0, var):

        var + 1/12 - 4 var sum_k (-1)^(k+1) e^(-a k^2 var)
                   + sum_k (-1)^k e^(-a k^2 var) / (pi k)^2.

    Below SMALL_SCALE, the cell sum sum_j (2j - 1) erfc((j - 1/2) / (sqrt2
    scale)) instead; its fifth term is below 1e-60 of the first.
    """
    scale = math.sqrt(var)
    if scale == 0.0:  # sigma^2 underflowed
        return 0.0
    if scale < SMALL_SCALE:
        return sum((2 * j - 1) * math.erfc((j - 0.5) / (SQRT2 * scale)) for j in range(1, 5))
    e = [(-1.0) ** (k + 1) * math.exp(-_A * k * k * var) for k in range(1, _fourier_terms(var) + 1)]
    fourier = math.fsum(x / (k * k) for k, x in enumerate(e, 1)) / math.pi**2
    return var + 1.0 / 12.0 - var * (4.0 * math.fsum(e)) - fourier


def _cross_terms(var: float, c: float, n: int):
    """Terms (-1)^(k+l) e^(-a q(k,-l)) (1 - e^(-4 a k l c)) / (k l) of the double
    sum at cov = c >= 0 with a q(k,-l) <= 40, the per-axis cut.  As q(k,-l) =
    var (l - c k / var)^2 + k^2 (var - c^2 / var), each k keeps an interval of l:
    a band about l = c k / var, here l >= k only, off-diagonal terms doubled."""
    width = (var - c) * (var + c) / var  # var - c^2 / var, without the cancellation
    for k in range(1, n + 1):
        centre, radius = c * k / var, math.sqrt(max(0.0, 40.0 / _A - k * k * width) / var)
        for l in range(max(k, math.ceil(centre - radius)), math.floor(centre + radius) + 1):
            kl = k * l
            t = math.exp(-_A * ((k * k + l * l) * var - 2.0 * c * kl)) * -math.expm1(-4.0 * _A * c * kl) / kl
            yield (-t if (k + l) % 2 else t) * (1.0 if l == k else 2.0)


def _lag_moment(var: float, cov: float) -> float:
    """E[Q(X) Q(Y)] for centred normal X, Y of variance var and covariance
    cov, |cov| < var:

        cov - 4 cov sum_k (-1)^(k+1) e^(-a k^2 var)
            + sum_{k,l} (-1)^(k+l) / (2 pi^2 k l) (e^(-a q(k,-l)) - e^(-a q(k,l))),

    q(k, l) = (k^2 + l^2) var + 2 k l cov.  The bracket is evaluated as
    e^(-a q(k,-l)) * -expm1(-4 a k l cov) at cov >= 0 (odd in cov), so no
    term cancels.  The double sum runs over a band (:func:`_cross_terms`).
    See LAG_RESOLUTION for the small-scale rule.
    """
    if var < SMALL_SCALE**2 and _second_moment(var) <= LAG_RESOLUTION * var:
        return 0.0
    n = _fourier_terms(var - abs(cov))
    single = math.fsum((-1.0) ** (k + 1) * math.exp(-_A * k * k * var) for k in range(1, n + 1))
    cross = math.copysign(math.fsum(_cross_terms(var, abs(cov), n)), cov) / (2.0 * math.pi**2)
    return cov - cov * (4.0 * single) + cross


# ---------------------------------------------------------------------------
# quantized MA(1)
# ---------------------------------------------------------------------------


def qma_r0(model: QuantizedMaModel) -> float:
    """R(0) of the quantized MA process: E[Q(X_n)^2], X_n ~ N(0, sigma^2(1+theta^2))."""
    return _second_moment(model.sigma**2 * (1.0 + model.theta**2))


def qma_r1(model: QuantizedMaModel) -> float:
    """R(1) of the quantized MA process: E[Q(X_n) Q(X_{n+1})], where X_n and
    X_{n+1} have variance sigma^2 (1 + theta^2) and covariance sigma^2 theta."""
    var = model.sigma**2
    return _lag_moment(var * (1.0 + model.theta**2), var * model.theta)


def qma_k_ratio(model: QuantizedMaModel) -> float:
    """K = 2 R(1) / (R(0) + 1/12), the normalized lag-1 coefficient."""
    return 2.0 * qma_r1(model) / (qma_r0(model) + 1.0 / 12.0)


def qma_th1_bound(model: QuantizedMaModel) -> float:
    """PSD-route bound for the quantized MA process, in closed form.

    Equals 1/2 log(2*pi*e*(R0 + 1/12)) plus half the closed-form log-cosine
    integral at K, which needs |K| <= 1.  That holds: Y_n = Q(W_n +
    theta*W_{n-1}) is 1-dependent, so R0 + 2 R1 cos(lambda) is its PSD and is
    >= 0, hence |K| <= R0 / (R0 + 1/12) < 1.
    """
    k_ratio = qma_k_ratio(model)
    return univariate_me_bound(qma_r0(model)) + 0.5 * closed_form_log_cos_integral(k_ratio)


def qma_th3_bound(model: QuantizedMaModel) -> float:
    """Order-1 covariance-route bound for the quantized MA process.  Where R(0)
    underflows to 0 the quantized process is 0 and the bound univariate."""
    r0 = qma_r0(model)
    if r0 == 0.0:
        return univariate_me_bound(0.0)
    return tdist_bound_1(r0, qma_r1(model)).value


def qma_conditional_entropy(model: QuantizedMaModel) -> float:
    """H(Y_{n+1} | Y_n) of the quantized MA process, from the same pair as
    :func:`qma_r1`; theta = 0 gives an i.i.d. process and the marginal entropy."""
    var = model.sigma**2
    return _pair_conditional_entropy(var * (1.0 + model.theta**2), var * model.theta)


# ---------------------------------------------------------------------------
# quantized-hidden AR(1)
# ---------------------------------------------------------------------------


def qar_r0(model: QuantizedArModel) -> float:
    """R(0) of the quantized-hidden AR process."""
    return _second_moment(model.stationary_variance + model.nu**2)


def qar_rk(model: QuantizedArModel, k: int) -> float:
    """R(k), k >= 1, of the quantized-hidden AR process: U_0 and U_k have
    variance sigma0^2 + nu^2 and covariance sigma0^2 phi^k."""
    if k < 1:
        raise DomainError("lag must be >= 1")
    var0 = model.stationary_variance
    return _lag_moment(var0 + model.nu**2, var0 * model.phi**k)


def qar_th2_bound(model: QuantizedArModel, k: int) -> BoundResult:
    """Order-k covariance-route bound using lags R(0), ..., R(k), k >= 1.  Where
    R(0) underflows to 0 the quantized process is 0 and the bound univariate."""
    if k < 1:
        raise DomainError("k must be >= 1")
    r0 = qar_r0(model)
    if r0 == 0.0:
        return BoundResult(value=univariate_me_bound(0.0), argmin=[0.0] * k)
    values = [r0] + [qar_rk(model, j) for j in range(1, k + 1)]
    return tdist_bound_k(CovarianceSequence(tuple(values)))


def qar_conditional_entropy(model: QuantizedArModel) -> float:
    """H(Y_1 | Y_0) of the quantized-hidden AR process, from the same pair as
    :func:`qar_rk` at k = 1."""
    var0 = model.stationary_variance
    return _pair_conditional_entropy(var0 + model.nu**2, var0 * model.phi)

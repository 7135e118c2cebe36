"""Example process models and their closed forms, in plain ``math``.

The model dataclasses, the Poisson entropy, the DMA and hidden-Markov
autocovariances and the quantized moments need no array: they are scalar sums.
:mod:`entrobound.processes` re-exports every name here beside the kernels that
need numpy, so a caller of these alone (``fig1``, ``fig2``) never loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .numerics import SQRT2, DomainError, univariate_me_bound


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


def quantize(s: float) -> int:
    """Nearest integer; half-integer ties round toward the smaller integer."""
    if not math.isfinite(s):
        raise DomainError(f"quantize requires finite input, got {s!r}")
    return int(math.ceil(s - 0.5))


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

"""Example process models with exact second-order statistics and entropies.

Models: i.i.d. Poisson, the discrete moving average DMA(L), two-state hidden
Markov chains with binomial or Poisson emissions, and the nearest-integer
quantizations of a Gaussian MA(1) and of a noisy AR(1).  The models and their
numpy-free closed forms live in :mod:`entrobound.models` and are re-exported
here; this module adds the Gaussian-cell conditional entropies, the PSDs and
the bounds built on them.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import BoundResult, gaussian_psd_bound, tdist_bound_1, tdist_bound_k
from .models import (  # noqa: F401  (re-exported: the models and their closed forms)
    LAG_RESOLUTION, MAX_FOURIER_TERMS, SMALL_SCALE, BinomialEmission, DmaModel, PoissonEmission,
    PoissonModel, ProcessModel, QuantizedArModel, QuantizedMaModel, TwoStateHmm, dma_covariance,
    hmm_alpha_beta_omega, hmm_covariance, poisson_entropy, poisson_me_bound, qar_r0, qar_rk,
    qma_k_ratio, qma_r0, qma_r1, quantize, _A, _POISSON_ASYMPTOTIC, _POISSON_ASYMPTOTIC_FROM,
    _cross_terms, _finite_positive, _fourier_terms, _hmm_mixture_params, _lag_moment, _second_moment,
)
from .numerics import MAX_POINTS, SQRT2, DomainError, univariate_me_bound
from .spectrum import CovarianceSequence, SpectralDensity, closed_form_log_cos_integral


# ---------------------------------------------------------------------------
# Gaussian interval kernels
# ---------------------------------------------------------------------------


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
# the models' PSDs, bounds and conditional entropies
# ---------------------------------------------------------------------------


def dma_psd(model: DmaModel) -> SpectralDensity:
    """Exact cosine-series PSD of the DMA process (finitely correlated)."""
    coeffs = [dma_covariance(model, k) for k in range(model.order + 1)]
    return SpectralDensity.cosine_series(coeffs)


def hmm_psd(model: TwoStateHmm) -> SpectralDensity:
    """Rational PSD a*(1 - w^2)/(1 + w^2 - 2w cos) + b of the hidden chain."""
    a, b, omega = _hmm_mixture_params(model)
    return SpectralDensity.markov_mixture(a, b, omega)


def hmm_entropy_bound(model: TwoStateHmm) -> BoundResult:
    """Entropy-rate bound of the hidden Markov process via its PSD."""
    return gaussian_psd_bound(hmm_psd(model))


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

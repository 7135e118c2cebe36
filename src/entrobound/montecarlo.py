"""Simulation oracles: seeded sample paths and empirical estimators.

Paths are integer-valued, stationary from the first sample, read-only, and
bit-identical under the same (model, n, seed) within a version.  Standard
errors use batch means (64 batches) because the paths are autocorrelated.
Everything here is numpy: the quantized-AR path runs its AR(1) recursion
through a blocked filter (:func:`_ar1_filter`, a matmul per block of 64 plus
a log-step scan over the block ends), which agrees with the sequential
recursion to about 1e-15 of the path's scale.  The 65 pair tables of the
entropy estimator are counted from one array of pair codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import DomainError
from .processes import (
    BinomialEmission,
    DmaModel,
    PoissonEmission,
    PoissonModel,
    ProcessModel,
    QuantizedArModel,
    QuantizedMaModel,
    TwoStateHmm,
    _pmf_entropy,
)

N_BATCHES = 64
# Longest path simulate draws: 10**8 int64 values are 800 MB before any
# float temporaries, so longer requests raise DomainError before allocating.
MAX_PATH_LENGTH = 10**8
# The largest binomial trial count and Poisson mean numpy's samplers take;
# simulate raises DomainError beyond them before drawing.
MAX_TRIALS = np.iinfo(np.int64).max
MAX_POISSON_MEAN = MAX_TRIALS - 10.0 * math.sqrt(MAX_TRIALS)


@dataclass(frozen=True, eq=False)
class SamplePath:
    """An integer realization plus everything needed to regenerate it."""

    model: ProcessModel
    seed: int
    values: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False  # so that `centered` cannot go stale

    @property
    def length(self) -> int:
        return len(self.values)

    @cached_property
    def centered(self) -> np.ndarray:
        """The values as floats minus their mean; computed once, read-only."""
        y = self.values.astype(float)
        y -= y.mean()
        y.flags.writeable = False
        return y


@dataclass(frozen=True)
class EstimateWithError:
    value: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if not self.std_error >= 0:
            raise DomainError("std_error must be non-negative")


def _quantize_array(x: np.ndarray) -> np.ndarray:
    # processes.quantize's tie rule (half-integers go down), in place on x
    x -= 0.5
    np.ceil(x, out=x)
    if not (x.min() >= -(2.0**63) and x.max() < 2.0**63):
        raise DomainError(f"a quantized sample lies outside the int64 range: {x.min():.6g} to {x.max():.6g}")
    return x.astype(np.int64)


def _two_state_chain(rng: np.random.Generator, g1: float, g2: float, n: int) -> np.ndarray:
    """True where the chain is in its second state, started from the stationary law.

    The path is laid down as alternating sojourns: Geometric(g1) steps in
    state 0, Geometric(g2) steps in state 1.  By memorylessness the first
    sojourn from a stationary start has the same law.  Sojourn pairs are
    drawn in blocks of the expected count plus at least four standard
    deviations, so a second block is rare; each block is capped by the pairs
    that can still be used, so at most n + 2 lengths are drawn in all.
    Each length is clipped to n, which the path cuts it to anyway: for tiny
    gammas the raw draws reach 2**63 - 1 and their sums would wrap around.
    The mask is an xor-scan of the sojourn ends, seeded with the first state.
    """
    r = g1 + g2
    x0 = 1 if rng.random() < g1 / r else 0
    first, second = (g2, g1) if x0 else (g1, g2)
    expected = n * g1 * g2 / r  # pairs to cover n steps, on average
    block = int(expected + 4.0 * math.sqrt(expected)) + 2
    parts = []
    total = 0
    while total < n:
        m = min(block, (n - total) // 2 + 1)
        draws = (rng.geometric(first, m), rng.geometric(second, m))
        pairs = np.minimum(np.column_stack(draws), n)
        parts.append(pairs.ravel())
        total += int(parts[-1].sum())
    ends = np.cumsum(np.concatenate(parts))
    flips = np.zeros(n, dtype=bool)
    flips[ends[: np.searchsorted(ends, n)]] = True
    flips[0] = x0
    return np.logical_xor.accumulate(flips, out=flips)


_AR_BLOCK = 64


def _ar1_filter(w: np.ndarray, phi: float, x0: float) -> np.ndarray:
    """x[t] = phi * x[t-1] + w[t] for t = 0, ..., n-1, with x[-1] = x0.

    Blocked, in numpy: the input is cut into blocks of 64, and each block's
    zero-state response is one matmul with the lower-triangular matrix
    phi^(i-j).  The block-end states then form an AR(1) in phi^64, solved
    by a log-step scan (x[d:] += a^d x[:-d], d = 1, 2, 4, ...) that stops
    once the coefficient underflows.  Each block adds back the state carried
    in from the previous one, times phi^(i+1).  The result agrees with the
    sequential recursion to a few units of roundoff per block-end step.
    """
    n = len(w)
    blocks = -(-n // _AR_BLOCK)
    padded = np.zeros(blocks * _AR_BLOCK)
    padded[:n] = w
    lag = np.subtract.outer(np.arange(_AR_BLOCK), np.arange(_AR_BLOCK))
    lower = np.where(lag >= 0, phi ** np.maximum(lag, 0), 0.0)
    x = padded.reshape(blocks, _AR_BLOCK) @ lower.T
    ends = x[:, -1].copy()
    coef = phi**_AR_BLOCK
    ends[0] += coef * x0
    d = 1
    while d < blocks and coef != 0.0:
        ends[d:] += coef * ends[:-d]
        coef *= coef
        d *= 2
    carried = np.concatenate(([x0], ends[:-1]))
    x += np.outer(carried, phi ** np.arange(1, _AR_BLOCK + 1))
    return x.reshape(-1)[:n]


def _mixture_index(rng: np.random.Generator, p: np.ndarray, n: int) -> np.ndarray:
    """rng.choice(len(p), size=n, p=p), which is cdf.searchsorted(rng.random(n),
    side="right") with cdf = cumsum(p) / its last entry, bit for bit: u * 4096
    is exact, and only the u whose bucket floor(u * 4096) holds a cdf entry
    strictly inside are searched; any other bucket has one index."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = rng.random(n)
    edges = np.arange(4097) / 4096
    table = cdf.searchsorted(edges[:-1], side="right")
    table[cdf.searchsorted(edges[1:], side="left") > table] = -1  # an entry inside
    theta = table[(u * 4096).astype(np.intp)]
    search = np.flatnonzero(theta < 0)
    theta[search] = cdf.searchsorted(u[search], side="right")
    return theta


def _poisson_mean(lam: float) -> float:
    if lam > MAX_POISSON_MEAN:
        raise DomainError(f"Poisson mean {lam!r} exceeds the sampler's limit of {MAX_POISSON_MEAN!r}")
    return lam


def simulate(model: ProcessModel, n: int, seed: int) -> SamplePath:
    """Draw a stationary-start path of length n, deterministic given seed.

    DMA innovations are Poisson(innovation_variance): integer-valued with
    exactly the requested variance (the mean offset does not enter any
    covariance).  The AR chain starts from its stationary law; MA/DMA get
    the needed pre-samples as burn-in.  n must lie in [1, MAX_PATH_LENGTH],
    the seed be a non-negative integer, every quantized sample in int64's range,
    Poisson means (rates, DMA variance) in [0, MAX_POISSON_MEAN] and binomial
    trial counts in [1, MAX_TRIALS].
    """
    if n < 1:
        raise DomainError("path length must be >= 1")
    if n > MAX_PATH_LENGTH:
        raise DomainError(f"path length {n} exceeds the limit of {MAX_PATH_LENGTH}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)

    if isinstance(model, PoissonModel):
        values = rng.poisson(_poisson_mean(model.rate), n).astype(np.int64, copy=False)
    elif isinstance(model, DmaModel):
        L = model.order
        innovations = rng.poisson(_poisson_mean(model.innovation_variance), n + L).astype(np.int64, copy=False)
        index = np.arange(L, n + L)
        index -= _mixture_index(rng, np.asarray(model.mixture_weights), n)
        values = innovations[index]
    elif isinstance(model, TwoStateHmm):
        em = model.emission
        if isinstance(em, BinomialEmission) and em.trials > MAX_TRIALS:
            raise DomainError(f"binomial trials {em.trials} exceed the sampler's limit of {MAX_TRIALS}")
        if isinstance(em, PoissonEmission):
            _poisson_mean(max(em.rate1, em.rate2))
        second = _two_state_chain(rng, model.gamma1, model.gamma2, n)
        values = np.empty(n, dtype=np.int64)
        # one draw per state, first state first: same law as per-sample parameters
        for state, visits in enumerate((np.flatnonzero(~second), np.flatnonzero(second))):
            if isinstance(em, BinomialEmission):
                values[visits] = rng.binomial(em.trials, (em.p1, em.p2)[state], len(visits))
            else:  # TwoStateHmm admits only binomial and Poisson emissions
                values[visits] = rng.poisson((em.rate1, em.rate2)[state], len(visits))
    elif isinstance(model, QuantizedMaModel):
        w = rng.normal(0.0, model.sigma, n + 1)
        values = _quantize_array(model.theta * w[:-1] + w[1:])  # numpy sums into the product
    elif isinstance(model, QuantizedArModel):
        sigma0 = math.sqrt(model.stationary_variance)
        x0 = rng.normal(0.0, sigma0)
        w = rng.normal(0.0, model.sigma, n)
        x = _ar1_filter(w, model.phi, x0)
        x += rng.normal(0.0, model.nu, n)
        values = _quantize_array(x)
    else:
        raise DomainError(f"unknown process model {model!r}")
    return SamplePath(model=model, seed=int(seed), values=values)


def _batch_std_error(samples: np.ndarray) -> float:
    width = len(samples) // N_BATCHES
    if width < 1:
        raise DomainError("path too short for 64-batch standard errors")
    batches = samples[: N_BATCHES * width].reshape(N_BATCHES, width).mean(axis=1)
    return float(batches.std(ddof=1) / math.sqrt(N_BATCHES))


def empirical_covariance(path: SamplePath, k: int) -> EstimateWithError:
    """Sample autocovariance at lag k with a batch-means standard error."""
    if k < 0:
        raise DomainError("lag must be non-negative")
    if k >= path.length / 10:
        raise DomainError("lag must be below one tenth of the path length")
    y = path.centered
    products = y[k:] * y[: len(y) - k]
    return EstimateWithError(
        value=float(products.mean()),
        std_error=_batch_std_error(products),
        n_samples=len(products),
    )


def empirical_conditional_entropy(path: SamplePath) -> EstimateWithError:
    """Plug-in estimate of H(Y_1 | Y_0) from pair frequencies.

    Downward-biased (plug-in); the batch-means error captures sampling
    spread, not the bias.  Each of the 64 batches counts its pairs in its own
    [min, max]^2 box, coded in one array; the batch tables lie end to end,
    one bincount per group of at most 4096**2 cells.  The full table is
    the boxes added at their offsets plus the pairs past the last batch.
    """
    if path.length < 10**5:
        raise DomainError("need at least 1e5 samples for the plug-in estimator")
    v = path.values
    n = len(v) - 1
    width = n // N_BATCHES
    end = N_BATCHES * width
    rows = v[:end].reshape(N_BATCHES, width)
    last = v[width : end + 1 : width]  # each batch's final b-value
    lo = np.minimum(rows.min(axis=1), last)
    hi = np.maximum(rows.max(axis=1), last)
    base = int(min(lo.min(), v[end:].min()))
    span = int(max(hi.max(), v[end:].max())) - base + 1
    if span > 4096:
        raise DomainError(f"alphabet span {span} is too large for the plug-in pair estimator")
    spans = hi - lo + 1
    cells = spans * spans
    offsets, groups = np.zeros(N_BATCHES, dtype=np.int64), [0]
    for i in range(1, N_BATCHES):
        offsets[i] = offsets[i - 1] + cells[i - 1]
        if offsets[i] + cells[i] > 4096**2:
            offsets[i] = 0
            groups.append(i)
    # (a - lo) * span + (b - lo) + offset as a * span + b + (offset - lo * (span + 1)):
    # exact, since int64 arrays wrap and the code itself lies in [0, 4096**2)
    code = rows * spans[:, None]
    code += v[1 : end + 1].reshape(N_BATCHES, width)
    code += (offsets - lo * (spans + 1))[:, None]
    joint = np.zeros((span, span), dtype=np.int64)
    per_batch = np.empty(N_BATCHES)
    pmf = np.empty(int(cells.max()))  # one buffer for every batch's pmf
    for first, stop in zip(groups, groups[1:] + [N_BATCHES]):
        counts = np.bincount(code[first:stop].ravel(), minlength=offsets[stop - 1] + cells[stop - 1])
        for i in range(first, stop):
            s, at = int(spans[i]), int(lo[i]) - base
            table = counts[offsets[i] : offsets[i] + cells[i]].reshape(s, s)
            joint[at : at + s, at : at + s] += table
            per_batch[i] = _pmf_entropy(np.divide(table, width, out=pmf[: s * s].reshape(s, s)))
    del code, counts, pmf
    np.add.at(joint, (v[end:-1] - base, v[end + 1 :] - base), 1)
    std_error = float(per_batch.std(ddof=1) / math.sqrt(N_BATCHES))
    return EstimateWithError(value=_pmf_entropy(joint / n), std_error=std_error, n_samples=n)

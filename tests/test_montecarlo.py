import math
from types import SimpleNamespace

import numpy as np
import pytest

from entrobound.montecarlo import (
    EstimateWithError,
    SamplePath,
    _ar1_filter,
    _quantize_array,
    _two_state_chain,
    empirical_conditional_entropy,
    empirical_covariance,
    simulate,
)
from entrobound.numerics import DomainError
from entrobound.processes import (
    BinomialEmission,
    DmaModel,
    PoissonEmission,
    PoissonModel,
    QuantizedArModel,
    QuantizedMaModel,
    TwoStateHmm,
)
from conftest import load_reference

MODELS = [
    PoissonModel(1.0),
    DmaModel((0.3, 0.3, 0.4), 2.0),
    TwoStateHmm(0.1, 0.3, BinomialEmission(10, 0.2, 0.8)),
    TwoStateHmm(0.2, 0.4, PoissonEmission(1.0, 5.0)),
    QuantizedMaModel(1.0, 1.0),
    QuantizedArModel(1.0, 0.9, 4.0),
]


class TestSimulate:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_deterministic_given_seed(self, model):
        a = simulate(model, 2000, seed=42)
        b = simulate(model, 2000, seed=42)
        assert np.array_equal(a.values, b.values)
        assert a.values.dtype == np.int64
        assert a.length == 2000

    def test_seed_changes_path(self):
        m = QuantizedMaModel(1.0, 1.0)
        assert not np.array_equal(
            simulate(m, 2000, seed=1).values, simulate(m, 2000, seed=2).values
        )

    def test_dma_degenerate_mixture_is_iid_innovations(self):
        # delta = [1] picks Theta = 0 always: the path is the innovation stream
        m = DmaModel((1.0,), 2.0)
        path = simulate(m, 10**5, seed=3)
        assert path.values.min() >= 0
        assert path.values.mean() == pytest.approx(2.0, abs=0.05)
        assert path.values.var() == pytest.approx(2.0, abs=0.05)

    def test_quantized_ma_variance_matches_analytic(self):
        from entrobound.processes import qma_r0

        m = QuantizedMaModel(1.0, 0.0)
        path = simulate(m, 10**6, seed=4)
        est = empirical_covariance(path, 0)
        assert abs(est.value - qma_r0(m)) <= 4 * est.std_error

    def test_ar_stationary_start(self):
        # first-sample variance must already be the stationary one
        m = QuantizedArModel(1.0, 0.9, 0.0)
        firsts = np.array([simulate(m, 1, seed=s).values[0] for s in range(4000)])
        assert firsts.var() == pytest.approx(m.stationary_variance + 1 / 12, rel=0.1)

    def test_two_state_chain_mixes(self):
        m = TwoStateHmm(0.1, 0.3, BinomialEmission(1, 0.0, 1.0))
        # emissions reveal the state: p1 = 0, p2 = 1
        path = simulate(m, 10**6, seed=5)
        occupancy = path.values.mean()
        assert occupancy == pytest.approx(0.25, abs=0.01)  # delta_2 = g1/(g1+g2)
        flips = np.mean(path.values[1:] != path.values[:-1])
        expected = 0.75 * 0.1 + 0.25 * 0.3  # delta_1*g1 + delta_2*g2
        assert flips == pytest.approx(expected, abs=0.005)

    def test_sticky_chain_omega_negative(self):
        m = TwoStateHmm(0.9, 0.8, BinomialEmission(1, 0.0, 1.0))
        path = simulate(m, 10**5, seed=6)
        flips = np.mean(path.values[1:] != path.values[:-1])
        expected = (0.8 / 1.7) * 0.9 + (0.9 / 1.7) * 0.8
        assert flips == pytest.approx(expected, abs=0.01)

    def test_length_domain(self):
        with pytest.raises(DomainError):
            simulate(PoissonModel(1.0), 0, seed=1)

    @pytest.mark.parametrize(
        "model",
        [
            PoissonModel(1e300),
            DmaModel((0.5, 0.5), 1e300),
            TwoStateHmm(0.1, 0.3, PoissonEmission(1.0, 1e300)),
            TwoStateHmm(0.1, 0.3, BinomialEmission(10**19, 0.2, 0.8)),
        ],
        ids=["poisson", "dma", "poisson-hmm", "binomial-hmm"],
    )
    def test_sampler_limits(self, model):
        with pytest.raises(DomainError, match="sampler's limit"):
            simulate(model, 10, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(DomainError, match="seed"):
            simulate(PoissonModel(1.0), 5, seed=seed)

    def test_large_seeds(self):
        assert simulate(PoissonModel(1.0), 5, seed=2**64).length == 5
        assert simulate(PoissonModel(1.0), 5, seed=np.int64(7)).seed == 7

    @pytest.mark.parametrize(
        "model",
        [QuantizedMaModel(1e19, 1.0), QuantizedArModel(1e19, 0.5, 1.0), QuantizedArModel(1.0, 0.5, 1e19)],
        ids=["ma", "ar-sigma", "ar-nu"],
    )
    def test_quantized_samples_stay_in_int64(self, model):
        # a sample beyond 2**63 would wrap to int64's minimum in the cast
        with pytest.raises(DomainError, match="int64 range"):
            simulate(model, 8, seed=3)

    def test_sampler_limits_are_numpys(self):
        from entrobound.montecarlo import MAX_POISSON_MEAN, MAX_TRIALS

        assert simulate(PoissonModel(MAX_POISSON_MEAN), 3, seed=1).values.min() > 0
        assert simulate(TwoStateHmm(0.1, 0.3, BinomialEmission(MAX_TRIALS, 0.2, 0.8)), 3, seed=1).length == 3
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(np.nextafter(MAX_POISSON_MEAN, math.inf))
        with pytest.raises(OverflowError):
            rng.binomial(MAX_TRIALS + 1, 0.5)

    def test_length_limit_rejected_before_allocating(self):
        import tracemalloc

        from entrobound.montecarlo import MAX_PATH_LENGTH

        assert MAX_PATH_LENGTH >= 10**7  # the longest path the oracles draw
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="exceeds the limit"):
                simulate(PoissonModel(1.0), MAX_PATH_LENGTH + 1, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _states(g1, g2, n, seed):
    # emissions with p1 = 0 and p2 = 1 reveal the hidden state
    return simulate(TwoStateHmm(g1, g2, BinomialEmission(1, 0.0, 1.0)), n, seed).values


class TestTwoStateSampler:
    # a sticky chain, the i.i.d. one (g1 + g2 = 1) and one that tends to alternate
    GAMMAS = [(0.1, 0.3, 51), (0.5, 0.5, 52), (0.7, 0.6, 53)]

    @pytest.mark.parametrize("g1,g2,seed", GAMMAS)
    def test_transition_frequencies(self, g1, g2, seed):
        x = _states(g1, g2, 10**6, seed)
        for state, leave in ((0, g1), (1, g2)):
            nxt = x[1:][x[:-1] == state]
            freq = np.mean(nxt != state)
            se = math.sqrt(leave * (1 - leave) / len(nxt))
            assert abs(freq - leave) <= 4 * se

    @pytest.mark.parametrize("g1,g2,seed", GAMMAS)
    def test_mean_sojourn_lengths(self, g1, g2, seed):
        x = _states(g1, g2, 10**6, seed)
        edges = np.concatenate(([0], np.flatnonzero(np.diff(x)) + 1, [len(x)]))
        lengths, labels = np.diff(edges)[:-1], x[edges[:-2]]  # the last run is cut short
        for state, leave in ((0, g1), (1, g2)):
            runs = lengths[labels == state]
            se = math.sqrt(1 - leave) / leave / math.sqrt(len(runs))  # Geometric(leave)
            assert abs(runs.mean() - 1 / leave) <= 4 * se

    @pytest.mark.parametrize("g1,g2", [(0.1, 0.3), (0.7, 0.6)])
    def test_stationary_start(self, g1, g2):
        # like test_ar_stationary_start: the first state already has the stationary law
        firsts = np.array([_states(g1, g2, 1, s)[0] for s in range(4000)])
        p = g1 / (g1 + g2)
        assert abs(firsts.mean() - p) <= 4 * math.sqrt(p * (1 - p) / 4000)

    @pytest.mark.parametrize(
        "g1,g2",
        [
            (1e-4, 0.9999),
            (0.9999, 1e-4),
            (1e-4, 1e-4),
            (0.9999, 0.9999),
            # raw geometric draws reach 2**63 - 1 here; unclipped sums would wrap
            (1e-20, 0.5),
            (1e-300, 1e-300),
        ],
    )
    @pytest.mark.parametrize("n", [1, 10, 10**5])
    def test_exact_length_at_extreme_gammas(self, g1, g2, n):
        for seed in (0, 1, 2):
            x = _states(g1, g2, n, seed)
            assert len(x) == n
            assert set(np.unique(x)) <= {0, 1}

    def test_short_first_block(self):
        # at this seed the first block of sojourns covers fewer than n steps;
        # counting the draws asserts that the second-block loop really runs
        rng = np.random.default_rng(2514)
        sizes = []

        def geometric(p, size):
            sizes.append(size)
            return rng.geometric(p, size)

        counting = SimpleNamespace(random=rng.random, geometric=geometric)
        x = _two_state_chain(counting, 1e-4, 0.9999, 10**5)
        assert len(sizes) == 4  # two blocks, each one call per state
        assert np.array_equal(x, _states(1e-4, 0.9999, 10**5, 2514))

    def test_cli_matches_in_process(self, tmp_path):
        from entrobound import cli

        out = tmp_path / "path.csv"
        argv = ["simulate", "--model", "binomial-hmm", "--gamma1", "0.7", "--gamma2", "0.6"]
        assert cli.main(argv + ["-n", "20000", "--seed", "54", "--out", str(out)]) == 0
        got = np.loadtxt(out, dtype=np.int64, skiprows=1)
        model = TwoStateHmm(0.7, 0.6, BinomialEmission(10, 0.2, 0.8))
        assert np.array_equal(got, simulate(model, 20000, seed=54).values)


def _ar1_recursion(w, phi, x0):
    out = np.empty(len(w))
    x = x0
    for t, wt in enumerate(w):
        x = phi * x + wt
        out[t] = x
    return out


class TestAr1Filter:
    @pytest.mark.parametrize("phi", [0.0, 0.5, -0.5, 0.9, 0.9999])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 10**4 + 7])
    def test_matches_plain_recursion(self, phi, n, rng):
        w = rng.normal(size=n)
        x0 = 3.0 * rng.normal()
        got = _ar1_filter(w, phi, x0)
        want = _ar1_recursion(w, phi, x0)
        assert got.shape == (n,)
        # relative to the path's scale: single values near zero crossings
        # carry the absolute roundoff of their neighbours
        scale = np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_quantized_path_matches_lfilter(self, seed):
        # scipy.signal.lfilter, the sequential filter, is the oracle here
        from scipy import signal

        model = QuantizedArModel(1.0, 0.9, 4.0)
        rng = np.random.default_rng(seed)
        x0 = rng.normal(0.0, math.sqrt(model.stationary_variance))
        w = rng.normal(0.0, model.sigma, 10**5)
        x = signal.lfilter([1.0], [1.0, -model.phi], w, zi=np.array([model.phi * x0]))[0]
        want = _quantize_array(x + rng.normal(0.0, model.nu, 10**5))
        assert np.array_equal(simulate(model, 10**5, seed).values, want)


class TestEmpiricalCovariance:
    def test_constant_path(self):
        path = SamplePath(PoissonModel(1.0), 0, np.full(10**5, 7, dtype=np.int64))
        for k in (1, 2, 5):
            assert empirical_covariance(path, k).value == pytest.approx(0.0, abs=1e-12)

    def test_iid_signs(self, rng):
        values = rng.choice([-1, 1], size=10**6).astype(np.int64)
        path = SamplePath(PoissonModel(1.0), 0, values)
        lag0 = empirical_covariance(path, 0)
        lag1 = empirical_covariance(path, 1)
        assert abs(lag0.value - 1.0) <= 4 * lag0.std_error + 1e-6
        assert abs(lag1.value) <= 4 * lag1.std_error

    def test_centered_once_matches_per_call_formula(self):
        # the cached centred path gives bit-identical values and standard
        # errors to converting and centring the path afresh for each lag
        path = simulate(TwoStateHmm(0.1, 0.3, PoissonEmission(2.0, 9.0)), 10**5, seed=5)
        for k in range(4):
            y = path.values.astype(float)
            y -= y.mean()
            products = y[k:] * y[: len(y) - k]
            width = len(products) // 64
            batches = products[: 64 * width].reshape(64, width).mean(axis=1)
            est = empirical_covariance(path, k)
            assert est.value == float(products.mean())
            assert est.std_error == float(batches.std(ddof=1) / 8.0)
        assert path.centered is path.centered
        assert not path.centered.flags.writeable

    def test_lag_bound(self):
        path = SamplePath(PoissonModel(1.0), 0, np.zeros(100, dtype=np.int64))
        with pytest.raises(DomainError):
            empirical_covariance(path, 10)
        with pytest.raises(DomainError):
            empirical_covariance(path, -1)

    def test_path_too_short_for_batches(self):
        path = SamplePath(PoissonModel(1.0), 0, np.arange(63, dtype=np.int64))
        with pytest.raises(DomainError, match="64-batch"):
            empirical_covariance(path, 0)


class TestEmpiricalConditionalEntropy:
    def test_iid_uniform(self, rng):
        values = rng.integers(0, 8, size=10**6).astype(np.int64)
        path = SamplePath(PoissonModel(1.0), 0, values)
        est = empirical_conditional_entropy(path)
        assert abs(est.value - math.log(8)) <= 4 * est.std_error + 1e-3

    def test_deterministic_alternation(self):
        values = np.tile([0, 1], 10**5).astype(np.int64)
        path = SamplePath(PoissonModel(1.0), 0, values)
        est = empirical_conditional_entropy(path)
        assert est.value == 0.0

    def test_consistent_with_analytic(self):
        from entrobound.processes import qma_conditional_entropy

        m = QuantizedMaModel(1.0, 1.0)
        est = empirical_conditional_entropy(simulate(m, 10**6, seed=8))
        assert abs(est.value - qma_conditional_entropy(m)) < 1e-2

    @pytest.mark.parametrize(
        "sigma,theta,reference,seed",
        [
            (1.0, 1.7, "fig3_sigma1_reference.csv", 31),
            (5.0, 2.0, "fig3_sigma5_reference.csv", 32),
        ],
    )
    def test_fig3_raw_path_oracle(self, sigma, theta, reference, seed):
        # the smallest and largest corrected fig3 H_CE entries: the analytic
        # value and the reference entry both agree with a 1e7-sample path
        from entrobound.processes import qma_conditional_entropy

        m = QuantizedMaModel(sigma, theta)
        est = empirical_conditional_entropy(simulate(m, 10**7, seed=seed))
        band = 4 * est.std_error + 1e-3
        assert abs(est.value - qma_conditional_entropy(m)) <= band
        (row,) = [r for r in load_reference(reference) if r["theta"] == theta]
        assert abs(est.value - row["H_CE"]) <= band

    @pytest.mark.parametrize(
        "model,seed",
        [
            (QuantizedArModel(1.0, 0.9, 4.0), 41),
            (TwoStateHmm(0.1, 0.3, BinomialEmission(10, 0.2, 0.8)), 42),
            (PoissonModel(3.0), 43),
        ],
        ids=["quantized-ar", "binomial-hmm", "poisson"],
    )
    def test_shared_kernel_matches_two_bincount_formula(self, model, seed):
        # the estimator runs the analytic kernel processes._pmf_entropy on
        # the pair table; the formula it replaced is the oracle
        from entrobound.montecarlo import _plugin_conditional_entropy

        def two_bincounts(a, b):
            base = min(int(a.min()), int(b.min()))
            width = max(int(a.max()), int(b.max())) - base + 1
            joint = np.bincount((a - base) * width + (b - base), minlength=width * width).astype(float)
            rows = np.bincount(a - base, minlength=width).astype(float)
            joint, rows = joint[joint > 0], rows[rows > 0]
            return float(((rows * np.log(rows)).sum() - (joint * np.log(joint)).sum()) / len(a))

        values = simulate(model, 10**6, seed).values
        a, b = values[:-1], values[1:]
        assert _plugin_conditional_entropy(a, b) == pytest.approx(two_bincounts(a, b), abs=1e-13)
        assert _plugin_conditional_entropy(a[:15625], b[:15625]) == pytest.approx(
            two_bincounts(a[:15625], b[:15625]), abs=1e-13
        )

    def test_alphabet_guard(self):
        values = np.zeros(10**5, dtype=np.int64)
        values[0] = 10**6
        path = SamplePath(PoissonModel(1.0), 0, values)
        with pytest.raises(DomainError):
            empirical_conditional_entropy(path)

    def test_minimum_length(self):
        path = SamplePath(PoissonModel(1.0), 0, np.zeros(10**4, dtype=np.int64))
        with pytest.raises(DomainError):
            empirical_conditional_entropy(path)


class TestDitheringIdentity:
    def test_histogram_differential_entropy(self, rng):
        # Y + U with U ~ Uniform[0,1) has differential entropy equal to H(Y)
        n = 10**7
        y = rng.integers(0, 8, size=n)
        dithered = y + rng.random(n)
        counts, _ = np.histogram(dithered, bins=np.arange(0.0, 9.0))
        p = counts[counts > 0] / n
        h_diff = float(-(p * np.log(p)).sum())  # unit-width bins
        assert abs(h_diff - math.log(8)) < 5e-3


class TestEstimateWithError:
    def test_invariant(self):
        with pytest.raises(DomainError):
            EstimateWithError(1.0, -0.1, 10)

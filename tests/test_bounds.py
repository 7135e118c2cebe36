import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from entrobound.bounds import (
    gaussian_bound_k,
    gaussian_entropy_rate,
    gaussian_psd_bound,
    tdist_bound_1,
    tdist_bound_k,
    univariate_me_bound,
)
from entrobound.numerics import ConvergenceError, DomainError
from entrobound.processes import BinomialEmission, TwoStateHmm, hmm_covariance, hmm_entropy_bound, hmm_psd
from entrobound.spectrum import (
    CovarianceSequence,
    SpectralDensity,
    closed_form_log_cos_integral,
    integrate_periodic,
    psd_from_finite_covariance,
    reflection_coefficients,
)

from conftest import hmm_entropy_sandwich, random_ma_covariance

LOG_2PI_E = math.log(2 * math.pi * math.e)


class TestUnivariateMeBound:
    def test_zero_variance(self):
        assert univariate_me_bound(0.0) == pytest.approx(0.176485208, abs=1e-9)

    def test_unit_variance(self):
        assert univariate_me_bound(1.0) == pytest.approx(1.458959887, abs=1e-9)

    def test_normalizing_argument(self):
        assert univariate_me_bound(11.0 / 12.0) == pytest.approx(0.5 * LOG_2PI_E)

    def test_domain(self):
        with pytest.raises(DomainError):
            univariate_me_bound(-0.1)

    @pytest.mark.parametrize("variance", [math.inf, math.nan])
    def test_non_finite_rejected(self, variance):
        with pytest.raises(DomainError):
            univariate_me_bound(variance)


class TestGaussianEntropyRate:
    def test_ma1_rate_is_innovation_entropy(self):
        # 1 + theta^2 + 2 theta cos has unit geometric mean for |theta| < 1
        for theta in (0.2, 0.5, 0.9):
            psd = SpectralDensity.cosine_series([1.0 + theta**2, theta])
            assert gaussian_entropy_rate(psd) == pytest.approx(0.5 * LOG_2PI_E, abs=1e-9)

    def test_flat_white(self):
        psd = SpectralDensity.cosine_series([1.0])
        assert gaussian_entropy_rate(psd) == pytest.approx(0.5 * LOG_2PI_E)

    def test_flat_scaled(self):
        psd = SpectralDensity.cosine_series([4.0])
        assert gaussian_entropy_rate(psd) == pytest.approx(2.1120857, abs=1e-6)

    def test_vanishing_psd_gives_innovation_entropy(self):
        # 2 +- 2 cos is zero at lambda = pi (or 0), but log Phi is integrable
        # there: the MA(1) with theta = +-1 has unit innovations (Kolmogorov-Szego)
        for c1 in (1.0, -1.0):
            psd = SpectralDensity.cosine_series([2.0, c1])
            assert gaussian_entropy_rate(psd) == pytest.approx(0.5 * LOG_2PI_E, abs=1e-12)

    @pytest.mark.parametrize("c", [[3.0, 2.0, 1.0], [6.0, 4.0, 1.0], [6.0, -4.0, 1.0]])
    def test_multiple_zeros_on_the_circle(self, c):
        # |1 + z + z^2|^2 (two double zeros) and |1 +- z|^4 (a fourfold zero)
        psd = SpectralDensity.cosine_series(c)
        assert gaussian_entropy_rate(psd) == pytest.approx(0.5 * LOG_2PI_E, abs=1e-12)

    def test_only_a_vanishing_series_gives_minus_infinity(self):
        assert gaussian_entropy_rate(SpectralDensity.cosine_series([0.0, 0.0])) == -math.inf
        assert gaussian_entropy_rate(SpectralDensity.markov_mixture(0.0, 0.0, 0.5)) == -math.inf


class TestDegreeOneClosedForm:
    """c_0 + 2 c_1 cos and the Markov mixture share one closed form."""

    @staticmethod
    def exact_rate(c0: float, c1: float) -> float:
        import mpmath

        with mpmath.workdps(40):
            c0, c1 = mpmath.mpf(c0), mpmath.mpf(c1)
            inner = mpmath.log((c0 + mpmath.sqrt(c0 * c0 - 4 * c1 * c1)) / 2)
            return float((mpmath.log(2 * mpmath.pi * mpmath.e) + inner) / 2)

    def test_against_mpmath(self):
        rng = np.random.default_rng(4242)
        for i in range(400):
            c0 = 10.0 ** rng.uniform(-4.0, 6.0)
            u = rng.uniform(-1.0, 1.0) if i % 2 else rng.choice([-1.0, 1.0]) * (1.0 - 10.0 ** rng.uniform(-6.0, -1.0))
            psd = SpectralDensity.cosine_series([c0, 0.5 * c0 * u])
            assert gaussian_entropy_rate(psd) == pytest.approx(self.exact_rate(*psd.coefficients), abs=1e-12)

    @staticmethod
    def markov_log_integral(a: float, b: float, w: float, shift: float) -> float:
        # the Markov-mixture closed form as the mixture route computed it before
        # the mixture became a one-term cosine series times its denominator
        big_a = a * (1.0 - w * w) + (b + shift) * (1.0 + w * w)
        if not big_a > 0.0:
            return -math.inf
        ratio = max(-1.0, min(1.0, -2.0 * w * (b + shift) / big_a))
        return math.log(big_a) + closed_form_log_cos_integral(ratio)

    def test_mixture_is_bit_identical_to_the_markov_formula(self):
        rng = np.random.default_rng(2500)
        checked = 0
        for i in range(3000):
            a = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, 8.0)
            w = rng.choice([-1.0, 1.0]) * (1.0 - 10.0 ** rng.uniform(-7.0, 0.0))
            low = min(a * (1 - w * w) / (1 - w) ** 2, a * (1 - w * w) / (1 + w) ** 2)
            b = -low * (1.0 + rng.choice([-1e-12, 1e-12, 1e-3, 1.0])) if i % 2 else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, 8.0)
            try:
                psd = SpectralDensity.markov_mixture(a, b, w)
            except DomainError:
                continue
            checked += 1
            for shift in (0.0, 1.0 / 12.0):
                expected = 0.5 * (LOG_2PI_E + self.markov_log_integral(a, b, w, shift))
                got = gaussian_entropy_rate(psd) if shift == 0.0 else gaussian_psd_bound(psd).value
                assert got == expected or (math.isnan(got) and math.isnan(expected))
        assert checked > 1000


class _NodeMeetsZero(Exception):
    pass


def quadrature_oracle(psd: SpectralDensity, shift: float) -> float:
    """(1/2pi) Int log(Phi + shift) by the periodic trapezoid rule: -inf once a
    node meets Phi + shift <= 0; a ConvergenceError passes through."""

    def integrand(lam):
        vals = psd(lam) + shift
        if not np.all((vals > 0.0) & np.isfinite(vals)):
            raise _NodeMeetsZero
        return np.log(vals)

    try:
        return integrate_periodic(integrand) / (2.0 * math.pi)
    except _NodeMeetsZero:
        return -math.inf


def oracle_bound(psd: SpectralDensity) -> float:
    return 0.5 * (LOG_2PI_E + quadrature_oracle(psd, 1.0 / 12.0))


def oracle_rate(psd: SpectralDensity) -> float:
    return 0.5 * (LOG_2PI_E + quadrature_oracle(psd, 0.0))


# Known defect (c) of the quadrature: the PSD's minimum is 3.0e-11
DEFECT_C = (0.8671189766904396, 0.42217425418268545, 0.20994707107442728, -0.11749767076109953)


class TestClosedFormsAgainstQuadrature:
    def test_random_cosine_series(self):
        rng = np.random.default_rng(1010)
        rates = 0
        for _ in range(300):
            psd = psd_from_finite_covariance(random_ma_covariance(rng, max_lags=8))
            assert gaussian_psd_bound(psd).value == pytest.approx(oracle_bound(psd), abs=1e-12)
            try:
                expected = oracle_rate(psd)
            except ConvergenceError:
                continue
            if math.isfinite(expected):
                rates += 1
                assert gaussian_entropy_rate(psd) == pytest.approx(expected, abs=1e-10)
        assert rates > 250

    def test_graded_cosine_series(self):
        # a tiny end MA coefficient puts a root pair near 0 and infinity
        rng = np.random.default_rng(31)
        for _ in range(200):
            k = int(rng.integers(1, 7))
            a = rng.uniform(-3.0, 3.0, size=k + 1)
            a[rng.integers(0, 2) * k] *= 10.0 ** rng.uniform(-16.0, -4.0)
            psd = SpectralDensity.cosine_series([np.dot(a[: k + 1 - m], a[m:]) for m in range(k + 1)])
            assert gaussian_psd_bound(psd).value == pytest.approx(oracle_bound(psd), abs=1e-12)

    @pytest.mark.parametrize("gammas", [(0.1, 0.3), (0.7, 0.6), (0.01, 0.02)])
    def test_markov_mixture(self, gammas):
        model = TwoStateHmm(*gammas, BinomialEmission(10, 0.2, 0.8))
        psd = hmm_psd(model)
        assert gaussian_psd_bound(psd).value == pytest.approx(oracle_bound(psd), abs=1e-12)
        assert gaussian_entropy_rate(psd) == pytest.approx(oracle_rate(psd), abs=1e-12)

    def test_defect_c(self):
        cov = CovarianceSequence(DEFECT_C)
        psd = psd_from_finite_covariance(cov)
        assert gaussian_psd_bound(psd).value == pytest.approx(1.19913440138779, abs=1e-12)
        rate = gaussian_entropy_rate(psd)
        assert rate == pytest.approx(0.97545597, abs=1e-8)
        # the prediction error of the zero-padded sequence falls to the rate from above
        for order in (10, 100, 1000):
            err = reflection_coefficients(cov.values, order + 1)[1][-1]
            assert rate <= 0.5 * (LOG_2PI_E + math.log(err))


class TestDeflate:
    # synthetic division drops the root pairs beyond _EXTREME before Jensen's
    # formula; it must give np.polydiv's quotient without its remainder scan
    def test_real_root_is_bit_identical(self):
        from entrobound.bounds import _deflate

        poly = np.random.default_rng(8).normal(size=9)
        for root in (0.013, -4e-3, 2.5):
            assert np.array_equal(_deflate(poly, root), np.polydiv(poly, [1.0, -root])[0])

    def test_complex_root_agrees_to_rounding(self):
        from entrobound.bounds import _deflate

        poly = np.random.default_rng(9).normal(size=9)
        for root in (4e-3 + 9e-3j, -0.3 + 0.2j):
            # a real dividend, then a complex one as after a first deflation
            once = np.polydiv(poly, [1.0, -root])[0]
            for dividend, divisor in ((poly, root), (once, root.conjugate())):
                expected = np.polydiv(dividend, [1.0, -divisor])[0]
                ulp = np.spacing(np.abs(expected).max())
                assert np.abs(_deflate(dividend, divisor) - expected).max() <= 2 * ulp


class TestGaussianBoundK:
    def test_no_lags_is_univariate(self):
        value = gaussian_bound_k(CovarianceSequence((1.5,))).value
        assert value == pytest.approx(univariate_me_bound(1.5), abs=1e-15)

    def test_interior_optimum_equals_tdist(self, rng):
        # where Burg's solution lies inside the l1 region, tdist_bound_k is it
        for _ in range(50):
            cov = random_ma_covariance(rng, max_lags=6)
            res = tdist_bound_k(cov)
            if res.optimizer_iterations == 0:
                assert gaussian_bound_k(cov).value == res.value

    def test_order1_closed_form(self):
        r0, r1 = 2.0, 0.9
        sig = r0 + 1.0 / 12.0
        expected = 0.5 * (LOG_2PI_E + math.log(sig - r1 * r1 / sig))
        assert gaussian_bound_k(CovarianceSequence((r0, r1))).value == pytest.approx(expected, abs=1e-15)


def test_cosine_series_over_the_lag_limit():
    # a cosine series longer than MAX_LAGS is rejected before the root solve;
    # one at the limit is solved
    from entrobound.numerics import MAX_LAGS

    at_limit = SpectralDensity.cosine_series([1.0] + [1e-3] * MAX_LAGS)
    assert math.isfinite(gaussian_psd_bound(at_limit).value)
    over = SpectralDensity.cosine_series([1.0] + [1e-3] * (MAX_LAGS + 1))
    with pytest.raises(DomainError, match=f"degree {MAX_LAGS + 1} exceeds the limit of {MAX_LAGS}"):
        gaussian_psd_bound(over)
    with pytest.raises(DomainError, match="exceeds the limit"):
        gaussian_entropy_rate(over)


class TestGaussianPsdBound:
    def test_flat_collapses_to_univariate(self):
        res = gaussian_psd_bound(SpectralDensity.cosine_series([1.5]))
        assert res.value == pytest.approx(univariate_me_bound(1.5), abs=1e-12)
        assert res.argmin is None

    def test_markov_mixture_against_scipy_quad(self):
        # independent quadrature route for the rational-PSD integrand
        a, b, omega = 100 * 0.0675, 10 * 0.16, 0.6
        psd = SpectralDensity.markov_mixture(a, b, omega)

        def integrand(lam):
            return math.log(
                a * (1 - omega**2) / (1 + omega**2 - 2 * omega * math.cos(lam))
                + b
                + 1.0 / 12.0
            )

        ref, _ = integrate.quad(integrand, 0.0, 2 * math.pi, limit=200)
        expected = 0.5 * LOG_2PI_E + ref / (4 * math.pi)
        assert gaussian_psd_bound(psd).value == pytest.approx(expected, abs=1e-9)

    def test_quantized_ma_psd_value(self):
        from entrobound.processes import QuantizedMaModel, qma_r0, qma_r1

        model = QuantizedMaModel(1.0, 1.0)
        psd = SpectralDensity.cosine_series([qma_r0(model), qma_r1(model)])
        assert gaussian_psd_bound(psd).value == pytest.approx(1.621671087, abs=2e-3)

    def test_dominates_gaussian_rate(self, rng):
        for _ in range(10):
            psd = SpectralDensity.cosine_series(random_ma_covariance(rng).values)
            assert gaussian_psd_bound(psd).value >= gaussian_entropy_rate(psd)


class TestTdistBound1:
    def test_uncorrelated(self):
        res = tdist_bound_1(1.0, 0.0)
        assert res.value == pytest.approx(univariate_me_bound(1.0), abs=1e-12)
        assert abs(res.argmin[0]) < 1e-6

    def test_quantized_ma_values(self):
        from entrobound.processes import QuantizedMaModel, qma_r0, qma_r1

        m = QuantizedMaModel(1.0, 1.0)
        assert tdist_bound_1(qma_r0(m), qma_r1(m)).value == pytest.approx(
            1.685758684, abs=2e-3
        )
        m = QuantizedMaModel(5.0, 2.0)
        assert tdist_bound_1(qma_r0(m), qma_r1(m)).value == pytest.approx(
            3.746838328, abs=2e-3
        )

    def test_sign_symmetry(self):
        pos = tdist_bound_1(2.0, 1.2)
        neg = tdist_bound_1(2.0, -1.2)
        assert pos.value == pytest.approx(neg.value, abs=1e-10)
        assert pos.argmin[0] == pytest.approx(-neg.argmin[0], abs=1e-6)

    def test_argmin_closed_form(self, rng):
        for _ in range(25):
            r0 = float(rng.uniform(0.1, 5.0))
            r1 = float(r0 * rng.uniform(-1.0, 1.0))
            rho = r1 / (r0 + 1.0 / 12.0)
            assert tdist_bound_1(r0, r1).argmin[0] == pytest.approx(-2 * rho / (1 + rho**2), abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            tdist_bound_1(0.0, 0.0)
        with pytest.raises(DomainError):
            tdist_bound_1(1.0, 1.1)

    @pytest.mark.parametrize(
        "r0,r1", [(1.0, math.nan), (math.nan, 0.0), (math.inf, 0.0), (math.inf, math.inf), (1.0, -math.inf)]
    )
    def test_non_finite_rejected(self, r0, r1):
        with pytest.raises(DomainError):
            tdist_bound_1(r0, r1)

    def test_rejects_r1_beyond_r0_inside_the_slack(self):
        # |R(1)| may exceed R(0) by 1e-12 R(0), which passes 1/12 from R(0) = 8.3e10 on
        r1 = 1e10 + 0.004
        assert abs(tdist_bound_1(1e10, r1).value - self._exact(1e10, r1)) <= 1e-15
        with pytest.raises(DomainError):
            tdist_bound_1(1e16, 1e16 + 4.0)

    @staticmethod
    def _exact(r0, r1):
        # sigma - R(1)^2 / sigma at 400 digits, enough to keep the 1/12 beside
        # R(0) = 1.7e308 and to absorb the cancellation at |R(1)| = R(0)
        import mpmath

        with mpmath.workdps(400):
            sig = mpmath.mpf(r0) + mpmath.mpf(1) / 12
            argument = sig - mpmath.mpf(r1) ** 2 / sig
            return float((mpmath.log(2 * mpmath.pi * mpmath.e) + mpmath.log(argument)) / 2)

    @pytest.mark.parametrize(
        "r0,r1",
        [(1e8, 1e8), (1e14, 1e14), (1e16, 1e16), (1e16, -1e16), (1e200, 1e200), (1.7e308, -1.7e308), (1e-300, 1e-300)],
    )
    def test_unit_root_against_mpmath(self, r0, r1):
        # the float form sigma - R(1)^2 / sigma was 3.0e-8 low at 1e8, 3.2e-2
        # low at 1e14, and raised ValueError from 1e16 on
        assert abs(tdist_bound_1(r0, r1).value - self._exact(r0, r1)) <= 1e-15

    def test_random_inputs_against_mpmath(self, rng):
        for _ in range(200):
            r0 = float(10.0 ** rng.uniform(-300.0, 308.0))
            r1 = float(r0 * rng.choice([rng.uniform(-1.0, 1.0), 1.0 - 10.0 ** rng.uniform(-16.0, -1.0)]))
            exact = self._exact(r0, r1)
            assert abs(tdist_bound_1(r0, r1).value - exact) <= 1e-15 * max(1.0, abs(exact))


class TestTdistBoundK:
    def test_white_sequence(self):
        res = tdist_bound_k(CovarianceSequence((1.0, 0.0, 0.0)))
        assert res.value == pytest.approx(univariate_me_bound(1.0), abs=1e-9)
        assert np.allclose(res.argmin, 0.0, atol=1e-4)

    def test_no_lags(self):
        res = tdist_bound_k(CovarianceSequence((2.5,)))
        assert res.value == pytest.approx(univariate_me_bound(2.5))
        assert res.argmin == []

    def test_order1_matches_closed_form(self, rng):
        for _ in range(25):
            r0 = float(rng.uniform(0.1, 5.0))
            r1 = float(r0 * rng.uniform(-1.0, 1.0))
            v1 = tdist_bound_1(r0, r1).value
            vk = tdist_bound_k(CovarianceSequence((r0, r1))).value
            assert abs(v1 - vk) <= 1e-12

    def test_quantized_ar_order3(self):
        from entrobound.processes import QuantizedArModel, qar_th2_bound

        res = qar_th2_bound(QuantizedArModel(1.0, 0.9, 4.0), 3)
        assert res.value == pytest.approx(2.907583792, abs=2e-3)
        assert sum(abs(b) for b in res.argmin) < 1.0

    def test_monotone_in_k(self, rng):
        for _ in range(5):
            cov = random_ma_covariance(rng, max_lags=3)
            vals = [
                tdist_bound_k(CovarianceSequence(cov.values[: j + 1])).value
                for j in range(1, cov.k + 1)
            ]
            for lo, hi in zip(vals[1:], vals[:-1]):
                assert lo <= hi + 1e-6

    @pytest.mark.parametrize("v", [1e2, 1e4, 1e6, 1e8])
    @pytest.mark.parametrize("rho", [0.99, 0.999, 0.9999, -0.999, -0.9999])
    def test_near_unit_root_chain_starts_at_order1(self, v, rho):
        # R(m) = v * rho^m: order 1 equals tdist_bound_1's closed form, and
        # along k = 1..16 (which spans k = 2, 3, 4, 8, 16) no order exceeds
        # the one before by more than its own certified gap: the order-(k-1)
        # region is the order-k region at beta_k = 0
        values = tuple(v * rho**m for m in range(17))
        previous = tdist_bound_1(values[0], values[1]).value
        for k in range(1, 17):
            res = tdist_bound_k(CovarianceSequence(values[: k + 1]))
            if k == 1:
                assert res.value == pytest.approx(previous, abs=1e-12)
            assert res.value <= previous + res.duality_gap + 1e-12
            previous = res.value

    def test_degrades_to_white(self):
        res = tdist_bound_k(CovarianceSequence((3.0, 0.0, 0.0, 0.0)))
        assert abs(res.value - univariate_me_bound(3.0)) < 1e-9


@pytest.mark.parametrize("gammas", [(0.1, 0.3), (0.7, 0.6), (0.01, 0.02)])
def test_bounds_above_the_true_entropy_rate(gammas):
    # the enumerated sandwich H(Y_5 | Y^4, X_1) <= H <= H(Y_5 | Y^4) brackets
    # the true rate; every bound must lie above its upper end
    model = TwoStateHmm(*gammas, BinomialEmission(10, 0.2, 0.8))
    lower, upper = hmm_entropy_sandwich(model)
    assert lower <= upper <= lower + 1e-5
    assert hmm_entropy_bound(model).value >= upper
    for k in (1, 2, 4, 8):
        cov = CovarianceSequence(tuple(hmm_covariance(model, m) for m in range(k + 1)))
        assert tdist_bound_k(cov).value >= upper
        assert gaussian_bound_k(cov).value >= upper


class TestDitheringSanity:
    def test_uniform_alphabet_bound(self):
        # i.i.d. uniform on {0..M-1}: variance (M^2 - 1)/12, exact entropy log M
        for m in range(2, 65):
            assert univariate_me_bound((m * m - 1) / 12.0) >= math.log(m)


def _grid_objective(cov, betas, nodes=1024):
    """Order-k objective at each row of betas, by the trapezoid rule on the
    nodes 2 pi (j + 1/2) / n.  Where sum|beta_m| <= 1, Psi vanishes only where
    |cos(m*lambda)| = 1 for some m <= k; at a node that needs n to divide
    m*(2j + 1), which no m < n does for n a power of two."""
    r = np.asarray(cov.values)
    lam = 2 * math.pi * (np.arange(nodes) + 0.5) / nodes
    table = np.cos(np.outer(np.arange(1, cov.k + 1), lam))
    out = np.empty(len(betas))
    for start in range(0, len(betas), 1024):
        block = betas[start : start + 1024]
        sig = r[0] + 1.0 / 12.0 + block @ r[1:]
        mean_log_psi = np.log(1.0 + block @ table).mean(axis=1)
        out[start : start + 1024] = 0.5 * (LOG_2PI_E + np.log(sig) - mean_log_psi)
    return out


def _l1_grid(k, points):
    """The product grid on [-1, 1]^k, restricted to the closed l1 region."""
    axis = np.linspace(-1.0, 1.0, points)
    grid = np.stack(np.meshgrid(*([axis] * k), indexing="ij"), axis=-1).reshape(-1, k)
    return grid[np.abs(grid).sum(axis=1) <= 1.0]


class TestOptimizerQuality:
    # independent check: a dense grid over the l1 region must never find a
    # strictly better objective value than the solver
    def test_order2_not_worse_than_dense_grid(self, rng):
        grid = _l1_grid(2, 201)
        for _ in range(10):
            cov = random_ma_covariance(rng, lags=2)
            res = tdist_bound_k(cov)
            assert -1e-12 <= res.duality_gap <= 1e-9
            assert res.value <= _grid_objective(cov, grid).min() + 1e-9

    def test_order3_not_worse_than_dense_grid(self, rng):
        grid = _l1_grid(3, 41)
        for _ in range(3):
            cov = random_ma_covariance(rng, lags=3)
            res = tdist_bound_k(cov)
            assert -1e-12 <= res.duality_gap <= 1e-9
            assert res.value <= _grid_objective(cov, grid).min() + 1e-9

    def test_order4_below_order1_and_univariate(self, rng):
        boundary = 0
        for _ in range(300):
            cov = random_ma_covariance(rng, lags=4)
            r = cov.values
            res = tdist_bound_k(cov)
            assert res.value <= tdist_bound_1(r[0], r[1]).value + 1e-12
            assert res.value <= univariate_me_bound(r[0]) + 1e-12
            assert -1e-12 <= res.duality_gap <= 1e-9
            l1 = sum(abs(b) for b in res.argmin)
            assert l1 <= 1.0 + 1e-12
            if res.optimizer_iterations:
                boundary += 1
                assert abs(l1 - 1.0) <= 1e-12
        assert boundary > 0

    def test_dual_bound_below_minimum_from_any_point(self, rng):
        # weak duality: the certificate's lower bound holds whatever beta
        # the multipliers are read from, not only near the optimum
        from entrobound.bounds import _cosine_table, _dual_bound

        table = _cosine_table(3, 1024)
        for _ in range(20):
            cov = random_ma_covariance(rng, lags=3)
            value = tdist_bound_k(cov).value
            a = np.asarray(cov.values) + np.eye(4)[0] / 12.0
            for beta in rng.uniform(-1.0, 1.0, size=(10, 3)):
                beta *= rng.uniform(0.0, 1.0) / np.abs(beta).sum()
                assert _dual_bound(a, beta, table) <= value + 1e-12

    def test_interior_optimum_is_determinant_ratio(self, rng):
        # Burg's maximum-entropy value: sigma_k^2 = det T_{k+1} / det T_k
        interior = 0
        for _ in range(200):
            cov = random_ma_covariance(rng)
            res = tdist_bound_k(cov)
            if res.optimizer_iterations:
                continue
            interior += 1
            shifted = np.asarray(cov.values) + np.eye(cov.k + 1)[0] / 12.0
            toeplitz = shifted[np.abs(np.subtract.outer(np.arange(cov.k + 1), np.arange(cov.k + 1)))]
            ratio = np.linalg.det(toeplitz) / np.linalg.det(toeplitz[:-1, :-1])
            assert res.value == pytest.approx(0.5 * math.log(2 * math.pi * math.e * ratio), abs=1e-12)
            assert res.duality_gap == 0.0
        assert interior > 20


# covariances on which a naive primal-dual loop failed: an uncondensed Newton
# matrix that turned singular, separate primal and dual step lengths that
# cycled, and a 4-cycle of centring weights; then two near-unit-root inputs
# at large R(0), where the dual's Levinson-Durbin subtracts from R(0) + 1/12
# down to a prediction error many orders smaller
HARD_BOUNDARY_CASES = [
    (2.6518002229799644, 1.6622134265927049, 0.3396751767810387),
    (7.668127299233782, -5.011096773882918, 1.8799945656577108, -0.6740648579216126),
    (6.327508614012353, 3.9576316879367512, 2.698245162255109, 2.8188232022191095, 1.874873583830155),
    (1.554977971486088, 1.1409297215436254, 0.8910192191689922, 0.32992389429265323, 0.1765149871866966),
    tuple(1e6 * 0.9999**m * math.cos(2 * m) for m in range(17)),
    tuple(1e8 * 0.9999**m * math.cos(0.5 * m) for m in range(17)),
]


class TestPrimalDualSolve:
    @pytest.mark.parametrize("values", HARD_BOUNDARY_CASES)
    def test_hard_cases_certified_on_the_boundary(self, values):
        res = tdist_bound_k(CovarianceSequence(values))
        assert res.optimizer_iterations > 0
        assert -1e-12 <= res.duality_gap <= 1e-12
        assert sum(abs(b) for b in res.argmin) == pytest.approx(1.0, abs=1e-12)

    def test_seeded_sweep_k2_to_k16(self):
        rng = np.random.default_rng(20240)
        for _ in range(2000):
            res = tdist_bound_k(random_ma_covariance(rng, lags=int(rng.integers(2, 17))))
            assert -1e-12 <= res.duality_gap <= 1e-12

    def test_value_is_the_exact_objective(self):
        # the value is Jensen's formula on the roots of Psi at argmin, so it
        # carries no quadrature error; a 2^16-node trapezoid rule is an
        # independent check of it
        rng = np.random.default_rng(77)
        covs = [CovarianceSequence(values) for values in HARD_BOUNDARY_CASES]
        covs += [random_ma_covariance(rng, lags=int(rng.integers(2, 9))) for _ in range(40)]
        boundary = 0
        for cov in covs:
            res = tdist_bound_k(cov)
            if res.optimizer_iterations:
                boundary += 1
                trapezoid = _grid_objective(cov, np.array([res.argmin]), nodes=2**16)[0]
                assert res.value == pytest.approx(trapezoid, abs=1e-12)
        assert boundary >= 20

    def test_overflowing_level_stops_without_warnings(self, monkeypatch):
        # R(m) = 1e4 * 0.9999^m * cos(2m) at k = 4: the solve on 256 nodes
        # converges, but on 512 nodes s.lam grows without bound.  The
        # divergence rule ends it after 70 iterations; without the rule a step
        # overflows after 81 and the solve stops at once (later iterates
        # would be NaN).  Either way there is no RuntimeWarning, and the
        # doubling goes on and certifies the input at a finer level
        import entrobound.bounds as bounds

        values = tuple(1e4 * 0.9999**m * math.cos(2 * m) for m in range(5))
        a = np.asarray(values) + np.eye(5)[0] / 12.0
        for diverged, stop in [(bounds._DIVERGED, 70), (math.inf, 81)]:
            monkeypatch.setattr(bounds, "_DIVERGED", diverged)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                bounds._central_path(a, bounds._cosine_table(4, 256))
                with pytest.raises(ConvergenceError) as stalled:
                    bounds._central_path(a, bounds._cosine_table(4, 512))
                res = tdist_bound_k(CovarianceSequence(values))
            steps = int(str(stalled.value).split("after ")[1].split()[0])
            assert steps == stop
            assert len(stalled.value.estimates) == 2
            assert np.isfinite(stalled.value.estimates).all()
            assert -1e-12 <= res.duality_gap < 1e-9

    def test_near_unit_root_survives_a_stalled_level(self, monkeypatch):
        # R(m) = 1e4 * 0.99^m * cos(2m) at k = 4: on the first node table
        # s.lam grows past 1e12 times its start (it ran all 100 iterations to
        # 9e30 before the divergence rule), and the doubling moves on to the
        # next level instead of exiting
        import entrobound.bounds as bounds

        stalled = []
        inner = bounds._central_path

        def recording(a, table):
            try:
                return inner(a, table)
            except ConvergenceError as error:
                steps = int(str(error).split("after ")[1].split()[0])
                stalled.append((table.shape[1], steps, error.estimates))
                raise

        monkeypatch.setattr(bounds, "_central_path", recording)
        values = tuple(1e4 * 0.99**m * math.cos(2 * m) for m in range(5))
        res = tdist_bound_k(CovarianceSequence(values))
        assert [nodes for nodes, _, _ in stalled] == [256]
        _, steps, estimates = stalled[0]
        assert steps < bounds._MAX_ITERATIONS
        assert estimates[0] > bounds._DIVERGED * bounds._MU_START * 9
        assert res.optimizer_iterations == bounds._MAX_ITERATIONS + 13
        assert -1e-12 <= res.duality_gap <= 1e-12
        assert res.value <= tdist_bound_1(values[0], values[1]).value
        assert res.value <= univariate_me_bound(values[0])

    def test_capped_level_moves_on(self, monkeypatch):
        # capped at 3 iterations on the first node table, the solve reports
        # the cap with the last (s.lam, residual), and the doubling counts the
        # capped level and certifies the input on the next one
        import entrobound.bounds as bounds

        values = HARD_BOUNDARY_CASES[0]
        a = np.asarray(values) + np.eye(len(values))[0] / 12.0
        table = bounds._cosine_table(len(values) - 1, 256)
        cap = bounds._MAX_ITERATIONS
        monkeypatch.setattr(bounds, "_MAX_ITERATIONS", 3)
        with pytest.raises(ConvergenceError, match="after 3 iterations") as capped:
            bounds._central_path(a, table)
        assert len(capped.value.estimates) == 2
        assert np.isfinite(capped.value.estimates).all()
        assert capped.value.estimates[0] > bounds._PATH_GAP

        monkeypatch.setattr(bounds, "_MAX_ITERATIONS", cap)
        _, uncapped = bounds._central_path(a, bounds._cosine_table(len(values) - 1, 512))
        inner, levels = bounds._central_path, []

        # the cap is lifted only when the next level starts, so tdist_bound_k
        # counts the capped level as 3 iterations
        def capped_first(a, table):
            levels.append(table.shape[1])
            monkeypatch.setattr(bounds, "_MAX_ITERATIONS", 3 if len(levels) == 1 else cap)
            return inner(a, table)

        monkeypatch.setattr(bounds, "_central_path", capped_first)
        res = tdist_bound_k(CovarianceSequence(values))
        assert levels == [256, 512]
        assert res.optimizer_iterations == 3 + uncapped
        assert -1e-12 <= res.duality_gap <= 1e-12

    def test_returned_iterate_is_feasible(self):
        # x = (p, t) from the flat primal-dual state: p_0 > 0, |p_m| <= t_m and
        # sum t_m <= p_0, to 1e-12 of p_0, on 200 seeded boundary inputs;
        # a wrong slice of the state breaks these whatever the rounding
        import entrobound.bounds as bounds

        rng = np.random.default_rng(28)
        checked = 0
        while checked < 200:
            cov = random_ma_covariance(rng, lags=int(rng.integers(2, 9)))
            k = cov.k
            a, poly, _ = bounds._burg(cov)
            c = np.correlate(poly, poly, "full")[k:]
            if np.abs(2.0 * c[1:] / c[0]).sum() <= 1.0:
                continue  # Burg's beta is inside the region: no solve
            table = bounds._cosine_table(k, 256)
            x, steps = bounds._central_path(a, table)
            again, steps_again = bounds._central_path(a, table)
            assert np.array_equal(x, again) and steps == steps_again
            assert x.shape == (2 * k + 1,)
            assert steps <= bounds._MAX_ITERATIONS
            p, t = x[: k + 1], x[k + 1 :]
            assert p[0] > 0.0
            assert np.all(np.abs(p[1:]) - t <= 1e-12 * p[0])
            assert t.sum() - p[0] <= 1e-12 * p[0]
            checked += 1

    def test_order4_step_count(self):
        # the barrier path this solve replaced took about 44 Newton steps
        rng = np.random.default_rng(4)
        steps = [tdist_bound_k(random_ma_covariance(rng, lags=4)).optimizer_iterations for _ in range(300)]
        boundary = [s for s in steps if s]
        assert len(boundary) > 100
        assert np.mean(boundary) <= 15

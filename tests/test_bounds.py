import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from entrobound.bounds import (
    L1_SHRINK,
    gaussian_bound_k,
    gaussian_entropy_rate,
    gaussian_psd_bound,
    tdist_bound_1,
    tdist_bound_k,
    univariate_me_bound,
)
from entrobound.numerics import ConvergenceError, DomainError
from entrobound.processes import BinomialEmission, TwoStateHmm, hmm_psd
from entrobound.spectrum import (
    CovarianceSequence,
    SpectralDensity,
    levinson_durbin,
    psd_from_finite_covariance,
)

from conftest import random_ma_covariance

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


def quadrature_oracle(psd: SpectralDensity) -> SpectralDensity:
    """The same PSD as a callable, which the bounds integrate by quadrature."""
    return SpectralDensity.from_callable(psd)


# Known defect (c) of the quadrature: the PSD's minimum is 3.0e-11
DEFECT_C = (0.8671189766904396, 0.42217425418268545, 0.20994707107442728, -0.11749767076109953)


class TestClosedFormsAgainstQuadrature:
    def test_random_cosine_series(self):
        rng = np.random.default_rng(1010)
        rates = 0
        for _ in range(300):
            psd = psd_from_finite_covariance(random_ma_covariance(rng, max_lags=8))
            oracle = quadrature_oracle(psd)
            assert gaussian_psd_bound(psd).value == pytest.approx(
                gaussian_psd_bound(oracle).value, abs=1e-12
            )
            try:
                expected = gaussian_entropy_rate(oracle)
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
            assert gaussian_psd_bound(psd).value == pytest.approx(
                gaussian_psd_bound(quadrature_oracle(psd)).value, abs=1e-12
            )

    @pytest.mark.parametrize("gammas", [(0.1, 0.3), (0.7, 0.6), (0.01, 0.02)])
    def test_markov_mixture(self, gammas):
        model = TwoStateHmm(*gammas, BinomialEmission(10, 0.2, 0.8))
        psd = hmm_psd(model)
        oracle = quadrature_oracle(psd)
        assert gaussian_psd_bound(psd).value == pytest.approx(gaussian_psd_bound(oracle).value, abs=1e-12)
        assert gaussian_entropy_rate(psd) == pytest.approx(gaussian_entropy_rate(oracle), abs=1e-12)

    def test_defect_c(self):
        cov = CovarianceSequence(DEFECT_C)
        psd = psd_from_finite_covariance(cov)
        assert gaussian_psd_bound(psd).value == pytest.approx(1.19913440138779, abs=1e-12)
        rate = gaussian_entropy_rate(psd)
        assert rate == pytest.approx(0.97545597, abs=1e-8)
        # Levinson-Durbin on the zero-padded sequence falls to the rate from above
        for order in (10, 100, 1000):
            padded = np.zeros(order + 1)
            padded[: cov.k + 1] = cov.values
            err = levinson_durbin(padded)[2]
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
            assert abs(v1 - vk) < 1e-6

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

    def test_degrades_to_white(self):
        res = tdist_bound_k(CovarianceSequence((3.0, 0.0, 0.0, 0.0)))
        assert abs(res.value - univariate_me_bound(3.0)) < 1e-9


class TestDitheringSanity:
    def test_uniform_alphabet_bound(self):
        # i.i.d. uniform on {0..M-1}: variance (M^2 - 1)/12, exact entropy log M
        for m in range(2, 65):
            assert univariate_me_bound((m * m - 1) / 12.0) >= math.log(m)


def _grid_objective(cov, betas, nodes=1024):
    """Order-k objective at each row of betas, by plain trapezoid quadrature."""
    r = np.asarray(cov.values)
    lam = 2 * math.pi * np.arange(nodes) / nodes
    table = np.cos(np.outer(np.arange(1, cov.k + 1), lam))
    out = np.empty(len(betas))
    for start in range(0, len(betas), 1024):
        block = betas[start : start + 1024]
        sig = r[0] + 1.0 / 12.0 + block @ r[1:]
        mean_log_psi = np.log(1.0 + block @ table).mean(axis=1)
        out[start : start + 1024] = 0.5 * (LOG_2PI_E + np.log(sig) - mean_log_psi)
    return out


def _l1_grid(k, points):
    """The product grid on [-limit, limit]^k, restricted to the l1 region."""
    limit = 1.0 - L1_SHRINK
    axis = np.linspace(-limit, limit, points)
    grid = np.stack(np.meshgrid(*([axis] * k), indexing="ij"), axis=-1).reshape(-1, k)
    return grid[np.abs(grid).sum(axis=1) <= limit]


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
        limit = 1.0 - L1_SHRINK
        boundary = 0
        for _ in range(300):
            cov = random_ma_covariance(rng, lags=4)
            r = cov.values
            res = tdist_bound_k(cov)
            assert res.value <= tdist_bound_1(r[0], r[1]).value + 1e-12
            assert res.value <= univariate_me_bound(r[0]) + 1e-12
            assert -1e-12 <= res.duality_gap <= 1e-9
            l1 = sum(abs(b) for b in res.argmin)
            assert l1 <= limit + 1e-12
            if res.optimizer_iterations:
                boundary += 1
                assert abs(l1 - limit) <= 1e-7
        assert boundary > 0

    def test_dual_bound_below_minimum_from_any_point(self, rng):
        # weak duality: the certificate's lower bound holds whatever beta
        # the multipliers are read from, not only near the optimum
        from entrobound.bounds import _cosine_table, _dual_bound

        limit = 1.0 - L1_SHRINK
        table = _cosine_table(3, 1024)
        for _ in range(20):
            cov = random_ma_covariance(rng, lags=3)
            value = tdist_bound_k(cov).value
            a = np.asarray(cov.values) + np.eye(4)[0] / 12.0
            for beta in rng.uniform(-1.0, 1.0, size=(10, 3)):
                beta *= rng.uniform(0.0, limit) / np.abs(beta).sum()
                assert _dual_bound(a, beta, table, limit) <= value + 1e-12

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
# cycled, and a 4-cycle of centring weights
HARD_BOUNDARY_CASES = [
    (2.6518002229799644, 1.6622134265927049, 0.3396751767810387),
    (7.668127299233782, -5.011096773882918, 1.8799945656577108, -0.6740648579216126),
    (6.327508614012353, 3.9576316879367512, 2.698245162255109, 2.8188232022191095, 1.874873583830155),
    (1.554977971486088, 1.1409297215436254, 0.8910192191689922, 0.32992389429265323, 0.1765149871866966),
]


class TestPrimalDualSolve:
    @pytest.mark.parametrize("values", HARD_BOUNDARY_CASES)
    def test_hard_cases_certified_on_the_boundary(self, values):
        res = tdist_bound_k(CovarianceSequence(values))
        assert res.optimizer_iterations > 0
        assert -1e-12 <= res.duality_gap <= 1e-12
        assert sum(abs(b) for b in res.argmin) == pytest.approx(1.0 - L1_SHRINK, abs=1e-9)

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
            assert res.quadrature_error_estimate == 0.0
            if res.optimizer_iterations:
                boundary += 1
                trapezoid = _grid_objective(cov, np.array([res.argmin]), nodes=2**16)[0]
                assert res.value == pytest.approx(trapezoid, abs=1e-12)
        assert boundary >= 20

    def test_overflowing_level_stops_without_warnings(self):
        # R(m) = 1e6 * 0.9999^m at k = 16: the solve on 512 nodes overflows and
        # stops at once (later iterates would be NaN), with no RuntimeWarning;
        # the doubling goes on and certifies the input at a finer level
        import entrobound.bounds as bounds

        values = tuple(1e6 * 0.9999**m for m in range(17))
        a = np.asarray(values) + np.eye(17)[0] / 12.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as stalled:
                bounds._central_path(a, bounds._cosine_table(16, 512), 1.0 - L1_SHRINK)
            res = tdist_bound_k(CovarianceSequence(values))
        assert len(stalled.value.estimates) == 2
        assert np.isfinite(stalled.value.estimates).all()
        assert -1e-12 <= res.duality_gap < 1e-9

    def test_near_unit_root_survives_a_stalled_level(self, monkeypatch):
        # R(m) = 1e4 * 0.9999^m: the solve on the first node table stalls and
        # the doubling moves on to the next level instead of exiting
        import entrobound.bounds as bounds

        stalled = []
        inner = bounds._central_path

        def recording(a, table, limit):
            try:
                return inner(a, table, limit)
            except ConvergenceError:
                stalled.append(table.shape[1])
                raise

        monkeypatch.setattr(bounds, "_central_path", recording)
        values = tuple(1e4 * 0.9999**m for m in range(9))
        res = tdist_bound_k(CovarianceSequence(values))
        assert stalled == [256]
        assert -1e-12 <= res.duality_gap <= 1e-9
        # the order-1 bound on the same shrunken region; tdist_bound_1's
        # closed form takes beta_1 = -0.999999994, outside that region
        assert res.value <= tdist_bound_k(CovarianceSequence(values[:2])).value + 1e-12
        assert res.value <= univariate_me_bound(values[0])

    def test_order4_step_count(self):
        # the barrier path this solve replaced took about 44 Newton steps
        rng = np.random.default_rng(4)
        steps = [tdist_bound_k(random_ma_covariance(rng, lags=4)).optimizer_iterations for _ in range(300)]
        boundary = [s for s in steps if s]
        assert len(boundary) > 100
        assert np.mean(boundary) <= 15

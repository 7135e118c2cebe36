import math

import numpy as np
import pytest

from entrobound.bounds import gaussian_psd_bound, univariate_me_bound
from entrobound.numerics import MAX_POINTS, DomainError, integrate_periodic
from entrobound.spectrum import (
    CovarianceSequence,
    PsdValidationError,
    SpectralDensity,
    ToeplitzSpec,
    closed_form_log_cos_integral,
    fiedler_determinant_check,
    psd_from_finite_covariance,
    reflection_coefficients,
    toeplitz_gaussian_bound_finite,
    tridiagonal_determinant,
)

from conftest import banded_cholesky_bound, random_ma_covariance

# covariances whose dithered sequence has kappa^2 below 1e-17 at step 116 and
# 4e-12 at the next step
OSCILLATING = (2.5846429054315254, 1.4460973111446234, 1.4934826054717434, 0.8043211353897388, 0.8055034249279718)


class TestCovarianceSequence:
    def test_lags_and_extension(self):
        cov = CovarianceSequence((2.0, 1.0, 0.5))
        assert cov.k == 2
        assert cov.lag(-1) == 1.0
        assert cov.lag(7) == 0.0

    def test_requires_positive_variance(self):
        with pytest.raises(DomainError):
            CovarianceSequence((0.0, 0.0))

    @pytest.mark.parametrize("values", [(), (1.0, math.nan), (math.inf,), (1.0, 0.5, -math.inf)])
    def test_empty_or_non_finite(self, values):
        with pytest.raises(DomainError):
            CovarianceSequence(values)

    def test_cauchy_schwarz(self):
        with pytest.raises(DomainError):
            CovarianceSequence((1.0, 1.5))

    def test_not_positive_semidefinite(self):
        # each lag passes Cauchy-Schwarz, but det T_3 < 0: no process has it
        with pytest.raises(DomainError, match="positive semidefinite"):
            CovarianceSequence((1.0, 0.99, -0.99))

    def test_singular_but_valid(self):
        # X_n = X_0 and X_n = (-1)^n X_0 have singular Toeplitz matrices
        CovarianceSequence((1.0, 1.0, 1.0, 1.0))
        CovarianceSequence((2.0, -2.0, 2.0))


class TestPsdFromFiniteCovariance:
    def test_white(self):
        psd = psd_from_finite_covariance(CovarianceSequence((1.0,)))
        lam = np.linspace(0, 2 * math.pi, 17)
        assert np.allclose(psd(lam), 1.0)

    def test_ma1(self):
        # R = [2, 1] is the MA(1) with theta = 1, sigma = 1: Phi = 2 + 2 cos
        psd = psd_from_finite_covariance(CovarianceSequence((2.0, 1.0)))
        lam = np.linspace(0, 2 * math.pi, 101)
        assert np.allclose(psd(lam), 2.0 + 2.0 * np.cos(lam), atol=1e-12)
        assert abs(psd(math.pi)) < 1e-12

    def test_negative_psd_rejected(self):
        with pytest.raises(PsdValidationError) as err:
            psd_from_finite_covariance(CovarianceSequence((1.0, 0.9)))
        assert "lambda" in str(err.value)

    def test_series_longer_than_the_grid(self):
        # 1 + 2 a cos(4500 lambda) reaches 1 - 2a on the 4096-point grid
        c = np.zeros(4501)
        c[0] = 1.0
        c[4500] = 0.4
        assert SpectralDensity.cosine_series(c)(0.0) == pytest.approx(1.8)
        c[4500] = 0.6
        with pytest.raises(PsdValidationError):
            SpectralDensity.cosine_series(c)


class TestClosedFormLogCosIntegral:
    def test_zero(self):
        assert closed_form_log_cos_integral(0.0) == 0.0

    def test_endpoint(self):
        assert abs(closed_form_log_cos_integral(1.0) + math.log(2.0)) < 1e-14

    def test_half(self):
        quad = integrate_periodic(lambda lam: np.log(1 + 0.5 * np.cos(lam)))
        assert abs(closed_form_log_cos_integral(0.5) - quad / (2 * math.pi)) < 1e-10

    def test_grid_equivalence(self):
        grid = [-0.99] + [x / 10 for x in range(-9, 10)] + [0.99]
        for s in grid:
            quad = integrate_periodic(lambda lam: np.log(1 + s * np.cos(lam)))
            assert abs(closed_form_log_cos_integral(s) - quad / (2 * math.pi)) < 1e-8

    def test_even_in_s(self):
        for s in (0.1, 0.37, 0.99):
            a = closed_form_log_cos_integral(s)
            b = closed_form_log_cos_integral(-s)
            assert a == b

    def test_domain(self):
        with pytest.raises(DomainError):
            closed_form_log_cos_integral(1.0001)


class TestToeplitzGaussianBoundFinite:
    def test_univariate(self):
        v = toeplitz_gaussian_bound_finite(CovarianceSequence((1.0,)), 1)
        assert abs(v - univariate_me_bound(1.0)) < 1e-14

    def test_white_any_n(self):
        cov = CovarianceSequence((1.0,))
        assert abs(
            toeplitz_gaussian_bound_finite(cov, 50) - toeplitz_gaussian_bound_finite(cov, 1)
        ) < 1e-13

    def test_spectral_limit_ma1(self):
        cov = CovarianceSequence((2.0, 1.0))
        limit = gaussian_psd_bound(psd_from_finite_covariance(cov)).value
        assert abs(toeplitz_gaussian_bound_finite(cov, 256) - limit) < 5e-3

    def test_gap_shrinks(self):
        cov = CovarianceSequence((2.0, 1.0))
        limit = gaussian_psd_bound(psd_from_finite_covariance(cov)).value
        gaps = [toeplitz_gaussian_bound_finite(cov, n) - limit for n in (32, 64, 128)]
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_non_positive_definite(self):
        with pytest.raises(DomainError):
            toeplitz_gaussian_bound_finite(CovarianceSequence((1.0, -1.0)), 8)

    def test_empty_matrix(self):
        with pytest.raises(DomainError):
            toeplitz_gaussian_bound_finite(CovarianceSequence((1.0,)), 0)

    @pytest.mark.parametrize("n", [MAX_POINTS + 1, 10**12, 8.0, 2.5])
    def test_size_limit(self, n):
        # n must be an integer in [1, MAX_POINTS], checked before any work
        with pytest.raises(DomainError, match="n must lie in"):
            toeplitz_gaussian_bound_finite(CovarianceSequence((1.0, 0.5)), n)

    def test_numpy_integer_n(self):
        cov = CovarianceSequence((1.0, 0.5))
        assert toeplitz_gaussian_bound_finite(cov, np.int64(8)) == toeplitz_gaussian_bound_finite(cov, 8)


class TestToeplitzAgainstCholesky:
    # the banded Cholesky factorization (conftest) is the reference

    @pytest.mark.parametrize("k", range(1, 9))
    def test_seeded_covariances(self, k):
        rng = np.random.default_rng(400 + k)
        for scale in (1e-2, 1.0, 1e2, 1e4):
            values = random_ma_covariance(rng, lags=k).values
            cov = CovarianceSequence(tuple(v * scale / values[0] for v in values))
            for n in (1, 2, k + 1, 64, 512, 4096):
                expected = banded_cholesky_bound(cov.values, n)
                assert toeplitz_gaussian_bound_finite(cov, n) == pytest.approx(expected, abs=1e-13)

    def test_oscillating_reflection_coefficients(self):
        # one kappa^2 below 1e-17 does not close the tail: the recursion runs on
        # until err has stayed unchanged for k + 1 steps
        kappas, _ = reflection_coefficients((OSCILLATING[0] + 1.0 / 12.0,) + OSCILLATING[1:], 512)
        first = next(m for m, kappa in enumerate(kappas) if kappa * kappa < 1e-17)
        assert max(kappa * kappa for kappa in kappas[first:]) > 1e-12
        cov = CovarianceSequence(OSCILLATING)
        for n in (512, 4096):
            expected = banded_cholesky_bound(cov.values, n)
            assert toeplitz_gaussian_bound_finite(cov, n) == pytest.approx(expected, abs=1e-13)

    def test_raises_where_the_oracle_raises(self):
        from scipy.linalg import LinAlgError

        cov = CovarianceSequence((1.0, 0.9, 0.8))
        assert toeplitz_gaussian_bound_finite(cov, 3) == pytest.approx(1.0642767617343842, abs=1e-15)
        for n in (4, 5, 64, 512):
            with pytest.raises(LinAlgError):
                banded_cholesky_bound(cov.values, n)
            with pytest.raises(DomainError, match="not positive definite"):
                toeplitz_gaussian_bound_finite(cov, n)

    def test_truncated_geometric_sequences(self):
        # s * phi^m cut at lag k: the zero-padded matrix plus I/12 is positive
        # definite for some (s, phi, k, n) and not for others
        from scipy.linalg import LinAlgError

        rng = np.random.default_rng(12)
        outcomes = set()
        for _ in range(200):
            k, phi, scale = int(rng.integers(1, 9)), rng.uniform(-0.999, 0.999), 10.0 ** rng.uniform(-2, 4)
            cov = CovarianceSequence(tuple(scale * phi**m for m in range(k + 1)))
            for n in (1, 2, k + 1, 64, 512, 4096):
                try:
                    expected = banded_cholesky_bound(cov.values, n)
                except LinAlgError:
                    with pytest.raises(DomainError):
                        toeplitz_gaussian_bound_finite(cov, n)
                    outcomes.add("raises")
                else:
                    assert toeplitz_gaussian_bound_finite(cov, n) == pytest.approx(expected, abs=1e-13)
                    outcomes.add("returns")
        assert outcomes == {"raises", "returns"}

    def test_near_unit_root_against_mpmath(self):
        # R(m) = 1e4 * 0.9999^m, m <= 8: K + I/12 is positive definite up to
        # n = 9.  The value is above the 50-digit determinant's, by at most
        # 1e-12: R(0) + 1/12 rounds at 1e4 (about 5e-13 here)
        mpmath = pytest.importorskip("mpmath")
        values = tuple(1e4 * 0.9999**m for m in range(9))
        cov = CovarianceSequence(values)
        size = 64
        with mpmath.workdps(50):
            matrix = mpmath.matrix(size, size)
            for i in range(size):
                for j in range(size):
                    matrix[i, j] = (values[abs(i - j)] if abs(i - j) <= 8 else 0) + (i == j) * mpmath.mpf(1) / 12
            logdet = mpmath.mpf(0)
            for n in range(1, size + 1):
                # the n-th pivot of Gaussian elimination is det K_n / det K_(n-1)
                pivot = matrix[n - 1, n - 1]
                if pivot <= 0:
                    break
                for row in range(n, size):
                    factor = matrix[row, n - 1] / pivot
                    for col in range(n - 1, size):
                        matrix[row, col] -= factor * matrix[n - 1, col]
                logdet += mpmath.log(pivot)
                exact = float(mpmath.log(2 * mpmath.pi * mpmath.e) / 2 + logdet / (2 * n))
                assert 0.0 <= toeplitz_gaussian_bound_finite(cov, n) - exact <= 1e-12
        assert n == 10
        for n in (10, 11, 64):
            with pytest.raises(DomainError):
                toeplitz_gaussian_bound_finite(cov, n)


class TestFiedlerCheck:
    def test_scalar(self):
        assert fiedler_determinant_check([1.0], [1.0], 2.0)

    def test_commuting_diagonal(self):
        det = (2 + 1 / 12) * (1 + 1 / 12)
        assert fiedler_determinant_check([2.0, 1.0], [1 / 12, 1 / 12], det)

    def test_random_pd_pairs(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 5))
            a = rng.normal(size=(n, n))
            a = a @ a.T + 0.05 * np.eye(n)
            b = rng.normal(size=(n, n))
            b = b @ b.T + 0.05 * np.eye(n)
            det = float(np.linalg.det(a + b))
            assert fiedler_determinant_check(
                np.linalg.eigvalsh(a), np.linalg.eigvalsh(b), det
            )

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            fiedler_determinant_check([1.0, 2.0], [1.0], 3.0)

    def test_length_limit(self):
        with pytest.raises(DomainError, match="n <= 16"):
            fiedler_determinant_check([1.0] * 17, [1.0] * 17, 2.0**17)

    @pytest.mark.parametrize("eigs_a,eigs_b", [([1.0, 0.0], [1.0, 1.0]), ([1.0, 2.0], [-1.0, 1.0])])
    def test_non_positive_eigenvalue(self, eigs_a, eigs_b):
        with pytest.raises(DomainError, match="positive"):
            fiedler_determinant_check(eigs_a, eigs_b, 1.0)

    def test_detects_violation(self):
        assert not fiedler_determinant_check([1.0], [1.0], 5.0)


class TestTridiagonalDeterminant:
    def test_diagonal(self):
        assert tridiagonal_determinant(2.0, 0.0, 5) == 32.0

    def test_small_recursion(self):
        assert tridiagonal_determinant(2.0, 0.5, 3) == pytest.approx(7.0, abs=1e-14)

    def test_closed_form(self):
        alpha, beta, n = 3.0, 1.0, 10
        root = math.sqrt(alpha**2 - 4 * beta**2)
        i_val = (alpha + root) / 2
        j_val = (alpha - root) / 2
        closed = (i_val ** (n + 1) - j_val ** (n + 1)) / root
        assert tridiagonal_determinant(alpha, beta, n) == pytest.approx(
            closed, rel=1e-10
        )

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("frac", [0.0, 0.2, -0.2, 0.49, -0.49])
    def test_matches_dense_determinant(self, alpha, frac):
        beta = frac * alpha
        for n in range(1, 9):
            spec = ToeplitzSpec(alpha, (beta,), n)
            dense = float(np.linalg.det(spec.matrix()))
            assert tridiagonal_determinant(alpha, beta, n) == pytest.approx(
                dense, rel=1e-12
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            tridiagonal_determinant(2.0, 1.0, 3)
        with pytest.raises(DomainError):
            tridiagonal_determinant(-1.0, 0.0, 3)
        with pytest.raises(DomainError):
            tridiagonal_determinant(2.0, 0.5, 0)

    @pytest.mark.parametrize("n", [8.0, 2.5, 10**12])
    def test_non_integer_or_huge_n(self, n):
        # checked before the O(n) loop
        with pytest.raises(DomainError, match="n must lie in"):
            tridiagonal_determinant(2.0, 0.5, n)

    def test_numpy_integer_n(self):
        assert tridiagonal_determinant(2.0, 0.5, np.int64(3)) == tridiagonal_determinant(2.0, 0.5, 3)


class TestToeplitzSpec:
    def test_dominance_flag(self):
        assert ToeplitzSpec(2.0, (0.4, 0.3), 6).strictly_diagonally_dominant
        assert not ToeplitzSpec(2.0, (1.0, 0.3), 6).strictly_diagonally_dominant

    def test_matrix_layout(self):
        m = ToeplitzSpec(2.0, (0.5,), 3).matrix()
        assert np.allclose(m, [[2.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 2.0]])

    def test_empty_matrix(self):
        with pytest.raises(DomainError):
            ToeplitzSpec(2.0, (0.5,), 0)


class TestSpectralDensityValidation:
    def test_markov_mixture_requires_contraction(self):
        with pytest.raises(DomainError):
            SpectralDensity.markov_mixture(1.0, 0.0, 1.0)

    def test_callable_returning_nan(self):
        with pytest.raises(PsdValidationError, match="non-finite"):
            SpectralDensity.markov_mixture(math.inf, 1.0, 0.5)

    @pytest.mark.parametrize("a", [0.25, -0.25])
    @pytest.mark.parametrize("omega", [0.5, -0.5])
    def test_markov_mixture_checked_at_its_minimum(self, a, omega):
        # Phi is monotone in cos(lambda): its minimum lies at 0 when a*omega < 0,
        # else at pi; |Phi| stays below 1, so the slack is 1e-9 absolute
        lam = 0.0 if a * omega < 0 else math.pi
        term = a * (1.0 - omega**2) / (1.0 + omega**2 - 2.0 * omega * math.cos(lam))
        assert SpectralDensity.markov_mixture(a, -term - 0.9e-9, omega)(lam) < 0.0
        with pytest.raises(PsdValidationError, match=f"negative at lambda = {lam:.6f}"):
            SpectralDensity.markov_mixture(a, -term - 1.1e-9, omega)

    @pytest.mark.parametrize("coefficients", [[[1.0, 0.1], [0.2, 0.3]], [1.0, math.nan], [math.inf], []])
    def test_cosine_series_needs_finite_1d_coefficients(self, coefficients):
        with pytest.raises(DomainError, match="finite 1-D"):
            SpectralDensity.cosine_series(coefficients)

    @pytest.mark.parametrize("b", [math.nan, math.inf])
    def test_markov_mixture_with_non_finite_b(self, b):
        with pytest.raises(PsdValidationError, match="non-finite at lambda = 0.000000"):
            SpectralDensity.markov_mixture(1.0, b, 0.5)


class TestSpectralDensityIsFrozen:
    @pytest.mark.parametrize("field", ["coefficients", "a", "omega"])
    def test_fields_cannot_be_assigned(self, field):
        import dataclasses

        psd = SpectralDensity.cosine_series([3.0, 1.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(psd, field, (50.0,))
        assert psd.coefficients == (3.0, 1.0) and psd(0.0) == 5.0

    def test_equal_inputs_compare_equal(self):
        a = SpectralDensity.cosine_series([3, 1])
        b = SpectralDensity.cosine_series(np.array([3.0, 1.0]))
        assert a == b and hash(a) == hash(b)
        assert a != SpectralDensity.cosine_series([3.0, 1.5])
        m = SpectralDensity.markov_mixture(1.0, 0.5, 0.6)
        assert m == SpectralDensity((0.5,), 1.0, 0.6) and m != SpectralDensity.markov_mixture(1.0, 0.5, 0.5)

    def test_one_formula_for_both_kinds(self):
        # a cosine series carries a Markov term of exactly 0; a mixture is c_0 = b plus it
        lam = np.linspace(0.0, 2.0 * math.pi, 37)
        series = SpectralDensity.cosine_series([2.0, 0.5, -0.25])
        expected = 2.0 + 2.0 * (0.5 * np.cos(lam) - 0.25 * np.cos(2.0 * lam))
        assert series.a == 0.0 and series.omega == 0.0
        assert np.allclose(series(lam), expected, rtol=0, atol=1e-15)
        a, b, w = 1.5, 0.25, -0.7
        mixture = SpectralDensity.markov_mixture(a, b, w)
        assert mixture.coefficients == (b,)
        assert np.array_equal(mixture(lam), a * (1.0 - w**2) / (1.0 + w**2 - 2.0 * w * np.cos(lam)) + b)

    def test_direct_construction_is_checked(self):
        with pytest.raises(DomainError, match="omega"):
            SpectralDensity((1.0,), 1.0, -1.0)
        with pytest.raises(PsdValidationError, match="negative"):
            SpectralDensity((1.0, 0.6))

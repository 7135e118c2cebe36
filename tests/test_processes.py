import math
import time

import numpy as np
import pytest

from entrobound.bounds import univariate_me_bound
from entrobound.numerics import DomainError
from entrobound.processes import (
    BinomialEmission,
    DmaModel,
    PoissonEmission,
    PoissonModel,
    QuantizedArModel,
    QuantizedMaModel,
    TwoStateHmm,
    dma_covariance,
    dma_psd,
    hmm_alpha_beta_omega,
    hmm_covariance,
    hmm_entropy_bound,
    hmm_psd,
    poisson_entropy,
    poisson_me_bound,
    qar_conditional_entropy,
    qar_r0,
    qar_rk,
    qar_th2_bound,
    qma_conditional_entropy,
    qma_k_ratio,
    qma_r0,
    qma_r1,
    qma_th1_bound,
    qma_th3_bound,
    quantize,
)
from conftest import (
    cell_conditional_entropy,
    load_reference,
    qar_rectangle_conditional_entropy,
    qma_rectangle_conditional_entropy,
    quantized_cross_moment,
    quantized_rectangle_cross_moment,
    quantized_second_moment,
    rectangle_conditional_entropy,
)

# the theta grid of fig3, and its (sigma, theta) points whose frozen H_CE
# reference entries were corrected from the rectangle oracle
FIG3_THETAS = [i / 10 for i in range(21)]
FIG4_PHIS = [round(0.7 + 0.02 * i, 2) for i in range(15)]
FIG3_CORRECTED = [(1.0, t) for t in (1.7, 1.8, 1.9, 2.0)] + [
    (5.0, t) for t in (1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0)
]


class TestQuantize:
    @pytest.mark.parametrize(
        "x,expected", [(0.4, 0), (-1.7, -2), (2.5, 2), (-2.5, -3), (0.5, 0), (3.0, 3)]
    )
    def test_values(self, x, expected):
        assert quantize(x) == expected

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            quantize(math.inf)


class TestPoisson:
    @pytest.mark.parametrize(
        "lam,expected",
        [(1.0, 1.304842242), (0.5, 0.927637467), (10.0, 2.561409935)],
    )
    def test_entropy(self, lam, expected):
        assert poisson_entropy(PoissonModel(lam)) == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("lam,expected", [(1.0, 1.458959887), (10.0, 2.574380481)])
    def test_me_bound(self, lam, expected):
        assert poisson_me_bound(PoissonModel(lam)) == pytest.approx(expected, abs=1e-8)

    def test_bound_dominates_entropy(self):
        for lam in np.arange(0.1, 20.01, 0.1):
            m = PoissonModel(float(lam))
            assert poisson_entropy(m) <= poisson_me_bound(m)

    def test_gap_at_ten(self):
        m = PoissonModel(10.0)
        assert poisson_me_bound(m) - poisson_entropy(m) < 0.02

    def test_invalid_rate(self):
        with pytest.raises(DomainError):
            PoissonModel(0.0)

    # 99 and 100 sit on either side of the switch to the asymptotic expansion.
    # The series loses digits near its end (4e-11 at rate 99); the expansion
    # is held to the 1e-13 it claims, below the 1.4e-12 its last term adds at rate 100.
    @pytest.mark.parametrize(
        "lam,tol",
        [(99.0, 1e-10), (100.0, 1e-13), (1e3, 1e-13), (1e4, 1e-13), (1e6, 1e-13), (1e9, 1e-13)],
    )
    def test_large_rate_against_high_precision_sum(self, lam, tol):
        import mpmath

        def minus_p_log_p(k):
            log_p = k * log_rate - rate - mpmath.loggamma(k + 1)
            return -mpmath.exp(log_p) * log_p

        with mpmath.workdps(30):
            rate = mpmath.mpf(lam)
            log_rate = mpmath.log(rate)
            sd = mpmath.sqrt(rate)  # beyond 12 sd the mass is below 1e-20
            if lam <= 1e6:
                lo, hi = max(0, int(rate - 12 * sd)), int(rate + 12 * sd)
                expected = mpmath.fsum(minus_p_log_p(k) for k in range(lo, hi + 1))
            else:
                # 8e5 terms are too slow here.  The summand is smooth on the
                # scale sqrt(rate), so by Poisson summation the sum equals the
                # integral of its continuation to within exp(-2 pi^2 rate).
                expected = mpmath.quad(minus_p_log_p, [rate + i * sd for i in range(-12, 13)])
        assert poisson_entropy(PoissonModel(lam)) == pytest.approx(float(expected), abs=tol)


class TestDma:
    def test_iid_case(self):
        m = DmaModel((1.0,), 2.0)
        assert dma_covariance(m, 0) == 2.0
        assert dma_covariance(m, 1) == 0.0

    def test_two_tap(self):
        m = DmaModel((0.5, 0.5), 1.0)
        assert dma_covariance(m, 1) == pytest.approx(0.25)
        assert dma_covariance(m, 2) == 0.0

    def test_psd_two_tap(self):
        psd = dma_psd(DmaModel((0.5, 0.5), 1.0))
        lam = np.linspace(0, 2 * math.pi, 33)
        assert np.allclose(psd(lam), 1.0 + 0.5 * np.cos(lam), atol=1e-12)

    def test_weights_validated(self):
        with pytest.raises(DomainError):
            DmaModel((0.5, 0.4), 1.0)

    def test_negative_lag(self):
        with pytest.raises(DomainError):
            dma_covariance(DmaModel((0.5, 0.5), 1.0), -1)


class TestTwoStateHmm:
    def test_state_independent_emissions(self):
        m = TwoStateHmm(0.2, 0.3, BinomialEmission(5, 0.4, 0.4))
        alpha, _, _ = hmm_alpha_beta_omega(m)
        assert alpha == 0.0

    def test_symmetric_chain(self):
        m = TwoStateHmm(0.5, 0.5, BinomialEmission(5, 0.4, 0.6))
        _, _, omega = hmm_alpha_beta_omega(m)
        assert omega == 0.0
        assert m.stationary == (0.5, 0.5)

    def test_hand_evaluated_parameters(self):
        m = TwoStateHmm(0.1, 0.3, BinomialEmission(10, 0.2, 0.8))
        alpha, beta, omega = hmm_alpha_beta_omega(m)
        assert alpha == pytest.approx(0.0675)
        assert beta == pytest.approx(0.16)
        assert omega == pytest.approx(0.6)

    def test_covariance_values(self):
        m1 = TwoStateHmm(0.1, 0.3, BinomialEmission(1, 0.2, 0.8))
        alpha, beta, _ = hmm_alpha_beta_omega(m1)
        assert hmm_covariance(m1, 0) == pytest.approx(alpha + beta)
        m10 = TwoStateHmm(0.1, 0.3, BinomialEmission(10, 0.2, 0.8))
        assert hmm_covariance(m10, 2) == pytest.approx(2.43)

    def test_poisson_equal_rates_uncorrelated(self):
        m = TwoStateHmm(0.1, 0.3, PoissonEmission(2.0, 2.0))
        for k in (1, 2, 5):
            assert hmm_covariance(m, k) == pytest.approx(0.0, abs=1e-15)

    def test_alpha_beta_requires_binomial(self):
        m = TwoStateHmm(0.1, 0.3, PoissonEmission(1.0, 2.0))
        with pytest.raises(DomainError):
            hmm_alpha_beta_omega(m)

    def test_psd_flat_cases(self):
        iid = TwoStateHmm(0.5, 0.5, BinomialEmission(4, 0.3, 0.7))
        lam = np.linspace(0, 2 * math.pi, 9)
        assert np.allclose(hmm_psd(iid)(lam), hmm_covariance(iid, 0))
        same_p = TwoStateHmm(0.2, 0.3, BinomialEmission(4, 0.5, 0.5))
        assert np.allclose(hmm_psd(same_p)(lam), 4 * 0.25)

    def test_psd_matches_partial_dtft(self):
        m = TwoStateHmm(0.1, 0.3, BinomialEmission(10, 0.2, 0.8))
        lam = np.array([0.0, 0.7, 2.2, math.pi])
        partial = np.full(lam.shape, hmm_covariance(m, 0))
        for k in range(1, 201):
            partial += 2.0 * hmm_covariance(m, k) * np.cos(k * lam)
        assert np.max(np.abs(partial - hmm_psd(m)(lam))) < 1e-8

    def test_entropy_bound_flat_collapse(self):
        # alpha = 0, trials*beta = 1 -> flat PSD at 1 -> univariate bound
        m = TwoStateHmm(0.4, 0.6, BinomialEmission(4, 0.5, 0.5))
        assert hmm_entropy_bound(m).value == pytest.approx(
            univariate_me_bound(1.0), abs=1e-10
        )

    def test_entropy_bound_omega_zero_limit(self):
        m = TwoStateHmm(0.4, 0.6, BinomialEmission(10, 0.2, 0.8))
        assert m.omega == pytest.approx(0.0)
        assert hmm_entropy_bound(m).value == pytest.approx(
            univariate_me_bound(hmm_covariance(m, 0)), abs=1e-9
        )

    def test_entropy_bound_against_log_cos_closed_form(self):
        # the rational PSD factorizes: log(a(1-w^2)/(1+w^2-2w cos) + D)
        # = log(A - B cos) - log(1 + w^2 - 2w cos) with A = a(1-w^2)+D(1+w^2),
        # B = 2Dw; both periodic means reduce to the log-cosine closed form
        # (the denominator one vanishes for |w| < 1)
        from entrobound.spectrum import closed_form_log_cos_integral

        for g1, g2, trials, p1, p2 in [(0.1, 0.3, 10, 0.2, 0.8), (0.25, 0.15, 6, 0.6, 0.1)]:
            m = TwoStateHmm(g1, g2, BinomialEmission(trials, p1, p2))
            alpha, beta, omega = hmm_alpha_beta_omega(m)
            a, b = trials**2 * alpha, trials * beta
            d = b + 1.0 / 12.0
            big_a = a * (1 - omega**2) + d * (1 + omega**2)
            big_b = 2.0 * d * omega
            closed = 0.5 * math.log(2 * math.pi * math.e) + 0.5 * (
                math.log(big_a) + closed_form_log_cos_integral(-big_b / big_a)
            )
            assert hmm_entropy_bound(m).value == pytest.approx(closed, abs=1e-10)

    def test_gamma_domain(self):
        with pytest.raises(DomainError):
            TwoStateHmm(0.0, 0.5, BinomialEmission(2, 0.1, 0.9))

    @pytest.mark.parametrize(
        "emission", ["x", None, (10, 0.2, 0.8), PoissonModel(1.0)], ids=["str", "none", "tuple", "poisson-model"]
    )
    def test_emission_must_be_binomial_or_poisson(self, emission):
        # an unknown emission used to pass and fail later in hmm_covariance
        with pytest.raises(DomainError, match="emission"):
            TwoStateHmm(0.1, 0.3, emission)

    def test_negative_lag(self):
        with pytest.raises(DomainError):
            hmm_covariance(TwoStateHmm(0.1, 0.3, BinomialEmission(10, 0.2, 0.8)), -1)


class TestQuantizedMaStatistics:
    def test_variance_collapses_at_small_scale(self):
        assert qma_r0(QuantizedMaModel(0.05, 0.0)) < 1e-12

    def test_r0_theta_zero(self):
        v = univariate_me_bound(qma_r0(QuantizedMaModel(1.0, 0.0)))
        assert v == pytest.approx(1.496013873, abs=1e-6)

    def test_r1_zero_at_theta_zero(self):
        assert qma_r1(QuantizedMaModel(1.0, 0.0)) == 0.0

    @pytest.mark.parametrize(
        "sigma,theta,expected",
        [
            (1.0, 1.0, 0.923076923),
            (1.0, 0.5, 0.705882353),
            (5.0, 1.0, 0.996677741),
            (5.0, 0.5, 0.795755968),
        ],
    )
    def test_k_ratio_reference(self, sigma, theta, expected):
        assert qma_k_ratio(QuantizedMaModel(sigma, theta)) == pytest.approx(
            expected, abs=1e-6
        )

    def test_k_ratio_zero(self):
        assert qma_k_ratio(QuantizedMaModel(2.0, 0.0)) == 0.0

    def test_k_ratio_bounded_by_the_dither(self, rng):
        # Y is 1-dependent, so R0 + 2 R1 cos(lambda) is its PSD and >= 0:
        # |K| <= R0 / (R0 + 1/12) < 1, as the closed form of qma_th1_bound needs
        for _ in range(400):
            m = QuantizedMaModel(float(10.0 ** rng.uniform(-3.0, 6.0)), float(rng.uniform(0.0, 10.0)))
            r0 = qma_r0(m)
            assert abs(qma_k_ratio(m)) <= r0 / (r0 + 1.0 / 12.0)

    def test_k_ratio_within_unit_interval_on_grid(self):
        for sigma in (0.5, 1.0, 2.0, 5.0):
            for theta in np.arange(0.0, 2.01, 0.25):
                k = qma_k_ratio(QuantizedMaModel(sigma, float(theta)))
                assert 0.0 <= k <= 1.0

    def test_cauchy_schwarz(self):
        for sigma in (0.5, 1.0, 5.0):
            for theta in (0.0, 0.5, 1.0, 2.0):
                m = QuantizedMaModel(sigma, theta)
                assert abs(qma_r1(m)) <= qma_r0(m)

    def test_ma_law_invariance(self):
        # the Gaussian MA(1) with (sigma, theta) equals the one with
        # (sigma*theta, 1/theta) in law, so every statistic must agree
        a = QuantizedMaModel(1.0, 2.0)
        b = QuantizedMaModel(2.0, 0.5)
        assert qma_r0(a) == pytest.approx(qma_r0(b), rel=1e-10)
        assert qma_r1(a) == pytest.approx(qma_r1(b), rel=1e-9)
        for sigma, theta in FIG3_CORRECTED:
            h = qma_conditional_entropy(QuantizedMaModel(sigma, theta))
            twin = qma_conditional_entropy(QuantizedMaModel(sigma * theta, 1.0 / theta))
            assert h == pytest.approx(twin, abs=1e-8), (sigma, theta)


class TestQuantizedMaBounds:
    @pytest.mark.parametrize(
        "sigma,theta,expected",
        [(1.0, 1.0, 1.621671087), (5.0, 2.0, 3.722632686), (1.0, 0.0, 1.496013873)],
    )
    def test_psd_route_bound(self, sigma, theta, expected):
        assert qma_th1_bound(QuantizedMaModel(sigma, theta)) == pytest.approx(
            expected, abs=2e-3
        )

    @pytest.mark.parametrize(
        "sigma,theta,expected", [(1.0, 1.0, 1.685758684), (5.0, 1.0, 3.233877254)]
    )
    def test_covariance_route_bound(self, sigma, theta, expected):
        assert qma_th3_bound(QuantizedMaModel(sigma, theta)) == pytest.approx(
            expected, abs=2e-3
        )

    def test_covariance_route_theta_zero(self):
        m = QuantizedMaModel(1.3, 0.0)
        assert qma_th3_bound(m) == pytest.approx(
            univariate_me_bound(qma_r0(m)), abs=1e-9
        )

    def test_covariance_route_r0_underflow(self):
        # R(0) underflows to 0.0: the quantized process is 0 in double precision
        m = QuantizedMaModel(0.004, 1.0)
        assert qma_r0(m) == 0.0
        assert qma_th3_bound(m) == univariate_me_bound(0.0)
        assert qma_conditional_entropy(m) == 0.0

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_conditional_entropy_when_the_variance_underflows(self, theta):
        # sigma^2 underflows to 0.0, so var = cov = 0 and Y is identically 0;
        # the marginal route would divide the cell edges by a scale of 0
        assert qma_conditional_entropy(QuantizedMaModel(1e-170, theta)) == 0.0
        assert qar_conditional_entropy(QuantizedArModel(1e-170, 0.5 * theta, 0.0)) == 0.0


class TestQuantizedMaConditionalEntropy:
    def test_iid_case(self):
        assert qma_conditional_entropy(QuantizedMaModel(1.0, 0.0)) == pytest.approx(
            1.45895882, abs=2e-3
        )

    def test_theta_one(self):
        assert qma_conditional_entropy(QuantizedMaModel(1.0, 1.0)) == pytest.approx(
            1.654953857, abs=2e-3
        )

    def test_sigma5_theta2_reference_value(self):
        assert qma_conditional_entropy(QuantizedMaModel(5.0, 2.0)) == pytest.approx(
            3.74637877, abs=5e-3
        )

    @pytest.mark.parametrize("sigma", [1.0, 5.0])
    def test_against_rectangle_oracle(self, sigma):
        # exact bivariate-normal cell probabilities at every fig3 grid point
        off = {}
        for theta in FIG3_THETAS:
            h = qma_conditional_entropy(QuantizedMaModel(sigma, theta))
            gap = h - qma_rectangle_conditional_entropy(sigma, theta)
            if abs(gap) >= 1e-8:
                off[theta] = gap
        assert not off

    def test_corrected_reference_entries_match_oracle(self):
        # the fig3 H_CE entries for theta >= 1.4 that were corrected are
        # pinned to the oracle, not to this implementation
        tables = {
            1.0: load_reference("fig3_sigma1_reference.csv"),
            5.0: load_reference("fig3_sigma5_reference.csv"),
        }
        for sigma, theta in FIG3_CORRECTED:
            (row,) = [r for r in tables[sigma] if r["theta"] == theta]
            assert row["H_CE"] == pytest.approx(
                qma_rectangle_conditional_entropy(sigma, theta), abs=1e-8
            ), (sigma, theta)

    def test_conditioning_reduces_entropy(self):
        from entrobound.processes import _marginal_pmf, _pmf_entropy

        for theta in (0.0, 0.4, 1.0):
            m = QuantizedMaModel(1.0, theta)
            _, p = _marginal_pmf(math.hypot(1.0, theta))
            assert qma_conditional_entropy(m) <= _pmf_entropy(p) + 1e-9


class TestConditionalEntropyMemory:
    def test_joint_table_limit_raises_before_allocating(self):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="joint table"):
                qma_conditional_entropy(QuantizedMaModel(200.0, 2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # the 8951 x 8951 table alone would take 640 MB

    def test_fig3_cli_rejects_oversized_table(self, tmp_path, capsys):
        from entrobound import cli

        out = tmp_path / "fig3.csv"
        assert cli.main(["fig3", "--sigma", "200", "--out", str(out)]) == 2
        assert "joint table" in capsys.readouterr().err

    def test_scale_limit_raises_before_allocating(self):
        import tracemalloc

        # sigma = 1e9 would need a 2e10-cell marginal pmf
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="cells on each side"):
                qma_conditional_entropy(QuantizedMaModel(1e9, 0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_node_limit_raises_before_allocating(self):
        import tracemalloc

        # phi = 1 - 1e-11 without noise: the cell sd is 3.2e-6 of the weight
        # sd, and the half grid would need 7.5 million nodes
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="7502999 nodes"):
                qar_conditional_entropy(QuantizedArModel(1e-6, 1.0 - 1e-11, 0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_scale_limit_boundary(self):
        from entrobound import processes

        # the helper returns a count only, so the limit is probed at no cost
        limit = processes.MAX_HALFWIDTH
        assert processes._box_halfwidth(0.99 * limit / 10.0) <= limit
        with pytest.raises(DomainError):
            processes._box_halfwidth(1.01 * limit / 10.0)

    @pytest.mark.parametrize(
        "args",
        [
            ["fig3", "--sigma", "1e9", "--theta-max", "0"],
            ["fig4", "--sigma", "1e9", "--phi-max", "0.7"],
        ],
    )
    def test_scale_limit_cli(self, args, capsys):
        # only the conditional entropy has a scale limit
        from entrobound import cli

        assert cli.main(args + ["--out", "-"]) == 2
        assert "cells on each side" in capsys.readouterr().err

    def test_fig2_cli_at_sigma_1e9(self, tmp_path):
        # the moments have no scale limit: at this scale every Fourier term
        # underflows, so R0 = v + 1/12, R1 = c and K = 2c / (v + 1/6)
        from entrobound import cli

        out = tmp_path / "fig2.csv"
        assert cli.main(["fig2", "--sigma", "1e9", "--theta-step", "0.5", "--out", str(out)]) == 0
        rows = out.read_text().split()[1:]
        assert len(rows) == 5
        for row in rows:
            theta, k_ratio = (float(x) for x in row.split(","))
            var, cov = 1e18 * (1.0 + theta * theta), 1e18 * theta
            assert k_ratio == pytest.approx(2.0 * cov / (var + 1.0 / 6.0), rel=1e-9)

    def test_large_sigma_value(self):
        # a 1347 x 1347 joint table, inside the limit
        h = qma_conditional_entropy(QuantizedMaModel(30.0, 2.0))
        assert h == pytest.approx(5.5376909639, abs=1e-10)

    def test_erfc_blocks_capped(self, monkeypatch):
        # nu = 0 at sigma0 = 45.9: the trapezoid runs to thousands of nodes a
        # level and the index box has 923 columns, so the chunks are short
        from entrobound import processes

        blocks = []
        inner = processes._interval_probs

        def recording(idx, mu, sd):
            blocks.append(np.size(mu) * (len(idx) + 1))
            return inner(idx, mu, sd)

        monkeypatch.setattr(processes, "_interval_probs", recording)
        h = processes.qar_conditional_entropy(QuantizedArModel(20.0, 0.9, 0.0))
        assert max(blocks) <= processes._BLOCK_ELEMENTS
        assert h == pytest.approx(qar_rectangle_conditional_entropy(20.0, 0.9, 0.0), abs=1e-9)

    # rows whose spacing h is far below one cell (2^-16 at (1 + 1e-18, 1e-9)),
    # so that one lattice vector of step h across the index box would be
    # long; the chunk tables stay small.  erfc elements: the per-node tables
    # of the uniform s-grid took 858, 2,056, 520 and 4,104
    @pytest.mark.parametrize(
        "var,cov,elements,oracle",
        [
            (1.0 + 1e-18, 1e-9, 468, lambda: rectangle_conditional_entropy(1.0, 1e-9)),
            (2e-14, 1e-14, 1048, lambda: cell_conditional_entropy(2e-14, 1e-14)),
            (0.005, 0.0025, 304, lambda: cell_conditional_entropy(0.005, 0.0025)),
            (1e-8, 9e-9, 1928, lambda: cell_conditional_entropy(1e-8, 9e-9)),
        ],
        ids=["scale-1", "scale-1.4e-7", "fig3-sigma-0.05", "scale-1e-4"],
    )
    @pytest.mark.parametrize("cap", [None, 256], ids=["default-cap", "cap-256"])
    def test_fine_lattice_blocks_capped(self, monkeypatch, var, cov, elements, oracle, cap):
        from entrobound import processes

        if cap is not None:
            monkeypatch.setattr(processes, "_BLOCK_ELEMENTS", cap)
        blocks = []
        inner = processes._interval_probs

        def recording(idx, mu, sd):
            blocks.append(np.size(mu) * (len(idx) + 1))
            return inner(idx, mu, sd)

        monkeypatch.setattr(processes, "_interval_probs", recording)
        h = processes._pair_conditional_entropy(var, cov)
        assert max(blocks) <= processes._BLOCK_ELEMENTS
        if cap is None:
            assert sum(blocks) <= elements
        assert h == pytest.approx(float(oracle()), rel=1e-9, abs=0.0)

    def test_erfc_elements_per_row(self, monkeypatch):
        # fig3 sigma = 5, theta = 1: 9,620 erfc elements with a table per
        # s-node on the uniform grid, 188 with a table per offset on h * Z
        from entrobound import processes

        elements = [0]
        inner = processes._interval_probs

        def recording(idx, mu, sd):
            elements[0] += np.size(mu) * (len(idx) + 1)
            return inner(idx, mu, sd)

        monkeypatch.setattr(processes, "_interval_probs", recording)
        processes._pair_conditional_entropy(50.0, 25.0)
        assert elements[0] <= 9620 // 10


def winter_bound(t: float, outcomes: int) -> float:
    """Largest change of H(Y_1 | Y_0) between two joints t apart in total
    variation, Y on ``outcomes`` values: 2 t log|Y| + (1 + t) h2(t / (1 + t))
    (Alicki & Fannes 2004; Winter, Commun. Math. Phys. 347, 2016, Lemma 2)."""
    x = t / (1.0 + t)
    return 2.0 * t * math.log(outcomes) + (1.0 + t) * (-x * math.log(x) - (1.0 - x) * math.log1p(-x))


class TestConditionalEntropyAccuracy:
    """The single trapezoid level against oracles that share none of it."""

    @pytest.fixture(scope="class")
    def sweep_sample(self):
        # a seeded sample of the sweep shape (AR at phi 0.95-0.9995, sigma
        # 0.05-2, nu 0, 0.1 or 0.5; MA at sigma 0.03-0.3, theta 0-2) and the
        # two rows the former halving loop found hardest, each with its
        # rectangle oracle and, below scale 0.25, its cell oracle.  Marginal
        # scales stop at 3: the rectangle cells carry round-off of about 1e-16
        # each, which moves its H by up to 1.6e-13 there and more beyond
        rng = np.random.default_rng(3030)
        pairs = []
        for sigma, phi, nu in [(0.075, 0.9995, 0.0), (0.17, 0.9898, 0.5)]:
            var0 = sigma * sigma / (1.0 - phi * phi)
            pairs.append((var0 + nu * nu, var0 * phi))
        while len(pairs) < 24:
            if rng.uniform() < 0.7:
                sigma = float(np.exp(rng.uniform(math.log(0.05), math.log(2.0))))
                phi, nu = float(rng.uniform(0.95, 0.9995)), float(rng.choice([0.0, 0.1, 0.5]))
                var0 = sigma * sigma / (1.0 - phi * phi)
                var, cov = var0 + nu * nu, var0 * phi
            else:
                sigma = float(np.exp(rng.uniform(math.log(0.03), math.log(0.3))))
                theta = float(rng.uniform(0.0, 2.0))
                var, cov = sigma * sigma * (1.0 + theta * theta), sigma * sigma * theta
            if var <= 9.0:
                pairs.append((var, cov))
        oracles = []
        for var, cov in pairs:
            oracle = [rectangle_conditional_entropy(math.sqrt(var), cov / var)]
            if var < 0.0625:
                oracle.append(float(cell_conditional_entropy(var, cov)))
            oracles.append((var, cov, oracle))
        return oracles

    @pytest.mark.parametrize("tol", [None, 1e-9, 1e-6, 1e-3])
    def test_single_level_within_its_bound(self, monkeypatch, sweep_sample, tol):
        # the joint is off by at most ALIASING_TOL in total variation from
        # the trapezoid, plus 1e-14 the span and the box leave out; Winter's
        # bound turns that into H.  The shipped tolerance leaves only
        # round-off; the coarser ones give errors large enough to see
        from entrobound import processes

        if tol is not None:
            monkeypatch.setattr(processes, "ALIASING_TOL", tol)
        errors = []
        for var, cov, oracles in sweep_sample:
            outcomes = 2 * processes._box_halfwidth(math.sqrt(var)) + 1
            bound = winter_bound(processes.ALIASING_TOL + 1e-14, outcomes)
            h = processes._pair_conditional_entropy(var, cov)
            for oracle in oracles:
                errors.append(abs(h - oracle))
                assert errors[-1] <= bound, (var, cov, oracle)
        if tol is not None and tol >= 1e-6:
            assert max(errors) > 1e-11

    def test_fig3_small_sigma_against_cell_oracle(self):
        # H_CE of 1e-21 to 1e-4 at sigma = 0.05: the rows are near-certain, and
        # the first off-diagonal cells get their mass near s = cov / (var + cov)
        for theta in FIG3_THETAS:
            var, cov = 0.0025 * (1.0 + theta * theta), 0.0025 * theta
            oracle = float(cell_conditional_entropy(var, cov))
            h = qma_conditional_entropy(QuantizedMaModel(0.05, theta))
            assert h == pytest.approx(oracle, rel=1e-9, abs=0.0), theta

    @pytest.mark.parametrize("phi,expected", [(0.96, 1.39033286e-265), (0.98, 4.34515583e-134)])
    def test_fig4_underflowing_rows_against_cell_oracle(self, phi, expected):
        # fig4 --sigma 0.004 --nu 0: R(0) underflows, H_CE does not
        var0 = 0.004**2 / (1.0 - phi * phi)
        oracle = float(cell_conditional_entropy(var0, var0 * phi))
        h = qar_conditional_entropy(QuantizedArModel(0.004, phi, 0.0))
        assert h == pytest.approx(oracle, rel=1e-9, abs=0.0)
        assert f"{h:.9g}" == f"{expected:.9g}"

    def test_period_one_ripple_near_the_unit_root(self):
        # a 32-panel start over +-14 weight sds once stopped here at 1.14964:
        # its first two levels both sampled the period-1 ripple of the
        # quantizer and agreed with each other
        h = qar_conditional_entropy(QuantizedArModel(1.0, 0.999, 0.0))
        assert h == pytest.approx(qar_rectangle_conditional_entropy(1.0, 0.999, 0.0), abs=1e-9)
        assert h == pytest.approx(1.49593337, abs=1e-8)

    def test_seeded_sweep_against_rectangle_oracles(self):
        # marginal scales up to 25 keep each rectangle table small.  A third
        # of the AR points sit at |phi| in [0.998, 0.999] with little noise,
        # where a too-coarse start can sample the period-1 ripple in step
        rng = np.random.default_rng(20261018)

        def log_uniform(lo, hi):
            return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))

        off = {}
        for _ in range(40):
            theta = float(rng.uniform(0.0, 2.0))
            sigma = log_uniform(0.2, min(20.0, 25.0 / math.hypot(1.0, theta)))
            h = qma_conditional_entropy(QuantizedMaModel(sigma, theta))
            gap = h - qma_rectangle_conditional_entropy(sigma, theta)
            if abs(gap) > 1e-9:
                off[("ma", sigma, theta)] = gap
        for k in range(90):
            if k % 3:
                phi = float(rng.uniform(-0.999, 0.999))
                nu = float(rng.choice([0.0, 0.1, 0.5, 4.0]))
            else:
                phi = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.998, 0.999))
                nu = float(rng.choice([0.0, 0.1]))
            top = min(20.0, math.sqrt((625.0 - nu * nu) * (1.0 - phi * phi)))
            if top <= 0.2:
                continue
            sigma = log_uniform(0.2, top)
            h = qar_conditional_entropy(QuantizedArModel(sigma, phi, nu))
            gap = h - qar_rectangle_conditional_entropy(sigma, phi, nu)
            if abs(gap) > 1e-9:
                off[("ar", sigma, phi, nu)] = gap
        assert not off


class TestQuantizedArStatistics:
    def test_degenerate_scale(self):
        assert qar_r0(QuantizedArModel(1e-3, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_rk_zero_at_phi_zero(self):
        m = QuantizedArModel(1.0, 0.0, 4.0)
        for k in (1, 2, 3):
            assert qar_rk(m, k) == 0.0

    def test_large_noise_decorrelates(self):
        # additive noise leaves the covariance at sigma0^2 * phi^k, but the
        # normalized correlation collapses
        m = QuantizedArModel(1.0, 0.9, 1000.0)
        r0, r1 = qar_r0(m), qar_rk(m, 1)
        assert abs(r1 / r0) < 1e-3
        assert r1 == pytest.approx(m.stationary_variance * 0.9, rel=1e-4)

    def test_lag_decay_and_cauchy_schwarz(self):
        m = QuantizedArModel(1.0, 0.9, 4.0)
        r0 = qar_r0(m)
        values = [qar_rk(m, k) for k in (1, 2, 3)]
        assert all(abs(v) <= r0 for v in values)
        assert abs(values[2]) <= abs(values[1]) <= abs(values[0])

    def test_rk_requires_positive_lag(self):
        with pytest.raises(DomainError):
            qar_rk(QuantizedArModel(1.0, 0.5, 1.0), 0)


class TestQuantizedArBounds:
    def test_fig4_anchor_k2(self):
        res = qar_th2_bound(QuantizedArModel(1.0, 0.9, 4.0), 2)
        assert res.value == pytest.approx(2.914168837, abs=2e-3)

    def test_fig4_anchor_k3_phi98(self):
        res = qar_th2_bound(QuantizedArModel(1.0, 0.98, 4.0), 3)
        assert res.value == pytest.approx(2.964432509, abs=3e-3)

    def test_k_nesting(self):
        m = QuantizedArModel(1.0, 0.9, 4.0)
        v = [qar_th2_bound(m, k).value for k in (1, 2, 3)]
        assert v[2] <= v[1] + 1e-6 and v[1] <= v[0] + 1e-6

    def test_k_domain(self):
        with pytest.raises(DomainError):
            qar_th2_bound(QuantizedArModel(1.0, 0.5, 1.0), 0)

    def test_th2_r0_underflow(self):
        m = QuantizedArModel(0.004, 0.7, 0.0)
        assert qar_r0(m) == 0.0
        res = qar_th2_bound(m, 3)
        assert res.value == univariate_me_bound(0.0)
        assert res.value == pytest.approx(0.5 * math.log(2 * math.pi * math.e / 12), abs=1e-15)
        assert res.argmin == [0.0, 0.0, 0.0]

    def test_k6_not_above_k4(self):
        m = QuantizedArModel(1.0, 0.9, 4.0)
        assert qar_th2_bound(m, 6).value <= qar_th2_bound(m, 4).value + 1e-12


class TestQuantizedArConditionalEntropy:
    @pytest.mark.parametrize(
        "phi,expected", [(0.9, 2.924135013), (0.7, 2.862446961)]
    )
    def test_reference_values(self, phi, expected):
        assert qar_conditional_entropy(QuantizedArModel(1.0, phi, 4.0)) == pytest.approx(
            expected, abs=5e-3
        )

    @pytest.mark.parametrize("nu", [4.0, 0.5, 0.0])
    def test_against_rectangle_oracle(self, nu):
        # exact bivariate-normal cell probabilities at every fig4 grid point;
        # nu = 0 runs on the same trapezoid (smoothing var - |cov| > 0)
        off = {}
        for phi in FIG4_PHIS:
            h = qar_conditional_entropy(QuantizedArModel(1.0, phi, nu))
            gap = h - qar_rectangle_conditional_entropy(1.0, phi, nu)
            if abs(gap) >= 1e-9:
                off[phi] = gap
        assert not off

    @pytest.mark.parametrize("nu", [4.0, 0.0])
    @pytest.mark.parametrize("phi", [-0.9, -0.5])
    def test_negative_phi_against_rectangle_oracle(self, nu, phi):
        # cov < 0: the kernel runs at |cov|, the exact rectangle cells at cov
        h = qar_conditional_entropy(QuantizedArModel(1.0, phi, nu))
        assert h == pytest.approx(qar_rectangle_conditional_entropy(1.0, phi, nu), abs=1e-9)

    @pytest.mark.parametrize("nu", [4.0, 0.5, 0.0])
    def test_sign_of_phi(self, nu):
        # Q(-u) = -Q(u) off the cell edges, so (Y_0, -Y_1) has the law at -phi
        for phi in (0.3, 0.7, 0.94):
            h = qar_conditional_entropy(QuantizedArModel(1.0, phi, nu))
            assert qar_conditional_entropy(QuantizedArModel(1.0, -phi, nu)) == pytest.approx(
                h, abs=1e-12
            )

    def test_phi_zero_is_marginal_entropy(self):
        from entrobound.processes import _marginal_pmf, _pmf_entropy

        m = QuantizedArModel(1.0, 0.0, 4.0)
        _, p = _marginal_pmf(math.hypot(1.0, 4.0))
        assert qar_conditional_entropy(m) == pytest.approx(_pmf_entropy(p), abs=1e-6)


class TestModelValidation:
    def test_quantized_ma(self):
        with pytest.raises(DomainError):
            QuantizedMaModel(0.0, 1.0)
        with pytest.raises(DomainError):
            QuantizedMaModel(1.0, -0.1)

    def test_quantized_ar(self):
        with pytest.raises(DomainError):
            QuantizedArModel(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            QuantizedArModel(1.0, 0.5, -1.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda x: QuantizedMaModel(x, 1.0),
            lambda x: QuantizedMaModel(1.0, x),
            lambda x: QuantizedArModel(x, 0.5, 1.0),
            lambda x: QuantizedArModel(1.0, 0.5, x),
            lambda x: DmaModel((0.5, 0.5), x),
            lambda x: DmaModel((x, 0.5), 1.0),
        ],
        ids=["ma-sigma", "ma-theta", "ar-sigma", "ar-nu", "dma-variance", "dma-weight"],
    )
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_parameters(self, build, value):
        with pytest.raises(DomainError):
            build(value)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: QuantizedMaModel(1e300, 0.0),
            lambda: QuantizedMaModel(1.0, 1e200),
            lambda: QuantizedMaModel(1e154, 1.0),  # sigma^2 is finite, twice it is not
            lambda: QuantizedMaModel(1e-300, 1e300),  # sigma^2 underflows, theta^2 overflows
            lambda: QuantizedArModel(1e300, 0.7, 4.0),
            lambda: QuantizedArModel(1.0, 0.7, 1e200),
            lambda: QuantizedArModel(1e154, 0.999, 0.0),
        ],
    )
    def test_overflowing_variance(self, build):
        with pytest.raises(DomainError, match="overflows"):
            build()

    def test_largest_variances_are_accepted(self):
        QuantizedMaModel(1e154, 0.5)
        QuantizedArModel(1e153, 0.9, 1e154)

    def test_emissions(self):
        with pytest.raises(DomainError):
            BinomialEmission(0, 0.5, 0.5)
        with pytest.raises(DomainError):
            BinomialEmission(3, 1.2, 0.5)
        with pytest.raises(DomainError):
            PoissonEmission(-1.0, 2.0)


class TestKernelOracles:
    def test_interval_probs_against_scipy(self, rng):
        from entrobound.processes import _interval_probs
        from scipy.stats import norm

        idx = np.arange(-30, 31)
        mu = rng.uniform(-10, 10, size=40)
        sd = 1.7
        ours = _interval_probs(idx, mu, sd)
        ref = norm.cdf((idx[None, :] + 0.5 - mu[:, None]) / sd) - norm.cdf(
            (idx[None, :] - 0.5 - mu[:, None]) / sd
        )
        assert np.max(np.abs(ours - ref)) < 1e-14

    @pytest.mark.parametrize(
        "scale", [0.05, 0.1, 0.199, 0.2, 0.201, 0.5, 1.0, 3.7, 10.0, 25.0, 60.0]
    )
    def test_quantized_second_moment_against_mpmath(self, scale):
        # the 40-digit cell sum; 0.199 and 0.201 sit on either side of the
        # small-scale rule.  At scale 0.05 the rounding of erfc's argument
        # x ~ 7 alone is amplified by 2 x^2 ~ 100, hence rel 1e-13
        direct = float(quantized_second_moment(scale * scale))
        assert qma_r0(QuantizedMaModel(scale, 0.0)) == pytest.approx(direct, rel=1e-13, abs=0.0)
        # the same variance reached through nu: sigma0^2 + nu^2 = scale^2
        ar = QuantizedArModel(0.6 * scale, 0.0, 0.8 * scale)
        assert qar_r0(ar) == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_erfc_against_mpmath(self):
        # the cells' erfc is the C library's: at most 2.3 ulp off a 40-digit
        # erfc wherever that is a normal double (scipy's erfc reached 506
        # ulp), and 0 only where the true value is below the smallest
        # subnormal (from z = 27.23; scipy's from 26.64)
        import mpmath

        from entrobound.processes import _erfc

        x = np.linspace(0.0, 27.3, 4200)
        ours = _erfc(x.reshape(4, -1)).ravel()
        smallest = math.ulp(0.0)
        zeros = 0
        with mpmath.workdps(40):
            for z, value in zip(x, ours):
                ref = mpmath.erfc(mpmath.mpf(float(z)))
                err = abs(mpmath.mpf(float(value)) - ref)
                if ref >= np.finfo(float).tiny:
                    assert err <= 4 * math.ulp(float(ref)), z
                else:
                    assert err <= 2 * smallest, z
                if value == 0.0:
                    assert ref < smallest, z
                    zeros += 1
        assert 0 < zeros < 20

    @pytest.mark.parametrize("sd,mu", [(1.0, 0.0), (0.5, 0.3), (1.7, -2.4)])
    def test_interval_probs_far_tail_relative(self, sd, mu):
        # cells 20-35 sd out on both sides keep full relative accuracy
        import mpmath

        from entrobound.processes import _interval_probs

        reach = int(36 * sd) + 3
        idx = np.arange(-reach, reach + 1)
        ours = _interval_probs(idx, np.array([mu]), sd)[0]
        checked = 0
        with mpmath.workdps(40):
            for i, p in zip(idx, ours):
                lo = (mpmath.mpf(int(i)) - 0.5 - mu) / sd
                hi = lo + 1 / mpmath.mpf(sd)
                near = min(abs(lo), abs(hi))
                if lo * hi <= 0 or not 20 <= near <= 35:
                    continue
                lo, hi = (lo, hi) if lo > 0 else (-hi, -lo)
                ref = (mpmath.erfc(lo / mpmath.sqrt(2)) - mpmath.erfc(hi / mpmath.sqrt(2))) / 2
                assert p == pytest.approx(float(ref), rel=1e-12, abs=0.0), i
                checked += 1
        assert checked >= 2 * int(15 * sd)

    # (var, cov) = (1.25, 0.5): the cell tables have sd = sqrt(0.75) (the
    # marginal would have sqrt(1.25)); tau = sqrt(0.75 * 0.5 / 1.75), so the
    # spacing is h = 1/4, the largest power of two <= 0.749 tau = 0.35, and
    # the grid spans +-8 sqrt(0.5) = +-5.66, rounded out to +-23 h
    STEP, HALF_PANELS = 0.25, 23

    def test_trapezoid_evaluates_each_node_once(self, monkeypatch):
        # one level, and only the s >= 0 half of its grid is evaluated: the
        # chunks are the half grid's nodes in order, each once, and the joint
        # goes through one entropy evaluation
        from entrobound import processes

        tau = math.sqrt(0.75 * 0.5 / 1.75)
        spacing = math.pi * tau * math.sqrt(2.0 / math.log(2.0 / processes.ALIASING_TOL))
        assert self.STEP <= spacing < 2 * self.STEP
        assert math.ceil(8.0 * math.sqrt(0.5) / self.STEP) == self.HALF_PANELS

        chunks, entropies = [], []
        inner_rows, inner_entropy = processes._lattice_rows, processes._pmf_entropy

        def recording(idx, s, sd, period):
            if sd == math.sqrt(0.75):
                chunks.append(np.array(s, dtype=float))
            return inner_rows(idx, s, sd, period)

        def counting(p):
            entropies.append(p.shape)
            return inner_entropy(p)

        monkeypatch.setattr(processes, "_lattice_rows", recording)
        monkeypatch.setattr(processes, "_pmf_entropy", counting)
        processes._pair_conditional_entropy(1.25, 0.5)
        np.testing.assert_array_equal(np.concatenate(chunks), self.STEP * np.arange(self.HALF_PANELS + 1))
        assert len(entropies) == 1

    @pytest.mark.parametrize("cov", [0.5, -0.5])
    def test_one_table_per_chunk(self, monkeypatch, cov):
        # with chunks of 7 s-nodes, each chunk makes one _interval_probs table
        # with a row per distinct fractional offset: at spacing 1/4 the
        # offsets repeat every 4 nodes, so a chunk of n nodes has min(4, n)
        from entrobound import processes

        chunks, tables = [], []
        inner_rows, inner_probs = processes._lattice_rows, processes._interval_probs

        def recording_rows(idx, s, sd, period):
            if sd == math.sqrt(0.75):
                chunks.append(np.array(s, dtype=float))
            return inner_rows(idx, s, sd, period)

        def recording_probs(idx, mu, sd):
            if sd == math.sqrt(0.75):
                tables.append(np.size(mu))
            return inner_probs(idx, mu, sd)

        monkeypatch.setattr(processes, "_lattice_rows", recording_rows)
        monkeypatch.setattr(processes, "_interval_probs", recording_probs)
        # the block cap sets the chunk: box width + 3 = 32 elements a node at var 1.25
        cap = 7 * (2 * processes._box_halfwidth(math.sqrt(1.25)) + 4)
        monkeypatch.setattr(processes, "_BLOCK_ELEMENTS", cap)
        processes._pair_conditional_entropy(1.25, cov)
        # the half grid's 24 nodes: three full chunks and one of 3
        assert [len(s) for s in chunks] == [7, 7, 7, 3]
        assert len(tables) == len(chunks)
        for s, rows in zip(chunks, tables):
            assert rows == len(np.unique(s % 1.0)) == min(4, len(s))

    @pytest.mark.parametrize("chunk", [3, 5, 6])
    def test_periodic_offsets_match_sorted_offsets(self, monkeypatch, chunk):
        # chunks of 3, 5 or 6 nodes against offset periods 2 (spacing 1/2 at
        # (5, 2)) and 4 (spacing 1/4 at (1.25, 0.5)): a chunk shorter than its
        # period (which is then capped at the chunk), and chunks that are no
        # multiple of it.  Each chunk's rows equal, bit for bit, those of a
        # table with a row per offset found by sorting
        from entrobound import processes

        def sorted_rows(idx, s, sd):
            q = np.floor(s).astype(np.intp)
            offsets, row = np.unique(s - q, return_inverse=True)
            table = processes._interval_probs(np.arange(idx[0] - q.max(), idx[-1] - q.min() + 1), offsets, sd)
            return table[row[:, None], idx - idx[0] + q.max() - q[:, None]]

        checked = []
        inner = processes._lattice_rows

        def checking(idx, s, sd, period):
            rows = inner(idx, s, sd, period)
            assert rows.tobytes() == sorted_rows(idx, s, sd).tobytes()
            checked.append(period)
            return rows

        monkeypatch.setattr(processes, "_lattice_rows", checking)
        for var, cov in [(5.0, 2.0), (1.25, 0.5)]:
            # the block cap sets the chunk: box width + 3 elements a node
            cap = chunk * (2 * processes._box_halfwidth(math.sqrt(var)) + 4)
            monkeypatch.setattr(processes, "_BLOCK_ELEMENTS", cap)
            h = processes._pair_conditional_entropy(var, cov)
            assert h == pytest.approx(rectangle_conditional_entropy(math.sqrt(var), cov / var), abs=1e-9)
        assert set(checked) == {2, min(4, chunk)}

    def test_small_sigma_ma_against_simulation(self):
        # severe-quantization regime: most mass collapses onto few integers
        from entrobound import montecarlo as mc

        m = QuantizedMaModel(0.5, 2.0)
        path = mc.simulate(m, 10**6, seed=77)
        for lag, analytic in ((0, qma_r0(m)), (1, qma_r1(m))):
            est = mc.empirical_covariance(path, lag)
            assert abs(est.value - analytic) <= 4 * est.std_error

    def test_noise_free_ar_against_simulation(self):
        # nu = 0: the indicator branch of the interval kernels
        from entrobound import montecarlo as mc

        m = QuantizedArModel(1.0, 0.8, 0.0)
        path = mc.simulate(m, 10**6, seed=78)
        for lag in (1, 2):
            est = mc.empirical_covariance(path, lag)
            assert abs(est.value - qar_rk(m, lag)) <= 4 * est.std_error

    def test_sticky_chain_covariance_alternates(self):
        # omega < 0: covariances alternate in sign and match simulation
        from entrobound import montecarlo as mc

        m = TwoStateHmm(0.9, 0.8, BinomialEmission(10, 0.2, 0.8))
        assert m.omega == pytest.approx(-0.7)
        assert hmm_covariance(m, 1) < 0 < hmm_covariance(m, 2)
        path = mc.simulate(m, 10**6, seed=79)
        for lag in (0, 1, 2):
            est = mc.empirical_covariance(path, lag)
            assert abs(est.value - hmm_covariance(m, lag)) <= 4 * est.std_error


class TestLagCovarianceAtLargeScale:
    """R(1) and R(k) against the 40-digit Fourier-series oracle, up to sigma = 3000.

    The library sums the same series in float64, with the bracket of each
    double-sum term taken as a product, so agreement is to rounding.
    """

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 5.0, 3000.0])
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_qma_r1_against_oracle(self, sigma, theta):
        var = sigma * sigma * (1.0 + theta * theta)
        oracle = float(quantized_cross_moment(var, var, theta * sigma * sigma))
        assert qma_r1(QuantizedMaModel(sigma, theta)) == pytest.approx(oracle, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "sigma,phi,nu,k", [(1.0, 0.9, 4.0, 1), (1.0, 0.9, 4.0, 3), (3000.0, 0.9, 4.0, 2), (3000.0, -0.5, 1.0, 1)]
    )
    def test_qar_rk_against_oracle(self, sigma, phi, nu, k):
        var0 = sigma * sigma / (1.0 - phi * phi)
        oracle = float(quantized_cross_moment(var0 + nu * nu, var0 + nu * nu, phi**k * var0))
        assert qar_rk(QuantizedArModel(sigma, phi, nu), k) == pytest.approx(oracle, rel=1e-14, abs=0.0)

    def test_fig2_grid_against_oracle(self):
        for sigma in (1.0, 5.0):
            for i in range(201):
                theta = i / 100
                var = sigma * sigma * (1.0 + theta * theta)
                oracle = float(quantized_cross_moment(var, var, theta * sigma * sigma))
                ours = qma_r1(QuantizedMaModel(sigma, theta))
                assert ours == pytest.approx(oracle, rel=1e-14, abs=0.0), (sigma, theta)

    @pytest.mark.parametrize("nu", [4.0, 0.5, 0.25, 0.0])
    def test_fig4_grid_against_oracle(self, nu):
        for phi in FIG4_PHIS:
            var0 = 1.0 / (1.0 - phi * phi)
            for k in (1, 2, 3):
                oracle = float(quantized_cross_moment(var0 + nu * nu, var0 + nu * nu, phi**k * var0))
                ours = qar_rk(QuantizedArModel(1.0, phi, nu), k)
                assert ours == pytest.approx(oracle, rel=1e-14, abs=0.0), (phi, k)

    def test_nu_zero_at_sigma_3000(self):
        # nu = 0 once took this moment through quadrature on the jump cells
        # of a bare staircase, at a cost growing like sigma^2 (minutes at
        # this sigma); the Fourier sum does not see nu = 0
        start = time.perf_counter()
        ours = qar_rk(QuantizedArModel(3000.0, 0.5, 0.0), 1)
        assert time.perf_counter() - start < 1.0
        var0 = 9e6 / 0.75
        assert ours == pytest.approx(float(quantized_cross_moment(var0, var0, 0.5 * var0)), rel=1e-14, abs=0.0)

    def test_fig2_cli_at_sigma_3000(self, tmp_path):
        from entrobound import cli

        out = tmp_path / "fig2.csv"
        argv = ["fig2", "--sigma", "3000", "--theta-max", "2", "--theta-step", "1"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        rows = out.read_text().split()[1:]
        for row, theta in zip(rows, (0.0, 1.0, 2.0)):
            var = 9e6 * (1.0 + theta * theta)
            r1 = float(quantized_cross_moment(var, var, theta * 9e6))
            # at this scale E[Q(X)^2] = Var X + 1/12 up to exp(-2 pi^2 Var X)
            expected = 2.0 * r1 / (var + 1.0 / 12.0 + 1.0 / 12.0)
            assert float(row.split(",")[1]) == pytest.approx(expected, abs=1e-9)


class TestFourierMomentRules:
    """The early stop the closed forms replaced, and the rules at their edges."""

    @pytest.mark.parametrize("nu", [0.25, 0.5])
    def test_no_false_convergence_near_phi_one(self, nu):
        # the trapezoid over s stopped early on the period-1 ripple of
        # E[Q(s + V)]: it was 2.3e-2 (nu = 0.25) and 5.6e-4 (nu = 0.5) high
        var0 = 1.0 / (1.0 - 0.96**2)
        var, cov = var0 + nu * nu, 0.96 * var0
        ours = qar_rk(QuantizedArModel(1.0, 0.96, nu), 1)
        assert ours == pytest.approx(quantized_rectangle_cross_moment(var, cov), rel=1e-12, abs=0.0)
        assert ours == pytest.approx(float(quantized_cross_moment(var, var, cov)), rel=1e-12, abs=0.0)

    def test_fig4_nu_quarter_row_at_phi_096(self, tmp_path):
        # printed 1.57586804 and 1.57568246 for the bounds before; the
        # oracle moments give 1.5895536 and 1.58929847
        from entrobound import cli
        from entrobound.bounds import tdist_bound_k
        from entrobound.spectrum import CovarianceSequence

        out = tmp_path / "fig4.csv"
        argv = ["fig4", "--nu", "0.25", "--phi-min", "0.96", "--phi-max", "0.96", "--out", str(out)]
        assert cli.main(argv) == 0
        phi, h_ce, *bounds = out.read_text().split()[1].split(",")
        var0 = 1.0 / (1.0 - 0.96**2)
        var = var0 + 0.0625
        moments = [float(quantized_second_moment(var))] + [
            float(quantized_cross_moment(var, var, 0.96**k * var0)) for k in (1, 2, 3)
        ]
        expected = [tdist_bound_k(CovarianceSequence(tuple(moments[: k + 1]))).value for k in (2, 3)]
        assert phi == "0.96"
        assert float(h_ce) == pytest.approx(qar_rectangle_conditional_entropy(1.0, 0.96, 0.25), abs=1e-7)
        assert bounds == [f"{x:.9g}" for x in expected] == ["1.5895536", "1.58929847"]

    @pytest.mark.parametrize("sigma", [0.047, 0.05])
    def test_lag_resolution_rule(self, sigma):
        # R0 = 1e-10 var near sigma = 0.0489 at theta = 1.  Below, the lag
        # moment is returned as 0, within R0 of the true one; above, the sum
        # holds its absolute accuracy of about 5e-14 var
        from entrobound.processes import LAG_RESOLUTION

        model = QuantizedMaModel(sigma, 1.0)
        var, cov = 2.0 * sigma * sigma, sigma * sigma
        oracle = float(quantized_cross_moment(var, var, cov, terms=60))
        r0, r1 = qma_r0(model), qma_r1(model)
        assert abs(oracle) <= r0
        if sigma < 0.0489:
            assert r0 < LAG_RESOLUTION * var and r1 == 0.0
        else:
            assert r0 > LAG_RESOLUTION * var and abs(r1) <= r0
            assert r1 == pytest.approx(oracle, rel=0.0, abs=1e-14 * var)

    def test_fourier_term_limit(self):
        # at nu = 0 and phi = 0.9999 the lag-1 gap var - cov = sigma^2 / (1 + phi):
        # 492 terms a side at sigma = 0.0041, 530 at sigma = 0.0038
        import tracemalloc

        from entrobound.processes import MAX_FOURIER_TERMS

        below = QuantizedArModel(0.0041, 0.9999, 0.0)
        var = below.stationary_variance
        oracle = quantized_rectangle_cross_moment(var, 0.9999 * var)
        assert qar_rk(below, 1) == pytest.approx(oracle, rel=1e-13, abs=0.0)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=f"530 Fourier terms a side.*limit of {MAX_FOURIER_TERMS}"):
                qar_rk(QuantizedArModel(0.0038, 0.9999, 0.0), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16  # one 530 x 530 table alone would take 2.2 MB

    def test_underflowed_variance(self):
        # sigma^2 = 0.0 in double precision: every moment is 0, not a division by 0
        ma, ar = QuantizedMaModel(1e-200, 1.0), QuantizedArModel(1e-200, 0.5, 0.0)
        assert (qma_r0(ma), qma_r1(ma), qar_r0(ar), qar_rk(ar, 1)) == (0.0, 0.0, 0.0, 0.0)


class TestQuantizedMomentBand:
    """The scalar moment sums against the 40-digit oracles, and the double
    sum's band against the full square of the same terms."""

    def test_fig2_rows_against_oracles(self, tmp_path):
        # every 5th theta of the default grid; the oracles take ~1.5 s here
        import mpmath

        from entrobound import cli

        out = tmp_path / "fig2.csv"
        assert cli.main(["fig2", "--out", str(out)]) == 0
        header, *rows = out.read_text().split()
        assert header == "theta,K_sigma1,K_sigma5"
        assert len(rows) == 201
        for row in rows[::5]:
            theta, *printed = row.split(",")
            expected = []
            for sigma in (1.0, 5.0):
                var = sigma * sigma * (1.0 + float(theta) ** 2)
                with mpmath.workdps(40):
                    r0 = quantized_second_moment(var)
                    r1 = quantized_cross_moment(var, var, sigma * sigma * float(theta))
                    k_ratio = float(2 * r1 / (r0 + mpmath.mpf(1) / 12))
                expected.append(f"{k_ratio:.9g}")
            assert printed == expected, theta

    @staticmethod
    def _sweep():
        # (var, cov) of MA rows at sigma in [0.05, 10], theta in [0, 2], and
        # AR rows at lags 1-3 with |phi| up to 0.9999 and nu in {0, 0.25, 4};
        # then the 492-term corner of test_fourier_term_limit
        rng = np.random.default_rng(2301)
        rows = []
        for _ in range(24):
            sigma, theta = math.exp(rng.uniform(math.log(0.05), math.log(10.0))), rng.uniform(0.0, 2.0)
            rows.append((sigma * sigma * (1.0 + theta * theta), sigma * sigma * theta))
        for _ in range(24):
            sigma = math.exp(rng.uniform(math.log(0.05), math.log(10.0)))
            phi = (1.0 - 10.0 ** rng.uniform(-4.0, 0.0)) * rng.choice([-1.0, 1.0])
            nu, lag = rng.choice([0.0, 0.25, 4.0]), int(rng.integers(1, 4))
            var0 = sigma * sigma / (1.0 - phi * phi)
            rows.append((var0 + nu * nu, var0 * phi**lag))
        var0 = 0.0041**2 / (1.0 - 0.9999**2)
        rows.append((var0, 0.9999 * var0))
        return rows

    def test_lag_moment_against_oracle(self):
        from entrobound.processes import _lag_moment

        a = 2.0 * math.pi**2
        for var, cov in self._sweep():
            # terms beyond t are below exp(-a (var - |cov|) t^2) < e^-60 each
            terms = int(math.sqrt(60.0 / (a * (var - abs(cov))))) + 1
            oracle = float(quantized_cross_moment(var, var, cov, terms=terms))
            assert abs(_lag_moment(var, cov) - oracle) <= 1e-14 * var, (var, cov)

    def test_band_keeps_every_term_above_the_cut(self):
        # the square holds every term of k, l <= n; the band visits l >= k
        # only, so equality also checks the doubling of the off-diagonal terms
        from entrobound.processes import _cross_terms, _fourier_terms

        a = 2.0 * math.pi**2

        def square(var, c, n, cut):
            terms = []
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    kl = k * l
                    q = (k * k + l * l) * var - 2.0 * c * kl
                    if a * q <= cut:
                        terms.append((-1.0) ** (k + l) * math.exp(-a * q) * -math.expm1(-4.0 * a * c * kl) / kl)
            return math.fsum(terms)

        for var, cov in self._sweep():
            c = abs(cov)
            n = _fourier_terms(var - c)
            band = math.fsum(_cross_terms(var, c, n))
            assert band == pytest.approx(square(var, c, n, 40.0), rel=1e-15, abs=0.0), (var, cov)
            # the terms past the cut are each below e^-40; together they stay
            # far below the double sum's rounding of about 5e-14 var
            assert band == pytest.approx(square(var, c, n, math.inf), rel=1e-15, abs=1e-16 * var), (var, cov)

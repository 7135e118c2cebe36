import math

import numpy as np
import pytest

from entrobound import numerics, spectrum
from entrobound.numerics import (
    ConvergenceError,
    DomainError,
    log_gamma,
)
from entrobound.spectrum import integrate_periodic

TWO_PI = 2.0 * math.pi


class TestLogGamma:
    @pytest.mark.parametrize(
        "x,expected", [(1.0, 0.0), (2.0, 0.0), (0.5, 0.5 * math.log(math.pi))]
    )
    def test_known_values(self, x, expected):
        assert abs(log_gamma(x) - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-1.5)

    def test_stirling_bracket(self):
        # 0 < log Gamma(x) - [(x - 1/2) log x - x + log(2 pi)/2] < 1/x on (1, 100]
        for x in np.linspace(1.0009765625, 100.0, 400):
            gap = log_gamma(x) - ((x - 0.5) * math.log(x) - x + 0.5 * math.log(TWO_PI))
            assert 0.0 < gap < 1.0 / x


class TestIntegratePeriodic:
    def test_constant(self):
        assert abs(integrate_periodic(lambda lam: np.ones_like(lam)) - TWO_PI) < 1e-12

    def test_full_period_cosine(self):
        assert abs(integrate_periodic(np.cos)) < 1e-12

    def test_log_cosine_against_closed_form(self):
        from entrobound.spectrum import closed_form_log_cos_integral

        val = integrate_periodic(lambda lam: np.log(1.0 + 0.5 * np.cos(lam)))
        assert abs(val - TWO_PI * closed_form_log_cos_integral(0.5)) < 1e-10

    def test_trig_polynomial_exact(self):
        # degree-11 polynomial: exact once the node count clears 2*11 + 2
        def f(lam):
            return 3.0 + np.cos(5 * lam) - 2.0 * np.cos(11 * lam) + np.sin(7 * lam)

        nodes = []

        def recording(lam):
            nodes.append(lam.size)
            return f(lam)

        value = integrate_periodic(recording)
        assert abs(value - 6.0 * math.pi) <= 1e-13 * 6 * math.pi
        assert sum(nodes) <= 128

    def test_non_convergence_diagnostics(self, monkeypatch):
        monkeypatch.setattr(spectrum, "MAX_POINTS", 32)
        monkeypatch.setattr(numerics, "ABS_TOL", 1e-15)
        with pytest.raises(ConvergenceError) as err:
            integrate_periodic(lambda lam: np.log(2.0 + 1.99 * np.cos(lam)))
        assert len(err.value.estimates) == 2

    def test_non_finite_integrand(self):
        with np.errstate(invalid="ignore"):
            with pytest.raises(DomainError):
                integrate_periodic(lambda lam: np.log(np.cos(lam)))

    @pytest.mark.parametrize("f", [lambda lam: 1.0, lambda lam: float(np.sum(lam)), lambda lam: np.ones(len(lam) + 1)])
    def test_integrand_must_keep_the_node_shape(self, f):
        # no node-by-node rerun: a scalar-returning or misshapen integrand is rejected
        with pytest.raises(DomainError, match="shape"):
            integrate_periodic(f)


class TestDomainErrorPropagates:
    """A DomainError from a vectorized integrand is not retried node by node."""

    @staticmethod
    def recording_integrand(calls):
        def g(s):
            calls.append(np.shape(s))
            raise DomainError("outside the domain")

        return g

    def test_periodic(self):
        calls = []
        with pytest.raises(DomainError, match="outside the domain"):
            integrate_periodic(self.recording_integrand(calls))
        assert calls == [(16,)]


class TestRelativeTolerance:
    def test_small_values_keep_the_absolute_rule(self):
        # below |estimate| = ABS_TOL / REL_TOL = 1e4 only ABS_TOL counts
        assert numerics.ABS_TOL / numerics.REL_TOL == pytest.approx(1e4)
        assert not numerics.converged(9999.0, 9999.0 + 2e-9)
        assert numerics.converged(9999.0, 9999.0 + 0.5e-9)

    def test_large_values_stop_on_the_relative_rule(self):
        assert numerics.converged(1e7, 1e7 + 0.5e-6)
        assert not numerics.converged(1e7, 1e7 + 2e-6)

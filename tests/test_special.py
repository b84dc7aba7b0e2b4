import math

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from misspec.errors import DomainError
from misspec.special import (
    StudentT,
    log_betainc,
    log_gamma,
    log_gammaincc,
    reg_inc_beta,
    t_cdf,
    t_quantile,
)
from oracles import normal_quantile_bisect, t_cdf_quad, t_quantile_quad


class TestLogGamma:
    def test_unit_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_half(self):
        assert_allclose(log_gamma(0.5), math.log(math.sqrt(math.pi)), rtol=1e-14)

    def test_factorial_oracle(self):
        for n in range(3, 20):
            assert_allclose(log_gamma(n), math.log(math.factorial(n - 1)), rtol=1e-13)

    def test_recurrence_across_domain(self):
        # Gamma(x+1) = x Gamma(x), checked over the required range.
        for x in [1e-3, 0.1, 0.7, 3.3, 12.0, 1e2, 1e4, 1e6]:
            assert_allclose(
                log_gamma(x + 1.0), log_gamma(x) + math.log(x), rtol=1e-12, atol=1e-13
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-1.5)


class TestRegIncBeta:
    def test_symmetry_at_half(self):
        for a in (0.5, 1.0, 2.0, 7.0):
            assert_allclose(reg_inc_beta(0.5, a, a), 0.5, rtol=1e-12)

    def test_endpoints(self):
        assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_uniform_case(self):
        assert_allclose(reg_inc_beta(0.25, 1.0, 1.0), 0.25, rtol=1e-14)

    def test_monotone_on_grid(self):
        x = np.linspace(0.0, 1.0, 1000)
        vals = reg_inc_beta(x, 2.5, 0.8)
        assert np.all(np.diff(vals) >= 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_inc_beta(1.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, -1.0, 1.0)


class TestTCdf:
    def test_symmetry_point(self):
        for dof in (1.0, 2.0, 17.5):
            assert t_cdf(StudentT(dof), 0.0) == 0.5

    def test_cauchy_value(self):
        assert_allclose(t_cdf(StudentT(1.0), 1.0), 0.75, rtol=1e-13)

    def test_against_quadrature_oracle(self):
        assert abs(t_cdf(StudentT(2.0), 4.3027) - 0.975) < 1e-4
        for dof in (1.0, 3.0, 8.0):
            for x in (-2.5, -0.3, 0.9, 5.0):
                assert_allclose(t_cdf(StudentT(dof), x), t_cdf_quad(x, dof), atol=1e-10)

    def test_symmetry_identity(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal(200) * 5.0
        dist = StudentT(4.0)
        assert np.max(np.abs(t_cdf(dist, xs) + t_cdf(dist, -xs) - 1.0)) < 1e-12

    def test_invalid_dof(self):
        with pytest.raises(DomainError):
            StudentT(0.0)


class TestTQuantile:
    def test_median(self):
        assert t_quantile(StudentT(5.0), 0.5) == 0.0

    def test_textbook_values_vs_oracle(self):
        assert abs(t_quantile(StudentT(1.0), 0.975) - 12.7062) < 1e-3
        assert abs(t_quantile(StudentT(2.0), 0.975) - 4.3027) < 1e-3
        assert abs(t_quantile(StudentT(1.0), 0.975) - t_quantile_quad(0.975, 1.0)) < 1e-6
        assert abs(t_quantile(StudentT(2.0), 0.975) - t_quantile_quad(0.975, 2.0)) < 1e-6

    def test_round_trip(self):
        for dof in (1.0, 2.0, 5.0, 30.0, 200.0):
            dist = StudentT(dof)
            for q in (0.005, 0.025, 0.5, 0.975, 0.995):
                assert abs(t_cdf(dist, t_quantile(dist, q)) - q) < 1e-9

    def test_deep_tail_round_trip(self):
        # The CDF at the computed quantile must reproduce q to near machine
        # precision even where q itself is tiny.
        for dof in (0.5, 1.0, 3.0, 30.0, 1e4):
            dist = StudentT(dof)
            for q in (1e-10, 1e-6):
                assert abs(t_cdf(dist, t_quantile(dist, q)) / q - 1.0) < 1e-12

    def test_large_dof_normal_limit(self):
        assert abs(t_quantile(StudentT(10_000.0), 0.975) - 1.95996) < 5e-3
        assert abs(
            t_quantile(StudentT(10_000.0), 0.975) - normal_quantile_bisect(0.975)
        ) < 5e-3

    def test_lower_tail_symmetry(self):
        dist = StudentT(3.0)
        assert_allclose(t_quantile(dist, 0.1), -t_quantile(dist, 0.9), rtol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            t_quantile(StudentT(2.0), 0.0)
        with pytest.raises(DomainError):
            t_quantile(StudentT(2.0), 1.0)


class TestLogIncomplete:
    @pytest.fixture
    def underflowing_library(self, monkeypatch):
        """Library values as if they had underflowed, so the continued fractions run."""
        library = (scipy.special.gammaincc, scipy.special.betainc)
        monkeypatch.setattr(scipy.special, "gammaincc", lambda a, x: 0.0)
        monkeypatch.setattr(scipy.special, "betainc", lambda a, b, x: 0.0)
        return library

    def test_gamma_continued_fraction_matches_library(self, underflowing_library):
        gammaincc, _ = underflowing_library
        for a in (0.5, 1.0, 2.5, 5.0):
            for x in np.geomspace(a + 1.5, 700.0, 12):
                assert_allclose(log_gammaincc(a, x), math.log(gammaincc(a, x)), rtol=1e-14)

    def test_beta_continued_fraction_matches_library(self, underflowing_library):
        _, betainc = underflowing_library
        for a in (0.5, 1.5, 2.5, 50.0):
            for b in (0.5, 1.0, 2.5):
                for x in np.geomspace(1e-4, 0.99 * (a + 1.0) / (a + b + 2.0), 8):
                    assert_allclose(log_betainc(a, b, x), math.log(betainc(a, b, x)), rtol=1e-14)

    def test_finite_where_library_underflows(self):
        assert scipy.special.gammaincc(2.5, 1e4) == 0.0
        leading = -1e4 + 1.5 * math.log(1e4) - math.lgamma(2.5)
        assert_allclose(log_gammaincc(2.5, 1e4), leading, rtol=1e-6)
        assert scipy.special.betainc(50.0, 2.5, 1e-8) == 0.0
        assert_allclose(
            log_betainc(50.0, 2.5, 1e-8),
            50.0 * math.log(1e-8) - math.log(50.0) - scipy.special.betaln(50.0, 2.5),
            rtol=1e-8,
        )

    def test_library_value_elsewhere(self):
        assert log_gammaincc(2.5, 3.0) == math.log(scipy.special.gammaincc(2.5, 3.0))
        assert log_betainc(2.5, 1.5, 0.9) == math.log(scipy.special.betainc(2.5, 1.5, 0.9))
        assert log_gammaincc(2.5, 0.0) == 0.0 and log_gammaincc(2.5, math.inf) == -math.inf
        assert log_betainc(2.5, 1.5, 1.0) == 0.0 and log_betainc(2.5, 1.5, 0.0) == -math.inf

    def test_domain(self):
        for a, x in [(0.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, math.nan)]:
            with pytest.raises(DomainError):
                log_gammaincc(a, x)
        for a, b, x in [(0.0, 1.0, 0.5), (1.0, 0.0, 0.5), (1.0, 1.0, 1.5), (1.0, 1.0, -0.1)]:
            with pytest.raises(DomainError):
                log_betainc(a, b, x)

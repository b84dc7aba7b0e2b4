import math

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from misspec.errors import DomainError
from misspec.special import (
    StudentT,
    log_betainc,
    log_gammaincc,
    t_cdf,
    t_quantile,
)
from oracles import normal_quantile_bisect, t_cdf_quad, t_quantile_quad


class TestRegIncBeta:
    """The regularized incomplete beta I_x(a, b), through its log ``log_betainc``."""

    def test_symmetry_at_half(self):
        for a in (0.5, 1.0, 2.0, 7.0):
            assert_allclose(math.exp(log_betainc(a, a, 0.5)), 0.5, rtol=1e-12)

    def test_endpoints(self):
        for a in (0.01, 2.0, 50.0):
            for b in (0.5, 3.0, 1e3):
                assert log_betainc(a, b, 0.0) == -math.inf
                assert log_betainc(a, b, 1.0) == 0.0

    def test_uniform_case(self):
        assert_allclose(log_betainc(1.0, 1.0, 0.25), math.log(0.25), rtol=1e-14)

    def test_monotone_on_grid(self):
        # At a = 50 the grid crosses from the continued fraction, where the
        # library's value underflows, to the library's value.
        for a, b in ((2.5, 0.8), (50.0, 2.5)):
            vals = [log_betainc(a, b, x) for x in np.geomspace(1e-12, 1.0, 1000)]
            assert np.all(np.isfinite(vals)) and np.all(np.diff(vals) >= 0.0)

    def test_domain(self):
        for a, b, x in [(1.0, 1.0, 1.5), (-1.0, 1.0, 0.5), (1.0, 1.0, math.nan), (math.nan, 1.0, 0.5)]:
            with pytest.raises(DomainError):
                log_betainc(a, b, x)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dof", [0.2, 1.0, 3.0, 30.0])
    def test_far_tail_where_x_squared_overflows(self, dof):
        mpmath = pytest.importorskip("mpmath")
        dist = StudentT(dof)
        for x in (1e155, 1e200, 1e300):
            with mpmath.workdps(60):
                z = mpmath.mpf(dof) / (dof + mpmath.mpf(x) ** 2)
                tail = mpmath.betainc(mpmath.mpf(dof) / 2, 0.5, 0, z, regularized=True) / 2
                ref = [float(tail), float(1 - tail)]
            assert_allclose(t_cdf(dist, np.array([-x, x])), ref, rtol=1e-12, atol=0)
            assert_allclose([t_cdf(dist, -x), t_cdf(dist, x)], ref, rtol=1e-12, atol=0)
        assert t_cdf(dist, np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]
        assert (t_cdf(dist, -np.inf), t_cdf(dist, np.inf)) == (0.0, 1.0)

    @pytest.mark.parametrize("dof", [0.2, 1.0, 30.0])
    def test_finite_x_squared_keeps_the_incomplete_beta(self, dof):
        # Below 2^512, where x^2 is finite, the CDF is the incomplete beta's bits.
        xs = np.array([-np.nextafter(2.0**512, 0.0), -1e150, -3.5, 0.25, 1e100])
        tail = 0.5 * scipy.special.betainc(0.5 * dof, 0.5, dof / (dof + xs * xs))
        expected = np.where(xs >= 0.0, 1.0 - tail, tail)
        assert t_cdf(StudentT(dof), xs).tolist() == expected.tolist()


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

    def test_memo_returns_the_unmemoised_value_and_stays_bounded(self):
        from misspec import special

        special._t_quantile.cache_clear()
        for dof in (0.3, 1.0, 3, 7.5, 200.0):
            for q in (1e-10, 0.025, 0.5, 0.975, 1.0 - 1e-10):
                # The unmemoised quantile: stdtrit in the lower tail, reflected.
                x = 0.0 if q == 0.5 else -float(scipy.special.stdtrit(dof, min(q, 1.0 - q)))
                exact = (x if q >= 0.5 else -x).hex()
                assert t_quantile(StudentT(dof), q).hex() == exact  # computed
                assert t_quantile(StudentT(dof), q).hex() == exact  # from the memo
        assert special._t_quantile.cache_info().hits == 25
        maxsize = special._t_quantile.cache_info().maxsize
        assert maxsize is not None
        for i in range(maxsize + 10):
            t_quantile(StudentT(1.0 + i / 7.0), 0.975)
        assert special._t_quantile.cache_info().currsize == maxsize

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

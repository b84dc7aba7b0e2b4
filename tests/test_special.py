import math
import sys

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from misspec.errors import DomainError, ImproperPriorError, InputError
from misspec.montecarlo import run_tails
from misspec.special import (
    StudentT,
    _log_gamma_ratio,
    log_far_t_sq_tail,
    log_gamma_half_excess,
    t_cdf,
    t_quantile,
    t_sq_tail,
)
from misspec.priors import NormalRadial, PowerLawRadial, StudentTRadial
from oracles import normal_quantile_bisect, t_cdf_quad, t_quantile_quad

EPS = sys.float_info.epsilon


class TestRegIncBeta:
    """The regularized incomplete beta I_x(a, b) as the t family's tail I_x(dof/2, k/2), x = dof/(dof + s)."""

    def test_symmetry_at_half(self):
        # I_(1/2)(a, a) = 1/2: dof = k and s = dof.
        for k in range(1, 9):
            assert_allclose(math.exp(StudentTRadial(k).log_tail(float(k), k)), 0.5, rtol=1e-14)

    def test_endpoints(self):
        # s = 0 and s = inf are x = 1 and x = 0, for floats and inside arrays alike.
        for dof in (0.02, 4.0, 100.0, 1e300):
            family = StudentTRadial(dof)
            for k in (1, 2, 3, 6, 2001):
                assert (family.log_tail(0.0, k), family.log_tail(math.inf, k)) == (0.0, -math.inf)
                got = family.log_tail(np.array([0.0, 1.0, math.inf, math.nan]), k)
                assert got[[0, 2]].tolist() == [0.0, -math.inf] and math.isnan(got[3])
                assert got[1] == family.log_tail(1.0, k)

    def test_uniform_case(self):
        # I_x(1, 1) = x at dof = 2, k = 2; and I_x(1, 2) = x (2 - x) at k = 4.
        x = 2.0 / 5.0
        assert_allclose(StudentTRadial(2.0).log_tail(3.0, 2), math.log(x), rtol=1e-15)
        assert_allclose(StudentTRadial(2.0).log_tail(3.0, 4), math.log(x * (2.0 - x)), rtol=1e-15)

    def test_monotone_on_grid(self):
        # From SciPy's t CDF to the far start where I_x underflows: by the
        # power series at dof = 5 and also by BGRAT at dof = 1e4 and 1e12.
        s = np.geomspace(1e-2, 1e300, 1000)
        for dof in (5.0, 1e4, 1e12):
            for k in range(1, 9):
                vals = StudentTRadial(dof).log_tail(s, k)
                assert np.all(np.isfinite(vals)) and np.all(np.diff(vals) < 0.0), (dof, k)

    def test_domain(self):
        for dof in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InputError):
                StudentTRadial(dof)
        for k in (0, -1, 2**20 + 1):
            with pytest.raises(InputError):
                run_tails(StudentTRadial(3.0), [2.0], [1.0], [1.0], k=k)
        assert math.isnan(StudentTRadial(3.0).log_tail(math.nan, 5))


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
        # Below 2^512, where x^2 is finite, the CDF is the bits of SciPy's stdtr,
        # Boost's Student-t CDF on the incomplete beta I_z(dof/2, 1/2) at
        # z = dof/(dof + x^2), or where z > 2/3 on its complement.  At dof = 1
        # it is the Cauchy closed form, within an ulp of stdtr at these points.
        xs = np.array([-np.nextafter(2.0**512, 0.0), -1e150, -3.5, 0.25, 1e100])
        got, lib = t_cdf(StudentT(dof), xs), scipy.special.stdtr(dof, xs)
        if dof == 1.0:
            assert_allclose(got, lib, rtol=2.5e-16, atol=0)
        else:
            assert got.tolist() == lib.tolist()

    def test_cauchy_keeps_relative_accuracy_at_both_ends(self):
        # stdtr is 2.8e-11 relative off at x = +-1e-6 and 1.0 off (0) at -1e300.
        mpmath = pytest.importorskip("mpmath")
        xs = [1e-6, -1e-6, -1e-3, 0.5, -1e10, 1e300, -1e300]
        with mpmath.workdps(40):
            ref = [float(mpmath.atan2(1, -mpmath.mpf(x)) / mpmath.pi) for x in xs]
        assert_allclose(t_cdf(StudentT(1.0), np.array(xs)), ref, rtol=2.5e-16, atol=0)
        assert_allclose([t_cdf(StudentT(1.0), x) for x in xs], ref, rtol=2.5e-16, atol=0)


class TestTSqTail:
    """Pr{T^2 > s}, the two-sided t tail that ``t_cdf`` and the t family's k = 1 tail read."""

    @staticmethod
    def _mp_tail(dof, s):
        mpmath = pytest.importorskip("mpmath")
        return mpmath.betainc(dof / 2, 0.5, 0, dof / (dof + s), regularized=True)

    def test_matches_mpmath_to_a_few_ulps_of_its_conditioning(self):
        # Within 8 ulps times 1 + the condition number of the tail in (dof, s),
        # against 40-digit mpmath at dof <= 1000 and s from 1e-8 to 1e4.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(1)
        with mpmath.workdps(40):
            for _ in range(40):
                dof, s = 10.0 ** rng.uniform(-1.3, 3.0), 10.0 ** rng.uniform(-8.0, 4.0)
                got = t_sq_tail(dof, np.array([s]))[0]
                nu, sq = mpmath.mpf(dof), mpmath.mpf(s)
                ref = self._mp_tail(nu, sq)
                cond = (abs(sq * mpmath.diff(lambda q: self._mp_tail(nu, q), sq))
                        + abs(nu * mpmath.diff(lambda q: self._mp_tail(q, sq), nu))) / ref
                ulps = abs(mpmath.mpf(got) - ref) / math.ulp(float(ref))
                assert ulps <= 8.0 * (1.0 + cond), (dof, s)

    def test_student_t_k1_log_tail_reads_it(self):
        # The t family's k = 1 log tail at dof 24.85 and S = 0.951236, once 35-92
        # ulps off; now a few, what sqrt(S) and SciPy's stdtr round.
        mpmath = pytest.importorskip("mpmath")
        dof, s = 24.85, 0.951236
        got = StudentTRadial(dof).log_tail(s, 1)
        assert got == math.log(t_sq_tail(dof, np.array([s]))[0])
        with mpmath.workdps(40):
            ref = mpmath.log(self._mp_tail(mpmath.mpf(dof), mpmath.mpf(s)))
        assert abs(got - float(ref)) <= 4.0 * math.ulp(got)


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


def _mp_log_tail(family, s, k: int):
    """50-digit log tail, or None where mpmath's I_x(a, 1/2) or I_x(a, 1) is unusable.

    Normal: mpmath's upper incomplete gamma.  t: the start I_x(a, 1/2) (odd k)
    or x^a (even k) plus the positive terms of DLMF 8.17.20, where mpmath's
    I_x(a, 1/2) computes and its I_x(a, 1) agrees with the closed form x^a.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        s = mpmath.mpf(s)
        if isinstance(family, NormalRadial):
            return mpmath.log(mpmath.gammainc(mpmath.mpf(k) / 2, s / 2, mpmath.inf, regularized=True))
        nu = mpmath.mpf(family.dof)
        a, x = nu / 2, nu / (nu + s)
        try:
            half = mpmath.betainc(a, 0.5, 0, x, regularized=True)
            if abs(mpmath.betainc(a, 1, 0, x, regularized=True) / x**a - 1) > mpmath.mpf(10) ** -30:
                return None
        except (ValueError, mpmath.libmp.NoConvergence):
            return None
        b, total = (mpmath.mpf(0.5), half) if k % 2 else (mpmath.mpf(1), x**a)
        while b < mpmath.mpf(k) / 2:
            total += x**a * (1 - x) ** b / (b * mpmath.beta(a, b))
            b += 1
        return mpmath.log(total)


class TestLogIncomplete:
    """The radial log tails where the incomplete gamma and beta functions are and are not normal floats."""

    def test_gamma_sum_matches_library(self):
        # The normal family's tail, math.erfc's start plus positive terms, is Q(k/2, s/2).
        s = np.geomspace(1e-3, 1400.0, 40)
        for k in range(1, 9):
            want = scipy.special.gammaincc(0.5 * k, 0.5 * s)
            assert np.all(want >= sys.float_info.min)
            assert_allclose(NormalRadial().log_tail(s, k), np.log(want), rtol=1e-13, atol=4 * EPS)

    def test_beta_sum_matches_library(self):
        # The t family's tail is I_x(dof/2, k/2); at these dof SciPy's betainc
        # keeps about 1e-14 of the rounding of x.
        s = np.geomspace(1e-3, 1e6, 40)
        for dof in (0.2, 1.0, 3.0, 30.0):
            for k in range(1, 9):
                want = scipy.special.betainc(0.5 * dof, 0.5 * k, dof / (dof + s))
                normal = want >= sys.float_info.min
                got = StudentTRadial(dof).log_tail(s, k)
                assert_allclose(got[normal], np.log(want[normal]), rtol=1e-12, atol=4 * EPS)

    def test_finite_where_library_underflows(self):
        assert scipy.special.gammaincc(2.5, 1e4) == 0.0
        assert scipy.special.betainc(50.0, 2.5, 1e-8) == 0.0
        for family, s in ((NormalRadial(), 2e4), (StudentTRadial(100.0), 100.0 / 1e-8 - 100.0)):
            got = family.log_tail(s, 5)
            assert_allclose(got, float(_mp_log_tail(family, s, 5)), rtol=4 * EPS)

    def test_library_value_elsewhere(self):
        # Where neither underflows, the log tails are the logs of SciPy's values to a few ulps.
        assert_allclose(NormalRadial().log_tail(6.0, 5), math.log(scipy.special.gammaincc(2.5, 3.0)), rtol=4 * EPS)
        x = 0.9  # dof = 5, s = 5/9
        assert_allclose(
            StudentTRadial(5.0).log_tail(5.0 / 9.0, 3), math.log(scipy.special.betainc(2.5, 1.5, x)), rtol=1e-14
        )

    def test_domain(self):
        for k in (1, 2, 5):
            with pytest.raises(ImproperPriorError):
                PowerLawRadial(3.0).log_tail(1.0, k)
        with pytest.raises(InputError, match="at most"):
            run_tails(NormalRadial(), [2.0], [1.0], [1.0], k=2**21)

    @pytest.mark.parametrize("dof", [None, 0.2, 1.0, 3.0, 24.85, 1e3, 1e6, 1e12])
    def test_within_16_eps_of_mpmath(self, dof):
        # |error| <= 16 eps max(1, |log T|) at k = 1..8 against 50 digits, for
        # s from 1e-6 to 1e308; at dof 1e6 and 1e12 and s = 2000, where
        # x = dof/(dof + s) rounds towards 1, the tail is BGRAT's.
        family = NormalRadial() if dof is None else StudentTRadial(dof)
        s = [1e-6, 0.01, 1.0, 2.0, 10.0, 100.0, 2000.0, 1e50, 1e308]
        checked = 0
        for k in range(1, 9):
            got = family.log_tail(np.array(s), k)
            for value, cut in zip(got, s):
                ref = _mp_log_tail(family, cut, k)
                if ref is not None:
                    checked += 1
                    assert abs(value - float(ref)) <= 16 * EPS * max(1.0, abs(float(ref))), (k, cut)
        assert checked >= 8 * (len(s) - 1)

    @pytest.mark.parametrize("dof", [0.2, 3.0, 1e3])
    def test_sums_are_the_incomplete_beta(self, dof):
        # The start and the positive terms against mpmath's I_x(dof/2, k/2) itself.
        mpmath = pytest.importorskip("mpmath")
        family = StudentTRadial(dof)
        for k in range(1, 9):
            for s in (0.01, 2.0, 100.0, 1e8):
                with mpmath.workdps(50):
                    nu = mpmath.mpf(dof)
                    ref = mpmath.log(mpmath.betainc(nu / 2, mpmath.mpf(k) / 2, 0, nu / (nu + s), regularized=True))
                assert abs(family.log_tail(s, k) - float(ref)) <= 16 * EPS * max(1.0, abs(float(ref)))

    @pytest.mark.parametrize("dof", [1e20, 1e200, 1e308])
    def test_huge_dof_is_the_normal_family(self, dof):
        # x = dof/(dof + s) is 1 in float64; the tails at k = 1 are the normal family's.
        s = np.array([2000.0, 1e4])
        assert_allclose(StudentTRadial(dof).log_tail(s, 1), NormalRadial().log_tail(s, 1), rtol=1e-15, atol=0)
        for k in (3, 5, 8):
            assert_allclose(StudentTRadial(dof).log_tail(s, k), NormalRadial().log_tail(s, k), rtol=1e-14, atol=0)


class TestFarStart:
    """log I_x(a, 1/2) where I_x(a, 1/2) underflows, and log Gamma(a + 1/2) / Gamma(a)."""

    def test_half_excess_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for a in (0.01, 0.1, 0.5, 1.0, 3.0, 6.99, 7.0, 12.0, 50.0, 1e3, 1e8):
            with mpmath.workdps(60):
                m = mpmath.mpf(a)
                ref = mpmath.loggamma(m + 0.5) - mpmath.loggamma(m) - mpmath.log(m) / 2
            assert abs(log_gamma_half_excess(a) - float(ref)) <= 8 * EPS * max(1.0, abs(float(ref))), a

    @pytest.mark.parametrize("dof", [0.2, 1.0, 3.7, 13.98, 14.0, 25.3, 1e3, 1e10, 1e15, 1e100, 1e306, 1e308])
    def test_log_gamma_ratio_against_mpmath(self, dof):
        # Two lgammas of about a log a each cancelled (1.5e-5 off at dof 1e10, 0.92 at 1e15)
        # and overflowed above dof 5e305; 40 digits past the cancellation of the reference's own.
        mpmath = pytest.importorskip("mpmath")
        a = 0.5 * dof
        for m in (1, 2, 3, 4, 7, 10, 99, 100, 1000):
            with mpmath.workdps(40 + int(math.log10(a)) + 10):
                exact = mpmath.loggamma(mpmath.mpf(a) + mpmath.mpf(m) / 2) - mpmath.loggamma(a)
                ref, over = float(exact), float(exact - mpmath.mpf(m) / 2 * mpmath.log(a))
            assert abs(_log_gamma_ratio(a, m) - ref) <= 16 * EPS * max(1.0, abs(ref)), (a, m)
            # Over a^(m/2), with no (m/2) log a to cancel.
            assert abs(_log_gamma_ratio(a, m, over_power=True) - over) <= 16 * EPS * max(1.0, abs(over)), (a, m)

    @pytest.mark.parametrize("dof,s", [
        (24.85, 1e308), (1e3, 1e8), (3e3, 3e3), (3e3, 6e3),  # power series, x <= 1/2
        (3e3, 2.9e3), (1e4, 9e3), (1e5, 3e4), (1e6, 2000.0), (1e12, 2000.0),  # BGRAT, x > 1/2
    ])
    def test_far_start_against_mpmath(self, dof, s):
        # Within a few ulps of log I_x(a, 1/2), each an underflowing tail.
        mpmath = pytest.importorskip("mpmath")
        assert t_sq_tail(dof, np.array([s]))[0] < sys.float_info.min
        got = log_far_t_sq_tail(0.5 * dof, np.array([math.log1p(s / dof)]))[0]
        with mpmath.workdps(60):
            nu, sm = mpmath.mpf(dof), mpmath.mpf(s)
            ref = float(mpmath.log(mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + sm), regularized=True)))
        assert abs(got - ref) <= 4 * EPS * abs(ref)

    def test_cauchy_tail_is_closed_form(self):
        # At dof = 1 SciPy's stdtr was 1e5 ulps off at s = 1e-12.
        mpmath = pytest.importorskip("mpmath")
        s = np.array([0.0, 1e-12, 1e-6, 1.0, 1e6, 1e300, math.inf])
        got = t_sq_tail(1.0, s)
        for value, cut in zip(got, s):
            with mpmath.workdps(40):
                ref = 2 * mpmath.atan2(1, mpmath.sqrt(mpmath.mpf(cut))) / mpmath.pi
            assert abs(value - float(ref)) <= 4 * EPS * float(ref)

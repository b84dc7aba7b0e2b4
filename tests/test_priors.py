import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from numpy.testing import assert_allclose, assert_array_equal

from misspec.errors import ImproperPriorError, InputError, NumericalError
from misspec.model import ModelInstance, pseudo_true
from misspec.montecarlo import run_contamination, run_tails
from misspec.priors import (
    NormalRadial,
    PowerLawRadial,
    ScaledPrior,
    StudentTRadial,
    parse_radial,
    sample_eta,
)
from misspec._linalg import spd_factor
from oracles import (
    ETA_NORMAL,
    ETA_STUDENT_T,
    density,
    radial_cdf_grid,
    radial_normalizer_quad,
    random_spd,
    scalar_etas,
)


class TestParse:
    def test_round_trips(self):
        for text, cls in [("normal", NormalRadial), ("t:3", StudentTRadial), ("powerlaw:2.5", PowerLawRadial)]:
            fam = parse_radial(text)
            assert isinstance(fam, cls)
            assert parse_radial(fam.spec_string()).spec_string() == fam.spec_string()

    def test_bad_specs(self):
        for bad in ("gaussian", "t:", "t:x", "powerlaw:-1", "t:0"):
            with pytest.raises(InputError):
                parse_radial(bad)


class TestDensity:
    def test_rotation_invariance_axis_swap(self):
        prior = ScaledPrior(family=NormalRadial(), c=1.0, W=np.eye(2))
        assert density(prior, [1.0, 0.0]) == density(prior, [0.0, 1.0])

    def test_standard_normal_k1(self):
        prior = ScaledPrior(family=NormalRadial(), c=1.0, W=np.eye(1))
        assert_allclose(density(prior, [0.0]), 1.0 / math.sqrt(2.0 * math.pi), rtol=1e-14)

    def test_normal_matches_gaussian_formula(self):
        rng = np.random.default_rng(3)
        w = random_spd(rng, 3)
        c = 0.7
        prior = ScaledPrior(family=NormalRadial(), c=c, W=w)
        eta = rng.standard_normal(3)
        cov = c * np.linalg.inv(w)
        expected = math.exp(-0.5 * eta @ np.linalg.solve(cov, eta)) / math.sqrt(
            (2.0 * math.pi) ** 3 * np.linalg.det(cov)
        )
        assert_allclose(density(prior, eta), expected, rtol=1e-11)

    def test_student_normalizer_vs_radial_quadrature(self):
        k = 2
        nu = 3.0
        prior = ScaledPrior(family=StudentTRadial(nu), c=1.0, W=np.eye(k))
        f = lambda u: (1.0 + u / nu) ** (-0.5 * (nu + k))
        z_quad = radial_normalizer_quad(f, k)
        assert_allclose(density(prior, [0.0, 0.0]), 1.0 / z_quad, rtol=1e-8)

    def test_constant_on_ellipsoids(self):
        rng = np.random.default_rng(9)
        w = random_spd(rng, 3)
        prior = ScaledPrior(family=StudentTRadial(4.0), c=2.0, W=w)
        root_inv = np.linalg.inv(np.linalg.cholesky(w).T)
        for _ in range(50):
            z = rng.standard_normal(3)
            z /= np.linalg.norm(z)
            eta1 = root_inv @ z * 1.7
            z2 = rng.standard_normal(3)
            z2 /= np.linalg.norm(z2)
            eta2 = root_inv @ z2 * 1.7
            assert_allclose(density(prior, eta1), density(prior, eta2), rtol=1e-11)

    def test_rotation_invariance_random_rotations(self):
        rng = np.random.default_rng(21)
        w = random_spd(rng, 4)
        prior = ScaledPrior(family=StudentTRadial(5.0), c=0.5, W=w)
        from misspec._linalg import spd_factor

        wf = spd_factor(w)
        for _ in range(1000):
            eta = rng.standard_normal(4) * 2.0
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            eta_rot = wf.inv_root @ (q @ (wf.root @ eta))
            a, b = density(prior, eta), density(prior, eta_rot)
            assert abs(a - b) < 1e-12 * a

    def test_powerlaw_improper_contract(self):
        prior = ScaledPrior(family=PowerLawRadial(3.0), c=1.0, W=np.eye(2))
        with pytest.raises(ImproperPriorError):
            density(prior, [1.0, 1.0])
        val = density(prior, [1.0, 1.0], allow_unnormalized=True)
        assert_allclose(val, 2.0 ** (-3.0), rtol=1e-14)
        with pytest.raises(ImproperPriorError):
            sample_eta(prior, 1, 10)


class TestThinTails:
    def test_normal_ratio_vanishes(self):
        fam = NormalRadial()
        u = 1e6
        for a in (1.5, 2.0, 4.0):
            log_ratio = float(fam.log_f(a * u, 2) - fam.log_f(u, 2))
            assert log_ratio < -1e5

    def test_student_ratio_positive_limit(self):
        k = 2
        fam = StudentTRadial(3.0)
        u = 1e6
        for a in (1.5, 2.0, 4.0):
            ratio = math.exp(float(fam.log_f(a * u, k) - fam.log_f(u, k)))
            assert_allclose(ratio, a ** (-0.5 * (3.0 + k)), rtol=1e-3)
            assert ratio > 0.0

    def test_powerlaw_ratio_positive_limit(self):
        fam = PowerLawRadial(2.5)
        u = 1e6
        for a in (1.5, 2.0, 4.0):
            ratio = math.exp(float(fam.log_f(a * u, 2) - fam.log_f(u, 2)))
            assert_allclose(ratio, a ** (-2.5), rtol=1e-12)


class TestSampling:
    def test_normal_covariance(self):
        prior = ScaledPrior(family=NormalRadial(), c=1.0, W=np.eye(2))
        etas = sample_eta(prior, 101, 100_000)
        cov = etas.T @ etas / etas.shape[0]
        assert np.max(np.abs(cov - np.eye(2))) < 0.02

    def test_student_covariance_scale(self):
        nu = 5.0
        prior = ScaledPrior(family=StudentTRadial(nu), c=2.0, W=np.eye(2))
        etas = sample_eta(prior, 11, 200_000)
        cov = etas.T @ etas / etas.shape[0]
        assert np.max(np.abs(cov - 2.0 * nu / (nu - 2.0) * np.eye(2))) < 0.08

    def test_whitened_direction_uniform(self):
        rng = np.random.default_rng(4)
        w = random_spd(rng, 3)
        from misspec._linalg import spd_factor

        root = spd_factor(w).root
        for fam in (NormalRadial(), StudentTRadial(3.0)):
            prior = ScaledPrior(family=fam, c=1.0, W=w)
            etas = sample_eta(prior, 202, 100_000)
            white = etas @ root
            dirs = white / np.linalg.norm(white, axis=1, keepdims=True)
            assert np.linalg.norm(dirs.mean(axis=0)) < 0.02

    def test_deterministic(self):
        prior = ScaledPrior(family=StudentTRadial(3.0), c=1.0, W=np.eye(2))
        assert np.array_equal(sample_eta(prior, 7, 1000), sample_eta(prior, 7, 1000))

    def test_radial_ks_against_quadrature_cdf(self):
        k = 3
        for fam, f in [
            (NormalRadial(), lambda u: math.exp(-0.5 * u)),
            (StudentTRadial(4.0), lambda u: (1.0 + u / 4.0) ** (-0.5 * (4.0 + k))),
        ]:
            prior = ScaledPrior(family=fam, c=1.3, W=np.eye(k))
            etas = sample_eta(prior, 303, 100_000)
            r = np.sort(np.linalg.norm(etas, axis=1))
            grid = np.linspace(0.0, r[-1] * 1.05, 20_001)
            cdf_grid = radial_cdf_grid(f, k, 1.3, grid)
            cdf_at_r = np.interp(r, grid, cdf_grid)
            n = r.size
            i = np.arange(1, n + 1)
            ks = max(np.max(i / n - cdf_at_r), np.max(cdf_at_r - (i - 1) / n))
            assert ks < 0.01

    def test_bad_sample_size(self):
        prior = ScaledPrior(family=NormalRadial(), c=1.0, W=np.eye(2))
        with pytest.raises(InputError):
            sample_eta(prior, 1, 0)

    @pytest.mark.parametrize("n", [-3, 2.5, True, 10.0, "10"])
    def test_non_integer_sample_size_refused(self, n):
        prior = ScaledPrior(family=NormalRadial(), c=1.0, W=np.eye(2))
        with pytest.raises(InputError, match="sample size must be a positive integer"):
            sample_eta(prior, 1, n)

    @pytest.mark.parametrize("n", [2**25 + 1, 10**13])
    def test_oversized_sample_refused_before_allocating(self, n):
        # n k above 2**26 float64 values (512 MiB) is refused, not allocated.
        prior = ScaledPrior(family=NormalRadial(), c=1.0, W=np.eye(2))
        with pytest.raises(InputError, match="at most 33554432 for k=2"):
            sample_eta(prior, 1, n)

    @pytest.mark.parametrize(
        "family, code, nu", [(NormalRadial(), ETA_NORMAL, 0.0), (StudentTRadial(3.0), ETA_STUDENT_T, 3.0)]
    )
    def test_rows_are_the_kernel_replications(self, family, code, nu):
        # n crosses the kernels' 4096-replication block boundary.
        w = random_spd(np.random.default_rng(8), 3)
        prior = ScaledPrior(family=family, c=1.7, W=w)
        mix = math.sqrt(1.7) * spd_factor(w).inv_root
        assert np.array_equal(sample_eta(prior, 12, 4099), scalar_etas(12, 4099, code, nu, mix))

    def test_tiny_t_dof_rejected(self):
        prior = ScaledPrior(family=StudentTRadial(0.05), c=1.0, W=np.eye(2))
        with pytest.raises(InputError, match="at least 0.1037"):
            sample_eta(prior, 1, 10)

    @pytest.mark.parametrize("seed", [-1, 2**64, True, 1.0])
    def test_seed_outside_range_rejected(self, seed):
        prior = ScaledPrior(family=NormalRadial(), c=1.0, W=np.eye(2))
        with pytest.raises(InputError, match="seed"):
            sample_eta(prior, seed, 10)


def tail_ratio(family, a, tau, c, k=2):
    """Pr{||eta||_W >= a tau | ||eta||_W >= tau} at scale c: one row of ``run_tails``."""
    return float(run_tails(family, [a], [tau], [c], k=k)[0, 3])


class TestTailRatio:
    def test_student_limit(self):
        assert abs(tail_ratio(StudentTRadial(3.0), 2.0, 1.0, 1e-6) - 0.125) < 0.003

    def test_tau_free_limit(self):
        r1 = tail_ratio(StudentTRadial(3.0), 2.0, 1.0, 1e-6)
        r10 = tail_ratio(StudentTRadial(3.0), 2.0, 10.0, 1e-6)
        assert abs(r1 - r10) < 0.005

    def test_normal_negligible(self):
        assert tail_ratio(NormalRadial(), 2.0, 1.0, 1e-4) < 1e-6

    def test_continuity_at_one(self):
        assert abs(tail_ratio(StudentTRadial(3.0), 1.0 + 1e-9, 1.0, 1e-6) - 1.0) < 1e-6

    def test_moderate_c_against_direct_quadrature(self):
        import scipy.integrate as si

        k, nu, c = 2, 3.0, 0.3
        f = lambda r: r ** (k - 1) * (1.0 + (r * r / c) / nu) ** (-0.5 * (nu + k))
        num = si.quad(f, 2.0, np.inf)[0]
        den = si.quad(f, 1.0, np.inf)[0]
        assert_allclose(tail_ratio(StudentTRadial(nu), 2.0, 1.0, c, k), num / den, rtol=1e-9)

    def test_input_errors(self):
        with pytest.raises(InputError):
            tail_ratio(NormalRadial(), 1.0, 1.0, 1.0)
        with pytest.raises(InputError):
            tail_ratio(NormalRadial(), 2.0, 0.0, 1.0)
        with pytest.raises(ImproperPriorError):
            tail_ratio(PowerLawRadial(3.0), 2.0, 1.0, 1.0)

    def test_degenerate_inputs_raise_numerical(self):
        with pytest.raises(NumericalError):
            tail_ratio(NormalRadial(), 2.0, 1e6, 1e-310)

    def test_t_tail_where_dof_over_dof_plus_s_underflows(self):
        # At dof = 1e-20 and s = 1e308, x = dof / (dof + s) underflows to 0.
        # 60-digit mpmath puts the tail at 1 - 3.78e-18 (k = 1, 2 and 5 alike
        # to that precision) and the ratio at a = 1.0001 at 1 - 1.0e-24: both
        # 1.0 in float64.
        family = StudentTRadial(1e-20)
        for k in (1, 2, 5):
            assert math.exp(family.log_tail(1e154 * 1e154, k)) == 1.0
            assert tail_ratio(family, 1.0001, 1e154, 1.0, k) == 1.0
        # k = 2 in closed form: -(dof/2) (log s - log dof), mpmath -3.7762395525102e-18,
        # on a float and on an array alike.
        assert_allclose(family.log_tail(1e154 * 1e154, 2), -3.7762395525102e-18, rtol=1e-13)
        s = np.array([1.0, 1e308])
        assert_array_equal(family.log_tail(s, 2), [family.log_tail(v, 2) for v in (1.0, 1e308)])

    @pytest.mark.parametrize("c", [1e-12, 1e-6, 1e-2, 1.0])
    @pytest.mark.parametrize("a", [1.0 + 1e-7, 1.5, 4.0])
    @pytest.mark.parametrize("tau", [1.0, 10.0])
    def test_k2_exact_forms(self, c, a, tau):
        # In two dimensions s = ||eta||_W^2 / c has survival exp(-s/2) under
        # the normal family and (1 + s/dof)^(-dof/2) under t:dof.
        s_lo = tau * tau / c
        s_hi = a * a * s_lo
        assert_allclose(tail_ratio(NormalRadial(), a, tau, c), math.exp(-0.5 * (s_hi - s_lo)), rtol=1e-8)
        for nu in (1.0, 3.0, 1000.0):
            exact = ((nu + s_lo) / (nu + s_hi)) ** (0.5 * nu)
            assert_allclose(tail_ratio(StudentTRadial(nu), a, tau, c), exact, rtol=1e-8)

    def test_normal_k1_is_two_sided_normal_tail(self):
        for s in [1e-4, 1.0, 30.0, 1e3, 1e4, 1e8]:
            expected = math.log(2.0) + float(scipy.special.log_ndtr(-math.sqrt(s)))
            assert_allclose(NormalRadial().log_tail(s, 1), expected, rtol=1e-13)

    def test_t1000_where_betainc_underflows(self):
        family = StudentTRadial(1000.0)
        for s in [1e4, 1e6, 1e12]:
            assert scipy.special.betainc(500.0, 1.0, 1000.0 / (1000.0 + s)) == 0.0
            exact = 500.0 * math.log(1000.0 / (1000.0 + s))
            assert_allclose(family.log_tail(s, 2), exact, rtol=1e-13)

    def test_improper_family_has_no_tail(self):
        with pytest.raises(ImproperPriorError):
            PowerLawRadial(3.0).log_tail(1.0, 2)


class TestLogEvidence:
    @staticmethod
    def _model(k):
        rng = np.random.default_rng(k)
        w = random_spd(rng, k)
        return rng.standard_normal(k), rng.standard_normal(k), w

    @pytest.mark.parametrize(
        "family", [NormalRadial(), StudentTRadial(3.0), StudentTRadial(0.7)], ids=str
    )
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("c", [0.3, 1.0, 5.0])
    def test_matches_quadrature_over_theta(self, family, k, c):
        # The prior density of y - x theta, integrated over a flat theta, is the
        # evidence times |W|^(1/2) |x'Wx|^(-1/2).
        y, x, w = self._model(k)
        prior = ScaledPrior(family=family, c=c, W=w)
        h = float(x @ w @ x)
        theta_w = float(x @ w @ y) / h
        j = float((y - x * theta_w) @ w @ (y - x * theta_w))
        quad = scipy.integrate.quad(
            lambda t: density(prior, y - x * t),
            -np.inf, np.inf, points=None, epsabs=0.0, epsrel=1e-13, limit=400,
        )[0]
        log_det_w = float(np.linalg.slogdet(w)[1])
        got = family.log_evidence(c, j, k, 1) + 0.5 * log_det_w - 0.5 * math.log(h)
        assert_allclose(got, math.log(quad), rtol=1e-13, atol=1e-14)

    def test_t_tends_to_normal(self):
        want = NormalRadial().log_evidence(0.5, 2.0, 4, 1)
        assert_allclose(StudentTRadial(1e8).log_evidence(0.5, 2.0, 4, 1), want, rtol=1e-7)

    @pytest.mark.parametrize("family", [NormalRadial(), StudentTRadial(3.0)], ids=str)
    def test_extreme_scales_stay_in_range(self, family):
        # J / c overflows, and c dof underflows; the t evidence stays finite.
        for c in (5e-324, 1e-300, 1e300):
            value = family.log_evidence(c, 2.0, 4, 1)
            assert value < math.inf and (value > -math.inf or family == NormalRadial())

    def test_improper_family_has_none(self):
        with pytest.raises(ImproperPriorError):
            PowerLawRadial(3.0).log_evidence(1.0, 2.0, 4, 1)

    @pytest.mark.parametrize("dof", [3.0, 13.9, 14.0, 50.0, 1e6, 1e10, 1e15, 1e100, 1e300, 1e308])
    def test_huge_dof_against_mpmath(self, dof):
        # tests/golden/m1.json at c = 1e-2.  A softplus of log(J / (c dof)) carried its
        # rounding, times dof / 2, into the evidence (1.47e-11 off at dof 1e300, 4.5e-13
        # at 1e15), and (k - p)/2 log(pi dof) cancelled the Gamma ratio's (k - p)/2 log a.
        mpmath = pytest.importorskip("mpmath")
        fields = json.loads((Path(__file__).parent / "golden" / "m1.json").read_text(encoding="utf-8"))
        model = ModelInstance(Y=fields["Y"], X=fields["X"], W=fields["W"])
        j, c, m = pseudo_true(model).j_stat, 1e-2, model.k - model.p
        with mpmath.workdps(400):
            nu, cc, jj = mpmath.mpf(dof), mpmath.mpf(c), mpmath.mpf(j)
            ref = float(
                -mpmath.mpf(m) / 2 * mpmath.log(mpmath.pi * nu * cc)
                - (nu + m) / 2 * mpmath.log1p(jj / (cc * nu))
                + mpmath.loggamma(nu / 2 + mpmath.mpf(m) / 2)
                - mpmath.loggamma(nu / 2)
            )
        if dof == 1e300:
            assert ref == -274.69824678337187
        got = StudentTRadial(dof).log_evidence(c, j, model.k, model.p)
        assert abs(got - ref) <= 4 * np.finfo(float).eps * abs(ref), (got, ref)

    @pytest.mark.parametrize(
        "dof, c, j, k, p",
        [
            # c dof overflows; a softplus of log(J / (c dof)) was 874 and 808 ulps off.
            (4.4220017304182504e303, 2.1110449841754833e60, 1.5271349204375435e244, 3, 1),
            (2.6728284742571416e293, 1.0035258958533588e228, 4.316045450376786e233, 7, 4),
            (1e300, 1e100, 1e250, 4, 1),  # the ratio through J / c
            (1e-5, 1e-305, 1e-300, 3, 1),  # c dof underflows
        ],
    )
    def test_ratio_past_an_overflowing_c_dof_against_mpmath(self, dof, c, j, k, p):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(700):
            nu, cc, jj, m = mpmath.mpf(dof), mpmath.mpf(c), mpmath.mpf(j), mpmath.mpf(k - p)
            ref = float(
                -m / 2 * mpmath.log(mpmath.pi * nu * cc)
                - (nu + m) / 2 * mpmath.log1p(jj / (cc * nu))
                + mpmath.loggamma((nu + m) / 2)
                - mpmath.loggamma(nu / 2)
            )
        got = StudentTRadial(dof).log_evidence(c, j, k, p)
        assert abs(got - ref) <= 4 * np.finfo(float).eps * abs(ref), (got, ref)


@pytest.mark.parametrize("dof", [1e15, 1e100, 1e200, 1e300, 1e308])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_t_ball_integral_at_huge_dof_against_mpmath(dof, k):
    # -log Gamma(a + k/2) / Gamma(a) + (k/2) log(pi dof) cancelled two terms of
    # about (k/2) log a: 1.2e-13 absolute off at dof 1e300, k = 3.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(400):
        nu, half = mpmath.mpf(dof), mpmath.mpf(k) / 2
        ref = float(-mpmath.loggamma(nu / 2 + half) + mpmath.loggamma(nu / 2) + half * mpmath.log(mpmath.pi * nu))
    got = StudentTRadial(dof).log_ball_integral(k)
    assert abs(got - ref) <= 4 * np.finfo(float).eps * abs(ref), (got, ref)


class TestContaminated:
    """Contaminated priors (1 - phi) base + phi contaminant, as the contamination sweep takes them."""

    MODEL = ModelInstance(Y=[0.0, 2.0], X=[[1.0], [1.0]], W=np.eye(2))

    def test_phi_bounds(self):
        contam = ScaledPrior(family=NormalRadial(), c=4.0, W=np.eye(2))
        for phi in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(InputError, match="phi"):
                run_contamination(self.MODEL, NormalRadial(), contam, phi, [1.0])

    def test_contaminant_weight_must_match_base(self):
        for w in (2.0 * np.eye(2), np.eye(3)):
            contam = ScaledPrior(family=NormalRadial(), c=4.0, W=w)
            with pytest.raises(InputError, match="contaminant weighting matrix"):
                run_contamination(self.MODEL, NormalRadial(), contam, 0.5, [1.0])

    def test_builtin_contaminant_integrates_to_one(self):
        # Quadrature spot-check of the normalization promised by callers.
        k = 2
        contam = ScaledPrior(family=StudentTRadial(3.0), c=2.0, W=np.eye(k))
        mass = radial_normalizer_quad(
            lambda u: density(contam, np.array([math.sqrt(u), 0.0])), k
        )
        assert_allclose(mass, 1.0, rtol=1e-8)

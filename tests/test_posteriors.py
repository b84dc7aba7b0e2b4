import math
import pickle
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from misspec.errors import (
    DegenerateLimitError,
    InputError,
    ModelValidationError,
    NumericalError,
)
from misspec.model import ModelInstance, pseudo_true
from misspec.montecarlo import run_concentration
from misspec.posteriors import (
    ClosedFormPosterior,
    MixturePosterior,
    ThetaPrior,
    closed_form_posterior,
    mass_outside_ball,
    normal_posterior,
    tv_distance,
)
from misspec.priors import (
    NormalRadial,
    PowerLawRadial,
    ScaledPrior,
    StudentTRadial,
)
from oracles import (
    grid_posterior,
    log_radial,
    mixture_log_radial,
    radial_pdf,
    random_spd,
    tv_distance_quad,
)


def _grid_for(model, prior, sd, points=2001, width=8.0):
    center = pseudo_true(model).theta_w[0]
    return grid_posterior(
        model, log_radial(prior), bounds=[(center - width * sd, center + width * sd)], points=points
    )


class TestNormalPosterior:
    def test_canonical(self, canon_model):
        post = normal_posterior(canon_model, 0.5)
        assert post.dof is None
        assert_allclose(post.center, [1.0])
        assert_allclose(post.scale, [[0.25]])

    def test_variance_linear_in_c(self, canon_model):
        vars_ = [normal_posterior(canon_model, c).scale[0, 0] for c in (1.0, 0.1, 0.01)]
        assert_allclose(vars_, [0.5, 0.05, 0.005], rtol=1e-12)

    def test_mean_is_pseudo_true_for_all_c(self, canon_model):
        pt = pseudo_true(canon_model)
        for c in (1.0, 0.37, 1e-4):
            assert_allclose(normal_posterior(canon_model, c).center, pt.theta_w)


class TestTLimitPosterior:
    def test_canonical(self, canon_model):
        post = closed_form_posterior(canon_model, StudentTRadial(3.0), 0.0)
        assert post.dof == 4.0
        assert_allclose(post.center, [1.0], atol=1e-14)
        assert_allclose(post.scale, [[0.25]], rtol=1e-14)

    def test_overidentification_thins_tails(self):
        # k - p = 5 with dof_tilde = 3 gives posterior dof 8.
        x = np.ones((6, 1))
        y = np.array([1.0, -1.0, 2.0, 0.0, 3.0, 1.0])
        m = ModelInstance(Y=y, X=x, W=np.eye(6))
        assert closed_form_posterior(m, StudentTRadial(3.0), 0.0).dof == 8.0

    def test_scale_grows_with_j(self, canon_model):
        base = closed_form_posterior(canon_model, StudentTRadial(3.0), 0.0)
        pt = pseudo_true(canon_model)
        resid = canon_model.Y - canon_model.X @ pt.theta_w
        doubled = ModelInstance(
            Y=canon_model.X @ pt.theta_w + 2.0 * resid, X=canon_model.X, W=canon_model.W
        )
        quad = closed_form_posterior(doubled, StudentTRadial(3.0), 0.0)
        assert_allclose(quad.scale, 4.0 * base.scale, rtol=1e-12)

    def test_degenerate_j(self, exactfit_model):
        with pytest.raises(DegenerateLimitError):
            closed_form_posterior(exactfit_model, StudentTRadial(3.0), 0.0)

    def test_positive_c_needs_no_positive_j(self):
        # At c > 0 the scale is c dof + J, not J alone, even where it rounds to J:
        # here J is float noise, about 2e-34, of a fit that is exact in exact arithmetic.
        noisy = ModelInstance(Y=[0.1, 0.3], X=[[1.0], [3.0]], W=np.eye(2))
        pt = pseudo_true(noisy)
        assert 1e-300 * 3.0 + pt.j_stat == pt.j_stat
        post = closed_form_posterior(noisy, StudentTRadial(3.0), 1e-300)
        assert post.dof == 4.0 and np.all(np.isfinite(post.scale))

    @pytest.mark.parametrize("dof", [math.inf, 0.0])
    def test_dof_must_be_positive_and_finite(self, dof):
        # An infinite dof used to give a NaN density and sd.
        with pytest.raises(InputError, match="dof"):
            ClosedFormPosterior(center=[1.0], scale=[[0.25]], dof=dof)


class TestPowerLawPosterior:
    def test_canonical(self, canon_model):
        post = closed_form_posterior(canon_model, PowerLawRadial(3.0), 1.0)
        assert post.dof == 5.0
        assert_allclose(post.scale, [[0.2]], rtol=1e-14)

    def test_half_k_matches_ci_kernel(self, canon_model):
        # alpha = k/2 yields dof = k - p and scale J (X'WX)^{-1} / (k - p).
        post = closed_form_posterior(canon_model, PowerLawRadial(1.0), 1.0)
        assert post.dof == 1.0
        assert_allclose(post.scale, [[2.0 * 0.5 / 1.0]], rtol=1e-14)

    def test_parameter_guard(self, canon_model):
        with pytest.raises(InputError):
            closed_form_posterior(canon_model, PowerLawRadial(0.4), 1.0)

    def test_degenerate_j(self, exactfit_model):
        with pytest.raises(DegenerateLimitError):
            closed_form_posterior(exactfit_model, PowerLawRadial(3.0), 1.0)


class TestGridPosterior:
    def test_normal_grid_matches_closed_form(self, canon_model):
        c = 0.5
        post = _grid_for(canon_model, ScaledPrior(family=NormalRadial(), c=c, W=np.eye(2)), sd=0.5)
        oracle = normal_posterior(canon_model, c).density(post.points())
        assert np.max(np.abs(post.density - oracle)) < 1e-6

    def test_t_grid_matches_limit_at_tiny_c(self, canon_model):
        prior = ScaledPrior(family=StudentTRadial(3.0), c=1e-8, W=np.eye(2))
        limit = closed_form_posterior(canon_model, StudentTRadial(3.0), 0.0)
        sd = math.sqrt(limit.scale[0, 0] * limit.dof / (limit.dof - 2.0))
        post = _grid_for(canon_model, prior, sd=sd)
        oracle = limit.density(post.points())
        oracle = oracle / np.sum(post.cell * oracle)
        assert np.max(np.abs(post.density - oracle)) < 2e-4

    def test_powerlaw_grid_c_free(self, canon_model):
        posts = [
            _grid_for(
                canon_model,
                ScaledPrior(family=PowerLawRadial(3.0), c=c, W=np.eye(2)),
                sd=0.5,
            )
            for c in (1.0, 100.0)
        ]
        assert np.max(np.abs(posts[0].density - posts[1].density)) < 1e-12

    @pytest.mark.parametrize(
        "mean, sd, name",
        [([0.0], math.nan, "sd"), ([0.0], math.inf, "sd"), ([0.0], -1.0, "sd"),
         ([math.nan, 0.0], 1.0, "mean"), ([0.0, -math.inf], 1.0, "mean")],
    )
    def test_gaussian_theta_prior_rejects_nonfinite(self, mean, sd, name):
        with pytest.raises(InputError, match=f"requires a (positive )?finite {name}"):
            ThetaPrior.gaussian(mean, sd)

    def test_extreme_scale_survives_via_log_space(self, canon_model):
        # Max-subtraction keeps even c = 1e-300 evaluable: the posterior is a
        # point mass at the grid point nearest the optimum.
        prior = ScaledPrior(family=NormalRadial(), c=1e-300, W=np.eye(2))
        post = grid_posterior(canon_model, log_radial(prior), bounds=[(0.99, 1.013)], points=31)
        best = post.axes[0][np.argmax(post.density)]
        assert abs(best - 1.0) <= np.diff(post.axes[0])[0]

    def test_two_dimensional_grid(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, 2.0, 2.0])
        m = ModelInstance(Y=y, X=x, W=np.eye(3))
        prior = ScaledPrior(family=NormalRadial(), c=0.8, W=np.eye(3))
        cf = normal_posterior(m, 0.8)
        bounds = [(t - 12.0 * s, t + 12.0 * s) for t, s in zip(cf.center, cf.marginal_sd())]
        post = grid_posterior(m, log_radial(prior), bounds=bounds, points=201)
        grid_mean = post.mean()
        assert_allclose(grid_mean, cf.center, atol=1e-6)
        assert_allclose(np.sum(post.weights), 1.0, atol=1e-10)
        assert np.max(np.abs(post.sd() - cf.marginal_sd())) < 1e-3

    def test_total_grid_size_capped(self):
        # The sweeps' grid_points keyword sizes nothing, but is still capped
        # just above 2001**2 points.
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        m = ModelInstance(Y=[1.0, 2.0, 2.0], X=x, W=np.eye(3))
        with pytest.raises(InputError, match="exceeds"):
            run_concentration(m, NormalRadial(), [0.8], [0.1], grid_points=(2002, 2001))

    @pytest.mark.parametrize("points", [2.9, 1, (201, 3.5), (201,)])
    def test_point_counts_not_truncated(self, points):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        m = ModelInstance(Y=[1.0, 2.0, 2.0], X=x, W=np.eye(3))
        with pytest.raises(InputError, match="integer"):
            run_concentration(m, NormalRadial(), [0.8], [0.1], grid_points=points)

    def test_sd_keeps_precision_at_tiny_c(self):
        # sd is about 1e-4 while theta_W is about (11.3, 7.9): E[theta^2] - mean^2
        # would cancel most of the digits.
        m = ModelInstance(
            Y=[9.0, 11.0, 10.5, 30.0],
            X=[[1.0, 0.5], [1.0, -0.5], [0.3, 1.0], [1.0, 2.0]],
            W=np.eye(4),
        )
        c = 1e-8
        exact = normal_posterior(m, c).marginal_sd()
        bounds = [(t - 18.0 * s, t + 18.0 * s) for t, s in zip(pseudo_true(m).theta_w, exact)]
        prior = ScaledPrior(family=NormalRadial(), c=c, W=np.eye(4))
        post = grid_posterior(m, log_radial(prior), bounds=bounds, points=201)
        assert_allclose(post.sd(), exact, rtol=1e-7)


class TestMassOutsideBall:
    def test_wide_ball_trivial(self):
        post = ClosedFormPosterior(center=[1.0], scale=[[0.25]])
        assert mass_outside_ball(post, [1.0], 10.0) < 1e-10

    def test_two_sigma_ball(self):
        post = ClosedFormPosterior(center=[1.0], scale=[[0.25]])
        expect = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(1.96 / math.sqrt(2.0))))
        assert_allclose(mass_outside_ball(post, [1.0], 0.98), expect, rtol=1e-10)

    def test_grid_agrees_with_closed_form(self, canon_model):
        # Grid summation is all-or-nothing per point, so agreement improves
        # at the cell-resolution rate as the grid refines.
        c = 0.5
        cf = normal_posterior(canon_model, c)
        errs = []
        for points in (2001, 20001):
            post = _grid_for(
                canon_model,
                ScaledPrior(family=NormalRadial(), c=c, W=np.eye(2)),
                sd=0.5,
                width=10.0,
                points=points,
            )
            errs.append(
                max(
                    abs(post.mass_outside([1.0], eps) - mass_outside_ball(cf, [1.0], eps))
                    for eps in (0.3, 0.9, 2.0)
                )
            )
        assert errs[0] < 5e-3
        assert errs[1] < errs[0] / 5.0

    def test_student_closed_form(self, canon_model):
        post = closed_form_posterior(canon_model, StudentTRadial(3.0), 0.0)
        from oracles import t_cdf_quad

        s = math.sqrt(post.scale[0, 0])
        expect = 2.0 * (1.0 - t_cdf_quad(1.3 / s, post.dof))
        assert_allclose(mass_outside_ball(post, post.center, 1.3), expect, atol=1e-9)

    def test_gaussian_far_tail_keeps_relative_accuracy(self, canon_model):
        post = normal_posterior(canon_model, 0.5)
        sd = post.marginal_sd()[0]
        for z in (3.0, 8.0, 10.0, 20.0):
            mass = mass_outside_ball(post, post.center, z * sd)
            assert_allclose(mass, math.erfc(z / math.sqrt(2.0)), rtol=1e-12)

    def test_cauchy_far_tail_keeps_relative_accuracy(self, canon_model):
        post = closed_form_posterior(canon_model, PowerLawRadial(1.0), 1.0)  # p = 1, so dof = 1
        s = math.sqrt(post.scale[0, 0])
        for z in (1e4, 1e8):
            mass = mass_outside_ball(post, post.center, z * s)
            assert_allclose(mass, 2.0 / math.pi * math.atan(1.0 / z), rtol=1e-12)

    @pytest.mark.parametrize("dof", [None, 0.5, 3.0, 40.0])
    def test_isotropic_disc_tail_is_exact(self, dof):
        # With scale lam I the squared radius over lam is chi-square(2), or
        # 2 F(2, dof): Pr{||d|| > eps} = exp(-s/2), or (1 + s/dof)^(-dof/2), s = eps^2/lam.
        lam = 0.37
        post = ClosedFormPosterior(center=[1.0, -2.0], scale=lam * np.eye(2), dof=dof)
        # At dof 0.5, s = dof (target^-4 - 1) would overflow below about 1e-77.
        targets = (0.5, 1e-3, 1e-20, 1e-100, 1e-200) if dof != 0.5 else (0.5, 1e-3, 1e-20, 1e-70)
        for target in targets:
            if dof is None:
                s = -2.0 * math.log(target)
                expect = math.exp(-0.5 * s)
            else:
                s = dof * math.expm1(-2.0 / dof * math.log(target))
                expect = math.exp(-0.5 * dof * math.log1p(s / dof))
            mass = mass_outside_ball(post, post.center, math.sqrt(s * lam))
            assert_allclose(mass, expect, rtol=1e-12)

    @pytest.mark.parametrize("dof", [None, 1.0, 4.0])
    @pytest.mark.parametrize("eps", [0.2, 1.0, 3.0])
    def test_anisotropic_disc_matches_quadrature(self, dof, eps):
        from oracles import mass_outside_disc_quad

        scale = np.array([[0.8, -0.3], [-0.3, 0.25]])
        post = ClosedFormPosterior(center=[0.5, 0.1], scale=scale, dof=dof)
        expect = mass_outside_disc_quad(scale, dof, eps)
        assert_allclose(mass_outside_ball(post, post.center, eps), expect, rtol=1e-9)

    def test_disc_beyond_float_range_is_zero(self):
        post = ClosedFormPosterior(center=[0.0, 0.0], scale=np.diag([1.0, 1e-4]))
        assert mass_outside_ball(post, post.center, 40.0) == 0.0
        assert mass_outside_ball(post, post.center, 1e200) == 0.0

    def test_scale_whose_doubled_entries_overflow(self):
        # 0.5 (a + a') would overflow at entries above 2^1023; the warning is an error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            post = ClosedFormPosterior(center=[0.0], scale=[[1e308]])
            assert mass_outside_ball(post, [0.0], 1.0) == 1.0

    @staticmethod
    def _closed_or_mixture(kind, center, scale):
        # A mixture reaches the refusals through its components' paths.
        post, wide = (ClosedFormPosterior(center, f * scale, log_evidence=-f) for f in (1.0, 2.0))
        return MixturePosterior(base=post, contaminant=wide, phi=0.1) if kind == "mixture" else post

    @pytest.mark.parametrize("kind", ["closed_form", "mixture"])
    def test_p_above_two_rejected(self, kind):
        post = self._closed_or_mixture(kind, np.zeros(3), np.eye(3))
        with pytest.raises(InputError, match="p <= 2"):
            mass_outside_ball(post, np.zeros(3), 1.0)

    @pytest.mark.parametrize("kind", ["closed_form", "mixture"])
    def test_off_centre_disc_rejected(self, kind):
        post = self._closed_or_mixture(kind, np.array([0.5, 0.1]), np.eye(2))
        with pytest.raises(InputError, match="centred at the posterior centre"):
            mass_outside_ball(post, [0.5, 0.2], 1.0)

    def test_disc_that_never_converges_raises(self, monkeypatch):
        from misspec import posteriors

        monkeypatch.setattr(posteriors, "_MAX_ANGULAR_NODES", 16)
        post = ClosedFormPosterior(center=[0.0, 0.0], scale=np.diag([1.0, 1e-6]))
        with pytest.raises(NumericalError, match="did not converge"):
            mass_outside_ball(post, post.center, 1.0)

    def test_head_nodes_are_read_only_and_deep_levels_come_in_chunks(self, monkeypatch):
        # The head's 128 cos^2 nodes are one read-only module array, the same for every
        # posterior.  A scale of condition number 1e9 takes the integral past 2^19 nodes,
        # computed at most _ANGULAR_CHUNK at a time.
        from misspec import posteriors

        head = posteriors._HEAD_COS2
        assert not head.flags.writeable
        assert_array_equal(head, np.cos(np.pi / 128 * np.arange(128)) ** 2)
        levels, widths = [], []
        nodes = posteriors._cos2_nodes

        def record(n, *rest):
            out = nodes(n, *rest)
            levels.append(n)
            widths.append(out.size)
            return out

        monkeypatch.setattr(posteriors, "_cos2_nodes", record)
        post = ClosedFormPosterior(center=[0.0, 0.0], scale=np.diag([1.0, 1e-9]), dof=0.5)
        mass = mass_outside_ball(post, post.center, 0.1)
        assert 0.0 < mass < 1.0
        assert max(levels) >= 2**19
        assert max(widths) == posteriors._ANGULAR_CHUNK

    def test_far_tail_stops_at_its_terms_rounding(self, monkeypatch):
        # At a peak log tail of -305.26 each term's exponent carries about 305 eps of
        # rounding; a stop at 4 ulps of the mean ran to 8192 nodes here for the same bits.
        from misspec import posteriors
        from oracles import ball_mass_trapezoid_mp

        levels = []
        nodes = posteriors._cos2_nodes
        monkeypatch.setattr(
            posteriors, "_cos2_nodes", lambda n, *rest: levels.append(n) or nodes(n, *rest)
        )
        lam = (4.022639055733796e-06, 1.637933881771168e-05)
        post = ClosedFormPosterior(center=[0.0, 0.0], scale=np.diag(lam))
        mass = mass_outside_ball(post, post.center, 0.1)
        assert 2 * max(levels) <= 256
        assert_allclose(mass, ball_mass_trapezoid_mp(*lam, 0.1, None, 512), rtol=1e-13)

    def test_concentration_sweep_monotone(self, canon_model):
        masses = [
            mass_outside_ball(normal_posterior(canon_model, c), [1.0], 0.25)
            for c in (1.0, 0.1, 0.01, 0.001)
        ]
        assert all(a > b for a, b in zip(masses, masses[1:]))
        assert masses[-1] < 1e-10


class TestBayesActions:
    """The quadratic-loss Bayes action, the posterior mean, as the concentration sweep records it."""

    def test_gaussian_mean(self, mean3_model):
        trace = run_concentration(mean3_model, NormalRadial(), [1e-2, 1.0, 1e2], [0.1])
        assert_allclose(trace.metrics["bayes_action"], [2.0, 2.0, 2.0], rtol=1e-15)

    def test_grid_symmetric_about_pseudo_true(self, canon_model):
        post = _grid_for(canon_model, ScaledPrior(family=NormalRadial(), c=0.5, W=np.eye(2)), sd=0.5)
        trace = run_concentration(canon_model, NormalRadial(), [0.5], [0.1])
        assert_allclose(post.mean(), trace.metrics["bayes_action"], atol=1e-10)

    def test_t_posterior_mean_requires_dof(self, canon_model):
        # Power law alpha: posterior dof 2 alpha - p, so 1 at alpha = 1 (no mean).
        for alpha, has_mean in ((1.0, False), (1.0 + 1e-9, True)):
            trace = run_concentration(canon_model, PowerLawRadial(alpha), [1.0], [0.1])
            assert np.isnan(trace.metrics["bayes_action"][0]) != has_mean

class TestClosedFormTvDistance:
    # (dof, scale) pairs sharing a centre, with the number of times their
    # densities cross on each side of it.
    PAIRS = {
        "normal-normal": ((None, 1.0), (None, 2.0), 1),
        "normal-t5": ((None, 1.0), (5.0, 1.0), 1),
        "t1-normal": ((1.0, 0.3), (None, 1.0), 2),
        "t3-t3": ((3.0, 0.5), (3.0, 1.5), 1),
        "t3-t30": ((3.0, 0.7), (30.0, 1.0), 2),
        "t3-t30-one": ((3.0, 1.0), (30.0, 1.0), 1),
    }

    @staticmethod
    def _closed_and_pdf(dof, scale, center=0.25):
        post = ClosedFormPosterior(center=[center], scale=[[scale * scale]], dof=dof)
        dist = stats.norm(0.0, scale) if dof is None else stats.t(dof, 0.0, scale)
        return post, dist.pdf

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_matches_quadrature(self, pair):
        spec_a, spec_b, crossings = self.PAIRS[pair]
        a, pdf_a = self._closed_and_pdf(*spec_a)
        b, pdf_b = self._closed_and_pdf(*spec_b)
        want, found = tv_distance_quad(pdf_a, pdf_b, 1.0)
        assert found == crossings
        assert_allclose(tv_distance(a, b), want, rtol=1e-10)
        assert_allclose(tv_distance(b, a), want, rtol=1e-10)

    @pytest.mark.parametrize("dof", [None, 4.0])
    def test_identical_forms_are_zero(self, dof):
        a, _ = self._closed_and_pdf(dof, 0.8)
        assert tv_distance(a, a) == 0.0

    def test_huge_dof_is_the_normal_tv(self):
        # The t normaliser's two lgammas, about 1.7e16 each, cancelled: the TV read 0.0.
        a, b = ClosedFormPosterior([0.0], [[0.1]], dof=1e15), ClosedFormPosterior([0.0], [[0.2]])
        normal = tv_distance(ClosedFormPosterior([0.0], [[0.1]]), b)
        assert abs(tv_distance(a, b) - normal) <= 1e-12

    def test_scales_far_apart_are_one(self):
        a, _ = self._closed_and_pdf(None, 1e-150)
        b, _ = self._closed_and_pdf(3.0, 1e150)
        assert tv_distance(a, b) == 1.0

    # Crossings of the pairs that cross more often above p = 2 than PAIRS says.
    CROSSINGS_ABOVE_2D = {"normal-t5": 2, "t3-t30-one": 2}

    def _check_radial_quadrature(self, pair, p):
        # Proportional, correlated scales: rho is measured in the norm of M.
        (dof_a, s_a), (dof_b, s_b), crossings = self.PAIRS[pair]
        if p == 2:
            m = np.array([[1.0, 0.4], [0.4, 2.5]])
        else:
            m = random_spd(np.random.default_rng(p), p)
            crossings = self.CROSSINGS_ABOVE_2D.get(pair, crossings)
        specs = ((dof_a, s_a), (dof_b, s_b))
        center = np.linspace(0.25, -1.0, p)
        a, b = (ClosedFormPosterior(center, s * s * m, dof) for dof, s in specs)
        want, found = tv_distance_quad(*(radial_pdf(dof, s, p) for dof, s in specs), 1.0, p=p)
        assert found == crossings
        assert_allclose(tv_distance(a, b), want, rtol=1e-10)
        assert_allclose(tv_distance(b, a), want, rtol=1e-10)

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_matches_radial_quadrature_2d(self, pair):
        self._check_radial_quadrature(pair, 2)

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_matches_radial_quadrature_above_2d(self, pair, p):
        self._check_radial_quadrature(pair, p)

    def test_two_2d_normals(self):
        h_inv = np.linalg.inv([[2.0, 0.3], [0.3, 1.0]])
        a, b = (ClosedFormPosterior([0.0, 0.0], c * h_inv) for c in (0.3, 1.7))
        # 30-digit mpmath quadrature in rho; a 2401^2 grid gives 0.5678742, within
        # its 5e-7 discretisation error.
        assert_allclose(tv_distance(a, b), 0.567873702013581240072, rtol=1e-14)

    def test_needs_one_centre_one_dimension_and_proportional_scales(self):
        a, _ = self._closed_and_pdf(None, 1.0)
        b, _ = self._closed_and_pdf(None, 1.0, center=0.5)
        with pytest.raises(InputError, match="one centre"):
            tv_distance(a, b)
        round_ = ClosedFormPosterior(center=[0.0, 0.0], scale=np.eye(2))
        oval = ClosedFormPosterior(center=[0.0, 0.0], scale=np.diag([1.0, 2.0]))
        with pytest.raises(InputError, match="proportional scales"):
            tv_distance(round_, oval)
        with pytest.raises(InputError, match="one dimension, got p = 1 and 2"):
            tv_distance(a, round_)
        ball = ClosedFormPosterior(center=np.zeros(3), scale=np.eye(3))
        egg = ClosedFormPosterior(center=np.zeros(3), scale=np.diag([1.0, 1.0, 2.0]))
        with pytest.raises(InputError, match="proportional scales"):
            tv_distance(ball, egg)


def _mixture(model, base_family, c, family, c_cont, phi):
    """The exact posterior under (1 - phi) base at c + phi contaminant at c_cont."""
    base, contam = (closed_form_posterior(model, f, s) for f, s in ((base_family, c), (family, c_cont)))
    return MixturePosterior(base=base, contaminant=contam, phi=phi)


class TestMixturePosterior:
    def test_weights_from_the_marginal_likelihoods(self, canon_model):
        # canon: k = 2, p = 1, J = 2, so log m = -1/c - log(2 pi c) / 2 for the normal.
        post = _mixture(canon_model, NormalRadial(), 0.5, NormalRadial(), 4.0, 0.25)
        log_m = [-1.0 / c - 0.5 * math.log(2.0 * math.pi * c) for c in (0.5, 4.0)]
        odds = 0.25 / 0.75 * math.exp(log_m[1] - log_m[0])
        assert_allclose(post.weights(), [1.0 / (1.0 + odds), odds / (1.0 + odds)], rtol=1e-14)
        assert_allclose(post.log_odds, math.log(odds), rtol=1e-14)

    def test_weights_do_not_cancel(self, canon_model):
        post = _mixture(canon_model, NormalRadial(), 1e-2, NormalRadial(), 4.0, 0.01)
        w_base, w_cont = post.weights()
        assert w_cont == 1.0 and 0.0 < w_base < 1e-40
        assert_allclose(math.log(w_base), -post.log_odds, rtol=1e-12)

    def test_float_noise_in_j_counts_as_zero(self):
        # J here is about 2e-34, float noise below the fit's noise floor; taken
        # at face value it would give the contaminant all the weight at c = 1e-40.
        noisy = ModelInstance(Y=[0.1, 0.3], X=[[1.0], [3.0]], W=np.eye(2))
        assert 0.0 < pseudo_true(noisy).j_stat <= pseudo_true(noisy).noise_floor
        post = _mixture(noisy, NormalRadial(), 1e-40, NormalRadial(), 4.0, 0.01)
        assert post.weights()[1] < 1e-20

    def test_mass_and_tv_are_the_weighted_components(self, canon_model):
        post = _mixture(canon_model, StudentTRadial(3.0), 0.3, NormalRadial(), 4.0, 0.2)
        w_base, w_cont = post.weights()
        assert 0.01 < w_cont < 0.99
        parts = [mass_outside_ball(q, [1.0], 0.5) for q in (post.base, post.contaminant)]
        assert_allclose(mass_outside_ball(post, [1.0], 0.5), w_base * parts[0] + w_cont * parts[1])
        assert_allclose(post.tv_to_contaminant(), w_base * tv_distance(post.base, post.contaminant))

    def test_pickled_posteriors_read_the_same_metrics(self, canon_model):
        # A closed form and a mixture each carry their path, log-evidence reader included.
        post = _mixture(canon_model, StudentTRadial(3.0), 0.3, NormalRadial(), 4.0, 0.2)
        back = pickle.loads(pickle.dumps(post))
        assert back.weights() == post.weights() and back.base.log_evidence == post.base.log_evidence
        assert mass_outside_ball(back, [1.0], 0.5) == mass_outside_ball(post, [1.0], 0.5)
        assert back.tv_to_contaminant() == post.tv_to_contaminant()

    def test_evidences_that_both_underflow(self, canon_model):
        # J / c overflows at both scales, so both normal evidences are -inf; the
        # larger c has the larger evidence.
        post = _mixture(canon_model, NormalRadial(), 1e-311, NormalRadial(), 1e-310, 0.5)
        assert post.base.log_evidence == post.contaminant.log_evidence == -math.inf
        assert post.weights() == (0.0, 1.0) and post.tv_to_contaminant() == 0.0

    def test_components_must_be_proper_mixable(self, canon_model):
        normal = closed_form_posterior(canon_model, NormalRadial(), 1.0)
        limit = closed_form_posterior(canon_model, StudentTRadial(3.0), 0.0)
        with pytest.raises(InputError, match="log evidence"):
            MixturePosterior(base=limit, contaminant=normal, phi=0.1)
        with pytest.raises(InputError, match="phi"):
            MixturePosterior(base=normal, contaminant=normal, phi=1.0)
        shifted = ModelInstance(Y=[1.0, 3.0], X=[[1.0], [1.0]], W=np.eye(2))
        other = closed_form_posterior(shifted, NormalRadial(), 1.0)
        with pytest.raises(InputError, match="centre"):
            MixturePosterior(base=normal, contaminant=other, phi=0.1)


class TestIllConditioned:
    def test_closed_form_names_the_condition_number(self):
        # X'WX has condition number about 8e12, beyond the 1e10 every posterior
        # scale is held to; the model itself passes validation.
        x = [[1.0, 1.0], [1.0, 1.0 + 1e-6], [1.0, 1.0 - 1e-6], [1.0, 1.0]]
        m = ModelInstance(Y=[0.3, 2.1, -0.7, 1.4], X=x, W=np.eye(4))
        with pytest.raises(ModelValidationError, match=r"X'WX has condition number [78]\.\d+e\+12.*1e\+10"):
            closed_form_posterior(m, NormalRadial(), 1e-2)


class TestFragility:
    def test_contaminated_posterior_collapses_to_contaminant(self, canon_model):
        contam = ScaledPrior(family=NormalRadial(), c=4.0, W=np.eye(2))
        axes = [np.linspace(1.0 - 12.0, 1.0 + 12.0, 2001)]
        pure = grid_posterior(canon_model, log_radial(contam), axes=axes)
        tvs = []
        for c in (1.0, 1e-2, 1e-6):
            base = ScaledPrior(family=NormalRadial(), c=c, W=np.eye(2))
            post = grid_posterior(canon_model, mixture_log_radial(base, contam, 0.01), axes=axes)
            tvs.append(post.tv(pure))
        assert tvs[0] > 0.1  # base component still visible at c = 1
        assert tvs[1] <= tvs[0] and tvs[2] <= tvs[1]
        assert tvs[2] < 0.05

    def test_exact_fit_concentrates_despite_contamination(self, exactfit_model):
        contam = ScaledPrior(family=NormalRadial(), c=4.0, W=np.eye(2))
        c = 1e-6
        sd = math.sqrt(c / 2.0)
        axis = np.unique(np.concatenate([
            np.linspace(3.0 - 12.0, 3.0 + 12.0, 1201),
            np.linspace(3.0 - 12 * sd, 3.0 + 12 * sd, 801),
        ]))
        base = ScaledPrior(family=NormalRadial(), c=c, W=np.eye(2))
        post = grid_posterior(exactfit_model, mixture_log_radial(base, contam, 0.01), axes=[axis])
        assert post.mass_outside([3.0], 0.05) < 0.01


def test_posterior_sd_helpers(canon_model):
    cf = normal_posterior(canon_model, 0.5)
    assert_allclose(cf.marginal_sd(), [0.5])
    tl = closed_form_posterior(canon_model, StudentTRadial(3.0), 0.0)
    assert_allclose(tl.marginal_sd(), [math.sqrt(0.25 * 2.0)])
    pl = closed_form_posterior(canon_model, PowerLawRadial(1.0), 1.0)
    assert np.isinf(pl.marginal_sd()[0])

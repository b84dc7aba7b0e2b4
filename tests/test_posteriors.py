import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from misspec.errors import (
    DegenerateLimitError,
    GridError,
    InputError,
    NumericalError,
)
from misspec.model import ModelInstance, pseudo_true
from misspec.posteriors import (
    ClosedFormPosterior,
    GridSpec,
    ThetaPrior,
    bayes_action_grid,
    bayes_action_quadratic,
    closed_form_posterior,
    grid_posterior,
    mass_outside_ball,
    normal_posterior,
    posterior_sd,
    tv_distance,
)
from misspec.posteriors import _grid_cell_weights
from misspec.priors import (
    ContaminatedPrior,
    NormalRadial,
    PowerLawRadial,
    ScaledPrior,
    StudentTRadial,
)


def _grid_for(model, prior, sd, points=2001, theta_prior=None, width=8.0):
    center = pseudo_true(model).theta_w[0]
    spec = GridSpec(bounds=[(center - width * sd, center + width * sd)], points=points)
    return grid_posterior(model, prior, theta_prior, spec)


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

    def test_positive_c_needs_no_positive_j(self, exactfit_model):
        # At c > 0 the scale is c dof + J, not J alone, even where it rounds to J.
        pt = pseudo_true(exactfit_model)
        assert 1e-300 * 3.0 + pt.j_stat == pt.j_stat
        post = closed_form_posterior(exactfit_model, StudentTRadial(3.0), 1e-300)
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
        cell = _grid_cell_weights(post.axes)
        oracle = oracle / np.sum(cell * oracle)
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

    def test_gaussian_theta_prior_conjugate(self, canon_model):
        # Normal radial x Gaussian prior: precision h/c + 1/s0^2 in closed form.
        c, m0, s0 = 0.5, 2.0, 1.5
        h = 2.0
        prec = h / c + 1.0 / s0**2
        mean = (h / c * 1.0 + m0 / s0**2) / prec
        sd = math.sqrt(1.0 / prec)
        prior = ScaledPrior(family=NormalRadial(), c=c, W=np.eye(2))
        spec = GridSpec(bounds=[(mean - 8.0 * sd, mean + 8.0 * sd)], points=2001)
        post = grid_posterior(canon_model, prior, ThetaPrior.gaussian([m0], s0), spec)
        pts = post.points().ravel()
        oracle = np.exp(-0.5 * ((pts - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
        assert np.max(np.abs(post.density - oracle)) < 1e-8

    def test_auto_expand_once_with_warning(self, canon_model):
        prior = ScaledPrior(family=NormalRadial(), c=0.5, W=np.eye(2))
        spec = GridSpec(bounds=[(2.0, 6.0)], points=501)
        with pytest.warns(UserWarning, match="expanding"):
            post = grid_posterior(canon_model, prior, None, spec)
        assert post.axes[0][0] <= 1.0 <= post.axes[0][-1]

    def test_extreme_scale_survives_via_log_space(self, canon_model):
        # Max-subtraction keeps even c = 1e-300 evaluable: the posterior is a
        # point mass at the grid point nearest the optimum.
        prior = ScaledPrior(family=NormalRadial(), c=1e-300, W=np.eye(2))
        spec = GridSpec(bounds=[(0.99, 1.013)], points=31)
        post = grid_posterior(canon_model, prior, None, spec)
        best = post.axes[0][np.argmax(post.density)]
        assert abs(best - 1.0) <= np.diff(post.axes[0])[0]

    def test_degenerate_log_mass_raises(self):
        from misspec.posteriors import _normalize_grid

        with pytest.raises(NumericalError):
            _normalize_grid((np.linspace(0.0, 1.0, 5),), np.full(5, -np.inf))

    def test_nan_theta_density_raises(self, canon_model):
        # A tabulated density that is NaN off its table makes the log
        # posterior NaN there; that is an error, not zero mass.
        theta = ThetaPrior.tabulated(
            lambda t: math.exp(-abs(t[0])) if abs(t[0]) <= 2.0 else math.nan,
            grid=np.linspace(-2.0, 2.0, 81),
        )
        prior = ScaledPrior(family=NormalRadial(), c=1.0, W=np.eye(2))
        with pytest.raises(NumericalError, match="NaN"):
            _grid_for(canon_model, prior, 1.0, points=201, theta_prior=theta)

    def test_powerlaw_needs_positive_j(self, exactfit_model):
        prior = ScaledPrior(family=PowerLawRadial(3.0), c=1.0, W=np.eye(2))
        with pytest.raises(DegenerateLimitError):
            grid_posterior(exactfit_model, prior, None, GridSpec(bounds=[(2.0, 4.0)]))

    def test_default_bounds_cover_pseudo_true(self, canon_model):
        prior = ScaledPrior(family=NormalRadial(), c=0.5, W=np.eye(2))
        post = grid_posterior(canon_model, prior)
        assert post.axes[0][0] < 1.0 < post.axes[0][-1]
        assert_allclose(np.sum(post.weights), 1.0, atol=1e-10)

    def test_two_dimensional_grid(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, 2.0, 2.0])
        m = ModelInstance(Y=y, X=x, W=np.eye(3))
        prior = ScaledPrior(family=NormalRadial(), c=0.8, W=np.eye(3))
        post = grid_posterior(m, prior, None, GridSpec(points=201))
        cf = normal_posterior(m, 0.8)
        grid_mean = post.mean()
        assert_allclose(grid_mean, cf.center, atol=1e-6)
        assert_allclose(np.sum(post.weights), 1.0, atol=1e-10)
        assert np.max(np.abs(post.sd() - cf.marginal_sd())) < 1e-3

    def test_total_grid_size_capped(self):
        # Just above 2001**2 points, the CLI's default p=2 grid.
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        m = ModelInstance(Y=[1.0, 2.0, 2.0], X=x, W=np.eye(3))
        prior = ScaledPrior(family=NormalRadial(), c=0.8, W=np.eye(3))
        axes = [np.linspace(-5.0, 5.0, 2002), np.linspace(-5.0, 5.0, 2001)]
        for spec in (GridSpec(points=(2002, 2001)), GridSpec(axes=axes)):
            with pytest.raises(GridError, match="exceeds"):
                grid_posterior(m, prior, None, spec)

    @pytest.mark.parametrize("points", [2.9, 1, (201, 3.5), (201,)])
    def test_point_counts_not_truncated(self, points):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        m = ModelInstance(Y=[1.0, 2.0, 2.0], X=x, W=np.eye(3))
        prior = ScaledPrior(family=NormalRadial(), c=0.8, W=np.eye(3))
        with pytest.raises(GridError, match="integer"):
            grid_posterior(m, prior, None, GridSpec(points=points))

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
        post = grid_posterior(m, prior, None, GridSpec(bounds=bounds, points=201))
        assert_allclose(post.sd(), exact, rtol=1e-7)

    def test_prior_weight_must_match_model(self, canon_model):
        spec = GridSpec(bounds=[(-1.0, 3.0)], points=101)
        for w in (2.0 * np.eye(2), np.eye(3)):
            prior = ScaledPrior(family=NormalRadial(), c=0.5, W=w)
            with pytest.raises(InputError, match="prior weighting matrix"):
                grid_posterior(canon_model, prior, None, spec)

    def test_p_too_large(self):
        x = np.eye(3)
        m = ModelInstance(Y=[1.0, 2.0, 3.0], X=x, W=np.eye(3))
        prior = ScaledPrior(family=NormalRadial(), c=1.0, W=np.eye(3))
        with pytest.raises(InputError, match="p in"):
            grid_posterior(m, prior)


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
                    abs(mass_outside_ball(post, [1.0], eps) - mass_outside_ball(cf, [1.0], eps))
                    for eps in (0.3, 0.9, 2.0)
                )
            )
        assert errs[0] < 5e-3
        assert errs[1] < errs[0] / 5.0

    def test_hessian_norm_ball(self, canon_model):
        # Euclidean and X'WX-norm balls agree after radius rescaling for p=1.
        cf = normal_posterior(canon_model, 0.5)
        h = pseudo_true(canon_model).hessian
        a = mass_outside_ball(cf, [1.0], 0.98, norm_matrix=h)
        b = mass_outside_ball(cf, [1.0], 0.98 / math.sqrt(h[0, 0]))
        assert_allclose(a, b, rtol=1e-12)

    @pytest.mark.parametrize("m", [[[0.0]], [[-1.0]], [[math.nan]], [[1.0, 0.0], [0.0, 1.0]]], ids=str)
    @pytest.mark.parametrize("grid", [False, True], ids=["closed_form", "grid"])
    def test_bad_norm_matrix_rejected(self, canon_model, grid, m):
        post = normal_posterior(canon_model, 0.5)
        if grid:
            post = _grid_for(canon_model, ScaledPrior(NormalRadial(), 0.5, np.eye(2)), sd=0.5, points=201)
        with pytest.raises(InputError, match="norm_matrix"):
            mass_outside_ball(post, [1.0], 0.5, norm_matrix=m)

    def test_student_closed_form(self, canon_model):
        post = closed_form_posterior(canon_model, StudentTRadial(3.0), 0.0)
        from oracles import t_cdf_quad

        s = math.sqrt(post.scale[0, 0])
        expect = 2.0 * (1.0 - t_cdf_quad(1.3 / s, post.dof))
        assert_allclose(mass_outside_ball(post, post.center, 1.3), expect, atol=1e-9)

    def test_gaussian_far_tail_keeps_relative_accuracy(self, canon_model):
        post = normal_posterior(canon_model, 0.5)
        sd = posterior_sd(post)[0]
        for z in (3.0, 8.0, 10.0, 20.0):
            mass = mass_outside_ball(post, post.center, z * sd)
            assert_allclose(mass, math.erfc(z / math.sqrt(2.0)), rtol=1e-12)

    def test_cauchy_far_tail_keeps_relative_accuracy(self, canon_model):
        post = closed_form_posterior(canon_model, PowerLawRadial(1.0), 1.0)  # p = 1, so dof = 1
        s = math.sqrt(post.scale[0, 0])
        for z in (1e4, 1e8):
            mass = mass_outside_ball(post, post.center, z * s)
            assert_allclose(mass, 2.0 / math.pi * math.atan(1.0 / z), rtol=1e-12)

    def test_concentration_sweep_monotone(self, canon_model):
        masses = [
            mass_outside_ball(normal_posterior(canon_model, c), [1.0], 0.25)
            for c in (1.0, 0.1, 0.01, 0.001)
        ]
        assert all(a > b for a, b in zip(masses, masses[1:]))
        assert masses[-1] < 1e-10


class TestBayesActions:
    def test_gaussian_mean(self):
        post = ClosedFormPosterior(center=[2.5], scale=[[1.0]])
        assert_allclose(bayes_action_quadratic(post), [2.5])

    def test_grid_symmetric_about_pseudo_true(self, canon_model):
        post = _grid_for(canon_model, ScaledPrior(family=NormalRadial(), c=0.5, W=np.eye(2)), sd=0.5)
        assert_allclose(bayes_action_quadratic(post), [1.0], atol=1e-10)

    def test_t_posterior_mean_requires_dof(self, canon_model):
        post = closed_form_posterior(canon_model, PowerLawRadial(1.0), 1.0)  # dof exactly 1
        with pytest.raises(InputError):
            bayes_action_quadratic(post)

    def test_absolute_loss_picks_median(self, canon_model):
        post = _grid_for(canon_model, ScaledPrior(family=NormalRadial(), c=0.5, W=np.eye(2)), sd=0.5)
        actions = np.linspace(0.0, 2.0, 41)
        loss = lambda a, th: min(abs(a - float(np.atleast_1d(th)[0])), 10.0)
        assert_allclose(bayes_action_grid(post, actions, loss), 1.0, atol=1e-12)

    def test_point_mass_limit_argmin(self, canon_model):
        prior = ScaledPrior(family=NormalRadial(), c=1e-8, W=np.eye(2))
        post = _grid_for(canon_model, prior, sd=math.sqrt(1e-8 / 2.0))
        actions = [0.0, 0.5, 0.9, 2.0]
        loss = lambda a, th: min((a - float(np.atleast_1d(th)[0])) ** 2, 10.0)
        assert bayes_action_grid(post, actions, loss) == 0.9

    def test_single_action(self, canon_model):
        post = _grid_for(canon_model, ScaledPrior(family=NormalRadial(), c=0.5, W=np.eye(2)), sd=0.5)
        assert bayes_action_grid(post, [3.3], lambda a, th: 0.0) == 3.3

    def test_tie_break_smallest(self, canon_model):
        post = _grid_for(canon_model, ScaledPrior(family=NormalRadial(), c=0.5, W=np.eye(2)), sd=0.5)
        # Constant loss makes every action exactly tied.
        assert bayes_action_grid(post, [1.25, 0.75, 2.0], lambda a, th: 1.0) == 0.75

    def test_loss_errors_are_not_hidden(self, canon_model):
        post = _grid_for(canon_model, ScaledPrior(family=NormalRadial(), c=0.5, W=np.eye(2)), sd=0.5)

        def loss(a, th):
            th = np.asarray(th)
            if th.ndim == 2:
                raise RuntimeError("vectorized loss broke")
            return (a - th[0]) ** 2

        with pytest.raises(RuntimeError, match="vectorized loss broke"):
            bayes_action_grid(post, [0.5, 1.0], loss)

    def test_empty_actions(self, canon_model):
        post = _grid_for(canon_model, ScaledPrior(family=NormalRadial(), c=0.5, W=np.eye(2)), sd=0.5)
        with pytest.raises(InputError):
            bayes_action_grid(post, [], lambda a, th: 0.0)


class TestTvDistance:
    def test_self_distance_zero(self, canon_model):
        post = _grid_for(canon_model, ScaledPrior(family=NormalRadial(), c=0.5, W=np.eye(2)), sd=0.5)
        assert tv_distance(post, post) == 0.0

    def test_disjoint_spikes_near_one(self, canon_model):
        c = 1e-6
        sd = math.sqrt(c / 2.0)
        axis = np.sort(np.concatenate([
            np.linspace(1.0 - 10 * sd, 1.0 + 10 * sd, 800),
            np.linspace(4.0 - 10 * sd, 4.0 + 10 * sd, 800),
        ]))
        spec = GridSpec(axes=[axis])
        prior = ScaledPrior(family=NormalRadial(), c=c, W=np.eye(2))
        shifted = ModelInstance(Y=[3.0, 5.0], X=[[1.0], [1.0]], W=np.eye(2))
        a = grid_posterior(canon_model, prior, None, spec)
        b = grid_posterior(shifted, prior, None, spec)
        assert tv_distance(a, b) > 0.999

    def test_grid_mismatch_rejected(self, canon_model):
        prior = ScaledPrior(family=NormalRadial(), c=0.5, W=np.eye(2))
        a = _grid_for(canon_model, prior, sd=0.5, points=101)
        b = _grid_for(canon_model, prior, sd=0.5, points=102)
        with pytest.raises(InputError):
            tv_distance(a, b)


class TestFragility:
    def test_contaminated_posterior_collapses_to_contaminant(self, canon_model):
        contam = ScaledPrior(family=NormalRadial(), c=4.0, W=np.eye(2))
        axis = np.linspace(1.0 - 12.0, 1.0 + 12.0, 2001)
        spec = GridSpec(axes=[axis])
        pure = grid_posterior(canon_model, contam, None, spec)
        tvs = []
        for c in (1.0, 1e-2, 1e-6):
            base = ScaledPrior(family=NormalRadial(), c=c, W=np.eye(2))
            mixed = ContaminatedPrior(base=base, contaminant=contam, phi=0.01)
            post = grid_posterior(canon_model, mixed, None, spec)
            tvs.append(tv_distance(post, pure))
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
        mixed = ContaminatedPrior(base=base, contaminant=contam, phi=0.01)
        post = grid_posterior(exactfit_model, mixed, None, GridSpec(axes=[axis]))
        assert mass_outside_ball(post, [3.0], 0.05) < 0.01


def test_posterior_sd_helpers(canon_model):
    cf = normal_posterior(canon_model, 0.5)
    assert_allclose(posterior_sd(cf), [0.5])
    tl = closed_form_posterior(canon_model, StudentTRadial(3.0), 0.0)
    assert_allclose(posterior_sd(tl), [math.sqrt(0.25 * 2.0)])
    pl = closed_form_posterior(canon_model, PowerLawRadial(1.0), 1.0)
    assert np.isinf(posterior_sd(pl)[0])

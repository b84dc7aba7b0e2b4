import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from misspec.errors import InputError, JustIdentifiedError
from misspec.inference import (
    InferenceConfig,
    Interval,
    LocalExperiment,
    analyze,
    confidence_interval,
    finite_sample_ci,
    identified_set_membership,
    identified_set_projection,
    local_ci,
)
from misspec.model import ModelInstance, pseudo_true
from misspec.special import StudentT, t_quantile
from oracles import pivotal_t_stat, random_model_arrays, t_quantile_quad

CFG = InferenceConfig(v=[1.0], level=0.95)


def _scaled_residual_model(model, factor):
    """Scale the detectable component: J scales by factor^2."""
    pt = pseudo_true(model)
    fit = model.X @ pt.theta_w
    return ModelInstance(Y=fit + factor * (np.asarray(model.Y) - fit), X=model.X, W=model.W)


class TestConfidenceInterval:
    def test_mean3_example(self, mean3_model):
        ci = confidence_interval(mean3_model, CFG)
        tstar = t_quantile_quad(0.975, 2.0)
        hw = math.sqrt(6.0 / 2.0) * (1.0 / math.sqrt(3.0)) * tstar
        assert abs(ci.lower - (2.0 - hw)) < 2e-3
        assert abs(ci.upper - (2.0 + hw)) < 2e-3
        assert abs(ci.lower - (2.0 - 4.3027)) < 2e-3
        assert abs(ci.upper - (2.0 + 4.3027)) < 2e-3

    def test_exact_fit_singleton(self, exactfit_model):
        ci = confidence_interval(exactfit_model, CFG)
        assert ci.singleton
        assert ci.lower == ci.upper == pytest.approx(3.0)

    def test_width_scales_with_root_j(self, canon_model):
        base = confidence_interval(canon_model, CFG)
        doubled = confidence_interval(_scaled_residual_model(canon_model, 2.0), CFG)
        assert_allclose(doubled.half_width(), 2.0 * base.half_width(), rtol=1e-10)
        assert_allclose(
            0.5 * (doubled.lower + doubled.upper),
            0.5 * (base.lower + base.upper),
            atol=1e-10,
        )

    def test_just_identified_rejected(self):
        m = ModelInstance(Y=[1.0, 2.0], X=np.eye(2), W=np.eye(2))
        with pytest.raises(JustIdentifiedError, match="eta = 0"):
            confidence_interval(m, InferenceConfig(v=[1.0, 0.0]))

    def test_weighting_scale_invariance(self, mean3_model):
        scaled = ModelInstance(Y=mean3_model.Y, X=mean3_model.X, W=7.0 * np.asarray(mean3_model.W))
        a = confidence_interval(mean3_model, CFG)
        b = confidence_interval(scaled, CFG)
        assert_allclose([a.lower, a.upper], [b.lower, b.upper], rtol=1e-10)


class TestPivotalTStat:
    def test_zero_at_pseudo_true(self, mean3_model):
        pt = pseudo_true(mean3_model)
        assert pivotal_t_stat(mean3_model, pt.theta_w, CFG) == 0.0

    def test_upper_endpoint_is_negative_critical_value(self, mean3_model):
        ci = confidence_interval(mean3_model, CFG)
        tstar = t_quantile(StudentT(2.0), 0.975)
        stat = pivotal_t_stat(mean3_model, [ci.upper], CFG)
        assert_allclose(stat, -tstar, rtol=1e-10)

    def test_j_zero_guard(self, exactfit_model):
        with pytest.raises(InputError):
            pivotal_t_stat(exactfit_model, [3.0], CFG)

    def test_duality_with_interval(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 1000:
            k = int(rng.integers(2, 6))
            p = int(rng.integers(1, k))
            y, x, w = random_model_arrays(rng, k, p)
            m = ModelInstance(Y=y, X=x, W=w)
            if pseudo_true(m).j_stat < 1e-8:
                continue
            v = rng.standard_normal(p)
            if not np.any(v != 0.0):
                continue
            cfg = InferenceConfig(v=v, level=0.9)
            theta = rng.standard_normal(p) * 3.0
            ci = confidence_interval(m, cfg)
            stat = pivotal_t_stat(m, theta, cfg)
            tstar = t_quantile(StudentT(k - p), 0.95)
            inside = ci.lower <= float(v @ theta) <= ci.upper
            assert inside == (abs(stat) <= tstar + 1e-12)
            checked += 1


class TestIdentifiedSet:
    def test_empty_below_j(self, canon_model):
        assert identified_set_projection(canon_model, CFG, 1.0).empty

    def test_singleton_at_j(self, canon_model):
        iv = identified_set_projection(canon_model, CFG, math.sqrt(2.0))
        assert iv.singleton
        assert_allclose(iv.lower, 1.0, atol=1e-12)

    def test_interval_above_j(self, canon_model):
        iv = identified_set_projection(canon_model, CFG, math.sqrt(6.0))
        assert_allclose(iv.lower, 1.0 - math.sqrt(2.0), rtol=1e-12)
        assert_allclose(iv.upper, 1.0 + math.sqrt(2.0), rtol=1e-12)

    def test_membership_boundary(self, canon_model):
        assert identified_set_membership(canon_model, [1.0], math.sqrt(2.0))
        assert not identified_set_membership(canon_model, [1.0], math.sqrt(1.9))

    def test_membership_matches_projection(self, canon_model):
        d = math.sqrt(6.0)
        iv = identified_set_projection(canon_model, CFG, d)
        thetas = np.linspace(iv.lower - 1.0, iv.upper + 1.0, 100_001)
        member = np.array(
            [identified_set_membership(canon_model, [t], d) for t in thetas]
        )
        inside = (thetas >= iv.lower) & (thetas <= iv.upper)
        step = thetas[1] - thetas[0]
        mismatches = thetas[member != inside]
        if mismatches.size:
            dist = np.minimum(np.abs(mismatches - iv.lower), np.abs(mismatches - iv.upper))
            assert np.max(dist) <= step

    def test_half_width_decreasing_in_j(self, canon_model):
        d = math.sqrt(6.0)
        widths = [
            identified_set_projection(_scaled_residual_model(canon_model, f), CFG, d).half_width()
            for f in (0.6, 1.0, 1.4)
        ]
        assert widths[0] > widths[1] > widths[2]

    def test_emptiness_boundary_exact(self, canon_model):
        j = pseudo_true(canon_model).j_stat
        band = 1e-12 * j
        assert identified_set_projection(canon_model, CFG, math.sqrt(j - 2 * band)).empty
        assert identified_set_projection(canon_model, CFG, math.sqrt(j + 0.5 * band)).singleton
        assert identified_set_projection(canon_model, CFG, math.sqrt(j - 0.5 * band)).singleton
        assert not identified_set_projection(canon_model, CFG, math.sqrt(j + 1e-6)).singleton

    @pytest.mark.parametrize("d", [1e160, 1e308])
    def test_d_whose_square_overflows(self, canon_model, d):
        # d^2 overflows; sigma_v sqrt(d^2 - J), J = 2, is sigma_v d to within 1e-300.
        iv = identified_set_projection(canon_model, CFG, d)
        assert not (iv.empty or iv.singleton)
        assert_allclose([iv.lower, iv.upper], [1.0 - d / math.sqrt(2.0), 1.0 + d / math.sqrt(2.0)],
                        rtol=1e-15)

    def test_negative_d_rejected(self, canon_model):
        with pytest.raises(InputError):
            identified_set_projection(canon_model, CFG, -1.0)

    def test_nan_d_rejected_by_name(self, canon_model):
        with pytest.raises(InputError, match="norm bound d"):
            identified_set_projection(canon_model, CFG, math.nan)
        with pytest.raises(InputError, match="norm bound d"):
            identified_set_membership(canon_model, [1.0], math.nan)


class TestAdapters:
    def test_finite_sample_identical_to_population(self, mean3_model):
        ci_pop = confidence_interval(mean3_model, CFG)
        ci_fin = finite_sample_ci(mean3_model.Y, mean3_model.X, mean3_model.W, CFG)
        assert ci_pop.lower == ci_fin.lower
        assert ci_pop.upper == ci_fin.upper

    def test_local_adapter_identity(self, mean3_model):
        exp = LocalExperiment(
            Gamma_L=-np.asarray(mean3_model.X),
            Sigma=np.eye(3),
            mu=np.zeros(3),
            K=[1.0],
            W_L=np.asarray(mean3_model.W),
        )
        ci_local = local_ci(exp, mean3_model.Y, level=0.95)
        ci_pop = confidence_interval(mean3_model, CFG)
        assert ci_local.lower == ci_pop.lower
        assert ci_local.upper == ci_pop.upper

    def test_iv_sample_interval_centered_at_sample_pseudo_true(self):
        from misspec.scenarios import IVScenario, iv_sample

        scen = IVScenario(
            k=3, theta_ate=1.0, beta_vec=np.ones(3),
            first_stage=np.full(3, 0.2), z_cov=np.eye(3),
        )
        yn, xn, wn = iv_sample(scen, 10_000, seed=7)
        ci = finite_sample_ci(yn, xn, wn, CFG)
        pt = pseudo_true(ModelInstance(Y=yn, X=xn, W=wn))
        assert_allclose(0.5 * (ci.lower + ci.upper), pt.theta_w[0], atol=1e-12)
        assert ci.contains(pt.theta_w[0])

    @pytest.mark.parametrize("level", [0.8, 0.95])
    def test_local_matches_interval_from_scratch(self, level):
        rng = np.random.default_rng(11)
        _, x, w = random_model_arrays(rng, 5, 2)
        exp = LocalExperiment(Gamma_L=-x, Sigma=np.eye(5), mu=np.zeros(5), K=[1.0, -2.0], W_L=w)
        cfg = InferenceConfig(v=[1.0, -2.0], level=level)
        for y_l in [*rng.standard_normal((20, 5)), x @ [0.3, 0.7]]:
            ci = local_ci(exp, y_l, level=level)
            ref = confidence_interval(ModelInstance(Y=y_l, X=-exp.Gamma_L, W=exp.W_L), cfg)
            assert (ci.lower, ci.upper, ci.singleton) == (ref.lower, ref.upper, ref.singleton)

    @pytest.mark.parametrize("y_l", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [1.0, np.nan, 3.0],
                                     [[1.0, 2.0, 3.0]], [1.0, np.inf, 3.0]])
    def test_local_rejects_y_as_a_fresh_model_does(self, y_l):
        exp = LocalExperiment(
            Gamma_L=-np.ones((3, 1)), Sigma=np.eye(3), mu=np.zeros(3), K=[1.0], W_L=np.eye(3)
        )
        with pytest.raises(Exception) as fresh:
            ModelInstance(Y=y_l, X=np.ones((3, 1)), W=np.eye(3))
        with pytest.raises(type(fresh.value), match=f"^{re.escape(str(fresh.value))}$"):
            local_ci(exp, y_l)

    def test_local_exact_draw_singleton(self):
        gamma = -np.array([[1.0], [1.0], [0.5]])
        theta = np.array([0.7])
        exp = LocalExperiment(
            Gamma_L=gamma, Sigma=np.eye(3), mu=np.zeros(3), K=[2.0], W_L=np.eye(3)
        )
        y_l = (-gamma) @ theta
        ci = local_ci(exp, y_l)
        assert ci.singleton
        assert_allclose(ci.lower, 1.4, atol=1e-12)


class TestTypesAndReport:
    def test_config_validation(self):
        with pytest.raises(InputError):
            InferenceConfig(v=[0.0, 0.0])
        with pytest.raises(InputError):
            InferenceConfig(v=[1.0], level=1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(InputError, match="v must be finite"):
                InferenceConfig(v=[bad, 1.0])

    def test_interval_invariants(self):
        with pytest.raises(InputError):
            Interval(lower=2.0, upper=1.0)
        with pytest.raises(InputError):
            Interval(lower=1.0, upper=2.0, singleton=True)
        assert Interval.empty_set().empty
        assert Interval.point(3.0).contains(3.0)

    def test_analyze_report(self, canon_model):
        report = analyze(canon_model, CFG, (1.0, math.sqrt(2.0), math.sqrt(6.0)))
        assert_allclose(report.theta_w, [1.0])
        assert_allclose(report.j_stat, 2.0)
        assert_allclose(report.sigma_v, 1.0 / math.sqrt(2.0))
        flags = [(d, iv.empty, iv.singleton) for d, iv in report.identified_sets]
        assert flags[0][1] and not flags[0][2]
        assert flags[1][2]
        assert not flags[2][1] and not flags[2][2]

    def test_analyze_computes_sigma_v_once(self, canon_model, monkeypatch):
        from misspec import inference

        ds = (1.0, math.sqrt(2.0), math.sqrt(6.0))
        calls = []
        sigma_v = inference.sigma_v
        monkeypatch.setattr(inference, "sigma_v", lambda *a: calls.append(a) or sigma_v(*a))
        report = analyze(canon_model, CFG, ds)
        assert len(calls) == 1
        assert report.ci == confidence_interval(canon_model, CFG)
        assert report.identified_sets == tuple(
            (d, identified_set_projection(canon_model, CFG, d)) for d in ds
        )

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from misspec.errors import DomainError, InputError, ResampleRequiredError
from misspec.model import ModelInstance, pseudo_true
from misspec.scenarios import (
    IVDgpParams,
    IVScenario,
    LogitScenario,
    iv_dgp_population_moments,
    iv_population_model,
    iv_sample,
    logit_inverse_link,
    logit_link,
    logit_population_model,
    _iv_moments,
)


def _iv_scenario(k=3, theta=1.0, beta=None, fs=None, z_cov=None):
    return IVScenario(
        k=k,
        theta_ate=theta,
        beta_vec=np.full(k, theta) if beta is None else np.asarray(beta, float),
        first_stage=np.full(k, 0.2) if fs is None else np.asarray(fs, float),
        z_cov=np.eye(k) if z_cov is None else np.asarray(z_cov, float),
    )


class TestIVPopulation:
    def test_homogeneous_effects_correctly_specified(self):
        m = iv_population_model(_iv_scenario())
        pt = pseudo_true(m)
        assert pt.j_stat < 1e-28
        assert_allclose(pt.theta_w, [1.0], atol=1e-14)

    def test_reduces_to_canonical_fixture(self):
        s = _iv_scenario(k=2, theta=1.0, beta=[0.0, 2.0], fs=[1.0, 1.0], z_cov=np.eye(2))
        m = iv_population_model(s)
        assert_allclose(m.Y, [0.0, 2.0])
        assert_allclose(np.asarray(m.X).ravel(), [1.0, 1.0])
        pt = pseudo_true(m)
        assert_allclose(pt.theta_w, [1.0], atol=1e-14)
        assert_allclose(pt.j_stat, 2.0, rtol=1e-12)

    def test_single_instrument_misspecified_but_undetectable(self):
        s = _iv_scenario(k=1, theta=1.0, beta=[2.5], fs=[0.3], z_cov=np.eye(1))
        pt = pseudo_true(iv_population_model(s))
        assert pt.j_stat < 1e-28
        assert_allclose(pt.theta_w, [2.5], atol=1e-12)

    def test_tsls_weighting(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3))
        z_cov = a @ a.T + 3.0 * np.eye(3)
        s = _iv_scenario(z_cov=z_cov)
        m = iv_population_model(s)
        assert_allclose(np.asarray(m.W) @ z_cov, np.eye(3), atol=1e-12)

    def test_invariants_enforced(self):
        with pytest.raises(InputError):
            _iv_scenario(fs=[0.2, 0.0, 0.2])


class TestIVSample:
    def test_deterministic_given_seed(self):
        s = _iv_scenario()
        a = iv_sample(s, 5000, seed=7)
        b = iv_sample(s, 5000, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_overidentifying_restrictions_hold_at_homogeneous_effects(self):
        # With delta = 0 the model is correctly specified, so n J_n behaves
        # like a chi-square with k - p degrees of freedom.
        s = _iv_scenario()
        dgp = IVDgpParams(c0=0.0, c=0.5, delta=0.0, theta_bar=1.0)
        n = 100_000
        for seed in range(1000, 1010):
            yn, xn, wn = iv_sample(s, n, dgp, seed=seed)
            j = pseudo_true(ModelInstance(Y=yn, X=xn, W=wn)).j_stat
            assert j < 15.0 / n

    def test_single_index_heterogeneity_is_undetectable_by_j(self):
        # The latent index drives both compliance and effect size, so the
        # implied moment violation stays inside the span of the Jacobian:
        # n J_n remains at the chi-square noise scale even at delta = 2.
        s = _iv_scenario()
        dgp = IVDgpParams(c0=0.0, c=0.5, delta=2.0, theta_bar=1.0)
        n = 100_000
        njs = []
        for seed in range(1000, 1010):
            yn, xn, wn = iv_sample(s, n, dgp, seed=seed)
            njs.append(n * pseudo_true(ModelInstance(Y=yn, X=xn, W=wn)).j_stat)
        assert np.median(njs) < 15.0

    def test_heterogeneity_biases_pseudo_true_value(self):
        # The misspecification shows up as bias instead: with a shifted
        # threshold the pseudo-true value sits far from the ATE of 1.
        s = _iv_scenario()
        dgp = IVDgpParams(c0=1.0, c=0.5, delta=2.0, theta_bar=1.0)
        for seed in range(2000, 2010):
            yn, xn, wn = iv_sample(s, 100_000, dgp, seed=seed)
            th = pseudo_true(ModelInstance(Y=yn, X=xn, W=wn)).theta_w[0]
            assert abs(th - 1.0) > 0.5

    def test_population_moment_formulas(self):
        # Large-sample moments converge to the closed-form population values.
        dgp = IVDgpParams(c0=1.0, c=0.5, delta=2.0, theta_bar=1.0)
        s = _iv_scenario()
        yp, xp, wp = iv_dgp_population_moments(np.eye(3), dgp)
        yn, xn, wn = iv_sample(s, 2_000_000, dgp, seed=31)
        assert np.max(np.abs(yn - yp)) < 5e-3
        assert np.max(np.abs(xn - xp)) < 5e-3
        pt_pop = pseudo_true(ModelInstance(Y=yp, X=xp, W=wp))
        assert_allclose(pt_pop.theta_w, [1.0 + 2.0 * (-1.0 / 1.75)], rtol=1e-12)
        assert pt_pop.j_stat < 1e-25

    def test_root_n_convergence_rate(self):
        s = _iv_scenario()
        dgp = IVDgpParams(c0=1.0, c=0.5, delta=2.0, theta_bar=1.0)
        yp, xp, wp = iv_dgp_population_moments(np.eye(3), dgp)
        errs = []
        for n in (1000, 10_000, 100_000):
            per_seed = []
            for s_ in range(8):
                yn, xn, wn = iv_sample(s, n, dgp, seed=700 + s_)
                per_seed.append(
                    math.sqrt(
                        np.sum((yn - yp) ** 2)
                        + np.sum((xn - xp) ** 2)
                        + np.sum((wn - wp) ** 2)
                    )
                )
            errs.append(np.mean(per_seed))
        for a, b in zip(errs, errs[1:]):
            ratio = a / b
            assert math.sqrt(10.0) / 2.0 < ratio < 2.0 * math.sqrt(10.0)

    @pytest.mark.parametrize("n", [7, 1000, 10_000])
    @pytest.mark.parametrize(
        "dgp", [IVDgpParams(), IVDgpParams(c0=0.3, c=np.array([0.5, -1.0, 2.0]), delta=-0.7)]
    )
    def test_moments_are_sums_over_the_rotated_draws(self, n, dgp):
        # The whitened product L e'[e Y X] / n against sums of Z_i = L e_i
        # products, each summed exactly by math.fsum.
        s = _iv_scenario(z_cov=[[1.0, 0.2, 0.0], [0.2, 1.0, 0.3], [0.0, 0.3, 1.0]])
        chol = np.linalg.cholesky(s.z_cov)
        cvec = np.broadcast_to(np.asarray(dgp.c, float), (3,))
        for seed in range(20):
            rng = np.random.default_rng(seed)
            e = rng.standard_normal((n, 3))
            u = rng.standard_normal(n)
            treated = (dgp.c0 + e @ (chol.T @ cvec) + u > 0.0).astype(float)
            y = treated * (dgp.theta_bar + dgp.delta * u) + rng.standard_normal(n)
            z = e @ chol.T
            yn, xn, zz = _iv_moments(s, n, dgp, seed)
            got = np.column_stack([zz, yn, xn])
            for j in range(3):
                for col, other in enumerate([z[:, 0], z[:, 1], z[:, 2], y, treated]):
                    terms = z[:, j] * other
                    tol = 1e-13 * np.mean(np.abs(terms))
                    assert abs(got[j, col] - math.fsum(terms) / n) <= tol, (seed, j, col)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_peak_memory_within_the_counted_values(self, k):
        # The cap counts n (2k + 2) float64 values held at once; numpy reports
        # its allocations to tracemalloc.
        s, n = _iv_scenario(k=k), 100_000
        iv_sample(s, 1000, seed=1)
        tracemalloc.start()
        try:
            iv_sample(s, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * (2 * k + 2) + 2**16

    def test_sample_size_floor(self):
        with pytest.raises(InputError):
            iv_sample(_iv_scenario(), 4)

    def test_oversized_sample_rejected_before_drawing(self, monkeypatch):
        # 10**11 draws would need about 8 TB; the cap is checked before numpy is asked.
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(InputError, match="sample size must be at most .* got 100000000000"):
            iv_sample(_iv_scenario(), 10**11)

    @pytest.mark.parametrize("seed", [-1, 2**64, True])
    def test_seed_outside_range_rejected(self, seed):
        with pytest.raises(InputError, match="seed"):
            iv_sample(_iv_scenario(), 100, seed=seed)

    def test_degenerate_sample_raises(self):
        # A huge negative threshold means nobody takes treatment: Xn = 0.
        dgp = IVDgpParams(c0=-60.0, c=0.5, delta=0.0, theta_bar=1.0)
        with pytest.raises(ResampleRequiredError):
            iv_sample(_iv_scenario(), 2000, dgp, seed=1)


class TestLogitLinks:
    def test_link_at_zero(self):
        assert logit_link(0.0) == 0.5

    def test_inverse_at_half(self):
        assert logit_inverse_link(0.5) == 0.0

    def test_round_trip(self):
        assert abs(logit_inverse_link(logit_link(3.0)) - 3.0) < 1e-12
        for q in (1e-9, 0.2, 0.7, 1.0 - 1e-9):
            assert abs(logit_link(logit_inverse_link(q)) - q) < 1e-12

    def test_domain(self):
        for q in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                logit_inverse_link(q)


class TestLogitPopulation:
    def test_correctly_specified_case(self):
        a, b = 0.3, 0.8
        support = np.array([-1.0, 0.0, 1.0, 2.0])
        s = LogitScenario(
            support=support,
            probs=np.full(4, 0.25),
            cond_means=np.array([logit_link(a + b * x) for x in support]),
            x_star=(-2.0, 3.0),
        )
        m = logit_population_model(s)
        pt = pseudo_true(m)
        assert pt.j_stat < 1e-20
        assert_allclose(pt.theta_w, [a + b * (-2.0), a + b * 3.0], atol=1e-10)

    def test_nonlogistic_means_detected(self):
        s = LogitScenario(
            support=np.array([-1.0, 0.0, 1.0]),
            probs=np.full(3, 1.0 / 3.0),
            cond_means=np.array([0.2, 0.5, 0.9]),
            x_star=(-2.0, 2.0),
        )
        assert pseudo_true(logit_population_model(s)).j_stat > 1e-4

    def test_interpolation_consistency(self):
        # Fitted values at the support reproduce the logistic-linear predictor.
        a, b = -0.4, 1.1
        support = np.array([-0.5, 0.3, 0.9, 1.7, 2.2])
        s = LogitScenario(
            support=support,
            probs=np.array([0.1, 0.2, 0.3, 0.25, 0.15]),
            cond_means=np.array([logit_link(a + b * x) for x in support]),
            x_star=(-2.0, 3.0),
        )
        m = logit_population_model(s)
        theta = pseudo_true(m).theta_w
        fitted = np.asarray(m.X) @ theta
        assert np.max(np.abs(fitted - (a + b * support))) < 1e-10

    def test_relabeling_invariance(self):
        # Jointly permuting the moment rows (support point, probability,
        # conditional mean move together) leaves theta_W and J unchanged.
        s = LogitScenario(
            support=np.array([-1.0, 0.0, 1.0]),
            probs=np.array([0.2, 0.3, 0.5]),
            cond_means=np.array([0.2, 0.5, 0.9]),
            x_star=(-2.0, 2.0),
        )
        m = logit_population_model(s)
        perm = np.array([2, 0, 1])
        permuted = ModelInstance(
            Y=np.asarray(m.Y)[perm],
            X=np.asarray(m.X)[perm],
            W=np.asarray(m.W)[np.ix_(perm, perm)],
        )
        a, b = pseudo_true(m), pseudo_true(permuted)
        assert_allclose(a.theta_w, b.theta_w, rtol=1e-12)
        assert_allclose(a.j_stat, b.j_stat, rtol=1e-12)

    def test_weighting_is_probability_diagonal(self):
        s = LogitScenario(
            support=np.array([-1.0, 1.0]),
            probs=np.array([0.3, 0.7]),
            cond_means=np.array([0.4, 0.6]),
            x_star=(-2.0, 2.0),
        )
        assert_allclose(logit_population_model(s).W, np.diag([0.3, 0.7]))

    def test_validation(self):
        with pytest.raises(InputError):
            LogitScenario(
                support=np.array([0.0, 1.0]),
                probs=np.array([0.5, 0.6]),
                cond_means=np.array([0.4, 0.6]),
                x_star=(-2.0, 2.0),
            )
        with pytest.raises(InputError):
            LogitScenario(
                support=np.array([0.0, 1.0]),
                probs=np.array([0.5, 0.5]),
                cond_means=np.array([0.0, 0.6]),
                x_star=(-2.0, 2.0),
            )
        with pytest.raises(InputError):
            LogitScenario(
                support=np.array([0.0, 1.0]),
                probs=np.array([0.5, 0.5]),
                cond_means=np.array([0.4, 0.6]),
                x_star=(1.0, 2.0),
            )

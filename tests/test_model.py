import numpy as np
import pytest
from numpy.testing import assert_allclose

from misspec.errors import InputError, ModelValidationError
from misspec.model import (
    ModelInstance,
    implied_eta,
    objective,
    pseudo_true,
    sigma_v,
)
from oracles import decompose_eta, random_model_arrays


class TestObjective:
    def test_zero_at_exact_fit(self):
        m = ModelInstance(Y=[0.0, 0.0], X=[[1.0], [1.0]], W=np.eye(2))
        assert objective(m, [0.0]) == 0.0

    def test_direct_arithmetic(self, canon_model):
        assert_allclose(objective(canon_model, [1.0]), 2.0)
        assert_allclose(objective(canon_model, [0.0]), 4.0)

    def test_dimension_mismatch(self, canon_model):
        with pytest.raises(InputError):
            objective(canon_model, [1.0, 2.0])


class TestPseudoTrue:
    def test_canonical(self, canon_model):
        pt = pseudo_true(canon_model)
        assert_allclose(pt.theta_w, [1.0])
        assert_allclose(pt.j_stat, 2.0)
        assert_allclose(canon_model.design.hessian_inv, [[0.5]])

    def test_just_identified_exact_fit(self):
        m = ModelInstance(Y=[3.0, 5.0], X=np.eye(2), W=np.eye(2))
        pt = pseudo_true(m)
        assert_allclose(pt.theta_w, [3.0, 5.0])
        assert pt.j_stat == 0.0

    def test_mean_model(self, mean3_model):
        pt = pseudo_true(mean3_model)
        assert_allclose(pt.theta_w, [2.0])
        assert_allclose(pt.j_stat, 6.0)

    def test_objective_at_minimum_equals_j(self, canon_model):
        pt = pseudo_true(canon_model)
        assert_allclose(objective(canon_model, pt.theta_w), pt.j_stat)
        rng = np.random.default_rng(5)
        for _ in range(50):
            theta = pt.theta_w + rng.standard_normal(1)
            assert objective(canon_model, theta) >= pt.j_stat - 1e-12


class TestImpliedEta:
    def test_exact_fit_zero(self):
        m = ModelInstance(Y=[2.0, 2.0], X=[[1.0], [1.0]], W=np.eye(2))
        assert_allclose(implied_eta(m, [2.0]), [0.0, 0.0])

    def test_arithmetic(self, canon_model):
        assert_allclose(implied_eta(canon_model, [1.0]), [-1.0, 1.0])
        assert_allclose(implied_eta(canon_model, [0.0]), [0.0, 2.0])

    def test_weighted_norm_at_pseudo_true_is_j(self, canon_model):
        pt = pseudo_true(canon_model)
        eta = implied_eta(canon_model, pt.theta_w)
        assert_allclose(eta @ canon_model.W @ eta, pt.j_stat)


class TestDecomposeEta:
    def test_at_pseudo_true_hat_vanishes(self, canon_model):
        pt = pseudo_true(canon_model)
        dec = decompose_eta(canon_model, pt.theta_w)
        assert_allclose(dec.eta_hat, np.zeros(2), atol=1e-12)
        assert_allclose(dec.j_stat, pt.j_stat)

    def test_canonical_at_zero(self, canon_model):
        dec = decompose_eta(canon_model, [0.0])
        assert_allclose(dec.eta_hat, [1.0, 1.0])
        assert_allclose(dec.eta_perp, [-1.0, 1.0])

    def test_perp_invariant_in_theta(self, canon_model):
        d1 = decompose_eta(canon_model, [-3.7])
        d2 = decompose_eta(canon_model, [11.2])
        assert_allclose(d1.eta_perp, d2.eta_perp, atol=1e-12)

    def test_hat_equals_whitened_jacobian_times_gap(self, canon_model):
        pt = pseudo_true(canon_model)
        theta = np.array([0.25])
        dec = decompose_eta(canon_model, theta)
        x_tilde = canon_model.design.w_factor.root @ canon_model.X
        assert_allclose(dec.eta_hat, x_tilde @ (pt.theta_w - theta), atol=1e-12)


class TestSigmaV:
    def test_examples(self, canon_model, mean3_model):
        assert_allclose(sigma_v(canon_model, [1.0]), 1.0 / np.sqrt(2.0))
        assert_allclose(sigma_v(mean3_model, [1.0]), 1.0 / np.sqrt(3.0))

    def test_orthonormal_columns(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        m = ModelInstance(Y=[0.0, 0.0, 1.0], X=x, W=np.eye(3))
        assert_allclose(sigma_v(m, [1.0, 0.0]), 1.0)

    def test_zero_v_rejected(self, canon_model):
        with pytest.raises(InputError):
            sigma_v(canon_model, [0.0])


class TestValidation:
    def test_not_spd(self):
        with pytest.raises(ModelValidationError, match="positive definite"):
            ModelInstance(Y=[0.0, 0.0], X=[[1.0], [1.0]], W=[[1.0, 0.0], [0.0, -1.0]])

    def test_not_symmetric(self):
        with pytest.raises(ModelValidationError, match="symmetric"):
            ModelInstance(Y=[0.0, 0.0], X=[[1.0], [1.0]], W=[[1.0, 0.5], [0.0, 1.0]])

    def test_rank_deficient(self):
        with pytest.raises(ModelValidationError, match="rank"):
            ModelInstance(
                Y=[0.0, 0.0], X=[[1.0, 2.0], [2.0, 4.0]], W=np.eye(2)
            )

    def test_k_less_than_p(self):
        with pytest.raises(InputError, match="k >= p"):
            ModelInstance(Y=[1.0], X=[[1.0, 0.0]], W=np.eye(1))

    def test_no_columns(self):
        with pytest.raises(InputError, match="k >= p >= 1"):
            ModelInstance(Y=[1.0], X=np.zeros((1, 0)), W=np.eye(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["Y", "X", "W"])
    def test_non_finite_rejected(self, name, bad):
        arrays = {"Y": np.zeros(3), "X": np.ones((3, 1)), "W": np.eye(3)}
        arrays[name][-1] = bad
        with pytest.raises(ModelValidationError, match=f"^{name} must be finite$"):
            ModelInstance(**arrays)

    def test_non_finite_weight_rejected_by_other_consumers(self):
        from misspec.inference import LocalExperiment
        from misspec.priors import NormalRadial, ScaledPrior
        from misspec.scenarios import IVScenario

        w = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ModelValidationError, match="Sigma must be finite"):
            LocalExperiment(Gamma_L=np.ones((2, 1)), Sigma=w, mu=np.zeros(2),
                            K=np.ones(1), W_L=np.eye(2))
        with pytest.raises(ModelValidationError, match="z_cov must be finite"):
            IVScenario(k=2, theta_ate=1.0, beta_vec=np.ones(2),
                       first_stage=np.ones(2), z_cov=w)
        with pytest.raises(ModelValidationError, match="W must be finite"):
            ScaledPrior(family=NormalRadial(), c=1.0, W=w)

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"Gamma_L": [[1.0], [np.nan], [1.0]]}, "^Gamma_L must be finite$"),
            ({"Gamma_L": [[1.0], [np.inf], [1.0]]}, "^Gamma_L must be finite$"),
            ({"Gamma_L": [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], "K": [1.0, 0.0]},
             "^limit design X = -Gamma_L, W = W_L: X is rank deficient"),
            ({"W_L": np.diag([1.0, 1.0, -1.0])},
             "^limit design X = -Gamma_L, W = W_L: W is not positive definite"),
        ],
        ids=["gamma-nan", "gamma-inf", "gamma-rank", "w-not-spd"],
    )
    def test_local_experiment_names_the_bad_input(self, bad, match):
        from misspec.inference import LocalExperiment

        args = {"Gamma_L": -np.ones((3, 1)), "Sigma": np.eye(3), "mu": np.zeros(3), "K": [1.0],
                "W_L": np.eye(3), **bad}
        with pytest.raises(ModelValidationError, match=match):
            LocalExperiment(**args)

    def test_empty_w_rejected(self):
        from misspec._linalg import spd_factor

        with pytest.raises(ModelValidationError, match="nonempty"):
            spd_factor(np.zeros((0, 0)))

    def test_near_singular_w_caught(self):
        w = np.diag([1.0, 1e-14])
        with pytest.raises(ModelValidationError):
            ModelInstance(Y=[0.0, 0.0], X=[[1.0], [1.0]], W=w)

    def test_immutable_arrays(self, canon_model):
        with pytest.raises(ValueError):
            canon_model.Y[0] = 9.9
        # The design's arrays too, C-ordered; X and W are copies of the caller's.
        x, w = np.array([[1.0, 0.5], [0.0, 1.0], [1.0, 2.0]]), np.diag([1.0, 2.0, 3.0])
        d = ModelInstance(Y=np.zeros(3), X=x, W=w).design
        x[0, 0], w[0, 0] = 7.0, 7.0
        assert d.X[0, 0] == 1.0 and d.W[0, 0] == 1.0
        for arr in (d.X, d.W, d.w_root, d.u, d.s, d.vt, d.hessian_inv, d.hessian_inv_eigenvalues):
            assert arr.flags.c_contiguous and not arr.flags.writeable


class TestInvariants:
    def test_quadratic_decomposition_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            k = rng.integers(2, 7)
            p = rng.integers(1, k + 1)
            y, x, w = random_model_arrays(rng, int(k), int(p))
            m = ModelInstance(Y=y, X=x, W=w)
            pt = pseudo_true(m)
            theta = pt.theta_w + rng.standard_normal(int(p)) * 3.0
            q = objective(m, theta)
            gap = theta - pt.theta_w
            quad = pt.j_stat + gap @ (m.X.T @ m.W @ m.X) @ gap
            assert abs(q - quad) < 1e-9 * (1.0 + q)

    def test_reweighting_equivariance(self):
        rng = np.random.default_rng(7)
        y, x, w = random_model_arrays(rng, 4, 2)
        m1 = ModelInstance(Y=y, X=x, W=w)
        m2 = ModelInstance(Y=y, X=x, W=3.5 * w)
        pt1, pt2 = pseudo_true(m1), pseudo_true(m2)
        assert_allclose(pt1.theta_w, pt2.theta_w, rtol=1e-10)
        assert_allclose(pt2.j_stat, 3.5 * pt1.j_stat, rtol=1e-10)

    def test_decomposition_identities_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            p = int(rng.integers(1, k))
            y, x, w = random_model_arrays(rng, k, p)
            m = ModelInstance(Y=y, X=x, W=w)
            theta = rng.standard_normal(p)
            dec = decompose_eta(m, theta)
            scale = np.linalg.norm(dec.eta_tilde) + 1.0
            assert_allclose(dec.eta_tilde, dec.eta_hat + dec.eta_perp, atol=1e-10 * scale)
            assert abs(dec.eta_hat @ dec.eta_perp) < 1e-10 * scale**2
            assert abs(
                dec.eta_tilde @ dec.eta_tilde
                - dec.eta_hat @ dec.eta_hat
                - dec.eta_perp @ dec.eta_perp
            ) < 1e-10 * scale**2

    def test_perp_invariance_random(self):
        rng = np.random.default_rng(13)
        y, x, w = random_model_arrays(rng, 5, 2)
        m = ModelInstance(Y=y, X=x, W=w)
        base = decompose_eta(m, rng.standard_normal(2)).eta_perp
        worst = max(
            np.max(np.abs(decompose_eta(m, rng.standard_normal(2) * 5).eta_perp - base))
            for _ in range(100)
        )
        assert worst < 1e-10

    def test_perp_norm_equals_j(self):
        rng = np.random.default_rng(17)
        y, x, w = random_model_arrays(rng, 6, 3)
        m = ModelInstance(Y=y, X=x, W=w)
        dec = decompose_eta(m, np.zeros(3))
        assert_allclose(dec.j_stat, pseudo_true(m).j_stat, rtol=1e-9)


def test_exact_fit_j_is_float_noise_at_worst():
    # Exact fit: J is never negative, at most float noise above zero.
    m = ModelInstance(Y=[1.0, 1.0, 1.0], X=[[1.0], [1.0], [1.0]], W=np.eye(3))
    j = pseudo_true(m).j_stat
    assert 0.0 <= j < 1e-12 * (1.0 + 3.0)


class TestFitOnce:
    """Every estimand of a model reuses the one fit: one eigendecomposition of
    W and one SVD of the whitened design, and no grid posterior re-forms the
    residuals Y - X theta."""

    @pytest.fixture
    def decompositions(self, monkeypatch):
        calls = []
        for name in ("eigvalsh", "eigh", "svd", "cholesky"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name,
                lambda a, *r, _fn=fn, _name=name, **k: calls.append(_name) or _fn(a, *r, **k),
            )
        return calls

    def test_analyze(self, decompositions):
        from misspec.inference import InferenceConfig, analyze

        m = ModelInstance(Y=[1.0, 1.0, 4.0], X=[[1.0], [1.0], [1.0]], W=np.eye(3))
        analyze(m, InferenceConfig(v=[1.0]), (1.0, 2.0, 3.0))
        assert decompositions == ["eigh", "svd"]

    def test_concentration_sweep(self, decompositions):
        from misspec.montecarlo import run_concentration
        from misspec.priors import NormalRadial

        m = ModelInstance(Y=[1.0, 1.0, 4.0], X=[[1.0], [1.0], [1.0]], W=np.eye(3))
        run_concentration(m, NormalRadial(), [1e-2, 1e-1, 1.0], [0.1], grid_points=101)
        assert decompositions == ["eigh", "svd"]

    def test_coverage(self, decompositions):
        from misspec import montecarlo
        from misspec.inference import InferenceConfig
        from misspec.montecarlo import DEFAULT_COVERAGE_X, run_coverage
        from misspec.posteriors import ThetaPrior
        from misspec.priors import NormalRadial, ScaledPrior

        # A fresh fixture is decomposed once; a second run on equal arrays
        # reuses the memoised fixture and decomposes nothing.
        montecarlo._fixture_from_bytes.cache_clear()
        w = np.eye(5)
        theta = ThetaPrior.gaussian([0.0, 0.0], 10.0)
        eta = ScaledPrior(family=NormalRadial(), c=1.0, W=w)
        cfg = InferenceConfig(v=[1.0, 0.0])
        decompositions.clear()
        run_coverage(DEFAULT_COVERAGE_X, w, theta, eta, cfg, reps=100, seed=1)
        assert decompositions == ["eigh", "svd"]
        decompositions.clear()
        run_coverage(DEFAULT_COVERAGE_X.copy(), w.copy(), theta, eta, cfg, reps=100, seed=1)
        assert decompositions == []

    def test_local_ci_checks_only_y(self, decompositions):
        from misspec.inference import LocalExperiment, local_ci

        exp = LocalExperiment(
            Gamma_L=-np.ones((3, 1)), Sigma=np.eye(3), mu=np.zeros(3), K=[1.0], W_L=np.eye(3)
        )
        decompositions.clear()
        for y in ([1.0, 1.0, 4.0], [0.5, -2.0, 3.0]):
            local_ci(exp, y)
        assert decompositions == []

    def test_local_experiment_decomposes_its_design_once(self, decompositions):
        from misspec.inference import LocalExperiment

        # One eigh each for Sigma and W_L, and the limit design's one SVD.
        LocalExperiment(Gamma_L=-np.ones((3, 1)), Sigma=2.0 * np.eye(3), mu=np.zeros(3), K=[1.0],
                        W_L=np.eye(3))
        assert decompositions == ["eigh", "eigh", "svd"]

    def test_sweeps_take_one_eigensolve_per_design(self, decompositions, monkeypatch):
        # Every posterior of a sweep is read off the design's SVD: a fresh
        # design takes its one eigh and one SVD, a sweep none, and no SPD check per c.
        from misspec import _linalg
        from misspec.montecarlo import run_concentration, run_contamination
        from misspec.priors import NormalRadial, ScaledPrior, StudentTRadial

        spd = _linalg.spd_factor
        monkeypatch.setattr(
            _linalg, "spd_factor", lambda *a, **k: decompositions.append("spd_factor") or spd(*a, **k)
        )

        def fresh():
            x = [[1.0, 0.5], [0.8, -0.5], [1.3, 1.0], [0.6, 1.0]]
            return ModelInstance(Y=[0.3, 2.1, -0.7, 1.4], X=x, W=np.eye(4))

        decompositions.clear()
        m = fresh()
        assert decompositions == ["spd_factor", "eigh", "svd"]
        decompositions.clear()
        run_concentration(m, NormalRadial(), np.logspace(-6, 1, 8), [0.1, 1.0])
        run_concentration(m, StudentTRadial(3.0), np.logspace(-6, 1, 8), [0.1, 1.0])
        assert decompositions == []

        m = fresh()
        contaminant = ScaledPrior(family=NormalRadial(), c=4.0, W=m.W)
        decompositions.clear()
        run_contamination(m, NormalRadial(), contaminant, 0.01, [1e-6, 1e-4, 1e-2, 1.0], [0.1, 1.0])
        assert decompositions == []

    def test_fit_is_cached(self, canon_model):
        assert pseudo_true(canon_model) is pseudo_true(canon_model)

    def test_grid_sweeps_form_no_etas(self, monkeypatch):
        # No sweep evaluates a prior density on an array of points: a radial
        # profile is read only at single values (the TV distance's crossings).
        from misspec.montecarlo import run_concentration, run_contamination
        from misspec.priors import NormalRadial, PowerLawRadial, ScaledPrior, StudentTRadial

        for family in (NormalRadial, StudentTRadial, PowerLawRadial):
            def scalar_only(self, u, k, _log_f=family.log_f):
                if np.size(u) > 1:
                    raise AssertionError("a sweep evaluated a prior density on an array")
                return _log_f(self, u, k)

            monkeypatch.setattr(family, "log_f", scalar_only)
        m1 = ModelInstance(Y=[1.0, 1.0, 4.0], X=[[1.0], [1.0], [1.0]], W=np.eye(3))
        m2 = ModelInstance(
            Y=[0.3, 2.1, -0.7, 1.4], X=[[1.0, 0.5], [0.8, -0.5], [1.3, 1.0], [0.6, 1.0]], W=np.eye(4)
        )
        for family in (NormalRadial(), StudentTRadial(3.0), PowerLawRadial(3.0)):
            run_concentration(m1, family, [1e-2, 1.0], [0.1], grid_points=101)
            run_concentration(m2, family, [1e-2, 1.0], [0.1], grid_points=51)
        contaminant = ScaledPrior(family=NormalRadial(), c=4.0, W=m1.W)
        for family in (NormalRadial(), StudentTRadial(3.0)):
            run_contamination(m1, family, contaminant, 0.01, [1e-6, 1e-2], grid_points=201)

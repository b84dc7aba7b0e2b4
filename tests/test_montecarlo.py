import numpy as np
import pytest
from numpy.testing import assert_allclose

from misspec import _kernels
from misspec.errors import ImproperPriorError, InputError, JustIdentifiedError
from misspec.inference import InferenceConfig
from misspec.montecarlo import (
    DEFAULT_COVERAGE_X,
    DEFAULT_PIVOT_X,
    SweepTrace,
    ks_statistic,
    run_concentration,
    run_contamination,
    run_coverage,
    run_pivotality,
    run_tails,
)
from misspec.posteriors import ThetaPrior
from misspec.priors import (
    NormalRadial,
    PowerLawRadial,
    ScaledPrior,
    StudentTRadial,
)

W5 = np.eye(5)
CFG = InferenceConfig(v=[1.0, 0.0], level=0.95)
GAUSS_PRIOR = ThetaPrior.gaussian([0.0, 0.0], 10.0)


def _normal_prior(c=1.0, k=5):
    return ScaledPrior(family=NormalRadial(), c=c, W=np.eye(k))


class TestCoverage:
    def test_deterministic(self):
        a = run_coverage(DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, _normal_prior(), CFG, reps=500, seed=3)
        b = run_coverage(DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, _normal_prior(), CFG, reps=500, seed=3)
        assert a.hits == b.hits
        assert a.coverage == a.hits / a.reps
        assert_allclose(a.std_err, np.sqrt(a.coverage * (1 - a.coverage) / a.reps))

    def test_chunk_schedule_independence(self):
        full = run_coverage(DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, _normal_prior(), CFG, reps=4000, seed=11)
        for chunk in (1, 7, 333, 4000):
            split = run_coverage(
                DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, _normal_prior(), CFG,
                reps=4000, seed=11, chunk_size=chunk,
            )
            assert split.hits == full.hits

    def test_seed_changes_draws(self):
        a = run_coverage(DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, _normal_prior(), CFG, reps=2000, seed=1)
        b = run_coverage(DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, _normal_prior(), CFG, reps=2000, seed=2)
        assert a.hits != b.hits

    def test_coverage_near_nominal_small_run(self):
        res = run_coverage(DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, _normal_prior(), CFG, reps=5000, seed=21)
        assert abs(res.coverage - 0.95) < 4.0 * res.std_err + 1e-9

    def test_tabulated_theta_prior(self):
        # Coverage is exact for every proper theta prior; a skewed tabulated
        # prior on a k=3, p=1 fixture must land in the binomial band too.
        x = np.array([[1.0], [0.5], [-0.5]])
        w = np.eye(3)
        grid = np.linspace(-6.0, 6.0, 4001)
        prior = ThetaPrior.tabulated(
            lambda t: float(np.exp(-abs(float(np.atleast_1d(t)[0]) - 1.0))), grid=grid
        )
        res = run_coverage(
            x, w, prior, _normal_prior(k=3), InferenceConfig(v=[1.0], level=0.9),
            reps=5000, seed=5,
        )
        assert abs(res.coverage - 0.9) < 4.0 * res.std_err + 1e-9

    def test_improper_eta_prior_rejected(self):
        improper = ScaledPrior(family=PowerLawRadial(3.0), c=1.0, W=W5)
        with pytest.raises(ImproperPriorError):
            run_coverage(DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, improper, CFG, reps=200, seed=0)

    def test_flat_theta_prior_rejected(self):
        with pytest.raises(InputError):
            run_coverage(DEFAULT_COVERAGE_X, W5, ThetaPrior.flat(), _normal_prior(), CFG, reps=200, seed=0)

    def test_mismatched_prior_weighting_rejected(self):
        prior = ScaledPrior(family=NormalRadial(), c=1.0, W=2.0 * np.eye(5))
        with pytest.raises(InputError, match="match the fixture"):
            run_coverage(DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, prior, CFG, reps=200, seed=0)

    def test_just_identified_fixture_rejected(self):
        with pytest.raises(JustIdentifiedError):
            run_coverage(np.eye(2), np.eye(2), ThetaPrior.gaussian([0.0, 0.0], 1.0),
                         _normal_prior(k=2), InferenceConfig(v=[1.0, 0.0]), reps=200, seed=0)

    def test_small_reps_warns(self):
        with pytest.warns(UserWarning, match="replications"):
            run_coverage(DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, _normal_prior(), CFG, reps=50, seed=0)

    def test_level_sweep(self):
        for level in (0.80, 0.90, 0.95, 0.99):
            cfg = InferenceConfig(v=[1.0, 0.0], level=level)
            res = run_coverage(
                DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, _normal_prior(), cfg,
                reps=20_000, seed=6,
            )
            se = np.sqrt(level * (1.0 - level) / 20_000)
            assert abs(res.coverage - level) <= 3.0 * se


class TestBackends:
    @pytest.mark.skipif(not _kernels.NUMBA_AVAILABLE, reason="numba backend unavailable")
    def test_coverage_backends_bit_identical(self):
        from misspec.montecarlo import _coverage_pieces

        fixture, a_v, b, sv = _coverage_pieces(DEFAULT_COVERAGE_X, W5, CFG.v)
        mix = fixture.w_inv_root
        args = (
            99, 0, 400, fixture.X, mix, _kernels.ETA_NORMAL, 0.0,
            _kernels.THETA_GAUSSIAN, np.zeros(2), np.full(2, 10.0),
            np.empty(0), np.empty(0), a_v, b, CFG.v, sv, 3.18, 3.0,
        )
        jit = _kernels.coverage_hits(*args, force_backend="numba")
        py = _kernels.coverage_hits(*args, force_backend="numpy")
        assert jit == py

    @pytest.mark.skipif(not _kernels.NUMBA_AVAILABLE, reason="numba backend unavailable")
    def test_pivot_backends_bit_identical(self):
        from misspec.montecarlo import _coverage_pieces

        fixture, a_v, b, sv = _coverage_pieces(DEFAULT_PIVOT_X, np.eye(4), [1.0])
        mix = fixture.w_inv_root
        for code, nu in ((_kernels.ETA_NORMAL, 0.0), (_kernels.ETA_STUDENT_T, 3.0),
                         (_kernels.ETA_SHIFTED_EXPONENTIAL, 0.0)):
            jit = _kernels.pivot_tstats(5, 0, 300, mix, code, nu, a_v, b, sv, 3.0,
                                        force_backend="numba")
            py = _kernels.pivot_tstats(5, 0, 300, mix, code, nu, a_v, b, sv, 3.0,
                                       force_backend="numpy")
            assert np.array_equal(jit, py)


class TestPivotality:
    def test_normal_radial_pivotal(self):
        ks = run_pivotality(DEFAULT_PIVOT_X, np.eye(4), _normal_prior(k=4),
                            InferenceConfig(v=[1.0]), reps=4000, seed=2)
        assert ks < 1.63 / np.sqrt(4000)

    def test_student_radial_pivotal(self):
        prior = ScaledPrior(family=StudentTRadial(3.0), c=1.0, W=np.eye(4))
        ks = run_pivotality(DEFAULT_PIVOT_X, np.eye(4), prior,
                            InferenceConfig(v=[1.0]), reps=4000, seed=2)
        assert ks < 1.63 / np.sqrt(4000)

    def test_negative_control_breaks_pivotality(self):
        ks = run_pivotality(DEFAULT_PIVOT_X, np.eye(4), _normal_prior(k=4),
                            InferenceConfig(v=[1.0]), reps=4000, seed=2,
                            negative_control=True)
        assert ks > 1.63 / np.sqrt(4000)

    def test_ks_statistic_on_known_sample(self):
        # Uniform-quantile t draws give a tiny KS distance by construction.
        from misspec.special import StudentT, t_quantile

        qs = (np.arange(1, 201) - 0.5) / 200
        samples = np.array([t_quantile(StudentT(3.0), q) for q in qs])
        assert ks_statistic(samples, 3.0) <= 0.5 / 200 + 1e-12


class TestSweeps:
    def test_concentration_trace_shape(self, canon_model):
        trace = run_concentration(canon_model, NormalRadial(), [1e-4, 1e-2], [0.1, 0.5])
        assert trace.axis_name == "c"
        assert set(trace.metrics) == {"mass_outside_0.1", "mass_outside_0.5", "posterior_sd", "bayes_action"}
        assert all(v.size == 2 for v in trace.metrics.values())

    def test_concentration_normal_sd_scaling(self, canon_model):
        # One decade in c is a factor sqrt(10) in posterior sd.
        trace = run_concentration(canon_model, NormalRadial(), [1e-4, 1e-3, 1e-2, 1e-1], [0.1])
        sds = trace.metrics["posterior_sd"]
        for a, b in zip(sds, sds[1:]):
            assert_allclose(b / a, np.sqrt(10.0), rtol=0.05)

    def test_concentration_student_sd_stabilizes(self, canon_model):
        from misspec.posteriors import posterior_sd, t_limit_posterior

        trace = run_concentration(canon_model, StudentTRadial(3.0), [1e-8, 1e-6, 1e-4], [0.1])
        sds = trace.metrics["posterior_sd"]
        assert np.max(np.abs(sds - sds[0])) < 0.01 * sds[0]
        limit_sd = posterior_sd(t_limit_posterior(canon_model, 3.0))[0]
        assert abs(sds[0] - limit_sd) < 0.03 * limit_sd

    def test_concentration_powerlaw_flat(self, canon_model):
        trace = run_concentration(canon_model, PowerLawRadial(3.0), [1e-4, 1e-2, 1.0], [0.1])
        sds = trace.metrics["posterior_sd"]
        assert np.max(np.abs(sds - sds[0])) < 1e-12

    def test_contamination_dichotomy(self, canon_model, exactfit_model):
        contam = ScaledPrior(family=NormalRadial(), c=4.0, W=np.eye(2))
        trace = run_contamination(canon_model, NormalRadial(), contam, 0.01,
                                  [1e-6, 1e-2, 1.0], eps_list=[0.05])
        tv = trace.metrics["tv_to_contaminant"]
        assert tv[0] < 0.05 and tv[2] > 0.1
        assert tv[0] <= tv[1] <= tv[2]
        trace0 = run_contamination(exactfit_model, NormalRadial(), contam, 0.01,
                                   [1e-6], eps_list=[0.05])
        assert trace0.metrics["mass_outside_0.05"][0] < 0.01

    def test_phi_half_same_limit(self, canon_model):
        contam = ScaledPrior(family=NormalRadial(), c=4.0, W=np.eye(2))
        for phi in (0.01, 0.5):
            trace = run_contamination(canon_model, NormalRadial(), contam, phi, [1e-6])
            assert trace.metrics["tv_to_contaminant"][0] < 0.05

    def test_tails_table(self):
        table = run_tails(StudentTRadial(3.0), [2.0], [1.0, 10.0], [1e-6], k=2)
        assert table.shape == (2, 4)
        assert np.max(np.abs(table[:, 3] - 0.125)) < 0.005

    def test_sweep_trace_validation(self):
        with pytest.raises(InputError):
            SweepTrace(axis_name="c", axis=[2.0, 1.0], metrics={})
        with pytest.raises(InputError):
            SweepTrace(axis_name="c", axis=[1.0, 2.0], metrics={"m": [1.0]})

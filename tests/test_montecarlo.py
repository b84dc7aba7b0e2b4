import inspect
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import misspec
from misspec import _kernels, montecarlo, posteriors
from misspec.errors import (
    ImproperPriorError,
    InputError,
    JustIdentifiedError,
)
from misspec.inference import InferenceConfig
from misspec.model import ModelInstance
from misspec.montecarlo import (
    DEFAULT_COVERAGE_X,
    DEFAULT_PIVOT_X,
    SweepTrace,
    _coverage_args,
    _pivot_args,
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
from misspec.special import StudentT, t_quantile
from oracles import (
    ks_statistic_full,
    random_model_arrays,
    scalar_coverage_hits,
    scalar_pivot_tstats,
)

W5 = np.eye(5)
CFG = InferenceConfig(v=[1.0, 0.0], level=0.95)
GAUSS_PRIOR = ThetaPrior.gaussian([0.0, 0.0], 10.0)


def _normal_prior(c=1.0, k=5):
    return ScaledPrior(family=NormalRadial(), c=c, W=np.eye(k))


def _must_not_run(*args, **kwargs):
    raise AssertionError("called before its inputs were checked")


def _forbid_posteriors(monkeypatch):
    """Fail on building any closed-form posterior: a sweep's path, or one c's."""
    # closed_form_posterior is the one-c path, built through the posteriors module.
    for module in (montecarlo, posteriors):
        monkeypatch.setattr(module, "_PosteriorPath", _must_not_run)


def _both_runs_reject(match, reps=200, seed=0):
    """Both runs on their default fixtures raise an InputError matching ``match``."""
    with pytest.raises(InputError, match=match):
        run_coverage(DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, _normal_prior(), CFG, reps=reps, seed=seed)
    with pytest.raises(InputError, match=match):
        run_pivotality(DEFAULT_PIVOT_X, np.eye(4), _normal_prior(k=4), InferenceConfig(v=[1.0]),
                       reps=reps, seed=seed)


class TestCoverage:
    def test_deterministic(self):
        a = run_coverage(DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, _normal_prior(), CFG, reps=500, seed=3)
        b = run_coverage(DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, _normal_prior(), CFG, reps=500, seed=3)
        assert a.hits == b.hits
        assert a.coverage == a.hits / a.reps
        assert_allclose(a.std_err, np.sqrt(a.coverage * (1 - a.coverage) / a.reps))

    def test_chunk_schedule_independence(self):
        # Counter-based streams: any split of the replication range gives the
        # same per-replication results, so hits sum and t statistics concatenate.
        args = _coverage_args(DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, _normal_prior(), CFG)
        full = _kernels.coverage_hits(11, 0, 4000, *args)
        piv = _pivot_args(DEFAULT_PIVOT_X, np.eye(4), _normal_prior(k=4), [1.0])
        full_t = _kernels.pivot_tstats(11, 0, 4000, *piv)
        for cuts in ((0, 4000), (0, 1, 8, 341, 4000), (0, 2999, 3000, 4000)):
            ranges = list(zip(cuts, cuts[1:]))
            assert sum(_kernels.coverage_hits(11, lo, hi, *args) for lo, hi in ranges) == full
            split_t = np.concatenate([_kernels.pivot_tstats(11, lo, hi, *piv) for lo, hi in ranges])
            assert np.array_equal(split_t, full_t)

    def test_seed_changes_draws(self):
        a = run_coverage(DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, _normal_prior(), CFG, reps=2000, seed=1)
        b = run_coverage(DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, _normal_prior(), CFG, reps=2000, seed=2)
        assert a.hits != b.hits

    def test_coverage_near_nominal_small_run(self):
        res = run_coverage(DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, _normal_prior(), CFG, reps=5000, seed=21)
        assert abs(res.coverage - 0.95) < 4.0 * res.std_err + 1e-9

    def test_improper_eta_prior_rejected(self):
        improper = ScaledPrior(family=PowerLawRadial(3.0), c=1.0, W=W5)
        with pytest.raises(ImproperPriorError):
            run_coverage(DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, improper, CFG, reps=200, seed=0)

    def test_mismatched_prior_weighting_rejected(self):
        prior = ScaledPrior(family=NormalRadial(), c=1.0, W=2.0 * np.eye(5))
        with pytest.raises(InputError, match="match the fixture"):
            run_coverage(DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, prior, CFG, reps=200, seed=0)

    def test_just_identified_fixture_rejected(self):
        with pytest.raises(JustIdentifiedError):
            run_coverage(np.eye(2), np.eye(2), ThetaPrior.gaussian([0.0, 0.0], 1.0),
                         _normal_prior(k=2), InferenceConfig(v=[1.0, 0.0]), reps=200, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.0, True, "3"])
    def test_seed_outside_uint64_rejected(self, seed):
        _both_runs_reject("seed", seed=seed)

    @pytest.mark.parametrize("reps", [0, -1, 150.5, 200.0, True, "200"])
    def test_reps_outside_range_rejected_before_the_kernel(self, reps, monkeypatch):
        monkeypatch.setattr(_kernels, "coverage_hits", _must_not_run)
        monkeypatch.setattr(_kernels, "pivot_tstats", _must_not_run)
        _both_runs_reject("reps", reps=reps)

    @pytest.mark.parametrize("reps", [montecarlo._MAX_PIVOT_REPS + 1, 10**13])
    def test_only_pivotality_caps_reps(self, reps, monkeypatch):
        # pivot_tstats allocates one float64 per replication; coverage_hits
        # counts block by block, so a coverage run of any size is accepted.
        monkeypatch.setattr(_kernels, "pivot_tstats", _must_not_run)
        monkeypatch.setattr(_kernels, "coverage_hits", lambda *args: 0)
        res = run_coverage(DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, _normal_prior(), CFG, reps=reps, seed=0)
        assert res.reps == reps and res.config["reps"] == reps
        with pytest.raises(InputError, match="at most"):
            run_pivotality(DEFAULT_PIVOT_X, np.eye(4), _normal_prior(k=4), InferenceConfig(v=[1.0]),
                           reps=reps, seed=0)

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


def _dense_fixture():
    """k=12, p=3 fixture with a dense SPD weighting matrix."""
    rng = np.random.default_rng(12)
    _, x, w = random_model_arrays(rng, 12, 3)
    return x, w, InferenceConfig(v=rng.standard_normal(3), level=0.95)


# t:1 has chi-square shape 1/2 < 1, the boosted branch of the gamma sampler.
FAMILIES = {"normal": NormalRadial(), "t:3": StudentTRadial(3.0), "t:1": StudentTRadial(1.0)}


class TestKernelOracle:
    """The batched kernels equal the scalar reference in ``oracles`` exactly."""

    @pytest.mark.parametrize("family", [*FAMILIES, "control"])
    @pytest.mark.parametrize("fixture", ["k4", "k12"])
    def test_pivot_tstats(self, family, fixture):
        if fixture == "k4":
            x, w, reps = DEFAULT_PIVOT_X, np.eye(4), 400
        else:
            (x, w, _), reps = _dense_fixture(), 150
        prior = ScaledPrior(family=FAMILIES.get(family, NormalRadial()), c=2.0, W=w)
        args = (5, 0, reps, *_pivot_args(x, w, prior, np.eye(x.shape[1])[0], family == "control"))
        assert np.array_equal(_kernels.pivot_tstats(*args), scalar_pivot_tstats(*args))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("fixture", ["k5", "k12"])
    def test_coverage_hits(self, family, fixture):
        if fixture == "k5":
            x, w, cfg, theta, reps = DEFAULT_COVERAGE_X, W5, CFG, GAUSS_PRIOR, 400
        else:
            x, w, cfg = _dense_fixture()
            theta, reps = ThetaPrior.gaussian([0.5, -1.0, 2.0], [1.0, 3.0, 0.5]), 150
        eta = ScaledPrior(family=FAMILIES[family], c=0.5, W=w)
        # A low level and a small prior scale keep hits well away from 0 and reps.
        cfg = InferenceConfig(v=cfg.v, level=0.5)
        hits = _kernels.coverage_hits(8, 0, reps, *_coverage_args(x, w, theta, eta, cfg))
        assert hits == scalar_coverage_hits(8, 0, reps, x, w, theta, eta, cfg)
        assert 0 < hits < reps

    def test_rep_range_crossing_a_block(self):
        lo, hi = _kernels._BLOCK - 150, _kernels._BLOCK + 150
        cov = (DEFAULT_COVERAGE_X, W5, GAUSS_PRIOR, ScaledPrior(StudentTRadial(3.0), 1.0, W5), CFG)
        assert _kernels.coverage_hits(3, lo, hi, *_coverage_args(*cov)) == scalar_coverage_hits(
            3, lo, hi, *cov
        )
        piv = (3, lo, hi, *_pivot_args(DEFAULT_PIVOT_X, np.eye(4),
                                       ScaledPrior(StudentTRadial(1.0), 1.0, np.eye(4)), [1.0]))
        assert np.array_equal(_kernels.pivot_tstats(*piv), scalar_pivot_tstats(*piv))

    def test_runs_pass_the_builders_tuples(self, monkeypatch):
        seen = []
        for name in ("coverage_hits", "pivot_tstats"):
            kernel = getattr(_kernels, name)
            monkeypatch.setattr(_kernels, name, lambda *a, _kernel=kernel: seen.append(a) or _kernel(*a))
        x, w, cfg = _dense_fixture()
        theta = ThetaPrior.gaussian([0.5, -1.0, 2.0], [1.0, 3.0, 0.5])
        eta = ScaledPrior(StudentTRadial(3.0), 0.5, w)
        run_coverage(x, w, theta, eta, cfg, reps=150, seed=4)
        run_pivotality(x, w, eta, cfg, reps=150, seed=4)
        run_pivotality(x, w, eta, cfg, reps=150, seed=4, negative_control=True)
        expected = [
            (4, 0, 150, *_coverage_args(x, w, theta, eta, cfg)),
            (4, 0, 150, *_pivot_args(x, w, eta, cfg.v)),
            (4, 0, 150, *_pivot_args(x, w, eta, cfg.v, negative_control=True)),
        ]
        assert [len(args) for args in seen] == [len(args) for args in expected]
        for got, want in zip(seen, expected):
            assert all(type(g) is type(e) and np.array_equal(g, e) for g, e in zip(got, want))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("a_scale", [1.0, 0.0])
    def test_zero_j_is_a_miss_and_a_non_finite_t(self, family, a_scale):
        # With B = 0 every J is 0: T is a_v'eta / 0, +-inf or (a_v = 0) NaN,
        # so no replication covers, and neither kernel warns.
        prior = ScaledPrior(family=FAMILIES[family], c=1.0, W=np.eye(4))
        mix, code, nu, a_v, b, sv, km_p = _pivot_args(DEFAULT_PIVOT_X, np.eye(4), prior, [1.0])
        args = (mix, code, nu, a_scale * a_v, np.zeros_like(b), sv)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hits = _kernels.coverage_hits(2, 0, 300, 2, *args, 1.96, km_p)
            tstats = _kernels.pivot_tstats(2, 0, 300, *args, km_p)
        assert hits == 0
        assert tstats.shape == (300,) and not np.isfinite(tstats).any()

    @pytest.mark.parametrize("name, index", [("coverage_hits", 5), ("pivot_tstats", 4)])
    def test_eta_code_position(self, name, index):
        # perfbench/tracing.py labels the per-family kernel timings by the
        # positional argument at this index.
        params = list(inspect.signature(getattr(_kernels, name)).parameters)
        assert params.index("eta_code") == index

    def test_backend_name(self):
        assert _kernels.backend() == "numpy"


class TestFixtureMemo:
    """(X, W) is validated and factored once per distinct content."""

    def test_equal_arrays_share_one_fixture(self):
        x, w, _ = _dense_fixture()
        assert montecarlo._fixture(x, w) is montecarlo._fixture(x.copy(), w.copy())

    def test_arrays_changed_in_place_are_refit(self):
        x, w, cfg = _dense_fixture()
        theta = ThetaPrior.gaussian([0.5, -1.0, 2.0], [1.0, 3.0, 0.5])
        stale_b = _pivot_args(x, w, ScaledPrior(StudentTRadial(3.0), 0.5, w), cfg.v)[4]
        x[0, 0] += 0.5
        w *= 2.0
        eta = ScaledPrior(StudentTRadial(3.0), 0.5, w.copy())
        assert not np.array_equal(_pivot_args(x, w, eta, cfg.v)[4], stale_b)
        got = (run_coverage(x, w, theta, eta, cfg, reps=300, seed=4),
               run_pivotality(x, w, eta, cfg, reps=300, seed=4))
        montecarlo._fixture_from_bytes.cache_clear()
        x, w = x.copy(), w.copy()
        assert got == (run_coverage(x, w, theta, eta, cfg, reps=300, seed=4),
                       run_pivotality(x, w, eta, cfg, reps=300, seed=4))

    def test_invalid_weight_raises_on_every_call(self):
        w = np.eye(4)
        w[0, 0] = -1.0
        misses = montecarlo._fixture_from_bytes.cache_info().misses
        for _ in range(2):
            with pytest.raises(InputError, match="positive definite"):
                _pivot_args(DEFAULT_PIVOT_X, w, _normal_prior(k=4), [1.0])
        assert montecarlo._fixture_from_bytes.cache_info().misses == misses + 2

    def test_cached_arrays_are_read_only(self):
        fixture = montecarlo._fixture(DEFAULT_COVERAGE_X, W5)
        for arr in (fixture.a, fixture.b, fixture.model.X, fixture.model.W):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


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

    def test_ks_evaluates_the_cdf_on_few_samples(self, monkeypatch):
        # Counts evaluated points, never time: at most a quarter of 2000.
        evaluated = []
        cdf = montecarlo.t_cdf
        monkeypatch.setattr(
            montecarlo, "t_cdf", lambda dist, x: evaluated.append(np.size(x)) or cdf(dist, x)
        )
        for seed in range(3):
            evaluated.clear()
            run_pivotality(DEFAULT_PIVOT_X, np.eye(4), _normal_prior(k=4),
                           InferenceConfig(v=[1.0]), reps=2000, seed=seed)
            assert 0 < sum(evaluated) <= 0.25 * 2000

    @pytest.mark.parametrize("edge", ["low", "high"])
    def test_ks_bracket_is_tight_at_segment_edges(self, edge):
        # Samples at t quantiles u_i, 64 of them (knots every 8th).  A run of ties
        # puts the largest term, 7.5/64, next to knot 8 or 16, where it equals
        # that bound of its segment while the segment's other bound is below the
        # runner-up term, 7/64, held by knot 40.
        u = (np.arange(64) + 0.5) / 64
        if edge == "low":  # i/n - F_i at the segment's last interior sample
            u[8:16], u[16], u[34:41] = u[8], 12 / 64, 34 / 64
        else:  # F_i - (i-1)/n at the segment's first interior sample
            u[8], u[9:17], u[40:48] = 9.5 / 64, u[16], 47 / 64
        samples = [t_quantile(StudentT(3.0), q) for q in u]
        ks = ks_statistic(samples, 3.0)
        assert ks == ks_statistic_full(samples, 3.0)
        assert abs(ks - 7.5 / 64) < 1e-12

    def test_ks_statistic_on_known_sample(self):
        # Uniform-quantile t draws give a tiny KS distance by construction.
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
        from misspec.posteriors import closed_form_posterior

        trace = run_concentration(canon_model, StudentTRadial(3.0), [1e-8, 1e-6, 1e-4], [0.1])
        sds = trace.metrics["posterior_sd"]
        assert np.max(np.abs(sds - sds[0])) < 0.01 * sds[0]
        limit_sd = closed_form_posterior(canon_model, StudentTRadial(3.0), 0.0).marginal_sd()[0]
        assert abs(sds[0] - limit_sd) < 0.03 * limit_sd

    def test_package_has_no_grid_posterior(self):
        # The sweeps read closed forms; the grid posterior is a test oracle only.
        from misspec import errors, posteriors, priors, serialize

        removed = {
            "GridSpec", "GridPosterior", "grid_posterior", "bayes_action_grid", "GridError",
            "ContaminatedPrior", "mixture_density", "grid_to_csv", "check_point_counts",
        }
        for module in (misspec, posteriors, priors, serialize, errors):
            assert removed.isdisjoint(vars(module)), module.__name__
        assert not hasattr(ThetaPrior, "tabulated") and not hasattr(ThetaPrior, "flat")

    @pytest.mark.parametrize("family", [NormalRadial(), StudentTRadial(3.0), PowerLawRadial(3.0)])
    def test_concentration_builds_no_grid(self, canon_model, family):
        m2 = ModelInstance(
            Y=[0.3, 2.1, -0.7, 1.4], X=[[1.0, 0.5], [0.8, -0.5], [1.3, 1.0], [0.6, 1.0]], W=np.eye(4)
        )
        for model in (canon_model, m2):
            trace = run_concentration(model, family, [1e-6, 1e-2, 1.0], [0.1, 0.5])
            assert all(np.all(np.isfinite(v)) for v in trace.metrics.values())

    @pytest.mark.parametrize("base", [NormalRadial(), StudentTRadial(3.0)])
    @pytest.mark.parametrize("contaminant", [NormalRadial(), StudentTRadial(30.0)])
    def test_contamination_builds_no_grid(self, canon_model, base, contaminant):
        for name in ("_composite_axis", "_family_sd_estimate"):
            assert not hasattr(montecarlo, name)
        contam = ScaledPrior(family=contaminant, c=4.0, W=np.eye(2))
        trace = run_contamination(canon_model, base, contam, 0.01, [1e-6, 1e-2, 1.0], [0.05, 0.5])
        assert all(np.all((v >= 0.0) & (v <= 1.0)) for v in trace.metrics.values())

    def test_concentration_grid_points_not_truncated(self, canon_model):
        with pytest.raises(InputError, match="integer"):
            run_concentration(canon_model, NormalRadial(), [0.5], [0.1], grid_points=3.7)

    @pytest.mark.parametrize(
        "c_grid", [[1e-2, 1e-4], [1e-2, 0.0], [-1.0, 1.0], [1e-2, np.inf], [np.nan], []]
    )
    def test_c_grid_checked_before_any_posterior(self, canon_model, c_grid, monkeypatch):
        _forbid_posteriors(monkeypatch)
        contam = ScaledPrior(family=NormalRadial(), c=4.0, W=np.eye(2))
        with pytest.raises(InputError, match="c_grid"):
            run_concentration(canon_model, NormalRadial(), c_grid, [0.1])
        with pytest.raises(InputError, match="c_grid"):
            run_contamination(canon_model, NormalRadial(), contam, 0.01, c_grid)

    @pytest.mark.parametrize("eps_list", [[0.1, 0.1], [0.05, 0.1, 0.1000001]])
    def test_eps_printing_alike_rejected_before_any_posterior(self, canon_model, eps_list, monkeypatch):
        # Each eps names the metric mass_outside_<eps:g>; two that print alike
        # would collide in the trace.
        _forbid_posteriors(monkeypatch)
        contam = ScaledPrior(family=NormalRadial(), c=4.0, W=np.eye(2))
        match = r"eps values 0\.1 and 0\.1(000001)? both give the metric 'mass_outside_0\.1'"
        with pytest.raises(InputError, match=match):
            run_concentration(canon_model, NormalRadial(), [1e-2], eps_list)
        with pytest.raises(InputError, match=match):
            run_contamination(canon_model, NormalRadial(), contam, 0.01, [1e-2], eps_list)

    @pytest.mark.parametrize("eps", [0.0, -0.1, np.nan])
    def test_nonpositive_eps_rejected_before_any_posterior(self, canon_model, eps, monkeypatch):
        _forbid_posteriors(monkeypatch)
        contam = ScaledPrior(family=NormalRadial(), c=4.0, W=np.eye(2))
        with pytest.raises(InputError, match="ball radius must be positive"):
            run_concentration(canon_model, NormalRadial(), [1e-2], [0.1, eps])
        with pytest.raises(InputError, match="ball radius must be positive"):
            run_contamination(canon_model, NormalRadial(), contam, 0.01, [1e-2], [0.1, eps])

    def test_improper_contamination_rejected_before_any_posterior(self, canon_model, monkeypatch):
        _forbid_posteriors(monkeypatch)
        proper = ScaledPrior(family=NormalRadial(), c=4.0, W=np.eye(2))
        improper = ScaledPrior(family=PowerLawRadial(2.0), c=4.0, W=np.eye(2))
        with pytest.raises(ImproperPriorError):
            run_contamination(canon_model, NormalRadial(), improper, 0.01, [1e-2])
        with pytest.raises(ImproperPriorError):
            run_contamination(canon_model, PowerLawRadial(2.0), proper, 0.01, [1e-2])

    def test_sweeps_build_no_posterior_per_c(self, canon_model, monkeypatch):
        # Neither sweep builds a ClosedFormPosterior (a contamination sweep reads
        # its contaminant off a one-c path), and at p = 1 a t or power-law mass
        # is one t CDF call per eps over the whole c axis: in a concentration sweep,
        # where the bounds lie below the centre, one stdtr call.
        import scipy.special

        built, cdf_points, stdtr_calls = [], [], []
        init = posteriors.ClosedFormPosterior.__post_init__
        monkeypatch.setattr(
            posteriors.ClosedFormPosterior, "__post_init__", lambda q: built.append(q) or init(q)
        )
        t_cdf = posteriors.t_cdf_floats
        monkeypatch.setattr(posteriors, "t_cdf_floats", lambda d, x: cdf_points.append(len(x)) or t_cdf(d, x))
        stdtr = scipy.special.stdtr
        monkeypatch.setattr(scipy.special, "stdtr", lambda d, x: stdtr_calls.append(len(x)) or stdtr(d, x))
        m2 = ModelInstance(
            Y=[0.3, 2.1, -0.7, 1.4], X=[[1.0, 0.5], [0.8, -0.5], [1.3, 1.0], [0.6, 1.0]], W=np.eye(4)
        )
        c_grid = np.logspace(-6, 1, 8)
        for family in (NormalRadial(), StudentTRadial(3.0), PowerLawRadial(3.0)):
            for model in (canon_model, m2):
                run_concentration(model, family, c_grid, [0.1, 0.5, 1.0])
        assert built == []
        assert cdf_points == stdtr_calls == [16] * 6
        cdf_points.clear()
        contam = ScaledPrior(family=NormalRadial(), c=4.0, W=np.eye(2))
        run_contamination(canon_model, StudentTRadial(3.0), contam, 0.01, c_grid, [0.1, 0.5])
        assert built == []
        assert cdf_points == [16, 16]

    def test_p2_masses_take_one_angular_evaluation_per_eps(self, monkeypatch):
        # tests/golden/m2.json's rows converge at 128 angular nodes, and the first
        # evaluation covers the levels of 8 to 128: one (rows x 128) call per eps.
        calls = []
        level_sums = posteriors._level_sums
        monkeypatch.setattr(
            posteriors, "_level_sums", lambda *a, **kw: calls.append(a[3:6]) or level_sums(*a, **kw)
        )
        m2 = ModelInstance(
            Y=[0.3, 2.1, -0.7, 1.4, 0.2],
            X=[[1.0, 0.5], [0.8, -0.5], [1.3, 1.0], [0.6, 1.0], [0.2, -1.0]],
            W=np.eye(5),
        )
        eps_list = [0.05, 0.1, 0.3, 1.0]
        for family in (NormalRadial(), StudentTRadial(5.0), PowerLawRadial(3.0)):
            calls.clear()
            run_concentration(m2, family, [1e-6, 1e-4, 1e-2, 1.0], eps_list)
            assert len(calls) == len(eps_list)
            assert all(n == posteriors._HEAD_NODES == 128 and offset == 0.0 for _, n, offset in calls)

    def test_concentration_computes_no_log_evidence(self, canon_model, monkeypatch):
        # Only mixture weights read evidences, and a concentration sweep has none.
        def refuse(*args):
            raise AssertionError("computed a log evidence")

        for family in (NormalRadial, StudentTRadial):
            monkeypatch.setattr(family, "log_evidence", refuse)
        m2 = ModelInstance(
            Y=[0.3, 2.1, -0.7, 1.4], X=[[1.0, 0.5], [0.8, -0.5], [1.3, 1.0], [0.6, 1.0]], W=np.eye(4)
        )
        for family in (NormalRadial(), StudentTRadial(3.0), PowerLawRadial(3.0)):
            for model in (canon_model, m2):
                run_concentration(model, family, np.logspace(-6, 1, 8), [0.1, 0.5])
        contam = ScaledPrior(family=NormalRadial(), c=4.0, W=np.eye(2))
        with pytest.raises(AssertionError, match="computed a log evidence"):
            run_contamination(canon_model, NormalRadial(), contam, 0.01, [1e-2])

    @pytest.mark.parametrize(
        "family, exact, refusal",
        [
            (NormalRadial(), False, "prior scale c must be positive, got 0.0"),
            (StudentTRadial(3.0), True, "t:3 posterior at c = 0 requires a positive J-statistic"),
        ],
    )
    def test_first_refused_c_is_named(self, family, exact, refusal):
        # On X x 2^-60 the scale at c = 1e300 overflows, and c = 0 is refused by
        # the family's shape (a zero normal spread; a t scale of J alone at J = 0):
        # whichever comes first along the grid is the c named.
        x = np.ldexp(np.array([[1.0], [0.5], [-0.25]]), -60)
        m = ModelInstance(Y=x[:, 0] if exact else [0.3, -1.2, 0.8], X=x, W=np.eye(3))
        overflow = "posterior at prior scale c = 1e+300 is unrepresentable: scale must be finite"
        with pytest.raises(InputError) as first:
            posteriors._PosteriorPath(m, family, [1.0, 1e300, 0.0])
        assert str(first.value) == overflow
        with pytest.raises(InputError) as first:
            posteriors._PosteriorPath(m, family, [1.0, 0.0, 1e300])
        assert str(first.value).startswith(refusal)

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

    @pytest.mark.parametrize("points", [-5, 0, 1, 401.0, True, 2001**2 + 1])
    def test_contamination_grid_points_validated(self, canon_model, points):
        contam = ScaledPrior(family=NormalRadial(), c=4.0, W=np.eye(2))
        with pytest.raises(InputError, match="integer|exceeds"):
            run_contamination(canon_model, NormalRadial(), contam, 0.01, [1e-2],
                              grid_points=points)

    def test_phi_half_same_limit(self, canon_model):
        contam = ScaledPrior(family=NormalRadial(), c=4.0, W=np.eye(2))
        for phi in (0.01, 0.5):
            trace = run_contamination(canon_model, NormalRadial(), contam, phi, [1e-6])
            assert trace.metrics["tv_to_contaminant"][0] < 0.05

    def test_tails_table(self):
        table = run_tails(StudentTRadial(3.0), [2.0], [1.0, 10.0], [1e-6], k=2)
        assert table.shape == (2, 4)
        assert np.max(np.abs(table[:, 3] - 0.125)) < 0.005

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_normal_tail_below_underflow_is_zero(self, k):
        table = run_tails(NormalRadial(), [4.0], [10.0], [1e-6], k=k)
        assert table.tolist() == [[4.0, 10.0, 1e-6, 0.0]]

    def test_tails_form_no_weight_matrix(self):
        # A k x k matrix at this k would need 8 TB.
        for family in (NormalRadial(), StudentTRadial(3.0)):
            table = run_tails(family, [2.0], [1.0], [1e-4], k=10**6)
            assert table.shape == (1, 4) and np.all(np.isfinite(table))

    def test_tails_validate_scale(self):
        for c in (0.0, -1.0, np.inf):
            with pytest.raises(InputError):
                run_tails(NormalRadial(), [2.0], [1.0], [c])
        with pytest.raises(ImproperPriorError):
            run_tails(PowerLawRadial(2.0), [2.0], [1.0], [1.0])

    @pytest.mark.parametrize(
        "axis",
        [[], [math.nan], [1.0, math.nan], [math.nan, 1.0], [math.inf], [1.0, math.inf], [-math.inf, 1.0],
         [0.0], [0.0, 1.0], [-1.0], [1.0, 1.0], [1e-2, 1.0, 1.0], [2.0, 1.0], [1e-4, 1e-2, 1e-3]],
    )
    def test_sweep_axis_refusals(self, canon_model, axis):
        message = "c_grid must be finite, positive and strictly increasing"
        with pytest.raises(InputError, match=f"^{message}$"):
            run_concentration(canon_model, NormalRadial(), axis, [0.1])
        with pytest.raises(InputError, match="^sweep axis c must be finite, positive and strictly increasing$"):
            SweepTrace(axis_name="c", axis=axis, metrics={})

    def test_sweep_axis_is_one_dimensional(self, canon_model):
        with pytest.raises(InputError, match="c_grid must be one-dimensional"):
            run_concentration(canon_model, NormalRadial(), [[1e-2, 1.0]], [0.1])

    def test_sweep_trace_validation(self):
        with pytest.raises(InputError):
            SweepTrace(axis_name="c", axis=[2.0, 1.0], metrics={})
        with pytest.raises(InputError):
            SweepTrace(axis_name="c", axis=[1.0, 2.0], metrics={"m": [1.0]})

"""Acceptance suite: one test per headline guarantee, at stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in the
captured output section) plus its runtime, so the suite doubles as a readable
verification report.
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
from numpy.testing import assert_allclose

import pytest

from misspec.inference import (
    InferenceConfig,
    LocalExperiment,
    confidence_interval,
    finite_sample_ci,
    identified_set_membership,
    identified_set_projection,
    local_ci,
)
from misspec.model import ModelInstance, pseudo_true
from misspec.montecarlo import (
    DEFAULT_COVERAGE_X,
    DEFAULT_PIVOT_X,
    run_concentration,
    run_contamination,
    run_coverage,
    run_pivotality,
    run_tails,
)
from misspec.posteriors import (
    MixturePosterior,
    ThetaPrior,
    closed_form_posterior,
    mass_outside_ball,
    normal_posterior,
)
from misspec.priors import NormalRadial, PowerLawRadial, ScaledPrior, StudentTRadial
from misspec.serialize import load_model
from misspec.special import StudentT, t_cdf, t_quantile
from oracles import grid_posterior, t_quantile_quad


@contextmanager
def _criterion(num: int, name: str, budget_s: float, report=None):
    emit = report or print
    start = time.perf_counter()
    try:
        yield
    except Exception:
        emit(f"ACCEPTANCE {num:2d} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    emit(f"ACCEPTANCE {num:2d} ({name}): PASS [{elapsed:.2f}s <= {budget_s:.0f}s]")
    assert elapsed < budget_s


CANON = ModelInstance(Y=[0.0, 2.0], X=[[1.0], [1.0]], W=np.eye(2))
EXACT_FIT = ModelInstance(Y=[3.0, 3.0], X=[[1.0], [1.0]], W=np.eye(2))


def test_criterion_1_exact_average_coverage(acceptance_report):
    with _criterion(1, "exact average coverage", 30.0 * 3, report=acceptance_report):
        w = np.eye(5)
        cfg = InferenceConfig(v=[1.0, 0.0], level=0.95)
        theta_prior = ThetaPrior.gaussian([0.0, 0.0], 10.0)
        runs = {
            "normal c=1": ScaledPrior(family=NormalRadial(), c=1.0, W=w),
            "t(5) c=1": ScaledPrior(family=StudentTRadial(5.0), c=1.0, W=w),
            "normal c=100": ScaledPrior(family=NormalRadial(), c=100.0, W=w),
        }
        for label, eta_prior in runs.items():
            start = time.perf_counter()
            res = run_coverage(
                DEFAULT_COVERAGE_X, w, theta_prior, eta_prior, cfg,
                reps=20_000, seed=42,
            )
            elapsed = time.perf_counter() - start
            assert 0.944 <= res.coverage <= 0.956, (label, res.coverage)
            assert elapsed < 30.0, (label, elapsed)


def test_criterion_2_pivotality(acceptance_report):
    with _criterion(2, "pivotal t statistics", 10.0, report=acceptance_report):
        w = np.eye(4)
        cfg = InferenceConfig(v=[1.0], level=0.95)
        threshold = 1.63 / math.sqrt(10_000)
        for prior in (
            ScaledPrior(family=NormalRadial(), c=1.0, W=w),
            ScaledPrior(family=StudentTRadial(3.0), c=1.0, W=w),
        ):
            ks = run_pivotality(DEFAULT_PIVOT_X, w, prior, cfg, reps=10_000, seed=7)
            assert ks < threshold, ks
        ks_ctrl = run_pivotality(
            DEFAULT_PIVOT_X, w,
            ScaledPrior(family=NormalRadial(), c=1.0, W=w),
            cfg, reps=10_000, seed=7, negative_control=True,
        )
        assert ks_ctrl > threshold, ks_ctrl


def test_criterion_3_grid_vs_closed_form(acceptance_report):
    with _criterion(3, "closed form vs grid posterior", 5.0, report=acceptance_report):
        # Normal radial: pointwise density error below 1e-6.
        c = 0.5
        sd = 0.5
        grid = {"bounds": [(1.0 - 8 * sd, 1.0 + 8 * sd)], "points": 2001}
        post = grid_posterior(
            CANON, ScaledPrior(family=NormalRadial(), c=c, W=np.eye(2)).log_radial, **grid
        )
        oracle = normal_posterior(CANON, c).density(post.points())
        assert np.max(np.abs(post.density - oracle)) < 1e-6

        # t radial at c = 1e-8 against the t-limit closed form on the same
        # (trapezoid-renormalized) support.
        limit = closed_form_posterior(CANON, StudentTRadial(3.0), 0.0)
        sd_t = math.sqrt(limit.scale[0, 0] * limit.dof / (limit.dof - 2.0))
        post_t = grid_posterior(
            CANON, ScaledPrior(family=StudentTRadial(3.0), c=1e-8, W=np.eye(2)).log_radial,
            bounds=[(1.0 - 8 * sd_t, 1.0 + 8 * sd_t)], points=2001,
        )
        dens_t = limit.density(post_t.points())
        dens_t /= np.sum(post_t.cell * dens_t)
        assert np.max(np.abs(post_t.density - dens_t)) < 2e-4

        # Power-law grids are identical for every scale c.
        grids = [
            grid_posterior(
                CANON, ScaledPrior(family=PowerLawRadial(3.0), c=cc, W=np.eye(2)).log_radial, **grid
            ).density
            for cc in (1e-3, 1.0, 1e3)
        ]
        assert np.max(np.abs(grids[0] - grids[1])) < 1e-12
        assert np.max(np.abs(grids[1] - grids[2])) < 1e-12


def test_criterion_4_posterior_concentration(acceptance_report):
    with _criterion(4, "posterior concentration", 5.0, report=acceptance_report):
        trace = run_concentration(
            CANON, NormalRadial(), [1e-6, 4e-6, 1.6e-5, 6.4e-5], [0.1]
        )
        assert trace.metrics["mass_outside_0.1"][0] < 1e-8
        sds = trace.metrics["posterior_sd"]
        for a, b in zip(sds, sds[1:]):
            assert abs(b / a - 2.0) < 0.05 * 2.0
        # With J > 0 a t-family posterior does not concentrate: as c -> 0 its
        # mass outside the ball tends to the closed form at spread J.
        m1 = load_model(os.path.join(os.path.dirname(__file__), "golden", "m1.json"))
        trace = run_concentration(m1, StudentTRadial(5.0), [1e-10, 1e-8, 1e-6], [0.1])
        limit_post = closed_form_posterior(m1, StudentTRadial(5.0), 0.0)
        limit = mass_outside_ball(limit_post, limit_post.center, 0.1)
        assert abs(limit - 0.7741) < 1e-4
        masses = trace.metrics["mass_outside_0.1"]
        assert abs(masses[-1] - 0.7741) < 1e-4
        assert np.all(np.abs(masses - limit) <= [1e-8, 1e-6, 1e-4])


def test_criterion_5_contamination_fragility(acceptance_report):
    with _criterion(5, "contamination fragility", 10.0, report=acceptance_report):
        contaminant = ScaledPrior(family=NormalRadial(), c=4.0, W=np.eye(2))
        trace = run_contamination(
            CANON, NormalRadial(), contaminant, 0.01, [1e-6], eps_list=[0.05]
        )
        assert trace.metrics["tv_to_contaminant"][0] < 0.05
        trace0 = run_contamination(
            EXACT_FIT, NormalRadial(), contaminant, 0.01, [1e-6], eps_list=[0.05]
        )
        assert trace0.metrics["mass_outside_0.05"][0] < 0.01
        # Fragile to small changes in priors: with J > 0 the base posterior's
        # weight 1 - w vanishes as c shrinks, below 1e-100 at c = 1e-2 on m1;
        # at an exact fit (J = 0, k > p) the contaminant's weight w does.
        def weights(model, c):
            base, contam = (closed_form_posterior(model, NormalRadial(), s) for s in (c, 4.0))
            return MixturePosterior(base=base, contaminant=contam, phi=0.01).weights()

        m1 = load_model(os.path.join(os.path.dirname(__file__), "golden", "m1.json"))
        assert pseudo_true(m1).j_stat > 1.0 and pseudo_true(EXACT_FIT).j_stat < 1e-30
        c_grid = [1.0, 1e-1, 1e-2, 1e-4]
        for model, vanishing in ((m1, 0), (CANON, 0), (EXACT_FIT, 1)):
            w = [weights(model, c)[vanishing] for c in c_grid]
            assert all(b < a for a, b in zip(w, w[1:])) and w[-1] < 1e-4, w
        assert 0.0 < weights(m1, 1e-2)[0] < 1e-100
        # The same at p = 2: m2, and an exact fit with m2's X.
        m2 = load_model(os.path.join(os.path.dirname(__file__), "golden", "m2.json"))
        exact2 = ModelInstance(Y=m2.X @ [0.5, -1.0], X=m2.X, W=m2.W)
        contaminant2 = ScaledPrior(family=NormalRadial(), c=4.0, W=m2.W)
        tv = run_contamination(
            m2, NormalRadial(), contaminant2, 0.01, [1e-6, 1e-2, 1.0], eps_list=[0.05]
        ).metrics["tv_to_contaminant"]
        assert tv[0] < 0.05 and tv[2] > 0.1 and tv[0] <= tv[1] <= tv[2]
        trace2 = run_contamination(
            exact2, NormalRadial(), contaminant2, 0.01, [1e-6], eps_list=[0.05]
        )
        assert trace2.metrics["mass_outside_0.05"][0] < 0.01
        for model, vanishing in ((m2, 0), (exact2, 1)):
            w = [weights(model, c)[vanishing] for c in c_grid]
            assert all(b < a for a, b in zip(w, w[1:])) and w[-1] < 1e-4, w


def test_criterion_6_identified_set_geometry(acceptance_report):
    with _criterion(6, "identified set geometry", 5.0, report=acceptance_report):
        cfg = InferenceConfig(v=[1.0], level=0.95)
        j = pseudo_true(CANON).j_stat
        assert identified_set_projection(CANON, cfg, math.sqrt(0.5 * j)).empty
        assert identified_set_projection(CANON, cfg, math.sqrt(j)).singleton

        d = math.sqrt(6.0)
        proj = identified_set_projection(CANON, cfg, d)
        thetas = np.linspace(proj.lower - 1.0, proj.upper + 1.0, 100_000)
        step = thetas[1] - thetas[0]
        member = np.array([identified_set_membership(CANON, [t], d) for t in thetas])
        inside = thetas[member]
        assert abs(inside[0] - proj.lower) <= step
        assert abs(inside[-1] - proj.upper) <= step
        assert np.all(np.diff(np.flatnonzero(member)) == 1)  # one contiguous block

        # Scaling the detectable component widens the CI and narrows the set.
        pt = pseudo_true(CANON)
        fit = CANON.X @ pt.theta_w
        ci_widths, set_widths = [], []
        for factor in (0.8, 1.0, 1.2):
            m = ModelInstance(Y=fit + factor * (CANON.Y - fit), X=CANON.X, W=CANON.W)
            ci_widths.append(confidence_interval(m, cfg).half_width())
            set_widths.append(identified_set_projection(m, cfg, d).half_width())
        assert ci_widths[0] < ci_widths[1] < ci_widths[2]
        assert set_widths[0] > set_widths[1] > set_widths[2]


def test_criterion_7_closed_form_limit_formulas(acceptance_report):
    with _criterion(7, "closed form posterior formulas", 1.0, report=acceptance_report):
        tl = closed_form_posterior(CANON, StudentTRadial(3.0), 0.0)
        assert tl.dof == 3.0 + 2 - 1
        assert_allclose(tl.center, [1.0], atol=1e-12)
        assert_allclose(tl.scale, [[0.25]], rtol=1e-12)
        pl = closed_form_posterior(CANON, PowerLawRadial(3.0), 1.0)
        assert pl.dof == 2.0 * 3.0 - 1
        assert_allclose(pl.scale, [[0.2]], rtol=1e-12)


def test_criterion_8_tail_ratio_tables(acceptance_report):
    with _criterion(8, "conditional tail ratios", 10.0, report=acceptance_report):
        normal_tab = run_tails(NormalRadial(), [1.5, 2.0, 4.0], [1.0, 10.0], [1e-4], k=2)
        assert np.all(normal_tab[:, 3] < 1e-6)
        t_tab = run_tails(StudentTRadial(3.0), [1.5, 2.0, 4.0], [1.0, 10.0], [1e-6], k=2)
        for a, tau, c, ratio in t_tab:
            assert abs(ratio - a ** (-3.0)) < 0.005, (a, tau, ratio)
        for a in (1.5, 2.0, 4.0):
            rows = t_tab[t_tab[:, 0] == a]
            assert np.max(rows[:, 3]) - np.min(rows[:, 3]) < 0.005


def test_criterion_9_special_functions(acceptance_report):
    with _criterion(9, "special functions", 5.0, report=acceptance_report):
        assert abs(t_quantile(StudentT(1.0), 0.975) - t_quantile_quad(0.975, 1.0)) < 1e-3
        assert abs(t_quantile(StudentT(2.0), 0.975) - t_quantile_quad(0.975, 2.0)) < 1e-3
        assert abs(t_quantile(StudentT(1.0), 0.975) - 12.7062) < 1e-3
        assert abs(t_quantile(StudentT(2.0), 0.975) - 4.3027) < 1e-3
        for dof in (1.0, 2.0, 5.0, 30.0, 200.0):
            dist = StudentT(dof)
            for q in (0.005, 0.025, 0.5, 0.975, 0.995):
                assert abs(t_cdf(dist, t_quantile(dist, q)) - q) < 1e-9


def test_criterion_10_finite_sample_and_local_adapters(acceptance_report):
    with _criterion(10, "finite-sample and local adapters", 60.0, report=acceptance_report):
        # Byte-identical arithmetic when fed identical inputs.
        mean3 = ModelInstance(Y=[1.0, 1.0, 4.0], X=[[1.0], [1.0], [1.0]], W=np.eye(3))
        cfg = InferenceConfig(v=[1.0], level=0.95)
        pop = confidence_interval(mean3, cfg)
        fin = finite_sample_ci(mean3.Y, mean3.X, mean3.W, cfg)
        assert (pop.lower, pop.upper) == (fin.lower, fin.upper)

        exp = LocalExperiment(
            Gamma_L=-np.asarray(mean3.X), Sigma=np.eye(3), mu=np.zeros(3),
            K=[1.0], W_L=np.eye(3),
        )
        loc = local_ci(exp, mean3.Y, level=0.95)
        assert (pop.lower, pop.upper) == (loc.lower, loc.upper)

        # Local-misspecification coverage: eta = mu + eps with mu ~ N(0, Omega),
        # eps ~ N(0, Sigma), Omega + Sigma proportional to the inverse weight.
        from misspec.scenarios import IVScenario, iv_population_model

        scen = IVScenario(
            k=3, theta_ate=1.0, beta_vec=np.array([0.5, 1.0, 1.5]),
            first_stage=np.array([0.4, 0.5, 0.6]),
            z_cov=np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.0]]),
        )
        pop_model = iv_population_model(scen)
        x_l = np.asarray(pop_model.X)
        w_l = np.asarray(pop_model.W)
        w_inv = np.linalg.inv(w_l)
        omega, sigma = 0.6 * w_inv, 0.4 * w_inv
        exp_iv = LocalExperiment(
            Gamma_L=-x_l, Sigma=sigma, mu=np.zeros(3), K=[1.0], W_L=w_l
        )
        rng = np.random.default_rng(2024)
        chol_om = np.linalg.cholesky(omega)
        chol_sg = np.linalg.cholesky(sigma)
        reps = 10_000
        hits = 0
        for _ in range(reps):
            theta = 2.0 * rng.standard_normal(1)
            mu = chol_om @ rng.standard_normal(3)
            eps = chol_sg @ rng.standard_normal(3)
            y_l = x_l @ theta + mu + eps
            ci = local_ci(exp_iv, y_l, level=0.95)
            hits += ci.lower <= theta[0] <= ci.upper
        coverage = hits / reps
        se = math.sqrt(0.95 * 0.05 / reps)
        assert abs(coverage - 0.95) <= 3.0 * se, coverage


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-v"]))

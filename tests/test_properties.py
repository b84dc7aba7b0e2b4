"""Property tests of the fit and the estimands built on it, over random models.

Models come from ``oracles.random_model_arrays`` (generic, well-conditioned),
or with W from ``oracles.random_spd`` near the SPD tolerance; the hypothesis
profile registered in ``conftest.py`` makes runs reproducible.
"""

import math
import sys

import numpy as np
import pytest
import scipy.special

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from misspec import _linalg, posteriors
from misspec._kernels import pivot_tstats
from misspec.inference import (
    InferenceConfig,
    analyze,
    confidence_interval,
    identified_set_membership,
    identified_set_projection,
)
from misspec.errors import InputError, ModelValidationError, NumericalError
from misspec.model import ModelInstance, pseudo_true, sigma_v
from misspec.posteriors import (
    ClosedFormPosterior,
    MixturePosterior,
    closed_form_posterior,
    mass_outside_ball,
    normal_posterior,
    tv_distance,
)
from misspec.montecarlo import (
    _pivot_args,
    ks_statistic,
    run_concentration,
    run_contamination,
    run_tails,
)
from misspec.priors import (
    NormalRadial,
    PowerLawRadial,
    ScaledPrior,
    StudentTRadial,
    sample_eta,
)
from misspec.special import StudentT, t_cdf, t_cdf_floats, t_quantile
from oracles import (
    angular_mass_array,
    bisect_sign_change,
    grid_posterior,
    ks_statistic_full,
    largest_sd_array,
    log_radial,
    mass_outside_interval_array,
    mixture_log_radial,
    pivotal_t_stat,
    random_model_arrays,
    random_spd,
    t_cdf_reference,
)

# (k, p) with k > p, so the confidence interval is defined.
shapes = st.sampled_from([(2, 1), (3, 1), (4, 2), (5, 2), (6, 3)])
seeds = st.integers(0, 2**32 - 1)


def _model(seed, shape):
    y, x, w = random_model_arrays(np.random.default_rng(seed), *shape)
    return ModelInstance(Y=y, X=x, W=w)


def _cfg(model, seed, level=0.95):
    return InferenceConfig(v=np.random.default_rng(seed + 1).standard_normal(model.p), level=level)


@given(seeds, shapes, st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
def test_ci_shifts_with_y_along_x(seed, shape, shift):
    m = _model(seed, shape)
    cfg = _cfg(m, seed)
    b = np.asarray(shift[: m.p])
    moved = ModelInstance(Y=m.Y + m.X @ b, X=m.X, W=m.W)
    ci, ci_moved = confidence_interval(m, cfg), confidence_interval(moved, cfg)
    scale = 1.0 + np.abs(m.Y).sum() + np.abs(m.X @ b).sum()
    assert_allclose(ci_moved.lower, ci.lower + cfg.v @ b, rtol=0, atol=1e-10 * scale)
    assert_allclose(ci_moved.upper, ci.upper + cfg.v @ b, rtol=0, atol=1e-10 * scale)
    assert_allclose(ci_moved.half_width(), ci.half_width(), rtol=1e-8)


@given(seeds, shapes, st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
def test_j_invariant_to_y_along_x(seed, shape, shift):
    # B = W - WX(X'WX)^{-1}X'W annihilates X, so J = Y'BY ignores Y -> Y + Xb.
    m = _model(seed, shape)
    b = np.asarray(shift[: m.p])
    moved = ModelInstance(Y=m.Y + m.X @ b, X=m.X, W=m.W)
    scale = (1.0 + np.abs(m.Y).sum() + np.abs(m.X @ b).sum()) ** 2
    assert_allclose(pseudo_true(moved).j_stat, pseudo_true(m).j_stat, rtol=0, atol=1e-10 * scale)


@given(seeds, shapes, st.floats(1e-3, 1e3), st.sampled_from([0.8, 0.9, 0.95, 0.99]))
def test_ci_invariant_to_weight_scale(seed, shape, s, level):
    m = _model(seed, shape)
    cfg = _cfg(m, seed, level)
    ci = confidence_interval(m, cfg)
    ci_scaled = confidence_interval(ModelInstance(Y=m.Y, X=m.X, W=s * m.W), cfg)
    assert_allclose([ci_scaled.lower, ci_scaled.upper], [ci.lower, ci.upper], rtol=1e-9, atol=1e-12)


@given(seeds, shapes, st.integers(-400, 400), st.booleans())
def test_fit_scales_exactly_with_y(seed, shape, e, exact):
    # Y -> 2^e Y is exact in floating point, and so is everything the fit and
    # the intervals do with it: theta_W and the bounds scale by 2^e and J by
    # 4^e bit for bit, the identified sets with d scaled by 2^e, and an exact
    # fit stays one.
    rng = np.random.default_rng(seed)
    y, x, w = random_model_arrays(rng, *shape)
    if exact:
        y = x @ rng.standard_normal(shape[1])
    m, scaled = ModelInstance(Y=y, X=x, W=w), ModelInstance(Y=np.ldexp(y, e), X=x, W=w)
    cfg = _cfg(m, seed)
    root_j = np.sqrt(pseudo_true(m).j_stat)
    ds = [0.0, *(f * (1.0 if exact else root_j) for f in (0.5, 1.0, 2.0))]
    report = analyze(m, cfg, ds)
    scaled_report = analyze(scaled, cfg, [np.ldexp(d, e) for d in ds])
    assert_array_equal(scaled_report.theta_w, np.ldexp(report.theta_w, e))
    assert scaled_report.j_stat == np.ldexp(report.j_stat, 2 * e)
    assert report.ci.singleton == scaled_report.ci.singleton == exact
    sets = [iv for _, iv in report.identified_sets]
    scaled_sets = [iv for _, iv in scaled_report.identified_sets]
    for iv, siv in zip([report.ci, *sets], [scaled_report.ci, *scaled_sets]):
        assert (siv.empty, siv.singleton) == (iv.empty, iv.singleton)
        assert_array_equal([siv.lower, siv.upper], np.ldexp([iv.lower, iv.upper], e))
    # d = 0 is the point theta_W at an exact fit, and empty otherwise.
    assert sets[0].singleton if exact else sets[0].empty
    for d in ds:
        member = identified_set_membership(m, report.theta_w, d)
        assert identified_set_membership(
            scaled, scaled_report.theta_w, np.ldexp(d, e)
        ) == member == (exact or d > 0.5 * root_j)


def _exactly_scaled(a: np.ndarray, e: int) -> np.ndarray | None:
    """2^e a where that is exact (no entry overflows or leaves the normal range), else None."""
    with np.errstate(over="ignore"):
        out = np.ldexp(a, e)
    nonzero = np.abs(out[a != 0.0])
    return out if np.all(nonzero >= TINY) and np.all(nonzero < math.inf) else None


TINY = 2.0**-1022  # the smallest normal float


@given(seeds, shapes, st.integers(-1074, 1023), st.integers(-1074, 1023),
       st.integers(-1074, 1023), st.booleans())
@example(0, (3, 1), 0, 0, 1, False)  # an odd power of two in W
@example(0, (4, 2), 900, -100, -1000, False)
def test_fit_scales_exactly_with_y_x_and_w(seed, shape, ey, ex, ew, exact):
    # (Y, X, W) -> (2^ey Y, 2^ex X, 2^ew W) is exact in floating point while
    # every input stays normal, and so is the fit: theta_W scales by 2^(ey - ex)
    # and J by 2^(2 ey + ew) bit for bit, and an exact fit stays one.  sigma_v
    # scales by 2^-(ex + ew/2), a power of two at even ew; there the intervals
    # and the identified sets, with d scaled by 2^(ey + ew/2), scale by
    # 2^(ey - ex) bit for bit wherever they stay normal.
    rng = np.random.default_rng(seed)
    y, x, w = random_model_arrays(rng, *shape)
    if exact:
        y = x @ rng.standard_normal(shape[1])
    scaled = [_exactly_scaled(a, e) for a, e in ((y, ey), (x, ex), (w, ew))]
    assume(all(a is not None for a in scaled))
    m = ModelInstance(Y=y, X=x, W=w)
    cfg = _cfg(m, seed)
    root_j = np.sqrt(pseudo_true(m).j_stat)
    ds = [0.0, *(f * (1.0 if exact else root_j) for f in (0.5, 2.0))]
    try:  # W's largest eigenvalue, theta_W or J may overflow, or J underflow
        sm = ModelInstance(*scaled)
        fit = pseudo_true(sm)
    except (ModelValidationError, NumericalError):
        assume(False)
    assert_array_equal(fit.theta_w, np.ldexp(pseudo_true(m).theta_w, ey - ex))
    assert fit.j_stat == math.ldexp(pseudo_true(m).j_stat, 2 * ey + ew)
    assert (fit.j_stat <= fit.noise_floor) == (pseudo_true(m).j_stat <= pseudo_true(m).noise_floor)
    assert (fit.j_stat <= fit.noise_floor) == exact
    if ew % 2:
        return
    scaled_ds = _exactly_scaled(np.array(ds), ey + ew // 2)
    assume(scaled_ds is not None)
    try:
        scaled_report = analyze(sm, cfg, scaled_ds.tolist())
    except NumericalError:
        assume(False)
    report = analyze(m, cfg, ds)
    assert scaled_report.sigma_v == math.ldexp(report.sigma_v, -ex - ew // 2)
    for iv, siv in zip([report.ci, *(iv for _, iv in report.identified_sets)],
                       [scaled_report.ci, *(iv for _, iv in scaled_report.identified_sets)]):
        assert (siv.empty, siv.singleton) == (iv.empty, iv.singleton)
        want = np.ldexp([iv.lower, iv.upper], ey - ex)
        if not iv.empty and np.all(np.abs(want) >= 2.0**-1000) and fit.j_stat >= 2.0**-1000:
            assert_array_equal([siv.lower, siv.upper], want)


@given(
    seeds,
    shapes,
    st.sampled_from([1.0, 11.0]),
    st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6),
    st.booleans(),
)
def test_model_on_a_shared_design_is_a_fresh_model(seed, shape, spread, y_raw, exact):
    # with_y checks only Y and reuses the design's factors; every result is
    # that of ModelInstance(Y, X, W), bit for bit, W near the SPD tolerance too.
    rng = np.random.default_rng(seed)
    k, p = shape
    _, x, _ = random_model_arrays(rng, k, p)
    w = random_spd(rng, k, spread=spread)
    y = x @ np.asarray(y_raw[:p]) if exact else np.asarray(y_raw[:k])
    base = ModelInstance(Y=np.zeros(k), X=x, W=w)
    pseudo_true(base)  # the design's factors exist before the new Y arrives
    shared, fresh = base.with_y(y), ModelInstance(Y=y, X=x, W=w)
    assert shared.design is base.design
    assert_array_equal(shared.Y, fresh.Y)
    a, b = pseudo_true(shared), pseudo_true(fresh)
    assert_array_equal(a.theta_w, b.theta_w)
    assert (a.j_stat, a.noise_floor) == (b.j_stat, b.noise_floor)
    for name in ("w_root", "u", "s", "vt"):
        assert_array_equal(getattr(shared.design, name), getattr(fresh.design, name))
    cfg = _cfg(fresh, seed)
    assert sigma_v(shared, cfg.v) == sigma_v(fresh, cfg.v)
    ds = (0.0, 0.5, 2.0)
    ra, rb = analyze(shared, cfg, ds), analyze(fresh, cfg, ds)
    assert_array_equal(ra.theta_w, rb.theta_w)
    assert (ra.j_stat, ra.sigma_v) == (rb.j_stat, rb.sigma_v)
    for iv_a, iv_b in zip([ra.ci, *(iv for _, iv in ra.identified_sets)],
                          [rb.ci, *(iv for _, iv in rb.identified_sets)]):
        assert (iv_a.empty, iv_a.singleton) == (iv_b.empty, iv_b.singleton)
        assert_array_equal([iv_a.lower, iv_a.upper], [iv_b.lower, iv_b.upper])
    assert not np.any(pseudo_true(base).theta_w)  # the base model keeps its own fit


@given(seeds, shapes, st.sampled_from([0.0, 1e-8, 1.0]))
def test_j_nonnegative(seed, shape, resid_scale):
    # Y = X b + resid_scale * noise reaches the exact-fit case at scale 0.
    rng = np.random.default_rng(seed)
    y, x, w = random_model_arrays(rng, *shape)
    m = ModelInstance(Y=x @ rng.standard_normal(shape[1]) + resid_scale * y, X=x, W=w)
    assert pseudo_true(m).j_stat >= 0.0


@given(seeds, shapes, st.lists(st.floats(0.0, 10.0), min_size=2, max_size=6))
def test_identified_sets_nested_in_d(seed, shape, multipliers):
    m = _model(seed, shape)
    cfg = _cfg(m, seed)
    root_j = np.sqrt(pseudo_true(m).j_stat)
    # Multipliers near 1 put d^2 inside the singleton band around J.
    ds = sorted(root_j * f for f in multipliers + [1.0])
    sets = [identified_set_projection(m, cfg, d) for d in ds]
    for small, big in zip(sets, sets[1:]):
        if small.empty:
            continue
        assert not big.empty
        assert big.lower <= small.lower and small.upper <= big.upper


@given(seeds, shapes)
def test_estimands_match_fresh_model(seed, shape):
    # Whatever was computed (and cached) first, a model answers exactly as a
    # newly built equal model does.
    m = _model(seed, shape)
    cfg = _cfg(m, seed)
    ds = (0.5, 2.0, 5.0)
    sv = sigma_v(m, cfg.v)
    cov = normal_posterior(m, 0.3).scale
    report = analyze(m, cfg, ds)
    fresh = _model(seed, shape)
    fresh_report = analyze(fresh, cfg, ds)
    assert_array_equal(normal_posterior(fresh, 0.3).scale, cov)
    assert sigma_v(fresh, cfg.v) == sv
    assert_array_equal(fresh_report.theta_w, report.theta_w)
    assert fresh_report.j_stat == report.j_stat
    assert fresh_report.sigma_v == sv
    # repr compares floats exactly, and empty intervals (NaN bounds) as equal.
    assert repr(fresh_report.ci) == repr(report.ci)
    assert repr(fresh_report.identified_sets) == repr(report.identified_sets)
    t3 = StudentTRadial(3.0)
    assert_array_equal(
        closed_form_posterior(fresh, t3, 0.0).scale, closed_form_posterior(m, t3, 0.0).scale
    )
    assert pseudo_true(m) is pseudo_true(m)


@given(
    seeds,
    st.sampled_from([(k, p) for p in (1, 2, 3) for k in range(p + 1, 9)]),
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
)
def test_coverage_event_is_the_pivot_of_eta(seed, shape, theta_scale, eta_scale):
    # With Y = X theta + eta, A X = I and B X = 0 for A = H^{-1}X'W and
    # B = W - W X A, so the interval covers v'theta iff the t statistic of eta
    # alone is at most t* in size: the event the coverage kernel counts.
    rng = np.random.default_rng(seed)
    k, p = shape
    _, x, w = random_model_arrays(rng, k, p)
    theta = theta_scale * rng.standard_normal(p)
    eta = eta_scale * rng.standard_normal(k)
    cfg = _cfg(ModelInstance(Y=x @ theta + eta, X=x, W=w), seed, level=0.9)
    h = x.T @ w @ x
    a = np.linalg.solve(h, x.T @ w)
    b = w - w @ x @ a
    centre = abs(cfg.v @ a @ eta)
    hw = (t_quantile(StudentT(k - p), 0.95) * np.sqrt(eta @ b @ eta / (k - p))
          * np.sqrt(cfg.v @ np.linalg.solve(h, cfg.v)))
    assume(abs(centre - hw) > 1e-9 * hw)
    ci = confidence_interval(ModelInstance(Y=x @ theta + eta, X=x, W=w), cfg)
    assert ci.contains(cfg.v @ theta) == (centre <= hw)


@given(seeds, shapes, st.floats(0.2, 50.0), st.floats(-6.0, 6.0))
def test_kernel_t_stat_is_the_pivot_of_the_sampled_eta(seed, shape, dof, log10_c):
    # The kernel forms T from eta before the t family's radial scale
    # sqrt(dof / w); row i of sample_eta is replication i's eta with that
    # scale and at the prior's c.  T is scale-free, so the two agree, to
    # 1e-10 relative times the condition number eta'W eta / J of J, which the
    # kernel forms as eta'B eta and the fit from the residual.
    rng = np.random.default_rng(seed)
    k, p = shape
    _, x, w = random_model_arrays(rng, k, p)
    cfg = InferenceConfig(v=rng.standard_normal(p), level=0.95)
    prior = ScaledPrior(family=StudentTRadial(dof), c=10.0**log10_c, W=w)
    tstats = pivot_tstats(seed, 0, 20, *_pivot_args(x, w, prior, cfg.v))
    models = [ModelInstance(Y=y, X=x, W=w) for y in sample_eta(prior, seed, 20)]
    expected = np.array([pivotal_t_stat(m, np.zeros(p), cfg) for m in models])
    cond = np.array([max(1.0, m.Y @ m.W @ m.Y / pseudo_true(m).j_stat) for m in models])
    assert np.all(np.abs(tstats - expected) <= 1e-10 * cond * np.abs(expected))


@given(seeds, st.sampled_from([(3, 1), (5, 1), (4, 2), (6, 2)]), st.sampled_from([1e-4, 1.0]))
def test_normal_grid_matches_closed_form_near_spd_tolerance(seed, shape, c):
    # spread 11 puts the condition number of W up to about 4e9, near SPD_RTOL.
    rng = np.random.default_rng(seed)
    y, x, _ = random_model_arrays(rng, *shape)
    m = ModelInstance(Y=y, X=x, W=random_spd(rng, shape[0], spread=11.0))
    theta_w = pseudo_true(m).theta_w
    sd = normal_posterior(m, c).marginal_sd()
    bounds = [(t - 12.0 * s, t + 12.0 * s) for t, s in zip(theta_w, sd)]
    prior = ScaledPrior(family=NormalRadial(), c=c, W=m.W)
    post = grid_posterior(m, log_radial(prior), bounds=bounds, points=201)
    assert np.all(np.abs(post.mean() - theta_w) <= 1e-9 * sd)
    if m.p == 1:
        assert_allclose(post.sd(), sd, rtol=1e-7)


@given(
    seeds,
    st.sampled_from([(2, 1), (4, 1), (3, 2), (5, 2)]),
    st.one_of(
        st.floats(1.0, 30.0).map(StudentTRadial),
        # 2 alpha - p > 0 for p <= 2.
        st.floats(1.25, 10.0).map(PowerLawRadial),
    ),
    st.floats(-6.0, 1.0).map(lambda e: 10.0**e),
)
def test_t_and_powerlaw_grids_match_closed_form(seed, shape, family, c):
    # The grid density is the exact posterior up to the grid's normalizer.
    rng = np.random.default_rng(seed)
    y, x, _ = random_model_arrays(rng, *shape)
    m = ModelInstance(Y=y, X=x, W=random_spd(rng, shape[0]))
    cf = closed_form_posterior(m, family, c)
    half = 12.0 * np.sqrt(np.diag(cf.scale))
    bounds = [(t - h, t + h) for t, h in zip(cf.center, half)]
    points = 401 if m.p == 1 else 101
    prior = ScaledPrior(family=family, c=c, W=m.W)
    post = grid_posterior(m, log_radial(prior), bounds=bounds, points=points)
    oracle = cf.density(post.points()).reshape(post.density.shape)
    oracle /= np.sum(post.cell * oracle)
    assert np.max(np.abs(post.density - oracle)) <= 1e-9 * np.max(oracle)


@given(
    seeds,
    st.sampled_from([(2, 1), (4, 1), (3, 2), (5, 2)]),
    st.one_of(st.just(NormalRadial()), st.floats(2.0, 30.0).map(StudentTRadial)),
    st.floats(-6.0, 0.0).map(lambda e: 10.0**e),
    st.floats(0.3, 4.0),
)
def test_grid_concentration_metrics_match_the_exact_ones(seed, shape, family, c, z):
    # X'WX has condition number at most e^3, so the grid resolves the posterior.
    rng = np.random.default_rng(seed)
    k, p = shape
    x = np.linalg.qr(rng.standard_normal((k, p)))[0] * np.exp(rng.uniform(-0.5, 0.5, p))
    m = ModelInstance(Y=2.0 * rng.standard_normal(k), X=x, W=random_spd(rng, k, spread=0.5))
    cf = closed_form_posterior(m, family, c)
    half = 12.0 * np.sqrt(np.diag(cf.scale))
    n = 2001 if p == 1 else 401
    bounds = [(t - h, t + h) for t, h in zip(cf.center, half)]
    post = grid_posterior(m, log_radial(ScaledPrior(family=family, c=c, W=m.W)), bounds=bounds, points=n)
    eps = z * float(np.sqrt(np.max(np.diag(cf.scale))))
    # A grid point's weight falls wholly inside or outside the ball, so the
    # mass is off by at most the boundary cells' mass: their measure times the
    # peak density, 2 cells of width h at p = 1 and a band of a cell diagonal
    # around the circle at p = 2.  The grid also leaves out the mass beyond
    # its box, at most the marginal tails there.
    h = 2.0 * half / (n - 1)
    cells = 2.0 * h[0] if p == 1 else 2.0 * np.pi * eps * float(np.hypot(*h))
    cut = sum(
        mass_outside_ball(ClosedFormPosterior([t], [[s]], cf.dof), [t], hw)
        for t, s, hw in zip(cf.center, np.diag(cf.scale), half)
    )
    tol = cells * cf.density(cf.center) + 2.0 * cut
    assert abs(post.mass_outside(cf.center, eps) - mass_outside_ball(cf, cf.center, eps)) <= tol
    sd = np.sqrt(np.diag(cf.scale))
    assert np.all(np.abs(post.mean() - cf.center) <= 1e-9 * sd)
    if cf.dof is None:
        assert_allclose(post.sd(), cf.marginal_sd(), rtol=1e-6)


def _first_order_error(axis, dens, peak, centre) -> float:
    """Sum over grid cells of width times the density's oscillation on the cell.

    This bounds the trapezoid rule's error for the density and for any
    function whose oscillation on each cell is at most the density's.  The
    density decreases away from ``centre``, so the oscillation is the change
    across the cell, except on the cell holding the centre, where it is at
    most the peak minus the smaller end.
    """
    osc = np.abs(np.diff(dens))
    j = min(max(int(np.searchsorted(axis, centre)) - 1, 0), osc.size - 1)
    osc[j] = peak - min(dens[j], dens[j + 1])
    return float(np.diff(axis) @ osc)


mixable_families = st.one_of(st.just(NormalRadial()), st.floats(2.0, 30.0).map(StudentTRadial))


@given(
    seeds,
    st.sampled_from([(2, 1), (3, 1), (5, 1), (3, 2), (5, 2)]),
    mixable_families,
    mixable_families,
    st.floats(-4.0, 1.0).map(lambda e: 10.0**e),
    st.floats(-4.0, 1.0).map(lambda e: 10.0**e),
    st.floats(-3.0, np.log10(0.5)).map(lambda e: 10.0**e),
    st.floats(0.3, 4.0),
)
def test_contaminated_grid_matches_the_mixture(seed, shape, base_family, family, c, c_cont, phi, z):
    rng = np.random.default_rng(seed)
    k, p = shape
    m = ModelInstance(
        Y=2.0 * rng.standard_normal(k), X=rng.standard_normal((k, p)), W=random_spd(rng, k)
    )
    contaminant = ScaledPrior(family=family, c=c_cont, W=m.W)
    prior = mixture_log_radial(ScaledPrior(family=base_family, c=c, W=m.W), contaminant, phi)
    mix = MixturePosterior(
        base=closed_form_posterior(m, base_family, c),
        contaminant=closed_form_posterior(m, family, c_cont),
        phi=phi,
    )
    parts = (mix.base, mix.contaminant)
    centre = mix.base.center
    eps = z * float(min(np.sqrt(q.scale[0, 0]) for q in parts))
    # One axis per component and coordinate, out to 12 sd for a normal and 40
    # scales for a t, whose tails are heavier.
    widths = [12.0 if q.dof is None else 40.0 for q in parts]
    if p == 1:
        halves = [w * np.sqrt(q.scale[0, 0]) for w, q in zip(widths, parts)]
        axis = np.unique(
            np.concatenate([np.linspace(centre[0] - h, centre[0] + h, 20001) for h in halves])
        )
        axes = [axis]
        # Every density here is a mixture of the two components, so its first-order
        # trapezoid error is at most the sum of theirs, and its mass beyond the
        # grid at most the larger of theirs.
        dens = [q.density(axis[:, None]) for q in parts]
        error = sum(
            _first_order_error(axis, f, q.density(q.center), centre[0])
            for f, q in zip(dens, parts)
        )
        cut = max(mass_outside_ball(q, centre, max(halves)) for q in parts)
        # A grid point's weight falls wholly inside or outside the ball, so the
        # cells that straddle its boundary add their width times the density there.
        outside = np.abs(axis - centre[0]) > eps
        edge = np.flatnonzero(outside[1:] != outside[:-1])
        straddle = sum(
            float(np.diff(axis)[edge] @ np.maximum(f[edge], f[edge + 1])) for f in dens
        )
        mass_tol, tv_tol = 2.0 * (error + straddle + cut), 2.0 * (error + cut)
    else:
        # A first-order bound is about 0.2 on any grid small enough to build
        # here.  On axes graded as sinh, densest at the centre, the grid's error
        # is below 2e-3 for the mass and 2e-4 for the TV distance across these
        # parameters, so each must agree to 1e-2 beyond twice the mass outside
        # the box (for which a coordinate's marginal lies beyond its half-width).
        grade = np.sinh(np.linspace(-1.0, 1.0, 201)[:, None] * np.arcsinh(widths))
        sds = np.sqrt([np.diag(q.scale) for q in parts])
        axes = [np.unique(centre[i] + (grade * sds[:, i]).ravel()) for i in range(p)]
        cut = max(
            sum(
                mass_outside_ball(ClosedFormPosterior([t], [[v]], q.dof), [t], w * np.sqrt(v))
                for t, v in zip(q.center, np.diag(q.scale))
            )
            for w, q in zip(widths, parts)
        )
        mass_tol = tv_tol = 1e-2 + 2.0 * cut
    grid = grid_posterior(m, prior, axes=axes)
    pure = grid_posterior(m, log_radial(contaminant), axes=axes)
    assert abs(grid.mass_outside(centre, eps) - mass_outside_ball(mix, centre, eps)) <= mass_tol
    assert abs(grid.tv(pure) - mix.tv_to_contaminant()) <= tv_tol


@given(
    st.one_of(st.just(NormalRadial()), st.floats(0.5, 100.0).map(StudentTRadial)),
    st.integers(1, 20),
    st.floats(-12.0, 2.0),
    st.floats(-3.0, 3.0),
    st.floats(1e-9, 10.0),
    st.floats(0.0, 1.0),
)
def test_tail_ratio_is_a_probability_decreasing_in_a(family, k, log10_c, log10_tau, da, step):
    a = 1.0 + da
    table = run_tails(family, [a, a * (1.0 + step)], [10.0**log10_tau], [10.0**log10_c], k=k)
    r_near, r_far = table[:, 3]
    # Exactly non-increasing in a; two a one ulp apart may swap by rounding.
    assert 0.0 <= r_far <= r_near * (1.0 + 1e-12) and r_near <= 1.0


@given(
    st.one_of(st.just(NormalRadial()), st.floats(0.05, 100.0).map(StudentTRadial)),
    st.integers(1, 8),
    st.lists(st.floats(0.0, 300.0), min_size=1, max_size=8),
)
@example(NormalRadial(), 1, [0.0, 2.0, 3.2, 3.3, 300.0])  # erfc underflows above s = 1409
@example(NormalRadial(), 5, [0.0, 2.0, 3.2, 3.3, 300.0])
@example(StudentTRadial(0.05), 2, [300.0])  # the tail underflows
@example(StudentTRadial(0.05), 7, [1.0, 300.0])
def test_log_tail_array_is_the_scalar_calls_and_the_special_functions(family, k, log10_s):
    # x = dof / (dof + s) stays a normal float for s <= 1e300 and dof >= 0.05.
    # From s = 1 the tails are below 0.95, where the log of SciPy's incomplete
    # gamma or beta, where that is a normal float, keeps its relative accuracy.
    s = 10.0 ** np.array(log10_s)
    got = family.log_tail(s, k)
    assert got.shape == s.shape
    assert_array_equal(got, [family.log_tail(float(v), k) for v in s])
    if isinstance(family, NormalRadial):
        want = scipy.special.gammaincc(0.5 * k, 0.5 * s)
    else:
        nu = family.dof
        want = scipy.special.betainc(0.5 * nu, 0.5 * k, nu / (nu + s))
    normal = want >= sys.float_info.min
    assert_allclose(got[normal], np.log(want[normal]), rtol=1e-13)
    assert np.all(got[~normal] < math.log(sys.float_info.min) + 1.0)


@given(
    seeds,
    st.integers(1, 5000),
    st.sampled_from([1.0, 3.0, 5.5]),
    st.floats(-1.0, 1.0),
    st.sampled_from([None, 2, 0, -1]),
    st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 3, 0), (2, 2, 0), (0, 0, 1), (1, 1, 5)]),
)
def test_bracketed_ks_equals_full_evaluation(seed, n, dof, log10_scale, decimals, extremes):
    # Exact equality with the CDF at every sample, over sizes that are and are
    # not multiples of the knot stride, heavy ties (rounded samples), and
    # +inf, -inf and NaN entries.
    rng = np.random.default_rng(seed)
    s = rng.standard_t(dof, n) * 10.0**log10_scale
    if decimals is not None:
        s = np.round(s, decimals)
    for value, count in zip((np.inf, -np.inf, np.nan), extremes):
        s[rng.integers(0, n, size=count)] = value
    got, want = ks_statistic(s, dof), ks_statistic_full(s, dof)
    assert got == want or (np.isnan(got) and np.isnan(want))


@given(
    seeds,
    st.sampled_from([(2, 1), (3, 1), (3, 2), (5, 2)]),
    st.integers(-60, 4),
    st.one_of(
        st.just(NormalRadial()),
        st.floats(0.5, 30.0).map(StudentTRadial),
        st.floats(1.25, 10.0).map(PowerLawRadial),
    ),
    st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    st.floats(0.3, 3.0),
)
@example(0, (3, 2), -60, NormalRadial(), 1e300, 1.0)  # c (X'WX)^-1 overflows
@example(0, (2, 1), 4, NormalRadial(), 5e-324, 1.0)  # ... and underflows to 0
def test_model_and_bare_closed_forms_agree(seed, shape, e, family, c, z):
    # A model's closed form reads its eigenvalues off the design; a bare one
    # built from the same scale matrix computes them.  X is scaled by 2^e: with
    # e <= 4, c (X'WX)^-1 stays above the smallest normal float for c >= 1e-300,
    # and for small e and large c it overflows.
    rng = np.random.default_rng(seed)
    y, x, w = random_model_arrays(rng, *shape)
    m = ModelInstance(Y=y, X=np.ldexp(x, e), W=w)
    pt = pseudo_true(m)
    dof, spread = family.posterior_shape(c, pt.j_stat, *shape)
    mult = spread if dof is None else spread / dof
    with np.errstate(over="ignore"):
        scale = _linalg._symmetrize(mult * m.design.hessian_inv)
    try:
        bare = ClosedFormPosterior(pt.theta_w, scale, dof)
    except ModelValidationError as exc:
        with pytest.raises(InputError) as refused:
            closed_form_posterior(m, family, c)
        assert str(refused.value) == f"posterior at prior scale c = {c:g} is unrepresentable: {exc}"
        return
    cf = closed_form_posterior(m, family, c)
    assert_array_equal(cf.scale, bare.scale)
    # A symmetric eigensolver is accurate to a few ulps of the largest
    # eigenvalue, not of each: c eigvalsh(H^-1) and eigvalsh(c H^-1) differ by
    # up to 3 ulps of the largest in 20000 random cases.
    got, want = cf._scale_factor.eigenvalues, bare._scale_factor.eigenvalues
    assert np.all(np.abs(got - want) <= 4.0 * math.ulp(want[-1]))
    eps = z * math.sqrt(want[-1])
    mass, bare_mass = (mass_outside_ball(q, q.center, eps) for q in (cf, bare))
    if m.p == 1:
        assert mass == bare_mass
    else:
        assert abs(mass - bare_mass) <= 1e-14 * bare_mass


def _tail_rounding(q: ClosedFormPosterior, rho: float) -> float:
    """What rounding moves q's computed radial tail S = Pr{radius > rho} by, at most about.

    One ulp of S, and for a t tail at p != 2, which is I_x(dof/2, p/2) at
    x = dof / (dof + u^2) with u = rho / sqrt(scale[0, 0]), what rounding x
    by 2^-53 relative moves it by: 2^-53 x^(dof/2) (1 - x)^(p/2 - 1) / B(dof/2, p/2).
    That term dominates near S = 1 at p = 1, where x is close to 1.
    """
    u = rho / math.sqrt(q.scale[0, 0])
    out = math.ulp(math.exp(q._family.log_tail(u * u, q.p)))
    if q.dof is None or q.p == 2:
        return out
    a, b = 0.5 * q.dof, 0.5 * q.p
    t = u * u / q.dof  # x = 1 / (1 + t) and 1 - x = t / (1 + t)
    if t == math.inf:  # x = 0, where I_x and its slope vanish
        return out
    if t == 0.0:
        return math.inf
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    log_x = -math.log1p(t)
    return out + 2.0**-53 * math.exp(a * log_x + (b - 1.0) * (math.log(t) + log_x) - log_beta)


@given(
    st.sampled_from([1, 2, 3, 5]),
    st.one_of(st.none(), st.floats(0.5, 50.0)),
    st.floats(0.5, 50.0),
    st.floats(-3.0, 3.0),
)
# Two cases off by more than 1e-12 TV + 1e-15, the bound before the tails' rounding.
@example(1, 41.25, 41.25, 1e-8)
@example(1, 47.35429857309198, 47.35429857309198, -1.192092896e-07)
def test_tv_crossings_match_halving(p, dof_a, dof_b, log10_ratio):
    # Each crossing is an exact zero of the log density ratio h, or a sign
    # change between it and the float below (or +inf, where the search for a
    # bracket overflowed); the TV distance is that of the crossings plain
    # halving finds, up to the rounding of the radial tails it sums at each.
    shape = np.eye(1) if p == 1 else np.array([[1.0, 0.4], [0.4, 2.5]])
    if p > 2:
        shape = random_spd(np.random.default_rng(p), p)
    a = ClosedFormPosterior(np.full(p, 0.25), shape, dof_a)
    b = ClosedFormPosterior(np.full(p, 0.25), 10.0 ** (2.0 * log10_ratio) * shape, dof_b)
    found, halved = [], []
    search = posteriors._find_sign_change
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(posteriors, "_find_sign_change", lambda *args: found.append(args) or search(*args))
        tv = tv_distance(a, b)
        halving = lambda *args: halved.append(bisect_sign_change(*args)) or halved[-1]
        mp.setattr(posteriors, "_find_sign_change", halving)
        tv_halving = tv_distance(a, b)
    crossings = list(halved)
    with np.errstate(over="ignore"):
        for h, lo, hi in found:
            rho, positive_lo = search(h, lo, hi), h(lo) > 0.0
            crossings.append(rho)
            assert lo < rho <= hi
            if rho == math.inf:  # no float past the bracket's start crosses
                continue
            below = np.nextafter(rho, -np.inf)
            assert h(rho) == 0.0 or ((h(rho) > 0.0) != positive_lo and (h(below) > 0.0) == positive_lo)
    # Each TV is a signed sum of the two tails at its crossings, so the two
    # differ by at most those tails' rounding; 4 times it leaves room for the
    # special functions' own error.  Two normals cross in closed form, once.
    rounding = sum(_tail_rounding(q, rho) for rho in crossings for q in (a, b))
    assert abs(tv - tv_halving) <= 4.0 * rounding


# --- Sweeps along the whole c axis are the per-c route, bit for bit ---------

sweep_shapes = st.sampled_from([(2, 1), (3, 1), (3, 2), (5, 2)])
sweep_families = st.one_of(
    st.just(NormalRadial()),
    st.floats(0.5, 30.0).map(StudentTRadial),
    st.floats(1.25, 10.0).map(PowerLawRadial),
)
c_axes = st.lists(st.floats(-8.0, 3.0), min_size=1, max_size=5).map(
    lambda es: sorted({10.0**e for e in es})
)
eps_lists = st.lists(
    st.floats(-3.0, 1.0).map(lambda e: 10.0**e),
    min_size=1,
    max_size=2,
    unique_by=lambda eps: f"{eps:g}",
)


def _sweep_model(seed, shape, e, exact) -> ModelInstance:
    """A random model with X scaled by 2^e; with ``exact``, Y is in X's span (J = 0)."""
    rng = np.random.default_rng(seed)
    y, x, w = random_model_arrays(rng, *shape)
    x = np.ldexp(x, e)
    return ModelInstance(Y=x @ rng.standard_normal(shape[1]) if exact else y, X=x, W=w)


def _refusal_or(route):
    """``route()``, or the type and message of the InputError it raises."""
    try:
        return route()
    except InputError as exc:
        return type(exc), str(exc)


def _bits(metrics) -> dict[str, bytes]:
    return {name: np.asarray(v, dtype=np.float64).tobytes() for name, v in metrics.items()}


def _concentration_per_c(m, family, c_axis, eps_list):
    """``run_concentration``'s metrics from one closed form per c."""
    metrics = {f"mass_outside_{eps:g}": [] for eps in eps_list}
    metrics["posterior_sd"] = []
    actions = ["bayes_action"] if m.p == 1 else [f"bayes_action_{i + 1}" for i in range(m.p)]
    metrics.update((name, []) for name in actions)
    for c in c_axis:
        post = closed_form_posterior(m, family, c)
        for eps in eps_list:
            metrics[f"mass_outside_{eps:g}"].append(mass_outside_ball(post, post.center, eps))
        metrics["posterior_sd"].append(float(np.max(post.marginal_sd())))
        has_mean = post.dof is None or post.dof > 1.0
        for name, val in zip(actions, post.center):
            metrics[name].append(float(val) if has_mean else math.nan)
    return _bits(metrics)


def _contamination_per_c(m, base_family, contaminant, phi, c_axis, eps_list):
    """``run_contamination``'s metrics from one mixture of closed forms per c."""
    pure = closed_form_posterior(m, contaminant.family, contaminant.c)
    metrics = {"tv_to_contaminant": [], **{f"mass_outside_{eps:g}": [] for eps in eps_list}}
    for c in c_axis:
        base = closed_form_posterior(m, base_family, c)
        mix = MixturePosterior(base=base, contaminant=pure, phi=phi)
        metrics["tv_to_contaminant"].append(mix.tv_to_contaminant())
        for eps in eps_list:
            metrics[f"mass_outside_{eps:g}"].append(mass_outside_ball(mix, mix.base.center, eps))
    return _bits(metrics)


@given(
    seeds, sweep_shapes, st.integers(-60, 4), st.booleans(), sweep_families, c_axes, st.booleans(), eps_lists
)
def test_concentration_sweep_is_the_per_c_route(
    seed, shape, e, exact, family, c_axis, huge, eps_list
):
    # With ``huge``, c = 1e300 ends the axis, where c (X'WX)^-1 overflows for small e.
    m = _sweep_model(seed, shape, e, exact)
    c_axis = c_axis + [1e300] if huge else c_axis
    got = _refusal_or(lambda: _bits(run_concentration(m, family, c_axis, eps_list).metrics))
    assert got == _refusal_or(lambda: _concentration_per_c(m, family, c_axis, eps_list))


@given(
    seeds,
    sweep_shapes,
    st.integers(-60, 4),
    st.booleans(),
    mixable_families,
    mixable_families,
    c_axes,
    st.booleans(),
    st.floats(-4.0, 1.0).map(lambda e: 10.0**e),
    st.floats(-3.0, np.log10(0.5)).map(lambda e: 10.0**e),
    eps_lists,
)
def test_contamination_sweep_is_the_per_c_route(
    seed, shape, e, exact, base_family, family, c_axis, huge, c_cont, phi, eps_list
):
    m = _sweep_model(seed, shape, e, exact)
    contaminant = ScaledPrior(family=family, c=c_cont, W=m.W)
    c_axis = c_axis + [1e300] if huge else c_axis
    args = (m, base_family, contaminant, phi, c_axis, eps_list)
    got = _refusal_or(lambda: _bits(run_contamination(*args).metrics))
    assert got == _refusal_or(lambda: _contamination_per_c(*args))


@given(seeds, sweep_shapes, c_axes, st.floats(-4.0, 1.0).map(lambda e: 10.0**e))
@example(0, (3, 2), [1e-300, 1.0], 1e30)  # d = 380 at p = 2: the far tail underflows to 0
@example(0, (3, 1), [1e-307, 1e-3], 1e307)  # d = 707 at p = 1: an erfc tail below the smallest normal
def test_normal_tv_axis_is_the_per_c_tv_distance(seed, shape, c_axis, c_cont):
    # ``tv_to`` takes every normal crossing's tails in one call; the axis holds
    # c_cont itself, where the two posteriors are one (d = 0).
    m = _sweep_model(seed, shape, 0, False)
    c_axis = sorted({*c_axis, c_cont})
    path = posteriors._PosteriorPath(m, NormalRadial(), c_axis)
    pure = closed_form_posterior(m, NormalRadial(), c_cont)
    per_c = [tv_distance(closed_form_posterior(m, NormalRadial(), c), pure) for c in c_axis]
    got = path.tv_to(posteriors._PosteriorPath(m, NormalRadial(), (c_cont,)))
    assert np.array(got).tobytes() == np.array(per_c).tobytes()
    assert got[c_axis.index(c_cont)] == 0.0


OVERFLOW = "posterior at prior scale c = 1e+300 is unrepresentable: scale must be finite"


@pytest.mark.parametrize(
    "family, exact, error",
    [
        (NormalRadial(), False, OVERFLOW),
        (StudentTRadial(3.0), False, OVERFLOW),
        (PowerLawRadial(3.0), True, "powerlaw:3 posterior at c = 0.01 requires a positive J-statistic"),
    ],
)
@pytest.mark.parametrize("shape", [(3, 1), (3, 2)])
def test_sweeps_refuse_as_the_per_c_route(family, exact, error, shape):
    # A c whose scale overflows, and the power law's J-alone scale at J = 0.
    m = _sweep_model(0, shape, -60, exact)
    c_axis, eps_list = [1e-2, 1.0, 1e300], [0.1]
    got = _refusal_or(lambda: _bits(run_concentration(m, family, c_axis, eps_list).metrics))
    assert got == _refusal_or(lambda: _concentration_per_c(m, family, c_axis, eps_list))
    assert got[1].startswith(error)
    if family.proper:
        args = (m, family, ScaledPrior(family=NormalRadial(), c=4.0, W=m.W), 0.01, c_axis, eps_list)
        got = _refusal_or(lambda: _bits(run_contamination(*args).metrics))
        assert got == _refusal_or(lambda: _contamination_per_c(*args))
        assert got[1].startswith(error)


@given(
    st.one_of(st.just(NormalRadial()), st.floats(0.5, 30.0).map(StudentTRadial)),
    st.lists(st.tuples(st.floats(0.0, 6.0), st.floats(-8.0, 2.0)), min_size=1, max_size=8),
    st.floats(-3.0, 1.0).map(lambda e: 10.0**e),
    st.sampled_from([16, 128, posteriors._ANGULAR_CHUNK]),
)
def test_each_angular_mass_row_is_its_one_row_call(family, rows, eps, chunk):
    # Rows of condition number 10^a (1 to 1e6) and largest eigenvalue 10^b, in
    # drawn order, so they converge and leave the array at different levels; a
    # chunk of 16 terms splits both the rows and the nodes of each level, and
    # one of 128 takes the first level one row at a time.
    lam_hi = np.array([10.0**b for _, b in rows])
    lam_lo = lam_hi / np.array([10.0**a for a, _ in rows])
    saved, posteriors._ANGULAR_CHUNK = posteriors._ANGULAR_CHUNK, chunk
    try:
        got = posteriors._angular_mass(family, lam_lo, lam_hi, eps)
        alone = [
            posteriors._angular_mass(family, lam_lo[i : i + 1], lam_hi[i : i + 1], eps)
            for i in range(len(rows))
        ]
    finally:
        posteriors._ANGULAR_CHUNK = saved
    assert got.tobytes() == np.concatenate(alone).tobytes()
    assert np.all((got >= 0.0) & (got <= 1.0))


@given(
    st.integers(1, 3),
    st.lists(
        st.floats(-300.0, 300.0).flatmap(lambda e: st.sampled_from([10.0**e, -(10.0**e)])),
        min_size=9,
        max_size=9,
    ),
    st.lists(st.sampled_from(["zero", "atol", "bound", "far"]), min_size=9, max_size=9),
    st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), min_size=9, max_size=9),
    st.integers(-2, 2),
    st.booleans(),
)
@example(1, [1e-300] * 9, ["atol"] * 9, [0.0] * 9, 0, False)  # a gap of exactly the bound
def test_same_weight_is_allclose(k, ref, kinds, steps, ulps, reshape):
    # Gaps of 0, of the absolute tolerance, of the whole 1e-12 + 1e-10 |ref|
    # bound or of |ref|, each scaled by 1 + step and nudged by a few ulps.
    ref = np.array(ref[: k * k]).reshape(k, k)
    sizes = {
        "zero": lambda r: 0.0,
        "atol": lambda r: 1e-12,
        "bound": lambda r: 1e-12 + 1e-10 * abs(r),
        "far": abs,
    }
    gap = np.array([sizes[kind](r) * (1.0 + d) for kind, r, d in zip(kinds, ref.ravel(), steps)])
    w = ref + gap[: k * k].reshape(k, k) * (1.0 + ulps * sys.float_info.epsilon)
    if reshape:
        w = w.reshape(1, k * k)
    try:
        _linalg.check_same_weight(w, ref, "w", "ref")
        accepted = True
    except InputError as exc:
        assert str(exc) == "w weighting matrix must match the ref W"
        accepted = False
    assert accepted == (w.shape == ref.shape and bool(np.allclose(w, ref, rtol=1e-10, atol=1e-12)))


# Finite values of any size, the signed zeros and the non-finite ones, and
# values at and past 2^512, where x^2 overflows and the far tail takes over.
t_cdf_points = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]),
    st.sampled_from([2.0**512, np.nextafter(2.0**512, 0.0), 1e300]).flatmap(
        lambda x: st.sampled_from([x, -x])
    ),
)


@given(
    st.sampled_from([1.0, 0.7, 3.0, 1e6]),
    st.lists(t_cdf_points, max_size=12),
    st.sampled_from(["array", "list", "0-d", "scalar"]),
)
@example(3.0, [-1.0, -2.5, -1e-300], "array")  # all negative: no reflection
@example(3.0, [-0.0, 0.0, 1.0, -1.0], "array")
@example(3.0, [-1.0, math.nan], "array")  # a NaN's max is NaN: reflected
@example(0.7, [-(2.0**512), 3.0, math.nan], "list")
@example(1e6, [], "array")
@example(1.0, [], "list")
def test_t_cdf_is_its_general_form(dof, xs, form):
    # Whatever route t_cdf takes (no far x, all x negative), its values are the bits
    # of the general form: on arrays (empty too), lists, 0-d arrays and Python floats.
    dist = StudentT(dof)
    if form in ("0-d", "scalar"):
        for x in xs or [0.5]:
            arg = np.array(x) if form == "0-d" else x
            got, want = t_cdf(dist, arg), t_cdf_reference(dist, arg)
            assert type(got) is float and np.array(got).tobytes() == np.array(want).tobytes()
        return
    arg = np.array(xs, dtype=np.float64) if form == "array" else xs
    got, want = t_cdf(dist, arg), t_cdf_reference(dist, arg)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(
    st.sampled_from([1.0, 0.7, 3.0, 1e6]),
    st.lists(t_cdf_points, min_size=1, max_size=12),
    st.booleans(),
)
@example(3.0, [-1.0, -(2.0**512)], False)  # the far tail: t_cdf's general route
@example(1.0, [-1.0, -2.0], False)  # the Cauchy tail
def test_t_cdf_floats_is_the_general_form(dof, xs, negative):
    # One stdtr call where every x lies in (-2^512, 0), t_cdf elsewhere: the bits of the general form.
    xs = [-abs(x) for x in xs] if negative else xs
    got, want = t_cdf_floats(dof, xs), t_cdf_reference(StudentT(dof), np.array(xs, dtype=np.float64))
    assert np.array(got).tobytes() == want.tobytes()


# --- The sweeps' float routes are their array formulas, bit for bit -----------

# Posterior dofs at and about 2, where the sd is infinite or its variance overflows.
sd_dofs = st.sampled_from([0.5, 1.0, 2.0, float(np.nextafter(2.0, 3.0)), 2.0 + 2.0**-40, 2.000001, 3.0, 30.0])


@given(
    seeds,
    sweep_shapes,
    st.sampled_from([-500, -480, -60, 0, 4, 60]),
    st.one_of(st.just(None), sd_dofs),
    st.lists(st.floats(-323.0, 3.0), min_size=1, max_size=5).map(lambda es: sorted({10.0**e for e in es})),
)
@example(0, (3, 1), -500, float(np.nextafter(2.0, 3.0)), [1e-2, 1.0])  # sds past 2^512: the overflow repair
@example(0, (5, 2), 60, None, [5e-324, 1e-320])  # c near underflow
def test_largest_sd_is_the_array_formula(seed, shape, e, dof, c_axis):
    # dof None: the normal family.  Otherwise the power law whose posterior dof,
    # 2 alpha - p, is dof to rounding, so J / dof H^-1 sets the scale at every c.
    k, p = shape
    m = _sweep_model(seed, shape, e, False)
    family = NormalRadial() if dof is None else PowerLawRadial(0.5 * (dof + p))
    path = _refusal_or(lambda: posteriors._PosteriorPath(m, family, c_axis))
    assume(not isinstance(path, tuple))
    want = largest_sd_array(np.array(path.multiplier), np.diag(m.design.hessian_inv), path.dof)
    assert np.array(path.largest_sd()).tobytes() == want.tobytes()


def test_largest_sd_reads_every_entry_past_the_overflow_repair():
    # v1 is a float below v2, and only v2 dof / (dof - 2) overflows: v2's repaired
    # sd is an ulp below v1's, so the largest sd is v1's.
    dof, v1, v2 = 2.000000004787128, 4.302893584908184e299, 4.3028935849081845e299
    path = ClosedFormPosterior(center=[0.0, 0.0], scale=np.diag([v1, v2]), dof=dof)._path
    want = largest_sd_array(np.ones(1), np.array([v1, v2]), dof)
    assert path.largest_sd() == want.tolist() == [1.3407807929942596e154]


def test_numpy_dof_takes_the_overflow_repair_without_a_warning():
    # v dof / (dof - 2) overflows; as numpy scalars that warned, an error here.
    want = ClosedFormPosterior(center=[0.0], scale=[[1e302]], dof=2.0000001).marginal_sd()
    got = ClosedFormPosterior(center=[0.0], scale=[[1e302]], dof=np.float64(2.0000001)).marginal_sd()
    assert got.tobytes() == want.tobytes()


@given(
    st.one_of(st.just(None), sd_dofs, st.sampled_from([1e6, 1e300])),
    st.lists(st.floats(-320.0, 300.0).map(lambda e: 10.0**e), min_size=1, max_size=6),
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, 0.3, -2.0, 1e10]),
    st.floats(-3.0, 300.0).map(lambda e: 10.0**e),
)
@example(3.0, [1e-300, 1.0], 0.0, 0.0, 1e200)  # bounds past -2^512: the far tail
@example(1.0, [0.5, 2.0], 0.5, 0.0, 0.1)  # the Cauchy tail
def test_p1_masses_are_the_array_formula(dof, var, m, shift, eps):
    # About the centre (shift 0) every bound is negative: one stdtr call; off it, t_cdf.
    at = m + shift * eps
    got = posteriors._mass_outside_interval(dof, m, var, at - eps, at + eps)
    want = mass_outside_interval_array(dof, m, np.array(var), at - eps, at + eps)
    assert np.array(got).tobytes() == want.tobytes()


@given(
    st.one_of(st.just(NormalRadial()), st.floats(0.5, 30.0).map(StudentTRadial)),
    st.lists(st.tuples(st.floats(0.0, 6.0), st.floats(-320.0, 2.0)), min_size=1, max_size=6),
    st.floats(-3.0, 1.0).map(lambda e: 10.0**e),
)
@example(NormalRadial(), [(0.0, -310.0), (3.0, -2.0)], 0.1)  # eps^2 / lam_hi overflows: mass 0
def test_p2_masses_are_the_array_formula(family, rows, eps):
    # Rows of condition number 10^a and largest eigenvalue 10^b, down to where it underflows.
    lam_hi = [10.0**b for _, b in rows]
    lam_lo = [hi / 10.0**a for (a, _), hi in zip(rows, lam_hi)]
    assume(all(lo > 0.0 for lo in lam_lo))
    got = posteriors._angular_mass(family, lam_lo, lam_hi, eps)
    assert got.tobytes() == angular_mass_array(family, np.array(lam_lo), np.array(lam_hi), eps).tobytes()


@given(
    st.integers(1, 3),
    st.lists(st.floats(-3.0, 1.7).map(lambda e: 10.0**e), max_size=6),
)
@example(1, [0.1, 40.0])  # an erfc tail below the smallest normal: the far tail
@example(1, [1e-170, 1.0])  # r^2 underflows to 0
def test_normal_tails_are_the_log_tail_route(p, radii):
    got = posteriors._normal_tails(p, radii)
    want = posteriors._tails(NormalRadial(), p, radii)
    assert np.array(got, dtype=np.float64).tobytes() == np.array(want, dtype=np.float64).tobytes()

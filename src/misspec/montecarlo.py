"""Monte Carlo experiment engines: coverage, pivotality, sweeps, tail tables.

Replications use counter-based per-replication random streams (a 64-bit hash
mix of the master seed and the replication index), so hit counts are identical
however the replication range is split into blocks or workers; the reduction
is a plain order-independent sum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from misspec import _kernels, _linalg
from misspec.errors import ImproperPriorError, InputError, JustIdentifiedError
from misspec.inference import InferenceConfig
from misspec.model import ModelInstance, pseudo_true, sigma_v
from misspec.posteriors import (
    GridSpec,
    ThetaPrior,
    bayes_action_quadratic,
    check_point_counts,
    grid_posterior,
    mass_outside_ball,
    posterior_sd,
    tv_distance,
)
from misspec.priors import (
    ContaminatedPrior,
    RadialFamily,
    ScaledPrior,
    StudentTRadial,
    _tail_ratio,
)
from misspec.special import StudentT, t_cdf, t_quantile

__all__ = [
    "CoverageResult",
    "SweepTrace",
    "DEFAULT_COVERAGE_X",
    "DEFAULT_PIVOT_X",
    "run_coverage",
    "run_pivotality",
    "run_concentration",
    "run_contamination",
    "run_tails",
    "ks_statistic",
]

# Fixed, audit-friendly default fixtures.  Coverage: k=5, p=2 with identity
# weighting; pivotality: the k=4 one-sample mean design.
DEFAULT_COVERAGE_X = np.array(
    [
        [1.00, 0.50],
        [1.00, -0.50],
        [0.50, 1.00],
        [-0.50, 1.00],
        [0.25, -1.00],
    ]
)
DEFAULT_PIVOT_X = np.array([[1.0], [1.0], [1.0], [1.0]])


@dataclass(frozen=True)
class CoverageResult:
    """Replication count, hit count, and the implied coverage estimate."""

    reps: int
    hits: int
    coverage: float
    std_err: float
    seed: int
    config: dict = field(default_factory=dict)


def _sweep_axis(values, name: str) -> np.ndarray:
    """A sweep axis of prior scales: nonempty, finite, positive and strictly increasing."""
    axis = _linalg.as_vector(values, None, name)
    increasing = axis.size >= 1 and np.all(np.diff(axis) > 0.0)
    if not (increasing and axis[0] > 0.0 and math.isfinite(axis[-1])):
        raise InputError(f"{name} must be finite, positive and strictly increasing")
    return axis


@dataclass(frozen=True)
class SweepTrace:
    """Metrics recorded along a positive, strictly increasing sweep axis."""

    axis_name: str
    axis: np.ndarray
    metrics: dict[str, np.ndarray]

    def __post_init__(self):
        axis = _sweep_axis(self.axis, f"sweep axis {self.axis_name}")
        metrics = {k: _linalg.as_vector(v, axis.size, k) for k, v in self.metrics.items()}
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "metrics", metrics)


def _coverage_pieces(x, w, v):
    """Precompute the projection quantities the kernels consume.

    a_v maps Y to v'theta_W; B maps Y to Y'BY = J; both depend only on (X, W),
    so they come from the fit of the validated fixture with Y = 0.
    """
    x = _linalg.as_matrix(x, "X")
    fixture = ModelInstance(Y=np.zeros(x.shape[0]), X=x, W=w)
    if fixture.k <= fixture.p:
        raise JustIdentifiedError(
            "coverage and pivotality require an over-identified fixture (k > p)"
        )
    v = _linalg.as_vector(v, fixture.p, "v")
    xtw = fixture.X.T @ fixture.W
    a = pseudo_true(fixture).solve(xtw)  # theta_W = A Y
    b = fixture.W - xtw.T @ a
    b = 0.5 * (b + b.T)
    return fixture, a.T @ v, b, sigma_v(fixture, v)


def _eta_kernel_args(eta_prior: ScaledPrior, fixture) -> tuple[np.ndarray, int, float]:
    if not eta_prior.proper:
        raise ImproperPriorError("Monte Carlo runs require a proper radial prior")
    _linalg.check_same_weight(eta_prior.W, fixture.W, "eta prior", "fixture")
    mix = math.sqrt(eta_prior.c) * fixture.w_inv_root
    if isinstance(eta_prior.family, StudentTRadial):
        return mix, _kernels.ETA_STUDENT_T, float(eta_prior.family.dof)
    return mix, _kernels.ETA_NORMAL, 0.0


def _theta_kernel_args(theta_prior: ThetaPrior, p: int):
    empty = np.empty(0)
    if theta_prior.kind == "gaussian":
        if theta_prior.mean.shape[0] != p:
            raise InputError(f"theta prior dimension {theta_prior.mean.shape[0]} != p={p}")
        return _kernels.THETA_GAUSSIAN, theta_prior.mean, theta_prior.sd, empty, empty
    if theta_prior.kind == "tabulated":
        if p != 1:
            raise InputError("tabulated theta priors support p = 1 only")
        return _kernels.THETA_TABULATED, np.zeros(1), np.ones(1), theta_prior.grid, theta_prior.cdf
    raise InputError(
        "coverage runs require a proper theta prior (gaussian or tabulated); "
        "the flat prior is only meaningful on a truncated grid"
    )


def _check_run(reps, seed) -> None:
    if reps < 1:
        raise InputError(f"reps must be positive, got {reps}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise InputError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def run_coverage(
    x,
    w,
    theta_prior: ThetaPrior,
    eta_prior: ScaledPrior,
    cfg: InferenceConfig,
    reps: int = 20_000,
    seed: int = 0,
) -> CoverageResult:
    """Estimate the ex-ante coverage of the J-scaled interval for v'theta.

    Per replication: draw theta from its prior and eta from the radial prior,
    set Y = X theta + eta, and record whether the interval built from
    (Y, X, W) covers v'theta.  Under any proper rotation-invariant eta prior
    (and any proper theta prior) the expected coverage equals the nominal
    level exactly; the Monte Carlo estimate carries binomial noise.
    """
    _check_run(reps, seed)
    if reps < 100:
        warnings.warn(f"coverage estimate from only {reps} replications", stacklevel=2)
    fixture, a_v, b, sv = _coverage_pieces(x, w, cfg.v)
    k, p = fixture.k, fixture.p
    mix, eta_code, nu = _eta_kernel_args(eta_prior, fixture)
    theta_code, mean, sd, tab_grid, tab_cdf = _theta_kernel_args(theta_prior, p)
    tstar = t_quantile(StudentT(k - p), 0.5 * (1.0 + cfg.level))
    hits = _kernels.coverage_hits(
        seed,
        0,
        reps,
        fixture.X,
        mix,
        eta_code,
        nu,
        theta_code,
        mean,
        sd,
        tab_grid,
        tab_cdf,
        a_v,
        b,
        cfg.v,
        sv,
        tstar,
        float(k - p),
    )
    coverage = hits / reps
    config = {
        "k": k,
        "p": p,
        "level": cfg.level,
        "v": [float(t) for t in cfg.v],
        "radial": eta_prior.family.spec_string(),
        "c": eta_prior.c,
        "theta_prior": theta_prior.kind,
        "reps": reps,
        "seed": seed,
    }
    return CoverageResult(
        reps=reps,
        hits=hits,
        coverage=coverage,
        std_err=math.sqrt(coverage * (1.0 - coverage) / reps),
        seed=seed,
        config=config,
    )


def ks_statistic(samples: np.ndarray, dof: float) -> float:
    """Kolmogorov-Smirnov distance between samples and the t CDF with ``dof``."""
    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = s.size
    f = t_cdf(StudentT(dof), s)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def run_pivotality(
    x,
    w,
    eta_prior: ScaledPrior,
    cfg: InferenceConfig,
    reps: int = 10_000,
    seed: int = 0,
    negative_control: bool = False,
) -> float:
    """KS distance between simulated pivotal t statistics and the t_{k-p} CDF.

    The statistic is theta-free, so only eta is drawn.  With
    ``negative_control`` the elliptical draw is replaced by independent
    shifted-exponential coordinates, which breaks rotation invariance and
    should push the KS distance above its critical value.
    """
    _check_run(reps, seed)
    fixture, a_v, b, sv = _coverage_pieces(x, w, cfg.v)
    k, p = fixture.k, fixture.p
    if negative_control:
        mix, eta_code, nu = np.eye(k), _kernels.ETA_SHIFTED_EXPONENTIAL, 0.0
    else:
        mix, eta_code, nu = _eta_kernel_args(eta_prior, fixture)
    tstats = _kernels.pivot_tstats(
        seed, 0, reps, mix, eta_code, nu, a_v, b, sv, float(k - p)
    )
    return ks_statistic(tstats, k - p)


def _family_sd_estimate(family: RadialFamily, c: float, model: ModelInstance) -> float:
    """Rough posterior sd along H^{-1}'s top axis, used to size sweep grids."""
    pt = pseudo_true(model)
    dof, spread = family.posterior_shape(c, pt.j_stat, model.k, model.p)
    if dof is None:
        return math.sqrt(spread * pt.lam_max)
    # Where the t variance is infinite (dof <= 2), take twice the scale's root.
    factor = dof / (dof - 2.0) if dof > 2.0 else 4.0
    return math.sqrt(spread * pt.lam_max / dof * factor)


def run_concentration(
    model: ModelInstance,
    family: RadialFamily,
    c_grid,
    eps_list,
    grid_points: int = 2001,
) -> SweepTrace:
    """Posterior concentration diagnostics along a grid of prior scales c.

    For each c the posterior under a flat theta prior is evaluated on a grid
    sized to the family's posterior scale, and the trace records mass outside
    each epsilon-ball around the pseudo-true value, the posterior sd, and the
    quadratic-loss Bayes action.
    """
    c_grid = _sweep_axis(c_grid, "c_grid")
    eps_list = [float(e) for e in np.atleast_1d(eps_list)]
    pt = pseudo_true(model)
    metrics: dict[str, list[float]] = {f"mass_outside_{eps:g}": [] for eps in eps_list}
    metrics["posterior_sd"] = []
    action_names = (
        ["bayes_action"]
        if model.p == 1
        else [f"bayes_action_{i + 1}" for i in range(model.p)]
    )
    for name in action_names:
        metrics[name] = []
    for c in c_grid:
        prior = ScaledPrior(family=family, c=float(c), W=model.W)
        sd_est = _family_sd_estimate(family, float(c), model)
        bounds = [(tw - 12.0 * sd_est, tw + 12.0 * sd_est) for tw in pt.theta_w]
        post = grid_posterior(model, prior, spec=GridSpec(bounds=bounds, points=grid_points))
        for eps in eps_list:
            metrics[f"mass_outside_{eps:g}"].append(
                mass_outside_ball(post, pt.theta_w, eps)
            )
        metrics["posterior_sd"].append(float(np.max(posterior_sd(post))))
        action = bayes_action_quadratic(post)
        for name, val in zip(action_names, np.atleast_1d(action)):
            metrics[name].append(float(val))
    return SweepTrace(
        axis_name="c",
        axis=c_grid,
        metrics={k: np.array(v) for k, v in metrics.items()},
    )


def _composite_axis(
    center: float, wide_half: float, core_halves, wide_points: int, core_points: int
) -> np.ndarray:
    """Wide uniform grid with dense cores around the center, sorted unique."""
    pieces = [np.linspace(center - wide_half, center + wide_half, wide_points)]
    for half in core_halves:
        if half < wide_half:
            pieces.append(np.linspace(center - half, center + half, core_points))
    return np.unique(np.concatenate(pieces))


def run_contamination(
    model: ModelInstance,
    base_family: RadialFamily,
    contaminant: ScaledPrior,
    phi: float,
    c_grid,
    eps_list=(0.05,),
    grid_points: int = 1601,
) -> SweepTrace:
    """Fragility diagnostics: contaminated posterior versus the pure contaminant.

    All posteriors in the sweep share one composite grid (a wide grid sized to
    the contaminant posterior plus a dense core per c sized to the base
    posterior), so total variation distances are computed on identical
    supports.  With a positive J the trace shows the contaminated posterior
    collapsing onto the contaminant posterior as c shrinks; with J = 0 it
    keeps concentrating at the pseudo-true value instead.
    """
    if model.p != 1:
        raise InputError("contamination sweeps are implemented for p = 1")
    check_point_counts(grid_points, 1, "grid_points")
    c_grid = _sweep_axis(c_grid, "c_grid")
    eps_list = [float(e) for e in np.atleast_1d(eps_list)]
    pt = pseudo_true(model)
    wide = 12.0 * _family_sd_estimate(contaminant.family, contaminant.c, model)
    cores = [10.0 * _family_sd_estimate(base_family, float(c), model) for c in c_grid]
    axis = _composite_axis(float(pt.theta_w[0]), wide, cores, grid_points, 401)
    spec = GridSpec(axes=[axis])
    contam_post = grid_posterior(model, contaminant, spec=spec)
    metrics: dict[str, list[float]] = {"tv_to_contaminant": []}
    for eps in eps_list:
        metrics[f"mass_outside_{eps:g}"] = []
    for c in c_grid:
        base = ScaledPrior(family=base_family, c=float(c), W=model.W)
        prior = ContaminatedPrior(base=base, contaminant=contaminant, phi=phi)
        post = grid_posterior(model, prior, spec=spec)
        metrics["tv_to_contaminant"].append(tv_distance(post, contam_post))
        for eps in eps_list:
            metrics[f"mass_outside_{eps:g}"].append(
                mass_outside_ball(post, pt.theta_w, eps)
            )
    return SweepTrace(
        axis_name="c",
        axis=c_grid,
        metrics={k: np.array(v) for k, v in metrics.items()},
    )


def run_tails(family: RadialFamily, a_list, tau_list, c_list, k: int = 2) -> np.ndarray:
    """Tabulate conditional radial tail ratios over (a, tau, c) in dimension k.

    The ratio does not depend on W, so no weight matrix is formed.  Returns
    an array with columns (a, tau, c, ratio).
    """
    if k < 1:
        raise InputError(f"dimension k must be positive, got {k}")
    rows = [
        (a, tau, c, _tail_ratio(family, k, c, a, tau))
        for c in map(float, np.atleast_1d(c_list))
        for a in map(float, np.atleast_1d(a_list))
        for tau in map(float, np.atleast_1d(tau_list))
    ]
    return np.array(rows)

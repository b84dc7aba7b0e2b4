"""Monte Carlo experiment engines: coverage, pivotality, sweeps, tail tables.

Replications use counter-based per-replication random streams (a 64-bit hash
mix of the master seed and the replication index), so hit counts are identical
however the replication range is split into blocks or workers; the reduction
is a plain order-independent sum.

What a coverage or pivotality run needs of its fixture (X, W) alone -- the
validated Y = 0 model with its design's SVD, the projections
A = V S^-1 U' R and B = R' (I - U U') R for the root R'R = W, and W's
inverse root -- is memoised in a small LRU cache keyed on the shapes and
bytes of the float64 X and W.  A key made of the contents is safe: equal
arrays share an entry, an array changed in place is a new key, a fixture
that fails validation raises on every call, and the cached arrays are
read-only.

``ks_statistic`` evaluates the t CDF exactly at every 8th order statistic and
brackets it in between, evaluating a segment in full only where its bound
could beat the largest exact term; the result equals the full evaluation.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from misspec import _kernels, _linalg, _rng
from misspec.errors import ImproperPriorError, InputError, JustIdentifiedError
from misspec.inference import InferenceConfig
from misspec.model import ModelInstance, sigma_v
from misspec.posteriors import (
    ThetaPrior,
    _PosteriorPath,
    closed_form_posterior,
    mass_outside_ball,
)
from misspec.priors import (
    RadialFamily,
    ScaledPrior,
    _kernel_eta_code,
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

    @classmethod
    def _along_c(cls, c_grid: np.ndarray, metrics: dict[str, np.ndarray]) -> "SweepTrace":
        """The trace of float64 metrics, one per c, on a ``c_grid`` that ``_sweep_axis`` checked."""
        trace = object.__new__(cls)
        for name, value in (("axis_name", "c"), ("axis", c_grid), ("metrics", metrics)):
            object.__setattr__(trace, name, value)
        return trace


# Replications per pivotality run, at most: ``pivot_tstats`` returns one
# float64 per replication (80 MB at the cap).  ``coverage_hits`` works by
# block, so coverage runs have no cap.
_MAX_PIVOT_REPS = 10**7


def _check_run(reps, seed) -> None:
    _rng.check_positive_int(reps, "reps")
    _rng.check_seed(seed)


@dataclass(frozen=True)
class _Fixture:
    """A validated Monte Carlo fixture and its Y-free projections.

    ``model`` is (Y = 0, X, W).  ``a`` is 2^a A for X = 2^a X_s, so that no
    scale of X overflows it, where A = V S^-1 U' R maps Y to theta_W; B = R'
    (I - U U') R maps Y to Y'BY = J.  Both are read-only, as are the model's
    arrays; W's inverse root is computed on first use and kept on the design.
    """

    model: ModelInstance
    a: np.ndarray
    b: np.ndarray


@functools.lru_cache(maxsize=8)
def _fixture_from_bytes(x_shape, x_bytes, w_shape, w_bytes) -> _Fixture:
    x = np.frombuffer(x_bytes).reshape(x_shape)
    w = np.frombuffer(w_bytes).reshape(w_shape)
    model = ModelInstance(Y=np.zeros(x_shape[0]), X=x, W=w)
    if model.k <= model.p:
        raise JustIdentifiedError(
            "coverage and pivotality require an over-identified fixture (k > p)"
        )
    d = model.design
    ur = d.u.T @ d.w_root
    n = d.w_root - d.u @ ur
    a = d.vt.T @ (ur / d.s[:, None])
    b = _linalg._symmetrize(np.ldexp(n.T @ n, d.w_factor.exponent))
    a.setflags(write=False)
    b.setflags(write=False)
    return _Fixture(model=model, a=a, b=b)


def _fixture(x, w) -> _Fixture:
    """The fixture for (X, W), memoised on the shapes and bytes of their float64 forms.

    The key is the arrays' contents, not their identity, so equal arrays share
    one validation and factorisation, and a caller's array changed in place
    is a new key.  Validation errors propagate and are not cached.
    """
    x = _linalg.as_matrix(x, "X")
    w = np.asarray(w, dtype=np.float64)
    return _fixture_from_bytes(x.shape, x.tobytes(), w.shape, w.tobytes())


def _pivot_args(x, w, eta_prior: ScaledPrior, v, negative_control: bool = False) -> tuple:
    """``pivot_tstats`` arguments after (seed, rep_start, rep_stop).

    (X, W) is validated and factored once per distinct fixture (see
    ``_fixture``); here only v and the eta prior are checked.  a_v = A'v maps
    Y to v'theta_W.  The t statistic does not depend on the scale of eta, so
    eta is drawn at c = 1 (eta_mix = W^{-1/2}) whatever ``eta_prior.c``: a
    huge or tiny c could only overflow or underflow eta'B eta.  Likewise v is
    scaled exactly by a power of two, so that a huge v cannot overflow a_v'eta,
    and a_v and sigma_v alike, so that sigma_v^2 in the kernel stays in range.
    The negative control draws shifted exponentials and ignores ``eta_prior``.
    """
    fixture = _fixture(x, w)
    model = fixture.model
    v, _ = _linalg.binade_scaled(_linalg.as_vector(v, model.p, "v"))
    e = math.frexp(sv := sigma_v(model, v))[1]
    if negative_control:
        mix, eta_code, nu = np.eye(model.k), _kernels.ETA_SHIFTED_EXPONENTIAL, 0.0
    else:
        eta_code, nu = _kernel_eta_code(eta_prior.family)
        mix = model.design.w_factor.inv_root
        _linalg.check_same_weight(eta_prior.W, model.W, "eta prior", "fixture")
    a_v, sv = np.ldexp(fixture.a.T @ v, -model.design.x_exponent - e), math.ldexp(sv, -e)
    return mix, eta_code, nu, a_v, fixture.b, sv, float(model.k - model.p)


def _coverage_args(
    x, w, theta_prior: ThetaPrior, eta_prior: ScaledPrior, cfg: InferenceConfig
) -> tuple:
    """``coverage_hits`` arguments after (seed, rep_start, rep_stop).

    The uniforms a replication's Gaussian theta draw takes, 2p, then the
    ``_pivot_args`` tuple with t* before k - p.
    """
    mix, eta_code, nu, a_v, b, sv, km_p = _pivot_args(x, w, eta_prior, cfg.v)
    p = _fixture(x, w).model.p
    if theta_prior.mean.shape[0] != p:
        raise InputError(f"theta prior dimension {theta_prior.mean.shape[0]} != p={p}")
    tstar = t_quantile(StudentT(km_p), 0.5 * (1.0 + cfg.level))
    return (2 * p, mix, eta_code, nu, a_v, b, sv, tstar, km_p)


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
    (Y, X, W) covers v'theta; the kernel counts that event as |T| <= t* for
    the t statistic T of eta alone, so the hits depend on neither c nor theta.
    Under any proper rotation-invariant eta prior (and any theta prior)
    the expected coverage equals the nominal level exactly; the Monte Carlo
    estimate carries binomial noise.
    """
    _check_run(reps, seed)
    if reps < 100:
        warnings.warn(f"coverage estimate from only {reps} replications", stacklevel=2)
    args = _coverage_args(x, w, theta_prior, eta_prior, cfg)
    hits = _kernels.coverage_hits(seed, 0, reps, *args)
    k, p = _linalg.as_matrix(x, "X").shape
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


_KS_STRIDE = 8
# How far the computed CDF may step back between increasing arguments:
# betainc is accurate to far fewer than 1e-12 / 2^-53 (about 4500) ulps.
_KS_SLACK = 1e-12


def ks_statistic(samples: np.ndarray, dof: float) -> float:
    """Kolmogorov-Smirnov distance between samples and the t CDF with ``dof``.

    The distance is the largest term max(i/n - F_i, F_i - (i-1)/n) over the
    sorted samples, F_i the t CDF at the i-th.  F is evaluated exactly at every
    ``_KS_STRIDE``-th sample and the last; F is monotone, so between two such
    knots every F_i lies in the knots' [F_lo, F_hi], which bounds the terms of
    that segment.  Only segments whose bound could beat the largest exact term
    are evaluated in full.  The CDF is elementwise, so the result equals the
    full evaluation bit for bit; a NaN sample makes it NaN.
    """
    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = s.size
    if n == 0:
        raise InputError("the KS statistic needs at least one sample")
    dist = StudentT(dof)

    def terms(idx, f):
        return np.maximum((idx + 1) / n - f, f - idx / n)

    knots = np.append(np.arange(0, n - 1, _KS_STRIDE), n - 1)
    f_knots = t_cdf(dist, s[knots])
    best = np.max(terms(knots, f_knots))
    # For knots lo < j < hi (0-based), F_lo <= F_j <= F_hi bounds the terms
    # by (j + 1)/n - F_lo <= hi/n - F_lo and F_hi - j/n <= F_hi - (lo + 1)/n.
    lo, hi = knots[:-1], knots[1:]
    bound = np.maximum(hi / n - f_knots[:-1], f_knots[1:] - (lo + 1) / n)
    inner = np.flatnonzero(np.repeat(bound > best - _KS_SLACK, _KS_STRIDE))
    inner = inner[(inner % _KS_STRIDE != 0) & (inner < n - 1)]
    if inner.size:
        best = max(best, np.max(terms(inner, t_cdf(dist, s[inner]))))
    return float(best)


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
    if reps > _MAX_PIVOT_REPS:
        raise InputError(f"pivotality runs take at most {_MAX_PIVOT_REPS} reps, got {reps}")
    args = _pivot_args(x, w, eta_prior, cfg.v, negative_control)
    tstats = _kernels.pivot_tstats(seed, 0, reps, *args)
    k, p = _linalg.as_matrix(x, "X").shape
    return ks_statistic(tstats, k - p)


# The most points ``grid_points`` may ask for: a p = 2 grid of 2001 per axis.
_MAX_GRID_POINTS = 2001**2


def _check_grid_points(points, p: int) -> None:
    """Validate the sweeps' ``grid_points`` as p per-axis point counts of a grid.

    It sizes nothing; it is only checked, as integers >= 2 whose product is
    at most ``_MAX_GRID_POINTS``, because ``perfbench`` still passes it.
    """
    counts = [points] * p if np.isscalar(points) else list(points)
    if len(counts) != p or not all(isinstance(n, (int, np.integer)) and n >= 2 for n in counts):
        raise InputError(f"grid_points must be {p} integer(s) >= 2, got {points!r}")
    counts = [int(n) for n in counts]
    if math.prod(counts) > _MAX_GRID_POINTS:
        raise InputError(f"grid of {counts} points exceeds {_MAX_GRID_POINTS} points in total")


def _mass_outside_names(eps_list) -> dict[str, float]:
    """Metric name ``mass_outside_<eps:g>`` -> eps, for the sweeps' eps values.

    Each eps is a ball radius and must be positive; two eps values that
    print alike would share one name.  Either is an InputError, raised before
    any posterior is built.
    """
    names: dict[str, float] = {}
    for eps in map(float, np.atleast_1d(eps_list)):
        if not eps > 0.0:
            raise InputError(f"ball radius must be positive, got {eps}")
        name = f"mass_outside_{eps:g}"
        if name in names:
            raise InputError(
                f"eps values {names[name]!r} and {eps!r} both give the metric {name!r}"
            )
        names[name] = eps
    return names


def run_concentration(
    model: ModelInstance,
    family: RadialFamily,
    c_grid,
    eps_list,
    grid_points: int = 2001,
) -> SweepTrace:
    """Posterior concentration diagnostics along a grid of prior scales c, in closed form.

    Under the flat theta prior the posterior at each c is
    ``closed_form_posterior(model, family, c)``, elliptical about theta_W.  The
    trace records, exactly, the mass outside each epsilon-ball around theta_W
    (``mass_outside_ball``), the largest marginal posterior sd (inf where the
    posterior dof is at most 2) and the quadratic-loss Bayes action, theta_W
    (nan where the dof is at most 1: the posterior has no mean).  All of them
    are read off one ``_PosteriorPath`` over the whole c axis, which builds no
    posterior per c: at p = 1 each mass is one array evaluation over c, bit for
    bit the per-c value.  ``grid_points`` sizes nothing
    (``_check_grid_points``).  p is at most 2.
    """
    if model.p > 2:
        raise InputError(f"concentration sweeps support p <= 2, got p = {model.p}")
    c_grid = _sweep_axis(c_grid, "c_grid")
    eps_names = _mass_outside_names(eps_list)
    _check_grid_points(grid_points, model.p)
    path = _PosteriorPath(model, family, c_grid.tolist())
    metrics = {name: path.mass_outside(eps) for name, eps in eps_names.items()}
    metrics["posterior_sd"] = path.max_marginal_sd()
    has_mean = path.dof is None or path.dof > 1.0
    action_names = (
        ["bayes_action"] if model.p == 1 else [f"bayes_action_{i + 1}" for i in range(model.p)]
    )
    for name, val in zip(action_names, path.center):
        metrics[name] = np.full(c_grid.size, val if has_mean else math.nan)
    return SweepTrace._along_c(c_grid, metrics)


def run_contamination(
    model: ModelInstance,
    base_family: RadialFamily,
    contaminant: ScaledPrior,
    phi: float,
    c_grid,
    eps_list=(0.05,),
    grid_points: int = 1601,
) -> SweepTrace:
    """Fragility diagnostics: contaminated posterior versus the pure contaminant, in closed form.

    Under the flat theta prior the posterior at each c is the exact
    ``MixturePosterior`` of the base posterior at c and the contaminant
    posterior, weighted by phi and their marginal likelihoods.  The trace
    records, exactly, its TV distance to the pure contaminant posterior and
    its mass outside each epsilon-ball around theta_W.  With a positive J the
    contaminated posterior collapses onto the contaminant posterior as c
    shrinks, its base weight falling as e^(-J/(2c)) for the normal family;
    with J = 0 it keeps concentrating at the pseudo-true value instead.
    The contaminant's closed form and its masses are computed once; the base
    posteriors are one ``_PosteriorPath``, whose weights, TV distances and
    masses equal the per-c mixture's bit for bit.  ``grid_points`` sizes
    nothing (``_check_grid_points``).  p is at most 2.
    """
    if model.p > 2:
        raise InputError(f"contamination sweeps support p <= 2, got p = {model.p}")
    if not (base_family.proper and contaminant.proper):
        raise ImproperPriorError("contamination base and contaminant priors must be proper")
    _check_grid_points(grid_points, model.p)
    c_grid = _sweep_axis(c_grid, "c_grid")
    eps_names = _mass_outside_names(eps_list)
    _linalg.check_same_weight(contaminant.W, model.W, "contaminant", "model")
    pure = closed_form_posterior(model, contaminant.family, contaminant.c)
    path = _PosteriorPath(model, base_family, c_grid.tolist())
    w_base, w_pure = path.mixture_weights(pure, phi)
    metrics = {"tv_to_contaminant": w_base * path.tv_to(pure)}
    for name, eps in eps_names.items():
        pure_mass = mass_outside_ball(pure, path.center, eps)
        metrics[name] = np.minimum(w_base * path.mass_outside(eps) + w_pure * pure_mass, 1.0)
    return SweepTrace._along_c(c_grid, metrics)


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

"""Posterior distributions for theta under rotation-invariant misspecification priors.

``closed_form_posterior`` is exact under a flat theta prior for every radial
family: Gaussian for the normal family, Student-t for the power law and for
the t family at every c, with c = 0 its small-c limit.  A closed form is
Gaussian iff its dof is None, and its density is the matching radial
profile (normal or t) normalized in dimension p.  Under a contaminated prior
the posterior is exact too: the ``MixturePosterior`` of the two components'
closed forms, weighted by their marginal likelihoods.
Numerical posteriors are computed on one- or two-dimensional grids in log
space with max-subtraction before exponentiation, since the radial profile
evaluated at Q/c underflows catastrophically for small c.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from misspec import _linalg
from misspec.errors import (
    DegenerateLimitError,
    GridError,
    InputError,
    ModelValidationError,
    NumericalError,
)
from misspec.model import ModelInstance, pseudo_true
from misspec.priors import (
    ContaminatedPrior,
    NormalRadial,
    RadialFamily,
    ScaledPrior,
    StudentTRadial,
)
from misspec.special import StudentT, t_cdf

__all__ = [
    "ThetaPrior",
    "ClosedFormPosterior",
    "MixturePosterior",
    "GridSpec",
    "GridPosterior",
    "closed_form_posterior",
    "normal_posterior",
    "grid_posterior",
    "mass_outside_ball",
    "bayes_action_quadratic",
    "bayes_action_grid",
    "tv_distance",
    "posterior_sd",
]


@dataclass(frozen=True)
class ThetaPrior:
    """Prior on theta: flat (on the truncated grid), Gaussian, or tabulated.

    The flat prior is realized as the uniform density on whatever grid the
    posterior is evaluated on; it is only meaningful together with grid
    truncation.
    """

    kind: str
    mean: np.ndarray | None = None
    sd: np.ndarray | None = None
    density_fn: Callable[[np.ndarray], float] | None = None
    grid: np.ndarray | None = None

    @staticmethod
    def flat() -> "ThetaPrior":
        return ThetaPrior(kind="flat")

    @staticmethod
    def gaussian(mean, sd) -> "ThetaPrior":
        mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        sd = np.broadcast_to(np.asarray(sd, dtype=np.float64), mean.shape).copy()
        if not np.isfinite(mean).all():
            raise InputError("Gaussian theta prior requires a finite mean")
        if not (np.isfinite(sd).all() and np.all(sd > 0.0)):
            raise InputError("Gaussian theta prior requires a positive finite sd")
        return ThetaPrior(kind="gaussian", mean=mean, sd=sd)

    @staticmethod
    def tabulated(density_fn: Callable[[np.ndarray], float], grid) -> "ThetaPrior":
        """Density on the p=1 support points ``grid``, with positive trapezoid mass there.

        Coverage runs never draw theta, so no CDF is kept.
        """
        g = np.asarray(grid, dtype=np.float64)
        if g.ndim != 1 or g.size < 2 or not np.all(np.diff(g) > 0.0):
            raise InputError("tabulated prior grid must be strictly increasing")
        dens = np.array([float(density_fn(np.array([t]))) for t in g])
        if np.any(dens < 0.0):
            raise InputError("tabulated theta prior density must be nonnegative")
        if not np.sum(0.5 * (dens[1:] + dens[:-1]) * np.diff(g)) > 0.0:
            raise InputError("tabulated theta prior has zero mass on its grid")
        return ThetaPrior(kind="tabulated", density_fn=density_fn, grid=g)

    def log_density(self, points: np.ndarray) -> np.ndarray:
        """Log prior density at an (m, p) array of theta points."""
        points = np.asarray(points, dtype=np.float64)
        if self.kind == "flat":
            return np.zeros(points.shape[0])
        if self.kind == "gaussian":
            if self.mean.shape[0] != points.shape[1]:
                raise InputError(
                    f"theta prior has dimension {self.mean.shape[0]} "
                    f"but grid points have {points.shape[1]}"
                )
            z = (points - self.mean[None, :]) / self.sd[None, :]
            return -0.5 * np.sum(z * z, axis=1) - np.sum(
                np.log(self.sd * math.sqrt(2.0 * math.pi))
            )
        vals = np.array([float(self.density_fn(pt)) for pt in points])
        if np.any(vals < 0.0):
            raise InputError("tabulated theta prior returned a negative density")
        with np.errstate(divide="ignore"):
            return np.log(vals)


@dataclass(frozen=True)
class ClosedFormPosterior:
    """Gaussian (``dof`` None) or Student-t posterior descriptor.

    ``scale`` is the covariance matrix of a Gaussian and the scale matrix (not
    the covariance) of a Student-t.  ``log_evidence``, where known, is the log
    marginal likelihood of the data under the prior that gave the posterior,
    up to a term its model fixes (``RadialFamily.log_evidence``).
    """

    center: np.ndarray
    scale: np.ndarray
    dof: float | None = None
    log_evidence: float | None = None

    def __post_init__(self):
        center = _linalg.as_vector(self.center, None, "center")
        sf = _linalg.spd_factor(self.scale, "scale")
        if sf.matrix.shape[0] != center.shape[0]:
            raise InputError("posterior center and scale dimensions disagree")
        family = NormalRadial() if self.dof is None else StudentTRadial(self.dof)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "scale", sf.matrix)
        object.__setattr__(self, "_family", family)
        object.__setattr__(self, "_scale_factor", sf)

    @property
    def p(self) -> int:
        return self.center.shape[0]

    def density(self, points) -> np.ndarray:
        """Posterior density at an (m, p) array (or a single point) of thetas."""
        pts = np.asarray(points, dtype=np.float64)
        single = pts.ndim == 1
        pts = pts[None, :] if single else pts
        sf, family = self.__dict__["_scale_factor"], self.__dict__["_family"]
        d = pts - self.center[None, :]
        q = np.einsum("ni,ij,nj->n", d, sf.inverse, d)
        logdens = family.log_f(q, self.p) - family.log_ball_integral(self.p) - 0.5 * sf.log_det
        out = np.exp(logdens)
        return float(out[0]) if single else out

    def marginal_sd(self) -> np.ndarray:
        """Marginal standard deviations (infinite for t with dof <= 2)."""
        diag = np.diag(self.scale)
        if self.dof is None:
            return np.sqrt(diag)
        if self.dof <= 2.0:
            return np.full(self.p, np.inf)
        return np.sqrt(diag * self.dof / (self.dof - 2.0))


def closed_form_posterior(
    model: ModelInstance, family: RadialFamily, c: float
) -> ClosedFormPosterior:
    """Exact posterior under ``family`` at prior scale c, with a flat theta prior.

    Centred at theta_W, with the shape of ``family.posterior_shape``; c = 0
    is the small-c limit.  Where the scale is J alone, J must be positive.
    X'WX must have a condition number below 1e10, the bound every posterior
    scale is held to; a scale that underflows in float64 is refused by its c.
    """
    if not (c >= 0.0 and math.isfinite(c)):
        raise InputError(f"prior scale c must be nonnegative and finite, got {c}")
    pt = pseudo_true(model)
    if not pt.condition_number < 1.0 / _linalg.SPD_RTOL:
        raise ModelValidationError(
            f"X'WX has condition number {pt.condition_number:.3e}; closed-form "
            f"posteriors need it below {1.0 / _linalg.SPD_RTOL:.0e}"
        )
    dof, spread = family.posterior_shape(c, pt.j_stat, model.k, model.p)
    if dof is None:
        if not spread > 0.0:
            raise InputError(f"prior scale c must be positive, got {c}")
        scale = spread * pt.hessian_inv
    elif (not family.proper or c == 0.0) and pt.j_stat <= pt.noise_floor:
        raise DegenerateLimitError(
            f"{family.spec_string()} posterior at c = {c:g} requires a positive "
            "J-statistic (its scale is J alone)"
        )
    else:
        scale = spread / dof * pt.hessian_inv
    # A J within float noise of 0 is 0 here, or it would decide the evidence at tiny c.
    j = pt.j_stat if pt.j_stat > pt.noise_floor else 0.0
    evidence = family.log_evidence(c, j, model.k, model.p) if family.proper and c > 0.0 else None
    try:
        return ClosedFormPosterior(center=pt.theta_w, scale=scale, dof=dof, log_evidence=evidence)
    except ModelValidationError as exc:
        raise InputError(f"posterior at prior scale c = {c:g} is unrepresentable: {exc}") from None


def normal_posterior(model: ModelInstance, c: float) -> ClosedFormPosterior:
    """Gaussian posterior N(theta_W, c (X'WX)^{-1}) under the normal radial prior."""
    return closed_form_posterior(model, NormalRadial(), c)


def _expit(x: float) -> float:
    """1 / (1 + e^-x), without overflow."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@dataclass(frozen=True)
class MixturePosterior:
    """Posterior under the prior (1 - phi) base + phi contaminant, with a flat theta prior.

    ``base`` and ``contaminant`` are the closed-form posteriors under each
    prior alone, from one model, with their log evidences.  The posterior is
    the mixture (1 - w) base + w contaminant, with w = phi m_c / ((1 - phi) m_b
    + phi m_c) for the marginal likelihoods m.  w is kept as its log odds,
    so that neither w nor 1 - w cancels when the other is close to 1.  For
    the normal family log m falls as -J / (2c): when J > 0 the weight moves
    to the contaminant as the base's c shrinks, and when J = 0 to the base.
    """

    base: ClosedFormPosterior
    contaminant: ClosedFormPosterior
    phi: float

    def __post_init__(self):
        if not (0.0 < self.phi < 1.0):
            raise InputError(f"contamination weight phi must be in (0, 1), got {self.phi}")
        if self.base.log_evidence is None or self.contaminant.log_evidence is None:
            raise InputError("mixture components need the log evidence of a proper prior")
        if not np.array_equal(self.base.center, self.contaminant.center):
            raise InputError("mixture components must share their centre")
        log_odds = (
            math.log(self.phi)
            - math.log1p(-self.phi)
            + self.contaminant.log_evidence
            - self.base.log_evidence
        )
        if math.isnan(log_odds):
            # Both evidences underflow, which only normal ones do (J / c overflows).
            # The wider, larger-c one has the larger evidence; equal ones agree.
            wider = self.contaminant.scale[0, 0] - self.base.scale[0, 0]
            log_odds = math.copysign(math.inf, wider)
        object.__setattr__(self, "log_odds", log_odds)

    @property
    def p(self) -> int:
        return self.base.p

    def weights(self) -> tuple[float, float]:
        """(1 - w, w): the base's and the contaminant's posterior weights."""
        return _expit(-self.log_odds), _expit(self.log_odds)

    def tv_to_contaminant(self) -> float:
        """TV distance to the pure contaminant posterior: (1 - w) TV(base, contaminant)."""
        return self.weights()[0] * tv_distance(self.base, self.contaminant)


@dataclass(frozen=True)
class GridSpec:
    """Grid geometry for numerical posteriors: bounds and points per axis.

    ``axes`` overrides bounds/points with explicit (strictly increasing, not
    necessarily uniform) coordinate arrays.
    """

    bounds: Sequence[tuple[float, float]] | None = None
    points: int | Sequence[int] | None = None
    axes: Sequence[np.ndarray] | None = None


@dataclass(frozen=True)
class GridPosterior:
    """Normalized posterior on a rectangular grid over 1 or 2 parameters.

    ``density`` integrates to one by the trapezoidal rule on the grid;
    ``weights`` are the per-point trapezoidal masses and sum to one.
    """

    axes: tuple[np.ndarray, ...]
    density: np.ndarray
    weights: np.ndarray

    @property
    def p(self) -> int:
        return len(self.axes)

    def points(self) -> np.ndarray:
        """All grid points as an (m, p) array in row-major axis order."""
        return _grid_points(self.axes)

    def _marginals(self) -> list[np.ndarray]:
        """Per-axis marginal weights, each summing to one."""
        dims = range(self.p)
        return [self.weights.sum(axis=tuple(j for j in dims if j != i)) for i in dims]

    def mean(self) -> np.ndarray:
        return np.array([m @ a for m, a in zip(self._marginals(), self.axes)])

    def sd(self) -> np.ndarray:
        # The centred second moment: E[theta^2] - mean^2 cancels when sd << |mean|.
        return np.sqrt([m @ (a - m @ a) ** 2 for m, a in zip(self._marginals(), self.axes)])


def _grid_points(axes: tuple[np.ndarray, ...]) -> np.ndarray:
    """All points of the grid on ``axes`` as an (m, p) array in row-major order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _axes_quadform(m: np.ndarray, axes: tuple[np.ndarray, ...], center) -> np.ndarray:
    """(theta - center)' M (theta - center) at every grid point, broadcast over the axes."""
    d = np.ix_(*(a - c0 for a, c0 in zip(axes, center)))
    p = len(d)
    return sum(m[i, j] * d[i] * d[j] for i in range(p) for j in range(p))


def _trapz_weights(axis: np.ndarray) -> np.ndarray:
    w = np.zeros_like(axis)
    d = np.diff(axis)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def _grid_cell_weights(axes: tuple[np.ndarray, ...]) -> np.ndarray:
    w = _trapz_weights(axes[0])
    if len(axes) == 1:
        return w
    return np.outer(w, _trapz_weights(axes[1]))


def _validate_axis(axis, name: str) -> np.ndarray:
    arr = np.asarray(axis, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise GridError(f"{name} must be a 1-d array with at least 2 points")
    if not np.all(np.diff(arr) > 0.0):
        raise GridError(f"{name} must be strictly increasing")
    return arr


def _normalize_grid(axes: tuple[np.ndarray, ...], logu: np.ndarray) -> GridPosterior:
    peak = float(np.max(logu))  # NaN if any point is NaN
    if math.isnan(peak):
        raise NumericalError("grid log posterior is NaN at some grid point")
    if not math.isfinite(peak):
        raise NumericalError("posterior mass underflowed everywhere on the grid")
    cell = _grid_cell_weights(axes)
    dens = np.exp(logu - peak)
    total = float(np.sum(cell * dens))
    if not (total > 0.0 and math.isfinite(total)):
        raise NumericalError("grid posterior normalizer is not finite")
    dens = dens / total
    return GridPosterior(axes=axes, density=dens, weights=cell * dens)


def _default_halfwidths(model: ModelInstance, prior) -> np.ndarray:
    """Half-widths for default grid bounds around the pseudo-true value."""
    pt = pseudo_true(model)
    sig_max = math.sqrt(pt.lam_max)
    j = pt.j_stat
    kp = model.k - model.p
    hw = 12.0 * math.sqrt(j / kp) * sig_max if (kp > 0 and j > 0.0) else 0.0
    base = prior.base if isinstance(prior, ContaminatedPrior) else prior
    floor = 0.0
    if base.proper:
        # Scale floor so that J = 0 or k = p fixtures still get a usable grid.
        _, spread = base.family.posterior_shape(base.c, j, model.k, model.p)
        floor = 20.0 * math.sqrt(spread * max(np.diag(pt.hessian_inv).max(), 0.0))
    if max(hw, floor) <= 0.0:
        raise GridError(
            "cannot infer default grid bounds (J = 0 with an improper prior); "
            "pass explicit bounds"
        )
    return np.full(model.p, max(hw, floor))


# The CLI's default p=2 grid is the largest allowed.
_MAX_GRID_POINTS = 2001**2


def _check_grid_size(n_points: list[int]) -> None:
    if math.prod(n_points) > _MAX_GRID_POINTS:
        raise GridError(f"grid of {n_points} points exceeds {_MAX_GRID_POINTS} points in total")


def check_point_counts(points, p: int, name: str = "grid point counts") -> list[int]:
    """Per-axis point counts: p integers >= 2 whose product is within the cap."""
    counts = [points] * p if np.isscalar(points) else list(points)
    if len(counts) != p or not all(isinstance(n, (int, np.integer)) and n >= 2 for n in counts):
        raise GridError(f"{name} must be {p} integer(s) >= 2, got {points!r}")
    counts = [int(n) for n in counts]
    _check_grid_size(counts)
    return counts


def _resolve_axes(
    model: ModelInstance, prior, spec: GridSpec, theta_w: np.ndarray
) -> tuple[np.ndarray, ...]:
    if spec.axes is not None:
        if len(spec.axes) != model.p:
            raise GridError(f"need {model.p} axes, got {len(spec.axes)}")
        axes = tuple(_validate_axis(a, f"axis {i}") for i, a in enumerate(spec.axes))
        _check_grid_size([a.size for a in axes])
        return axes
    if spec.bounds is not None:
        bounds = [(float(lo), float(hi)) for lo, hi in spec.bounds]
        if len(bounds) != model.p:
            raise GridError(f"need {model.p} bound pairs, got {len(bounds)}")
    else:
        hws = _default_halfwidths(model, prior)
        bounds = [(tw - hw, tw + hw) for tw, hw in zip(theta_w, hws)]
    points = (2001 if model.p == 1 else 201) if spec.points is None else spec.points
    n_points = check_point_counts(points, model.p)
    axes = []
    for (lo, hi), n in zip(bounds, n_points):
        if not (hi > lo):
            raise GridError(f"empty grid bounds ({lo}, {hi})")
        axes.append(np.linspace(lo, hi, n))
    return tuple(axes)


def _axes_cover(axes: tuple[np.ndarray, ...], theta: np.ndarray) -> bool:
    return all(a[0] <= t <= a[-1] for a, t in zip(axes, theta))


def grid_posterior(
    model: ModelInstance,
    prior: ScaledPrior | ContaminatedPrior,
    theta_prior: ThetaPrior | None = None,
    spec: GridSpec | None = None,
) -> GridPosterior:
    """Numerical posterior for theta on a grid (p in {1, 2}).

    Pointwise, log posterior = log theta-prior + log prior density of the
    implied moment Y - X theta, which the prior sees only through
    Q(theta) = J + (theta - theta_W)' H (theta - theta_W) from the cached fit;
    the result is normalized by the trapezoidal rule.  If the supplied bounds
    exclude the pseudo-true value the grid is expanded once with a warning,
    then a :class:`GridError` is raised.
    """
    if model.p > 2:
        raise InputError(
            f"numerical posteriors support p in {{1, 2}}, got p={model.p}; "
            "use the closed forms for higher dimensions"
        )
    theta_prior = theta_prior or ThetaPrior.flat()
    spec = spec or GridSpec()
    base = prior.base if isinstance(prior, ContaminatedPrior) else prior
    _linalg.check_same_weight(base.W, model.W, "prior", "model")
    pt = pseudo_true(model)
    if not base.proper and pt.j_stat <= pt.noise_floor:
        raise DegenerateLimitError(
            f"{base.family.spec_string()} grid posterior requires a positive J-statistic"
        )
    theta_w = pt.theta_w
    axes = _resolve_axes(model, prior, spec, theta_w)
    if not _axes_cover(axes, theta_w):
        warnings.warn(
            "grid bounds exclude the pseudo-true value; expanding once",
            stacklevel=2,
        )
        expanded = []
        for a, t in zip(axes, theta_w):
            span = a[-1] - a[0]
            lo = min(a[0], t - 0.25 * span)
            hi = max(a[-1], t + 0.25 * span)
            expanded.append(np.linspace(lo, hi, a.size))
        axes = tuple(expanded)
        if not _axes_cover(axes, theta_w):
            raise GridError("grid cannot be expanded to cover the pseudo-true value")

    q = pt.j_stat + _axes_quadform(pt.hessian, axes, theta_w)
    logu = prior.log_radial(q)
    if theta_prior.kind != "flat":
        logu = logu + theta_prior.log_density(_grid_points(axes)).reshape(q.shape)
    return _normalize_grid(axes, logu)


# Most trapezoid nodes the p=2 angular integral may take, and how many it
# evaluates at once.  At a scale condition number of 1e10, the most a
# ClosedFormPosterior admits, some t posteriors need 2^21 nodes.
_MAX_ANGULAR_NODES = 2**22
_ANGULAR_CHUNK = 2**16


def _log_tail_2d(dof: float | None, s):
    """Log Pr{u'u > s} for a standardized 2-d posterior u: chi-square(2), or 2 F(2, dof).

    The families' ``log_tail`` at k = 2 in closed form, vectorised and without
    the incomplete gamma and beta functions of ``scipy.special``.
    """
    if dof is None:
        return -0.5 * s
    return -0.5 * dof * np.log1p(s / dof)


def _angular_mass(dof: float | None, lam_lo: float, lam_hi: float, eps: float) -> float:
    """Pr{||d|| > eps} for a centred elliptical 2-d d with scale eigenvalues lam_lo <= lam_hi.

    With d = V diag(sqrt(lam)) r (cos phi, sin phi), phi uniform and independent
    of r, ||d||^2 = r^2 q(phi) with q(phi) = lam_lo + (lam_hi - lam_lo) cos^2 phi.
    So the mass is the mean over phi of T(eps^2 / q(phi)), T the tail of r^2.
    The integrand is periodic and analytic, so the trapezoid rule converges
    geometrically: the node count doubles until two means agree to a few ulps.
    Terms are taken relative to the largest, at phi = 0; if it underflows, so
    does the mass.
    """
    e2 = eps * eps
    peak = float(_log_tail_2d(dof, e2 / lam_hi))
    if math.exp(peak) == 0.0:
        return 0.0

    def node_mean(n: int, offset: float) -> float:
        """Mean of the terms at phi = pi (j + offset) / n, j = 0, ..., n - 1."""
        out = 0.0
        for start in range(0, n, _ANGULAR_CHUNK):
            phi = np.pi / n * (np.arange(start, min(start + _ANGULAR_CHUNK, n)) + offset)
            q = lam_lo + (lam_hi - lam_lo) * np.cos(phi) ** 2
            out += float(np.sum(np.exp(_log_tail_2d(dof, e2 / q) - peak)))
        return out / n

    n = 8
    mean = node_mean(n, 0.0)
    while n < _MAX_ANGULAR_NODES:
        refined = 0.5 * (mean + node_mean(n, 0.5))
        n *= 2
        if abs(refined - mean) <= 4.0 * math.ulp(refined):
            return min(math.exp(peak + math.log(refined)), 1.0)
        mean = refined
    raise NumericalError(
        f"p=2 mass outside the ball did not converge in {_MAX_ANGULAR_NODES} angular nodes"
    )


def _std_cdf(post: ClosedFormPosterior) -> Callable[[float], float]:
    """Lower-tail CDF of a standardized 1-d closed form: the normal's or the t's."""
    if post.dof is None:
        return lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))
    dist = StudentT(float(post.dof))
    return lambda x: float(t_cdf(dist, x))


def mass_outside_ball(
    post: GridPosterior | ClosedFormPosterior | MixturePosterior,
    center,
    eps: float,
    norm_matrix: np.ndarray | None = None,
) -> float:
    """Posterior probability of {theta : ||theta - center|| > eps}.

    The default ball is Euclidean; ``norm_matrix`` substitutes the SPD-norm
    ||d|| = sqrt(d' M d) (e.g. M = X'WX).  Grid posteriors sum the weights of
    the grid points outside the ball.  Closed forms are exact: at p = 1 from
    the CDF, in both lower tails; at p = 2 by the angular integral of
    ``_angular_mass``, which needs the ball centred at the posterior centre
    (an off-centre ball is an InputError).  A mixture's mass is the weighted
    sum of its components' masses, so it is exact too.
    """
    if not eps > 0.0:
        raise InputError(f"ball radius must be positive, got {eps}")
    if isinstance(post, MixturePosterior):
        parts = (post.base, post.contaminant)
        masses = [mass_outside_ball(q, center, eps, norm_matrix) for q in parts]
        return min(sum(w * m for w, m in zip(post.weights(), masses)), 1.0)
    center = _linalg.as_vector(center, post.p, "center")
    if norm_matrix is None:
        norm = np.eye(post.p)
    else:
        norm = _linalg.spd_factor(norm_matrix, "norm_matrix").matrix
        if norm.shape[0] != post.p:
            raise InputError(f"norm_matrix must be {post.p}x{post.p}, got shape {norm.shape}")
    if isinstance(post, GridPosterior):
        dist2 = _axes_quadform(norm, post.axes, center)
        out = float(np.sum(post.weights[dist2 > eps * eps]))
        return min(max(out, 0.0), 1.0)

    if post.p == 1:
        radius = eps / math.sqrt(norm[0, 0])
        m = float(post.center[0])
        s = math.sqrt(post.scale[0, 0])
        lo, hi = center[0] - radius, center[0] + radius
        cdf = _std_cdf(post)
        # Both tails as lower-tail CDFs: 1 - cdf would cancel in the far tail.
        return min(max(cdf((lo - m) / s) + cdf((m - hi) / s), 0.0), 1.0)
    if post.p == 2:
        if not np.array_equal(center, post.center):
            raise InputError(
                "mass_outside_ball for p=2 closed forms requires the ball centred "
                "at the posterior centre"
            )
        sf = post._scale_factor
        lam = np.linalg.eigvalsh(post.scale if norm_matrix is None else sf.root @ norm @ sf.root)
        return _angular_mass(post.dof, float(lam[0]), float(lam[1]), eps)
    raise InputError("mass_outside_ball supports closed forms only for p <= 2")


def bayes_action_quadratic(post: GridPosterior | ClosedFormPosterior) -> np.ndarray:
    """Posterior mean, the Bayes action under quadratic loss."""
    if isinstance(post, GridPosterior):
        return post.mean()
    if post.dof is not None and post.dof <= 1.0:
        raise InputError(
            f"posterior mean does not exist for t posterior with dof={post.dof}"
        )
    return post.center.copy()


def bayes_action_grid(
    post: GridPosterior,
    actions: Sequence[float],
    loss: Callable[[float, np.ndarray], float],
) -> float:
    """Minimize posterior expected loss over a finite action list.

    Ties are broken toward the smallest action.  The loss is called as
    ``loss(action, theta)`` with theta a length-p point; vectorized losses
    accepting an (m, p) array are used when available.
    """
    if len(actions) == 0:
        raise InputError("action list must be nonempty")
    acts = np.sort(np.asarray(actions, dtype=np.float64))
    pts = post.points()
    w = post.weights.ravel()

    def _risk(a: float) -> float:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                vals = np.asarray(loss(a, pts), dtype=np.float64)
                if vals.shape == (pts.shape[0],):
                    return float(vals @ w)
            except (TypeError, ValueError, Warning):
                pass  # a pointwise loss rejects the (m, p) array; call it per point
        return float(np.array([float(loss(a, pt)) for pt in pts]) @ w)

    risks = np.array([_risk(float(a)) for a in acts])
    return float(acts[int(np.argmin(risks))])


def _log_pdf_1d(post: ClosedFormPosterior) -> Callable[[float], float]:
    """Log density of a 1-d closed form at distance x >= 0 from its centre."""
    s = math.sqrt(post.scale[0, 0])
    const = -post._family.log_ball_integral(1) - math.log(s)
    if post.dof is None:
        return lambda x: const - 0.5 * (x / s) * (x / s)
    nu, a = post.dof, 0.5 * (post.dof + 1.0)

    def log_pdf(x: float) -> float:
        u2 = (x / s) * (x / s) / nu
        # Past the float range, log1p(u2) is log(u2) to within 1/u2.
        growth = math.log1p(u2) if u2 < math.inf else 2.0 * math.log(x / s) - math.log(nu)
        return const - a * growth

    return log_pdf


def _stationary_sq(a: ClosedFormPosterior, b: ClosedFormPosterior) -> float:
    """The x^2 where the slopes in x^2 of log p_a and log p_b agree (nan if nowhere).

    A t log density's slope in r = x^2 is -alpha / (beta + r), with alpha =
    (dof + 1) / 2 and beta = dof s^2; a normal's is the constant -1 / (2 s^2).
    So the slopes agree at most once.
    """
    (alpha_a, beta_a), (alpha_b, beta_b) = (
        (None, 2.0 * v) if q.dof is None else (0.5 * (q.dof + 1.0), q.dof * v)
        for q, v in ((a, a.scale[0, 0]), (b, b.scale[0, 0]))
    )
    if alpha_a is None:
        return alpha_b * beta_a - beta_b
    if alpha_b is None:
        return alpha_a * beta_b - beta_a
    if alpha_a == alpha_b:
        return math.nan
    return (alpha_b * beta_a - alpha_a * beta_b) / (alpha_a - alpha_b)


def _bisect_sign_change(h: Callable[[float], float], lo: float, hi: float) -> float:
    """Where h changes sign in [lo, hi], to the nearest float: halve until no float is between."""
    positive_lo = h(lo) > 0.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if (h(mid) > 0.0) == positive_lo:
            lo = mid
        else:
            hi = mid
    return hi


def _tv_distance_1d(a: ClosedFormPosterior, b: ClosedFormPosterior) -> float:
    """Exact TV distance between two 1-d closed forms that share their centre.

    Both densities are symmetric about the centre, so TV is the integral of
    |p_a - p_b| over x = |theta - centre| >= 0.  As a function of x^2, log p_a -
    log p_b has at most one stationary point (``_stationary_sq``), so the
    densities cross at most twice, at x_1 < x_2, found by bisection on each
    side of it; then TV = 2 |sum_i (-1)^i (S_a(x_i) - S_b(x_i))|, S the upper
    tails.  Two normals cross once, in closed form.
    """
    sa, sb = math.sqrt(a.scale[0, 0]), math.sqrt(b.scale[0, 0])
    if a.dof is None and b.dof is None:
        # Crossing at x / s_narrow = sqrt(2 d / (1 - e^-2d)), d = log(s_wide / s_narrow).
        d = abs(math.log(sa) - math.log(sb))
        if d == 0.0:
            return 0.0
        x_narrow = math.sqrt(2.0 * d / -math.expm1(-2.0 * d))
        x_wide = x_narrow * math.exp(-d)
        return math.erfc(x_wide / math.sqrt(2.0)) - math.erfc(x_narrow / math.sqrt(2.0))
    log_a, log_b = _log_pdf_1d(a), _log_pdf_1d(b)
    h = lambda x: log_a(x) - log_b(x)
    # The heavier tail (smaller dof, a normal's being infinite; then larger
    # scale) wins as x grows: the sign of h there.
    key_a = (-(a.dof or math.inf), sa)
    key_b = (-(b.dof or math.inf), sb)
    if key_a == key_b:
        return 0.0
    positive_tail = key_a > key_b
    r = _stationary_sq(a, b)
    knots = [0.0, math.sqrt(r)] if r > 0.0 else [0.0]
    crossings = []
    for lo, hi in zip(knots, knots[1:] + [math.inf]):
        positive_lo = h(lo) > 0.0
        if hi == math.inf:
            if positive_lo == positive_tail:
                continue
            hi = 2.0 * max(lo, sa, sb)
            while hi < math.inf and (h(hi) > 0.0) != positive_tail:
                hi *= 2.0
        elif (h(hi) > 0.0) == positive_lo:
            continue
        crossings.append(_bisect_sign_change(h, lo, hi))
    cdf_a, cdf_b = _std_cdf(a), _std_cdf(b)
    total = sum(
        (-1) ** i * (cdf_a(-x / sa) - cdf_b(-x / sb)) for i, x in enumerate(crossings)
    )
    return min(2.0 * abs(total), 1.0)


def tv_distance(
    a: GridPosterior | ClosedFormPosterior, b: GridPosterior | ClosedFormPosterior
) -> float:
    """Total variation distance between two posteriors.

    Two grid posteriors must be on identical grids.  Two closed forms must be
    1-d with one centre, as the sweeps' are; their distance is exact
    (``_tv_distance_1d``).
    """
    if isinstance(a, ClosedFormPosterior) and isinstance(b, ClosedFormPosterior):
        if not (a.p == b.p == 1 and a.center[0] == b.center[0]):
            raise InputError("tv_distance of closed forms requires p = 1 and one centre")
        return _tv_distance_1d(a, b)
    if not (isinstance(a, GridPosterior) and isinstance(b, GridPosterior)):
        raise InputError("tv_distance requires two grid posteriors or two closed forms")
    if a.p != b.p or any(
        ax.shape != bx.shape or not np.array_equal(ax, bx)
        for ax, bx in zip(a.axes, b.axes)
    ):
        raise InputError("tv_distance requires identical grids")
    cell = _grid_cell_weights(a.axes)
    return float(0.5 * np.sum(cell * np.abs(a.density - b.density)))


def posterior_sd(post: GridPosterior | ClosedFormPosterior) -> np.ndarray:
    """Marginal posterior standard deviations."""
    if isinstance(post, GridPosterior):
        return post.sd()
    return post.marginal_sd()

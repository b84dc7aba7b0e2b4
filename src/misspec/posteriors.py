"""Posterior distributions for theta under rotation-invariant misspecification priors.

``closed_form_posterior`` is exact under a flat theta prior for every radial
family: Gaussian for the normal family, Student-t for the power law and for
the t family at every c, with c = 0 its small-c limit.  A closed form is
Gaussian iff its dof is None, and its density is the matching radial
profile (normal or t) normalized in dimension p.  Numerical posteriors
are computed on one- or two-dimensional grids in log space with
max-subtraction before exponentiation, since the radial profile evaluated at
Q/c underflows catastrophically for small c.
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
    the covariance) of a Student-t.
    """

    center: np.ndarray
    scale: np.ndarray
    dof: float | None = None

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
    """
    if not (c >= 0.0 and math.isfinite(c)):
        raise InputError(f"prior scale c must be nonnegative and finite, got {c}")
    pt = pseudo_true(model)
    dof, spread = family.posterior_shape(c, pt.j_stat, model.k, model.p)
    if dof is None:
        if not spread > 0.0:
            raise InputError(f"prior scale c must be positive, got {c}")
        return ClosedFormPosterior(center=pt.theta_w, scale=spread * pt.hessian_inv)
    if (not family.proper or c == 0.0) and pt.j_stat <= pt.noise_floor:
        raise DegenerateLimitError(
            f"{family.spec_string()} posterior at c = {c:g} requires a positive "
            "J-statistic (its scale is J alone)"
        )
    return ClosedFormPosterior(center=pt.theta_w, scale=spread / dof * pt.hessian_inv, dof=dof)


def normal_posterior(model: ModelInstance, c: float) -> ClosedFormPosterior:
    """Gaussian posterior N(theta_W, c (X'WX)^{-1}) under the normal radial prior."""
    return closed_form_posterior(model, NormalRadial(), c)


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


def mass_outside_ball(
    post: GridPosterior | ClosedFormPosterior,
    center,
    eps: float,
    norm_matrix: np.ndarray | None = None,
) -> float:
    """Posterior probability of {theta : ||theta - center|| > eps}.

    The default ball is Euclidean; ``norm_matrix`` substitutes the SPD-norm
    ||d|| = sqrt(d' M d) (e.g. M = X'WX).  Computed exactly from the CDF for
    one-dimensional closed forms, by grid summation otherwise.
    """
    if not eps > 0.0:
        raise InputError(f"ball radius must be positive, got {eps}")
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
        if post.dof is None:
            cdf = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))
        else:
            dist = StudentT(float(post.dof))
            cdf = lambda x: float(t_cdf(dist, x))
        # Both tails as lower-tail CDFs: 1 - cdf would cancel in the far tail.
        return min(max(cdf((lo - m) / s) + cdf((m - hi) / s), 0.0), 1.0)
    if post.p == 2:
        # Densify on an internal grid wide enough to capture the tails.
        sds = post.marginal_sd()
        if not np.all(np.isfinite(sds)):
            raise InputError(
                "mass_outside_ball for p=2 closed forms requires finite variance"
            )
        axes = tuple(
            np.linspace(c0 - 12.0 * s, c0 + 12.0 * s, 401)
            for c0, s in zip(post.center, sds)
        )
        dens = post.density(_grid_points(axes)).reshape(axes[0].size, axes[1].size)
        grid = GridPosterior(axes=axes, density=dens, weights=_grid_cell_weights(axes) * dens)
        return mass_outside_ball(grid, center, eps, norm)
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


def tv_distance(a: GridPosterior, b: GridPosterior) -> float:
    """Total variation distance between two grid posteriors on identical grids."""
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

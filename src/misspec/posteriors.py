"""Posterior distributions for theta under rotation-invariant misspecification priors.

``closed_form_posterior`` is exact under a flat theta prior for every radial
family: Gaussian for the normal family, Student-t for the power law and for
the t family at every c, with c = 0 its small-c limit.  A closed form is
Gaussian iff its dof is None, and its density is the matching radial
profile (normal or t) normalized in dimension p.  Under a contaminated prior
the posterior is exact too: the ``MixturePosterior`` of the two components'
closed forms, weighted by their marginal likelihoods.  Every quantity read
off a posterior here -- the mass outside a ball, the Bayes action, the TV
distance and the marginal sd -- comes from these closed forms; no posterior
is evaluated on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from misspec import _linalg
from misspec.errors import (
    DegenerateLimitError,
    InputError,
    ModelValidationError,
    NumericalError,
)
from misspec.model import ModelInstance, pseudo_true
from misspec.priors import NormalRadial, RadialFamily, StudentTRadial
from misspec.special import StudentT, t_cdf

__all__ = [
    "ThetaPrior",
    "ClosedFormPosterior",
    "MixturePosterior",
    "closed_form_posterior",
    "normal_posterior",
    "mass_outside_ball",
    "bayes_action_quadratic",
    "tv_distance",
    "posterior_sd",
]


@dataclass(frozen=True)
class ThetaPrior:
    """Gaussian prior on theta, with per-coordinate mean and sd.

    Coverage runs take it to say how many uniforms each replication's theta
    draw uses (2 per coordinate); the hits do not depend on theta.
    """

    kind: str
    mean: np.ndarray
    sd: np.ndarray

    @staticmethod
    def gaussian(mean, sd) -> "ThetaPrior":
        mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        sd = np.broadcast_to(np.asarray(sd, dtype=np.float64), mean.shape).copy()
        if not np.isfinite(mean).all():
            raise InputError("Gaussian theta prior requires a finite mean")
        if not (np.isfinite(sd).all() and np.all(sd > 0.0)):
            raise InputError("Gaussian theta prior requires a positive finite sd")
        return ThetaPrior(kind="gaussian", mean=mean, sd=sd)


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
    post: ClosedFormPosterior | MixturePosterior,
    center,
    eps: float,
    norm_matrix: np.ndarray | None = None,
) -> float:
    """Posterior probability of {theta : ||theta - center|| > eps}.

    The default ball is Euclidean; ``norm_matrix`` substitutes the SPD-norm
    ||d|| = sqrt(d' M d) (e.g. M = X'WX).  Closed forms are exact: at p = 1 from
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


def bayes_action_quadratic(post: ClosedFormPosterior) -> np.ndarray:
    """Posterior mean, the Bayes action under quadratic loss."""
    if post.dof is not None and post.dof <= 1.0:
        raise InputError(
            f"posterior mean does not exist for t posterior with dof={post.dof}"
        )
    return post.center.copy()


def _radial_tail(post: ClosedFormPosterior) -> Callable[[float], float]:
    """Pr{|u| > r} for the standardized radius |u| of a 1-d or 2-d closed form."""
    if post.p == 2:
        return lambda r: math.exp(_log_tail_2d(post.dof, r * r))
    cdf = _std_cdf(post)
    return lambda r: 2.0 * cdf(-r)


def _stationary_sq(a: ClosedFormPosterior, b: ClosedFormPosterior) -> float:
    """The rho^2 where the slopes in rho^2 of log p_a and log p_b agree (nan if nowhere).

    A t log density's slope in r = rho^2 is -alpha / (beta + r), with alpha =
    (dof + p) / 2 and beta = dof s^2; a normal's is the constant -1 / (2 s^2).
    So the slopes agree at most once.
    """
    (alpha_a, beta_a), (alpha_b, beta_b) = (
        (None, 2.0 * v) if q.dof is None else (0.5 * (q.dof + q.p), q.dof * v)
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


def tv_distance(a: ClosedFormPosterior, b: ClosedFormPosterior) -> float:
    """Exact total variation distance between two closed forms of one centre, for p <= 2.

    At p = 2 their scales must be proportional, as any two closed forms of one
    model are.  Then both densities depend on theta only through rho, the
    distance from the centre in the norm of a.scale / a.scale[0, 0], and each
    is that of a standardized radius rho / s, with s^2 = scale[0, 0]; at p = 1
    rho is |theta - centre|.  As a function of rho^2, log p_a - log p_b has at
    most one stationary point (``_stationary_sq``), so the densities cross at
    most twice, at rho_1 < rho_2, found by bisection on each side of it; then
    TV = |sum_i (-1)^i (S_a(rho_i) - S_b(rho_i))|, S the radial upper tails.
    Two normals cross once, in closed form.
    """
    p = a.p
    if not b.p == p <= 2:
        raise InputError(f"tv_distance of closed forms supports p <= 2, got p = {a.p} and {b.p}")
    if not (a.center[0] == b.center[0] if p == 1 else np.array_equal(a.center, b.center)):
        raise InputError("tv_distance of closed forms requires one centre")
    va, vb = a.scale[0, 0], b.scale[0, 0]
    if p == 2 and not np.abs(a.scale / va - b.scale / vb).max() <= 1e-12 * np.abs(a.scale / va).max():
        raise InputError("tv_distance of 2-d closed forms requires proportional scales")
    sa, sb = math.sqrt(va), math.sqrt(vb)
    if a.dof is None and b.dof is None:
        # Crossing at rho^2 / s_narrow^2 = 2 p d / (1 - e^-2d), d = log(s_wide / s_narrow).
        d = abs(math.log(sa) - math.log(sb))
        if d == 0.0:
            return 0.0
        r_narrow = math.sqrt(2.0 * p * d / -math.expm1(-2.0 * d))
        tail = _radial_tail(a)
        return tail(r_narrow * math.exp(-d)) - tail(r_narrow)

    def log_density(q: ClosedFormPosterior, s: float) -> Callable[[float], float]:
        const = -q._family.log_ball_integral(p) - p * math.log(s)
        return lambda rho: const + float(q._family.log_f((rho / s) * (rho / s), p))

    log_a, log_b = log_density(a, sa), log_density(b, sb)
    h = lambda rho: log_a(rho) - log_b(rho)
    # The heavier tail (smaller dof, a normal's being infinite; then larger
    # scale) wins as rho grows: the sign of h there.
    key_a = (-(a.dof or math.inf), sa)
    key_b = (-(b.dof or math.inf), sb)
    if key_a == key_b:
        return 0.0
    positive_tail = key_a > key_b
    r = _stationary_sq(a, b)
    knots = [0.0, math.sqrt(r)] if r > 0.0 else [0.0]
    crossings = []
    # Far out, rho^2 / (s^2 dof) may overflow; log f is then -inf, its limit.
    with np.errstate(over="ignore"):
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
    tail_a, tail_b = _radial_tail(a), _radial_tail(b)
    total = sum(
        (-1) ** i * (tail_a(rho / sa) - tail_b(rho / sb)) for i, rho in enumerate(crossings)
    )
    return min(abs(total), 1.0)


def posterior_sd(post: ClosedFormPosterior) -> np.ndarray:
    """Marginal posterior standard deviations."""
    return post.marginal_sd()

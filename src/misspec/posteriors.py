"""Posterior distributions for theta under rotation-invariant misspecification priors.

``closed_form_posterior`` is exact under a flat theta prior for every radial
family: Gaussian for the normal family, Student-t for the power law and for
the t family at every c, with c = 0 its small-c limit.  A closed form is
Gaussian iff its dof is None, and its density is the matching radial
profile (normal or t) normalized in dimension p.  Under a contaminated prior
the posterior is exact too: the ``MixturePosterior`` of the two components'
closed forms, weighted by their marginal likelihoods.  Every quantity read
off a posterior here -- the mass outside a ball, the TV distance and the
marginal sd -- comes from these closed forms; no posterior is evaluated on a
grid.  Radial tails are the families' ``RadialFamily.log_tail`` in dimension
p.  The TV distance holds at any p, the mass outside a ball at p <= 2.

Every closed form carries the eigenvalues of its scale, checked by one set of
checks (``_linalg.check_spd_spectrum``) on either of two routes.  A bare
``ClosedFormPosterior(center, scale, dof)`` validates its scale matrix with
``_linalg.spd_factor``, which reads them with one eigensolve.  A model's
closed forms along prior scales c make a ``_PosteriorPath``: each scale is a
multiple m(c) of H^{-1} = (X'WX)^{-1}: its eigenvalues are m(c) / S^2, from
the design's SVD, and the path holds them, with the scales and log
evidences, as arrays over c.  ``closed_form_posterior`` is its one-c
case.  A sweep reads its masses, sds, mixture weights and TV distances off
one path and builds no posterior per c; at p = 1 the masses at every c are
one ``math.erfc`` pass or one ``t_cdf`` call, bit for bit the per-c values.
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
    "tv_distance",
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

    The scale's eigenvalues are carried with it (``_scale_factor``).  A scale
    given as a matrix is validated by ``_linalg.spd_factor``, which computes
    them; ``closed_form_posterior`` passes a ``_linalg.SpdFactor`` whose
    eigenvalues it has read off the model's design and checked by the same
    ``_linalg.check_spd_spectrum``, and that is taken as it is.
    """

    center: np.ndarray
    scale: np.ndarray
    dof: float | None = None
    log_evidence: float | None = None

    def __post_init__(self):
        center = _linalg.as_vector(self.center, None, "center")
        sf = self.scale
        if not isinstance(sf, _linalg.SpdFactor):
            sf = _linalg.spd_factor(sf, "scale")
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
        return _marginal_sd(np.diag(self.scale), self.dof)


def _marginal_sd(diag: np.ndarray, dof: float | None) -> np.ndarray:
    """Marginal sds from scale diagonals (any shape) and a dof (None: Gaussian)."""
    if dof is None:
        return np.sqrt(diag)
    if dof <= 2.0:
        return np.full(diag.shape, np.inf)
    with np.errstate(over="ignore"):
        sd = np.sqrt(diag * dof / (dof - 2.0))
    # diag * dof overflows within a factor dof of the largest float; the sd does not.
    far = np.isinf(sd)
    sd[far] = np.sqrt(diag[far]) * math.sqrt(dof / (dof - 2.0))
    return sd


def closed_form_posterior(
    model: ModelInstance, family: RadialFamily, c: float
) -> ClosedFormPosterior:
    """Exact posterior under ``family`` at prior scale c, with a flat theta prior.

    Centred at theta_W, with the shape of ``family.posterior_shape``; c = 0
    is the small-c limit.  Where the scale is J alone, J must be positive.
    X'WX must have a condition number below 1e10, the bound every posterior
    scale is held to; a scale that underflows or overflows in float64 is
    refused by its c.  The scale is m H^{-1} for a scalar m, so its
    eigenvalues are m times the design's, checked as a bare scale's are.
    This is the one-c case of ``_PosteriorPath``, which makes the checks.
    """
    return _PosteriorPath(model, family, (c,)).posterior(0)


def _check_prior_scale(c) -> None:
    if not (c >= 0.0 and math.isfinite(c)):
        raise InputError(f"prior scale c must be nonnegative and finite, got {c}")


def _unrepresentable(c, exc: ModelValidationError) -> InputError:
    return InputError(f"posterior at prior scale c = {c:g} is unrepresentable: {exc}")


class _PosteriorPath:
    """The closed-form posteriors of one model and family along prior scales c.

    Along c every closed form shares theta_W (``center``), its dof and the
    shape H^{-1}; only the multiplier m(c) of its scale m(c) H^{-1} moves.  So
    the path holds, as arrays over c, the multipliers, the log evidences
    (nan where there is none: an improper family, or c = 0), the symmetrised
    scales (``scales``, c first) and their eigenvalues, m(c) times the
    design's (``eigenvalues``).  Every c passes ``closed_form_posterior``'s
    checks, in order: c, the fit and X'WX's condition number (model-wide,
    made once), the family's shape, and the scale's spectrum; the scale
    matrices are checked finite once, all together, and the first c refused
    by any check is the one named.  ``c_grid`` is a nonempty sequence.

    Every value equals that of the c's ``closed_form_posterior`` bit for bit,
    and so do the masses, sds, weights and TV distances read off the path.
    """

    def __init__(self, model: ModelInstance, family: RadialFamily, c_grid):
        cs = list(c_grid)
        _check_prior_scale(cs[0])  # before the fit, as at one c
        fit, design = pseudo_true(model), model.design
        if not design.condition_number < 1.0 / _linalg.SPD_RTOL:
            raise ModelValidationError(
                f"X'WX has condition number {design.condition_number:.3e}; closed-form "
                f"posteriors need it below {1.0 / _linalg.SPD_RTOL:.0e}"
            )
        k, p = model.k, model.p
        # A J within float noise of 0 is 0 here, or it would decide the evidence at tiny c.
        j = fit.j_stat if fit.j_stat > fit.noise_floor else 0.0
        with np.errstate(over="ignore"):  # H^-1's spectrum, ascending; an overflow is refused below
            inv_vals = np.ldexp(1.0 / design.s**2, -2 * design.x_exponent - design.w_factor.exponent)
        # The extremes as Python floats, which overflow to inf silently.
        inv_lo, inv_hi = float(inv_vals[0]), float(inv_vals[-1])
        mults, evidences, refusal = [], [], None
        for c in cs:
            try:
                _check_prior_scale(c)
                dof, spread = family.posterior_shape(c, fit.j_stat, k, p)
                if dof is None:
                    if not spread > 0.0:
                        raise InputError(f"prior scale c must be positive, got {c}")
                    mult = spread
                elif (not family.proper or c == 0.0) and fit.j_stat <= fit.noise_floor:
                    raise DegenerateLimitError(
                        f"{family.spec_string()} posterior at c = {c:g} requires a positive "
                        "J-statistic (its scale is J alone)"
                    )
                else:
                    mult = spread / dof
                try:
                    _linalg.check_spd_spectrum(mult * inv_lo, mult * inv_hi, "scale")
                except ModelValidationError as exc:
                    raise _unrepresentable(c, exc) from None
            except InputError as exc:
                refusal = exc
                break
            mults.append(mult)
            proper = family.proper and c > 0.0
            evidences.append(family.log_evidence(c, j, k, p) if proper else math.nan)
        self.multiplier = np.array(mults, dtype=np.float64)
        with np.errstate(over="ignore"):  # an overflow is refused below
            self.scales = np.multiply.outer(self.multiplier, design.hessian_inv)
        finite = np.isfinite(self.scales).all(axis=(1, 2))
        if not finite.all():
            c = cs[int(np.argmin(finite))]
            raise _unrepresentable(c, ModelValidationError("scale must be finite"))
        if refusal is not None:
            raise refusal
        self.center = fit.theta_w
        self.dof = dof
        self.family = NormalRadial() if dof is None else StudentTRadial(dof)
        self.log_evidence = np.array(evidences)
        self.eigenvalues = np.multiply.outer(self.multiplier, inv_vals)
        self.vectors = design.vt.T

    @property
    def p(self) -> int:
        return self.center.shape[0]

    def posterior(self, i: int) -> ClosedFormPosterior:
        """The closed form at the i-th c, carrying its eigenvalues."""
        evidence = float(self.log_evidence[i])
        return ClosedFormPosterior(
            center=self.center,
            scale=_linalg.SpdFactor(self.scales[i], self.eigenvalues[i], self.vectors),
            dof=self.dof,
            log_evidence=None if math.isnan(evidence) else evidence,
        )

    def max_marginal_sd(self) -> np.ndarray:
        """The largest marginal sd at each c (inf for t with dof <= 2)."""
        return _marginal_sd(np.diagonal(self.scales, axis1=1, axis2=2), self.dof).max(axis=1)

    def mass_outside(self, eps: float) -> np.ndarray:
        """``mass_outside_ball`` of the ball of radius eps about theta_W, at each c; p <= 2."""
        if self.p == 1:
            centre = self.center[0]
            return _mass_outside_interval(
                self.dof, float(centre), self.scales[:, 0, 0], centre - eps, centre + eps
            )
        return np.array(
            [_angular_mass(self.family, lo, hi, eps) for lo, hi in self.eigenvalues.tolist()]
        )

    def mixture_weights(
        self, contaminant: ClosedFormPosterior, phi: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """``MixturePosterior(posterior(i), contaminant, phi).weights()`` at each c, as arrays."""
        has_evidence = not np.isnan(self.log_evidence).any()
        _check_mixture(phi, has_evidence, self.center, contaminant)
        odds = [
            _mixture_log_odds(phi, evidence, var, contaminant)
            for evidence, var in zip(self.log_evidence.tolist(), self.scales[:, 0, 0])
        ]
        return np.array([_expit(-x) for x in odds]), np.array([_expit(x) for x in odds])

    def tv_to(self, other: ClosedFormPosterior) -> np.ndarray:
        """``tv_distance(posterior(i), other)`` at each c, for a closed form of the same model."""
        if self.p > 1 and not _proportional(self.scales, other.scale).all():
            raise InputError("tv_distance of closed forms requires proportional scales")
        vb = other.scale[0, 0]
        return np.array(
            [_radial_tv(self.p, self.family, va, other._family, vb) for va in self.scales[:, 0, 0]]
        )


def normal_posterior(model: ModelInstance, c: float) -> ClosedFormPosterior:
    """Gaussian posterior N(theta_W, c (X'WX)^{-1}) under the normal radial prior."""
    return closed_form_posterior(model, NormalRadial(), c)


def _expit(x: float) -> float:
    """1 / (1 + e^-x), without overflow."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _check_mixture(
    phi: float, base_has_evidence: bool, center: np.ndarray, contaminant: ClosedFormPosterior
) -> None:
    """A mixture's checks of phi and of its components, given the base's centre."""
    if not (0.0 < phi < 1.0):
        raise InputError(f"contamination weight phi must be in (0, 1), got {phi}")
    if not base_has_evidence or contaminant.log_evidence is None:
        raise InputError("mixture components need the log evidence of a proper prior")
    if not np.array_equal(center, contaminant.center):
        raise InputError("mixture components must share their centre")


def _mixture_log_odds(
    phi: float, base_evidence: float, base_var: float, contaminant: ClosedFormPosterior
) -> float:
    """log(w / (1 - w)) for the contaminant's weight w; ``base_var`` is the base's scale[0, 0]."""
    log_odds = math.log(phi) - math.log1p(-phi) + contaminant.log_evidence - base_evidence
    if math.isnan(log_odds):
        # Both evidences underflow, which only normal ones do (J / c overflows).
        # The wider, larger-c one has the larger evidence; equal ones agree.
        log_odds = math.copysign(math.inf, contaminant.scale[0, 0] - base_var)
    return log_odds


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
        has_evidence = self.base.log_evidence is not None
        _check_mixture(self.phi, has_evidence, self.base.center, self.contaminant)
        log_odds = _mixture_log_odds(
            self.phi, self.base.log_evidence, self.base.scale[0, 0], self.contaminant
        )
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
# Levels of at most this many nodes keep their cos^2 nodes (``_cos2_nodes``):
# the levels the integral takes, (8, 0) and (n, 1/2) for n = 8, ..., 2^12,
# hold 8192 floats, 64 KB in all.
_CACHED_NODES = 2**12
_COS2_NODES: dict[tuple[int, float], np.ndarray] = {}


def _cos2_nodes(n: int, offset: float, start: int, stop: int) -> np.ndarray:
    """cos^2 phi at phi = pi (j + offset) / n, j = start, ..., stop - 1.

    A whole level of at most ``_CACHED_NODES`` nodes is memoised, read-only,
    in ``_COS2_NODES``: it is the same for every posterior.
    """
    if n > _CACHED_NODES:
        return np.cos(np.pi / n * (np.arange(start, stop) + offset)) ** 2
    nodes = _COS2_NODES.get((n, offset))
    if nodes is None:
        nodes = np.cos(np.pi / n * (np.arange(n) + offset)) ** 2
        nodes.setflags(write=False)
        _COS2_NODES[(n, offset)] = nodes
    return nodes


def _angular_mass(family: RadialFamily, lam_lo: float, lam_hi: float, eps: float) -> float:
    """Pr{||d|| > eps} for a centred elliptical 2-d d with scale eigenvalues lam_lo <= lam_hi.

    With d = V diag(sqrt(lam)) r (cos phi, sin phi), phi uniform and independent
    of r, ||d||^2 = r^2 q(phi) with q(phi) = lam_lo + (lam_hi - lam_lo) cos^2 phi.
    So the mass is the mean over phi of T(eps^2 / q(phi)), T the tail of r^2:
    ``family.log_tail`` at k = 2, in closed form over a whole array of nodes.
    The integrand is periodic and analytic, so the trapezoid rule converges
    geometrically: the node count doubles until two means agree to a few ulps.
    Terms are taken relative to the largest, at phi = 0; if it underflows, so
    does the mass.  The cos^2 phi of each level depend on nothing else, so
    levels of up to ``_CACHED_NODES`` nodes are memoised (``_cos2_nodes``, 64
    KB in all); larger ones, which only scales of condition number above
    about 1e5 reach, are computed per call in chunks.
    """
    e2 = eps * eps
    peak = float(family.log_tail(e2 / lam_hi, 2))
    if math.exp(peak) == 0.0:
        return 0.0

    def node_mean(n: int, offset: float) -> float:
        """Mean of the terms at phi = pi (j + offset) / n, j = 0, ..., n - 1."""
        out = 0.0
        for start in range(0, n, _ANGULAR_CHUNK):
            cos2 = _cos2_nodes(n, offset, start, min(start + _ANGULAR_CHUNK, n))
            q = lam_lo + (lam_hi - lam_lo) * cos2
            out += float(np.exp(family.log_tail(e2 / q, 2) - peak).sum())
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


def _mass_outside_interval(dof: float | None, m: float, var: np.ndarray, lo, hi) -> np.ndarray:
    """Mass outside [lo, hi] of 1-d closed forms centred at m, one per scale in ``var``.

    Both tails as lower-tail CDFs, at the 2 n standardized bounds at once:
    1 - cdf would cancel in the far tail.  Gaussian (dof None) by ``math.erfc``,
    which needs no ``scipy.special``; Student-t by one ``t_cdf`` call.
    """
    s = np.sqrt(var)
    bounds = np.concatenate(((lo - m) / s, (m - hi) / s))
    if dof is None:
        # The standard normal CDF at x is erfc(-x / sqrt(2)) / 2.
        cdf = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in bounds.tolist()])
    else:
        cdf = t_cdf(StudentT(float(dof)), bounds)
    n = s.shape[0]
    return np.minimum(np.maximum(cdf[:n] + cdf[n:], 0.0), 1.0)


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
    if norm_matrix is not None:
        norm = _linalg.spd_factor(norm_matrix, "norm_matrix").matrix
        if norm.shape[0] != post.p:
            raise InputError(f"norm_matrix must be {post.p}x{post.p}, got shape {norm.shape}")
    if post.p == 1:
        radius = eps if norm_matrix is None else eps / math.sqrt(norm[0, 0])
        lo, hi = center[0] - radius, center[0] + radius
        mass = _mass_outside_interval(post.dof, float(post.center[0]), post.scale[0], lo, hi)
        return float(mass[0])
    if post.p == 2:
        if not np.array_equal(center, post.center):
            raise InputError(
                "mass_outside_ball for p=2 closed forms requires the ball centred "
                "at the posterior centre"
            )
        sf = post._scale_factor
        lam = sf.eigenvalues if norm_matrix is None else np.linalg.eigvalsh(sf.root @ norm @ sf.root)
        return _angular_mass(post._family, float(lam[0]), float(lam[1]), eps)
    raise InputError("mass_outside_ball supports closed forms only for p <= 2")


def _dof(family: RadialFamily) -> float | None:
    """A closed form's dof from its family: None for the normal."""
    return family.dof if isinstance(family, StudentTRadial) else None


def _stationary_sq(p: int, fam_a: RadialFamily, va, fam_b: RadialFamily, vb) -> float:
    """The rho^2 where the slopes in rho^2 of log p_a and log p_b agree (nan if nowhere).

    A t log density's slope in r = rho^2 is -alpha / (beta + r), with alpha =
    (dof + p) / 2 and beta = dof s^2; a normal's is the constant -1 / (2 s^2).
    So the slopes agree at most once.
    """
    (alpha_a, beta_a), (alpha_b, beta_b) = (
        (None, 2.0 * v) if dof is None else (0.5 * (dof + p), dof * v)
        for dof, v in ((_dof(fam_a), va), (_dof(fam_b), vb))
    )
    if alpha_a is None:
        return alpha_b * beta_a - beta_b
    if alpha_b is None:
        return alpha_a * beta_b - beta_a
    if alpha_a == alpha_b:
        return math.nan
    return (alpha_b * beta_a - alpha_a * beta_b) / (alpha_a - alpha_b)


def _find_sign_change(h: Callable[[float], float], lo: float, hi: float) -> float:
    """Where h changes sign in [lo, hi], to the nearest float.

    Regula falsi with the Illinois rule: the next point is where the chord
    through the two ends crosses zero, and the value at an end kept twice
    running is halved, so that both ends close in superlinearly, in about ten
    evaluations of h where halving takes one per bit.  A chord point not
    strictly inside the bracket, and the step after three chord steps that
    together did not halve it, take the midpoint instead.  It stops at a
    point where h is 0, or, as halving does, when no float lies between the
    ends.
    """
    f_lo, f_hi = float(h(lo)), float(h(hi))
    positive_lo = f_lo > 0.0
    kept = None  # the end the last step kept
    slow = 0  # chord steps since the bracket last halved
    width = hi - lo
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        x = mid
        if slow < 3 and f_lo != f_hi:
            chord = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
            if lo < chord < hi:
                x = chord
        fx = float(h(x))
        if fx == 0.0:
            return x
        if (fx > 0.0) == positive_lo:
            lo, f_lo = x, fx
            if kept == "hi":
                f_hi *= 0.5
            kept = "hi"
        else:
            hi, f_hi = x, fx
            if kept == "lo":
                f_lo *= 0.5
            kept = "lo"
        if hi - lo <= 0.5 * width:
            slow, width = 0, hi - lo
        else:
            slow += 1
    return hi


def _proportional(scales: np.ndarray, ref: np.ndarray):
    """Whether each scale matrix (the last two axes) is proportional to ``ref``, to 1e-12."""
    unit = scales / scales[..., :1, :1]
    gap = np.abs(unit - ref / ref[0, 0]).max(axis=(-2, -1))
    return gap <= 1e-12 * np.abs(unit).max(axis=(-2, -1))


def tv_distance(a: ClosedFormPosterior, b: ClosedFormPosterior) -> float:
    """Exact total variation distance between two closed forms of one centre, at any p.

    Their scales must be proportional, as any two closed forms of one model
    are; ``_radial_tv`` computes the distance from each one's family and
    scale[0, 0].
    """
    if b.p != a.p:
        raise InputError(f"tv_distance needs closed forms of one dimension, got p = {a.p} and {b.p}")
    if not np.array_equal(a.center, b.center):
        raise InputError("tv_distance of closed forms requires one centre")
    if a.p > 1 and not _proportional(a.scale, b.scale):
        raise InputError("tv_distance of closed forms requires proportional scales")
    return _radial_tv(a.p, a._family, a.scale[0, 0], b._family, b.scale[0, 0])


def _radial_tv(p: int, fam_a: RadialFamily, va, fam_b: RadialFamily, vb) -> float:
    """TV distance between closed forms of one centre, proportional scales and families fam.

    Both densities depend on theta only through rho, the distance from the
    centre in the norm of scale / scale[0, 0], and each is that of a
    standardized radius rho / s, with s^2 = va or vb, the scale[0, 0]; at
    p = 1 rho is |theta - centre|.  As a function of rho^2, log p_a - log p_b
    has at most one stationary point (``_stationary_sq``), so the densities
    cross at most twice, at rho_1 < rho_2, found on each side of it by
    ``_find_sign_change``; then TV = |sum_i (-1)^i (S_a(rho_i) - S_b(rho_i))|,
    S the radial upper tails, read off the families' ``log_tail`` in
    dimension p.  Two normals cross once, in closed form.
    """
    sa, sb = math.sqrt(va), math.sqrt(vb)
    dof_a, dof_b = _dof(fam_a), _dof(fam_b)
    # Pr{|u| > r} for the standardized radius |u| under a family.
    tail = lambda fam, r: math.exp(fam.log_tail(r * r, p))
    if dof_a is None and dof_b is None:
        # Crossing at rho^2 / s_narrow^2 = 2 p d / (1 - e^-2d), d = log(s_wide / s_narrow).
        d = abs(math.log(sa) - math.log(sb))
        if d == 0.0:
            return 0.0
        r_narrow = math.sqrt(2.0 * p * d / -math.expm1(-2.0 * d))
        return tail(fam_a, r_narrow * math.exp(-d)) - tail(fam_a, r_narrow)

    def log_density(fam: RadialFamily, s: float) -> Callable[[float], float]:
        const = -fam.log_ball_integral(p) - p * math.log(s)
        return lambda rho: const + float(fam.log_f((rho / s) * (rho / s), p))

    log_a, log_b = log_density(fam_a, sa), log_density(fam_b, sb)
    h = lambda rho: log_a(rho) - log_b(rho)
    # The heavier tail (smaller dof, a normal's being infinite; then larger
    # scale) wins as rho grows: the sign of h there.
    key_a = (-(dof_a or math.inf), sa)
    key_b = (-(dof_b or math.inf), sb)
    if key_a == key_b:
        return 0.0
    positive_tail = key_a > key_b
    r = _stationary_sq(p, fam_a, va, fam_b, vb)
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
            crossings.append(_find_sign_change(h, lo, hi))
    total = sum(
        (-1) ** i * (tail(fam_a, rho / sa) - tail(fam_b, rho / sb))
        for i, rho in enumerate(crossings)
    )
    return min(abs(total), 1.0)

"""Confidence intervals and norm-bound identified sets.

The headline interval for a linear combination v'theta is centered at the
pseudo-true value with half-width

    sqrt(J / (k - p)) * sigma_v * t*_{k-p, 1-beta/2},

so its width scales with the square root of the population J-statistic: worse
observed violations of the over-identifying restrictions widen the interval.
Norm-bound identified sets behave in the opposite way, shrinking in J for a
fixed misspecification budget d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from misspec import _linalg
from misspec.errors import InputError, JustIdentifiedError, NumericalError
from misspec.model import ModelInstance, pseudo_true, sigma_v
from misspec.special import StudentT, t_quantile

__all__ = [
    "InferenceConfig",
    "Interval",
    "LocalExperiment",
    "InferenceReport",
    "confidence_interval",
    "identified_set_projection",
    "identified_set_membership",
    "finite_sample_ci",
    "local_ci",
    "analyze",
]

# Half-band around d^2 = J, relative to J, inside which the identified-set
# projection collapses to the single pseudo-true point.
SINGLETON_RTOL = 1e-12


@dataclass(frozen=True)
class InferenceConfig:
    """Linear combination of interest and confidence level 1 - beta."""

    v: np.ndarray
    level: float = 0.95

    def __post_init__(self):
        v = _linalg.as_vector(self.v, None, "v")
        _linalg.check_finite(v, "v")
        if not np.any(v != 0.0):
            raise InputError("v must be nonzero")
        if not (0.0 < self.level < 1.0):
            raise InputError(f"confidence level must be in (0, 1), got {self.level}")
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class Interval:
    """Closed interval, possibly empty or a single point."""

    lower: float = math.nan
    upper: float = math.nan
    empty: bool = False
    singleton: bool = False

    def __post_init__(self):
        if not self.empty:
            if not self.lower <= self.upper:
                raise InputError(f"interval bounds out of order: {self.lower} > {self.upper}")
            if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
                raise NumericalError(f"interval [{self.lower}, {self.upper}] overflows float64")
            if self.singleton and self.lower != self.upper:
                raise InputError("singleton interval must have equal endpoints")

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(lower=x, upper=x, singleton=True)

    @staticmethod
    def empty_set() -> "Interval":
        return Interval(empty=True)

    def contains(self, x: float) -> bool:
        return (not self.empty) and self.lower <= x <= self.upper

    def half_width(self) -> float:
        return math.nan if self.empty else 0.5 * (self.upper - self.lower)


@dataclass(frozen=True)
class LocalExperiment:
    """Gaussian limit experiment for locally misspecified moment models.

    The observed vector follows Y_L = -Gamma_L theta + mu + epsilon with
    epsilon ~ N(0, Sigma); K is the 1-by-p derivative of the scalar functional
    of interest and W_L the weighting matrix of the limit problem.
    """

    Gamma_L: np.ndarray
    Sigma: np.ndarray
    mu: np.ndarray
    K: np.ndarray
    W_L: np.ndarray
    _model: ModelInstance = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gamma = _linalg.as_matrix(self.Gamma_L, "Gamma_L")
        _linalg.check_finite(gamma, "Gamma_L")
        k = gamma.shape[0]
        sig = _linalg.spd_factor(self.Sigma, "Sigma").matrix
        mu = _linalg.as_vector(self.mu, k, "mu")
        kv = _linalg.as_vector(self.K, gamma.shape[1], "K")
        if sig.shape[0] != k:
            raise InputError("Sigma must match the moment dimension")
        # The limit model's design (X_L = -Gamma_L, W_L), checked and factored
        # once; its errors name X and W, so they are re-raised naming both.
        try:
            model = ModelInstance(Y=np.zeros(k), X=-gamma, W=self.W_L)
        except InputError as exc:
            raise type(exc)(f"limit design X = -Gamma_L, W = W_L: {exc}") from None
        object.__setattr__(self, "Gamma_L", gamma)
        object.__setattr__(self, "Sigma", sig)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "K", kv)
        object.__setattr__(self, "W_L", model.W)
        object.__setattr__(self, "_model", model)


@dataclass(frozen=True)
class InferenceReport:
    """Everything the analyze entry point reports for one model."""

    theta_w: np.ndarray
    j_stat: float
    sigma_v: float
    ci: Interval
    identified_sets: tuple[tuple[float, Interval], ...] = field(default_factory=tuple)


def _check_over_identified(model: ModelInstance) -> None:
    if model.k == model.p:
        raise JustIdentifiedError(
            "k - p = 0: the confidence interval is undefined; the "
            "just-identified model corresponds to assuming eta = 0"
        )


def confidence_interval(model: ModelInstance, cfg: InferenceConfig) -> Interval:
    """J-scaled interval for v'theta at the configured level.

    Degenerates to the single point v'theta_W when J = 0.  Requires k > p.
    """
    _check_over_identified(model)
    return _confidence_interval(model, cfg, pseudo_true(model), sigma_v(model, cfg.v))


def _confidence_interval(model: ModelInstance, cfg: InferenceConfig, pt, sv: float) -> Interval:
    center = float(np.vdot(cfg.v, pt.theta_w))  # inf, which Interval refuses, where it overflows
    if pt.exact_fit:
        return Interval.point(center)
    kp = model.k - model.p
    tstar = t_quantile(StudentT(kp), 0.5 * (1.0 + cfg.level))
    hw = math.sqrt(pt.j_stat / kp) * sv * tstar
    return Interval(lower=center - hw, upper=center + hw)


def identified_set_projection(
    model: ModelInstance, cfg: InferenceConfig, d: float
) -> Interval:
    """Projection [v'theta bounds] of the norm-bound identified set {Q <= d^2}.

    Empty when d^2 falls below J (the data reject the bound), a single point
    at d^2 = J, and otherwise an interval of half-width sigma_v sqrt(d^2 - J).
    """
    return _projection(pseudo_true(model), cfg, sigma_v(model, cfg.v), d)


def _ldexp_or_inf(x: float, n: int) -> float:
    """x 2^n for x >= 0; inf where that overflows."""
    return math.inf if x > 0.0 and math.frexp(x)[1] + n > 1024 else math.ldexp(x, n)


def _projection(pt, cfg: InferenceConfig, sv: float, d: float) -> Interval:
    if not (d >= 0.0 and math.isfinite(d)):
        raise InputError(f"norm bound d must be nonnegative and finite, got {d}")
    center = float(np.vdot(cfg.v, pt.theta_w))
    # An exact fit's J is 0 here, so that its set at d = 0 is its point.
    j = 0.0 if pt.exact_fit else pt.j_stat
    # d^2 and J scaled by 2^-2e for d = m 2^e, m in [1/2, 1): d^2 cannot over- or underflow.
    e = math.frexp(d)[1]
    m2 = math.ldexp(d, -e) ** 2
    j = _ldexp_or_inf(j, -2 * e)
    band = SINGLETON_RTOL * j
    if j == math.inf or m2 < j - band:
        return Interval.empty_set()
    if m2 <= j + band:
        return Interval.point(center)
    hw = sv * d * math.sqrt(1.0 - j / m2)
    return Interval(lower=center - hw, upper=center + hw)


def identified_set_membership(model: ModelInstance, theta, d: float) -> bool:
    """Whether theta satisfies Q(theta) <= d^2, to within 1e-12 of d^2 and the fit's noise floor.

    Q(theta) = J + 2^(2a + e) |S V'(theta - theta_W)|^2 from the design's SVD,
    each term scaled by 2^-2f for d = m 2^f as in ``_projection``.
    """
    if not (d >= 0.0 and math.isfinite(d)):
        raise InputError(f"norm bound d must be nonnegative and finite, got {d}")
    theta = _linalg.as_vector(theta, model.p, "theta")
    if not np.isfinite(theta).all():
        return False
    pt, design, f = pseudo_true(model), model.design, math.frexp(d)[1]
    pair, c = _linalg.binade_scaled(np.stack([theta, pt.theta_w]))
    z = design.s * (design.vt @ (pair[0] - pair[1]))
    quad = _ldexp_or_inf(float(z @ z), 2 * (c + design.x_exponent - f) + design.w_factor.exponent)
    m2 = math.ldexp(d, -f) ** 2
    return _ldexp_or_inf(pt.j_stat, -2 * f) + quad <= m2 + 1e-12 * m2 + _ldexp_or_inf(pt.noise_floor, -2 * f)


def finite_sample_ci(Yn, Xn, Wn, cfg: InferenceConfig) -> Interval:
    """Interval from sample moments: identical arithmetic to the population CI."""
    return confidence_interval(ModelInstance(Y=Yn, X=Xn, W=Wn), cfg)


def local_ci(exp: LocalExperiment, Y_L, level: float = 0.95) -> Interval:
    """Interval for K theta in the local-misspecification limit experiment.

    Fits Y_L on the linear model with Jacobian X_L = -Gamma_L, whose design
    the experiment checked and keeps, and applies the J-scaled interval with
    v = K'.  Only Y_L is checked here.
    """
    model = exp._model.with_y(Y_L)
    return confidence_interval(model, InferenceConfig(v=exp.K, level=level))


def analyze(
    model: ModelInstance, cfg: InferenceConfig, d_values: tuple[float, ...] = ()
) -> InferenceReport:
    """Assemble the full inference report for one model instance; sigma_v is computed once."""
    pt = pseudo_true(model)
    sv = sigma_v(model, cfg.v)
    _check_over_identified(model)
    ci = _confidence_interval(model, cfg, pt, sv)
    sets = tuple((d, _projection(pt, cfg, sv, d)) for d in map(float, d_values))
    return InferenceReport(
        theta_w=pt.theta_w, j_stat=pt.j_stat, sigma_v=sv, ci=ci, identified_sets=sets
    )

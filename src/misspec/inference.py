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
from misspec.errors import InputError, JustIdentifiedError
from misspec.model import ModelInstance, objective, pseudo_true, sigma_v
from misspec.special import StudentT, t_quantile

__all__ = [
    "InferenceConfig",
    "Interval",
    "LocalExperiment",
    "InferenceReport",
    "confidence_interval",
    "pivotal_t_stat",
    "identified_set_projection",
    "identified_set_membership",
    "finite_sample_ci",
    "local_ci",
    "analyze",
]

# Relative half-band around d^2 = J inside which the identified-set projection
# collapses to the single pseudo-true point.
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

    def __post_init__(self):
        gamma = _linalg.as_matrix(self.Gamma_L, "Gamma_L")
        _linalg.check_full_column_rank(gamma, "Gamma_L")
        sig = _linalg.spd_factor(self.Sigma, "Sigma").matrix
        wl = _linalg.spd_factor(self.W_L, "W_L").matrix
        mu = _linalg.as_vector(self.mu, gamma.shape[0], "mu")
        kv = _linalg.as_vector(self.K, gamma.shape[1], "K")
        if sig.shape[0] != gamma.shape[0] or wl.shape[0] != gamma.shape[0]:
            raise InputError("Sigma and W_L must match the moment dimension")
        object.__setattr__(self, "Gamma_L", gamma)
        object.__setattr__(self, "Sigma", sig)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "K", kv)
        object.__setattr__(self, "W_L", wl)


@dataclass(frozen=True)
class InferenceReport:
    """Everything the analyze entry point reports for one model."""

    theta_w: np.ndarray
    j_stat: float
    sigma_v: float
    ci: Interval
    identified_sets: tuple[tuple[float, Interval], ...] = field(default_factory=tuple)


def _ci_ingredients(model: ModelInstance, cfg: InferenceConfig):
    if model.k == model.p:
        raise JustIdentifiedError(
            "k - p = 0: the confidence interval is undefined; the "
            "just-identified model corresponds to assuming eta = 0"
        )
    pt = pseudo_true(model)
    sv = sigma_v(model, cfg.v)
    return pt, sv


def confidence_interval(model: ModelInstance, cfg: InferenceConfig) -> Interval:
    """J-scaled interval for v'theta at the configured level.

    Degenerates to the single point v'theta_W when J = 0.  Requires k > p.
    """
    pt, sv = _ci_ingredients(model, cfg)
    center = float(cfg.v @ pt.theta_w)
    if pt.j_stat <= pt.noise_floor:
        return Interval.point(center)
    kp = model.k - model.p
    tstar = t_quantile(StudentT(kp), 0.5 * (1.0 + cfg.level))
    hw = math.sqrt(pt.j_stat / kp) * sv * tstar
    return Interval(lower=center - hw, upper=center + hw)


def pivotal_t_stat(model: ModelInstance, theta_true, cfg: InferenceConfig) -> float:
    """Studentized deviation of v'theta_W from v'theta at the true theta.

    The interval contains v'theta exactly when this statistic is at most the
    critical value in absolute value.
    """
    theta_true = _linalg.as_vector(theta_true, model.p, "theta_true")
    pt, sv = _ci_ingredients(model, cfg)
    if pt.j_stat <= pt.noise_floor:
        raise InputError("pivotal t statistic is undefined when J = 0")
    kp = model.k - model.p
    num = float(cfg.v @ pt.theta_w) - float(cfg.v @ theta_true)
    return num / math.sqrt(pt.j_stat / kp * sv * sv)


def identified_set_projection(
    model: ModelInstance, cfg: InferenceConfig, d: float
) -> Interval:
    """Projection [v'theta bounds] of the norm-bound identified set {Q <= d^2}.

    Empty when d^2 falls below J (the data reject the bound), a single point
    at d^2 = J, and otherwise an interval of half-width sigma_v sqrt(d^2 - J).
    """
    if not d >= 0.0:
        raise InputError(f"norm bound d must be nonnegative, got {d}")
    pt = pseudo_true(model)
    sv = sigma_v(model, cfg.v)
    center = float(cfg.v @ pt.theta_w)
    d2 = d * d
    band = SINGLETON_RTOL * (1.0 + pt.j_stat)
    if d2 < pt.j_stat - band:
        return Interval.empty_set()
    if d2 <= pt.j_stat + band:
        return Interval.point(center)
    hw = sv * math.sqrt(d2 - pt.j_stat)
    return Interval(lower=center - hw, upper=center + hw)


def identified_set_membership(model: ModelInstance, theta, d: float) -> bool:
    """Whether theta satisfies Q(theta) <= d^2 (with a relative tolerance)."""
    if not d >= 0.0:
        raise InputError(f"norm bound d must be nonnegative, got {d}")
    d2 = d * d
    return objective(model, theta) <= d2 + 1e-12 * (1.0 + d2)


def finite_sample_ci(Yn, Xn, Wn, cfg: InferenceConfig) -> Interval:
    """Interval from sample moments: identical arithmetic to the population CI."""
    return confidence_interval(ModelInstance(Y=Yn, X=Xn, W=Wn), cfg)


def local_ci(exp: LocalExperiment, Y_L, level: float = 0.95) -> Interval:
    """Interval for K theta in the local-misspecification limit experiment.

    Builds the linear model with Jacobian X_L = -Gamma_L and applies the
    J-scaled interval with v = K'.
    """
    x_l = -exp.Gamma_L
    model = ModelInstance(Y=Y_L, X=x_l, W=exp.W_L)
    return confidence_interval(model, InferenceConfig(v=exp.K, level=level))


def analyze(
    model: ModelInstance, cfg: InferenceConfig, d_values: tuple[float, ...] = ()
) -> InferenceReport:
    """Assemble the full inference report for one model instance."""
    pt = pseudo_true(model)
    sv = sigma_v(model, cfg.v)
    ci = confidence_interval(model, cfg)
    sets = tuple(
        (float(d), identified_set_projection(model, cfg, float(d))) for d in d_values
    )
    return InferenceReport(
        theta_w=pt.theta_w, j_stat=pt.j_stat, sigma_v=sv, ci=ci, identified_sets=sets
    )

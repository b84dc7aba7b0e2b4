"""Model fixtures for the two running examples: linear IV and a misspecified logit.

``iv_population_model`` parameterizes misspecification directly through the
vector of one-instrument-at-a-time IV estimands; ``iv_sample`` simulates a
heterogeneous-treatment-effects microdata set and returns sample moments.
``logit_population_model`` maps observed conditional means through the
inverse logistic link onto a two-parameter interpolation target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from misspec import _linalg, _rng
from misspec.errors import DomainError, InputError, ModelValidationError, ResampleRequiredError
from misspec.model import ModelInstance

__all__ = [
    "IVScenario",
    "IVDgpParams",
    "LogitScenario",
    "iv_population_model",
    "iv_sample",
    "logit_population_model",
    "logit_inverse_link",
]


@dataclass(frozen=True)
class IVScenario:
    """Population linear IV problem with k instruments and scalar treatment effect.

    ``beta_vec`` holds the one-instrument-at-a-time IV estimands; entries that
    deviate from ``theta_ate`` encode misspecification.  ``first_stage`` is
    E[Z_i X_i] and ``z_cov`` is E[Z_i Z_i'].
    """

    k: int
    theta_ate: float
    beta_vec: np.ndarray
    first_stage: np.ndarray
    z_cov: np.ndarray
    _z_chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        beta = _linalg.as_vector(self.beta_vec, self.k, "beta_vec")
        fs = _linalg.as_vector(self.first_stage, self.k, "first_stage")
        if np.any(fs == 0.0):
            raise InputError("first_stage entries must be nonzero")
        zc = _linalg.spd_factor(self.z_cov, "z_cov").matrix
        if zc.shape[0] != self.k:
            raise InputError(f"z_cov must be {self.k}x{self.k}")
        object.__setattr__(self, "beta_vec", beta)
        object.__setattr__(self, "first_stage", fs)
        object.__setattr__(self, "z_cov", zc)
        object.__setattr__(self, "_z_chol", np.linalg.cholesky(zc))


@dataclass(frozen=True)
class IVDgpParams:
    """Microdata-generating parameters for the finite-sample IV simulation.

    A latent standard normal U_i drives both treatment take-up (through the
    index c0 + c'Z_i + U_i) and the unit treatment effect theta_bar + delta U_i.
    """

    c0: float = 0.0
    c: np.ndarray | float = 0.5
    delta: float = 1.0
    theta_bar: float = 1.0


def _dgp_c_vector(dgp: IVDgpParams, k: int) -> np.ndarray:
    c = np.asarray(dgp.c, dtype=np.float64)
    if c.ndim == 0:
        return np.full(k, float(c))
    return _linalg.as_vector(c, k, "dgp.c")


def iv_population_model(s: IVScenario) -> ModelInstance:
    """Population moments of the IV scenario with the TSLS weighting matrix.

    The implied misspecification is (beta - theta iota) elementwise times the
    first stage; homogeneous estimands give an exactly correct model.
    """
    x = s.first_stage.reshape(s.k, 1)
    eta = (s.beta_vec - s.theta_ate) * s.first_stage
    y = s.first_stage * s.theta_ate + eta
    w = _linalg.spd_factor(s.z_cov, "z_cov").inverse
    return ModelInstance(Y=y, X=x, W=w)


def iv_sample(
    s: IVScenario, n: int, dgp: IVDgpParams | None = None, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate n observations and return sample moments (Yn, Xn, Wn).

    Draws Z_i ~ N(0, z_cov) and latent U_i ~ N(0, 1); treatment is
    X_i = 1{c0 + c'Z_i + U_i > 0}, the unit effect is theta_bar + delta U_i,
    and the outcome is X_i times the unit effect plus standard normal noise.
    Returns Yn = mean(Z_i Y_i), Xn = mean(Z_i X_i) as a k-by-1 matrix, and
    Wn = inverse of mean(Z_i Z_i').  Deterministic given the seed, an integer
    in [0, 2**64).
    """
    if n < s.k + 2:
        raise InputError(f"sample size must be at least k+2={s.k + 2}, got {n}")
    # At most n (2k + 2) float64 values are held at once: the k standard normal
    # draws per observation twice over while they are copied in beside Y_i and
    # X_i.  After that, n (k + 3): the data, and the latent U_i or the noise.
    max_n = _rng.MAX_SAMPLE_VALUES // (2 * s.k + 2)
    if n > max_n:
        raise InputError(f"sample size must be at most {max_n} for k={s.k}, got {n}")
    _rng.check_seed(seed)
    yn, xn, second_moment = _iv_moments(s, n, dgp or IVDgpParams(), seed)
    try:
        factor = _linalg.spd_factor(second_moment, "mean(ZZ')")
        # The fit's rank rule, on Xn whitened by Wn^{1/2} = mean(ZZ')^{-1/2}.
        if not _linalg.full_column_rank(np.linalg.svd(factor.inv_root @ xn, compute_uv=False)):
            raise ModelValidationError("Xn is rank deficient")
    except InputError as exc:
        raise ResampleRequiredError(
            f"degenerate sample at n={n}, seed={seed}: {exc}"
        ) from exc
    return yn, xn, factor.inverse


def _iv_moments(
    s: IVScenario, n: int, dgp: IVDgpParams, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """mean(Z_i Y_i), mean(Z_i X_i) (k-by-1) and mean(Z_i Z_i') of ``iv_sample``.

    Z_i = L e_i for standard normal e_i and z_cov = L L', so with D = [e Y X]
    the n-by-(k+2) data, Z'Z = L (e'e) L', Z'Y = L (e'Y) and Z'X = L (e'X):
    every moment comes from the one k-by-(k+2) product e'D in whitened
    coordinates, and Z itself is never formed.
    """
    k = s.k
    rng = np.random.default_rng(seed)
    # Rows: the draws e' (observation i in column i), then Y, then X.
    data = np.empty((k + 2, n))
    e_t, y, treated = data[:k], data[k], data[k + 1]
    e_t[...] = rng.standard_normal((n, k)).T
    u = rng.standard_normal(n)
    # The treatment index c0 + c'Z_i + U_i, formed in Y's row as c0 + (L'c)'e_i + U_i.
    np.matmul(s._z_chol.T @ _dgp_c_vector(dgp, k), e_t, out=y)
    y += dgp.c0
    y += u
    np.greater(y, 0.0, out=treated)
    # Y_i = X_i (theta_bar + delta U_i) + noise.
    np.multiply(u, dgp.delta, out=y)
    del u
    y += dgp.theta_bar
    y *= treated
    y += rng.standard_normal(n)
    m = s._z_chol @ (e_t @ data.T)
    return m[:, k] / n, m[:, k + 1 :] / n, m[:, :k] @ s._z_chol.T / n


@dataclass(frozen=True)
class LogitScenario:
    """Binary-outcome design with a discrete regressor and two target points.

    ``support`` lists the observed regressor values, ``probs`` their masses,
    ``cond_means`` the true conditional means of the outcome, and ``x_star``
    the two out-of-support points whose linear predictor is the parameter of
    interest.
    """

    support: np.ndarray
    probs: np.ndarray
    cond_means: np.ndarray
    x_star: tuple[float, float]

    def __post_init__(self):
        sup = _linalg.as_vector(self.support, None, "support")
        if sup.size < 2 or not np.all(np.diff(sup) > 0.0):
            raise InputError("support must be strictly increasing with >= 2 points")
        probs = _linalg.as_vector(self.probs, sup.size, "probs")
        if np.any(probs <= 0.0) or abs(float(np.sum(probs)) - 1.0) > 1e-12:
            raise InputError("probs must be positive and sum to 1")
        cm = _linalg.as_vector(self.cond_means, sup.size, "cond_means")
        if np.any(cm <= 0.0) or np.any(cm >= 1.0):
            raise InputError("cond_means must lie strictly inside (0, 1)")
        x1, x2 = float(self.x_star[0]), float(self.x_star[1])
        if x1 == x2:
            raise InputError("x_star points must be distinct")
        if x1 in sup or x2 in sup:
            raise InputError("x_star points must lie outside the support")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "cond_means", cm)
        object.__setattr__(self, "x_star", (x1, x2))


def logit_inverse_link(q: float) -> float:
    """Log-odds log(q / (1 - q)) for q strictly inside (0, 1)."""
    q = float(q)
    if not (0.0 < q < 1.0):
        raise DomainError(f"log-odds requires q in (0, 1), got {q}")
    return math.log(q) - math.log1p(-q)


def logit_population_model(s: LogitScenario) -> ModelInstance:
    """Population moments of the logit interpolation problem.

    Y stacks the log-odds of the conditional means; X maps the two linear
    predictor values at the target points onto the support through the 2x2
    interpolation matrix; W weights support points by their probabilities.
    """
    x1, x2 = s.x_star
    denom = x2 - x1
    interp = np.array([[x2 / denom, -x1 / denom], [-1.0 / denom, 1.0 / denom]])
    design = np.column_stack([np.ones(s.support.size), s.support])
    y = np.array([logit_inverse_link(q) for q in s.cond_means])
    return ModelInstance(Y=y, X=design @ interp, W=np.diag(s.probs))

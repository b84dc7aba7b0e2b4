"""Linear minimum-distance model instances and their deterministic estimands.

A model is the observable triple (Y, X, W): a k-vector of moment intercepts,
a k-by-p Jacobian with full column rank, and a symmetric positive definite
k-by-k weighting matrix.  The weighted objective

    Q(theta) = (Y - X theta)' W (Y - X theta)

is minimized at the pseudo-true value, and the minimized value is the
population J-statistic.  ``decompose_eta`` splits the whitened residual into
the detectable component (orthogonal to the whitened Jacobian, driving J) and
the undetectable component (inside its span, driving the gap between true and
pseudo-true parameters).

Since Q(theta) = J + (theta - theta_W)' H (theta - theta_W) with H = X'WX,
every estimand depends on the data only through the fit (theta_W, J, H), which
``pseudo_true`` computes once per model and caches on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from misspec import _linalg
from misspec.errors import InputError, NumericalError

# Negative objective values within this relative band of zero are treated as
# float noise at an exact fit and clamped; anything more negative is a bug.
J_CLAMP_RTOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ModelInstance:
    """Observable triple (Y, X, W) of a linear minimum-distance problem.

    Construction validates all invariants: every entry finite, W symmetric
    positive definite, X full column rank, k >= p.  Instances are immutable
    and all operations on them are pure functions; W's square roots and the
    fit are computed on first use.
    """

    Y: np.ndarray
    X: np.ndarray
    W: np.ndarray
    _w_factor: _linalg.SpdFactor = field(init=False, repr=False, compare=False)
    _fit: PseudoTrueResult | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        x = _linalg.as_matrix(self.X, "X")
        y = _linalg.as_vector(self.Y, x.shape[0], "Y")
        _linalg.check_finite(y, "Y")
        _linalg.check_finite(x, "X")
        wf = _linalg.spd_factor(self.W, "W")
        if wf.matrix.shape[0] != x.shape[0]:
            raise InputError(
                f"W has dimension {wf.matrix.shape[0]} but X has {x.shape[0]} rows"
            )
        if x.shape[0] < x.shape[1]:
            raise InputError(f"need k >= p, got k={x.shape[0]} < p={x.shape[1]}")
        _linalg.check_full_column_rank(x, "X")
        object.__setattr__(self, "Y", _readonly(y))
        object.__setattr__(self, "X", _readonly(x))
        object.__setattr__(self, "W", _readonly(wf.matrix))
        object.__setattr__(self, "_w_factor", wf)

    @property
    def k(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def w_root(self) -> np.ndarray:
        """Symmetric PSD square root of W."""
        return self._w_factor.root

    @property
    def w_inv_root(self) -> np.ndarray:
        return self._w_factor.inv_root


@dataclass(frozen=True)
class PseudoTrueResult:
    """Minimizer and minimized value of the objective, with H = X'WX and its factor.

    ``cholesky`` is H's lower Cholesky factor, a read-only ndarray with zeros
    above the diagonal; ``noise_floor`` is the scale below which J is float
    noise.
    """

    theta_w: np.ndarray
    j_stat: float
    hessian: np.ndarray
    cholesky: np.ndarray
    noise_floor: float

    def solve(self, b) -> np.ndarray:
        """H^{-1} b, from the cached factor."""
        return _linalg.cho_solve(self.cholesky, b)

    @cached_property
    def hessian_inv(self) -> np.ndarray:
        """H^{-1}, computed once from the cached factor."""
        return _readonly(self.solve(np.eye(self.theta_w.shape[0])))

    @cached_property
    def lam_max(self) -> float:
        """Largest eigenvalue of H^{-1}, computed once."""
        return float(np.max(np.linalg.eigvalsh(self.hessian_inv)))


@dataclass(frozen=True)
class EtaDecomposition:
    """Whitened residual split into projection and residual components.

    eta_tilde = eta_hat + eta_perp, with eta_hat in the span of the whitened
    Jacobian and eta_perp orthogonal to it; ||eta_perp||^2 equals the
    J-statistic and does not depend on the theta at which the residual was
    formed.
    """

    eta_tilde: np.ndarray
    eta_hat: np.ndarray
    eta_perp: np.ndarray
    j_stat: float


def implied_eta(model: ModelInstance, theta) -> np.ndarray:
    """Moment value Y - X theta implied by a candidate parameter."""
    theta = _linalg.as_vector(theta, model.p, "theta")
    return model.Y - model.X @ theta


def objective(model: ModelInstance, theta) -> float:
    """Weighted quadratic objective (Y - X theta)' W (Y - X theta)."""
    g = implied_eta(model, theta)
    return float(g @ model.W @ g)


def pseudo_true(model: ModelInstance) -> PseudoTrueResult:
    """Minimize the objective: GLS coefficient of Y on X with weight W.

    The linear system in X'WX is solved by Cholesky factorization rather than
    explicit inversion.  The minimized objective is clamped to zero when it is
    within float noise below zero (exact-fit case); a substantially negative
    value raises :class:`NumericalError`.  Computed once per model and cached.
    """
    if model._fit is not None:
        return model._fit
    h = model.X.T @ model.W @ model.X
    chol = _linalg.cholesky(h)
    chol.setflags(write=False)
    theta_w = _linalg.cho_solve(chol, model.X.T @ (model.W @ model.Y))
    j = objective(model, theta_w)
    noise_floor = J_CLAMP_RTOL * (1.0 + float(model.Y @ model.W @ model.Y))
    if j < 0.0:
        if j > -noise_floor:
            j = 0.0
        else:
            raise NumericalError(
                f"minimized objective is negative beyond float noise: {j:.3e}"
            )
    fit = PseudoTrueResult(
        theta_w=_readonly(theta_w),
        j_stat=j,
        hessian=_readonly(h),
        cholesky=chol,
        noise_floor=noise_floor,
    )
    object.__setattr__(model, "_fit", fit)
    return fit


def decompose_eta(model: ModelInstance, theta) -> EtaDecomposition:
    """Split the whitened residual at ``theta`` into span and orthogonal parts.

    eta_perp is invariant to ``theta``; its squared length is the J-statistic.
    Computed apart from the cached fit, so that the two can check each other.
    """
    eta_tilde = model.w_root @ implied_eta(model, theta)
    x_tilde = model.w_root @ model.X
    coef = _linalg.spd_solve(x_tilde.T @ x_tilde, x_tilde.T @ eta_tilde)
    eta_hat = x_tilde @ coef
    eta_perp = eta_tilde - eta_hat
    return EtaDecomposition(
        eta_tilde=_readonly(eta_tilde),
        eta_hat=_readonly(eta_hat),
        eta_perp=_readonly(eta_perp),
        j_stat=float(eta_perp @ eta_perp),
    )


def sigma_v(model: ModelInstance, v) -> float:
    """sqrt(v' (X'WX)^{-1} v), the Hessian-transformed length of v.

    Formed for v scaled exactly by a power of two, so it is finite wherever the result is.
    """
    v = _linalg.as_vector(v, model.p, "v")
    if not np.any(v != 0.0):
        raise InputError("v must be nonzero")
    u, e = _linalg.binade_scaled(v)
    return float(np.ldexp(np.sqrt(u @ pseudo_true(model).solve(u)), e))

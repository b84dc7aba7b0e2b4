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
every estimand depends on the data only through the fit (theta_W, J, H).  H
and its factor depend on X and W alone: a ``Design`` computes them once and
shares them across Y.  ``pseudo_true`` computes theta_W and J once per model
and caches them on it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from misspec import _linalg
from misspec.errors import InputError, NumericalError

# J within this band of zero, relative to Y'WY, is float noise at an exact fit:
# negative values there are clamped, and anything more negative is a bug.
J_CLAMP_RTOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, order="C")
    a.setflags(write=False)
    return a


def _checked_y(y, k: int) -> np.ndarray:
    y = _linalg.as_vector(y, k, "Y")
    _linalg.check_finite(y, "Y")
    return _readonly(y)


@dataclass(frozen=True)
class Design:
    """Checked Jacobian X and weighting matrix W, and what follows from them alone.

    Construction checks that every entry of X is finite, W is symmetric
    positive definite of X's row dimension, and X has full column rank with
    k >= p.  H = X'WX, its lower Cholesky factor, H^{-1}, H's condition number
    and W's factors are computed on first use and cached, so every model on
    one design (see ``ModelInstance.with_y``) computes them once.
    """

    X: np.ndarray
    W: np.ndarray
    w_factor: _linalg.SpdFactor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = _linalg.as_matrix(self.X, "X")
        _linalg.check_finite(x, "X")
        wf = _linalg.spd_factor(self.W, "W")
        if wf.matrix.shape[0] != x.shape[0]:
            raise InputError(
                f"W has dimension {wf.matrix.shape[0]} but X has {x.shape[0]} rows"
            )
        if x.shape[0] < x.shape[1]:
            raise InputError(f"need k >= p, got k={x.shape[0]} < p={x.shape[1]}")
        _linalg.check_full_column_rank(x, "X")
        object.__setattr__(self, "X", _readonly(x))
        object.__setattr__(self, "W", _readonly(wf.matrix))
        object.__setattr__(self, "w_factor", wf)

    @cached_property
    def hessian(self) -> np.ndarray:
        """H = X'WX."""
        return _readonly(self.X.T @ self.W @ self.X)

    @cached_property
    def cholesky(self) -> np.ndarray:
        """H's lower Cholesky factor, read-only, with zeros above the diagonal."""
        chol = _linalg.cholesky(self.hessian)
        chol.setflags(write=False)
        return chol

    @cached_property
    def hessian_inv(self) -> np.ndarray:
        """H^{-1}, from the cached factor."""
        return _readonly(_linalg.cho_solve(self.cholesky, np.eye(self.X.shape[1])))

    @cached_property
    def condition_number(self) -> float:
        """Largest over smallest eigenvalue of H (inf if that is not positive)."""
        vals = np.linalg.eigvalsh(self.hessian)
        return float(vals[-1] / vals[0]) if vals[0] > 0.0 else np.inf


@dataclass(frozen=True)
class ModelInstance:
    """Observable triple (Y, X, W) of a linear minimum-distance problem.

    Construction validates all invariants: every entry finite, W symmetric
    positive definite, X full column rank, k >= p.  Instances are immutable
    and all operations on them are pure functions; the fit is computed on
    first use.  X and W, with everything derived from them alone, form the
    model's ``design``, which ``with_y`` shares with models of other Y.
    """

    Y: np.ndarray
    X: np.ndarray
    W: np.ndarray
    design: Design = field(init=False, repr=False, compare=False)
    _fit: PseudoTrueResult | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        x = _linalg.as_matrix(self.X, "X")
        y = _checked_y(self.Y, x.shape[0])
        design = Design(X=x, W=self.W)
        object.__setattr__(self, "Y", y)
        object.__setattr__(self, "X", design.X)
        object.__setattr__(self, "W", design.W)
        object.__setattr__(self, "design", design)

    def with_y(self, Y) -> ModelInstance:
        """The model of intercepts Y on this model's design.

        Only Y is checked; X, W and their cached factors are shared.  Equal in
        every result, bit for bit, to ``ModelInstance(Y, self.X, self.W)``.
        """
        model = copy.copy(self)
        object.__setattr__(model, "Y", _checked_y(Y, self.k))
        object.__setattr__(model, "_fit", None)
        return model

    @property
    def k(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def w_root(self) -> np.ndarray:
        """Symmetric PSD square root of W."""
        return self.design.w_factor.root

    @property
    def w_inv_root(self) -> np.ndarray:
        return self.design.w_factor.inv_root


@dataclass(frozen=True)
class PseudoTrueResult:
    """Minimizer and minimized value of the objective for one Y on a design.

    ``noise_floor`` is the scale below which J is float noise.  H = X'WX
    (``hessian``), its lower Cholesky factor ``cholesky`` (a read-only ndarray
    with zeros above the diagonal), ``hessian_inv`` and ``condition_number``
    are the design's, shared by every Y fitted on it.
    """

    theta_w: np.ndarray
    j_stat: float
    noise_floor: float
    design: Design = field(repr=False, compare=False)

    @property
    def hessian(self) -> np.ndarray:
        return self.design.hessian

    @property
    def cholesky(self) -> np.ndarray:
        return self.design.cholesky

    @property
    def hessian_inv(self) -> np.ndarray:
        return self.design.hessian_inv

    @property
    def condition_number(self) -> float:
        return self.design.condition_number

    def solve(self, b) -> np.ndarray:
        """H^{-1} b, from the cached factor."""
        return _linalg.cho_solve(self.cholesky, b)


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
    theta_w = _linalg.cho_solve(model.design.cholesky, model.X.T @ (model.W @ model.Y))
    j = objective(model, theta_w)
    noise_floor = J_CLAMP_RTOL * float(model.Y @ model.W @ model.Y)
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
        noise_floor=noise_floor,
        design=model.design,
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

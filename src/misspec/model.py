"""Linear minimum-distance model instances and their deterministic estimands.

A model is the observable triple (Y, X, W): a k-vector of moment intercepts,
a k-by-p Jacobian with full column rank, and a symmetric positive definite
k-by-k weighting matrix.  The weighted objective

    Q(theta) = (Y - X theta)' W (Y - X theta)

is minimized at the pseudo-true value, and the minimized value is the
population J-statistic.

Since Q(theta) = J + (theta - theta_W)' H (theta - theta_W) with H = X'WX,
every estimand depends on the data only through the fit (theta_W, J, H).  It
is least squares on the whitened design Z = R X (R'R = W), from the one thin
SVD Z = U S V' that a ``Design`` takes of X and W and shares across Y: H is
never formed, so the fit keeps kappa(X) eps of accuracy, not kappa(X)^2 eps.
``pseudo_true`` computes theta_W and J once per model and caches them on it.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from misspec import _linalg
from misspec.errors import InputError, ModelValidationError, NumericalError

# J at or below this multiple of Y'WY is float noise: the fit is exact.
J_NOISE_RTOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, order="C")
    a.setflags(write=False)
    return a


def _checked_y(y, k: int) -> np.ndarray:
    y = _linalg.as_vector(y, k, "Y")
    _linalg.check_finite(y, "Y")
    return _readonly(y)


def _scaled_sqrt(x: float, n: int) -> float:
    """sqrt(x 2^n), with no overflow or underflow in x 2^n; inf where the result overflows."""
    try:
        return math.ldexp(math.sqrt(math.ldexp(x, n % 2)), n // 2)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Design:
    """Checked Jacobian X and weighting matrix W, and the one SVD that follows from them.

    Construction checks that every entry of X is finite, W is symmetric
    positive definite of X's row dimension (``w_factor``, one ``eigh``), and
    the whitened design has full column rank with k >= p.  With X = 2^a X_s
    and W = 2^e W_s scaled exactly (``x_exponent`` a, ``w_factor.exponent``
    e), ``w_root`` is R = L^{1/2} Q' for W_s = Q L Q' (R'R = W_s), and R X_s
    has the thin SVD U S V' (``u``, ``s`` descending, ``vt``): H = X'WX =
    2^(2a + e) V S^2 V'.  Every fit quantity reads this SVD, and so does
    ``hessian_inv``, H^{-1} as one ``_linalg.SpdFactor``.
    """

    X: np.ndarray
    W: np.ndarray
    w_factor: _linalg.SpdFactor = field(init=False, repr=False, compare=False)
    x_exponent: int = field(init=False, repr=False, compare=False)
    w_root: np.ndarray = field(init=False, repr=False, compare=False)
    u: np.ndarray = field(init=False, repr=False, compare=False)
    s: np.ndarray = field(init=False, repr=False, compare=False)
    vt: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = _linalg.as_matrix(self.X, "X")
        _linalg.check_finite(x, "X")
        wf = _linalg.spd_factor(self.W, "W")
        if wf.matrix.shape[0] != x.shape[0]:
            raise InputError(
                f"W has dimension {wf.matrix.shape[0]} but X has {x.shape[0]} rows"
            )
        if not 0 < x.shape[1] <= x.shape[0]:
            raise InputError(f"need k >= p >= 1, got k={x.shape[0]}, p={x.shape[1]}")
        xs, a = _linalg.binade_scaled(x)
        root = np.sqrt(wf.values)[:, None] * wf.vectors.T
        u, s, vt = np.linalg.svd(root @ xs, full_matrices=False)
        if not _linalg.full_column_rank(s):
            lo, hi = (_scaled_sqrt(float(sv) ** 2, 2 * a + wf.exponent) for sv in (s[-1], s[0]))
            raise ModelValidationError(f"X is rank deficient: singular values range [{lo:.3e}, {hi:.3e}]")
        # X may be the caller's array, W is w_factor's own and R comes out of its product
        # F-ordered: they are copied, C-ordered.  The SVD's arrays are fresh, C-ordered and owned.
        for fresh in (u, s, vt):
            fresh.setflags(write=False)
        copies = (_readonly(v) for v in (x, wf.matrix, root))
        for name, value in zip(("X", "W", "w_root", "u", "s", "vt"), (*copies, u, s, vt)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "w_factor", wf)
        object.__setattr__(self, "x_exponent", a)

    @cached_property
    def condition_number(self) -> float:
        """Largest over smallest eigenvalue of H, (s_max / s_min)^2."""
        return float((self.s[0] / self.s[-1]) ** 2)

    @cached_property
    def hessian_inv(self) -> _linalg.SpdFactor:
        """H^{-1} = 2^-(2a + e) V S^-2 V', read-only: the matrix, its upper triangle mirrored,
        the eigenvalues 2^-(2a + e) / S^2, ascending, and the vectors V; inf where one overflows."""
        n = -2 * self.x_exponent - self.w_factor.exponent
        with np.errstate(over="ignore"):
            inv = np.ldexp((self.vt.T / self.s**2) @ self.vt, n)
            vals = np.ldexp(1.0 / self.s**2, n)
        vals.setflags(write=False)
        return _linalg.SpdFactor(matrix=_readonly(np.triu(inv) + np.triu(inv, 1).T), values=vals, vectors=self.vt.T)


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


@dataclass(frozen=True)
class PseudoTrueResult:
    """Minimizer and minimized value of the objective for one Y on a design.

    ``noise_floor``, ``J_NOISE_RTOL`` Y'WY, is the scale at or below which J
    is float noise: the fit is exact (``exact_fit``), and J is read as 0.
    """

    theta_w: np.ndarray
    j_stat: float
    noise_floor: float

    @property
    def exact_fit(self) -> bool:
        """Whether J is at or below the noise floor: float noise about an exact fit."""
        return self.j_stat <= self.noise_floor


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

    Least squares on the design's SVD, with Y = 2^b Y_s scaled exactly by a
    power of two and y_s = R Y_s: theta_W = 2^(b - a) V S^-1 U' y_s and J,
    the squared norm of the residual, 2^(2b + e) |y_s - U U' y_s|^2; so J
    is never negative.  Raises :class:`NumericalError` where theta_W or J
    overflows, or J underflows at an inexact fit.  Computed once per model
    and cached.
    """
    if model._fit is not None:
        return model._fit
    d = model.design
    y0, b = _linalg.binade_scaled(model.Y)
    ys = d.w_root @ y0
    coef = d.u.T @ ys
    theta_s = d.vt.T @ (coef / d.s)
    if model.k == model.p:  # U spans every y_s: the residual is 0, and so is J
        j_s = 0.0
    elif model.p > 1:
        resid = ys - d.u @ coef
        j_s = float(resid @ resid)
    else:
        # One column is perfectly conditioned: after a step of iterative refinement the
        # objective's own residual is as accurate as the projection's, and exact where the fit is.
        xs, ws = np.ldexp(d.X, -d.x_exponent), np.ldexp(d.W, -d.w_factor.exponent)
        theta_s = theta_s + d.vt.T @ ((d.u.T @ (d.w_root @ (y0 - xs @ theta_s))) / d.s)
        r = y0 - xs @ theta_s
        j_s = float(r @ ws @ r)  # W_s is SPD to within SPD_RTOL: never negative
    floor_s = J_NOISE_RTOL * float(ys @ ys)
    with np.errstate(over="ignore"):  # refused below; an infinite noise floor is right
        theta_w = np.ldexp(theta_s, b - d.x_exponent)
        j, noise_floor = np.ldexp([j_s, floor_s], 2 * b + d.w_factor.exponent).tolist()
    if not (abs(theta_w).max() < math.inf and j < math.inf and (j >= sys.float_info.min or j_s <= floor_s)):
        raise NumericalError(f"the fit leaves float64's range: J = {j:.3e}, theta_W = {theta_w.tolist()}")
    fit = PseudoTrueResult(theta_w=_readonly(theta_w), j_stat=j, noise_floor=noise_floor)
    object.__setattr__(model, "_fit", fit)
    return fit


def sigma_v(model: ModelInstance, v) -> float:
    """sqrt(v' (X'WX)^{-1} v) = |S^-1 V' v|, the Hessian-transformed length of v.

    Read off the design's SVD for v scaled exactly by a power of two, so no
    intermediate overflows; raises :class:`NumericalError` outside the normal range.
    """
    v = _linalg.as_vector(v, model.p, "v")
    if not np.any(v != 0.0):
        raise InputError("v must be nonzero")
    d = model.design
    vs, c = _linalg.binade_scaled(v)
    r = (d.vt @ vs) / d.s
    sv = _scaled_sqrt(float(r @ r), 2 * (c - d.x_exponent) - d.w_factor.exponent)
    if not sys.float_info.min <= sv < math.inf:
        raise NumericalError(f"sigma_v is outside float64's normal range: {sv:.3e}")
    return sv

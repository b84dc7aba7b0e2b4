"""Special functions and the Student-t distribution used by the inference layer.

Log-gamma and the regularized incomplete beta are thin validated wrappers over
the standard library and SciPy; the t CDF is built on the incomplete beta and
the t quantile is SciPy's ``stdtrit``, evaluated in the lower tail so that
neither is formed as 1 - tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from misspec.errors import DomainError


@dataclass(frozen=True)
class StudentT:
    """Student-t distribution with ``dof`` degrees of freedom (any positive real)."""

    dof: float

    def __post_init__(self):
        if not (self.dof > 0.0 and math.isfinite(self.dof)):
            raise DomainError(f"degrees of freedom must be positive, got {self.dof}")


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def reg_inc_beta(x, a: float, b: float):
    """Regularized incomplete beta function I_x(a, b) for x in [0, 1].

    Accepts a scalar or array ``x``; ``a`` and ``b`` must be positive.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError("reg_inc_beta requires x in [0, 1]")
    out = scipy.special.betainc(a, b, arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def t_cdf(dist: StudentT, x):
    """CDF of the Student-t distribution, exact via the incomplete beta.

    Symmetric by construction: ``t_cdf(x) + t_cdf(-x) == 1`` up to rounding.
    Accepts a scalar or array ``x``.
    """
    nu = dist.dof
    arr = np.asarray(x, dtype=np.float64)
    scalar = np.isscalar(x) or arr.ndim == 0
    arr = np.atleast_1d(arr)
    # I_{nu/(nu + x^2)}(nu/2, 1/2) is twice the upper tail mass at |x|.
    z = nu / (nu + arr * arr)
    tail = 0.5 * scipy.special.betainc(0.5 * nu, 0.5, z)
    out = np.where(arr >= 0.0, 1.0 - tail, tail)
    out = np.where(np.isposinf(arr), 1.0, out)
    out = np.where(np.isneginf(arr), 0.0, out)
    return float(out[0]) if scalar else out


def t_quantile(dist: StudentT, q: float) -> float:
    """Quantile of the Student-t distribution for q in (0, 1).

    Inverts the lower tail min(q, 1 - q) and reflects, so both tails keep
    full relative accuracy.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"t_quantile requires q in (0, 1), got {q}")
    if q == 0.5:
        return 0.0
    x = -float(scipy.special.stdtrit(dist.dof, min(q, 1.0 - q)))
    return x if q > 0.5 else -x

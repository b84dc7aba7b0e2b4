"""Special functions and the Student-t distribution used by the inference layer.

The t CDF is built on SciPy's regularized incomplete beta and the t quantile
is SciPy's ``stdtrit``, evaluated in the lower tail so that neither is formed
as 1 - tail.  The log incomplete gamma and beta functions stay accurate where
the functions themselves underflow.

``scipy.special`` is imported on first use, inside the functions that call
it, so importing this module (and ``misspec``) does not load it; commands
that never evaluate these functions never pay for it.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from misspec.errors import DomainError, NumericalError

# |x| at and above which x^2 overflows: 2^512 = sqrt(2^1024).
_SQRT_OVERFLOW = 2.0**512


@dataclass(frozen=True)
class StudentT:
    """Student-t distribution with ``dof`` degrees of freedom (any positive real)."""

    dof: float

    def __post_init__(self):
        if not (self.dof > 0.0 and math.isfinite(self.dof)):
            raise DomainError(f"degrees of freedom must be positive, got {self.dof}")


def t_cdf(dist: StudentT, x):
    """CDF of the Student-t distribution, exact via the incomplete beta.

    Symmetric by construction: ``t_cdf(x) + t_cdf(-x) == 1`` up to rounding.
    Accepts a scalar or array ``x``.
    """
    nu = dist.dof
    arr = np.asarray(x, dtype=np.float64)
    scalar = np.isscalar(x) or arr.ndim == 0
    arr = np.atleast_1d(arr)
    import scipy.special

    # I_{nu/(nu + x^2)}(nu/2, 1/2) is twice the upper tail mass at |x|.
    far = np.abs(arr) >= _SQRT_OVERFLOW
    near = np.where(far, 0.0, arr)
    z = nu / (nu + near * near)
    tail = 0.5 * scipy.special.betainc(0.5 * nu, 0.5, z)
    if far.any():
        # Where x^2 overflows, z = nu/x^2 to rounding and I_z(a, 1/2) is its
        # leading term z^a / (a B(a, 1/2)): the next is O(nu/x^2) smaller.
        # At x = +-inf the tail is exp(-inf) = 0.
        a = 0.5 * nu
        log_z = math.log(nu) - 2.0 * np.log(np.abs(arr[far]))
        tail[far] = 0.5 * np.exp(a * log_z - math.log(a) - scipy.special.betaln(a, 0.5))
    out = np.where(arr >= 0.0, 1.0 - tail, tail)
    return float(out[0]) if scalar else out


def t_quantile(dist: StudentT, q: float) -> float:
    """Quantile of the Student-t distribution for q in (0, 1).

    Inverts the lower tail min(q, 1 - q) and reflects, so both tails keep
    full relative accuracy.  Memoised on (dof, q), in a bounded cache.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"t_quantile requires q in (0, 1), got {q}")
    return _t_quantile(dist.dof, q)


@functools.lru_cache(maxsize=256)
def _t_quantile(dof: float, q: float) -> float:
    if q == 0.5:
        return 0.0
    import scipy.special

    x = -float(scipy.special.stdtrit(dof, min(q, 1.0 - q)))
    return x if q > 0.5 else -x


def _log_continued_fraction(b0: float, terms) -> float:
    """Log of b0 + a1 / (b1 + a2 / (b2 + ...)) > 0, for b0 > 0 and terms (a_n, b_n).

    Modified Lentz's method, stopped once a step changes the value by less
    than the working precision.
    """
    f, c, d = b0, b0, 0.0
    for a_n, b_n in itertools.islice(terms, 10_000):
        d = b_n + a_n * d
        d = 1.0 / (d if d != 0.0 else 1e-300)
        c = b_n + a_n / c
        c = c if c != 0.0 else 1e-300
        f *= c * d
        if abs(c * d - 1.0) < sys.float_info.epsilon:
            return math.log(f)
    raise NumericalError("continued fraction did not converge")


def log_gammaincc(a: float, x: float) -> float:
    """Log of the regularized upper incomplete gamma function Q(a, x).

    SciPy's ``gammaincc`` where it is a normal float.  It underflows only for
    x > a + 1, and there log Q = -x + a log x - lgamma(a) - log CF, with the
    continued fraction CF = (x + 1 - a) - 1(1 - a) / ((x + 3 - a) - 2(2 - a) / ...).
    """
    if not (a > 0.0 and x >= 0.0):
        raise DomainError(f"log_gammaincc requires a > 0 and x >= 0, got a={a}, x={x}")
    import scipy.special

    q = float(scipy.special.gammaincc(a, x))
    if q >= sys.float_info.min or not a + 1.0 < x < math.inf:
        return math.log(q) if q > 0.0 else -math.inf
    terms = ((-n * (n - a), x + 2.0 * n + 1.0 - a) for n in itertools.count(1))
    # x is subtracted last: it dominates, and the other terms keep their precision.
    return (a * math.log(x) - math.lgamma(a) - _log_continued_fraction(x + 1.0 - a, terms)) - x


def log_betainc(a: float, b: float, x: float) -> float:
    """Log of the regularized incomplete beta function I_x(a, b).

    SciPy's ``betainc`` where it is a normal float.  It underflows only for
    x < (a + 1) / (a + b + 2), and there log I = a log x + b log(1 - x) - log a
    - log B(a, b) - log CF, with the continued fraction CF = 1 + d_1 / (1 + d_2 / ...).
    """
    if not (a > 0.0 and b > 0.0 and 0.0 <= x <= 1.0):
        raise DomainError(f"log_betainc requires a, b > 0 and x in [0, 1], got {a}, {b}, {x}")
    import scipy.special

    v = float(scipy.special.betainc(a, b, x))
    if v >= sys.float_info.min or not 0.0 < x < (a + 1.0) / (a + b + 2.0):
        return math.log(v) if v > 0.0 else -math.inf

    def terms():
        for m in itertools.count():
            if m:
                yield m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)), 1.0
            yield -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)), 1.0

    log_prefactor = a * math.log(x) + b * math.log1p(-x) - math.log(a) - scipy.special.betaln(a, b)
    return float(log_prefactor) - _log_continued_fraction(1.0, terms())

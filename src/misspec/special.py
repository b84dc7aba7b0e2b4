"""Special functions and the Student-t distribution used by the inference layer.

The t CDF is SciPy's ``stdtr`` (Boost's, on the regularized incomplete beta)
and the t quantile SciPy's ``stdtrit``, evaluated in the lower tail so that
neither is formed as 1 - tail.  The two-sided tail Pr{T^2 > s} has a log that
stays accurate where the tail itself underflows (``log_far_t_sq_tail``), and
log Gamma(a + m/2) / Gamma(a) is kept free of the cancellation of two lgammas
(``_log_gamma_ratio``, ``log_gamma_half_excess``).

``scipy.special`` is imported on first use, inside the functions that call
it, so importing this module (and ``misspec``) does not load it; commands
that never evaluate these functions never pay for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from misspec.errors import DomainError

# |x| at and above which x^2 overflows: 2^512 = sqrt(2^1024).
_SQRT_OVERFLOW = 2.0**512


@dataclass(frozen=True)
class StudentT:
    """Student-t distribution with ``dof`` degrees of freedom (any positive real)."""

    dof: float

    def __post_init__(self):
        if not (self.dof > 0.0 and math.isfinite(self.dof)):
            raise DomainError(f"degrees of freedom must be positive, got {self.dof}")


def t_sq_tail(dof: float, s) -> np.ndarray:
    """Pr{T^2 > s} = I_x(dof/2, 1/2), x = dof/(dof + s), for T Student-t; s >= 0 an array.

    Twice SciPy's ``stdtr`` at -sqrt(s): Boost's t CDF, which takes 1 - x as
    s/(dof + s) where x > 2/3, so the rounding of x near 1 is not magnified.
    At dof = 1 it is the Cauchy tail (2/pi) atan(1/sqrt(s)): there ``stdtr``
    is 1e2 ulps off at s = 1e-6 and 1e5 at s = 1e-12.
    """
    if dof == 1.0:
        return (2.0 / math.pi) * np.arctan2(1.0, np.sqrt(s))
    import scipy.special

    return np.multiply(scipy.special.stdtr(dof, np.negative(np.sqrt(s))), 2.0)


def t_cdf(dist: StudentT, x):
    """CDF of the Student-t distribution, exact via the incomplete beta.

    Both tails are lower tails, at -|x|, so each keeps its relative accuracy;
    at dof = 1 they are the Cauchy tail atan2(1, |x|) / pi.  Where no |x|
    reaches 2^512 the tails are one ``stdtr`` call, and only an array with
    some x >= 0 (or a NaN) is reflected, as 1 - tail there.  Symmetric by
    construction: ``t_cdf(x) + t_cdf(-x) == 1`` up to rounding.  Accepts a
    scalar or array ``x``.
    """
    nu = dist.dof
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0  # a Python or numpy scalar, or a 0-d array
    if scalar:
        arr = arr.reshape(1)
    mag = np.abs(arr)
    if nu == 1.0:
        # The Cauchy CDF at -|x|, atan2(1, |x|) / pi, where stdtr is 2.8e-11 relative off at |x| = 1e-6.
        tail = np.arctan2(1.0, mag) / math.pi
    else:
        import scipy.special

        # A NaN fails the comparison, and takes the general route below.
        if arr.size and mag.max() < _SQRT_OVERFLOW:
            tail = scipy.special.stdtr(nu, np.negative(mag))
        else:
            # Half of t_sq_tail at x^2, from x itself; where x^2 overflows Boost's would be 0,
            # and log1p(x^2/nu) is 2 log|x| - log nu to rounding (inf at x = +-inf, where the tail is 0).
            far = mag >= _SQRT_OVERFLOW
            tail = scipy.special.stdtr(nu, np.negative(np.where(far, 0.0, mag)))
            if far.any():
                tail[far] = 0.5 * np.exp(log_far_t_sq_tail(0.5 * nu, 2.0 * np.log(mag[far]) - math.log(nu)))
    out = tail if arr.size and arr.max() < 0.0 else np.where(arr >= 0.0, 1.0 - tail, tail)
    return float(out[0]) if scalar else out


def t_cdf_floats(dof: float, xs: list[float]) -> list[float]:
    """``t_cdf`` at a list of Python floats, as a list, bit for bit.

    Where dof is not 1 and every x lies in (-2^512, 0), ``t_cdf`` is one
    ``stdtr`` call at x itself, made here without its array bookkeeping;
    elsewhere this is ``t_cdf``.
    """
    if dof != 1.0 and all(-_SQRT_OVERFLOW < x < 0.0 for x in xs):
        import scipy.special

        return scipy.special.stdtr(dof, xs).tolist()
    return t_cdf(StudentT(dof), np.array(xs, dtype=np.float64)).tolist()


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


# log Gamma(a + 1/2) / Gamma(a) - (log a)/2 = sum_n C_n a^(1 - 2n), C_n from the
# Bernoulli polynomials (DLMF §5.11); from a = 7 on, nine terms are within an ulp.
_HALF_EXCESS = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224, -5461 / 425984,
                929569 / 15728640, -3202291 / 8912896)
# (sinh(w/2) / (w/2))^(-1/2) = 1 + sum_n _BGRAT_C[n - 1] w^(2n), at float precision for w < log 2.
_BGRAT_C = (-1 / 48, 1 / 2560, -61 / 7741440, 1.6967665791721782e-07, -3.805064191721906e-09,
            8.748377596315407e-11, -2.044523359411974e-12, 4.833351797967704e-14)


def log_gamma_half_excess(a: float) -> float:
    """log Gamma(a + 1/2) / Gamma(a) - (log a)/2 for a > 0: lgammas below a = 7, else their series."""
    if a < 7.0:
        return math.lgamma(a + 0.5) - math.lgamma(a) - 0.5 * math.log(a)
    return sum(c * a ** (1 - 2 * n) for n, c in enumerate(_HALF_EXCESS, 1))


def _log_gamma_ratio(a: float, m: int, start: float = 0.0, over_power: bool = False) -> float:
    """start + log Gamma(a + m/2) / Gamma(a), for a > 0 and an integer m >= 0.

    Below a = 7 start plus one lgamma minus the other, in that order.  From a = 7
    on, where those cancel (and overflow above a of about 2.5e305), the exact sum
    of start, log(a + j) over the m // 2 integer steps and, at odd m, the half
    step at b = a + m // 2, (log b)/2 + ``log_gamma_half_excess(b)``.  With
    ``over_power`` the ratio is Gamma(a + m/2) / (Gamma(a) a^(m/2)), each step's
    log(a + j) then log1p(j / a): a caller whose other terms hold (m/2) log a,
    near 690 m/2 at a = 1e300, leaves it out of both rather than cancel it.
    """
    if a < 7.0:
        out = start + math.lgamma(a + 0.5 * m) - math.lgamma(a)
        return out - 0.5 * m * math.log(a) if over_power else out
    step = (lambda j: math.log1p(j / a)) if over_power else (lambda j: math.log(a + j))
    steps = [start] + [step(j) for j in range(m // 2)]
    if m % 2:
        steps += [0.5 * step(m // 2), log_gamma_half_excess(a + m // 2)]
    return math.fsum(steps)


def log_far_t_sq_tail(a: float, l1: np.ndarray) -> np.ndarray:
    """log Pr{T^2 > s} = log I_x(a, 1/2), T Student-t with dof 2a, from l1 = log(1/x) = log1p(s/dof) > 0.

    Accurate where the tail is too small for a normal float.  For x <= 1/2 the
    power series (DLMF §8.17(ii)) x^a (1 - x)^(1/2) / (a B(a, 1/2)) sum_n
    (a + 1/2)_n / (a + 1)_n x^n; for x > 1/2 (so a > 1000) BGRAT at b = 1/2
    (DiDonato & Morris 1992, ACM TOMS 18): with T = a - 1/4 and u = T l1,
    I = Gamma(a + 1/2) / (Gamma(a) sqrt(pi T)) sum_n c_n T^-2n Gamma(1/2 + 2n)
    Q(1/2 + 2n, u).  Term n over term 0 is c_n l1^2n h_2n, h_0 = 1 and
    h_(j+1) = w + (j + 1/2) h_j / u with w = 1 / (sqrt(pi u) erfcx(sqrt(u))),
    by Q(b + 1, u) = Q(b, u) + e^-u u^b / Gamma(b + 1), Q(1/2, u) = erfc(sqrt(u)).
    """
    import scipy.special

    excess = log_gamma_half_excess(a)
    out = np.empty_like(l1)
    wide = l1 >= math.log(2.0)
    if wide.any():
        x = np.exp(-l1[wide])
        term, total, n = np.ones_like(x), np.ones_like(x), 0.0
        while term.max() > 2.0**-54 * total.min():
            term *= x * ((a + 0.5 + n) / (a + 1.0 + n))
            total += term
            n += 1.0
        out[wide] = -a * l1[wide] + (0.5 * np.log1p(-x) + np.log(total)) + (excess - 0.5 * math.log(math.pi * a))
    if not wide.all():
        near, t = l1[~wide], a - 0.25
        u = t * near
        scaled = scipy.special.erfcx(np.sqrt(u))
        w, h, corr = 1.0 / (np.sqrt(math.pi * u) * scaled), 1.0, 0.0
        for n, c in enumerate(_BGRAT_C):
            h = w + (2 * n + 1.5) * (w + (2 * n + 0.5) * h / u) / u
            corr = corr + c * near ** (2 * n + 2) * h
        out[~wide] = (np.log(scaled) + np.log1p(corr) - u) + (excess + 0.5 * math.log(a / t))
    return out

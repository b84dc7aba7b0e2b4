"""Rotation-invariant misspecification priors.

A radial family is a scalar profile f defining a prior density on the moment
violation eta that depends on eta only through the weighted quadratic form
eta' W eta, scaled by c:

    pi(eta) proportional to f(eta' W eta / c).

Such densities are constant on the ellipsoids {eta' W eta = const}, i.e.
elliptically contoured in whitened coordinates.  Three profiles are built in:

* normal,      f(u) = exp(-u/2)                      (proper)
* t with dof,  f(u) = (1 + u/dof)^(-(dof+k)/2)       (proper)
* power law,   f(u) = u^(-alpha)                     (improper)

The power-law integral diverges at the origin for the relevant alpha range, so
that family has no normalizer, sampling, tail probability or evidence: it
enters only through its closed-form posterior (``posterior_shape``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from misspec import _kernels, _linalg, _rng, special
from misspec.errors import (
    ImproperPriorError,
    InputError,
    NumericalError,
)

__all__ = [
    "NormalRadial",
    "StudentTRadial",
    "PowerLawRadial",
    "parse_radial",
    "ScaledPrior",
    "sample_eta",
]


class RadialFamily:
    """Base class for scalar radial profiles u -> f(u)."""

    proper: bool = False

    def log_f(self, u, k: int):
        """Log of the radial profile at u >= 0, in ambient dimension k."""
        raise NotImplementedError

    def log_ball_integral(self, k: int) -> float:
        """Log of the whitened normalizer integral of f(u'u) over k-space."""
        raise ImproperPriorError(f"{self.spec_string()} prior has no finite normalizer")

    def log_tail(self, s, k: int):
        """Log Pr{S > s} for S = eta' W eta / c under the prior, in dimension k.

        ``s`` is a float or an array of floats, and so is the result: at k = 2
        one closed form over the whole array, free of ``scipy.special``, at
        other k entry by entry.
        """
        if not self.proper:
            raise ImproperPriorError(f"{self.spec_string()} prior has no tail probability")
        if k == 2:
            return self._log_tail_2d(s)
        if not isinstance(s, np.ndarray):
            return self._log_tail(float(s), k)
        return np.array([self._log_tail(float(x), k) for x in np.ravel(s)]).reshape(np.shape(s))

    def log_evidence(self, c: float, j: float, k: int, p: int) -> float:
        """Log marginal likelihood of the data under a flat theta prior, at scale c.

        Up to the term (log|W| - log|X'WX|) / 2, which every family shares:
        the prior density of Y - X theta, integrated over theta, depends on the
        data only through J.
        """
        raise ImproperPriorError(f"{self.spec_string()} prior has no marginal likelihood")

    def posterior_shape(self, c: float, j: float, k: int, p: int) -> tuple[float | None, float]:
        """(dof, spread) of the posterior under a flat theta prior, with H = X'WX.

        Gaussian with covariance spread H^{-1} if dof is None, else Student-t
        with scale matrix spread / dof H^{-1}.
        """
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class NormalRadial(RadialFamily):
    """Gaussian profile; the scaled prior is N(0, c W^{-1})."""

    proper = True

    def log_f(self, u, k: int):
        return -0.5 * np.asarray(u, dtype=np.float64)

    def log_ball_integral(self, k: int) -> float:
        return 0.5 * k * math.log(2.0 * math.pi)

    # S is chi-square with k degrees of freedom: its tail is an incomplete
    # gamma, e^(-s/2) at k = 2 and erfc(sqrt(s/2)) at k = 1.
    def _log_tail_2d(self, s):
        return -0.5 * s

    def _log_tail(self, s: float, k: int) -> float:
        if k == 1 and (tail := math.erfc(math.sqrt(0.5 * s))) >= sys.float_info.min:
            return math.log(tail)
        return special.log_gammaincc(0.5 * k, 0.5 * s)

    def log_evidence(self, c: float, j: float, k: int, p: int) -> float:
        # J / c overflows only to +inf, where the evidence is 0, its limit.
        return -0.5 * (k - p) * math.log(2.0 * math.pi * c) - 0.5 * (j / c)

    def posterior_shape(self, c: float, j: float, k: int, p: int) -> tuple[float | None, float]:
        return None, c

    def spec_string(self) -> str:
        return "normal"


@dataclass(frozen=True)
class StudentTRadial(RadialFamily):
    """Multivariate-t profile with ``dof`` degrees of freedom."""

    dof: float
    proper = True

    def __post_init__(self):
        if not (0.5 * self.dof > 0.0 and math.isfinite(self.dof)):
            raise InputError(f"t radial dof must be finite with dof/2 positive, got {self.dof}")

    def log_f(self, u, k: int):
        u = np.asarray(u, dtype=np.float64)
        return -0.5 * (self.dof + k) * np.log1p(u / self.dof)

    def log_ball_integral(self, k: int) -> float:
        nu = self.dof
        return (
            math.lgamma(0.5 * nu)
            - math.lgamma(0.5 * (nu + k))
            + 0.5 * k * math.log(nu * math.pi)
        )

    # S / k is F(k, dof): its tail is the incomplete beta I_x(dof/2, k/2) at
    # x = dof / (dof + s), and (1 + s/dof)^(-dof/2) at k = 2.
    def _log_tail_2d(self, s):
        return -0.5 * self.dof * _log1p_ratio(s, self.dof)

    def _log_tail(self, s: float, k: int) -> float:
        if k == 1 and (tail := float(special.t_sq_tail(self.dof, [s])[0])) >= sys.float_info.min:
            return math.log(tail)  # S = T^2 for T Student-t
        a, b = 0.5 * self.dof, 0.5 * k
        x = a / (a + 0.5 * s)  # x without overflow in dof + s
        if x >= sys.float_info.min:
            return special.log_betainc(a, b, x)
        # Where x underflows, I_x(a, b) is its leading term x^a / (a B(a, b)):
        # the next is O(x) smaller.
        import scipy.special

        log_x = -_log1p_ratio(s, self.dof)
        return a * log_x - math.log(a) - float(scipy.special.betaln(a, b))

    def log_evidence(self, c: float, j: float, k: int, p: int) -> float:
        # log1p(J / (c dof)), as a softplus of its log, which neither overflows nor
        # divides by a c dof that underflows.
        nu = self.dof
        if j > 0.0:
            t = math.log(j) - math.log(c) - math.log(nu)
            growth = max(t, 0.0) + math.log1p(math.exp(-abs(t)))
        else:
            growth = 0.0
        return (
            -0.5 * (k - p) * (math.log(math.pi * nu) + math.log(c))
            - 0.5 * (nu + k - p) * growth
            + math.lgamma(0.5 * (nu + k - p))
            - math.lgamma(0.5 * nu)
        )

    def posterior_shape(self, c: float, j: float, k: int, p: int) -> tuple[float | None, float]:
        # Exact at every c; as c -> 0 the scale shrinks only to J / dof' H^{-1}.
        return self.dof + k - p, c * self.dof + j

    def spec_string(self) -> str:
        return f"t:{self.dof:g}"


@dataclass(frozen=True)
class PowerLawRadial(RadialFamily):
    """Power-law profile u^(-alpha); improper, with a closed-form posterior only."""

    alpha: float
    proper = False

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise InputError(f"power-law alpha must be positive, got {self.alpha}")

    def log_f(self, u, k: int):
        u = np.asarray(u, dtype=np.float64)
        with np.errstate(divide="ignore"):
            return -self.alpha * np.log(u)

    def posterior_shape(self, c: float, j: float, k: int, p: int) -> tuple[float | None, float]:
        nu = 2.0 * self.alpha - p
        if not nu > 0.0:
            raise InputError(f"power-law posterior requires 2*alpha - p > 0, got {nu}")
        return nu, j

    def spec_string(self) -> str:
        return f"powerlaw:{self.alpha:g}"


def _log1p_ratio(s, d: float):
    """log(1 + s / d) for s >= 0 and d > 0: a float, or an array like s.

    s / d overflows only for d < 1, where 1 + s / d is s / d to rounding, so
    the log is log s - log d.
    """
    if not isinstance(s, np.ndarray):  # numpy's logs, which round as on arrays
        s = float(s)
        ratio = s / d
        return float(np.log1p(ratio) if ratio < math.inf else np.log(s) - math.log(d))
    with np.errstate(over="ignore"):
        ratio = s / d
    out = np.log1p(ratio)
    far = np.isinf(ratio) & (s < np.inf)
    if far.any():
        out[far] = np.log(s[far]) - math.log(d)
    return out


def parse_radial(text: str) -> RadialFamily:
    """Parse the CLI form of a radial family: normal, t:<dof>, powerlaw:<alpha>."""
    spec = text.strip().lower()
    if spec == "normal":
        return NormalRadial()
    for prefix, ctor in (("t:", StudentTRadial), ("powerlaw:", PowerLawRadial)):
        if spec.startswith(prefix):
            try:
                value = float(spec[len(prefix):])
            except ValueError as exc:
                raise InputError(f"bad radial family parameter in {text!r}") from exc
            return ctor(value)
    raise InputError(
        f"unknown radial family {text!r}; expected normal, t:<dof>, or powerlaw:<alpha>"
    )


@dataclass(frozen=True)
class ScaledPrior:
    """Radial prior f(eta' W eta / c) with scale c > 0 and SPD weight W.

    The prior variance of eta scales with c.  For proper families the
    normalizer is c^{k/2} |W|^{-1/2} times the whitened ball integral of f.
    """

    family: RadialFamily
    c: float
    W: np.ndarray
    _w_factor: _linalg.SpdFactor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise InputError(f"prior scale c must be positive, got {self.c}")
        wf = _linalg.spd_factor(self.W, "W")
        object.__setattr__(self, "W", wf.matrix)
        object.__setattr__(self, "_w_factor", wf)

    @property
    def k(self) -> int:
        return self.W.shape[0]

    @property
    def proper(self) -> bool:
        return self.family.proper


# Smallest t dof ``sample_eta`` accepts; the kernels never apply the t scale.
# A row is scaled by sqrt(dof / w), w ~ chi2(dof) = 2 Gamma(dof/2), and for
# a = dof/2 < 1 the gamma draw is u^(1/a) Gamma(a + 1), u uniform on (0, 1].
# The row stops being finite once w falls below about 2^-1022 (w underflows,
# or eta'W eta, of order dof/w, overflows): up to O(1) factors, once
# u^(2/dof) < 2^-1022, i.e. u < 2^(-511 dof), with probability 2^(-511 dof),
# about e^(-354 dof).  It stays finite with probability at least 1 - 2^-53
# only for dof >= 53/511, about 0.104.
_MIN_T_DOF = 53.0 / 511.0


def _kernel_eta_code(family: RadialFamily) -> tuple[int, float]:
    """The kernels' eta-draw code and t dof (eta_code, nu) for a proper family."""
    if not family.proper:
        raise ImproperPriorError("cannot draw eta from an improper radial prior")
    if not isinstance(family, StudentTRadial):
        return _kernels.ETA_NORMAL, 0.0
    return _kernels.ETA_STUDENT_T, float(family.dof)


def sample_eta(prior: ScaledPrior, rng_seed: int, n: int) -> np.ndarray:
    """Draw ``n`` misspecification vectors from a proper scaled prior, shape (n, k).

    The draws come from the Monte Carlo kernels' counter-based streams: row i
    is drawn from the stream of replication i of a run with seed ``rng_seed``,
    so at c = 1 it is the eta that replication i of a pivotality run with
    this family and W draws (at c = 1 whatever the prior's scale), times the
    t family's scale, which the kernels leave out.  Normal: eta = sqrt(c)
    W^{-1/2} z for standard normal z.  Student-t with dof >= ``_MIN_T_DOF``:
    w ~ chi2(dof) is drawn first, then z, and eta is scaled by sqrt(dof / w).
    The seed is an integer in [0, 2**64) and n a positive integer, with n k
    at most ``_rng.MAX_SAMPLE_VALUES``.
    """
    eta_code, nu = _kernel_eta_code(prior.family)
    if eta_code == _kernels.ETA_STUDENT_T and nu < _MIN_T_DOF:
        raise InputError(f"eta draws need a t dof of at least {_MIN_T_DOF:.4g}; got {nu:g}")
    _rng.check_seed(rng_seed)
    _rng.check_positive_int(n, "sample size")
    max_n = _rng.MAX_SAMPLE_VALUES // prior.k
    if n > max_n:
        raise InputError(f"sample size must be at most {max_n} for k={prior.k}, got {n}")
    mix = math.sqrt(prior.c) * prior._w_factor.inv_root
    out = np.empty((n, prior.k))
    for offset, state in _kernels._blocks(rng_seed, 0, n):
        eta, w = _kernels._draw_eta(state, eta_code, nu, mix)
        out[offset : offset + state.size] = (eta if w is None else eta * np.sqrt(nu / w)).T
    return out


def _tail_ratio(family: RadialFamily, k: int, c: float, a: float, tau: float) -> float:
    """Pr{||eta||_W >= a tau | ||eta||_W >= tau} for ``family`` at scale c in dimension k.

    The ratio of the two survival probabilities of s = ||eta||_W^2 / c
    (``RadialFamily.log_tail``) is taken in log space, so it stays accurate
    where both underflow; every finite cut has a finite log tail.  For the
    normal family it tends to 0 as c -> 0; for the t family with dof it
    tends to a^(-dof), independent of tau.
    """
    if not a > 1.0:
        raise InputError(f"tail_ratio requires a > 1, got {a}")
    if not tau > 0.0:
        raise InputError(f"tail_ratio requires tau > 0, got {tau}")
    if not (c > 0.0 and math.isfinite(c)):
        raise InputError(f"prior scale c must be positive, got {c}")
    s_lo = tau * tau / c
    s_hi = a * a * s_lo
    if not math.isfinite(s_hi):
        raise NumericalError(f"radial tail cut {s_hi:.3e} is not finite")
    return min(math.exp(family.log_tail(s_hi, k) - family.log_tail(s_lo, k)), 1.0)


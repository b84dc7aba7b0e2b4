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

_LOG_2 = math.log(2.0)
_LOG_2PI = math.log(2.0 * math.pi)
_TINY = sys.float_info.min  # the smallest normal float
_LGAMMA_3_2 = math.lgamma(1.5)

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
    # The t family's a = dof/2 and log Gamma(a + 1/2) / Gamma(a) - (log a)/2 in
    # its tail I_x(a, k/2); the normal family's tail is their limit as a -> inf.
    _a: float = math.inf
    _half_excess: float = 0.0

    def log_f(self, u, k: int):
        """Log of the radial profile at u >= 0, in ambient dimension k."""
        raise NotImplementedError

    def log_ball_integral(self, k: int) -> float:
        """Log of the whitened normalizer integral of f(u'u) over k-space."""
        raise ImproperPriorError(f"{self.spec_string()} prior has no finite normalizer")

    def log_tail(self, s, k: int):
        """Log Pr{S > s} for S = eta' W eta / c under the prior, in dimension k >= 1.

        ``s`` is a float or an array of floats, and so is the result.  S is
        chi-square with k dof under the normal family, with tail Q(k/2, y) at
        y = s/2, and k F(k, dof) under t, with tail I_x(a, k/2) at a = dof/2,
        x = dof/(dof + s), formed only as log x = -log1p(s/dof).  The tail is
        its closed form at k = 2 (e^-y, x^a) or at k = 1 (erfc(sqrt(y)),
        Pr{T^2 > s}) plus the positive terms of Q(b + 1, y) - Q(b, y) =
        e^-y y^b / Gamma(b + 1) and I_x(a, b + 1) - I_x(a, b) =
        x^a (1 - x)^b / (b B(a, b)) (DLMF §8.8(i), §8.17(iv)), summed in logs
        relative to the lead e^-y or x^a: term b + 1 is term b times
        y x (1 + b/a) / (b + 1), with x = 1 and a = inf for the normal family.
        Where the normal family's tail at k > 2 is above 1/2 it is
        log1p(-P(k/2, y)), SciPy's ``gammainc``.
        """
        if not self.proper:
            raise ImproperPriorError(f"{self.spec_string()} prior has no tail probability")
        if k == 2:
            return self._log_lead(s)
        flat = s if isinstance(s, np.ndarray) and s.ndim == 1 else np.asarray(s, dtype=np.float64).reshape(-1)
        values = flat.tolist()
        inner = flat
        if not (values and 0.0 < min(values) and max(values) < math.inf):
            inner = np.where((flat > 0.0) & (flat < math.inf), flat, 1.0)
        if k % 2:  # the tail at k = 1: ``_half_tail`` where it is a normal float
            tails = self._half_tail(inner)
            if tails and max(tails) < _TINY:
                out = self._log_far_half_tail(inner)
            else:
                out = np.array([math.log(t) if t >= _TINY else -math.inf for t in tails])
                if tails and min(tails) < _TINY:
                    far = out == -math.inf
                    out[far] = self._log_far_half_tail(inner[far])
        if k > 2:
            # Scalar constants go in by ufunc calls, cheaper than operators on a row's two cuts.
            lead = self._log_lead(inner)
            log_sx = np.log(inner)  # log(s x) = log(2 y x), log x = lead / a
            if self._a < math.inf:
                log_sx += np.divide(lead, self._a)
            if k % 2:  # from the k = 1 tail; term 1/2 is y^(1/2) / Gamma(3/2) for the normal family
                b, acc, const = 0.5, out - lead, self._half_excess - _LGAMMA_3_2 - 0.5 * _LOG_2
            else:  # term 0 is 1, term 1 is y
                b, acc, const = 1.0, 0.0, -_LOG_2
            term = np.add(np.multiply(log_sx, b), const)
            while True:
                acc = np.logaddexp(acc, term)
                if b + 1.0 >= 0.5 * k:
                    break
                term = term + np.add(log_sx, math.log1p(b / self._a) - math.log1p(b) - _LOG_2)
                b += 1.0
            out = np.minimum(lead + acc, 0.0)  # rounding can lift a tail near 1 above it
            # -y + log(sum) cancels near 1: above 1/2 the normal family's tail is 1 - P(k/2, y).
            if self._a == math.inf and max(out.tolist(), default=-math.inf) > -_LOG_2:
                import scipy.special

                near = out > -_LOG_2
                out[near] = np.log1p(-scipy.special.gammainc(0.5 * k, 0.5 * inner[near]))
        if inner is not flat:  # the tail is 1 at s = 0 and 0 at s = inf
            out = np.where(flat == 0.0, 0.0, np.where(flat == math.inf, -math.inf, out))
            out[np.isnan(flat)] = math.nan
        if flat is s:
            return out
        return out.reshape(np.shape(s)) if np.ndim(s) else float(out[0])

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

    # S is chi-square: its tail is e^-y at k = 2 and erfc(sqrt(y)) at k = 1, y = s/2.
    def _log_lead(self, s):
        return np.multiply(s, -0.5)

    def _half_tail(self, s):
        return [math.erfc(math.sqrt(0.5 * v)) for v in s.tolist()]

    def _log_far_half_tail(self, s):
        import scipy.special

        y = np.multiply(s, 0.5)
        return np.log(scipy.special.erfcx(np.sqrt(y))) - y

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
        object.__setattr__(self, "_a", 0.5 * self.dof)
        object.__setattr__(self, "_half_excess", special.log_gamma_half_excess(self._a))
        # log(pi dof), read only below a = 7: above it the evidence and normaliser leave its log a out.
        object.__setattr__(self, "_log_pi_dof", math.log(math.pi * self.dof))

    def log_f(self, u, k: int):
        u = np.asarray(u, dtype=np.float64)
        return -0.5 * (self.dof + k) * np.log1p(u / self.dof)

    def log_ball_integral(self, k: int) -> float:
        if self._a < 7.0:
            return -special._log_gamma_ratio(self._a, k) + 0.5 * k * self._log_pi_dof
        # log(pi dof) = log(2 pi) + log a: its log a, and the Gamma ratio's (k/2) log a, are left out.
        return -special._log_gamma_ratio(self._a, k, over_power=True) + 0.5 * k * _LOG_2PI

    # S / k is F(k, dof): its tail is x^a = (1 + s/dof)^(-dof/2) at k = 2 and
    # Pr{T^2 > s} for T Student-t at k = 1.
    def _log_lead(self, s):
        return np.multiply(_log1p_ratio(s, self.dof), -0.5 * self.dof)

    def _half_tail(self, s):
        return special.t_sq_tail(self.dof, s).tolist()

    def _log_far_half_tail(self, s):
        return special.log_far_t_sq_tail(self._a, _log1p_ratio(s, self.dof))

    def log_evidence(self, c: float, j: float, k: int, p: int) -> float:
        nu, m, growth = self.dof, k - p, 0.0
        if j > 0.0:  # growth = log1p(J / (c dof))
            ratio = j / (c * nu) if _TINY <= c * nu < math.inf else _ratio_past_product(j, c, nu)
            if _TINY <= ratio < math.inf:
                growth = math.log1p(ratio)
            else:
                # As a softplus of the ratio's log, which neither overflows nor divides by a
                # c dof that underflows.  Not elsewhere: its rounding, near |log ratio| eps,
                # the factor dof / 2 below would carry into the evidence.
                t = math.log(j) - math.log(c) - math.log(nu)
                growth = max(t, 0.0) + math.log1p(math.exp(-abs(t)))
        if self._a < 7.0:
            head = -0.5 * m * (self._log_pi_dof + math.log(c)) - 0.5 * (nu + m) * growth
            return special._log_gamma_ratio(self._a, m, head)
        # log(pi dof) = log(2 pi) + log a: its log a, and the Gamma ratio's (m/2) log a, are left out.
        head = -0.5 * m * (_LOG_2PI + math.log(c)) - 0.5 * (nu + m) * growth
        return special._log_gamma_ratio(self._a, m, head, over_power=True)

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


def _ratio_past_product(j: float, c: float, nu: float) -> float:
    """J / (c dof) where c dof is not a normal float: (J / c) / dof or (J / dof) / c, whichever
    passes through a normal float; nan if neither does."""
    for first, second in ((c, nu), (nu, c)):
        if _TINY <= j / first < math.inf:
            return j / first / second
    return math.nan


def _log1p_ratio(s, d: float):
    """log(1 + s / d) for s >= 0 and d > 0, a float or an array like s.

    s / d overflows only for d < 1, where 1 + s / d is s / d to rounding, so
    the log is log s - log d.
    """
    if d >= 1.0:
        return np.log1p(np.divide(s, d))
    with np.errstate(over="ignore", divide="ignore"):
        ratio = np.divide(s, d)
        return np.where(np.isinf(ratio) & (np.asarray(s) < np.inf), np.log(s) - math.log(d), np.log1p(ratio))


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


def _tail_ratio(family: RadialFamily, k: int, rows) -> list[float]:
    """Pr{||eta||_W >= a tau | ||eta||_W >= tau} for ``family`` at scale c in dimension k.

    One ratio per row (c, a, tau), the rows checked in order.  The ratio of
    the two survival probabilities of s = ||eta||_W^2 / c
    (``RadialFamily.log_tail``, one call for every cut of every row) is taken
    in log space, so it stays accurate where both underflow; every finite cut
    has a finite log tail.  For the normal family it tends to 0 as c -> 0; for
    the t family with dof it tends to a^(-dof), independent of tau.
    """
    cuts_lo, cuts_hi = [], []
    for c, a, tau in rows:
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
        cuts_lo.append(s_lo)
        cuts_hi.append(s_hi)
        if not family.proper:
            break  # log_tail refuses at the first checked entry
    log_t = family.log_tail(np.array(cuts_lo + cuts_hi), k).tolist()
    n = len(cuts_lo)
    return [min(math.exp(hi - lo), 1.0) for lo, hi in zip(log_t[:n], log_t[n:])]

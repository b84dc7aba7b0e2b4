"""Posterior distributions for theta under rotation-invariant misspecification priors.

``closed_form_posterior`` is exact under a flat theta prior for every radial
family: Gaussian for the normal family, Student-t for the power law and for
the t family at every c, with c = 0 its small-c limit.  A closed form is
Gaussian iff its dof is None, and its density is the matching radial
profile (normal or t) normalized in dimension p.  Under a contaminated prior
the posterior is exact too: the ``MixturePosterior`` of the two components'
closed forms, weighted by their marginal likelihoods.  Every quantity read
off a posterior here -- the mass outside a ball, the TV distance and the
marginal sd -- comes from these closed forms; no posterior is evaluated on a
grid.  Radial tails are the families' ``RadialFamily.log_tail`` in dimension
p.  The TV distance holds at any p, the mass outside a ball at p <= 2.

A bare ``ClosedFormPosterior(center, scale, dof)`` validates its scale with
``_linalg.spd_factor``, one eigensolve.  Every metric has one route, a
``_PosteriorPath``: a model's closed forms along prior scales c, each scale
m(c) H^{-1}, H = X'WX, held as m(c) over c with H^{-1} and its spectrum from
the design's SVD.  ``closed_form_posterior`` is its one-c case, and closed
forms and mixtures read their metrics off the one-c path of their own scale
as the sweeps do, so a sweep's values are the per-c ones bit for bit.

Every closed form in m(c) runs on Python floats, a list over c: the
multipliers, scale entries and eigenvalues, the marginal sds (``_sds``, the
largest read at H^{-1}'s largest diagonal entry), the standardized bounds
and masses at p = 1, the mixture weights and masses, and two normals' TV
crossings and, at p <= 2, their tails.  numpy and scipy are called once per
special-function batch: at p = 1 the t masses at every c are one ``stdtr``
call (``t_cdf_floats``; the normal ones are ``math.erfc``), at p = 2 the
masses are one angular trapezoid rule (``_angular_mass``), whose peaks are one
``log_tail`` call and whose first evaluation, at 128 angles, holds its levels
of 8 to 128 nodes, each row then refined on floats.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from misspec import _linalg
from misspec.errors import (
    DegenerateLimitError,
    InputError,
    ModelValidationError,
    NumericalError,
)
from misspec.model import ModelInstance, pseudo_true
from misspec.priors import NormalRadial, RadialFamily, StudentTRadial
from misspec.special import t_cdf_floats

__all__ = [
    "ThetaPrior",
    "ClosedFormPosterior",
    "MixturePosterior",
    "closed_form_posterior",
    "normal_posterior",
    "mass_outside_ball",
    "tv_distance",
]


@dataclass(frozen=True)
class ThetaPrior:
    """Gaussian prior on theta, with per-coordinate mean and sd.

    Coverage runs take it to say how many uniforms each replication's theta
    draw uses (2 per coordinate); the hits do not depend on theta.
    """

    kind: str
    mean: np.ndarray
    sd: np.ndarray

    @staticmethod
    def gaussian(mean, sd) -> "ThetaPrior":
        mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        sd = np.broadcast_to(np.asarray(sd, dtype=np.float64), mean.shape).copy()
        if not np.isfinite(mean).all():
            raise InputError("Gaussian theta prior requires a finite mean")
        if not (np.isfinite(sd).all() and np.all(sd > 0.0)):
            raise InputError("Gaussian theta prior requires a positive finite sd")
        return ThetaPrior(kind="gaussian", mean=mean, sd=sd)


@dataclass(frozen=True)
class ClosedFormPosterior:
    """Gaussian (``dof`` None) or Student-t posterior descriptor.

    ``scale`` is the covariance matrix of a Gaussian and the scale matrix (not
    the covariance) of a Student-t.  ``log_evidence``, where known, is the log
    marginal likelihood of the data under the prior that gave the posterior,
    up to a term its model fixes (``RadialFamily.log_evidence``).

    The scale's eigenvalues are carried with it (``_scale_factor``).  A scale
    given as a matrix is validated by ``_linalg.spd_factor``, which computes
    them; ``closed_form_posterior`` passes a ``_linalg.SpdFactor`` whose
    eigenvalues it has read off the model's design and checked by the same
    ``_linalg.check_spd_spectrum``, and that is taken as it is.  Its metrics
    are read off the one-c path of that factor (``_path``).
    """

    center: np.ndarray
    scale: np.ndarray
    dof: float | None = None
    log_evidence: float | None = None

    def __post_init__(self):
        center = _linalg.as_vector(self.center, None, "center")
        sf = self.scale
        if not isinstance(sf, _linalg.SpdFactor):
            sf = _linalg.spd_factor(sf, "scale")
        if sf.matrix.shape[0] != center.shape[0]:
            raise InputError("posterior center and scale dimensions disagree")
        path = _ClosedFormPath(center, sf, self.dof, self.log_evidence)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "scale", sf.matrix)
        object.__setattr__(self, "_family", path.family)
        object.__setattr__(self, "_scale_factor", sf)
        object.__setattr__(self, "_path", path)

    @property
    def p(self) -> int:
        return self.center.shape[0]

    def density(self, points) -> np.ndarray:
        """Posterior density at an (m, p) array (or a single point) of thetas."""
        pts = np.asarray(points, dtype=np.float64)
        single = pts.ndim == 1
        pts = pts[None, :] if single else pts
        sf, family = self.__dict__["_scale_factor"], self.__dict__["_family"]
        d = pts - self.center[None, :]
        q = np.einsum("ni,ij,nj->n", d, sf.inverse, d)
        logdens = family.log_f(q, self.p) - family.log_ball_integral(self.p) - 0.5 * sf.log_det
        out = np.exp(logdens)
        return float(out[0]) if single else out

    def marginal_sd(self) -> np.ndarray:
        """Marginal standard deviations (infinite for t with dof <= 2)."""
        return np.array(self._path.marginal_sds())


def closed_form_posterior(model: ModelInstance, family: RadialFamily, c: float) -> ClosedFormPosterior:
    """Exact posterior under ``family`` at prior scale c, with a flat theta prior.

    Centred at theta_W, with the shape of ``family.posterior_shape``; c = 0
    is the small-c limit.  Where the scale is J alone, J must be positive.
    X'WX must have a condition number below 1e10, the bound every posterior
    scale is held to; a scale that underflows or overflows in float64 is
    refused by its c.  This is the one-c case of ``_PosteriorPath``, which
    makes the checks.
    """
    return _PosteriorPath(model, family, (c,)).posterior(0)


@functools.lru_cache(maxsize=64)
def _posterior_family(dof: float | None) -> RadialFamily:
    """The radial family of the closed forms of a dof (None: normal), built once per dof."""
    return NormalRadial() if dof is None else StudentTRadial(dof)


def _check_prior_scale(c) -> None:
    if not (c >= 0.0 and math.isfinite(c)):
        raise InputError(f"prior scale c must be nonnegative and finite, got {c}")


def _unrepresentable(c, exc: ModelValidationError) -> InputError:
    return InputError(f"posterior at prior scale c = {c:g} is unrepresentable: {exc}")


class _PosteriorPath:
    """The closed-form posteriors of one model and family along prior scales c.

    Along c every closed form shares theta_W (``center``), its dof and the
    shape H^{-1}; only the multiplier m(c) of its scale m(c) H^{-1} moves.  So
    the path holds m(c) over c (``multiplier``, a list of Python floats), the
    dof, the centre and H^{-1} with its spectrum, and reads every metric off
    m(c) times H^{-1}'s diagonal, [0, 0] entry or extreme eigenvalues, taken
    once as Python floats: the metrics are lists of floats, one per c.  Only
    ``posterior(i)`` forms a scale matrix, and a log evidence is computed only
    where read.  Every c passes ``closed_form_posterior``'s checks, in order:
    c, the fit and X'WX's condition number (model-wide, made once), the
    family's shape, the scale's spectrum and entries (m(c) max |H^{-1}|
    finite); the first c refused is the one named.  ``c_grid`` is a nonempty
    sequence.  Closed forms and mixtures read their one-c paths
    (``_ClosedFormPath``) alike.
    """

    def __init__(self, model: ModelInstance, family: RadialFamily, c_grid):
        cs = list(c_grid)
        _check_prior_scale(cs[0])  # before the fit, as at one c
        fit, design = pseudo_true(model), model.design
        if not design.condition_number < 1.0 / _linalg.SPD_RTOL:
            raise ModelValidationError(
                f"X'WX has condition number {design.condition_number:.3e}; closed-form "
                f"posteriors need it below {1.0 / _linalg.SPD_RTOL:.0e}"
            )
        k, p = model.k, model.p
        # Python floats, whose products overflow to inf silently.
        inv_lo, inv_hi, h_max, diag = design.hessian_inv_floats
        mults = []
        for c in cs:
            _check_prior_scale(c)
            dof, spread = family.posterior_shape(c, fit.j_stat, k, p)
            if dof is None:
                if not spread > 0.0:
                    raise InputError(f"prior scale c must be positive, got {c}")
                mult = spread
            elif (not family.proper or c == 0.0) and fit.j_stat <= fit.noise_floor:
                raise DegenerateLimitError(
                    f"{family.spec_string()} posterior at c = {c:g} requires a positive "
                    "J-statistic (its scale is J alone)"
                )
            else:
                mult = spread / dof
            try:
                _linalg.check_spd_spectrum(mult * inv_lo, mult * inv_hi, "scale")
                if not mult * h_max < math.inf:
                    raise ModelValidationError("scale must be finite")
            except ModelValidationError as exc:
                raise _unrepresentable(c, exc) from None
            mults.append(mult)
        self.multiplier, self.center, self.p, self.dof = mults, fit.theta_w, p, dof
        self.family = _posterior_family(dof)
        self._h_inv, self._inv_vals, self._vectors = design.hessian_inv, design.hessian_inv_eigenvalues, design.vt.T
        self._extremes, self._diag = (inv_lo, inv_hi), diag
        # A J within float noise of 0 is 0 here, or it would decide the evidence at tiny c.
        self._evidence_args = (family, cs, fit.j_stat if fit.j_stat > fit.noise_floor else 0.0, k, p)

    def log_evidence(self, i: int) -> float | None:
        """The log evidence at the i-th c; None where there is none (an improper family, or c = 0)."""
        family, cs, j, k, p = self._evidence_args
        return family.log_evidence(cs[i], j, k, p) if family.proper and cs[i] > 0.0 else None

    def scale00(self) -> list[float]:
        """The scale's [0, 0] entry at each c."""
        h00 = self._diag[0]
        return [m * h00 for m in self.multiplier]

    def posterior(self, i: int) -> ClosedFormPosterior:
        """The closed form at the i-th c, carrying its eigenvalues."""
        m = self.multiplier[i]
        return ClosedFormPosterior(
            center=self.center,
            scale=_linalg.SpdFactor(m * self._h_inv, m * self._inv_vals, self._vectors),
            dof=self.dof,
            log_evidence=self.log_evidence(i),
        )

    def marginal_sds(self, diag: list[float] | None = None) -> list[float]:
        """The sds (``_sds``) of the scale entries m(c) h, h in ``diag`` (None: H^{-1}'s diagonal), c by c."""
        diag = self._diag if diag is None else diag
        return _sds([m * h for m in self.multiplier for h in diag], self.dof)

    def largest_sd(self) -> list[float]:
        """The largest marginal sd at each c.

        Each step of ``_sds`` rounds monotonically in the entry, so the largest
        sd is the largest diagonal entry's, except where the overflow repair,
        which only an sd near 2^512 takes, may put a smaller entry's above it:
        there every entry is read.
        """
        top = self.marginal_sds([max(self._diag)])
        if max(top) < 2.0**511:
            return top
        sds, p = self.marginal_sds(), self.p
        return [max(sds[i : i + p]) for i in range(0, len(sds), p)]

    def mass_outside(self, eps: float, center: np.ndarray | None = None) -> list[float]:
        """``mass_outside_ball`` of the ball of radius eps about ``center`` (None: theta_W), at each c."""
        p = self.p
        if p == 1:
            m = float(self.center[0])
            at = m if center is None else float(center[0])
            return _mass_outside_interval(self.dof, m, self.scale00(), at - eps, at + eps)
        if p > 2:
            raise InputError("mass_outside_ball supports closed forms only for p <= 2")
        if center is not None and not np.array_equal(center, self.center):
            raise InputError(
                "mass_outside_ball for p=2 closed forms requires the ball centred at the posterior centre"
            )
        (lam_lo, lam_hi), mults = self._extremes, self.multiplier
        return _angular_mass(self.family, [m * lam_lo for m in mults], [m * lam_hi for m in mults], eps).tolist()

    def tv_to(self, other: "_PosteriorPath") -> list[float]:
        """``tv_distance(posterior(i), other.posterior(0))`` at each c, for a one-c path of one centre."""
        vas, (vb,) = self.scale00(), other.scale00()
        if self.dof is None and other.dof is None:
            return _normal_tvs(self.p, vas, vb)
        return [_radial_tv(self.p, self, va, other, vb) for va in vas]


class _ClosedFormPath(_PosteriorPath):
    """A closed form's one-c path: its validated scale factor at multiplier 1, and its log evidence."""

    def __init__(self, center: np.ndarray, sf: _linalg.SpdFactor, dof: float | None, log_evidence):
        self.multiplier, self.center, self.p, self.dof = [1.0], center, center.shape[0], dof
        self._evidence = log_evidence
        self.family = _posterior_family(dof)
        self._h_inv, self._inv_vals, self._vectors = sf.matrix, sf.eigenvalues, sf.vectors
        self._extremes, self._diag = tuple(sf.eigenvalues[[0, -1]].tolist()), sf.matrix.diagonal().tolist()

    def log_evidence(self, i: int) -> float | None:
        return self._evidence


def _sds(variances: list[float], dof: float | None) -> list[float]:
    """Marginal sds of closed forms of dof ``dof`` (None: normal) from the scale's diagonal entries.

    A normal's sd is the root of its variance; a t's variance is the scale
    entry times dof / (dof - 2), infinite where dof <= 2.  Where that
    product overflows (within a factor dof of the largest float) the sd does
    not, and is the entry's root times sqrt(dof / (dof - 2)).
    """
    if dof is None:
        return [math.sqrt(v) for v in variances]
    if dof <= 2.0:
        return [math.inf] * len(variances)
    dof, sds = float(dof), []  # a numpy dof would warn where the variance overflows
    for v in variances:
        var = v * dof / (dof - 2.0)
        sds.append(math.sqrt(var) if var < math.inf else math.sqrt(v) * math.sqrt(dof / (dof - 2.0)))
    return sds


def normal_posterior(model: ModelInstance, c: float) -> ClosedFormPosterior:
    """Gaussian posterior N(theta_W, c (X'WX)^{-1}) under the normal radial prior."""
    return closed_form_posterior(model, NormalRadial(), c)


def _expit(x: float) -> float:
    """1 / (1 + e^-x), without overflow."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _mixture(phi: float, base: _PosteriorPath, pure: _PosteriorPath) -> tuple[list, list, list]:
    """(log odds, 1 - w, w) at each c of ``base`` for the mixture (1 - phi) base + phi pure, w pure's weight.

    ``pure`` is a one-c path; phi and both components' log evidences are checked first.
    """
    evidences = [base.log_evidence(i) for i in range(len(base.multiplier))]
    pure_evidence = pure.log_evidence(0)
    if not (0.0 < phi < 1.0):
        raise InputError(f"contamination weight phi must be in (0, 1), got {phi}")
    if pure_evidence is None or None in evidences:
        raise InputError("mixture components need the log evidence of a proper prior")
    prior_odds, (pure_var,) = math.log(phi) - math.log1p(-phi), pure.scale00()
    odds, w_base, w_pure = [], [], []
    for evidence, var in zip(evidences, base.scale00()):
        log_odds = prior_odds + pure_evidence - evidence
        if math.isnan(log_odds):
            # Both evidences underflow, which only normal ones do (J / c overflows).
            # The wider, larger-c one has the larger evidence; equal ones agree.
            log_odds = math.copysign(math.inf, pure_var - var)
        odds.append(log_odds)
        w_base.append(_expit(-log_odds))
        w_pure.append(_expit(log_odds))
    return odds, w_base, w_pure


def _mixture_mass(base: _PosteriorPath, w_base, pure: _PosteriorPath, w_pure, eps: float, center=None) -> list:
    """The mass outside the ball of ``_mixture``'s mixtures: the weighted sum of the components' masses."""
    (pure_mass,) = pure.mass_outside(eps, center)
    masses = zip(w_base, base.mass_outside(eps, center), w_pure)
    return [min(wb * mass + wp * pure_mass, 1.0) for wb, mass, wp in masses]


@dataclass(frozen=True)
class MixturePosterior:
    """Posterior under the prior (1 - phi) base + phi contaminant, with a flat theta prior.

    ``base`` and ``contaminant`` are the closed-form posteriors under each
    prior alone, from one model, with their log evidences.  The posterior is
    the mixture (1 - w) base + w contaminant, with w = phi m_c / ((1 - phi) m_b
    + phi m_c) for the marginal likelihoods m.  w is kept as its log odds,
    so that neither w nor 1 - w cancels when the other is close to 1.  For
    the normal family log m falls as -J / (2c): when J > 0 the weight moves
    to the contaminant as the base's c shrinks, and when J = 0 to the base.
    """

    base: ClosedFormPosterior
    contaminant: ClosedFormPosterior
    phi: float

    def __post_init__(self):
        base, cont = self.base, self.contaminant
        (log_odds,), (w_base,), (w_pure,) = _mixture(self.phi, base._path, cont._path)
        if not np.array_equal(base.center, cont.center):
            raise InputError("mixture components must share their centre")
        object.__setattr__(self, "log_odds", log_odds)
        object.__setattr__(self, "_weights", (w_base, w_pure))

    @property
    def p(self) -> int:
        return self.base.p

    def weights(self) -> tuple[float, float]:
        """(1 - w, w): the base's and the contaminant's posterior weights."""
        return self._weights

    def tv_to_contaminant(self) -> float:
        """TV distance to the pure contaminant posterior: (1 - w) TV(base, contaminant)."""
        return self.weights()[0] * tv_distance(self.base, self.contaminant)


# Most trapezoid nodes the p=2 angular integral may take, and the most terms
# (rows times nodes) it evaluates at once.  At a scale condition number of
# 1e10, the most a ClosedFormPosterior admits, some t posteriors need 2^21 nodes.
_MAX_ANGULAR_NODES = 2**22
_ANGULAR_CHUNK = 2**16
# Levels of at most this many nodes keep their cos^2 nodes (``_cos2_nodes``):
# the levels the integral reads, (128, 0) and (n, 1/2) for n = 128, ..., 2^12,
# hold 8192 floats, 64 KB in all.
_CACHED_NODES = 2**12
_COS2_NODES: dict[tuple[int, float], np.ndarray] = {}
# The first levels, (8, 0) and (n, 1/2) for n = 8, 16, 32 and 64, are the nodes 16j,
# 16j + 8, 8j + 4, 4j + 2 and 2j + 1 of the level (128, 0): the same floats (pi / n
# (j + offset) is one product), whose sums in order are the levels' own.  One
# evaluation gives all five, and with them the means of 8 to 128 nodes.
_HEAD_NODES = 128
_HEAD_SLICES = (slice(0, None, 16), slice(8, None, 16), slice(4, None, 8), slice(2, None, 4), slice(1, None, 2))


def _cos2_nodes(n: int, offset: float, start: int, stop: int) -> np.ndarray:
    """cos^2 phi at phi = pi (j + offset) / n, j = start, ..., stop - 1.

    A whole level of at most ``_CACHED_NODES`` nodes is memoised, read-only,
    in ``_COS2_NODES``: it is the same for every posterior.
    """
    if n > _CACHED_NODES:
        return np.cos(np.pi / n * (np.arange(start, stop) + offset)) ** 2
    nodes = _COS2_NODES.get((n, offset))
    if nodes is None:
        nodes = np.cos(np.pi / n * (np.arange(n) + offset)) ** 2
        nodes.setflags(write=False)
        _COS2_NODES[(n, offset)] = nodes
    return nodes[start:stop]


def _angular_mass(family: RadialFamily, lam_lo, lam_hi, eps: float) -> np.ndarray:
    """Pr{||d|| > eps} for centred elliptical 2-d d, one per pair of scale eigenvalues lam_lo <= lam_hi.

    With d = V diag(sqrt(lam)) r (cos phi, sin phi), phi uniform and independent
    of r, ||d||^2 = r^2 q(phi) with q(phi) = lam_lo + (lam_hi - lam_lo) cos^2 phi.
    So the mass is the mean over phi of T(eps^2 / q(phi)), T the tail of r^2:
    ``family.log_tail`` at k = 2, in closed form over a whole array of nodes.
    The integrand is periodic and analytic, so the trapezoid rule converges
    geometrically.  The first five levels, the means of 8 to 128 nodes, are
    one evaluation of every pair (row) (``_HEAD_SLICES``), whose sums each row
    then refines on Python floats; each later level doubles the nodes of every
    row still open, all of them in one (rows x nodes) evaluation
    (``_level_sums``).  Terms are taken relative to the largest, at phi = 0;
    if it underflows, so does the mass.  Each term's exponent, near that
    peak's log, carries |peak| eps of rounding, so a row is done, and leaves
    the array, when two means agree to 4 max(1, |peak|) ulps.  No row's terms
    or sums depend on another's, so each row is bit for bit its own one-row
    call.  ``lam_lo`` and ``lam_hi`` are sequences of floats.
    """
    e2 = eps * eps
    log_tail = family.log_tail
    # e2 / lam_hi as floats, which overflow to inf silently: the mass is then 0.
    peaks = log_tail(np.array([e2 / hi for hi in lam_hi]), 2).tolist()
    masses = [0.0] * len(peaks)
    # The open rows, as (index, lam_lo, lam_hi - lam_lo, peak, 4 max(1, |peak|)).
    rows = [
        (i, lo, hi - lo, peak, 4.0 * max(1.0, abs(peak)))
        for i, (lo, hi, peak) in enumerate(zip(lam_lo, lam_hi, peaks))
        if math.exp(peak) > 0.0
    ]
    if not rows:
        return np.array(masses)
    cols = _columns(rows)
    head = _level_sums(log_tail, e2, cols, len(rows), _HEAD_NODES, 0.0, _HEAD_SLICES)
    # The levels (n, 1/2) whose sums the head holds, n = 8, 16, 32 and 64, short of the cap.
    levels = [n for n in (8, 16, 32, 64) if n < _MAX_ANGULAR_NODES]
    still, means = [], []
    for row, first, *sums in zip(rows, *head):
        mean = first / 8
        for n, s in zip(levels, sums):
            refined = 0.5 * (mean + s / n)
            if abs(refined - mean) <= row[4] * math.ulp(refined):
                masses[row[0]] = min(math.exp(row[3] + math.log(refined)), 1.0)
                break
            mean = refined
        else:
            still.append(row)
            means.append(mean)
    n = _HEAD_NODES
    while still:
        if n >= _MAX_ANGULAR_NODES:
            raise NumericalError(f"p=2 mass outside the ball did not converge in {_MAX_ANGULAR_NODES} angular nodes")
        if len(still) < len(rows):
            rows, cols = still, _columns(still)
        (sums,) = _level_sums(log_tail, e2, cols, len(rows), n, 0.5)
        still, open_means, means = [], means, []
        for row, mean, s in zip(rows, open_means, sums):
            refined = 0.5 * (mean + s / n)
            if abs(refined - mean) <= row[4] * math.ulp(refined):
                masses[row[0]] = min(math.exp(row[3] + math.log(refined)), 1.0)
            else:
                still.append(row)
                means.append(refined)
        n *= 2
    return np.array(masses)


def _columns(rows: list) -> tuple:
    """Open rows' lam_lo, span and peak: floats for one row, where numpy costs least; else columns."""
    if len(rows) == 1:
        return rows[0][1:4]
    return tuple(np.array(v)[:, None] for v in list(zip(*rows))[1:4])


def _terms(log_tail, e2: float, lo, span, peak, cos2) -> np.ndarray:
    return np.exp(log_tail(e2 / (lo + span * cos2), 2) - peak)


def _level_sums(log_tail, e2: float, cols: tuple, r: int, n: int, offset: float, slices=(slice(None),)) -> list:
    """Each of r open rows' sums of terms at phi = pi (j + offset) / n over each slice of j = 0, ..., n - 1.

    At most ``_ANGULAR_CHUNK`` terms at once, in blocks of rows and, for a whole level of more
    than max(``_ANGULAR_CHUNK``, ``_HEAD_NODES``) nodes (one slice of all j), chunks of nodes.
    """
    if n * r <= _ANGULAR_CHUNK:
        level = _terms(log_tail, e2, *cols, _cos2_nodes(n, offset, 0, n))
        if r == 1:
            return [[float(np.add.reduce(level[sl]))] for sl in slices]
        return [np.add.reduce(level[:, sl], axis=1).tolist() for sl in slices]
    width = min(n, max(_ANGULAR_CHUNK, _HEAD_NODES))
    step = max(1, _ANGULAR_CHUNK // width)
    sums = [[0.0] * r for _ in slices]
    for start in range(0, n, width):
        cos2 = _cos2_nodes(n, offset, start, start + width)
        for i in range(0, r, step):
            block = cols if step >= r else [a[i : i + step] for a in cols]
            part = _terms(log_tail, e2, *block, cos2).reshape(-1, width)
            for out, sl in zip(sums, slices):
                for j, s in enumerate(np.add.reduce(part[:, sl], axis=1).tolist(), i):
                    out[j] += s
    return sums


def _mass_outside_interval(dof: float | None, m: float, var: list[float], lo: float, hi: float) -> list[float]:
    """Mass outside [lo, hi] of 1-d closed forms centred at m, one per scale in ``var``.

    Both tails as lower-tail CDFs at the standardized bounds, on Python
    floats: 1 - cdf would cancel in the far tail.  Gaussian (dof None) by
    ``math.erfc``, which needs no ``scipy.special`` and rounds as numpy's
    calls do; Student-t by one ``t_cdf_floats`` call at the 2 n bounds, one
    ``stdtr`` call where they are all negative, as about the centre.
    """
    sds, below, above = [math.sqrt(v) for v in var], lo - m, m - hi
    if dof is None:
        # The standard normal CDF at x is erfc(-x / sqrt(2)) / 2.
        root2 = math.sqrt(2.0)
        masses = [0.5 * math.erfc(-(below / s) / root2) + 0.5 * math.erfc(-(above / s) / root2) for s in sds]
    else:
        cdf = t_cdf_floats(float(dof), [below / s for s in sds] + [above / s for s in sds])
        masses = [a + b for a, b in zip(cdf, cdf[len(sds) :])]
    return [min(max(mass, 0.0), 1.0) for mass in masses]


def mass_outside_ball(post: ClosedFormPosterior | MixturePosterior, center, eps: float) -> float:
    """Posterior probability of {theta : ||theta - center|| > eps}, in the Euclidean norm.

    Read off the one-c ``_PosteriorPath.mass_outside`` of the closed form, or
    of a mixture's components (``_mixture_mass``), as the sweeps read theirs.
    Exact: at p = 1 from the CDF, in both lower tails; at p = 2 by the angular
    integral of ``_angular_mass``, which needs the ball centred at the
    posterior centre (an off-centre ball is an InputError).
    """
    if not eps > 0.0:
        raise InputError(f"ball radius must be positive, got {eps}")
    center = _linalg.as_vector(center, post.p, "center")
    if isinstance(post, MixturePosterior):
        w_base, w_pure = post.weights()
        return _mixture_mass(post.base._path, [w_base], post.contaminant._path, [w_pure], eps, center)[0]
    return post._path.mass_outside(eps, center)[0]


def _stationary_sq(p: int, dof_a: float | None, va, dof_b: float | None, vb) -> float:
    """The rho^2 where the slopes in rho^2 of log p_a and log p_b agree (nan if nowhere).

    A t log density's slope in r = rho^2 is -alpha / (beta + r), with alpha =
    (dof + p) / 2 and beta = dof s^2; a normal's is the constant -1 / (2 s^2).
    So the slopes agree at most once.
    """
    (alpha_a, beta_a), (alpha_b, beta_b) = (
        (None, 2.0 * v) if dof is None else (0.5 * (dof + p), dof * v)
        for dof, v in ((dof_a, va), (dof_b, vb))
    )
    if alpha_a is None:
        return alpha_b * beta_a - beta_b
    if alpha_b is None:
        return alpha_a * beta_b - beta_a
    if alpha_a == alpha_b:
        return math.nan
    return (alpha_b * beta_a - alpha_a * beta_b) / (alpha_a - alpha_b)


def _find_sign_change(h: Callable[[float], float], lo: float, hi: float) -> float:
    """Where h changes sign in [lo, hi], to the nearest float.

    Regula falsi with the Illinois rule: the next point is where the chord
    through the two ends crosses zero, and the value at an end kept twice
    running is halved, so that both ends close in superlinearly, in about ten
    evaluations of h where halving takes one per bit.  A chord point not
    strictly inside the bracket, and the step after three chord steps that
    together did not halve it, take the midpoint instead.  It stops at a
    point where h is 0, or, as halving does, when no float lies between the
    ends.
    """
    f_lo, f_hi = float(h(lo)), float(h(hi))
    positive_lo = f_lo > 0.0
    kept = None  # the end the last step kept
    slow = 0  # chord steps since the bracket last halved
    width = hi - lo
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        x = mid
        if slow < 3 and f_lo != f_hi:
            chord = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
            if lo < chord < hi:
                x = chord
        fx = float(h(x))
        if fx == 0.0:
            return x
        if (fx > 0.0) == positive_lo:
            lo, f_lo = x, fx
            if kept == "hi":
                f_hi *= 0.5
            kept = "hi"
        else:
            hi, f_hi = x, fx
            if kept == "lo":
                f_lo *= 0.5
            kept = "lo"
        if hi - lo <= 0.5 * width:
            slow, width = 0, hi - lo
        else:
            slow += 1
    return hi


def _proportional(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether scale matrix ``a`` is proportional to ``b``, to 1e-12."""
    unit = a / a[0, 0]
    return bool(np.abs(unit - b / b[0, 0]).max() <= 1e-12 * np.abs(unit).max())


def tv_distance(a: ClosedFormPosterior, b: ClosedFormPosterior) -> float:
    """Exact total variation distance between two closed forms of one centre, at any p.

    Their scales must be proportional, as any two closed forms of one model
    are.  Read off a's one-c ``_PosteriorPath.tv_to``, as the sweeps read theirs.
    """
    if b.p != a.p:
        raise InputError(f"tv_distance needs closed forms of one dimension, got p = {a.p} and {b.p}")
    if not np.array_equal(a.center, b.center):
        raise InputError("tv_distance of closed forms requires one centre")
    if a.p > 1 and not _proportional(a.scale, b.scale):
        raise InputError("tv_distance of closed forms requires proportional scales")
    return a._path.tv_to(b._path)[0]


def _radial_tv(p: int, a: _PosteriorPath, va, b: _PosteriorPath, vb) -> float:
    """TV distance between the closed forms of paths a and b of one centre and proportional scales.

    Both densities depend on theta only through rho, the distance from the
    centre in the norm of scale / scale[0, 0], and each is that of a
    standardized radius rho / s, with s^2 = va or vb, the scale[0, 0]; at
    p = 1 rho is |theta - centre|.  As a function of rho^2, log p_a - log p_b
    has at most one stationary point (``_stationary_sq``), so the densities
    cross at most twice, at rho_1 < rho_2, found on each side of it by
    ``_find_sign_change``; then TV = |sum_i (-1)^i (S_a(rho_i) - S_b(rho_i))|,
    S the radial upper tails, read off the families' ``log_tail`` in
    dimension p.  Not both are normal (``_normal_tvs``).
    """
    (fam_a, dof_a), (fam_b, dof_b) = (a.family, a.dof), (b.family, b.dof)
    sa, sb = math.sqrt(va), math.sqrt(vb)

    def log_density(fam: RadialFamily, s: float) -> Callable[[float], float]:
        const = -fam.log_ball_integral(p) - p * math.log(s)
        return lambda rho: const + float(fam.log_f((rho / s) * (rho / s), p))

    log_a, log_b = log_density(fam_a, sa), log_density(fam_b, sb)
    h = lambda rho: log_a(rho) - log_b(rho)
    # The heavier tail (smaller dof, a normal's being infinite; then larger
    # scale) wins as rho grows: the sign of h there.
    key_a = (-(dof_a or math.inf), sa)
    key_b = (-(dof_b or math.inf), sb)
    if key_a == key_b:
        return 0.0
    positive_tail = key_a > key_b
    r = _stationary_sq(p, dof_a, va, dof_b, vb)
    knots = [0.0, math.sqrt(r)] if r > 0.0 else [0.0]
    crossings = []
    # Far out, rho^2 / (s^2 dof) may overflow; log f is then -inf, its limit.
    with np.errstate(over="ignore"):
        for lo, hi in zip(knots, knots[1:] + [math.inf]):
            positive_lo = h(lo) > 0.0
            if hi == math.inf:
                if positive_lo == positive_tail:
                    continue
                hi = 2.0 * max(lo, sa, sb)
                while hi < math.inf and (h(hi) > 0.0) != positive_tail:
                    hi *= 2.0
            elif (h(hi) > 0.0) == positive_lo:
                continue
            crossings.append(_find_sign_change(h, lo, hi))
    pairs = zip(_tails(fam_a, p, [rho / sa for rho in crossings]), _tails(fam_b, p, [rho / sb for rho in crossings]))
    total = sum((-1) ** i * (ta - tb) for i, (ta, tb) in enumerate(pairs))
    return min(abs(total), 1.0)


def _tails(family: RadialFamily, p: int, radii: list[float]) -> list[float]:
    """Pr{|u| > r} for the standardized radius |u| under a family, at each r, in one ``log_tail`` call."""
    return [math.exp(v) for v in family.log_tail(np.array([r * r for r in radii]), p).tolist()]


def _normal_tails(p: int, radii: list[float]) -> list[float]:
    """``_tails`` of the normal family, bit for bit, on Python floats where its log tails are closed forms.

    At p = 2 the log tail is -r^2 / 2; at p = 1 it is the log of erfc(r / sqrt 2)
    where that is a normal float, taken and exponentiated as ``_tails`` does.
    Elsewhere this is ``_tails``.
    """
    squares = [r * r for r in radii]
    if p == 2:
        return [math.exp(s * -0.5) for s in squares]
    if p == 1 and all(0.0 < s < math.inf for s in squares):
        tails = [math.erfc(math.sqrt(0.5 * s)) for s in squares]
        if all(t >= sys.float_info.min for t in tails):
            return [math.exp(math.log(t)) for t in tails]
    return _tails(NormalRadial(), p, radii)


def _normal_tvs(p: int, vas: list[float], vb: float) -> list[float]:
    """TV distances between normals of one centre and proportional scales, scale[0, 0] each va and vb.

    Two normals cross once, at rho^2 / s_narrow^2 = 2 p d / (1 - e^-2d), d =
    log(s_wide / s_narrow); the tails at every crossing are one ``_normal_tails`` call.
    """
    log_sb = math.log(math.sqrt(vb))
    ds = [abs(math.log(math.sqrt(va)) - log_sb) for va in vas]
    narrow = [(d, math.sqrt(2.0 * p * d / -math.expm1(-2.0 * d))) for d in ds if d != 0.0]
    tails = iter(_normal_tails(p, [x for d, r in narrow for x in (r * math.exp(-d), r)]))
    return [next(tails) - next(tails) if d != 0.0 else 0.0 for d in ds]

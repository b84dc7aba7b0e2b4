"""Independent numerical oracles used across the test suite.

Everything here deliberately avoids the code paths under test: CDFs come from
adaptive quadrature of density formulas, quantiles from root-bracketing on
those quadrature CDFs, and normalizers from radial integrals.  Expected
values frozen in the tests were produced by these routines.  The
exceptions are kept so that the package's faster routes can be checked bit
for bit against its earlier ones: ``t_cdf_reference``, the t CDF in its
general form, and the sweeps' array formulas (``largest_sd_array``,
``mass_outside_interval_array``, ``angular_mass_array``), which the sweeps
now evaluate on Python floats.

The reference estimands are definitions the package computes another way or
not at all: the split of the whitened residual, the pivotal t statistic, the
population moments of the IV simulation and the radial prior's density.  The
TV distance's crossings are checked against plain halving.

The grid posterior evaluates a posterior pointwise on a rectangular grid and
normalises it by the trapezoid rule.  It takes the model's fit from the
package and the prior's log density from ``log_radial`` here, and checks
what the closed forms add to them: the posterior's shape, normaliser, masses
and TV distances.

The scalar Monte Carlo reference at the end of the file evaluates the
counter-based streams and the replication loops one replication and one
coefficient at a time.  The batched eta draws and t statistics must match it
bit for bit; the coverage reference forms Y = X theta + eta and fits it, the
definition of a hit, and the kernel's count must equal its count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.optimize
import scipy.stats

from misspec.errors import ImproperPriorError, InputError
from misspec.model import implied_eta, pseudo_true, sigma_v


def t_density_unnorm(x: float, dof: float) -> float:
    return (1.0 + x * x / dof) ** (-0.5 * (dof + 1.0))


def t_cdf_quad(x: float, dof: float) -> float:
    """Student-t CDF by adaptive quadrature of the density (no special functions)."""
    norm, _ = scipy.integrate.quad(t_density_unnorm, 0.0, np.inf, args=(dof,), limit=200)
    if x == 0.0:
        return 0.5
    lo, hi = (0.0, x) if x > 0.0 else (x, 0.0)
    mass, _ = scipy.integrate.quad(t_density_unnorm, lo, hi, args=(dof,), limit=200)
    return 0.5 + math.copysign(mass / (2.0 * norm), x)


def t_cdf_reference(dist, x):
    """The package's t CDF in its general form, which the faster ``t_cdf`` must match bit for bit.

    Every x takes the same steps: far entries (|x| >= 2^512) are masked out of
    one ``stdtr`` call at -|x| and read off ``log_far_t_sq_tail``, and the
    whole array is reflected as 1 - tail where x >= 0.  At dof 1 the tail is
    the Cauchy closed form atan2(1, |x|) / pi.
    """
    import scipy.special

    from misspec.special import log_far_t_sq_tail

    nu = dist.dof
    arr = np.asarray(x, dtype=np.float64)
    scalar = np.isscalar(x) or arr.ndim == 0
    arr = np.atleast_1d(arr)
    if nu == 1.0:
        tail = np.arctan2(1.0, np.abs(arr)) / math.pi
    else:
        far = np.abs(arr) >= 2.0**512
        tail = scipy.special.stdtr(nu, -np.abs(np.where(far, 0.0, arr)))
        if far.any():
            tail[far] = 0.5 * np.exp(log_far_t_sq_tail(0.5 * nu, 2.0 * np.log(np.abs(arr[far])) - math.log(nu)))
    out = np.where(arr >= 0.0, 1.0 - tail, tail)
    return float(out[0]) if scalar else out


def largest_sd_array(multiplier: np.ndarray, diag: np.ndarray, dof) -> np.ndarray:
    """The largest marginal sd at each multiplier m of a posterior scale m H^-1 of diagonal ``diag``.

    The sds over the whole (multipliers x p) outer product, reduced by max:
    sqrt(m h) for a normal (dof None), inf for t with dof <= 2, else
    sqrt(m h dof / (dof - 2)), or sqrt(m h) sqrt(dof / (dof - 2)) where that
    variance overflows.
    """
    var = np.multiply.outer(multiplier, diag)
    if dof is None:
        sd = np.sqrt(var)
    elif dof <= 2.0:
        sd = np.full(var.shape, np.inf)
    else:
        with np.errstate(over="ignore"):
            sd = np.sqrt(var * dof / (dof - 2.0))
        far = np.isinf(sd)
        sd[far] = np.sqrt(var[far]) * math.sqrt(dof / (dof - 2.0))
    return sd.max(axis=1)


def mass_outside_interval_array(dof, m: float, var: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Mass outside [lo, hi] of 1-d closed forms centred at m, one per scale in ``var``, over arrays.

    Both tails as lower-tail CDFs at the standardized bounds: erfc for a
    normal (dof None), ``t_cdf_reference`` at all 2 n bounds for t.
    """
    from misspec.special import StudentT

    s = np.sqrt(var)
    with np.errstate(over="ignore"):  # a bound past the largest float is -inf, where the CDF is 0
        x = np.concatenate(((lo - m) / s, (m - hi) / s))
    if dof is None:
        cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()])
    else:
        cdf = t_cdf_reference(StudentT(float(dof)), x)
    n = s.shape[0]
    return np.minimum(np.maximum(cdf[:n] + cdf[n:], 0.0), 1.0)


def angular_mass_array(family, lam_lo: np.ndarray, lam_hi: np.ndarray, eps: float) -> np.ndarray:
    """``posteriors._angular_mass`` with every level's open rows kept as arrays and per-row dicts.

    The same trapezoid levels, level sums (``posteriors._level_sums``) and
    stop rule, driven level by level over every open row: the first five
    levels from the sums of one 128-node evaluation, each later one from a
    (rows x nodes) evaluation, a row leaving once two means agree to
    4 max(1, |peak|) ulps.
    """
    from misspec import posteriors
    from misspec.errors import NumericalError

    e2 = eps * eps
    log_tail = family.log_tail
    peaks = log_tail(np.array([e2 / hi for hi in lam_hi.tolist()]), 2).tolist()
    masses = [0.0] * len(peaks)
    rows = [
        (i, lo, hi - lo, peak, 4.0 * max(1.0, abs(peak)))
        for i, (lo, hi, peak) in enumerate(zip(lam_lo.tolist(), lam_hi.tolist(), peaks))
        if math.exp(peak) > 0.0
    ]
    if not rows:
        return np.array(masses)

    def columns(rows):
        return rows[0][1:4] if len(rows) == 1 else tuple(np.array(v)[:, None] for v in list(zip(*rows))[1:4])

    cols = columns(rows)
    first, *halves = posteriors._level_sums(
        log_tail, e2, cols, len(rows), posteriors._HEAD_NODES, 0.0, posteriors._HEAD_SLICES
    )
    rows = [(*row, dict(zip((8, 16, 32, 64), sums))) for row, *sums in zip(rows, *halves)]
    n = 8
    means = [s / n for s in first]
    while n < posteriors._MAX_ANGULAR_NODES:
        if n < posteriors._HEAD_NODES:
            sums = [row[5][n] for row in rows]
        else:
            (sums,) = posteriors._level_sums(log_tail, e2, cols, len(rows), n, 0.5)
        still, still_means = [], []
        for row, mean, s in zip(rows, means, sums):
            refined = 0.5 * (mean + s / n)
            if abs(refined - mean) <= row[4] * math.ulp(refined):
                masses[row[0]] = min(math.exp(row[3] + math.log(refined)), 1.0)
            else:
                still.append(row)
                still_means.append(refined)
        n *= 2
        if not still:
            return np.array(masses)
        if len(still) < len(rows):
            rows, cols = still, columns(still)
        means = still_means
    raise NumericalError("p=2 mass outside the ball did not converge")


def t_quantile_quad(q: float, dof: float) -> float:
    """Invert the quadrature CDF by bracketing and Brent's method."""
    if q == 0.5:
        return 0.0
    hi = 1.0
    while t_cdf_quad(hi, dof) < max(q, 1.0 - q):
        hi *= 2.0
    x = scipy.optimize.brentq(
        lambda t: t_cdf_quad(t, dof) - max(q, 1.0 - q), 0.0, hi, xtol=1e-12
    )
    return x if q > 0.5 else -x


def normal_quantile_bisect(q: float) -> float:
    """Standard normal quantile from the error function by bisection."""
    cdf = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sphere_surface_area(k: int) -> float:
    return 2.0 * math.pi ** (0.5 * k) / math.gamma(0.5 * k)


def radial_normalizer_quad(f, k: int) -> float:
    """Integral of f(|u|^2) over k-space via the radial representation."""
    val, _ = scipy.integrate.quad(
        lambda r: r ** (k - 1) * f(r * r), 0.0, np.inf, limit=400
    )
    return sphere_surface_area(k) * val


def radial_cdf_grid(f, k: int, c: float, r_grid: np.ndarray) -> np.ndarray:
    """CDF of ||eta||_W on a grid, from cumulative trapezoid of r^{k-1} f(r^2/c)."""
    dens = r_grid ** (k - 1) * np.array([f(r * r / c) for r in r_grid])
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(r_grid))])
    return cdf / cdf[-1]


def mass_outside_disc_quad(scale, dof, eps: float) -> float:
    """Pr{||d|| > eps} for a centred 2-d Gaussian (dof None) or t with ``scale``, by quadrature.

    Polar coordinates of d itself: for each angle, the density along the ray
    integrated from eps outward, then the angle integrated over [0, 2 pi).
    """
    inv = np.linalg.inv(scale)
    norm = 2.0 * math.pi * math.sqrt(np.linalg.det(scale))
    if dof is None:
        dens = lambda q: math.exp(-0.5 * q) / norm
    else:
        dens = lambda q: (1.0 + q / dof) ** (-0.5 * (dof + 2.0)) / norm

    def ray(a: float) -> float:
        u = np.array([math.cos(a), math.sin(a)])
        qa = float(u @ inv @ u)
        val, _ = scipy.integrate.quad(lambda r: dens(qa * r * r) * r, eps, np.inf, limit=200)
        return val

    val, _ = scipy.integrate.quad(ray, 0.0, 2.0 * math.pi, limit=200, epsabs=0.0, epsrel=1e-12)
    return val


def ball_mass_trapezoid_mp(lam_lo, lam_hi, eps, dof, nodes: int, dps: int = 40) -> float:
    """Pr{||d|| > eps} for a centred 2-d normal (dof None) or t of scale eigenvalues lam_lo, lam_hi.

    The mean over phi of T(eps^2 / q(phi)), q(phi) = lam_lo + (lam_hi - lam_lo)
    cos^2 phi, T the tail of the squared radius in 2 dimensions (e^(-s/2) or
    (1 + s/dof)^(-dof/2)), by the trapezoid rule on ``nodes`` nodes in
    mpmath at ``dps`` digits: every term is positive, so the mass keeps its
    relative accuracy in the far tail.  The integrand is periodic and
    analytic, so the rule converges geometrically; compare two node counts.
    A caution: at a peak log tail near -305, ``mpmath.quad`` on [0, pi/2]
    (split evenly at 2^-j) was 6e-10 relative off, while this rule had
    settled by 128 nodes; ``mass_outside_disc_quad`` (SciPy's ``quad``) has
    only absolute accuracy.
    """
    import mpmath

    with mpmath.workdps(dps):
        lo, hi, e2 = mpmath.mpf(lam_lo), mpmath.mpf(lam_hi), mpmath.mpf(eps) ** 2
        if dof is None:
            tail = lambda s: mpmath.exp(-s / 2)
        else:
            tail = lambda s: (1 + s / dof) ** (-mpmath.mpf(dof) / 2)
        total = mpmath.fsum(
            tail(e2 / (lo + (hi - lo) * mpmath.cos(mpmath.pi * j / nodes) ** 2)) for j in range(nodes)
        )
        return float(total / nodes)


def radial_pdf(dof, scale: float, p: int):
    """Density at distance r from the centre of a p-variate normal (dof None) or t, scale^2 I."""
    loc, shape = np.zeros(p), scale * scale * np.eye(p)
    if dof is None:
        dist = scipy.stats.multivariate_normal(loc, shape)
    else:
        dist = scipy.stats.multivariate_t(loc, shape, df=dof)
    return lambda r: dist.pdf(np.multiply.outer(r, np.eye(p)[0]))


def tv_distance_quad(pdf_a, pdf_b, scale: float, p: int = 1) -> tuple[float, int]:
    """(TV distance, sign changes on r > 0) of two spherical densities in p dimensions.

    ``pdf_a`` and ``pdf_b`` give the densities at distance r from the common
    centre.  Sign changes of p_a - p_b on r > 0 are bracketed on a geometric
    grid from 1e-4 to 1e4 times ``scale`` and refined by Brent's method; 1/2
    |p_a - p_b| times the sphere's area at r is integrated by adaptive
    quadrature between them, where it is smooth.
    """
    diff = lambda x: pdf_a(x) - pdf_b(x)
    grid = scale * np.geomspace(1e-4, 1e4, 4001)
    signs = np.sign(diff(grid))
    cuts = [
        scipy.optimize.brentq(diff, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)
        for lo, hi, s_lo, s_hi in zip(grid, grid[1:], signs, signs[1:])
        if s_lo * s_hi < 0
    ]
    knots = [0.0, *cuts, np.inf]
    area = 0.5 * sphere_surface_area(p)
    total = sum(
        scipy.integrate.quad(
            lambda x: area * x ** (p - 1) * abs(diff(x)),
            lo, hi, epsabs=0.0, epsrel=1e-13, limit=400,
        )[0]
        for lo, hi in zip(knots, knots[1:])
    )
    return total, len(cuts)


def bisect_sign_change(h, lo: float, hi: float) -> float:
    """Where h changes sign in [lo, hi], to the nearest float: halve until no float is between."""
    positive_lo = h(lo) > 0.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if (h(mid) > 0.0) == positive_lo:
            lo = mid
        else:
            hi = mid
    return hi


def random_spd(rng: np.random.Generator, k: int, spread: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((k, k))
    q, _ = np.linalg.qr(a)
    vals = np.exp(spread * rng.uniform(-1.0, 1.0, size=k))
    return (q * vals) @ q.T


def random_model_arrays(rng: np.random.Generator, k: int, p: int):
    """A generic well-conditioned (Y, X, W) triple."""
    while True:
        x = rng.standard_normal((k, p))
        sv = np.linalg.svd(x, compute_uv=False)
        if sv[-1] > 1e-3 * sv[0]:
            break
    y = rng.standard_normal(k) * 2.0
    w = random_spd(rng, k)
    return y, x, w


def collinear_model(d: float):
    """(Y, X, W) with X = [1, 1 + d t] for t = (0, 1, -1, 2): kappa(X) is about 1.8 / d."""
    x = np.array([[1.0, 1.0], [1.0, 1.0 + d], [1.0, 1.0 - d], [1.0, 1.0 + 2.0 * d]])
    return np.array([1.0, 2.0, 3.0, 4.0]), x, np.eye(4)


def least_squares_mp(y, x, w, dps: int = 50):
    """(theta_W, J) of the weighted least-squares problem, solved in ``dps``-digit mpmath.

    The float inputs are taken as exact; the normal equations in ``dps`` digits
    leave far more than float64's digits at any condition number the package
    accepts (kappa(X'WX) up to 1e20).
    """
    import mpmath

    with mpmath.workdps(dps):
        ym, xm, wm = (mpmath.matrix(np.atleast_2d(a).tolist()) for a in (y, x, w))
        ym = ym.T if ym.rows == 1 else ym
        xtw = xm.T * wm
        theta = mpmath.lu_solve(xtw * xm, xtw * ym)
        r = ym - xm * theta
        j = (r.T * wm * r)[0]
        return np.array([float(t) for t in theta]), float(j)


# --- Reference estimands ----------------------------------------------------


@dataclass(frozen=True)
class EtaDecomposition:
    """eta_tilde = eta_hat + eta_perp: in the whitened Jacobian's span, and orthogonal to it."""

    eta_tilde: np.ndarray
    eta_hat: np.ndarray
    eta_perp: np.ndarray
    j_stat: float


def decompose_eta(model, theta) -> EtaDecomposition:
    """Split the whitened residual at ``theta``; eta_perp, of squared length J, is free of theta.

    Computed apart from the package's fit, so that the two can check each other.
    """
    w_root = model.design.w_factor.root
    eta_tilde = w_root @ implied_eta(model, theta)
    x_tilde = w_root @ model.X
    coef = np.linalg.solve(x_tilde.T @ x_tilde, x_tilde.T @ eta_tilde)
    eta_hat = x_tilde @ coef
    eta_perp = eta_tilde - eta_hat
    return EtaDecomposition(
        eta_tilde=eta_tilde, eta_hat=eta_hat, eta_perp=eta_perp, j_stat=float(eta_perp @ eta_perp)
    )


def pivotal_t_stat(model, theta_true, cfg) -> float:
    """Studentized deviation of v'theta_W from v'theta: the interval covers v'theta iff |T| <= t*."""
    theta_true = np.asarray(theta_true, dtype=np.float64).reshape(model.p)
    pt, sv = pseudo_true(model), sigma_v(model, cfg.v)
    if pt.j_stat <= pt.noise_floor:
        raise InputError("pivotal t statistic is undefined when J = 0")
    kp = model.k - model.p
    num = float(cfg.v @ pt.theta_w) - float(cfg.v @ theta_true)
    return num / math.sqrt(pt.j_stat / kp * sv * sv)


def iv_dgp_population_moments(z_cov, dgp):
    """Exact population analogs (Y, X, W) of the ``scenarios.iv_sample`` moments.

    With T = c'Z + U the treatment index, joint normality gives
    E[Z X] = Sigma_z c phi(h)/sigma_T and E[Z X U] = Sigma_z c h phi(h)/sigma_T^2
    for h = -c0/sigma_T, from which E[Z Y] follows.  Both vectors are
    proportional to Sigma_z c, so the single-index structure places the
    implied misspecification inside the span of the Jacobian: it biases the
    pseudo-true value but contributes nothing to the population J-statistic.
    """
    z_cov = np.asarray(z_cov, dtype=np.float64)
    k = z_cov.shape[0]
    cvec = np.broadcast_to(np.asarray(dgp.c, dtype=np.float64), (k,))
    zc_c = z_cov @ cvec
    sigma_t = math.sqrt(float(cvec @ zc_c) + 1.0)
    h = -dgp.c0 / sigma_t
    phi_h = math.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi)
    x_pop = zc_c * (phi_h / sigma_t)
    zxu = zc_c * (h * phi_h / sigma_t**2)
    y_pop = dgp.theta_bar * x_pop + dgp.delta * zxu
    return y_pop, x_pop.reshape(k, 1), np.linalg.inv(z_cov)


def log_radial(prior):
    """A ``ScaledPrior``'s log density as a function of q = eta' W eta, a scalar or an array.

    pi(eta) = f(eta' W eta / c) / Z: for a proper family Z is c^{k/2} |W|^{-1/2}
    times the whitened ball integral of f; the improper power law's is left out.
    """
    log_z = 0.0
    if prior.proper:
        log_z = (0.5 * prior.k * math.log(prior.c) - 0.5 * float(np.linalg.slogdet(prior.W)[1])
                 + prior.family.log_ball_integral(prior.k))

    def at(q):
        # q / c overflows only to +inf, where every log f is -inf, its limit.
        with np.errstate(over="ignore"):
            u = q / prior.c
        return prior.family.log_f(u, prior.k) - log_z

    return at


def density(prior, eta, *, allow_unnormalized: bool = False) -> float:
    """Prior density at one eta; an improper prior's unnormalized one must be asked for."""
    if not (prior.proper or allow_unnormalized):
        raise ImproperPriorError(f"{prior.family.spec_string()} prior is improper")
    eta = np.asarray(eta, dtype=np.float64).reshape(prior.k)
    return math.exp(log_radial(prior)(eta @ prior.W @ eta))


# --- Grid posterior reference --------------------------------------------------
#
# Under a flat theta prior the log posterior of theta is the prior's log
# density of eta = Y - X theta, which a radial prior sees only through
# Q(theta) = J + (theta - theta_W)' H (theta - theta_W), taken from the model's
# fit.  It is normalised after subtracting its maximum: at a tiny prior scale
# the density itself underflows away from theta_W.


def _trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    w = np.zeros_like(axis)
    d = np.diff(axis)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


@dataclass(frozen=True)
class GridPosterior:
    """A posterior on a rectangular grid over 1 or 2 parameters.

    ``density`` integrates to one by the trapezoid rule, whose per-point
    weights are ``cell``; ``weights`` are the points' masses, summing to one.
    """

    axes: tuple
    density: np.ndarray
    cell: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        return self.cell * self.density

    def points(self) -> np.ndarray:
        """All grid points as an (m, p) array in row-major axis order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def _marginals(self) -> list:
        dims = range(len(self.axes))
        return [self.weights.sum(axis=tuple(j for j in dims if j != i)) for i in dims]

    def mean(self) -> np.ndarray:
        return np.array([m @ a for m, a in zip(self._marginals(), self.axes)])

    def sd(self) -> np.ndarray:
        # Centred: E[theta^2] - mean^2 would cancel when sd << |mean|.
        return np.sqrt([m @ (a - m @ a) ** 2 for m, a in zip(self._marginals(), self.axes)])

    def mass_outside(self, center, eps: float) -> float:
        """Mass of the grid points farther than eps from ``center``."""
        dist2 = sum(d * d for d in np.ix_(*(a - c for a, c in zip(self.axes, center))))
        return min(max(float(np.sum(self.weights[dist2 > eps * eps])), 0.0), 1.0)

    def tv(self, other: "GridPosterior") -> float:
        """TV distance to a posterior on the same grid."""
        assert all(np.array_equal(a, b) for a, b in zip(self.axes, other.axes))
        return float(0.5 * np.sum(self.cell * np.abs(self.density - other.density)))


def grid_posterior(model, log_prior, *, axes=None, bounds=None, points=None) -> GridPosterior:
    """The posterior of theta under a flat theta prior, on a grid.

    ``log_prior`` maps q = eta' W eta to the prior's log density: a
    ``log_radial(prior)``, or ``mixture_log_radial`` for a contaminated
    prior.  The grid is ``axes``, one increasing array per parameter, or
    ``points`` equally spaced points within each (lo, hi) of ``bounds``.
    """
    if axes is None:
        axes = [np.linspace(lo, hi, points) for lo, hi in bounds]
    axes = tuple(np.asarray(a, dtype=np.float64) for a in axes)
    pt = pseudo_true(model)
    d = np.ix_(*(a - t for a, t in zip(axes, pt.theta_w)))
    p = len(d)
    h = model.X.T @ model.W @ model.X
    q = pt.j_stat + sum(h[i, j] * d[i] * d[j] for i in range(p) for j in range(p))
    logu = log_prior(q)
    cell = _trapezoid_weights(axes[0])
    if p == 2:
        cell = np.outer(cell, _trapezoid_weights(axes[1]))
    dens = np.exp(logu - np.max(logu))
    return GridPosterior(axes=axes, density=dens / np.sum(cell * dens), cell=cell)


def mixture_log_radial(base, contaminant, phi: float):
    """Log density in q of the prior (1 - phi) base + phi contaminant (two ``ScaledPrior``)."""
    log_base, log_contaminant = log_radial(base), log_radial(contaminant)
    return lambda q: np.logaddexp(
        math.log1p(-phi) + log_base(q), math.log(phi) + log_contaminant(q)
    )


# --- Scalar Monte Carlo reference -------------------------------------------
#
# One splitmix64 stream per replication, hashed from (seed, rep), evaluated
# with numpy uint64 scalars (whose wraparound warns, hence the errstate in the
# public entry points) and libm through ``math``.  Draw order per
# replication: theta components (coverage only), then eta; the t family draws
# its chi-square mixing variable before the normal vector.

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_U53 = 0.5**53

ETA_NORMAL, ETA_STUDENT_T, ETA_SHIFTED_EXPONENTIAL = 0, 1, 2


def mix64(z):
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def stream_state(seed, rep):
    """Initial stream state for replication ``rep`` under ``seed``."""
    h = mix64(np.uint64(seed) + _GOLDEN)
    return mix64(h ^ (np.uint64(rep) * _MIX2 + _GOLDEN))


def next_u01(state):
    """Uniform draw in (0, 1] (top 53 bits), plus advanced state."""
    state = state + _GOLDEN
    u = (float(mix64(state) >> _S11) + 1.0) * _U53
    return u, state


def next_normal(state):
    """Standard normal draw via Box-Muller (two uniforms per draw)."""
    u1, state = next_u01(state)
    u2, state = next_u01(state)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2), state


def next_exponential(state):
    """Unit-rate exponential draw."""
    u, state = next_u01(state)
    return -math.log(u), state


def next_gamma(state, shape):
    """Gamma(shape, 1) draw by Marsaglia-Tsang squeeze, boosted for shape < 1."""
    boost = 1.0
    a = shape
    if a < 1.0:
        u, state = next_u01(state)
        boost = u ** (1.0 / a)
        a = a + 1.0
    d = a - 1.0 / 3.0
    cc = 1.0 / math.sqrt(9.0 * d)
    while True:
        x, state = next_normal(state)
        t = 1.0 + cc * x
        if t <= 0.0:
            continue
        v = t * t * t
        u, state = next_u01(state)
        x2 = x * x
        if u < 1.0 - 0.0331 * x2 * x2:
            return boost * d * v, state
        if math.log(u) < 0.5 * x2 + d * (1.0 - v + math.log(v)):
            return boost * d * v, state


def next_chisquare(state, dof):
    g, state = next_gamma(state, 0.5 * dof)
    return 2.0 * g, state


def scalar_draws(draw, seed, rep_start, rep_stop, count=1, **kwargs):
    """``count`` successive draws per replication, shape (count, reps)."""
    out = np.empty((count, rep_stop - rep_start))
    with np.errstate(over="ignore"):
        for rep in range(rep_start, rep_stop):
            state = stream_state(seed, rep)
            for i in range(count):
                out[i, rep - rep_start], state = draw(state, **kwargs)
    return out


def _draw_eta(state, eta_code, nu_tilde, eta_mix, work, scaled=True):
    """Draw eta into ``work[k:2k]`` (using ``work[:k]`` as scratch).

    Without ``scaled`` the t family's chi-square is drawn but eta is left at
    eta_mix z, before its radial scale sqrt(nu / w).
    """
    k = eta_mix.shape[0]
    if eta_code == ETA_SHIFTED_EXPONENTIAL:
        for i in range(k):
            e, state = next_exponential(state)
            work[i + k] = e - 1.0
        return state
    scale = 1.0
    if eta_code == ETA_STUDENT_T:
        w, state = next_chisquare(state, nu_tilde)
        scale = np.sqrt(nu_tilde / w) if scaled else 1.0
    for i in range(k):
        z, state = next_normal(state)
        work[i] = z
    for i in range(k):
        acc = 0.0
        for j in range(k):
            acc += eta_mix[i, j] * work[j]
        work[i + k] = acc * scale
    return state


def _draw_theta(state, theta_prior):
    """theta from a Gaussian prior."""
    theta = np.empty(theta_prior.mean.shape[0])
    for j in range(theta.shape[0]):
        z, state = next_normal(state)
        theta[j] = theta_prior.mean[j] + theta_prior.sd[j] * z
    return theta, state


def _coverage_hits(seed, rep_start, rep_stop, x, w, theta_prior, eta_prior, cfg):
    k, p = x.shape
    h = x.T @ w @ x
    v = np.asarray(cfg.v, dtype=np.float64)
    sigma_v = math.sqrt(v @ np.linalg.solve(h, v))
    tstar = t_quantile_quad(0.5 * (1.0 + cfg.level), k - p)
    vals, vecs = np.linalg.eigh(w)
    eta_mix = math.sqrt(eta_prior.c) * (vecs / np.sqrt(vals)) @ vecs.T
    nu = getattr(eta_prior.family, "dof", None)
    eta_code, nu = (ETA_NORMAL, 0.0) if nu is None else (ETA_STUDENT_T, float(nu))
    work = np.empty(2 * k)
    hits = 0
    for rep in range(rep_start, rep_stop):
        theta, state = _draw_theta(stream_state(seed, rep), theta_prior)
        _draw_eta(state, eta_code, nu, eta_mix, work)
        y = x @ theta + work[k:]
        theta_w = np.linalg.solve(h, x.T @ (w @ y))
        resid = y - x @ theta_w
        jstat = max(float(resid @ w @ resid), 0.0)
        if abs(v @ theta_w - v @ theta) <= tstar * math.sqrt(jstat / (k - p)) * sigma_v:
            hits += 1
    return hits


def _pivot_tstats(seed, rep_start, rep_stop, eta_mix, eta_code, nu_tilde, a_v, b_mat, sigma_v, km_p):
    k = b_mat.shape[0]
    out = np.empty(rep_stop - rep_start)
    work = np.empty(2 * k)
    for rep in range(rep_start, rep_stop):
        state = stream_state(seed, rep)
        # T is scale-free, so it is formed from eta before its radial scale.
        state = _draw_eta(state, eta_code, nu_tilde, eta_mix, work, scaled=False)
        num = 0.0
        for i in range(k):
            num += a_v[i] * work[i + k]
        jstat = 0.0
        for i in range(k):
            acc = 0.0
            for j in range(k):
                acc += b_mat[i, j] * work[j + k]
            jstat += work[i + k] * acc
        jstat = max(jstat, 0.0)
        out[rep - rep_start] = num / np.sqrt(jstat / km_p * sigma_v * sigma_v)
    return out


def scalar_etas(seed, n, eta_code, nu_tilde, eta_mix):
    """Reference for ``priors.sample_eta``: the eta of replications 0..n-1, shape (n, k)."""
    k = eta_mix.shape[0]
    out = np.empty((n, k))
    work = np.empty(2 * k)
    with np.errstate(over="ignore"):
        for rep in range(n):
            _draw_eta(stream_state(seed, rep), eta_code, nu_tilde, eta_mix, work)
            out[rep] = work[k:]
    return out


def scalar_coverage_hits(seed, rep_start, rep_stop, x, w, theta_prior, eta_prior, cfg):
    """Reference for ``_kernels.coverage_hits``, and the definition of a hit.

    Replication ``rep`` of a coverage run with seed ``seed`` on the fixture
    (X, W): draw theta from ``theta_prior`` and eta from ``eta_prior`` at its
    own scale c, form Y = X theta + eta, fit theta_W and J to Y, and count a
    hit when |v'theta_W - v'theta| <= t* sqrt(J / (k - p)) sigma_v.  Nothing
    is taken from the package: the fit and sigma_v come from numpy solves,
    W^{-1/2} from an eigendecomposition, and t* from ``t_quantile_quad``.
    """
    with np.errstate(over="ignore"):
        return _coverage_hits(seed, rep_start, rep_stop, np.asarray(x, dtype=np.float64),
                              np.asarray(w, dtype=np.float64), theta_prior, eta_prior, cfg)


def scalar_pivot_tstats(*args):
    """Reference for ``_kernels.pivot_tstats`` (same positional arguments)."""
    with np.errstate(over="ignore"):
        return _pivot_tstats(*args)


# --- Kolmogorov-Smirnov reference --------------------------------------------


def ks_statistic_full(samples, dof):
    """KS distance from the t CDF evaluated at every sorted sample.

    Uses the package's ``t_cdf``, which is elementwise, so that the bracketed
    ``montecarlo.ks_statistic`` must equal this bit for bit.
    """
    from misspec.special import StudentT, t_cdf

    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = s.size
    f = t_cdf(StudentT(dof), s)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))

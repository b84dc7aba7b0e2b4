"""Independent numerical oracles used across the test suite.

Everything here deliberately avoids the code paths under test: CDFs come from
adaptive quadrature of density formulas, quantiles from root-bracketing on
those quadrature CDFs, and normalizers from radial integrals.  Expected
values frozen in the tests were produced by these routines.

The scalar Monte Carlo reference at the end of the file evaluates the
counter-based streams and the replication loops one replication and one
coefficient at a time.  The batched eta draws and t statistics must match it
bit for bit; the coverage reference forms Y = X theta + eta and fits it, the
definition of a hit, and the kernel's count must equal its count.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.integrate
import scipy.optimize


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


def tv_distance_quad(pdf_a, pdf_b, scale: float) -> tuple[float, int]:
    """(TV distance, sign changes on x > 0) of two densities symmetric about 0, by quadrature.

    Sign changes of p_a - p_b on x > 0 are bracketed on a geometric grid from
    1e-4 to 1e4 times ``scale`` and refined by Brent's method; 1/2 |p_a - p_b|
    is integrated by adaptive quadrature between them, where it is smooth,
    and doubled for x < 0.
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
    total = sum(
        scipy.integrate.quad(lambda x: abs(diff(x)), lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)[0]
        for lo, hi in zip(knots, knots[1:])
    )
    return total, len(cuts)


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


def _draw_theta(state, theta_prior, cdf):
    """theta from a Gaussian prior, or by inverting a tabulated prior's ``cdf``."""
    if theta_prior.kind == "gaussian":
        theta = np.empty(theta_prior.mean.shape[0])
        for j in range(theta.shape[0]):
            z, state = next_normal(state)
            theta[j] = theta_prior.mean[j] + theta_prior.sd[j] * z
        return theta, state
    grid = theta_prior.grid
    u, state = next_u01(state)
    idx = np.searchsorted(cdf, u)
    if idx <= 0:
        return grid[:1].copy(), state
    if idx >= cdf.shape[0]:
        return grid[-1:].copy(), state
    lo, hi = cdf[idx - 1], cdf[idx]
    frac = 0.0 if hi <= lo else (u - lo) / (hi - lo)
    return np.array([grid[idx - 1] + frac * (grid[idx] - grid[idx - 1])]), state


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
    cdf = None
    if theta_prior.kind == "tabulated":
        g = theta_prior.grid
        dens = np.array([float(theta_prior.density_fn(np.array([t]))) for t in g])
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(g))])
        cdf /= cdf[-1]
    work = np.empty(2 * k)
    hits = 0
    for rep in range(rep_start, rep_stop):
        theta, state = _draw_theta(stream_state(seed, rep), theta_prior, cdf)
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
    W^{-1/2} from an eigendecomposition, the tabulated prior's CDF from the
    trapezoid rule on its grid, and t* from ``t_quantile_quad``.
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

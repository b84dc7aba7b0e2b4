"""Monte Carlo replication kernels, batched across replications with numpy.

A kernel computes replications ``[rep_start, rep_stop)`` in blocks of at most
``_BLOCK`` replications, so memory stays bounded whatever the rep count.
Within a block every quantity is an array over replications.  A vector
projection (a_v'Y, v'theta) is a loop over its coefficients with one vector
operation each; a matrix projection (eta_mix z, X theta, B Y) is a loop over
the columns of the matrix with one (rows, n) operation each.  Either way
every element is accumulated in the order of a scalar loop over one
replication.  No BLAS product is used, since it would reorder the sums; with
the libm draws of ``_rng`` (``log`` and ``cos`` from compiled loops over the
C library functions, see its docstring) the results are bit-identical to the
scalar reference kept in the tests.

Per-replication draw order is fixed: theta components first (coverage only),
then the misspecification vector; the t radial family draws its chi-square
mixing variable before the normal vector.
"""

from __future__ import annotations

import numpy as np

from misspec._rng import (
    next_chisquare,
    next_exponential,
    next_normals,
    next_u01,
    stream_states,
)
from misspec.errors import NumericalError

ETA_NORMAL = 0
ETA_STUDENT_T = 1
ETA_SHIFTED_EXPONENTIAL = 2

THETA_GAUSSIAN = 0
THETA_TABULATED = 1

_BLOCK = 4096


def backend() -> str:
    """Kernel implementation in use (there is one)."""
    return "numpy"


def _blocks(seed, rep_start, rep_stop):
    """(offset from rep_start, stream states) per block of replications."""
    for lo in range(rep_start, rep_stop, _BLOCK):
        yield lo - rep_start, stream_states(seed, lo, min(lo + _BLOCK, rep_stop))


def _dot(coef, rows):
    """sum_i coef[i] * rows[i], accumulated in index order from 0.0."""
    acc = np.zeros(rows[0].shape)
    for c, row in zip(coef, rows):
        acc += c * row
    return acc


def _matvec(mat, z, acc=None):
    """acc + mat z per replication, shape (rows of mat, n).

    One vector operation per column of ``mat``, so each row is accumulated
    as ``_dot`` would (from 0.0 when ``acc`` is None).
    """
    if acc is None:
        acc = np.zeros((mat.shape[0], z.shape[1]))
    for col, z_j in zip(mat.T, z):
        acc += col[:, None] * z_j
    return acc


def _quad_form(b_mat, y):
    """y'B y per replication: sum_i y_i * (sum_j B_ij y_j)."""
    return _dot(y, _matvec(b_mat, y))


def _draw_eta(state, eta_code, nu_tilde, eta_mix):
    """eta per replication, shape (k, n).

    eta = eta_mix z (scaled) for the elliptical families; the shifted
    exponential control draws independent asymmetric coordinates directly.
    """
    k = eta_mix.shape[0]
    if eta_code == ETA_SHIFTED_EXPONENTIAL:
        return np.array([next_exponential(state) - 1.0 for _ in range(k)])
    scale = 1.0
    if eta_code == ETA_STUDENT_T:
        scale = np.sqrt(nu_tilde / next_chisquare(state, nu_tilde))
    return _matvec(eta_mix, next_normals(state, k)) * scale


def _draw_theta(state, theta_code, theta_mean, theta_sd, tab_grid, tab_cdf):
    """theta per replication, shape (p, n)."""
    if theta_code == THETA_GAUSSIAN:
        return theta_mean[:, None] + theta_sd[:, None] * next_normals(state, theta_mean.shape[0])
    u = next_u01(state)
    idx = np.searchsorted(tab_cdf, u)
    inner = np.clip(idx, 1, tab_cdf.shape[0] - 1)
    lo, hi = tab_cdf[inner - 1], tab_cdf[inner]
    frac = np.zeros(u.shape)
    np.divide(u - lo, hi - lo, out=frac, where=hi > lo)
    theta = tab_grid[inner - 1] + frac * (tab_grid[inner] - tab_grid[inner - 1])
    theta[idx <= 0] = tab_grid[0]
    theta[idx >= tab_cdf.shape[0]] = tab_grid[-1]
    return theta[None, :]


def coverage_hits(
    seed,
    rep_start,
    rep_stop,
    x_mat,
    eta_mix,
    eta_code,
    nu_tilde,
    theta_code,
    theta_mean,
    theta_sd,
    tab_grid,
    tab_cdf,
    a_v,
    b_mat,
    v,
    sigma_v,
    tstar,
    km_p,
) -> int:
    """Count replications whose interval covers v'theta.

    Per replication: draw theta from its prior and eta from the radial prior,
    form Y = X theta + eta, and check |v'theta_W(Y) - v'theta| against the
    J-scaled half-width.  v'theta_W = a_v'Y and J = Y'B Y for precomputed
    projection matrices.  A replication whose J or centre v'theta_W - v'theta
    overflows raises ``NumericalError`` instead of counting as a miss.
    """
    hits = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for offset, state in _blocks(seed, rep_start, rep_stop):
            theta = _draw_theta(state, theta_code, theta_mean, theta_sd, tab_grid, tab_cdf)
            y = _matvec(x_mat, theta, acc=_draw_eta(state, eta_code, nu_tilde, eta_mix))
            jstat = _quad_form(b_mat, y)
            centre = _dot(a_v, y) - _dot(v, theta)
            bad = ~(np.isfinite(jstat) & np.isfinite(centre))
            if bad.any():
                raise NumericalError(
                    f"J or the interval centre is not finite in replication "
                    f"{rep_start + offset + int(np.argmax(bad))}"
                )
            jstat[jstat < 0.0] = 0.0
            hw = tstar * np.sqrt(jstat / km_p) * sigma_v
            hits += int(np.count_nonzero(np.abs(centre) <= hw))
    return hits


def pivot_tstats(
    seed,
    rep_start,
    rep_stop,
    eta_mix,
    eta_code,
    nu_tilde,
    a_v,
    b_mat,
    sigma_v,
    km_p,
) -> np.ndarray:
    """Pivotal t statistics per replication; theta-free by construction.

    With Y = X theta + eta the statistic reduces to a_v'eta over the
    studentizer built from eta'B eta, so only eta is drawn.
    """
    out = np.empty(rep_stop - rep_start)
    for offset, state in _blocks(seed, rep_start, rep_stop):
        eta = _draw_eta(state, eta_code, nu_tilde, eta_mix)
        jstat = _quad_form(b_mat, eta)
        out[offset : offset + state.size] = _dot(a_v, eta) / np.sqrt(
            jstat / km_p * sigma_v * sigma_v
        )
    return out

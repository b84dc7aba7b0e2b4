"""Monte Carlo replication kernels, batched across replications with numpy.

A kernel computes replications ``[rep_start, rep_stop)`` in blocks of at most
``_BLOCK`` replications, so memory stays bounded whatever the rep count.
Within a block every quantity is an array over replications.  A vector
projection (a_v'eta) is a loop over its coefficients with one vector
operation each; a matrix projection (eta_mix z, B eta) is a loop over the
columns of the matrix with one (rows, n) operation each.  Either way every
element is accumulated in the order of a scalar loop over one replication.
No BLAS product is used, since it would reorder the sums; with the libm
draws of ``_rng`` (``log`` and ``cos`` from compiled loops over the C library
functions, see its docstring) the eta draws and t statistics are
bit-identical to the scalar reference kept in the tests.

Both kernels reduce a replication to the scale-free t statistic of its eta
(``_tstats``), so the t family's chi-square draw only advances the stream.
Draw order: theta (coverage only; skipped, not drawn), chi-square (t), normals.
"""

from __future__ import annotations

import numpy as np

from misspec._rng import (
    next_chisquare,
    next_exponential,
    next_normals,
    skip_uniforms,
    stream_states,
)

ETA_NORMAL = 0
ETA_STUDENT_T = 1
ETA_SHIFTED_EXPONENTIAL = 2

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


def _matvec(mat, z):
    """mat z per replication, shape (rows of mat, n).

    One vector operation per column of ``mat``, so each row is accumulated
    from 0.0 as ``_dot`` would.
    """
    acc = np.zeros((mat.shape[0], z.shape[1]))
    for col, z_j in zip(mat.T, z):
        acc += col[:, None] * z_j
    return acc


def _quad_form(b_mat, y):
    """y'B y per replication: sum_i y_i * (sum_j B_ij y_j)."""
    return _dot(y, _matvec(b_mat, y))


def _draw_eta(state, eta_code, nu_tilde, eta_mix):
    """(eta_mix z, shape (k, n); the t family's chi-square w, else None).

    The t family's eta is (eta_mix z) sqrt(nu / w), with w drawn first; the
    shifted exponential control draws independent asymmetric coordinates.
    """
    k = eta_mix.shape[0]
    if eta_code == ETA_SHIFTED_EXPONENTIAL:
        return np.array([next_exponential(state) - 1.0 for _ in range(k)]), None
    w = next_chisquare(state, nu_tilde) if eta_code == ETA_STUDENT_T else None
    return _matvec(eta_mix, next_normals(state, k)), w


def _tstats(seed, rep_start, rep_stop, theta_draws, eta_mix, eta_code, nu, a_v, b, sigma_v, km_p):
    """(offset from rep_start, T) per block, T = a_v'eta / sqrt(eta'B eta / (k - p) sigma_v^2).

    Each stream first skips the ``theta_draws`` uniforms of its theta draw.
    J is clamped at 0: a J that rounds to 0 or below gives a non-finite T, silently.
    """
    for offset, state in _blocks(seed, rep_start, rep_stop):
        skip_uniforms(state, theta_draws)
        eta, _ = _draw_eta(state, eta_code, nu, eta_mix)
        jstat = np.maximum(_quad_form(b, eta), 0.0) / km_p
        with np.errstate(divide="ignore", invalid="ignore"):
            t = _dot(a_v, eta) / np.sqrt(jstat * sigma_v * sigma_v)
        yield offset, t


def coverage_hits(
    seed,
    rep_start,
    rep_stop,
    theta_draws,
    eta_mix,
    eta_code,
    nu_tilde,
    a_v,
    b_mat,
    sigma_v,
    tstar,
    km_p,
) -> int:
    """Count replications whose interval covers v'theta.

    With Y = X theta + eta, A X = I and B X = 0, the interval centre
    v'theta_W(Y) - v'theta is a_v'eta and J = Y'B Y is eta'B eta, so the
    interval covers v'theta iff |T| <= t* for the pivotal t statistic T of
    eta.  Neither theta nor the scale of eta enters T.
    """
    args = (theta_draws, eta_mix, eta_code, nu_tilde, a_v, b_mat, sigma_v, km_p)
    blocks = _tstats(seed, rep_start, rep_stop, *args)
    return sum(int(np.count_nonzero(np.abs(t) <= tstar)) for _, t in blocks)


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
    args = (0, eta_mix, eta_code, nu_tilde, a_v, b_mat, sigma_v, km_p)
    for offset, t in _tstats(seed, rep_start, rep_stop, *args):
        out[offset : offset + t.size] = t
    return out

"""Shared dense linear-algebra helpers: SPD checks, symmetric roots, solves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from misspec.errors import InputError, ModelValidationError

# Scale-free guards against silent near-singularity.
SPD_RTOL = 1e-10
RANK_RTOL = 1e-10


def as_vector(x, n: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise InputError(f"{name} must be one-dimensional, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise InputError(f"{name} must have length {n}, got {v.shape[0]}")
    return v


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    m = np.asarray(x, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise InputError(f"{name} must be two-dimensional, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class SpdFactor:
    """Eigendecomposition-derived factors of a symmetric positive definite matrix.

    ``root`` is the unique symmetric PSD square root, ``inv_root`` its inverse.
    """

    matrix: np.ndarray
    root: np.ndarray
    inv_root: np.ndarray
    inverse: np.ndarray
    log_det: float


def spd_factor(w, name: str = "W") -> SpdFactor:
    """Validate that ``w`` is symmetric positive definite and factor it.

    Raises :class:`ModelValidationError` if the matrix is not symmetric or its
    smallest eigenvalue does not exceed ``SPD_RTOL`` times the largest.
    """
    w = as_matrix(w, name)
    if w.shape[0] != w.shape[1] or w.shape[0] == 0:
        raise ModelValidationError(f"{name} must be square and nonempty, got shape {w.shape}")
    if not np.allclose(w, w.T, rtol=0.0, atol=1e-8 * (1.0 + np.abs(w).max())):
        raise ModelValidationError(f"{name} must be symmetric")
    w = 0.5 * (w + w.T)
    vals, vecs = np.linalg.eigh(w)
    if vals[0] <= SPD_RTOL * max(vals[-1], 0.0):
        raise ModelValidationError(
            f"{name} is not positive definite: smallest eigenvalue {vals[0]:.3e} "
            f"vs largest {vals[-1]:.3e}"
        )
    sq = np.sqrt(vals)
    root = (vecs * sq) @ vecs.T
    inv_root = (vecs / sq) @ vecs.T
    inverse = (vecs / vals) @ vecs.T
    return SpdFactor(
        matrix=w,
        root=0.5 * (root + root.T),
        inv_root=0.5 * (inv_root + inv_root.T),
        inverse=0.5 * (inverse + inverse.T),
        log_det=float(np.sum(np.log(vals))),
    )


def check_same_weight(w: np.ndarray, reference: np.ndarray, name: str, ref_name: str) -> None:
    """Require the weighting matrix ``w`` to equal ``reference`` up to float noise."""
    if w.shape != reference.shape or not np.allclose(w, reference, rtol=1e-10, atol=1e-12):
        raise InputError(f"{name} weighting matrix must match the {ref_name} W")


def check_full_column_rank(x: np.ndarray, name: str = "X") -> None:
    """Require the smallest singular value to exceed RANK_RTOL times the largest."""
    sv = np.linalg.svd(x, compute_uv=False)
    if sv.size == 0 or sv[-1] <= RANK_RTOL * sv[0]:
        raise ModelValidationError(
            f"{name} is rank deficient: singular values range "
            f"[{sv[-1]:.3e}, {sv[0]:.3e}]"
        )


def cholesky(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """Lower Cholesky factor of SPD ``a``, in the form ``cho_solve`` takes."""
    return scipy.linalg.cho_factor(a, lower=True)


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` for SPD ``a`` by Cholesky factorization."""
    return scipy.linalg.cho_solve(cholesky(a), b)

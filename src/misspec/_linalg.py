"""Shared dense linear-algebra helpers: SPD checks, symmetric roots, solves.

Numpy only.  Validation reads eigenvalues alone, and a validated matrix keeps
them; the eigenvector-derived factors are computed lazily, on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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


def binade_scaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """(v 2^-e, e), with e bringing max |v_i| into [0.5, 1): exact short of subnormals."""
    e = math.frexp(float(np.max(np.abs(v))))[1]
    return np.ldexp(v, -e), e


def check_finite(a: np.ndarray, name: str) -> None:
    """Reject NaN and infinite entries, naming the input."""
    if not np.isfinite(a).all():
        raise ModelValidationError(f"{name} must be finite")


@dataclass(frozen=True)
class SpdFactor:
    """A validated symmetric positive definite matrix, its eigenvalues and lazy factors.

    ``eigenvalues`` are those the validation read, in ascending order.
    ``root`` is the unique symmetric PSD square root, ``inv_root`` its inverse.
    All four factors come from one eigendecomposition of ``matrix``, computed
    on first use of any of them and cached.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.matrix)

    @cached_property
    def root(self) -> np.ndarray:
        vals, vecs = self._eigh
        return _symmetrize((vecs * np.sqrt(vals)) @ vecs.T)

    @cached_property
    def inv_root(self) -> np.ndarray:
        vals, vecs = self._eigh
        return _symmetrize((vecs / np.sqrt(vals)) @ vecs.T)

    @cached_property
    def inverse(self) -> np.ndarray:
        vals, vecs = self._eigh
        return _symmetrize((vecs / vals) @ vecs.T)

    @cached_property
    def log_det(self) -> float:
        return float(np.sum(np.log(self._eigh[0])))


def _symmetrize(a: np.ndarray) -> np.ndarray:
    # Halved before the sum, which then cannot overflow; exact for normal floats.
    # A stack of matrices is symmetrised matrix by matrix, over the last two axes.
    return 0.5 * a + 0.5 * np.swapaxes(a, -1, -2)


def spd_factor(w, name: str = "W") -> SpdFactor:
    """Validate that ``w`` is finite, symmetric and positive definite.

    Raises :class:`ModelValidationError` if the matrix has a NaN or infinite
    entry, is not symmetric, or fails ``check_spd_spectrum``.  Returns the
    symmetrised matrix with its eigenvalues; its factors are left to the
    first use.
    """
    w = as_matrix(w, name)
    if w.shape[0] != w.shape[1] or w.shape[0] == 0:
        raise ModelValidationError(f"{name} must be square and nonempty, got shape {w.shape}")
    scale = float(np.abs(w).max())
    if not math.isfinite(scale):
        raise ModelValidationError(f"{name} must be finite")
    if not (np.abs(w - w.T).max() <= 1e-8 * (1.0 + scale)):
        raise ModelValidationError(f"{name} must be symmetric")
    w = _symmetrize(w)
    vals = np.linalg.eigvalsh(w)
    check_spd_spectrum(float(vals[0]), float(vals[-1]), name)
    return SpdFactor(matrix=w, eigenvalues=vals)


def check_spd_spectrum(lo: float, hi: float, name: str) -> None:
    """Require a symmetric matrix's extreme eigenvalues to be finite, lo > SPD_RTOL hi.

    ``lo`` and ``hi`` are the smallest and largest eigenvalue.  An eigenvalue
    that overflows, as it may where no entry does, is refused as not finite.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ModelValidationError(f"{name} must be finite")
    if lo <= SPD_RTOL * max(hi, 0.0):
        raise ModelValidationError(
            f"{name} is not positive definite: smallest eigenvalue {lo:.3e} vs largest {hi:.3e}"
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


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of SPD ``a``, in the form ``cho_solve`` takes."""
    return np.linalg.cholesky(a)


def cho_solve(lower: np.ndarray, b) -> np.ndarray:
    """Solve ``L L' x = b`` from the lower Cholesky factor ``L``.

    ``b`` is a vector or a matrix with one right-hand side per column.  Each
    column is solved by forward, then back substitution: an entry is
    multiplied by the reciprocal diagonal, then its multiples are subtracted
    from the entries not yet solved.  The loops run on Python floats, which
    round exactly as numpy's float64 operations do and, at the small p of
    these models, cost less than one numpy call per row.
    """
    b = np.asarray(b, dtype=np.float64)
    n = lower.shape[0]
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise InputError(f"right-hand side must have {n} rows, got shape {b.shape}")
    low = lower.tolist()
    inv_diag = [1.0 / low[i][i] for i in range(n)]
    cols = b.reshape(n, -1).T.tolist()
    for x in cols:
        for i in range(n):
            xi = x[i] = x[i] * inv_diag[i]
            for j in range(i + 1, n):
                x[j] -= low[j][i] * xi
        for i in range(n - 1, -1, -1):
            xi = x[i] = x[i] * inv_diag[i]
            row = low[i]
            for j in range(i):
                x[j] -= row[j] * xi
    return np.array(cols).T.reshape(b.shape)


"""Shared dense linear-algebra helpers: SPD checks and symmetric roots.

Numpy only.  Validation takes one eigendecomposition, which a validated
matrix keeps; the factors derived from it are computed on first use.
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
    e = math.frexp(float(abs(v).max()))[1]
    return np.ldexp(v, -e), e


def check_finite(a: np.ndarray, name: str) -> None:
    """Reject NaN and infinite entries, naming the input."""
    if not np.isfinite(a).all():
        raise ModelValidationError(f"{name} must be finite")


@dataclass(frozen=True)
class SpdFactor:
    """A validated symmetric positive definite matrix, 2^``exponent`` M, and M's ``eigh``.

    ``values`` (ascending) and ``vectors`` are M's eigenvalues and vectors;
    ``eigenvalues`` are the matrix's own.  ``root`` is the unique symmetric PSD
    square root, ``inv_root`` its inverse; the factors are cached on first use.
    """

    matrix: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    exponent: int = 0

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.ldexp(self.values, self.exponent)

    @cached_property
    def root(self) -> np.ndarray:
        return _symmetrize((self.vectors * np.sqrt(self.eigenvalues)) @ self.vectors.T)

    @cached_property
    def inv_root(self) -> np.ndarray:
        return _symmetrize((self.vectors / np.sqrt(self.eigenvalues)) @ self.vectors.T)

    @cached_property
    def inverse(self) -> np.ndarray:
        return _symmetrize((self.vectors / self.eigenvalues) @ self.vectors.T)

    @cached_property
    def log_det(self) -> float:
        return float(np.sum(np.log(self.eigenvalues)))


def _symmetrize(a: np.ndarray) -> np.ndarray:
    # Halved before the sum, which then cannot overflow; exact for normal floats.
    return 0.5 * a + 0.5 * a.T


def spd_factor(w, name: str = "W") -> SpdFactor:
    """Validate that ``w`` is finite, symmetric and positive definite.

    Raises :class:`ModelValidationError` if the matrix has a NaN or infinite
    entry, is not symmetric, or fails ``check_spd_spectrum``.  Returns the
    symmetrised matrix with the ``eigh`` that validated it, of the matrix
    scaled to a largest entry in [1/4, 1/2): the same for the matrix times
    any power of two, and exact where the root is (as for I).
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
    e = math.frexp(scale)[1] + 1
    vals, vecs = np.linalg.eigh(np.ldexp(w, -e))
    with np.errstate(over="ignore"):  # an eigenvalue that overflows is refused
        lo, hi = np.ldexp(vals[[0, -1]], e).tolist()
    check_spd_spectrum(lo, hi, name)
    return SpdFactor(matrix=w, values=vals, vectors=vecs, exponent=e)


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


def full_column_rank(s: np.ndarray) -> bool:
    """The rank rule: singular values s, descending, the smallest above RANK_RTOL times the largest."""
    return s[-1] > RANK_RTOL * s[0]


def check_same_weight(w: np.ndarray, reference: np.ndarray, name: str, ref_name: str) -> None:
    """Require the weighting matrix ``w`` to equal ``reference`` up to float noise.

    Both have been checked finite, so |w - ref| <= 1e-12 + 1e-10 |ref|, entry by
    entry on Python floats, is ``np.allclose(w, reference, rtol=1e-10, atol=1e-12)``;
    equal bytes, as of one W validated twice, pass it without the entries.
    """
    same = w.shape == reference.shape and (
        w.tobytes() == reference.tobytes()
        or all(abs(a - b) <= 1e-12 + 1e-10 * abs(b) for a, b in zip(w.ravel().tolist(), reference.ravel().tolist()))
    )
    if not same:
        raise InputError(f"{name} weighting matrix must match the {ref_name} W")

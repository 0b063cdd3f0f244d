"""Dense complex linear algebra used throughout the library.

Thin, contract-checked wrappers around LAPACK-backed routines: matrices and
vectors are plain ``numpy`` arrays, validated on entry.  All functions are pure
and safe to call concurrently.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "DimensionError",
    "NumericalError",
    "as_matrix",
    "frobenius",
    "expm",
    "eig_general",
    "eig_symmetric",
]

#: Default tolerance for the symmetry check in `eig_symmetric`.
DEFAULT_SYMMETRY_TOL = 1e-12


class DimensionError(ValueError):
    """Non-conforming or non-square input."""


class NumericalError(RuntimeError):
    """Failed iteration or unusable numerical result."""


def as_matrix(m, square: bool = False, stack: bool = False) -> np.ndarray:
    """Validate and return ``m`` as a 2-D complex array with finite entries.

    With ``stack``, a 3-D stack of matrices is accepted as well.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 and not (stack and a.ndim == 3):
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix has non-finite entries")
    if square and a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def frobenius(m) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(m, dtype=complex), "fro"))


def expm(m) -> np.ndarray:
    """Matrix exponential e^M (scaling-and-squaring with Pade approximants)."""
    return scipy.linalg.expm(as_matrix(m, square=True))


def eig_general(m) -> np.ndarray:
    """All eigenvalues (with multiplicity) of a general complex matrix, unordered.

    A (k, n, n) stack gives a (k, n) array, one row per matrix.
    """
    a = as_matrix(m, square=True, stack=True)
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # QR iteration did not converge
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc


def eig_symmetric(
    s, sym_tol: float = DEFAULT_SYMMETRY_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix.

    Returns ``(w, q)`` with eigenvalues ``w`` ascending and ``q`` orthonormal,
    so that ``q.T @ s @ q = diag(w)``.  Rejects inputs that are not real and
    symmetric within ``sym_tol`` (relative to the matrix norm).
    """
    a = as_matrix(s, square=True)
    scale = max(frobenius(a), 1.0)
    if np.max(np.abs(a.imag)) > sym_tol * scale:
        raise DimensionError("matrix has a non-real part beyond tolerance")
    ar = a.real
    if np.max(np.abs(ar - ar.T)) > sym_tol * scale:
        raise DimensionError("matrix is asymmetric beyond tolerance")
    w, q = np.linalg.eigh(ar)
    return w, q

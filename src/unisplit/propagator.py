"""Application of a splitting scheme to a concrete split H = A + B.

Provides the dense step matrix S_h, for one step size or a whole grid of them,
and the reversibility / convergence-order diagnostics built on top of it.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from unisplit import linalg
from unisplit.schemes import SplittingScheme

__all__ = [
    "step_matrix",
    "exact_propagator",
    "reversibility_report",
    "OrderFit",
    "fit_loglog",
    "empirical_order",
    "eigenphase_error",
]

#: Eigenvector condition number above which an operator's factors are built
#: with `linalg.expm` rather than from its eigendecomposition.  A defective or
#: nearly defective operator (such as a nilpotent B) has no usable eigenbasis.
_EIG_COND_LIMIT = 1e3


def _eigenbasis(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(lam, V, V^-1) with m = V diag(lam) V^-1, or None past the cond guard."""
    if not m.imag.any() and np.array_equal(m.real, m.real.T):
        lam, v = np.linalg.eigh(m.real)
        return lam, v, v.T
    lam, v = np.linalg.eig(m)
    if not np.linalg.cond(v) <= _EIG_COND_LIMIT:
        return None
    return lam, v, np.linalg.inv(v)


@functools.lru_cache(maxsize=1)
def _split_bases(shape: tuple[int, int], a_bytes: bytes, b_bytes: bytes) -> dict:
    """``{"A": _eigenbasis(A), "B": _eigenbasis(B)}`` for the complex128
    operators held in ``a_bytes`` and ``b_bytes``; the arrays are read-only.

    The operators arrive as their bytes so that the cache key holds their
    values, not the identity of the caller's arrays; a None from the cond
    guard is cached like a basis.
    """
    bases = {}
    for op, raw in (("A", a_bytes), ("B", b_bytes)):
        basis = _eigenbasis(np.frombuffer(raw, dtype=complex).reshape(shape))
        if basis is not None:
            for arr in basis:
                arr.flags.writeable = False
        bases[op] = basis
    return bases


def step_matrix(scheme: SplittingScheme, a, b, h) -> np.ndarray:
    """Dense step operator: product of exp(i h c Op) over the factor sequence.

    ``h`` is a scalar, giving the (n, n) step matrix, or a 1-D array, giving
    the (len(h), n, n) stack of step matrices, one per entry.  The first factor
    in application order multiplies the state first, so it is the rightmost
    term of the accumulated product.

    The factors of an operator are V diag(exp(i h c lam)) V^-1 for the whole
    stack at once.  The eigenbases of A and B are kept for the latest split
    (keyed by their values), so calls on one split diagonalise each operator
    once; an operator whose eigenvectors fail the condition guard has its
    factors built by `linalg.expm`, one per h, on every call.
    """
    am = linalg.as_matrix(a, square=True)
    bm = linalg.as_matrix(b, square=True)
    if am.shape != bm.shape:
        raise linalg.DimensionError(f"shape mismatch {am.shape} vs {bm.shape}")
    h_arr = np.asarray(h, dtype=float)
    if h_arr.ndim > 1:
        raise linalg.DimensionError(f"h must be a scalar or 1-D, got ndim={h_arr.ndim}")
    ih = 1j * h_arr.reshape(-1)
    ops = {"A": am, "B": bm}
    bases = _split_bases(am.shape, am.tobytes(), bm.tobytes())
    # the product so far is V_in @ s, with V_in the eigenvectors of the
    # operator named by `basis_of` (the identity when it is None)
    s, basis_of = None, None
    for f in scheme.factors:
        z = ih * f.coeff
        basis = bases[f.op]
        if basis is None:
            if basis_of is not None:
                s, basis_of = bases[basis_of][1] @ s, None
            e = np.empty((len(z),) + am.shape, dtype=complex)
            for i, zi in enumerate(z):
                e[i] = linalg.expm(zi * ops[f.op])
            s = e if s is None else e @ s
            continue
        lam, _, v_inv = basis
        if basis_of != f.op:
            t = v_inv if basis_of is None else v_inv @ bases[basis_of][1]
            s = t if s is None else t @ s
            basis_of = f.op
        s = np.exp(z[:, None] * lam)[:, :, None] * s
    if basis_of is not None:
        s = bases[basis_of][1] @ s
    return s[0] if h_arr.ndim == 0 else s


def exact_propagator(h_matrix, t: float) -> np.ndarray:
    """Exact flow expm(i t H)."""
    return linalg.expm(1j * t * linalg.as_matrix(h_matrix, square=True))


@functools.lru_cache(maxsize=1)
def _exact_propagators(
    shape: tuple[int, int], hm_bytes: bytes, h_bytes: bytes
) -> tuple[np.ndarray, ...]:
    """``exact_propagator(H, h)`` for each h of a grid, read-only.

    The key is the whole grid: `empirical_order` walks one grid per call, so
    a per-h cache smaller than the grid would be evicted before its reuse.
    """
    hm = np.frombuffer(hm_bytes, dtype=complex).reshape(shape)
    refs = tuple(exact_propagator(hm, h) for h in np.frombuffer(h_bytes))
    for ref in refs:
        ref.flags.writeable = False
    return refs


def reversibility_report(
    scheme: SplittingScheme, a, b, h: float
) -> dict[str, float]:
    """Residuals of the reversibility identities for real A, B.

    ``sc2_residual`` = ||conj(S_h) S_h - I||_F (holds for any real split);
    ``sc3_residual`` = ||conj(S_h)^T - S_{-h}||_F (meaningful when A and B are
    real symmetric; reported unconditionally as a diagnostic).
    """
    s_h, s_back = step_matrix(scheme, a, b, np.array([h, -h]))
    sc2 = linalg.frobenius(s_h.conj() @ s_h - np.eye(s_h.shape[0]))
    sc3 = linalg.frobenius(s_h.conj().T - s_back)
    return {"sc2_residual": sc2, "sc3_residual": sc3}


@dataclass(frozen=True)
class OrderFit:
    """Least-squares slope of log(error) against log(h)."""

    slope: float
    intercept: float
    h_used: tuple[float, ...]
    errors: tuple[float, ...]
    residuals: tuple[float, ...]
    excluded: tuple[float, ...]  # h values outside the fit window


def fit_loglog(
    h_values, errors, err_min: float = 1e-12, err_max: float = 1e-1
) -> OrderFit:
    """Fit log(error) against log(h) over the points with error in
    [err_min, err_max]; the others are reported in ``excluded``."""
    h_arr = np.asarray(h_values, dtype=float)
    e_arr = np.asarray(errors, dtype=float)
    keep = (e_arr >= err_min) & (e_arr <= err_max)
    if keep.sum() < 2:
        raise linalg.NumericalError(
            "fewer than two points inside the fit window "
            f"[{err_min:g}, {err_max:g}]; errors: {e_arr}"
        )
    lh, le = np.log(h_arr[keep]), np.log(e_arr[keep])
    slope, intercept = np.polyfit(lh, le, 1)
    resid = le - (slope * lh + intercept)
    return OrderFit(
        slope=float(slope),
        intercept=float(intercept),
        h_used=tuple(h_arr[keep]),
        errors=tuple(e_arr[keep]),
        residuals=tuple(resid),
        excluded=tuple(h_arr[~keep]),
    )


def empirical_order(scheme: SplittingScheme, a, b, h_grid) -> OrderFit:
    """Local-error order: slope of log ||S_h - expm(i h H)||_F vs log h.

    Points below the round-off plateau (error < 1e-12) or outside the
    asymptotic window (error > 1e-1) are excluded and reported.

    The references expm(i h H) are kept for the latest (H, grid) pair, keyed
    by their values, so a sweep of schemes over one split and grid builds
    them once.
    """
    am = linalg.as_matrix(a, square=True)
    bm = linalg.as_matrix(b, square=True)
    hm = am + bm
    h_arr = np.asarray(h_grid, dtype=float)
    refs = _exact_propagators(hm.shape, hm.tobytes(), h_arr.tobytes())
    errors = [
        linalg.frobenius(s_h - ref)
        for s_h, ref in zip(step_matrix(scheme, am, bm, h_arr), refs)
    ]
    return fit_loglog(h_arr, errors)


def eigenphase_error(
    scheme: SplittingScheme, a, b, h, warn: bool = True
) -> float | np.ndarray:
    """Max distance from the eigenvalues of S_h to the exact phases e^{i h lam}.

    ``h`` is a scalar, giving a float, or a 1-D array, giving an array of one
    error per entry; an entry h = 0 gives 0.  A, B and H = A + B are
    diagonalised once for the whole array, so a grid costs one `step_matrix`
    and one `eig_general` call.

    H = A + B must be real symmetric.  Eigenvalues are paired greedily to the
    nearest exact phase; a pairing-ambiguity warning is issued via
    ``warnings``, once for each h, when two exact phases fall within twice the
    pairing distance (valid only for h small enough that phase gaps dominate
    the method error).
    """
    h_arr = np.asarray(h, dtype=float)
    if h_arr.ndim > 1:
        raise linalg.DimensionError(f"h must be a scalar or 1-D, got ndim={h_arr.ndim}")
    hs = h_arr.reshape(-1)
    worst = np.zeros(len(hs))
    live = hs != 0.0
    if live.any():
        am = linalg.as_matrix(a, square=True)
        bm = linalg.as_matrix(b, square=True)
        lam, _ = linalg.eig_symmetric(am + bm)
        exact = np.exp(1j * hs[live, None] * lam)
        omega = linalg.eig_general(step_matrix(scheme, am, bm, hs[live]))
        # dist[k, i, j] = |omega_i - exact_j| at the k-th nonzero h
        dist = np.abs(omega[:, :, None] - exact[:, None, :])
        near = dist.min(axis=2)
        worst[live] = near.max(axis=1)
        if warn and lam.size > 1:
            second = np.partition(dist, 1, axis=2)[:, :, 1]
            for h_k in hs[live][(second < 2.0 * near).any(axis=1)]:
                warnings.warn(
                    f"eigenphase pairing ambiguous at h={float(h_k)}: two exact "
                    "phases within 2x the pairing distance",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return float(worst[0]) if h_arr.ndim == 0 else worst

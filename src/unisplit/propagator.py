"""Application of a splitting scheme to a concrete split H = A + B.

Provides the dense step matrix S_h, for one step size or a whole grid of them,
and the reversibility / convergence-order diagnostics built on top of it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from unisplit import linalg
from unisplit.schemes import SplittingScheme

__all__ = [
    "step_matrix",
    "reversibility_report",
    "OrderFit",
    "fit_loglog",
    "empirical_order",
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


def _split(a, b) -> dict:
    """The record of the split (a, b): `_split_record` keyed by their values."""
    am, bm = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return _split_record(am.shape, am.tobytes(), bm.shape, bm.tobytes())


@functools.lru_cache(maxsize=1)
def _split_record(a_shape, a_bytes: bytes, b_shape, b_bytes: bytes) -> dict:
    """Everything kept about the latest split H = A + B, all read-only.

    - ``"A"``, ``"B"``, ``"H"``: the validated operators and their sum;
    - ``"bases"[op]``: ``_eigenbasis(op)``, None past the cond guard;
    - ``"moves"[src, dst]``: for the transfer matrix M = V_dst^-1 V_src from
      the eigenbasis of ``src`` to that of ``dst``, M^T in the real (2n, 2n)
      form R that acts on the float view of complex rows:
      ``x.view(float) @ R`` is ``(x @ M^T).view(float)``, and
      ``R[0::2].view(complex)`` is M^T itself, bit for bit.  None names the
      identity, the basis of an operator past the guard;
    - ``"refs"[h]``: expm(i h H), for each h `empirical_order` asked for.
    The key holds the operators' values, not the caller's arrays.  An
    exception is not cached, so an invalid operator raises on every call.
    """
    ops = {op: linalg.as_matrix(np.frombuffer(raw, dtype=complex).reshape(shape))
           for op, shape, raw in (("A", a_shape, a_bytes), ("B", b_shape, b_bytes))}
    if a_shape != b_shape:
        raise linalg.DimensionError(f"shape mismatch {a_shape} vs {b_shape}")
    bases, moves = {op: _eigenbasis(m) for op, m in ops.items()}, {}
    for op, basis in bases.items():
        if basis is not None:
            moves[None, op], moves[op, None] = basis[2], basis[1]
    if None not in bases.values():
        for src, dst in (("A", "B"), ("B", "A")):
            moves[src, dst] = bases[dst][2] @ bases[src][1]
    for key, m in list(moves.items()):  # the real form R of each M^T
        r = moves[key] = np.empty((2 * len(m), 2 * len(m)))
        r[0::2, 0::2] = r[1::2, 1::2] = m.real.T
        r[0::2, 1::2], r[1::2, 0::2] = m.imag.T, -m.imag.T
    hm = ops["A"] + ops["B"]
    for arr in (hm, *moves.values(),
                *(x for basis in bases.values() if basis for x in basis)):
        arr.flags.writeable = False
    return {**ops, "H": hm, "bases": bases, "moves": moves, "refs": {}}


def step_matrix(scheme: SplittingScheme, a, b, h) -> np.ndarray:
    """Dense step operator: product of exp(i h c Op) over the factor sequence.

    ``h`` is a real or complex scalar, giving the (n, n) step matrix, or a 1-D
    array, giving the (len(h), n, n) stack of step matrices, one per entry.
    The first factor in application order multiplies the state first, so it
    is the rightmost term of the accumulated product.

    The factors of an operator are V diag(exp(i h c lam)) V^-1 for the whole
    stack at once, with the eigenbases and transfer matrices of the split's
    record (`_split_record`) and one phase `exp` per distinct coefficient of
    the operator; an operator whose eigenvectors fail the condition guard has
    its factors built by `linalg.expm`, one per h, on every call.

    The product is accumulated transposed, T[i] = S[i]^T: a factor's row
    scaling diag(p) S is the column scaling T diag(p), and a transfer matrix
    M applies as T[i] @ M^T, the real GEMM of T[i]'s (n, 2n) float view with
    the record's R.  Batched matmul issues one GEMM of that shape per h, so a
    stack equals its scalar calls bit for bit (one GEMM over all k*n rows
    would not: the BLAS picks its kernel by size).  The result is the
    transposed view of T, a fresh writeable array.
    """
    if np.asarray(h).dtype == bool:  # the float cast would read True as 1.0
        raise TypeError(f"h must be a number, not a bool, got {h!r}")
    split = _split(a, b)
    h_arr = np.asarray(h, dtype=complex if np.iscomplexobj(h) else float)
    if h_arr.ndim > 1:
        raise linalg.DimensionError(f"h must be a scalar or 1-D, got ndim={h_arr.ndim}")
    ih = 1j * h_arr.reshape(-1)
    n = split["H"].shape[0]
    if not ih.size:  # an empty grid, on any valid split
        return np.empty((0, n, n), dtype=complex)
    bases, moves, phases = split["bases"], split["moves"], {}
    distinct = {"A": {}, "B": {}}  # the coefficients of each operator, once each
    for f in scheme.factors:
        distinct[f.op][f.coeff] = None
    for op, basis in bases.items():
        if basis is not None:  # phases[op][c]: exp(i h c lam), one (1, n) row per h
            cs = distinct[op]
            z = ih[:, None] * np.fromiter(cs, complex, len(cs))[None, :]
            phases[op] = dict(zip(cs, np.exp(z.T[:, :, None, None] * basis[0])))
    # the product so far is V @ S', with V the eigenvectors of the operator
    # named by `at` (the identity when it is None); t holds S'^T, in bufs[i]
    # from the first product on, and before that the first move
    shape = (len(ih), n, n)
    bufs = [np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)]
    views = [bufs[0].view(float), bufs[1].view(float)]  # (k, n, 2n) each
    t, i, at = None, 0, None
    for f in (*scheme.factors, None):  # None: the closing move to the identity
        to = None if f is None or bases[f.op] is None else f.op
        if to != at:  # a move M: one real GEMM per h, T[i] @ M^T
            if t is None:
                t = moves[at, to][0::2].view(complex)
            else:
                np.matmul(views[i], moves[at, to], out=views[1 - i])
                i = 1 - i
                t = bufs[i]
        if to is not None:  # a column scaling T diag(p), in place in a buffer
            t = np.multiply(phases[to][f.coeff], t, out=bufs[i])
        elif f is not None:  # an operator past the guard: T expm(i h c Op)^T
            e = [linalg.expm(z * split[f.op]).T for z in ih * f.coeff]
            if t is None:
                t = np.stack(e, out=bufs[i])
            else:
                i = 1 - i
                t = np.matmul(t, np.array(e), out=bufs[i])
        at = to
    return t[0].T if h_arr.ndim == 0 else t.transpose(0, 2, 1)


def reversibility_report(
    scheme: SplittingScheme, a, b, h: float
) -> dict[str, float]:
    """Residuals of the reversibility identities for real A, B.

    ``sc2_residual`` = ||conj(S_h) S_h - I||_F (holds for any real split);
    ``sc3_residual`` = ||conj(S_h)^T - S_{-h}||_F (meaningful when A and B are
    real symmetric; reported unconditionally as a diagnostic).
    """
    h = linalg.as_steps(h, 0)
    s_h, s_back = step_matrix(scheme, a, b, np.array([h, -h]))
    sc2 = float(np.linalg.norm(s_h.conj() @ s_h - np.eye(s_h.shape[0])))
    sc3 = float(np.linalg.norm(s_h.conj().T - s_back))
    return {"sc2_residual": sc2, "sc3_residual": sc3}


@dataclass(frozen=True)
class OrderFit:
    """Least-squares slope of log(error) against log(h)."""

    slope: float
    h_used: tuple[float, ...]
    errors: tuple[float, ...]
    excluded: tuple[float, ...]  # h values outside the fit window
    failed: tuple[float, ...]  # h values whose error is not finite


#: Errors kept by `fit_loglog`: above the round-off plateau, inside the
#: asymptotic regime.
_FIT_WINDOW = (1e-12, 1e-1)


def fit_loglog(h_values, errors) -> OrderFit:
    """Fit log(error) against log(h) over the points with error inside
    `_FIT_WINDOW`; the others go to ``excluded``, or to ``failed`` if not finite."""
    h_arr = linalg.as_steps(h_values, 1)
    e_arr = np.asarray(errors).astype(float, casting="same_kind")
    if h_arr.shape != e_arr.shape:
        raise ValueError(f"h_values of shape {h_arr.shape}, errors {e_arr.shape}")
    err_min, err_max = _FIT_WINDOW
    finite = np.isfinite(e_arr)
    keep = (e_arr >= err_min) & (e_arr <= err_max)
    if keep.sum() < 2:
        raise linalg.NumericalError(
            "fewer than two points inside the fit window "
            f"[{err_min:g}, {err_max:g}]; errors: {e_arr}"
        )
    slope, _ = np.polyfit(np.log(h_arr[keep]), np.log(e_arr[keep]), 1)
    return OrderFit(
        slope=float(slope),
        h_used=tuple(map(float, h_arr[keep])),
        errors=tuple(map(float, e_arr[keep])),
        excluded=tuple(map(float, h_arr[finite & ~keep])),
        failed=tuple(map(float, h_arr[~finite])),
    )


def empirical_order(scheme: SplittingScheme, a, b, h_grid) -> OrderFit:
    """Local-error order: slope of log ||S_h - expm(i h H)||_F vs log h.

    Points below the round-off plateau (error < 1e-12) or outside the
    asymptotic window (error > 1e-1) are excluded, and overflowed ones failed.

    The references expm(i h H) are kept in the split's record, one per h, so
    a sweep of schemes over one split builds each of them once.
    """
    h_arr = linalg.as_steps(h_grid, 1)
    split = _split(a, b)
    refs, hs = split["refs"], h_arr.tolist()
    for h in hs:
        if h not in refs:
            refs[h] = linalg.expm(1j * h * split["H"])
            refs[h].flags.writeable = False
    with np.errstate(over="ignore", invalid="ignore"):  # failed, not warned
        errors = [float(np.linalg.norm(s_h - refs[h])) for s_h, h
                  in zip(step_matrix(scheme, split["A"], split["B"], h_arr), hs)]
    return fit_loglog(h_arr, errors)


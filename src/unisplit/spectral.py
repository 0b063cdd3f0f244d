"""Matrix-free pseudo-spectral backend for the 1-D periodic Schroedinger problem.

Split H = A + B with A the (minus) kinetic differentiation matrix, diagonal in
Fourier space with symbol -k^2/2, and B = -V diagonal in physical space.  Both
conventions follow i du/dt + H u = 0, so u(t) = e^{itH} u0 is the standard
Schroedinger flow e^{-it(T+V)} u0.

The DFT uses the unitary normalization (1/sqrt(N) both ways); discrete norms
carry the quadrature weight dx.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
# numpy >= 2.0 implements np.fft as the gufuncs of this module; dft/idft call
# them directly
from numpy.fft import _pocketfft_umath

from unisplit import linalg
from unisplit.propagator import OrderFit, fit_loglog
from unisplit.schemes import SplittingScheme

__all__ = [
    "SpectralGrid",
    "FftCounter",
    "dft",
    "idft",
    "pt_potential",
    "initial_gaussian",
    "split_step",
    "observables",
    "rkn_residual",
    "build_dense_hamiltonian",
    "pt_empirical_order",
]

OVERFLOW_LIMIT = 1e12

#: Largest grid size `build_dense_hamiltonian` assembles as a dense matrix.
DENSE_MAX_N = 1024

#: Squared norm below which no entry of a state can exceed OVERFLOW_LIMIT.
#: The relative margin covers the rounding of the sum of |u_j|^2, at most
#: about N * 2^-53, which stays below 1e-9 for N up to about 9e6.
_NORM2_SAFE = OVERFLOW_LIMIT**2 * (1.0 - 1e-9)

#: Relative margin on an upper bound of a squared norm; see ``split_step``.
_NORM2_MARGIN = 1.0 + 1e-9


@dataclass
class FftCounter:
    """Per-run transform counter; dft and idft count one FFT per row."""

    count: int = 0


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic equispaced grid with standard-DFT-ordered wavenumbers.

    ``==``, ``hash`` and ``repr`` read the fields alone.  The grid builds its
    read-only arrays once: the nodes ``x``, the wavenumbers ``k`` = 2*pi*m/L
    for m in {0,...,N/2-1, -N/2,...,-1} (the Nyquist mode keeps k = -pi*N/L;
    k enters only through k^2), k^2/2 and the transforms' 0-d scale 1/sqrt(N).
    """

    n: int = 256
    x_min: float = -8.0
    x_max: float = 8.0

    def __post_init__(self):
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError(f"N must be a power of two, got {self.n}")
        if self.x_max <= self.x_min:
            raise ValueError("empty interval")
        with np.errstate(over="ignore"):  # checked here, not warned
            k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=1.0 / self.n) / self.length
            half_k2 = k**2 / 2.0
        if not (math.isfinite(self.length) and np.isfinite(half_k2).all()):
            raise ValueError(f"grid length {self.length} or k^2/2 is not finite")
        x = self.x_min + self.dx * np.arange(self.n)
        scale = np.array(np.reciprocal(np.sqrt(self.n, dtype=np.float64)))
        for a in (x, k, half_k2, scale):
            a.flags.writeable = False
        for name, a in zip(("x", "k", "_half_k2", "_scale"), (x, k, half_k2, scale)):
            object.__setattr__(self, name, a)

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return self.length / self.n

    def norm(self, u) -> float:
        """Weighted discrete L2 norm sqrt(dx * sum |u|^2); m * norm(u/m), with m
        the peak |u_j|, where dx * sum |u|^2 underflows or overflows."""
        a = np.abs(np.asarray(u))
        with np.errstate(over="ignore"):  # checked here, not warned
            s = self.dx * np.sum(a**2)
        m = float(np.max(a, initial=0.0))
        if not np.finfo(float).tiny <= s < math.inf and 0.0 < m < math.inf:
            return m * self.norm(a / m)
        return float(math.sqrt(s))


def _check_length(grid: SpectralGrid, u, stack: bool = False) -> np.ndarray:
    """``u`` as a complex array of shape (N,), or also (K, N) if ``stack``."""
    v = np.asarray(u, dtype=complex)
    if v.shape != (grid.n,) and not (stack and v.ndim == 2 and v.shape[1] == grid.n):
        raise linalg.DimensionError(f"expected length {grid.n}, got {v.shape}")
    return v


def _check_potential(grid: SpectralGrid, v_pot) -> np.ndarray:
    """``v_pot`` as a float64 array of shape (N,).  NEP 50 would keep a
    narrower precision in the phases, and a longdouble V would build
    complex256 phases; a complex or string V is numpy's same-kind
    TypeError, since H = A + B is Hermitian only for a real V."""
    v = np.asarray(v_pot)
    if v.shape != (grid.n,):
        raise linalg.DimensionError(f"expected a potential of shape ({grid.n},), "
                                    f"got {v.shape}")
    return v.astype(float, casting="same_kind", copy=False)


def _transform(gufunc, grid: SpectralGrid, u, counter: FftCounter | None,
               out: np.ndarray | None) -> np.ndarray:
    v = np.asarray(u, dtype=complex)
    # one comparison for a plain state: a step makes two calls per A-factor
    rows = 1 if v.shape == (grid.n,) else len(_check_length(grid, v, True))
    if out is None:
        out = np.empty_like(v)
    elif out.shape != v.shape:
        raise linalg.DimensionError(f"out must have shape {v.shape}, got {out.shape}")
    gufunc(v, grid._scale, out=out)
    if counter is not None:  # only once the transform has run
        counter.count += rows
    return out


def dft(grid: SpectralGrid, u, counter: FftCounter | None = None,
        out: np.ndarray | None = None) -> np.ndarray:
    """Unitary forward DFT of a state (N,), or of each row of a stack
    (K, N); increments ``counter``, if given, by one per row.

    A stack is one gufunc call, and each of its rows has the bits of the
    call on that row alone.  With ``out`` (a complex array of the input's
    shape, or the input itself, which is cheapest: the gufunc otherwise first
    copies the input into ``out``) the result is written there and ``out`` is
    returned; the bits are the same.  ``counter`` grows once the call has run.

    The transform calls the pocketfft gufunc that ``np.fft.fft`` itself ends
    in (numpy >= 2.0 implements ``np.fft`` as these gufuncs), with the scale
    ``1/sqrt(N)`` that ``np.fft`` computes for ``norm="ortho"``, kept by the
    grid as a 0-d array, which the gufunc reads without converting it on each
    call.  This skips the wrapper's per-call work (it recomputes the scale
    and checks the axis, dtypes and shape each time), about half the cost of
    a 256-point transform; the kernel and its inputs are the same, and so are
    the bits.  The gufunc pads or truncates into an ``out`` of another length
    instead of raising, so an ``out`` whose shape differs from the input's in
    any axis is refused here with :class:`linalg.DimensionError` before
    anything is written.  ``scipy.fft`` is not used: its bits differ from
    ``np.fft``'s at N = 2*4^k.
    """
    return _transform(_pocketfft_umath.fft, grid, u, counter, out)


def idft(grid: SpectralGrid, u, counter: FftCounter | None = None,
         out: np.ndarray | None = None) -> np.ndarray:
    """Unitary inverse DFT of a state or of each row of a stack; increments
    ``counter``, if given, by one per row.

    Stacks, ``out`` and the transform are as for :func:`dft`.
    """
    return _transform(_pocketfft_umath.ifft, grid, u, counter, out)


def pt_potential(
    grid: SpectralGrid, alpha: float = 1.0, lam_prod: float = 10.0
) -> np.ndarray:
    """Modified Poeschl-Teller well V(x) = -(alpha^2/2) lam_prod / cosh^2(alpha x)."""
    if alpha <= 0 or lam_prod <= 0:
        raise ValueError("alpha and lam_prod must be positive")
    with np.errstate(over="ignore"):  # V is -0 where cosh overflows to inf
        try:
            depth = -(alpha**2 / 2.0) * lam_prod
        except OverflowError:  # alpha**2 of a Python float
            depth = -math.inf
        if not math.isfinite(depth):
            raise ValueError("the well depth (alpha^2/2) lam_prod is not finite")
        return depth / np.cosh(alpha * grid.x) ** 2


def initial_gaussian(grid: SpectralGrid) -> np.ndarray:
    """Gaussian sigma*exp(-x^2/2), normalized to unit weighted L2 norm; a
    grid on which it underflows to norm 0 is a `linalg.NumericalError`."""
    with np.errstate(over="ignore"):  # an x^2 of inf gives exp(-inf) = 0
        u = np.exp(-grid.x**2 / 2.0).astype(complex)
    norm = grid.norm(u)
    if not 0.0 < norm < math.inf:
        raise linalg.NumericalError(f"initial state exp(-x^2/2) underflows to norm "
                                    f"{norm} on x in [{grid.x_min}, {grid.x_max}]")
    return u / norm


def _a_action(grid: SpectralGrid, u: np.ndarray) -> np.ndarray:
    """A u = idft(-k^2/2 * dft(u)); A is the minus kinetic matrix."""
    return idft(grid, -grid._half_k2 * dft(grid, u))


@functools.lru_cache(maxsize=1, typed=True)
def _factor_phases(
    scheme: SplittingScheme,
    grid: SpectralGrid,
    h: float,
    v_bytes: bytes,
) -> tuple[tuple[str, complex, np.ndarray, float], ...]:
    """(op, coeff, phase, gain) for each factor of ``scheme``; factors with
    equal (op, coeff) share one phase and gain.  The k distinct phases are
    the rows of one read-only (k, N) array, built by one ``np.exp`` with the
    bits of k per-factor builds.

    ``gain = m*m*(1 + 1e-9)`` with ``m = max|phase|`` bounds the factor's
    growth of the squared norm (see :func:`split_step`).  It is a float
    product, not ``m**2``, so that a huge ``m`` gives ``inf`` instead of
    raising ``OverflowError``.

    The float64 potential arrives as its bytes so that the cache key holds
    its values, not the identity of the caller's array.  The key is typed,
    so that a complex ``h`` cannot hit the entry of an equal real one.
    """
    h = linalg.as_steps(h, 0)
    v_pot = np.frombuffer(v_bytes)
    keys = dict.fromkeys((f.op, f.coeff) for f in scheme.factors)
    phases = np.empty((len(keys), grid.n), dtype=complex)
    for row, (op, c) in zip(phases, keys):
        np.multiply(-1j * h * c, grid._half_k2 if op == "A" else v_pot, out=row)
    np.exp(phases, out=phases)
    phases.flags.writeable = False
    peaks = np.max(np.abs(phases), axis=1).tolist()
    built = {key: (row, m * m * _NORM2_MARGIN) for key, row, m in zip(keys, phases, peaks)}
    return tuple([(f.op, f.coeff, *built[f.op, f.coeff]) for f in scheme.factors])


def split_step(
    scheme: SplittingScheme,
    grid: SpectralGrid,
    v_pot: np.ndarray,
    u,
    h: float,
    counter: FftCounter | None = None,
) -> np.ndarray:
    """One scheme step, matrix-free; returns a new array, ``u`` is not changed.

    A-factor with coefficient c: u <- idft(exp(-i h c k^2/2) * dft(u));
    B-factor: u <- exp(-i h c V(x)) * u  (B = -V diagonal).  Costs two FFTs
    per A-factor.  The step works in one array of its own, a copy of ``u``:
    each FFT and multiply of an A-factor, and a B-factor's multiply, runs in
    place there, so no transform first copies its input into its ``out``.

    The phases of all factors are built once per (scheme, grid, h, values
    of ``v_pot``), and only the most recent such set is kept:
    every caller steps one key many times in a row.  Changing ``v_pot`` in
    place therefore yields fresh phases.  An array or list ``h`` is read
    before the lookup, so a 0-d array steps with the bits of its float.

    After every factor the step raises :class:`linalg.NumericalError` if an
    entry of the state is not finite or exceeds ``OVERFLOW_LIMIT`` in
    modulus.  Since max_j |u_j|^2 <= sum_j |u_j|^2, a squared norm at most
    ``_NORM2_SAFE`` (``OVERFLOW_LIMIT**2`` less a margin for the rounding of
    the sum) proves that no entry exceeds the limit; the exact peak is
    computed only when the computed squared norm is above it, or NaN or
    infinite.

    The squared norm itself is computed only when a cheaper upper bound on
    it fails.  The bound starts at the input's computed squared norm times
    ``1 + 1e-9`` and is multiplied by each factor's cached gain,
    ``max|phase|^2 (1 + 1e-9)``.  It stays an upper bound on the true
    squared norm of the computed state because:

    * a B-factor rounds each product phase_j * u_j by a few units of
      2^-53, so |new_j| <= max|phase| |u_j| (1 + 4 * 2^-53);
    * an A-factor's two FFTs are unitary up to a relative error of
      O(2^-53 log2 N) in the 2-norm, and its multiply is bounded as a
      B-factor's is;
    * the computed norm the bound starts from is within N * 2^-53 of the
      true one, as for ``_NORM2_SAFE``.

    Each of these is far inside the 1e-9 margins for any N that fits in
    memory, and the absolute errors of underflow (about 1e-308 per entry)
    are nothing beside ``_NORM2_SAFE``.  So when the bound is
    at most ``_NORM2_SAFE`` no entry can exceed the limit, and the checks it
    skips are exactly checks that could not raise.  A NaN or infinite bound
    fails every ``<=``, so the squared norm is then computed; when it is,
    the bound restarts from it times ``1 + 1e-9``.  Whether, where and with
    which message the step raises is therefore unchanged.
    """
    # a copy: the caller's array when it is already complex
    state = np.array(_check_length(grid, u))
    v_pot = _check_potential(grid, v_pot)
    if not isinstance(h, (float, int, complex, np.generic)):  # before the cache hashes it
        h = linalg.as_steps(h, 0)[()]
    phases = _factor_phases(scheme, grid, h, v_pot.tobytes())
    bound = float(np.vdot(state, state).real) * _NORM2_MARGIN
    for op, c, phase, gain in phases:
        if op == "A":
            dft(grid, state, counter, out=state)
            np.multiply(phase, state, out=state)
            idft(grid, state, counter, out=state)
        else:
            np.multiply(state, phase, out=state)
        bound *= gain
        if not bound <= _NORM2_SAFE:
            n2 = float(np.vdot(state, state).real)
            if not n2 <= _NORM2_SAFE:
                peak = float(np.max(np.abs(state)))
                if not np.isfinite(peak) or peak > OVERFLOW_LIMIT:
                    raise linalg.NumericalError(
                        f"state overflow in factor ({op}, {c}) at h={h}"
                    )
            bound = n2 * _NORM2_MARGIN
    return state


def observables(grid: SpectralGrid, v_pot: np.ndarray, u) -> dict:
    """Mass dx*sum|u|^2 and energy dx*Re(conj(u) H u), matrix-free, from one
    forward FFT: by Parseval for the unitary DFT, conj(u) A u =
    -sum_k (k^2/2) |u^_k|^2.  For a state (N,) each value is a numpy
    float64; for a stack (K, N) it is an array of K values, and row k has
    the bits of the call on row k alone (one stacked ``dft``, and row
    reductions that sum as the 1-D ones do).
    """
    state, v = _check_length(grid, u, stack=True), _check_potential(grid, v_pot)
    spec = dft(grid, state)
    kinetic = np.vecdot(spec, grid._half_k2 * spec).real  # conjugates its first argument
    form = -grid.dx * (kinetic + np.vecdot(state, v * state))
    mass = grid.dx * np.vecdot(state, state).real
    return {"mass": mass, "energy": form.real}


def rkn_residual(grid: SpectralGrid, v_pot: np.ndarray, u0) -> float:
    """Weighted norm of [B,[B,[B,A]]] u0, computed matrix-free.

    Expands the nested commutator as B^3 A - 3 B^2 A B + 3 B A B^2 - A B^3
    applied right-to-left (A applied once to the stack u0, B u0, B^2 u0,
    B^3 u0: 8 FFTs).  Vanishes to spectral accuracy for resolved
    kinetic/potential splits.
    """
    u = _check_length(grid, u0)
    b = -_check_potential(grid, v_pot)
    a = _a_action(grid, np.stack([u, b * u, b**2 * u, b**3 * u]))
    return grid.norm(b**3 * a[0] - 3.0 * (b**2 * a[1]) + 3.0 * (b * a[2]) - a[3])


def build_dense_hamiltonian(
    grid: SpectralGrid, v_pot: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (A, B, H) with real entries, for oracle checks at small N.

    A is assembled by applying the Fourier action to the stack of canonical
    basis vectors, column j from row j; B = diag(-V); H = A + B is real
    symmetric to round-off.
    """
    if grid.n > DENSE_MAX_N:
        raise ValueError(f"dense assembly limited to N <= {DENSE_MAX_N}")
    b = np.diag(-_check_potential(grid, v_pot))
    a = np.ascontiguousarray(_a_action(grid, np.eye(grid.n, dtype=complex)).T)
    if np.max(np.abs(a.imag)) > 1e-12 * max(np.max(np.abs(a.real)), 1.0):
        raise linalg.NumericalError("kinetic matrix has unexpected imaginary part")
    a = a.real
    return a, b, a + b


def pt_empirical_order(
    scheme: SplittingScheme,
    grid: SpectralGrid,
    v_pot: np.ndarray,
    h_grid,
) -> OrderFit:
    """Single-step error order from the Gaussian initial state u0, against
    the exact flow Q diag(e^{i h lam}) Q^T u0 of the dense H = Q diag(lam) Q^T,
    which is diagonalised once for the whole grid.  A step that overflows has
    an infinite error, which the fit reports as a failed h."""
    h_arr = linalg.as_steps(h_grid, 1)
    u = initial_gaussian(grid)
    _, _, h_dense = build_dense_hamiltonian(grid, v_pot)
    lam, q = linalg.eig_symmetric(h_dense)
    qu = q.T @ u
    errors = []
    with np.errstate(over="ignore", invalid="ignore"):  # split_step checks it
        for h in h_arr.tolist():
            try:
                errors.append(grid.norm(split_step(scheme, grid, v_pot, u, h)
                                        - q @ (np.exp(1j * h * lam) * qu)))
            except linalg.NumericalError:
                errors.append(math.inf)
    return fit_loglog(h_arr, errors)

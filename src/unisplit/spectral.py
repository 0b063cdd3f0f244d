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
    "reference_solution",
    "pt_empirical_order",
]

OVERFLOW_LIMIT = 1e12

#: Squared norm below which no entry of a state can exceed OVERFLOW_LIMIT.
#: The relative margin covers the rounding of the sum of |u_j|^2, at most
#: about N * 2^-53, which stays below 1e-9 for N up to about 9e6.
_NORM2_SAFE = OVERFLOW_LIMIT**2 * (1.0 - 1e-9)


@dataclass
class FftCounter:
    """Per-run transform counter; one dft or idft call counts one FFT."""

    count: int = 0

    def reset(self) -> None:
        self.count = 0


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic equispaced grid with standard-DFT-ordered wavenumbers."""

    n: int = 256
    x_min: float = -8.0
    x_max: float = 8.0

    def __post_init__(self):
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError(f"N must be a power of two, got {self.n}")
        if self.x_max <= self.x_min:
            raise ValueError("empty interval")

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    @property
    def k(self) -> np.ndarray:
        # 2*pi*m/L for m in {0,...,N/2-1, -N/2,...,-1}; the Nyquist mode keeps
        # k = -pi*N/L (sign immaterial, k enters only through k^2)
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=1.0 / self.n) / self.length

    def norm(self, u) -> float:
        """Weighted discrete L2 norm sqrt(dx * sum |u|^2)."""
        u = np.asarray(u)
        return float(math.sqrt(self.dx * np.sum(np.abs(u) ** 2)))


def _check_length(grid: SpectralGrid, u: np.ndarray) -> np.ndarray:
    v = np.asarray(u, dtype=complex)
    if v.shape != (grid.n,):
        raise linalg.DimensionError(f"expected length {grid.n}, got {v.shape}")
    return v


def dft(grid: SpectralGrid, u, counter: FftCounter | None = None) -> np.ndarray:
    """Unitary forward DFT; increments ``counter``, if given, by one."""
    if counter is not None:
        counter.count += 1
    return np.fft.fft(_check_length(grid, u), norm="ortho")


def idft(grid: SpectralGrid, u, counter: FftCounter | None = None) -> np.ndarray:
    """Unitary inverse DFT; increments ``counter``, if given, by one."""
    if counter is not None:
        counter.count += 1
    return np.fft.ifft(_check_length(grid, u), norm="ortho")


def pt_potential(
    grid: SpectralGrid, alpha: float = 1.0, lam_prod: float = 10.0
) -> np.ndarray:
    """Modified Poeschl-Teller well V(x) = -(alpha^2/2) lam_prod / cosh^2(alpha x)."""
    if alpha <= 0 or lam_prod <= 0:
        raise ValueError("alpha and lam_prod must be positive")
    return -(alpha**2 / 2.0) * lam_prod / np.cosh(alpha * grid.x) ** 2


def initial_gaussian(grid: SpectralGrid) -> np.ndarray:
    """Gaussian sigma*exp(-x^2/2), normalized to unit weighted L2 norm."""
    u = np.exp(-grid.x**2 / 2.0).astype(complex)
    return u / grid.norm(u)


@functools.lru_cache(maxsize=1)
def _half_k2(grid: SpectralGrid) -> np.ndarray:
    """k^2/2 on ``grid``, read-only; -k^2/2 is the Fourier symbol of A."""
    half_k2 = grid.k**2 / 2.0
    half_k2.flags.writeable = False
    return half_k2


def _a_action(grid: SpectralGrid, u: np.ndarray, counter: FftCounter | None) -> np.ndarray:
    """A u = idft(-k^2/2 * dft(u)); A is the minus kinetic matrix."""
    return idft(grid, -_half_k2(grid) * dft(grid, u, counter), counter)


@functools.lru_cache(maxsize=1)
def _factor_phases(
    scheme: SplittingScheme,
    grid: SpectralGrid,
    h: float,
    v_dtype: str,
    v_shape: tuple[int, ...],
    v_bytes: bytes,
) -> tuple[tuple[str, complex, np.ndarray], ...]:
    """(op, coeff, phase) for each factor of ``scheme``; phases are read-only.

    The potential arrives as its dtype, shape and bytes so that the cache
    key holds its values, not the identity of the caller's array.
    """
    v_pot = np.frombuffer(v_bytes, dtype=v_dtype).reshape(v_shape)
    k2 = _half_k2(grid)
    factors = []
    for f in scheme.factors:
        c = f.coeff
        phase = np.exp(-1j * h * c * (k2 if f.op == "A" else v_pot))
        phase.flags.writeable = False
        factors.append((f.op, c, phase))
    return tuple(factors)


def split_step(
    scheme: SplittingScheme,
    grid: SpectralGrid,
    v_pot: np.ndarray,
    u,
    h: float,
    counter: FftCounter | None = None,
) -> np.ndarray:
    """One scheme step, matrix-free.

    A-factor with coefficient c: u <- idft(exp(-i h c k^2/2) * dft(u));
    B-factor: u <- exp(-i h c V(x)) * u  (B = -V diagonal).  Costs two FFTs
    per A-factor.

    The phases of all factors are built once per (scheme, grid, h, values,
    dtype and shape of ``v_pot``), and only the most recent such set is kept:
    every caller steps one key many times in a row.  Changing ``v_pot`` in
    place therefore yields fresh phases.

    After every factor the step raises :class:`linalg.NumericalError` if an
    entry of the state is not finite or exceeds ``OVERFLOW_LIMIT`` in
    modulus.  Since max_j |u_j|^2 <= sum_j |u_j|^2, a squared norm below
    ``OVERFLOW_LIMIT**2`` (less a margin for the rounding of the sum) proves
    that no entry exceeds the limit; the exact peak is computed only when
    that bound fails, or is NaN or infinite.
    """
    state = _check_length(grid, u)
    v_pot = np.asarray(v_pot)
    phases = _factor_phases(scheme, grid, h, v_pot.dtype.str, v_pot.shape,
                            v_pot.tobytes())
    for op, c, phase in phases:
        if op == "A":
            state = idft(grid, phase * dft(grid, state, counter), counter)
        else:
            state = state * phase
        if not np.vdot(state, state).real <= _NORM2_SAFE:
            peak = float(np.max(np.abs(state)))
            if not np.isfinite(peak) or peak > OVERFLOW_LIMIT:
                raise linalg.NumericalError(
                    f"state overflow in factor ({op}, {c}) at h={h}"
                )
    return state


def observables(grid: SpectralGrid, v_pot: np.ndarray, u) -> dict[str, float]:
    """Mass dx*sum|u|^2 and energy dx*Re(conj(u) H u), computed matrix-free.

    ``energy_imag`` records the imaginary residual of the Hermitian form as a
    sanity value.
    """
    state = _check_length(grid, u)
    counter = FftCounter()  # observable FFTs are not part of stepping cost
    hu = _a_action(grid, state, counter) - v_pot * state
    form = grid.dx * complex(np.vdot(state, hu))
    mass = grid.dx * float(np.sum(np.abs(state) ** 2))
    return {"mass": mass, "energy": form.real, "energy_imag": form.imag}


def rkn_residual(grid: SpectralGrid, v_pot: np.ndarray, u0) -> float:
    """Weighted norm of [B,[B,[B,A]]] u0, computed matrix-free.

    Expands the nested commutator as B^3 A - 3 B^2 A B + 3 B A B^2 - A B^3
    applied right-to-left (4 A-applications, 8 FFTs).  Vanishes to spectral
    accuracy for resolved kinetic/potential splits.
    """
    u = _check_length(grid, u0)
    counter = FftCounter()
    b_diag = -np.asarray(v_pot)

    def a_op(w):
        return _a_action(grid, w, counter)

    def b_pow(w, p):
        return (b_diag**p) * w

    total = (
        b_pow(a_op(u), 3)
        - 3.0 * b_pow(a_op(b_pow(u, 1)), 2)
        + 3.0 * b_pow(a_op(b_pow(u, 2)), 1)
        - a_op(b_pow(u, 3))
    )
    return grid.norm(total)


def build_dense_hamiltonian(
    grid: SpectralGrid, v_pot: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (A, B, H) with real entries, for oracle checks at small N.

    A is assembled by applying the Fourier action to canonical basis vectors;
    B = diag(-V); H = A + B is real symmetric to round-off.
    """
    if grid.n > 1024:
        raise ValueError("dense assembly limited to N <= 1024")
    counter = FftCounter()
    cols = [_a_action(grid, e, counter) for e in np.eye(grid.n, dtype=complex)]
    a = np.stack(cols, axis=1)
    if np.max(np.abs(a.imag)) > 1e-12 * max(np.max(np.abs(a.real)), 1.0):
        raise linalg.NumericalError("kinetic matrix has unexpected imaginary part")
    a = a.real
    b = np.diag(-np.asarray(v_pot, dtype=float))
    return a, b, a + b


def reference_solution(h_matrix, u0, t: float) -> np.ndarray:
    """Exact flow Q diag(e^{it lam}) Q^T u0 via the symmetric eigendecomposition."""
    lam, q = linalg.eig_symmetric(h_matrix)
    return q @ (np.exp(1j * t * lam) * (q.T @ np.asarray(u0, dtype=complex)))


def pt_empirical_order(
    scheme: SplittingScheme,
    grid: SpectralGrid,
    v_pot: np.ndarray,
    h_grid,
    u0=None,
) -> OrderFit:
    """Single-step error order on the spectral problem, against the dense
    eigendecomposition reference."""
    u = initial_gaussian(grid) if u0 is None else _check_length(grid, u0)
    _, _, h_dense = build_dense_hamiltonian(grid, v_pot)
    errors = []
    for h in h_grid:
        approx = split_step(scheme, grid, v_pot, u, float(h))
        exact = reference_solution(h_dense, u, float(h))
        errors.append(grid.norm(approx - exact))
    return fit_loglog(h_grid, errors)

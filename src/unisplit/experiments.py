"""Seeded random-matrix classes, unit-modulus sweeps and the spectral
long-time conservation run.

Random matrices are drawn from a counter-based Philox generator keyed by
(seed, substream), so identical specs produce bit-identical matrices on any
platform.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from unisplit import linalg, spectral
from unisplit.propagator import step_matrix
from unisplit.schemes import SplittingScheme

__all__ = [
    "MatrixClass",
    "MatrixClassSpec",
    "DiagnosticSeries",
    "generate",
    "dh_sweep",
    "conservation_run",
    "drift_slope",
]

#: Unit-modulus threshold below which an eigenvalue counts as "1 up to round-off".
DH_THRESHOLD = 1e-10

#: Minimum eigenvalue gap for "simple spectrum" classes.
EIGENVALUE_GAP = 1e-6

#: Most states, and most bytes of them, per stacked observation in ``conservation_run``.
_BLOCK_ROWS, _BLOCK_BYTES = 32, 2**19


class MatrixClass(enum.Enum):
    SYM_SIMPLE = "SYM_SIMPLE"
    SYM_SIMPLE_NONSYM_SPLIT = "SYM_SIMPLE_NONSYM_SPLIT"
    REAL_SIMPLE_EIGS = "REAL_SIMPLE_EIGS"
    ARBITRARY = "ARBITRARY"
    MULTIPLE_EIGS_DIAG = "MULTIPLE_EIGS_DIAG"
    MULTIPLE_EIGS_NONSYM_SPLIT = "MULTIPLE_EIGS_NONSYM_SPLIT"


@dataclass(frozen=True)
class MatrixClassSpec:
    matrix_class: MatrixClass
    n: int = 10
    seed: int = 0
    multiplicities: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be at least 2")
        cls = self.matrix_class
        if cls in (MatrixClass.MULTIPLE_EIGS_DIAG,
                   MatrixClass.MULTIPLE_EIGS_NONSYM_SPLIT):
            mult = self.multiplicities or (self.n // 2, self.n - self.n // 2)
            object.__setattr__(self, "multiplicities", tuple(mult))
            if sum(self.multiplicities) != self.n:
                raise ValueError(
                    f"multiplicities {self.multiplicities} do not sum to n={self.n}"
                )


def _rng(spec: MatrixClassSpec, substream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[spec.seed, substream]))


def _uniform(spec: MatrixClassSpec, substream: int) -> np.ndarray:
    return _rng(spec, substream).uniform(0.0, 1.0, size=(spec.n, spec.n))


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def _distinct_values(rng: np.random.Generator, n: int) -> np.ndarray | None:
    vals = np.sort(rng.uniform(0.0, 1.0, size=n))
    if n > 1 and np.min(np.diff(vals)) <= EIGENVALUE_GAP:  # one value is distinct
        return None
    return vals


def generate(spec: MatrixClassSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H, A, B) real matrices with H = A + B exactly, per the class recipe.

    Specs that happen to draw a near-degenerate "simple" spectrum (gap below
    ``EIGENVALUE_GAP``) regenerate from the next substream.
    """
    cls = spec.matrix_class
    if cls is MatrixClass.SYM_SIMPLE:
        h = _sym(_uniform(spec, 0))
        a = _sym(_uniform(spec, 1))
        return h, a, h - a
    if cls is MatrixClass.SYM_SIMPLE_NONSYM_SPLIT:
        h = _sym(_uniform(spec, 0))
        a = _uniform(spec, 1)
        return h, a, h - a
    if cls is MatrixClass.REAL_SIMPLE_EIGS:
        for attempt in range(64):
            rng = _rng(spec, 10 + attempt)
            vals = _distinct_values(rng, spec.n)
            if vals is None:
                continue
            p = rng.uniform(0.0, 1.0, size=(spec.n, spec.n)) + np.eye(spec.n)
            if np.linalg.cond(p) > 1e4:
                continue
            h = p @ np.diag(vals) @ np.linalg.inv(p)
            a = rng.uniform(0.0, 1.0, size=(spec.n, spec.n))
            return h, a, h - a
        raise linalg.NumericalError("could not draw a well-conditioned spectrum")
    if cls is MatrixClass.ARBITRARY:
        h = _uniform(spec, 0)
        a = _uniform(spec, 1)
        return h, a, h - a
    if cls in (MatrixClass.MULTIPLE_EIGS_DIAG,
               MatrixClass.MULTIPLE_EIGS_NONSYM_SPLIT):
        for attempt in range(64):
            rng = _rng(spec, 10 + attempt)
            distinct = _distinct_values(rng, len(spec.multiplicities))
            if distinct is None:
                continue
            vals = np.repeat(distinct, spec.multiplicities)
            q, _ = np.linalg.qr(rng.standard_normal((spec.n, spec.n)))
            h = q @ np.diag(vals) @ q.T
            if cls is MatrixClass.MULTIPLE_EIGS_DIAG:
                a = _sym(rng.uniform(0.0, 1.0, size=(spec.n, spec.n)))
            else:
                a = rng.uniform(0.0, 1.0, size=(spec.n, spec.n))
            return h, a, h - a
        raise linalg.NumericalError("could not draw distinct repeated eigenvalues")
    raise ValueError(f"unknown matrix class {cls}")


@dataclass
class DiagnosticSeries:
    """Tabular diagnostic record: one abscissa column plus named value columns."""

    abscissa: str
    columns: tuple[str, ...]
    rows: list[tuple[float, ...]] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, x: float, values: dict[str, float]) -> None:
        if self.rows and x <= self.rows[-1][0]:
            raise ValueError("abscissa must be strictly increasing")
        row = (float(x),) + tuple(float(values[c]) for c in self.columns)
        if not all(map(math.isfinite, row)):
            raise ValueError(f"non-finite diagnostic value at {self.abscissa}={x}")
        self.rows.append(row)

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name) + 1
        return np.array([r[idx] for r in self.rows])

    @property
    def x(self) -> np.ndarray:
        return np.array([r[0] for r in self.rows])

    def to_csv(self) -> str:
        lines = [",".join((self.abscissa,) + self.columns)]
        for row in self.rows:
            lines.append(",".join(f"{v:.17g}" for v in row))
        return "\n".join(lines) + "\n"


def dh_sweep(
    scheme: SplittingScheme,
    a,
    b,
    h_grid,
    threshold: float = DH_THRESHOLD,
) -> DiagnosticSeries:
    """D_h = max_j || |omega_j| - 1 || over the eigenvalues of S_h, per h.

    ``series.meta['h_star']`` records the largest grid point below the first h
    with D_h > threshold (None when the very first point already exceeds it).
    Eigensolver failures are recorded per-point and the sweep continues.
    """
    series = DiagnosticSeries(abscissa="h", columns=("D_h",))
    failures: list[float] = []
    h_star = None
    exceeded = False
    h_sorted = sorted(float(x) for x in h_grid)
    stack = step_matrix(scheme, a, b, np.array(h_sorted))

    def d_of(m):  # D_h of each matrix of m: a float, or a list for a stack
        return np.max(np.abs(np.abs(linalg.eig_general(m)) - 1.0), axis=-1).tolist()

    try:
        d_hs = d_of(stack)
    except linalg.NumericalError:
        # redo per matrix, so that only the failing points are dropped
        d_hs = []
        for s_h in stack:
            try:
                d_hs.append(d_of(s_h))
            except linalg.NumericalError:
                d_hs.append(None)
    for h, d_h in zip(h_sorted, d_hs):
        if d_h is None:
            failures.append(h)
            continue
        series.add(h, {"D_h": d_h})
        if not exceeded:
            if d_h > threshold:
                exceeded = True
            else:
                h_star = h
    series.meta["h_star"] = h_star
    series.meta["failures"] = failures
    return series


def conservation_run(
    scheme: SplittingScheme,
    grid: spectral.SpectralGrid,
    v_pot: np.ndarray,
    u0,
    h: float,
    n_steps: int,
    sample_every: int = 1,
) -> DiagnosticSeries:
    """Take ``n_steps`` steps of ``scheme`` from ``u0`` with
    :func:`spectral.split_step` and record how mass and energy are kept.

    At every step n with ``n % sample_every == 0``, and at the last step, a
    row records ``t`` = n h, ``mass_err`` = |M(u_n) - M(u_0)| and
    ``energy_err`` = |E(u_n) - E(u_0)| (from :func:`spectral.observables`)
    and ``fft_count``, the stepping FFTs so far.  An overflow, which
    ``split_step`` reports as :class:`linalg.NumericalError`, ends the run:
    ``meta["aborted_at_step"]`` and ``meta["aborted"]`` record the step and
    the message, and the rows before it are kept.

    Sampled states are copied into a block (at most ``_BLOCK_ROWS`` rows and
    ``_BLOCK_BYTES`` bytes) that one stacked ``observables`` call evaluates
    when full and at the end; each row has the bits of a single call.
    """
    counter = spectral.FftCounter()
    obs0 = spectral.observables(grid, v_pot, u0)
    series = DiagnosticSeries(
        abscissa="t", columns=("mass_err", "energy_err", "fft_count")
    )
    # one row per sample (the ceiling of n_steps / sample_every), within the bounds
    rows = min(_BLOCK_ROWS, _BLOCK_BYTES // (16 * grid.n), -(-n_steps // sample_every))
    block = np.empty((max(1, rows), grid.n), dtype=complex)
    pending: list[tuple[int, int]] = []  # (step, fft_count) of each block row

    def observe():
        obs = spectral.observables(grid, v_pot, block[:len(pending)])
        for (n, count), mass, energy in zip(pending, obs["mass"], obs["energy"]):
            series.add(n * h, {"mass_err": abs(mass - obs0["mass"]), "fft_count": count,
                               "energy_err": abs(energy - obs0["energy"])})
        pending.clear()

    u = u0
    # an overflow is reported by split_step's own check, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_steps + 1):
            try:
                u = spectral.split_step(scheme, grid, v_pot, u, h, counter)
            except linalg.NumericalError as exc:
                series.meta["aborted_at_step"] = n
                series.meta["aborted"] = str(exc)
                break
            if n % sample_every == 0 or n == n_steps:
                block[len(pending)] = u
                pending.append((n, counter.count))
                if len(pending) == len(block):
                    observe()
        if pending:
            observe()
    return series


def drift_slope(series: DiagnosticSeries, column: str) -> float:
    """Ordinary least-squares slope of an error column against step index."""
    y = series.column(column)
    x = series.x
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)

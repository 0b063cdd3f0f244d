"""Seeded random-matrix classes, unit-modulus sweeps and the spectral
long-time conservation run.

Random matrices are drawn from a counter-based Philox generator keyed by
(seed, substream), so identical specs produce bit-identical matrices on any
platform.
"""

from __future__ import annotations

import enum
import itertools
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
    """Only the MULTIPLE_EIGS classes read multiplicities: (n//2, n - n//2) if None."""

    matrix_class: MatrixClass
    n: int = 10
    seed: int = 0
    multiplicities: tuple[int, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.matrix_class, MatrixClass):
            raise ValueError(f"unknown matrix class {self.matrix_class!r}")
        if self.n < 2:
            raise ValueError("dimension must be at least 2")
        mult = self.multiplicities
        if not self.matrix_class.name.startswith("MULTIPLE_EIGS"):
            if mult is not None:
                raise ValueError(f"matrix class {self.matrix_class.name} reads no "
                                 f"multiplicities, got {mult}")
            return
        mult = tuple((self.n // 2, self.n - self.n // 2) if mult is None else mult)
        object.__setattr__(self, "multiplicities", mult)
        if sum(mult) != self.n:
            raise ValueError(f"multiplicities {mult} do not sum to n={self.n}")
        if min(mult) < 1:
            raise ValueError(f"multiplicities {mult} must all be at least 1")


def _rng(spec: MatrixClassSpec, substream: int) -> np.random.Generator:
    key = np.array([spec.seed, substream], dtype=np.uint64)  # exact up to 2**64 - 1
    return np.random.Generator(np.random.Philox(key=key))


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def _distinct_values(rng: np.random.Generator, n: int) -> np.ndarray | None:
    vals = np.sort(rng.uniform(0.0, 1.0, size=n))
    if n > 1 and np.min(np.diff(vals)) <= EIGENVALUE_GAP:  # one value is distinct
        return None
    return vals


def generate(spec: MatrixClassSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H, A, B) real matrices with H = A + B exactly, per the class recipe.

    SYM_SIMPLE, SYM_SIMPLE_NONSYM_SPLIT and ARBITRARY draw H and A uniform
    from substreams 0 and 1.  The other classes draw H from a spectrum, and
    a draw whose distinct eigenvalues come closer than ``EIGENVALUE_GAP`` (or,
    for REAL_SIMPLE_EIGS, whose eigenvector matrix is ill-conditioned) is
    redrawn from the next substream.
    """
    cls, n, mc = spec.matrix_class, spec.n, MatrixClass
    if cls in (mc.SYM_SIMPLE, mc.SYM_SIMPLE_NONSYM_SPLIT, mc.ARBITRARY):
        h, a = (_rng(spec, k).uniform(0.0, 1.0, size=(n, n)) for k in (0, 1))
        h = h if cls is mc.ARBITRARY else _sym(h)
        a = _sym(a) if cls is mc.SYM_SIMPLE else a
        return h, a, h - a
    mult = spec.multiplicities or (1,) * n  # REAL_SIMPLE_EIGS: n simple eigenvalues
    for attempt in range(64):
        rng = _rng(spec, 10 + attempt)
        vals = _distinct_values(rng, len(mult))
        if vals is None:
            continue
        if cls is mc.REAL_SIMPLE_EIGS:
            p = rng.uniform(0.0, 1.0, size=(n, n)) + np.eye(n)
            if np.linalg.cond(p) > 1e4:
                continue
            h = p @ np.diag(vals) @ np.linalg.inv(p)
        else:
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            h = q @ np.diag(np.repeat(vals, mult)) @ q.T
        a = rng.uniform(0.0, 1.0, size=(n, n))
        a = _sym(a) if cls is mc.MULTIPLE_EIGS_DIAG else a
        return h, a, h - a
    raise linalg.NumericalError(f"could not draw a {cls.name} spectrum in 64 attempts")


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


def dh_sweep(scheme: SplittingScheme, a, b, h_grid) -> DiagnosticSeries:
    """D_h = max_j || |omega_j| - 1 || over the eigenvalues of S_h, per h.

    ``series.meta['h_star']`` records the largest grid point below the first h
    with D_h > `DH_THRESHOLD` (None when the first point already exceeds it).
    A point whose step matrix or eigenvalues overflow, or whose eigensolver
    fails, is recorded in ``meta['failures']`` and the sweep continues.
    """
    series = DiagnosticSeries(abscissa="h", columns=("D_h",))
    failures: list[float] = []
    h_sorted = np.sort(linalg.as_steps(h_grid))

    def d_of(m):  # D_h of each matrix of m: a float, or a list for a stack
        return np.max(np.abs(np.abs(linalg.eig_general(m)) - 1.0), axis=-1).tolist()

    # an overflow, of a step matrix or of its eigenvalues (LAPACK can return
    # inf for a finite matrix), is a non-finite D_h, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        stack = step_matrix(scheme, a, b, h_sorted)
        try:
            d_hs = d_of(stack)
        except linalg.NumericalError:
            # redo per matrix, so that only the failing points are dropped
            d_hs = []
            for s_h in stack:
                try:
                    d_hs.append(d_of(s_h))
                except linalg.NumericalError:
                    d_hs.append(math.nan)
    for h, d_h in zip(h_sorted.tolist(), d_hs):
        if not math.isfinite(d_h):
            failures.append(h)
        else:
            series.add(h, {"D_h": d_h})
    below = itertools.takewhile(lambda row: row[1] <= DH_THRESHOLD, series.rows)
    series.meta["h_star"] = max((row[0] for row in below), default=None)
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
    the message, and the rows before it are kept.  A run that did not abort
    but whose largest ``mass_err`` exceeds M(u_0) blew up below the overflow
    bound; ``meta["unstable"]`` records the two values.

    Sampled states are copied into a block (at most ``_BLOCK_ROWS`` rows and
    ``_BLOCK_BYTES`` bytes) that one stacked ``observables`` call evaluates
    when full and at the end; each row has the bits of a single call.
    ``n_steps`` and ``sample_every`` are integers >= 1 and ``h`` is finite
    and > 0, or a ValueError before any step; a complex ``h`` is a
    TypeError.
    """
    for key, k in (("n_steps", n_steps), ("sample_every", sample_every)):
        if not isinstance(k, (int, np.integer)) or k < 1:
            raise ValueError(f"{key} must be an integer >= 1, got {k!r}")
    linalg.as_steps(h)
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
    worst = max((row[1] for row in series.rows), default=0.0)
    if "aborted" not in series.meta and worst > obs0["mass"]:
        series.meta["unstable"] = (f"max mass error {worst:.17g} exceeds the "
                                   f"initial mass {obs0['mass']:.17g}")
    return series


def drift_slope(series: DiagnosticSeries, column: str) -> float:
    """Least-squares slope of an error column against the abscissa, from 2+ rows."""
    if len(series.rows) < 2:
        raise ValueError(f"a slope needs two rows or more, got {len(series.rows)}")
    y = series.column(column)
    x = series.x
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)

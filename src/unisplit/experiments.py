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
        if not _integer_in(self.n, 2, math.inf):
            raise ValueError(f"dimension must be at least 2 and an integer, got {self.n!r}")
        if not _integer_in(self.seed, 0, 2**64 - 1):
            raise ValueError(f"seed must be an integer in [0, 2**64 - 1], got {self.seed!r}")
        mult = self.multiplicities
        if not self.matrix_class.name.startswith("MULTIPLE_EIGS"):
            if mult is not None:
                raise ValueError(f"matrix class {self.matrix_class.name} reads no "
                                 f"multiplicities, got {mult}")
            return
        mult = tuple((self.n // 2, self.n - self.n // 2) if mult is None else mult)
        object.__setattr__(self, "multiplicities", mult)
        if not all(_integer_in(k, 1, math.inf) for k in mult):
            raise ValueError(f"multiplicities {mult} must all be integers at least 1")
        if sum(mult) != self.n:
            raise ValueError(f"multiplicities {mult} do not sum to n={self.n}")


def _integer_in(k, low, high) -> bool:
    """Whether ``k`` is an int or numpy integer, not a bool, in [low, high]."""
    return not isinstance(k, bool) and isinstance(k, (int, np.integer)) and low <= k <= high


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
        self.extend([(x, *[values[c] for c in self.columns])])

    def extend(self, rows) -> None:
        """Append rows (x, one value per column) as floats.  The first row
        whose x does not exceed the x before it, or that has a wrong width
        or a non-finite entry, raises a ValueError, and no row is added."""
        width = 1 + len(self.columns)
        block, last = [], self.rows[-1][0] if self.rows else None
        for raw in rows:
            if last is not None and raw[0] <= last:
                raise ValueError("abscissa must be strictly increasing")
            row = tuple(map(float, raw))
            if len(row) != width:
                raise ValueError(f"a row has {len(row)} entries, expected {width}")
            if not all(map(math.isfinite, row)):
                raise ValueError(f"non-finite diagnostic value at {self.abscissa}={raw[0]}")
            block.append(row)
            last = row[0]
        self.rows.extend(block)

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name) + 1
        return np.array([r[idx] for r in self.rows])

    @property
    def x(self) -> np.ndarray:
        return np.array([r[0] for r in self.rows])


def dh_sweep(scheme: SplittingScheme, a, b, h_grid) -> DiagnosticSeries:
    """D_h = max_j || |omega_j| - 1 || over the eigenvalues of S_h, per h.

    ``series.meta['h_star']`` records the largest grid point below the first h
    with D_h > `DH_THRESHOLD` (None when the first point already exceeds it).
    A point whose step matrix or eigenvalues overflow, or whose eigensolver
    fails, is recorded in ``meta['failures']`` and the sweep continues.
    """
    series = DiagnosticSeries(abscissa="h", columns=("D_h",))
    h_sorted = np.sort(linalg.as_steps(h_grid, 1))

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
    points = list(zip(h_sorted.tolist(), d_hs))
    series.extend([(h, d_h) for h, d_h in points if math.isfinite(d_h)])
    failures = [h for h, d_h in points if not math.isfinite(d_h)]
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
    when full and at the end, and whose rows one ``extend`` appends; each
    row has the bits of a single call.  ``n_steps`` and ``sample_every`` are
    integers >= 1, or a ValueError, and ``h`` is read as a float by
    ``linalg.as_steps(h, 0)``, both before any step; the steps and ``t``
    both use that float.
    """
    for key, k in (("n_steps", n_steps), ("sample_every", sample_every)):
        if not isinstance(k, (int, np.integer)) or k < 1:
            raise ValueError(f"{key} must be an integer >= 1, got {k!r}")
    h = float(linalg.as_steps(h, 0))
    counter = spectral.FftCounter()
    obs0 = spectral.observables(grid, v_pot, u0)
    mass0, energy0 = float(obs0["mass"]), float(obs0["energy"])
    series = DiagnosticSeries(
        abscissa="t", columns=("mass_err", "energy_err", "fft_count")
    )
    # one row per sample (the ceiling of n_steps / sample_every), within the bounds
    rows = min(_BLOCK_ROWS, _BLOCK_BYTES // (16 * grid.n), -(-n_steps // sample_every))
    block = np.empty((max(1, rows), grid.n), dtype=complex)
    pending: list[tuple[int, int]] = []  # (step, fft_count) of each block row

    def observe():
        obs = spectral.observables(grid, v_pot, block[:len(pending)])
        series.extend([(n * h, abs(m - mass0), abs(e - energy0), count) for (n, count), m, e
                       in zip(pending, obs["mass"].tolist(), obs["energy"].tolist())])
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
    if "aborted" not in series.meta and worst > mass0:
        series.meta["unstable"] = (f"max mass error {worst:.17g} exceeds the "
                                   f"initial mass {mass0:.17g}")
    return series


def drift_slope(series: DiagnosticSeries, column: str) -> float:
    """Least-squares slope of an error column against the abscissa, from 2+ rows."""
    if len(series.rows) < 2:
        raise ValueError(f"a slope needs two rows or more, got {len(series.rows)}")
    y = series.column(column)
    x = series.x
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)

"""Reference work for normalising timings, and the tail percentile.

On a shared machine the core itself can run about twice as slow for seconds
to minutes at a time (CPU time stretches as much as wall time), which moves
raw times of whole runs far more than any change to the program would.  A
fixed piece of numpy, scipy and Python work shaped like the workload's own
slows down by about the same factor.  It is timed between units every
REFERENCE_EVERY_NS, so its mean around a unit follows the machine's speed
while the unit ran, and the unit's time divided by that mean is steady
across those phases.  The reference uses no unisplit code, so a change to
the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

_WAVE = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
               + 0.5j * np.sin(np.linspace(0.0, 8.0 * np.pi, 256, endpoint=False)))
_MATRIX = (np.arange(100.0).reshape(10, 10) % 7.0) / 7.0 + np.eye(10)

#: Interval between two samples of the reference work within a pass.
REFERENCE_EVERY_NS = 40_000_000


def _spectral_work() -> None:
    # length-256 FFTs with elementwise complex arithmetic, as in a split step
    y = _WAVE
    for _ in range(25):
        y = np.fft.ifft(np.exp(-0.1j * np.abs(y)) * np.fft.fft(y))
        float(np.max(np.abs(y)))


def _dense_work() -> None:
    # small dense exponentials, products and eigenvalues, as in a step matrix
    s = np.eye(10, dtype=complex)
    for _ in range(8):
        s = scipy.linalg.expm(0.1j * _MATRIX) @ s
    np.linalg.eigvals(s)


def _python_work(n: int) -> None:
    # interpreted Python: dict updates, float arithmetic, number formatting
    table: dict[int, float] = {}
    for i in range(n):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
    ",".join(f"{v:.17g}" for v in table.values())


#: Reference work per kind of workload, shaped like what that workload
#: spends its time in; each takes one to two milliseconds.
REFERENCES = {
    "spectral": lambda: (_spectral_work(), _python_work(1000)),
    "cli": lambda: (_spectral_work(), _python_work(3000)),
    "dense": lambda: (_dense_work(), _python_work(1000)),
}


def reference_ns(kind: str) -> int:
    """Time of one piece of the reference work of the given kind."""
    work = REFERENCES[kind]
    t0 = time.perf_counter_ns()
    work()
    return time.perf_counter_ns() - t0


def tail(values: list[float]) -> dict:
    """Highest percentile with at least 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 11, 0)
    return {"value": ordered[k], "percentile": 100.0 * (k + 1) / n,
            "beyond": n - k - 1, "samples": n}

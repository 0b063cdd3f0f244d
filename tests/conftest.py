"""Shared fixtures: small random splits, spectral grids and the eigenphase
measure reused across files."""

import numpy as np
import pytest

from unisplit import experiments, linalg, propagator, spectral


@pytest.fixture(scope="session")
def sym_split():
    """Random real symmetric (H, A, B) with H = A + B, n=10, seed 0."""
    spec = experiments.MatrixClassSpec(
        matrix_class=experiments.MatrixClass.SYM_SIMPLE, n=10, seed=0
    )
    return experiments.generate(spec)


def _eigenphase_errors(scheme, a, b, h_grid):
    """(errors, ambiguous): per h, the largest distance from an eigenvalue of
    S_h to its nearest exact phase exp(i h lam), with lam the eigenvalues of
    the real symmetric A + B; and the h at which some pairing is ambiguous,
    a second exact phase lying within twice the nearest one's distance."""
    lam, _ = linalg.eig_symmetric(a + b)
    omega = linalg.eig_general(propagator.step_matrix(scheme, a, b, h_grid))
    # dist[k, i, j] = |omega_i - exp(i h_k lam_j)|
    dist = np.abs(omega[:, :, None] - np.exp(1j * h_grid[:, None, None] * lam))
    near = dist.min(axis=2)
    second = np.partition(dist, 1, axis=2)[:, :, 1]
    return near.max(axis=1), h_grid[(second < 2.0 * near).any(axis=1)].tolist()


@pytest.fixture(scope="session")
def eigenphase_errors():
    """Criterion 6's measure, eigenphase_errors(scheme, a, b, h_grid)."""
    return _eigenphase_errors


@pytest.fixture(scope="session")
def grid32():
    return spectral.SpectralGrid(n=32)


@pytest.fixture(scope="session")
def grid64():
    return spectral.SpectralGrid(n=64)


@pytest.fixture(scope="session")
def pt64(grid64):
    """(grid, V, A, B, H) for the Poeschl-Teller well at N=64."""
    v = spectral.pt_potential(grid64)
    a, b, h = spectral.build_dense_hamiltonian(grid64, v)
    return grid64, v, a, b, h


@pytest.fixture(scope="session")
def grid256():
    return spectral.SpectralGrid(n=256)


@pytest.fixture(scope="session")
def pt256(grid256):
    return grid256, spectral.pt_potential(grid256)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


_acceptance: list[dict] = []


def pytest_runtest_logreport(report):
    """Collect the acceptance entries a test recorded in its call phase, each
    its user property ``ACCEPTANCE <tag>`` (result, detail and ``numbers``,
    the named values the detail prints), with the phase's duration in seconds
    (its fixtures' setup not included).  User properties are kept under
    ``-s`` too, where stdout is not captured."""
    if report.when != "call":
        return
    for name, entry in report.user_properties:
        if name.startswith("ACCEPTANCE "):
            _acceptance.append({"test": report.nodeid,
                                "tag": name.removeprefix("ACCEPTANCE "),
                                "result": entry["result"], "detail": entry["detail"],
                                "duration_s": report.duration,
                                "numbers": entry["numbers"]})


def pytest_sessionfinish(session):
    """Store the collected entries in pytest's cache, under the key
    ``unisplit/acceptance`` (``.pytest_cache/v/unisplit/acceptance``), when
    the run recorded any and the cache plugin is on."""
    cache = getattr(session.config, "cache", None)
    if _acceptance and cache is not None:
        cache.set("unisplit/acceptance", _acceptance)

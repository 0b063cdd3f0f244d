"""Shared fixtures: small random splits and spectral grids reused across files."""

import re

import numpy as np
import pytest

from unisplit import experiments, spectral


@pytest.fixture(scope="session")
def sym_split():
    """Random real symmetric (H, A, B) with H = A + B, n=10, seed 0."""
    spec = experiments.MatrixClassSpec(
        matrix_class=experiments.MatrixClass.SYM_SIMPLE, n=10, seed=0
    )
    return experiments.generate(spec)


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


# "ACCEPTANCE <tag>: PASS|FAIL — <detail>", as test_acceptance.report prints it
ACCEPTANCE_LINE = re.compile(r"ACCEPTANCE (.+?): (PASS|FAIL) — (.*)")
_acceptance: list[dict] = []


def pytest_runtest_logreport(report):
    """Collect the acceptance lines a test printed, from its captured stdout
    (empty under ``-s``, which turns capturing off)."""
    if report.when != "call":
        return
    for line in report.capstdout.splitlines():
        m = ACCEPTANCE_LINE.fullmatch(line)
        if m:
            _acceptance.append({"test": report.nodeid, "tag": m[1],
                                "result": m[2], "detail": m[3]})


def pytest_sessionfinish(session):
    """Store the collected lines in pytest's cache, under the key
    ``unisplit/acceptance`` (``.pytest_cache/v/unisplit/acceptance``), when
    the run printed any and the cache plugin is on."""
    cache = getattr(session.config, "cache", None)
    if _acceptance and cache is not None:
        cache.set("unisplit/acceptance", _acceptance)

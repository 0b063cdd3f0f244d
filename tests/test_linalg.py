import numpy as np
import pytest

from unisplit import linalg


def test_as_matrix_rejects_wrong_ndim():
    with pytest.raises(linalg.DimensionError):
        linalg.as_matrix([1.0, 2.0])
    with pytest.raises(linalg.DimensionError):
        linalg.as_matrix(np.zeros((2, 2, 2)))


def test_as_matrix_square_check():
    with pytest.raises(linalg.DimensionError):
        linalg.as_matrix(np.zeros((3, 2)))


def test_as_matrix_rejects_nonfinite():
    m = np.eye(2)
    m[0, 1] = np.nan
    with pytest.raises(ValueError):
        linalg.as_matrix(m)


def test_expm_matches_taylor_series(rng):
    """Independent oracle: truncated Taylor series on a small contraction."""
    m = 0.3 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    series = np.zeros_like(m)
    term = np.eye(5, dtype=complex)
    for k in range(1, 30):
        series = series + term
        term = term @ m / k
    assert np.linalg.norm(linalg.expm(m) - series) < 1e-13


def test_expm_diagonal():
    d = np.diag([1.0 + 2.0j, -0.5])
    assert np.allclose(linalg.expm(d), np.diag(np.exp(np.diag(d))))


def test_eig_general_known_values():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    w = sorted(linalg.eig_general(m), key=lambda z: z.imag)
    assert np.allclose(w, [-1j, 1j])


def test_eig_general_stack(rng):
    stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    w = linalg.eig_general(stack)
    assert w.shape == (3, 4)
    assert np.array_equal(w, [linalg.eig_general(m) for m in stack])
    with pytest.raises(linalg.DimensionError):
        linalg.eig_general(np.zeros((2, 3, 4)))
    with pytest.raises(linalg.DimensionError):
        linalg.as_matrix(stack)  # stacks only where asked for


def test_eig_symmetric_contract(rng):
    s = rng.standard_normal((8, 8))
    s = s + s.T
    w, q = linalg.eig_symmetric(s)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(q.T @ q, np.eye(8), atol=1e-12)
    assert np.allclose(q.T @ s @ q, np.diag(w), atol=1e-10)


def test_eig_symmetric_rejects_asymmetric(rng):
    with pytest.raises(linalg.DimensionError):
        linalg.eig_symmetric(rng.standard_normal((5, 5)))
    with pytest.raises(linalg.DimensionError):
        linalg.eig_symmetric(np.eye(3) * (1.0 + 1e-6j))

import numpy as np
import pytest

from unisplit import experiments as ex
from unisplit import linalg, schemes, spectral
from unisplit.experiments import (
    DiagnosticSeries,
    MatrixClass,
    MatrixClassSpec,
    conservation_run,
    dh_sweep,
    drift_slope,
    generate,
)


def spec_of(cls, **kw):
    return MatrixClassSpec(matrix_class=MatrixClass[cls], n=10, seed=0, **kw)


@pytest.mark.parametrize("cls", [m.name for m in MatrixClass])
def test_generate_split_is_exact(cls):
    h, a, b = generate(spec_of(cls))
    assert h.shape == (10, 10)
    assert np.array_equal(b, h - a)  # B is defined as the exact remainder
    assert np.isrealobj(h) and np.isrealobj(a)


def test_sym_simple_symmetry():
    h, a, b = generate(spec_of("SYM_SIMPLE"))
    assert np.allclose(h, h.T) and np.allclose(a, a.T) and np.allclose(b, b.T)


def test_nonsym_split_keeps_h_symmetric():
    h, a, _ = generate(spec_of("SYM_SIMPLE_NONSYM_SPLIT"))
    assert np.allclose(h, h.T)
    assert not np.allclose(a, a.T)


def test_real_simple_eigs_are_real_and_distinct():
    h, _, _ = generate(spec_of("REAL_SIMPLE_EIGS"))
    w = np.linalg.eigvals(h)
    assert np.max(np.abs(w.imag)) < 1e-8
    gaps = np.diff(np.sort(w.real))
    assert np.min(gaps) > ex.EIGENVALUE_GAP / 2


def test_multiple_eigs_multiplicities():
    spec = spec_of("MULTIPLE_EIGS_DIAG", multiplicities=(4, 3, 3))
    h, a, _ = generate(spec)
    w = np.sort(np.linalg.eigvalsh(h))
    # eigenvalues cluster into groups of the requested sizes
    groups = np.split(w, np.where(np.diff(w) > 1e-6)[0] + 1)
    assert sorted(len(g) for g in groups) == [3, 3, 4]
    assert np.allclose(a, a.T)


def test_a_single_multiplicity_is_a_multiple_of_the_identity():
    """One eigenvalue of multiplicity n is distinct: H = lam I."""
    spec = MatrixClassSpec(MatrixClass.MULTIPLE_EIGS_DIAG, n=4, multiplicities=(4,))
    h, a, b = generate(spec)
    lam = h[0, 0]
    assert 0.0 < lam < 1.0
    assert np.allclose(h, lam * np.eye(4), atol=1e-14)
    assert np.array_equal(b, h - a) and np.allclose(a, a.T)


def test_multiplicities_must_sum_to_n():
    with pytest.raises(ValueError):
        spec_of("MULTIPLE_EIGS_DIAG", multiplicities=(3, 3))


def test_generation_is_deterministic():
    h1, a1, _ = generate(spec_of("ARBITRARY"))
    h2, a2, _ = generate(spec_of("ARBITRARY"))
    assert np.array_equal(h1, h2) and np.array_equal(a1, a2)
    h3, _, _ = generate(MatrixClassSpec(MatrixClass.ARBITRARY, n=10, seed=1))
    assert not np.array_equal(h1, h3)


class TestDiagnosticSeries:
    def test_add_and_columns(self):
        s = DiagnosticSeries(abscissa="h", columns=("e",))
        s.add(0.1, {"e": 1.0})
        s.add(0.2, {"e": 2.0})
        assert np.array_equal(s.x, [0.1, 0.2])
        assert np.array_equal(s.column("e"), [1.0, 2.0])

    def test_abscissa_monotone(self):
        s = DiagnosticSeries(abscissa="h", columns=("e",))
        s.add(0.2, {"e": 1.0})
        with pytest.raises(ValueError):
            s.add(0.2, {"e": 1.0})

    def test_rejects_nonfinite(self):
        s = DiagnosticSeries(abscissa="h", columns=("e",))
        for x, e in ((0.1, np.inf), (0.1, np.nan), (0.1, -np.inf), (np.inf, 1.0)):
            with pytest.raises(ValueError, match="non-finite"):
                s.add(x, {"e": e})
        assert s.rows == []

    def test_csv_layout(self):
        s = DiagnosticSeries(abscissa="h", columns=("e",))
        s.add(0.5, {"e": 3.0})
        assert s.to_csv() == "h,e\n0.5,3\n"


def test_dh_sweep_threshold_detection(sym_split):
    _, a, b = sym_split
    series = dh_sweep(schemes.get_scheme("S31"), a, b, np.geomspace(0.01, 10, 20))
    assert series.meta["h_star"] is not None
    d = series.column("D_h")
    assert d[0] <= 1e-12
    assert d[-1] > 1e-6


def flaky_eig_general(fail_at):
    """(flaky, calls): a linalg.eig_general that raises on the calls numbered
    (from 1) in ``fail_at``, and the ndim of each call's argument."""
    eig, calls = linalg.eig_general, []

    def flaky(m):
        calls.append(np.ndim(m))
        if len(calls) in fail_at:
            raise linalg.NumericalError("no convergence")
        return eig(m)
    return flaky, calls


def test_dh_sweep_records_eigensolver_failures(sym_split, monkeypatch):
    """A failing batched eigensolve is redone per matrix; only the points
    that fail again are dropped, and each is recorded."""
    _, a, b = sym_split
    h_grid = np.geomspace(0.01, 1.0, 6)
    # the stack fails, then the matrices of h_grid[1] and h_grid[3]
    flaky, calls = flaky_eig_general((1, 3, 5))
    monkeypatch.setattr(linalg, "eig_general", flaky)
    series = dh_sweep(schemes.get_scheme("S31"), a, b, h_grid)
    assert calls == [3] + [2] * len(h_grid)
    assert series.meta["failures"] == [h_grid[1], h_grid[3]]
    assert np.array_equal(series.x, np.delete(h_grid, [1, 3]))
    monkeypatch.undo()
    full = dh_sweep(schemes.get_scheme("S31"), a, b, h_grid)
    assert full.meta["failures"] == []
    assert np.array_equal(series.column("D_h"),
                          np.delete(full.column("D_h"), [1, 3]))


def _reference_dh_sweep(scheme, a, b, h_grid):
    """(rows, h_star, failures) of dh_sweep as a loop over the eigenvalues of
    each matrix, redone matrix by matrix when the stack fails."""
    h_sorted = sorted(float(x) for x in h_grid)
    stack = ex.step_matrix(scheme, a, b, np.array(h_sorted))
    try:
        omegas = list(linalg.eig_general(stack))
    except linalg.NumericalError:
        omegas = []
        for s_h in stack:
            try:
                omegas.append(linalg.eig_general(s_h))
            except linalg.NumericalError:
                omegas.append(None)
    rows, h_star, failures, exceeded = [], None, [], False
    for h, omega in zip(h_sorted, omegas):
        if omega is None:
            failures.append(h)
            continue
        d_h = float(np.max(np.abs(np.abs(omega) - 1.0)))
        rows.append((h, d_h))
        if not exceeded:
            exceeded = d_h > ex.DH_THRESHOLD
            h_star = h_star if exceeded else h
    return rows, h_star, failures


@pytest.mark.parametrize("fail_at", [(), (1,), (1, 3, 5)])
def test_dh_sweep_equals_reference_loop(fail_at, monkeypatch):
    """Rows, h* and failures equal those of a per-matrix loop, bit for bit,
    also when the stacked eigensolve fails and the redo drops points."""
    h_grid = np.geomspace(0.01, 10.0, 28)
    for cls in (MatrixClass if not fail_at else [MatrixClass.SYM_SIMPLE]):
        _, a, b = generate(spec_of(cls.name))
        for s in schemes.catalog():
            monkeypatch.setattr(linalg, "eig_general", flaky_eig_general(fail_at)[0])
            want = _reference_dh_sweep(s, a, b, h_grid)
            monkeypatch.setattr(linalg, "eig_general", flaky_eig_general(fail_at)[0])
            series = dh_sweep(s, a, b, h_grid)
            monkeypatch.undo()
            assert (series.rows, series.meta["h_star"], series.meta["failures"]) == want
            assert len(want[2]) == len(fail_at[1:])  # the redo fails at 3, 5


def test_dh_sweep_no_threshold_on_generic_matrices():
    _, a, b = generate(spec_of("ARBITRARY"))
    series = dh_sweep(schemes.get_scheme("S31"), a, b, np.geomspace(0.01, 1, 10))
    assert series.meta["h_star"] is None


def _bare_conservation_loop(scheme, grid, v, u, h, n_steps, sample_every):
    """(rows, meta) of a split_step/observables loop that observes each
    sample on its own, with two FFTs per A-factor and step so far."""
    n_a = sum(f.op == "A" for f in scheme.factors)
    obs0 = spectral.observables(grid, v, u)
    rows, meta = [], {}
    for n in range(1, n_steps + 1):
        try:
            u = spectral.split_step(scheme, grid, v, u, h)
        except linalg.NumericalError as exc:
            meta.update(aborted_at_step=n, aborted=str(exc))
            break
        if n % sample_every == 0 or n == n_steps:
            obs = spectral.observables(grid, v, u)
            rows.append((n * h, abs(obs["mass"] - obs0["mass"]),
                         abs(obs["energy"] - obs0["energy"]), 2 * n_a * n))
    return rows, meta


def test_conservation_run_samples_a_bare_loop(pt64):
    """Rows fall at the multiples of sample_every and at the last step; each
    holds the bits of a bare split_step/observables loop and two FFTs per
    A-factor and step so far.  The sample counts cover the edges of the
    blocks the run observes at once: one sample, five, exactly one full
    block, and a full block plus a partial one."""
    grid, v, _, _, _ = pt64
    s = schemes.get_scheme("NB5s4")
    h, rows = 0.1, ex._BLOCK_ROWS
    u = spectral.initial_gaussian(grid)
    for n_steps, every, samples in ((4, 5, 1), (23, 5, 5), (5 * rows, 5, rows),
                                    (rows + 7, 1, rows + 7)):
        series = conservation_run(s, grid, v, u, h, n_steps, sample_every=every)
        expected, meta = _bare_conservation_loop(s, grid, v, u, h, n_steps, every)
        assert len(expected) == samples
        assert series.rows == expected
        assert series.meta == meta
        assert "aborted" not in series.meta


def test_conservation_run_keeps_the_rows_before_an_abort():
    """S4 at a CLI default h overflows at step 39, in the second block of
    samples: the 38 rows before it are kept, as the bare loop keeps them."""
    grid = spectral.SpectralGrid()
    v = spectral.pt_potential(grid)
    u = spectral.initial_gaussian(grid)
    s = schemes.get_scheme("S4")
    h = float(np.geomspace(0.02, 0.4, 8)[4])
    series = conservation_run(s, grid, v, u, h, 100)
    expected, meta = _bare_conservation_loop(s, grid, v, u, h, 100, 1)
    assert ex._BLOCK_ROWS < len(series.rows) == 38
    assert series.meta["aborted_at_step"] == 39
    assert series.rows == expected
    assert series.meta == meta


def test_conservation_run_refuses_a_nonfinite_observable(pt64):
    """A potential so deep that the energy overflows: the first sample's
    energy error is not finite, and adding its row raises."""
    grid, v, _, _, _ = pt64
    deep = v.copy()
    deep[31:33] = 1.7e308  # where the Gaussian peaks
    u = spectral.initial_gaussian(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(spectral.observables(grid, deep, u)["energy"])
        with pytest.raises(ValueError, match="non-finite diagnostic value at t=0.1$"):
            conservation_run(schemes.get_scheme("strang"), grid, deep, u, 0.1, 10)


def test_drift_slope_recovers_linear_trend():
    s = DiagnosticSeries(abscissa="n", columns=("e",))
    for n in range(1, 50):
        s.add(float(n), {"e": 3e-8 * n + 1e-9})
    assert drift_slope(s, "e") == pytest.approx(3e-8, rel=1e-6)

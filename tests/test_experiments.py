import hashlib
import re
import warnings

import numpy as np
import pytest

from unisplit import experiments as ex
from unisplit import linalg, propagator, schemes, spectral
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


@pytest.mark.parametrize("cls, mult, words", [
    ("SYM_SIMPLE", (3, 7), "reads no multiplicities"),
    ("ARBITRARY", (10,), "reads no multiplicities"),
    ("MULTIPLE_EIGS_DIAG", (0, 10), "at least 1"),
    ("MULTIPLE_EIGS_NONSYM_SPLIT", (-2, 12), "at least 1"),
    ("SYM_SIMPLE", (), "reads no multiplicities"),
    ("MULTIPLE_EIGS_DIAG", (), "do not sum to n=10"),
])
def test_multiplicities_that_would_be_ignored_or_are_below_one_are_refused(
        cls, mult, words):
    """A class without repeated eigenvalues would ignore them, and an entry
    below 1 would give H = lam I or fail late inside ``np.repeat``."""
    with pytest.raises(ValueError, match=words):
        spec_of(cls, multiplicities=mult)


@pytest.mark.parametrize("kw, words", [
    ({"n": 10.0}, "^dimension must be at least 2 and an integer, got 10.0$"),
    ({"n": 3.5}, "^dimension must be at least 2 and an integer, got 3.5$"),
    ({"n": True}, "^dimension must be at least 2 and an integer, got True$"),
    ({"n": np.float64(4.0)}, "^dimension must be at least 2 and an integer"),
    ({"n": 10, "multiplicities": (2.5, 7.5)},
     r"^multiplicities \(2.5, 7.5\) must all be integers"),
    ({"n": 10, "multiplicities": (2.0, 8.0)}, "must all be integers at least 1$"),
    ({"n": 10, "multiplicities": (True, 9)}, "must all be integers at least 1$"),
], ids=["n_10.0", "n_3.5", "n_True", "n_float64", "mult_2.5_7.5", "mult_2.0_8.0",
        "mult_True"])
def test_a_non_integer_dimension_or_multiplicity_is_refused(kw, words):
    """n = 10.0 or 3.5 was built, and ``generate`` raised numpy's TypeError;
    multiplicities (2.5, 7.5) summed to n = 10 and ``generate`` raised a
    ``matmul`` ValueError."""
    with pytest.raises(ValueError, match=words):
        MatrixClassSpec(MatrixClass.MULTIPLE_EIGS_DIAG, **kw)


@pytest.mark.parametrize("n, mult", [(np.int64(6), None), (6, (np.int32(2), np.uint8(4)))],
                         ids=["int64_n", "numpy_multiplicities"])
def test_numpy_integer_dimension_and_multiplicities_are_accepted(n, mult):
    h, _, _ = generate(MatrixClassSpec(MatrixClass.MULTIPLE_EIGS_DIAG, n=n,
                                       multiplicities=mult))
    assert h.shape == (6, 6)


@pytest.mark.parametrize("cls", ["SYM_SIMPLE", None])
def test_a_matrix_class_that_is_not_a_member_is_refused(cls):
    """A class name or None raised AttributeError on ``.name``."""
    with pytest.raises(ValueError, match="unknown matrix class"):
        MatrixClassSpec(cls)


@pytest.mark.parametrize("seed", [1.5, True, np.float64(1.0), "1", None, -1,
                                  np.int64(-1), 2**64],
                         ids=["1.5", "True", "float64", "str", "None", "-1", "int64", "2**64"])
def test_a_seed_that_is_not_an_integer_in_the_philox_range_is_refused(seed):
    """1.5, True and np.float64(1.0) drew seed 1's matrices, and -1 raised
    OverflowError only inside ``generate``."""
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64 - 1\]"):
        MatrixClassSpec(MatrixClass.ARBITRARY, seed=seed)


@pytest.mark.parametrize("seed", [0, np.uint64(2**64 - 1), np.int32(7), 2**64 - 1],
                         ids=["0", "uint64", "int32", "2**64-1"])
def test_an_integer_seed_in_the_philox_range_is_taken(seed):
    spec = MatrixClassSpec(MatrixClass.ARBITRARY, n=3, seed=seed)
    assert np.array_equal(generate(spec)[0],
                          generate(MatrixClassSpec(MatrixClass.ARBITRARY, n=3,
                                                   seed=int(seed)))[0])


def test_seeds_up_to_2_64_draw_distinct_matrices():
    """The Philox key is a uint64 pair: seeds from 2**63 up are not rounded
    to a float (2**63 and 2**63 + 1 drew the same H, 2**64 - 1 drew seed 0's
    with a cast warning), and the draws of seeds below 2**63 keep their bits."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hs = [generate(MatrixClassSpec(MatrixClass.ARBITRARY, seed=seed))[0]
              for seed in (0, 2**63, 2**63 + 1, 2**64 - 1)]
    assert len({h.tobytes() for h in hs}) == 4
    digest = hashlib.sha256()
    for seed in (1, 205, 2**32 + 3, 2**63 - 1):
        for cls in ("ARBITRARY", "REAL_SIMPLE_EIGS"):
            for m in generate(MatrixClassSpec(MatrixClass[cls], n=6, seed=seed)):
                digest.update(m.tobytes())
    assert digest.hexdigest() == \
        "1a6a3bccbf92da9ab1603d40b1dd3101a293b4e17a5be06bc222b40869a70403"


def test_every_class_keeps_the_bits_of_its_draws():
    """One digest over all six classes at n in {2, 3, 5, 10, 17} and seeds
    0-39; a MULTIPLE class also at multiplicities (1,)*n, (n,) and (1, n-1)."""
    digest = hashlib.sha256()
    for n in (2, 3, 5, 10, 17):
        for cls in MatrixClass:
            mults = [None]
            if cls.name.startswith("MULTIPLE_EIGS"):
                mults += [(1,) * n, (n,), (1, n - 1)]
            for mult in mults:
                kw = {} if mult is None else {"multiplicities": mult}
                for seed in range(40):
                    for m in generate(MatrixClassSpec(cls, n=n, seed=seed, **kw)):
                        digest.update(m.tobytes())
    assert digest.hexdigest() == \
        "c058456ce1568535f67d5f075896e00811c741b5f79a1806b0628f6a8ade14d7"


def test_redrawn_spectra_keep_their_bits(monkeypatch):
    """A gap of 0.02 makes most draws of the redrawing classes start again
    from the next substream; the matrices they settle on keep their bits."""
    monkeypatch.setattr(ex, "EIGENVALUE_GAP", 0.02)
    digest = hashlib.sha256()
    for cls in ("REAL_SIMPLE_EIGS", "MULTIPLE_EIGS_DIAG", "MULTIPLE_EIGS_NONSYM_SPLIT"):
        for n in (3, 10):
            mult = {"multiplicities": (1,) * n} if cls.startswith("MULTIPLE") else {}
            for seed in range(20):
                for m in generate(MatrixClassSpec(MatrixClass[cls], n=n, seed=seed,
                                                  **mult)):
                    digest.update(m.tobytes())
    assert digest.hexdigest() == \
        "0c70e033c052a4730f49225798acb74cd6f6b7fa3a6fd13ffccb129d04c115bd"


def test_a_spectrum_never_drawn_distinct_is_a_numerical_error(monkeypatch):
    """When none of the 64 draws has distinct eigenvalues, ``generate``
    raises and names the class."""
    monkeypatch.setattr(ex, "_distinct_values", lambda rng, n: None)
    with pytest.raises(linalg.NumericalError,
                       match="^could not draw a REAL_SIMPLE_EIGS spectrum in 64 attempts$"):
        generate(spec_of("REAL_SIMPLE_EIGS"))


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

    def test_extend_equals_one_add_per_row(self):
        rows = [(0.1, 1.5, 2), (np.float64(0.2), np.float64(3e-17), 4), (3, 0.0, 6.25)]
        one, block = (DiagnosticSeries(abscissa="t", columns=("e", "n")) for _ in range(2))
        for x, e, n in rows:
            one.add(x, {"e": e, "n": n})
        block.extend(rows[:1])
        block.extend(iter(rows[1:]))
        assert np.array(block.rows).tobytes() == np.array(one.rows).tobytes()
        assert block.rows == one.rows and all(type(v) is float for r in block.rows for v in r)

    @pytest.mark.parametrize("at", [0, 1, 2])
    @pytest.mark.parametrize("x, e, message", [
        (None, 1.0, "abscissa must be strictly increasing"),  # None: the x before it
        (-np.inf, 1.0, "abscissa must be strictly increasing"),
        (np.nan, 1.0, "non-finite diagnostic value at h=nan"),
        (np.inf, 1.0, "non-finite diagnostic value at h=inf"),
        (9.0, np.nan, "non-finite diagnostic value at h=9.0"),
        (9.0, -np.inf, "non-finite diagnostic value at h=9.0"),
    ])
    def test_extend_raises_the_error_of_add_and_adds_nothing(self, at, x, e, message):
        """A bad row first in a block (right after the previous block's
        last row), in its middle or last raises what ``add`` raises for it
        after the rows before it, and the block adds no row."""
        rows = [(1.0 + k, 1.0) for k in range(3)]
        rows[at] = (([(0.25, 1.0)] + rows)[at][0] if x is None else x, e)
        s, one = (DiagnosticSeries(abscissa="h", columns=("e",)) for _ in range(2))
        for series in (s, one):
            series.add(0.25, {"e": 1.0})
        with pytest.raises(ValueError) as by_add:
            for row in rows:
                one.add(row[0], {"e": row[1]})
        with pytest.raises(ValueError, match=message) as by_extend:
            s.extend(rows)
        assert str(by_extend.value) == str(by_add.value)
        assert s.rows == [(0.25, 1.0)]

    def test_extend_of_no_rows_adds_nothing(self):
        s = DiagnosticSeries(abscissa="h", columns=("e",))
        s.extend([])
        assert s.rows == []
        s.add(0.1, {"e": 1.0})
        s.extend(iter(()))
        assert s.rows == [(0.1, 1.0)]

    def test_extend_refuses_a_row_of_another_width(self):
        s = DiagnosticSeries(abscissa="h", columns=("e", "f"))
        for row in ((0.1, 1.0), (0.1, 1.0, 2.0, 3.0)):
            with pytest.raises(ValueError, match=f"a row has {len(row)} entries, expected 3"):
                s.extend([row])
        assert s.rows == []


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


def test_dh_sweep_records_a_point_whose_eigvals_raises(sym_split, monkeypatch):
    """A LinAlgError of numpy's eigvals reaches dh_sweep through
    eig_general as a NumericalError, and only its point is dropped."""
    _, a, b = sym_split
    h_grid = [0.05, 0.2, 0.8]
    s = schemes.get_scheme("S31")
    full = dh_sweep(s, a, b, h_grid)
    bad, eigvals = propagator.step_matrix(s, a, b, 0.2), np.linalg.eigvals

    def stub(m):  # fails on every input that holds the step matrix of h = 0.2
        if any(np.array_equal(x, bad) for x in np.reshape(m, (-1,) + bad.shape)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(m)

    monkeypatch.setattr(np.linalg, "eigvals", stub)
    series = dh_sweep(s, a, b, h_grid)
    assert series.meta["failures"] == [0.2]
    assert series.rows == [full.rows[0], full.rows[2]]


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
    sample on its own, with two FFTs per A-factor and step so far, and that
    marks a run unstable when it did not abort and a mass error exceeds
    the initial mass."""
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
    worst = max((row[1] for row in rows), default=0.0)
    if not meta and worst > obs0["mass"]:
        meta["unstable"] = (f"max mass error {worst:.17g} exceeds the initial mass "
                            f"{obs0['mass']:.17g}")
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


def test_a_0d_array_h_has_the_bits_of_its_float():
    """``np.array(h)`` raised "unhashable type" in ``split_step``, and in
    ``conservation_run`` after the first observation.  It now gives the
    bits of the float h: in a step, and in the rows and the abort record
    of S4's run of the test above."""
    grid = spectral.SpectralGrid()
    v = spectral.pt_potential(grid)
    u = spectral.initial_gaussian(grid)
    s = schemes.get_scheme("S4")
    h = float(np.geomspace(0.02, 0.4, 8)[4])
    assert (spectral.split_step(s, grid, v, u, np.array(h)).tobytes()
            == spectral.split_step(s, grid, v, u, h).tobytes())
    run, expected = (conservation_run(s, grid, v, u, x, 100) for x in (np.array(h), h))
    assert np.array(run.rows).tobytes() == np.array(expected.rows).tobytes()
    assert run.meta == expected.meta and run.meta["aborted_at_step"] == 39


def test_a_0d_array_h_is_read_once_per_run(monkeypatch):
    """``conservation_run`` reads an array h once and steps its scalar, so
    the h reader runs as often as for the float h: once at the entry and
    once in the phase build, not once per step."""
    grid = spectral.SpectralGrid()
    v = spectral.pt_potential(grid)
    u = spectral.initial_gaussian(grid)
    s = schemes.get_scheme("NB11s6")
    h, reads = 100 / 909, []
    as_steps = linalg.as_steps
    monkeypatch.setattr(linalg, "as_steps", lambda *args: reads.append(args) or as_steps(*args))
    runs = []
    for x in (h, np.array(h)):
        spectral._factor_phases.cache_clear()
        reads.clear()
        runs.append(conservation_run(s, grid, v, u, x, 200, 50))
        assert len(reads) == 2
    assert runs[0].rows == runs[1].rows


def test_t_is_the_time_stepped_for_a_float32_h(pt64):
    """``split_step`` steps with the float64 read of h, so ``t`` is n times
    that float: a float32 0.1 recorded t = 0.30000001192092896 at step 3,
    the float32 product, against 3 * 0.10000000149011612 =
    0.30000000447034836."""
    grid, v, _, _, _ = pt64
    s, u = schemes.get_scheme("strang"), spectral.initial_gaussian(grid)
    h = np.float32(0.1)
    run = conservation_run(s, grid, v, u, h, 3)
    assert run.rows == conservation_run(s, grid, v, u, float(h), 3).rows
    assert run.x.tolist() == [n * 0.10000000149011612 for n in (1, 2, 3)]
    assert run.rows[-1][0] == 0.30000000447034836


def test_conservation_run_records_a_run_that_blew_up():
    """NB5s4 at h = 0.4 lies above its grid h* of 0.072: over 250 steps its
    mass error grows past 1e20 without overflowing.  The run keeps every row
    and records the largest mass error against the initial mass."""
    grid = spectral.SpectralGrid()
    v = spectral.pt_potential(grid)
    u = spectral.initial_gaussian(grid)
    s = schemes.get_scheme("NB5s4")
    series = conservation_run(s, grid, v, u, 0.4, 250)
    expected, meta = _bare_conservation_loop(s, grid, v, u, 0.4, 250, 1)
    assert series.rows == expected and len(expected) == 250
    assert series.meta == meta and "aborted" not in meta
    assert series.meta["unstable"].startswith("max mass error ")
    assert max(series.column("mass_err")) > 1e20


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


@pytest.mark.parametrize("key, value", [
    ("sample_every", 0), ("sample_every", -2), ("sample_every", 2.5),
    ("n_steps", -3), ("n_steps", 0), ("n_steps", 6.0),
    ("n_steps", True), ("sample_every", True), ("n_steps", np.True_),
    ("sample_every", np.True_)])
def test_conservation_run_refuses_a_run_length_below_one_or_not_an_integer(
        pt64, monkeypatch, key, value):
    """``sample_every`` = 0 raised ZeroDivisionError, -2 sampled every second
    step, ``n_steps`` = -3 or 0 returned a series with no rows, and a bool
    ``n_steps`` of True ran one step (``sample_every`` = True sampled every
    step).  Each is refused before any step."""
    grid, v, _, _, _ = pt64
    steps = []
    monkeypatch.setattr(spectral, "split_step", lambda *args: steps.append(args))
    lengths = {"n_steps": 6, "sample_every": 1, key: value}
    with pytest.raises(ValueError, match=f"^{key} must be an integer >= 1, got {value!r}$"):
        conservation_run(schemes.get_scheme("strang"), grid, v,
                         spectral.initial_gaussian(grid), 0.1, **lengths)
    assert steps == []


@pytest.mark.parametrize("h", [np.nan, np.inf, 0.0, -0.1])
def test_conservation_run_refuses_an_h_that_is_not_finite_and_positive(
        pt64, monkeypatch, h):
    """An h of nan or inf returned a series aborted at step 1 with a state
    overflow, and 0 or -0.1 raised "abscissa must be strictly increasing"
    after a block of steps; each is now refused before any step."""
    grid, v, _, _, _ = pt64
    steps = []
    monkeypatch.setattr(spectral, "split_step", lambda *args: steps.append(args))
    with pytest.raises(ValueError, match=f"^h must be finite and > 0, got {h!r}$"):
        conservation_run(schemes.get_scheme("strang"), grid, v,
                         spectral.initial_gaussian(grid), h, 10)
    assert steps == []


@pytest.mark.parametrize("rows", [(1,), (3,)], ids=str)
def test_conservation_run_refuses_a_stacked_initial_state(pt64, monkeypatch, rows):
    """A u0 of shape (1, N) or (K, N) raised numpy's "only 0-dimensional
    arrays can be converted to Python scalars" from the initial mass; it is
    refused as other functions of a state refuse one, before any FFT."""
    grid, v, _, _, _ = pt64
    calls = []
    for name in ("dft", "split_step"):
        monkeypatch.setattr(spectral, name, lambda *args, name=name: calls.append(name))
    u0 = np.broadcast_to(spectral.initial_gaussian(grid), (*rows, grid.n))
    with pytest.raises(linalg.DimensionError,
                       match=rf"^expected length 64, got {re.escape(str(u0.shape))}$"):
        conservation_run(schemes.get_scheme("strang"), grid, v, u0, 0.1, 10)
    assert calls == []


def test_conservation_run_takes_numpy_integers(pt64):
    grid, v, _, _, _ = pt64
    s, u = schemes.get_scheme("strang"), spectral.initial_gaussian(grid)
    assert (conservation_run(s, grid, v, u, 0.1, np.int64(6), np.int64(4)).rows
            == conservation_run(s, grid, v, u, 0.1, 6, 4).rows)


def test_drift_slope_recovers_linear_trend():
    s = DiagnosticSeries(abscissa="n", columns=("e",))
    for n in range(1, 50):
        s.add(float(n), {"e": 3e-8 * n + 1e-9})
    assert drift_slope(s, "e") == pytest.approx(3e-8, rel=1e-6)


@pytest.mark.parametrize("rows", [0, 1])
def test_drift_slope_needs_two_rows(rows):
    """One row returned its value with numpy's RankWarning, and none raised
    numpy's TypeError; a line needs two points."""
    s = DiagnosticSeries(abscissa="t", columns=("e",))
    for t in (0.5,)[:rows]:
        s.add(t, {"e": 1e-3})
    with pytest.raises(ValueError, match=f"^a slope needs two rows or more, got {rows}$"):
        drift_slope(s, "e")


def test_dh_sweep_records_overflowed_step_matrices():
    """S4's step matrix of the ARBITRARY draw has non-finite entries at
    h = 200; the point is a failure and the other points keep their values."""
    _, a, b = generate(spec_of("ARBITRARY"))
    s4 = schemes.get_scheme("S4")
    series = dh_sweep(s4, a, b, [0.5, 200.0, 2.0])
    assert series.meta["failures"] == [200.0]
    assert series.x.tolist() == [0.5, 2.0]
    assert series.column("D_h").tolist() == \
        dh_sweep(s4, a, b, [0.5, 2.0]).column("D_h").tolist()


def test_dh_sweep_records_eigenvalues_beyond_the_float_range(sym_split, monkeypatch):
    """LAPACK can return an infinite eigenvalue for a finite step matrix near
    overflow (NB11s6 on the ARBITRARY draw at h = 327.6); the point is a
    failure, not a non-finite D_h."""
    _, a, b = sym_split
    s31, h_grid = schemes.get_scheme("S31"), [0.1, 0.2, 0.3]
    bad, eig = ex.step_matrix(s31, a, b, np.array(h_grid))[1], linalg.eig_general

    def overflowing(m):
        w = eig(m)
        w[np.all(m == bad, axis=(-2, -1))] = np.inf
        return w
    monkeypatch.setattr(linalg, "eig_general", overflowing)
    series = dh_sweep(s31, a, b, h_grid)
    assert series.meta["failures"] == [0.2]
    assert series.x.tolist() == [0.1, 0.3]

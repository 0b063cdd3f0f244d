import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from unisplit import experiments, linalg, propagator, schemes, spectral
from unisplit.propagator import (
    OrderFit,
    empirical_order,
    fit_loglog,
    reversibility_report,
    step_matrix,
)

# the 28-point grid of criterion 4
H_SWEEP = np.geomspace(0.01, 10.0, 28)
# the 8-point grid of criterion 5a
H_ORDER = np.geomspace(0.05, 0.4, 8)


def two_level_split():
    a = np.array([[1.0, 0.4], [0.4, -0.2]])
    b = np.array([[0.3, -0.1], [-0.1, 0.8]])
    return a, b


def expm_product(scheme, a, b, h):
    """The step matrix as one scipy.linalg.expm per factor."""
    s = np.eye(a.shape[0], dtype=complex)
    for f in scheme.factors:
        s = scipy.linalg.expm(1j * h * f.coeff * (a if f.op == "A" else b)) @ s
    return s


def expm_product_transposed(scheme, a, b, h):
    """`expm_product` in the transposed order of `step_matrix`: the transpose
    T of the product so far takes each factor as T @ expm(i h c Op)^T."""
    t = None
    for f in scheme.factors:
        e_t = scipy.linalg.expm(1j * h * f.coeff * (a if f.op == "A" else b)).T
        t = e_t if t is None else t @ e_t
    return t.T


def nilpotent(rng, n):
    """A rank-one u w^T with w^T u = 0, so that its square is zero."""
    u, w = rng.standard_normal(n), rng.standard_normal(n)
    w -= (w @ u) / (u @ u) * u
    return np.outer(u, w)


def clear_memos():
    """Empty the split record, so that a call after this one is cold."""
    propagator._split_record.cache_clear()


def split_of(cls):
    spec = experiments.MatrixClassSpec(experiments.MatrixClass[cls], n=10, seed=0)
    return experiments.generate(spec)[1:]


def real_form_product(t, mt):
    """t @ mt for a (k, n, n) complex t, as `step_matrix` computes it: the
    real GEMM of t's float view with the real (2n, 2n) form of mt."""
    r = np.empty((2 * len(mt), 2 * len(mt)))
    r[0::2, 0::2] = r[1::2, 1::2] = mt.real
    r[0::2, 1::2], r[1::2, 0::2] = mt.imag, -mt.imag
    return (np.ascontiguousarray(t).view(float) @ r).view(complex)


def _reference_step_matrix(scheme, a, b, h):
    """The step matrix as built before the transfer matrices were memoised,
    in the transposed order of `step_matrix`: it accumulates T = S^T, every
    change of operator forms M = V_to^-1 V_from again and applies it as
    T @ M^T (`real_form_product`), one matrix at a time, every factor takes
    its own phases p as the column scaling T diag(p), and every product is a
    fresh array."""
    am, bm = linalg.as_matrix(a), linalg.as_matrix(b)
    ops = {"A": am, "B": bm}
    bases = {op: propagator._eigenbasis(m) for op, m in ops.items()}
    h_arr = np.asarray(h, dtype=complex if np.iscomplexobj(h) else float)
    ih = 1j * h_arr.reshape(-1)
    t, basis_of = None, None
    for f in scheme.factors:
        z = ih * f.coeff
        basis = bases[f.op]
        if basis is None:
            if basis_of is not None:
                t, basis_of = real_form_product(t, bases[basis_of][1].T), None
            e = np.empty((len(z),) + am.shape, dtype=complex)
            for i, zi in enumerate(z):
                e[i] = linalg.expm(zi * ops[f.op]).T
            t = e if t is None else t @ e
            continue
        lam, _, v_inv = basis
        if basis_of != f.op:
            m = v_inv if basis_of is None else v_inv @ bases[basis_of][1]
            t = m.T if t is None else real_form_product(t, m.T)
            basis_of = f.op
        t = np.exp(z[:, None] * lam)[:, None, :] * t
    if basis_of is not None:
        t = real_form_product(t, bases[basis_of][1].T)
    s = t.transpose(0, 2, 1)
    return s[0] if h_arr.ndim == 0 else s


# the grids of criteria 3-5a, and a scalar h
GRIDS = (H_SWEEP, np.array([0.01, -0.01]), np.array([0.1, -0.1]),
         np.array([0.5, -0.5]), H_ORDER, 0.3)
# 32 points on |z| = 0.25, as in criterion 5b, and a complex scalar
COMPLEX_GRIDS = (0.25 * np.exp(2j * np.pi * np.arange(32) / 32), 0.1 - 0.05j)


def guarded_splits(rng):
    """(name, A, B) with B, A or both failing the eigenvector cond guard."""
    m = rng.standard_normal((5, 5))
    return [("B nilpotent", (m + m.T) / 2, nilpotent(rng, 5)),
            ("A nilpotent", nilpotent(rng, 5), m),
            ("both nilpotent", nilpotent(rng, 5), nilpotent(rng, 5))]


def assert_bitwise(got, want, label):
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), label


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("cls", [m.name for m in experiments.MatrixClass])
def test_step_matrix_equals_reference_loop_bitwise(cls, seed):
    spec = experiments.MatrixClassSpec(experiments.MatrixClass[cls], n=10, seed=seed)
    _, a, b = experiments.generate(spec)
    for s in schemes.catalog():
        for h in GRIDS + COMPLEX_GRIDS:
            assert_bitwise(step_matrix(s, a, b, h),
                           _reference_step_matrix(s, a, b, h), (s.name, h))


def test_step_matrix_equals_reference_loop_on_guarded_splits(rng):
    for label, a, b in guarded_splits(rng):
        for s in schemes.catalog():
            for h in (H_ORDER, np.array([0.5, -0.5]), 0.3, COMPLEX_GRIDS[1]):
                assert_bitwise(step_matrix(s, a, b, h),
                               _reference_step_matrix(s, a, b, h), (label, s.name))


def test_step_matrix_complex_h_is_the_complex_step(rng):
    """S at the complex step z is the product of exp(i z c Op), and equals
    the unit step on the split (zA, zB) to round-off."""
    splits = [("SYM_SIMPLE",) + split_of("SYM_SIMPLE")] + guarded_splits(rng)[:1]
    z = COMPLEX_GRIDS[0][::4]
    for label, a, b in splits:
        for s in schemes.catalog():
            for s_z, zj in zip(step_matrix(s, a, b, z), z):
                ref = expm_product(s, a, b, zj)
                assert np.linalg.norm(s_z - ref) <= 1e-12 * np.linalg.norm(ref)
                unit = step_matrix(s, zj * a, zj * b, 1.0)
                assert np.linalg.norm(s_z - unit) <= 1e-12 * np.linalg.norm(ref)
            # a complex h on the real axis is that real h, bit for bit
            assert_bitwise(step_matrix(s, a, b, 0.2 + 0j),
                           step_matrix(s, a, b, 0.2), (label, s.name))


def test_step_matrix_application_order():
    """First factor in the list acts first, i.e. sits rightmost in the product."""
    a, b = two_level_split()
    s = schemes.SplittingScheme(
        "lie", 1, False,
        (schemes.Factor("A", 1.0), schemes.Factor("B", 1.0)),
    )
    h = 0.37
    oracle = scipy.linalg.expm(1j * h * b) @ scipy.linalg.expm(1j * h * a)
    assert np.allclose(step_matrix(s, a, b, h), oracle, atol=1e-14)


def test_step_matrix_strang_oracle():
    a, b = two_level_split()
    h = 0.25
    e_a = scipy.linalg.expm(1j * h * a / 2)
    oracle = e_a @ scipy.linalg.expm(1j * h * b) @ e_a
    assert np.allclose(step_matrix(schemes.get_scheme("strang"), a, b, h),
                       oracle, atol=1e-14)


@pytest.mark.parametrize("cls", ["SYM_SIMPLE", "ARBITRARY", "defective"])
def test_step_matrix_stack_equals_scalar_calls(cls, rng):
    if cls == "defective":
        a, b = two_level_split()[0], nilpotent(rng, 2)
    else:
        spec = experiments.MatrixClassSpec(experiments.MatrixClass[cls], n=10)
        _, a, b = experiments.generate(spec)
    for s in schemes.catalog():
        stack = step_matrix(s, a, b, H_SWEEP)
        assert stack.shape == (len(H_SWEEP),) + a.shape
        assert np.array_equal(stack, [step_matrix(s, a, b, h) for h in H_SWEEP])


def layout_splits(rng):
    """(name, A, B): n = 10 splits of two classes, a 2x2 and a 16x16 split,
    and a guarded split (B nilpotent)."""
    m = rng.standard_normal((2, 16, 16))
    return ([(cls,) + split_of(cls) for cls in ("SYM_SIMPLE", "ARBITRARY")]
            + [("2x2",) + two_level_split(), ("16x16", m[0] + m[0].T, m[1])]
            + guarded_splits(rng)[:1])


def test_sub_stacks_equal_the_rows_of_the_full_stack(rng):
    """The rows of a stack have the bits of a call on any prefix or suffix
    of its grid: each h gets its own GEMMs, of one shape whatever the stack."""
    grid = np.geomspace(0.01, 10.0, 64)
    for label, a, b in layout_splits(rng):
        for s in schemes.catalog():
            full = step_matrix(s, a, b, grid)
            for k in (1, 2, 7, 28):
                for part in (slice(None, k), slice(-k, None)):
                    assert_bitwise(step_matrix(s, a, b, grid[part]), full[part],
                                   (label, s.name, k, part))


@pytest.mark.parametrize("n", [9, 10])
def test_rows_of_a_600_point_stack_equal_its_sub_stacks(n):
    """The stack contract far past the 28 h of any workload: one GEMM over
    all k*n rows lets the BLAS change its kernel with k, and fails here;
    one GEMM per h does not."""
    grid = np.geomspace(0.01, 10.0, 600)
    for cls in ("SYM_SIMPLE", "ARBITRARY"):
        spec = experiments.MatrixClassSpec(experiments.MatrixClass[cls], n=n, seed=0)
        _, a, b = experiments.generate(spec)
        for s in schemes.catalog():
            full = step_matrix(s, a, b, grid)
            for part in (slice(None, 1), slice(None, 28), slice(-28, None)):
                assert_bitwise(step_matrix(s, a, b, grid[part]), full[part],
                               (cls, s.name, part))


def test_step_matrix_result_is_writeable_and_any_strides_give_its_eigenvalues(rng):
    for label, a, b in layout_splits(rng):
        for s in schemes.catalog():
            for h in (H_ORDER, 0.3):
                got = step_matrix(s, a, b, h)
                assert got.flags.writeable, (label, s.name)
                assert_bitwise(linalg.eig_general(got),
                               linalg.eig_general(np.ascontiguousarray(got)),
                               (label, s.name))


@pytest.mark.parametrize("cls", [m.name for m in experiments.MatrixClass])
def test_step_matrix_matches_expm_product(cls):
    spec = experiments.MatrixClassSpec(experiments.MatrixClass[cls], n=10, seed=0)
    _, a, b = experiments.generate(spec)
    for s in schemes.catalog():
        stack = step_matrix(s, a, b, H_SWEEP)
        for s_h, h in zip(stack, H_SWEEP):
            ref = expm_product(s, a, b, h)
            assert np.linalg.norm(s_h - ref) <= 1e-12 * np.linalg.norm(ref)


def test_step_matrix_defective_operators_take_expm_path(rng, monkeypatch):
    s = schemes.get_scheme("NB11s6")
    h = np.array([0.1, 0.7])
    # both operators defective: every factor is an expm, as in the product
    # taken in step_matrix's transposed order
    a, b = nilpotent(rng, 5), nilpotent(rng, 5)
    for s_h, hk in zip(step_matrix(s, a, b, h), h):
        assert np.array_equal(s_h, expm_product_transposed(s, a, b, hk))
    # only B defective: its factors, and no others, go through expm, on
    # every call, the memoised ones too
    m = rng.standard_normal((5, 5))
    a = (m + m.T) / 2
    calls = []
    expm = linalg.expm
    monkeypatch.setattr(linalg, "expm", lambda x: calls.append(x) or expm(x))
    clear_memos()
    for _ in range(3):
        calls.clear()
        stack = step_matrix(s, a, b, h)
        assert len(calls) == len(h) * sum(f.op == "B" for f in s.factors)
    for s_h, hk in zip(stack, h):
        ref = expm_product(s, a, b, hk)
        assert np.linalg.norm(s_h - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("cls", ["SYM_SIMPLE", "ARBITRARY"])
def test_memo_cold_and_warm_calls_are_bit_identical(cls):
    a, b = split_of(cls)
    s = schemes.get_scheme("NB11s6")
    for call in (lambda: step_matrix(s, a, b, H_SWEEP).tobytes(),
                 lambda: step_matrix(s, a, b, 0.3).tobytes(),
                 lambda: step_matrix(s, a, b, COMPLEX_GRIDS[0]).tobytes(),
                 lambda: empirical_order(s, a, b, H_ORDER)):
        clear_memos()
        assert call() == call()  # cold, then warm


def test_memo_alternating_splits_match_cold_calls():
    splits = [split_of("SYM_SIMPLE"), split_of("ARBITRARY"), split_of("SYM_SIMPLE")]
    s = schemes.get_scheme("NB5s4")

    def results(a, b):
        return (step_matrix(s, a, b, H_SWEEP).tobytes(),
                empirical_order(s, a, b, H_ORDER))

    cold = []
    for a, b in splits:
        clear_memos()
        cold.append(results(a, b))
    clear_memos()
    assert [results(a, b) for a, b in splits] == cold


def test_memo_sees_an_operator_changed_in_place():
    a, b = split_of("SYM_SIMPLE")
    a = a.astype(complex)  # the record then reads the caller's own array
    s = schemes.get_scheme("S31")
    clear_memos()
    before = step_matrix(s, a, b, H_SWEEP)
    a[0, 1] += 0.25
    a[1, 0] += 0.25
    after = step_matrix(s, a, b, H_SWEEP)
    clear_memos()
    assert after.tobytes() == step_matrix(s, a, b, H_SWEEP).tobytes()
    assert not np.array_equal(after, before)


def invalid_split(case, a, b):
    """(A, B, error, message) of an invalid split beside the valid (a, b)."""
    if case == "nan entry":
        a = a.copy()
        a[2, 3] = np.nan
        return a, b, ValueError, "non-finite"
    if case == "non-square":
        return a[:, :-1], b[:, :-1], linalg.DimensionError, "square"
    return a, b[:-1, :-1], linalg.DimensionError, "shape mismatch"


@pytest.mark.parametrize("case", ["nan entry", "non-square", "mismatched shapes"])
def test_invalid_operator_raises_on_every_call(case):
    """An invalid split raises each time, also right after a valid split was
    memoised, and leaves that split's record as it was."""
    a, b = split_of("SYM_SIMPLE")
    s = schemes.get_scheme("NB5s4")

    def results(a, b):
        return (step_matrix(s, a, b, H_SWEEP).tobytes(),
                empirical_order(s, a, b, H_ORDER))

    clear_memos()
    cold = results(a, b)
    bad_a, bad_b, error, message = invalid_split(case, a, b)
    for _ in range(2):
        for call in (step_matrix, empirical_order):
            with pytest.raises(error, match=message):
                call(s, bad_a, bad_b, H_ORDER)
    assert results(a, b) == cold
    clear_memos()
    assert results(a, b) == cold


def record_arrays(split):
    """Every array the record of ``split`` holds."""
    return ([split[op] for op in "ABH"] + list(split["refs"].values())
            + [arr for basis in split["bases"].values() if basis for arr in basis]
            + list(split["moves"].values()))


def test_memo_entries_are_read_only():
    a, b = split_of("ARBITRARY")
    clear_memos()
    empirical_order(schemes.get_scheme("strang"), a, b, H_ORDER)
    split = propagator._split(a, b)
    assert propagator._split_record.cache_info().misses == 1
    bases, moves = split["bases"], split["moves"]
    assert split["H"].tobytes() == (a + b).astype(complex).tobytes()
    assert list(split["refs"]) == H_ORDER.tolist()
    # each move M is kept as the real (2n, 2n) form R of M^T, whose even
    # rows read as complex numbers are M^T: to and from the identity, M is
    # V^-1 or V; between the bases, V_dst^-1 V_src
    assert set(moves) == {(None, "A"), ("A", None), (None, "B"), ("B", None),
                          ("A", "B"), ("B", "A")}
    for (src, dst), r in moves.items():
        m = (bases[dst][2] if src is None else bases[src][1] if dst is None
             else bases[dst][2] @ bases[src][1])
        assert r.dtype == np.float64 and r.shape == (2 * len(a),) * 2
        assert_bitwise(r[0::2].view(complex), m.T.astype(complex), (src, dst))
    arrays = record_arrays(split)
    assert len(arrays) == 3 + len(H_ORDER) + 6 + 6
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_memo_moves_of_a_guarded_split(rng):
    """An operator past the cond guard has no basis: the moves are those to
    and from the other operator's eigenbasis, read-only."""
    for label, a, b in guarded_splits(rng):
        split = propagator._split(a, b)
        kept = [op for op in "AB" if split["bases"][op] is not None]
        identity_moves = {k for op in kept for k in ((None, op), (op, None))}
        assert set(split["moves"]) == identity_moves
        assert not any(arr.flags.writeable for arr in record_arrays(split))


def test_returned_stacks_share_no_memory_with_the_memo(rng):
    """Every call returns fresh arrays: writing into one changes neither
    the memo nor the next call's result."""
    splits = [("SYM_SIMPLE",) + split_of("SYM_SIMPLE"),
              ("ARBITRARY",) + split_of("ARBITRARY")] + guarded_splits(rng)
    for label, a, b in splits:
        empirical_order(schemes.get_scheme("strang"), a, b, H_ORDER)  # fills refs
        for s in schemes.catalog():
            for h in (H_ORDER, 0.3):
                got = step_matrix(s, a, b, h)
                want = got.copy()
                memo = record_arrays(propagator._split(a, b))
                assert not any(np.shares_memory(got, arr) for arr in memo)
                got[...] = np.nan
                assert_bitwise(step_matrix(s, a, b, h), want, (label, s.name))


@pytest.mark.parametrize("cls", ["SYM_SIMPLE", "SYM_SIMPLE_NONSYM_SPLIT"])
def test_memo_diagonalises_each_operator_once(cls, monkeypatch):
    a, b = split_of(cls)
    calls = []
    eigh, eig, expm = np.linalg.eigh, np.linalg.eig, linalg.expm
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append("eigh") or eigh(m))
    monkeypatch.setattr(np.linalg, "eig", lambda m: calls.append("eig") or eig(m))
    monkeypatch.setattr(linalg, "expm", lambda m: calls.append("expm") or expm(m))
    clear_memos()
    for s in schemes.catalog():
        step_matrix(s, a, b, H_SWEEP)
        step_matrix(s, a, b, 0.3)
    assert len(calls) == 2 and "expm" not in calls  # one eigh or eig per operator
    # the transfer matrices are built with the bases, once per split
    assert propagator._split_record.cache_info().misses == 1
    calls.clear()
    for s in schemes.catalog():
        empirical_order(s, a, b, H_ORDER)
    assert calls == ["expm"] * len(H_ORDER)
    # a grid that shares h with the last one builds only its new references
    calls.clear()
    empirical_order(s, a, b, np.append(H_ORDER[::2], 0.45))
    assert calls == ["expm"]
    assert propagator._split_record.cache_info().misses == 1


def test_step_matrix_rejects_2d_h(sym_split):
    _, a, b = sym_split
    with pytest.raises(linalg.DimensionError):
        step_matrix(schemes.get_scheme("S31"), a, b, np.ones((2, 2)))


def pt16():
    """(grid, V, u0): the Poeschl-Teller well and Gaussian on 16 points."""
    grid = spectral.SpectralGrid(n=16)
    return grid, spectral.pt_potential(grid), spectral.initial_gaussian(grid)


def without_calls(names, call, *args):
    """``call(*args)``; the test fails if it calls one of the functions
    ``names`` of ``spectral``, ``propagator`` or ``experiments`` (each is
    replaced wherever one of these modules binds it), whether it returns or
    raises."""
    calls = []
    bound = [(module, name) for name in names
             for module in (spectral, propagator, experiments) if hasattr(module, name)]
    assert {name for _, name in bound} == set(names), "a name no module binds"
    with pytest.MonkeyPatch.context() as mp:
        for module, name in bound:
            mp.setattr(module, name, lambda *_, name=name: calls.append(name))
        try:
            return call(*args)
        finally:
            assert not calls, f"{call.__name__} called {calls} on an h it refuses"


@pytest.mark.parametrize("call", [
    lambda s, a, b: empirical_order(s, a, b, H_ORDER * (1.0 + 0.1j)),
    lambda s, a, b: fit_loglog(H_ORDER * (1.0 + 0.1j), H_ORDER**4),
    lambda s, a, b: fit_loglog(H_ORDER, H_ORDER**4 * (1.0 + 0.1j)),
    lambda s, a, b: reversibility_report(s, a, b, 0.1 + 0.1j),
    lambda s, a, b: reversibility_report(s, a, b, np.complex128(0.1 + 0.1j)),
    lambda s, a, b: experiments.dh_sweep(s, a, b, H_SWEEP * (1.0 + 0.1j)),
    lambda s, a, b: experiments.dh_sweep(s, a, b, np.array([0.1 + 0j])),
    lambda s, a, b: [spectral.split_step(s, *pt16(), h)
                     for h in (0.1, np.complex128(0.1))],
    lambda s, a, b: experiments.conservation_run(s, *pt16(),
                                                 np.complex128(0.1 + 0.05j), 10),
    lambda s, a, b: without_calls(("build_dense_hamiltonian", "split_step"),
                                  spectral.pt_empirical_order, s, *pt16()[:2],
                                  H_ORDER * (1.0 + 0.1j)),
], ids=["empirical_order",
        "fit_loglog_h", "fit_loglog_errors", "reversibility_report",
        "reversibility_report_numpy_scalar", "dh_sweep", "dh_sweep_zero_imaginary_part",
        "split_step_after_the_equal_real_h", "conservation_run", "pt_empirical_order"])
def test_a_complex_h_is_refused_where_only_a_real_h_makes_sense(sym_split, call):
    """``step_matrix`` takes a complex step (criterion 5b's Taylor check
    uses it); the real-h diagnostics raise on one, also where warnings are
    ignored, rather than drop its imaginary part with a ComplexWarning.
    ``split_step`` refuses one also right after a step at the equal real h,
    whose phases are cached, and ``pt_empirical_order`` before it builds
    the dense H or takes a step.  ``tests/test_public_api.py`` checks that
    every public function that takes an h has a case here."""
    _, a, b = sym_split
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(TypeError, match="cast .*complex"):
            call(schemes.get_scheme("S31"), a, b)


def grid_with(bad):
    """H_ORDER with its third entry replaced by ``bad``."""
    h = H_ORDER.copy()
    h[2] = bad
    return h


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.1])
@pytest.mark.parametrize("case", [
    lambda s, a, b, h: (empirical_order, s, a, b, grid_with(h)),
    lambda s, a, b, h: (empirical_order, s, a, b, h),
    lambda s, a, b, h: (fit_loglog, grid_with(h), H_ORDER**4),
    lambda s, a, b, h: (fit_loglog, h, 1e-3),
    lambda s, a, b, h: (spectral.pt_empirical_order, s, *pt16()[:2], grid_with(h)),
    lambda s, a, b, h: (spectral.pt_empirical_order, s, *pt16()[:2], h),
    lambda s, a, b, h: (experiments.dh_sweep, s, a, b, grid_with(h)),
    lambda s, a, b, h: (experiments.dh_sweep, s, a, b, h),
    lambda s, a, b, h: (reversibility_report, s, a, b, h),
    lambda s, a, b, h: (spectral.split_step, s, *pt16(), h),
    lambda s, a, b, h: (experiments.conservation_run, s, *pt16(), h, 10),
], ids=["empirical_order", "empirical_order_scalar", "fit_loglog", "fit_loglog_scalar",
        "pt_empirical_order", "pt_empirical_order_scalar", "dh_sweep", "dh_sweep_scalar",
        "reversibility_report", "split_step", "conservation_run"])
def test_an_h_that_is_not_finite_and_positive_is_refused_before_any_work(
        sym_split, capfd, case, bad):
    """Each public function of a real h reads it with ``linalg.as_steps``:
    an h of nan, inf, 0 or -0.1, alone or as one entry of a grid, is its
    ValueError before any step, step matrix, dense H or FFT, and nothing is
    printed.  Before, ``fit_loglog`` raised numpy's LinAlgError after
    LAPACK printed parameter errors, ``split_step`` blamed a state
    overflow or took a zero or backward step, ``reversibility_report``
    returned NaN residuals, ``dh_sweep`` recorded failed h or rows and the
    order fits returned slopes.  ``tests/test_public_api.py`` checks that
    every public function that takes an h has a case here."""
    _, a, b = sym_split
    call, *args = case(schemes.get_scheme("S31"), a, b, bad)
    with pytest.raises(ValueError, match=r"^h must be finite and > 0, got "):
        without_calls(("step_matrix", "split_step", "build_dense_hamiltonian", "dft"),
                      call, *args)
    assert capfd.readouterr().out == ""


#: wrong shapes of h, each with the end of the reader's message: a grid
#: function's scalar or 2-D grid, and a scalar function's 2-entry array,
#: list of one, or 2-tuple (which the phase cache of ``split_step`` hashes)
GRID_H = {"scalar": (0.1, "a 1-D grid, got shape ()"),
          "2d": (H_ORDER.reshape(2, 4), "a 1-D grid, got shape (2, 4)")}
STEP_H = {"pair": (np.array([0.1, 0.2]), "a scalar, got shape (2,)"),
          "list": ([0.1], "a scalar, got shape (1,)"),
          "tuple": ((0.1, 0.2), "a scalar, got shape (2,)")}


@pytest.mark.parametrize("case, h, message", [
    pytest.param(case, h, message, id=f"{name}-{kind}")
    for name, case, shapes in [
        ("empirical_order", lambda s, a, b, h: (empirical_order, s, a, b, h), GRID_H),
        ("fit_loglog", lambda s, a, b, h: (fit_loglog, h, np.asarray(h) ** 4), GRID_H),
        ("pt_empirical_order",
         lambda s, a, b, h: (spectral.pt_empirical_order, s, *pt16()[:2], h), GRID_H),
        ("dh_sweep", lambda s, a, b, h: (experiments.dh_sweep, s, a, b, h), GRID_H),
        ("reversibility_report",
         lambda s, a, b, h: (reversibility_report, s, a, b, h), STEP_H),
        ("split_step", lambda s, a, b, h: (spectral.split_step, s, *pt16(), h), STEP_H),
        ("conservation_run",
         lambda s, a, b, h: (experiments.conservation_run, s, *pt16(), h, 10), STEP_H),
    ] for kind, (h, message) in shapes.items()])
def test_an_h_of_the_wrong_shape_is_refused_before_any_work(
        sym_split, capfd, case, h, message):
    """``linalg.as_steps`` decides the shape of h too: a grid function
    given a scalar or a 2-D grid, and a scalar function given an array,
    list or tuple of h, raise its DimensionError before any step, step
    matrix, dense H or FFT, and print nothing.  Before, ``fit_loglog``
    fitted a 2-D grid flattened, ``split_step`` raised "unhashable type"
    or, on a tuple, numpy's broadcasting error, ``conservation_run``
    failed after an FFT, and the others failed in numpy, in
    ``step_matrix`` or after building the dense H.
    ``tests/test_public_api.py`` checks that every public function that
    takes an h has a case here."""
    _, a, b = sym_split
    call, *args = case(schemes.get_scheme("S31"), a, b, h)
    with pytest.raises(linalg.DimensionError, match=rf"^h must be {re.escape(message)}$"):
        without_calls(("step_matrix", "split_step", "build_dense_hamiltonian", "dft"),
                      call, *args)
    assert capfd.readouterr().out == ""


def test_reversibility_report_of_two_h_is_a_dimension_error(sym_split):
    """``[h, -h]`` of a two-entry h is a 2-D h, which ``step_matrix``
    refuses, not S_{h0} paired with S_{-h1}."""
    _, a, b = sym_split
    with pytest.raises(linalg.DimensionError):
        reversibility_report(schemes.get_scheme("S31"), a, b, np.array([0.1, 0.2]))


def test_fit_loglog_refuses_h_and_errors_of_different_shapes():
    """Eight h and seven errors raised numpy's IndexError from the mask."""
    with pytest.raises(ValueError, match=r"^h_values of shape \(8,\), errors \(7,\)$"):
        fit_loglog(H_ORDER, H_ORDER[:-1] ** 4)


@pytest.mark.parametrize("case", ["unguarded", "guarded"])
def test_step_matrix_of_an_empty_grid_is_an_empty_stack(rng, case):
    """An empty h gives a (0, n, n) stack on any valid split; a guarded one
    (B nilpotent) raised numpy's ValueError.  An invalid split still raises."""
    a, b = split_of("SYM_SIMPLE")
    if case == "guarded":
        b = nilpotent(rng, 10)
    for name in ("strang", "S31", "NB11s6"):
        stack = step_matrix(schemes.get_scheme(name), a, b, np.array([]))
        assert stack.shape == (0, 10, 10) and stack.dtype == complex
    bad_a, bad_b, error, message = invalid_split("nan entry", a, b)
    with pytest.raises(error, match=message):
        step_matrix(schemes.get_scheme("S31"), bad_a, bad_b, np.array([]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8),
       h=st.floats(0.01, 0.5))
def test_real_split_reversibility_property(seed, n, h):
    """conj(S_h) S_h = I on any real split, for every catalog scheme."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-1.0, 1.0, (2, n, n))
    for s in schemes.catalog():
        s_h = step_matrix(s, a, b, h)
        assert np.linalg.norm(s_h.conj() @ s_h - np.eye(n)) <= 1e-10


@pytest.mark.parametrize("name", ["S31", "NB5s4", "B15s6"])
@pytest.mark.parametrize("h", [0.01, 0.1, 0.5])
def test_reversibility_residuals_small(sym_split, name, h):
    _, a, b = sym_split
    rep = reversibility_report(schemes.get_scheme(name), a, b, h)
    assert rep["sc2_residual"] <= 1e-12
    assert rep["sc3_residual"] <= 1e-12


def test_reversibility_fails_for_non_reversible_scheme(sym_split):
    # the palindromic drift comparator does not satisfy conj(S_h) S_h = I
    _, a, b = sym_split
    rep = reversibility_report(schemes.drift_comparator(), a, b, 0.3)
    assert rep["sc2_residual"] > 1e-3


def test_empirical_order_strang(sym_split):
    _, a, b = sym_split
    fit = empirical_order(schemes.get_scheme("strang"), a, b,
                          np.geomspace(0.05, 0.4, 8))
    assert isinstance(fit, OrderFit)
    assert fit.slope == pytest.approx(3.0, abs=0.3)  # local error ~ h^{p+1}


def test_eigenphase_error_scales(sym_split, eigenphase_errors):
    _, a, b = sym_split
    errors, _ = eigenphase_errors(schemes.get_scheme("strang"), a, b,
                                  np.array([0.02, 0.04]))
    # third-order phase error: doubling h multiplies the error by ~8
    assert errors[1] / errors[0] == pytest.approx(8.0, rel=0.35)


def test_eigenphase_warns_when_pairing_ambiguous(sym_split, eigenphase_errors):
    # at h = 3 a second exact phase lies within twice the nearest one's
    # distance; the measure flags that h, which fails criterion 6
    _, a, b = sym_split
    _, ambiguous = eigenphase_errors(schemes.get_scheme("strang"), a, b,
                                     np.array([0.02, 0.04, 3.0]))
    assert ambiguous == [3.0]


def test_fit_window_exclusions(sym_split):
    # huge h lands above the 1e-1 window and must be reported, not fitted
    _, a, b = sym_split
    fit = empirical_order(schemes.get_scheme("strang"), a, b,
                          [0.05, 0.1, 0.2, 6.0])
    assert 6.0 in fit.excluded
    assert 6.0 not in fit.h_used


def test_fit_requires_two_points():
    with pytest.raises(linalg.NumericalError):
        fit_loglog([0.1, 0.2], [1e-15, 5e-15])


def test_fit_reports_a_non_finite_error_as_failed_not_excluded():
    fit = fit_loglog([0.1, 0.2, 0.3, 0.4, 0.5], [1e-15, 1e-4, 8e-4, np.inf, np.nan])
    assert fit.h_used == (0.2, 0.3)
    assert fit.slope == pytest.approx(np.log(8) / np.log(1.5))
    assert fit.excluded == (0.1,) and fit.failed == (0.4, 0.5)
    # only finite points inside the window count towards the two a fit needs
    with pytest.raises(linalg.NumericalError, match="fewer than two points"):
        fit_loglog([0.1, 0.2, 0.3], [1e-4, np.inf, np.nan])

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from unisplit import experiments, linalg, propagator, schemes
from unisplit.propagator import (
    OrderFit,
    eigenphase_error,
    empirical_order,
    exact_propagator,
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


def nilpotent(rng, n):
    """A rank-one u w^T with w^T u = 0, so that its square is zero."""
    u, w = rng.standard_normal(n), rng.standard_normal(n)
    w -= (w @ u) / (u @ u) * u
    return np.outer(u, w)


def clear_memos():
    """Empty the per-split memos, so that a call after this one is cold."""
    propagator._split_bases.cache_clear()
    propagator._exact_propagators.cache_clear()


def split_of(cls):
    spec = experiments.MatrixClassSpec(experiments.MatrixClass[cls], n=10, seed=0)
    return experiments.generate(spec)[1:]


def _reference_step_matrix(scheme, a, b, h):
    """The step matrix as built before the transfer matrices were memoised:
    every change of operator forms V_to^-1 V_from again, every factor takes
    its own phases, and every product is a fresh array."""
    am, bm = linalg.as_matrix(a), linalg.as_matrix(b)
    ops = {"A": am, "B": bm}
    bases = {op: propagator._eigenbasis(m) for op, m in ops.items()}
    h_arr = np.asarray(h, dtype=complex if np.iscomplexobj(h) else float)
    ih = 1j * h_arr.reshape(-1)
    s, basis_of = None, None
    for f in scheme.factors:
        z = ih * f.coeff
        basis = bases[f.op]
        if basis is None:
            if basis_of is not None:
                s, basis_of = bases[basis_of][1] @ s, None
            e = np.empty((len(z),) + am.shape, dtype=complex)
            for i, zi in enumerate(z):
                e[i] = linalg.expm(zi * ops[f.op])
            s = e if s is None else e @ s
            continue
        lam, _, v_inv = basis
        if basis_of != f.op:
            t = v_inv if basis_of is None else v_inv @ bases[basis_of][1]
            s = t if s is None else t @ s
            basis_of = f.op
        s = np.exp(z[:, None] * lam)[:, :, None] * s
    if basis_of is not None:
        s = bases[basis_of][1] @ s
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
    a, b = nilpotent(rng, 5), nilpotent(rng, 5)
    for s_h, hk in zip(step_matrix(s, a, b, h), h):
        assert np.array_equal(s_h, expm_product(s, a, b, hk))
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
    a = a.astype(complex)  # as_matrix then returns the caller's own array
    s = schemes.get_scheme("S31")
    clear_memos()
    before = step_matrix(s, a, b, H_SWEEP)
    a[0, 1] += 0.25
    a[1, 0] += 0.25
    after = step_matrix(s, a, b, H_SWEEP)
    clear_memos()
    assert after.tobytes() == step_matrix(s, a, b, H_SWEEP).tobytes()
    assert not np.array_equal(after, before)


def test_memo_entries_are_read_only():
    a, b = split_of("ARBITRARY")
    clear_memos()
    empirical_order(schemes.get_scheme("strang"), a, b, H_ORDER)
    am, bm = linalg.as_matrix(a), linalg.as_matrix(b)
    bases = propagator._split_bases(am.shape, am.tobytes(), bm.tobytes())
    hm = am + bm
    refs = propagator._exact_propagators(hm.shape, hm.tobytes(), H_ORDER.tobytes())
    assert propagator._split_bases.cache_info().hits == 1
    assert propagator._exact_propagators.cache_info().hits == 1
    moves = bases["moves"]
    # to and from the identity are V^-1 and V; the transfers are new arrays
    assert set(moves) == {(None, "A"), ("A", None), (None, "B"), ("B", None),
                          ("A", "B"), ("B", "A")}
    assert moves[None, "A"] is bases["A"][2] and moves["B", None] is bases["B"][1]
    arrays = ([arr for op in "AB" for arr in bases[op]] + list(refs)
              + [moves["A", "B"], moves["B", "A"]])
    assert len(arrays) == 6 + len(H_ORDER) + 2
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_memo_moves_of_a_guarded_split(rng):
    """An operator past the cond guard has no basis: the moves are those to
    and from the other operator's eigenbasis, read-only."""
    for label, a, b in guarded_splits(rng):
        am, bm = linalg.as_matrix(a), linalg.as_matrix(b)
        bases = propagator._split_bases(am.shape, am.tobytes(), bm.tobytes())
        kept = [op for op in "AB" if bases[op] is not None]
        assert set(bases["moves"]) == {k for op in kept for k in ((None, op), (op, None))}
        assert not any(arr.flags.writeable for arr in bases["moves"].values())


def test_returned_stacks_share_no_memory_with_the_memo(rng):
    """Every call returns fresh arrays: writing into one changes neither
    the memo nor the next call's result."""
    splits = [("SYM_SIMPLE",) + split_of("SYM_SIMPLE"),
              ("ARBITRARY",) + split_of("ARBITRARY")] + guarded_splits(rng)
    for label, a, b in splits:
        am, bm = linalg.as_matrix(a), linalg.as_matrix(b)
        for s in schemes.catalog():
            for h in (H_ORDER, 0.3):
                got = step_matrix(s, a, b, h)
                want = got.copy()
                bases = propagator._split_bases(am.shape, am.tobytes(), bm.tobytes())
                memo = [arr for op in "AB" if bases[op] for arr in bases[op]]
                memo += list(bases["moves"].values())
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
    assert propagator._split_bases.cache_info().misses == 1
    calls.clear()
    for s in schemes.catalog():
        empirical_order(s, a, b, H_ORDER)
    assert calls == ["expm"] * len(H_ORDER)


def test_step_matrix_rejects_2d_h(sym_split):
    _, a, b = sym_split
    with pytest.raises(linalg.DimensionError):
        step_matrix(schemes.get_scheme("S31"), a, b, np.ones((2, 2)))


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


def test_exact_propagator_unitary(sym_split):
    h_mat, _, _ = sym_split
    u = exact_propagator(h_mat, 0.7)
    assert np.allclose(u @ u.conj().T, np.eye(10), atol=1e-12)


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


def test_eigenphase_error_zero_h(sym_split):
    _, a, b = sym_split
    assert eigenphase_error(schemes.get_scheme("S31"), a, b, 0.0) == 0.0


def test_eigenphase_error_scales(sym_split):
    _, a, b = sym_split
    s = schemes.get_scheme("strang")
    e1 = eigenphase_error(s, a, b, 0.02)
    e2 = eigenphase_error(s, a, b, 0.04)
    # third-order phase error: doubling h multiplies the error by ~8
    assert e2 / e1 == pytest.approx(8.0, rel=0.35)


def _reference_eigenphase_error(scheme, a, b, h):
    """(error, ambiguous) at one h: a scalar step matrix and the greedy
    pairing, row by row."""
    lam, _ = linalg.eig_symmetric(a + b)
    exact = np.exp(1j * h * lam)
    omega = linalg.eig_general(step_matrix(scheme, a, b, h))
    worst, ambiguous = 0.0, False
    for row in np.abs(omega[:, None] - exact[None, :]):
        j = int(np.argmin(row))
        others = np.delete(row, j)
        ambiguous |= bool(others.size and np.min(others) < 2.0 * row[j])
        worst = max(worst, float(row[j]))
    return worst, ambiguous


def test_eigenphase_error_stack_equals_scalar_calls(sym_split):
    _, a, b = sym_split
    # pairing is ambiguous at none, one or several of the h >= 1.5 per scheme
    h_grid = np.array([0.0, 0.02, 0.05, 0.4, 1.5, 2.0, 2.5, 3.0])
    for s in schemes.catalog():
        with warnings.catch_warnings(record=True) as scalar_warnings:
            warnings.simplefilter("always")
            scalar = [eigenphase_error(s, a, b, float(h)) for h in h_grid]
        with warnings.catch_warnings(record=True) as stack_warnings:
            warnings.simplefilter("always")
            stacked = eigenphase_error(s, a, b, h_grid)
        reference = [(0.0, False)] + [_reference_eigenphase_error(s, a, b, float(h))
                                      for h in h_grid[1:]]
        assert stacked.shape == h_grid.shape
        assert stacked.tobytes() == np.array(scalar).tobytes(), s.name
        assert stacked.tobytes() == np.array([e for e, _ in reference]).tobytes()
        messages = [str(w.message) for w in stack_warnings]
        assert messages == [str(w.message) for w in scalar_warnings]
        assert messages == [
            f"eigenphase pairing ambiguous at h={h}: two exact phases within "
            "2x the pairing distance"
            for h, (_, ambiguous) in zip(h_grid, reference) if ambiguous]
    with pytest.raises(linalg.DimensionError):
        eigenphase_error(s, a, b, h_grid[None, :])


def test_eigenphase_warns_when_pairing_ambiguous(sym_split):
    _, a, b = sym_split
    with pytest.warns(RuntimeWarning):
        eigenphase_error(schemes.get_scheme("strang"), a, b, 3.0)

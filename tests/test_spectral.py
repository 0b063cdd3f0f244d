import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from unisplit import linalg, propagator, schemes, spectral
from unisplit.spectral import (
    FftCounter,
    SpectralGrid,
    build_dense_hamiltonian,
    dft,
    idft,
    initial_gaussian,
    observables,
    pt_empirical_order,
    pt_potential,
    rkn_residual,
    split_step,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        SpectralGrid(n=100)  # not a power of two
    with pytest.raises(ValueError):
        SpectralGrid(n=64, x_min=1.0, x_max=-1.0)


def test_grid_geometry(grid64):
    assert grid64.dx == pytest.approx(16.0 / 64)
    assert grid64.x[0] == pytest.approx(-8.0)
    assert grid64.x[-1] == pytest.approx(8.0 - grid64.dx)
    # wavenumbers come in +/- pairs plus the zero and Nyquist modes
    k = np.sort(grid64.k)
    assert k[0] == pytest.approx(-np.pi * 64 / 16.0)
    assert np.count_nonzero(k == 0.0) == 1


def test_dft_against_naive_sum(rng):
    """Quadratic-cost reference transform, independent of the FFT route."""
    grid = SpectralGrid(n=16)
    u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    naive = np.array([
        sum(u[j] * np.exp(-2j * np.pi * j * m / 16) for j in range(16))
        for m in range(16)
    ]) / np.sqrt(16)
    assert np.allclose(dft(grid, u), naive, atol=1e-12)


def test_transform_round_trip_and_unitarity(grid64, rng):
    u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert np.allclose(idft(grid64, dft(grid64, u)), u, atol=1e-13)
    assert np.linalg.norm(dft(grid64, u)) == pytest.approx(np.linalg.norm(u))


def test_counter_increments(grid64, rng):
    c = FftCounter()
    u = rng.standard_normal(64)
    dft(grid64, u, c)
    idft(grid64, u, c)
    assert c.count == 2


def test_pt_potential_depth(grid256):
    v = pt_potential(grid256)
    assert v.min() == pytest.approx(-5.0)  # alpha=1, lam(lam-1)=10 at x=0
    assert np.all(v < 0)
    with pytest.raises(ValueError):
        pt_potential(grid256, alpha=-1.0)


def test_initial_gaussian_normalized(grid256):
    u = initial_gaussian(grid256)
    assert grid256.norm(u) == pytest.approx(1.0)
    # normalizing constant approaches pi^(-1/4) on a well-resolved grid
    assert u.max().real == pytest.approx(np.pi ** -0.25, rel=1e-10)


def test_split_step_counts_ffts(pt256):
    grid, v = pt256
    s = schemes.get_scheme("NB5s4")
    c = FftCounter()
    split_step(s, grid, v, initial_gaussian(grid), 0.1, c)
    n_a = sum(1 for f in s.factors if f.op == "A")
    assert c.count == 2 * n_a


@pytest.mark.parametrize("name", ["strang", "S31", "NB5s4"])
def test_split_step_matches_dense_oracle(pt64, name, rng):
    grid, v, a, b, _ = pt64
    u0 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    u0 = u0 / grid.norm(u0)
    s = schemes.get_scheme(name)
    stepped = split_step(s, grid, v, u0, 0.13)
    dense = propagator.step_matrix(s, a, b, 0.13) @ u0
    assert grid.norm(stepped - dense) < 1e-11


def _reference_split_step(scheme, grid, v_pot, u, h, counter=None):
    """The uncached loop: every phase rebuilt, the exact peak checked after
    every factor, and the transforms taken by ``np.fft`` itself, counted as
    ``dft``/``idft`` count them."""
    state = np.asarray(u, dtype=complex)
    k2 = grid.k**2 / 2.0
    for f in scheme.factors:
        c = f.coeff
        if f.op == "A":
            if counter is not None:
                counter.count += 2
            state = np.fft.ifft(
                np.exp(-1j * h * c * k2) * np.fft.fft(state, norm="ortho"),
                norm="ortho")
        else:
            state = state * np.exp(-1j * h * c * v_pot)
        peak = float(np.max(np.abs(state)))
        if not np.isfinite(peak) or peak > spectral.OVERFLOW_LIMIT:
            raise linalg.NumericalError(
                f"state overflow in factor ({f.op}, {c}) at h={h}"
            )
    return state


def _run(step, scheme, grid, v, h, n_steps, u=None):
    """(final state bytes, FFT count, (step, message) of an overflow or None)."""
    counter = FftCounter()
    u = initial_gaussian(grid) if u is None else u
    for n in range(n_steps):
        try:
            u = step(scheme, grid, v, u, h, counter)
        except linalg.NumericalError as exc:
            return u.tobytes(), counter.count, (n, str(exc))
    return u.tobytes(), counter.count, None


ALL_SCHEMES = schemes.catalog() + [schemes.drift_comparator()]


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
def test_split_step_bitwise_equals_uncached_loop(pt64, scheme):
    # h = 1.3 overflows S31, S32, S4, B3s3 and the comparator within 60 steps.
    # N = 32 is a 2*4^k size and N = 64 a 4^k size: FFT libraries may round
    # the two kinds differently.
    grid32 = SpectralGrid(n=32)
    for grid, v in ((grid32, pt_potential(grid32)), pt64[:2]):
        for h in (0.05, 100.0 / 909.0, 0.4, 1.3):
            assert _run(split_step, scheme, grid, v, h, 60) == \
                _run(_reference_split_step, scheme, grid, v, h, 60)


def test_split_step_copies_its_input(pt64, rng):
    grid, v, _, _, _ = pt64
    s = schemes.get_scheme("NB5s4")
    u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    u.flags.writeable = False
    kept = u.copy()
    first = split_step(s, grid, v, u, 0.1)
    second = split_step(s, grid, v, u, 0.1)
    assert np.array_equal(u, kept)
    assert np.array_equal(first, second)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, u) and not np.shares_memory(second, u)
    assert np.array_equal(first, _reference_split_step(s, grid, v, u, 0.1))


@pytest.mark.parametrize("transform", [dft, idft], ids=["dft", "idft"])
def test_transform_into_out(grid32, rng, transform):
    u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    out = np.empty(32, dtype=complex)
    c = FftCounter()
    got = transform(grid32, u, c, out=out)
    assert got is out
    assert c.count == 1
    assert got.tobytes() == transform(grid32, u).tobytes()


def _transform_inputs(n, rows=()):
    """Complex, real, read-only and strided inputs of shape rows + (n,)."""
    gen = np.random.default_rng(n)
    shape, wide_shape = (*rows, n), (*rows, 2 * n)
    z = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    frozen = z.copy()
    frozen.flags.writeable = False
    wide = gen.standard_normal(wide_shape) + 1j * gen.standard_normal(wide_shape)
    return {"complex": z, "real": gen.standard_normal(shape), "read-only": frozen,
            "strided": wide[..., ::2]}


@pytest.mark.parametrize("n", [2**k for k in range(1, 15)])
@pytest.mark.parametrize("transform, numpy_fft", [(dft, np.fft.fft), (idft, np.fft.ifft)],
                         ids=["dft", "idft"])
def test_transform_bitwise_equals_np_fft(n, transform, numpy_fft):
    grid = SpectralGrid(n=n)
    for kind, u in _transform_inputs(n).items():
        kept = u.copy()
        want = numpy_fft(u, norm="ortho").tobytes()
        c = FftCounter()
        assert transform(grid, u, c).tobytes() == want, kind
        out = np.empty(n, dtype=complex)
        assert transform(grid, u, c, out=out) is out
        assert out.tobytes() == want, kind
        assert c.count == 2
        assert np.array_equal(u, kept)


@pytest.mark.parametrize("transform", [dft, idft], ids=["dft", "idft"])
@pytest.mark.parametrize("length", [16, 64])
def test_transform_refuses_wrong_out_length(grid32, rng, transform, length):
    u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    out = np.full(length, 7.0 + 7.0j)
    with pytest.raises(linalg.DimensionError, match="out must have shape"):
        transform(grid32, u, out=out)
    assert np.all(out == 7.0 + 7.0j)


@pytest.mark.parametrize("k", [1, 2, 3, 64])
@pytest.mark.parametrize("n", [2**p for p in range(1, 15)])
@pytest.mark.parametrize("transform", [dft, idft], ids=["dft", "idft"])
def test_stacked_transform_rows_bitwise_equal_single_calls(transform, n, k):
    grid = SpectralGrid(n=n)
    for kind, stack in _transform_inputs(n, (k,)).items():
        kept = stack.copy()
        c = FftCounter()
        got = transform(grid, stack, c)
        assert c.count == k, kind
        out = np.empty((k, n), dtype=complex)
        assert transform(grid, stack, c, out=out) is out
        assert c.count == 2 * k, kind
        for row, got_row, out_row in zip(stack, got, out):
            want = transform(grid, row).tobytes()
            assert got_row.tobytes() == want, kind
            assert out_row.tobytes() == want, kind
        assert np.array_equal(stack, kept)


@pytest.mark.parametrize("transform", [dft, idft], ids=["dft", "idft"])
@pytest.mark.parametrize("u_shape, out_shape", [
    ((3, 32), (3, 16)), ((3, 32), (3, 64)), ((3, 32), (2, 32)), ((3, 32), (4, 32)),
    ((3, 32), (32,)), ((32,), (1, 32)),
], ids=str)
def test_stacked_transform_refuses_an_out_of_another_shape(grid32, rng, transform,
                                                          u_shape, out_shape):
    u = rng.standard_normal(u_shape) + 1j * rng.standard_normal(u_shape)
    out = np.full(out_shape, 7.0 + 7.0j)
    c = FftCounter()
    with pytest.raises(linalg.DimensionError, match="out must have shape"):
        transform(grid32, u, c, out=out)
    assert np.all(out == 7.0 + 7.0j)
    assert c.count == 0


@pytest.mark.parametrize("transform", [dft, idft], ids=["dft", "idft"])
@pytest.mark.parametrize("shape", [(2, 3, 32), (3, 16), (32, 3), (16,), ()])
def test_transform_refuses_an_input_of_another_shape(grid32, transform, shape):
    with pytest.raises(linalg.DimensionError, match="expected length 32"):
        transform(grid32, np.ones(shape))


def test_overflowing_gain_matches_reference():
    # S4 at N = 512, h = 0.4: max|phase| is about 2e283, so its square is inf
    grid = SpectralGrid(n=512)
    v = pt_potential(grid)
    s = schemes.get_scheme("S4")
    phases = spectral._factor_phases(s, grid, 0.4, v.dtype.str, v.shape, v.tobytes())
    assert any(np.isinf(gain) for *_, gain in phases)
    got = _run(split_step, s, grid, v, 0.4, 5)
    assert got[2] is not None
    assert got == _run(_reference_split_step, s, grid, v, 0.4, 5)


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(ALL_SCHEMES),
    h=st.floats(1e-3, 2.0),
    n=st.sampled_from([16, 32, 64]),
    exponent=st.floats(0.0, 12.5),
    seed=st.integers(0, 2**32 - 1),
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_split_step_matches_reference_loop_property(scheme, h, n, exponent, seed):
    grid = SpectralGrid(n=n)
    v = pt_potential(grid)
    gen = np.random.default_rng(seed)
    u = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    u *= 10.0**exponent / grid.norm(u)
    assert _run(split_step, scheme, grid, v, h, 5, u) == \
        _run(_reference_split_step, scheme, grid, v, h, 5, u)


def _phase_cache_misses():
    return spectral._factor_phases.cache_info().misses


def test_phase_cache_follows_potential_values(pt64):
    grid, v_fixture, _, _, _ = pt64
    s = schemes.get_scheme("NB5s4")
    u = initial_gaussian(grid)
    v = v_fixture.copy()
    before = split_step(s, grid, v, u, 0.1)
    assert np.array_equal(before, _reference_split_step(s, grid, v, u, 0.1))
    # equal values in a new array reuse the cached phases
    misses = _phase_cache_misses()
    assert np.array_equal(split_step(s, grid, v.copy(), u, 0.1), before)
    assert _phase_cache_misses() == misses
    # the same array changed in place is a new potential
    v *= 1.5
    after = split_step(s, grid, v, u, 0.1)
    assert _phase_cache_misses() == misses + 1
    assert np.array_equal(after, _reference_split_step(s, grid, v, u, 0.1))
    assert not np.array_equal(after, before)


@pytest.mark.parametrize("change", ["h", "grid", "dtype", "scheme"])
def test_phase_cache_keys_on_h_grid_and_dtype(pt64, change):
    grid, v, _, _, _ = pt64
    s = schemes.get_scheme("NB5s4")
    h = 0.1
    spectral._factor_phases.cache_clear()
    split_step(s, grid, v, initial_gaussian(grid), h)
    if change == "scheme":
        # the same name with other coefficients: equal hashes, unequal schemes
        s = dataclasses.replace(s, factors=tuple(
            schemes.Factor(f.op, f.coeff.conjugate()) for f in s.factors))
        assert hash(s) == hash(schemes.get_scheme("NB5s4"))
    elif change == "h":
        h = 0.1 + 2**-40
    elif change == "grid":
        grid = SpectralGrid(n=64, x_min=-9.0, x_max=9.0)
        v = pt_potential(grid)
    else:
        v = v.astype(complex)
    u = initial_gaussian(grid)
    misses = _phase_cache_misses()
    got = split_step(s, grid, v, u, h)
    assert _phase_cache_misses() == misses + 1
    assert np.array_equal(got, _reference_split_step(s, grid, v, u, h))


def test_cached_arrays_are_read_only(pt64):
    grid, v, _, _, _ = pt64
    s = schemes.get_scheme("strang")
    split_step(s, grid, v, initial_gaussian(grid), 0.1)
    phases = spectral._factor_phases(s, grid, 0.1, v.dtype.str, v.shape, v.tobytes())
    assert all(not phase.flags.writeable for _, _, phase, _ in phases)
    assert all(gain == np.max(np.abs(phase)) ** 2 * (1 + 1e-9)
               for _, _, phase, gain in phases)
    half_k2 = spectral._half_k2(grid)
    assert not half_k2.flags.writeable
    # the A symbol -k^2/2 keeps its bits when k^2/2 is negated instead
    assert np.array_equal(-half_k2, -grid.k**2 / 2.0)


@pytest.mark.parametrize("spikes", [
    [1.0 - 1e-12],           # peak just below the limit, norm above the safe bound
    [1.0 + 1e-12],           # peak just above the limit
    [0.8, 0.8],              # norm above the limit, peak below it
    [np.sqrt(1.0 - 2e-9)],   # norm just below the safe bound: the fast path
    [np.nan],
    [np.inf],
])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_overflow_check_at_the_margin(grid64, spikes):
    # B-factors with V = 0 leave the state exactly unchanged, so the first
    # check sees the spikes as they are
    s = schemes.drift_comparator()
    v = np.zeros(64)
    u = np.zeros(64, dtype=complex)
    u[10:10 + len(spikes)] = np.array(spikes) * spectral.OVERFLOW_LIMIT
    got = _run(split_step, s, grid64, v, 1e-3, 1, u)
    assert got == _run(_reference_split_step, s, grid64, v, 1e-3, 1, u)
    assert (got[2] is not None) == (spikes[0] > 1.0 or not np.isfinite(spikes[0]))
    if got[2] is not None:
        assert got[2] == (0, "state overflow in factor (B, (0.25+0.25j)) at h=0.001")


def test_split_step_overflow(pt256):
    grid, v = pt256
    bad = schemes.drift_comparator()
    u = initial_gaussian(grid)
    with pytest.raises(linalg.NumericalError, match="overflow"):
        for _ in range(2000):
            u = split_step(bad, grid, v, u, 0.5)


def test_observables_match_dense_forms(pt64):
    grid, v, _, _, h_dense = pt64
    u = initial_gaussian(grid)
    obs = observables(grid, v, u)
    assert obs["mass"] == pytest.approx(1.0)
    energy_dense = grid.dx * np.vdot(u, h_dense @ u)
    assert obs["energy"] == pytest.approx(energy_dense.real, abs=1e-12)
    assert abs(obs["energy_imag"]) < 1e-12


@pytest.mark.parametrize("n", [2, 8, 64, 256])
def test_observables_of_a_stack_equal_single_calls(n):
    """Row k of a stacked call has the bits of the call on row k alone,
    for one row, a contiguous stack and one strided in both axes."""
    grid = SpectralGrid(n=n)
    v = pt_potential(grid)
    gen = np.random.default_rng(n)
    wide = gen.standard_normal((10, 2 * n)) + 1j * gen.standard_normal((10, 2 * n))
    wide *= np.geomspace(1e-3, 1e3, 10)[:, None]
    for stack in (wide[:1, :n], wide[:, :n], wide[::-2, ::2]):
        got = observables(grid, v, stack)
        for name, values in got.items():
            assert isinstance(values, np.ndarray) and values.shape == (len(stack),)
        for k, row in enumerate(stack):
            single = observables(grid, v, row)
            assert all(isinstance(x, float) for x in single.values())
            assert {name: values[k] for name, values in got.items()} == single
            # the row reductions give the bits of the 1-D np.sum and np.vdot
            assert got["mass"][k] == grid.dx * float(np.sum(np.abs(row) ** 2))
            form = grid.dx * complex(np.vdot(row, spectral._a_action(grid, row) - v * row))
            assert (got["energy"][k], got["energy_imag"][k]) == (form.real, form.imag)


def test_rkn_residual_resolution_dependence(grid256, grid32):
    u256 = initial_gaussian(grid256)
    u32 = initial_gaussian(grid32)
    assert rkn_residual(grid256, pt_potential(grid256), u256) < 1e-9
    assert rkn_residual(grid32, pt_potential(grid32), u32) > 1e-2


def test_dense_hamiltonian_structure(pt64):
    grid, v, a, b, h = pt64
    assert np.allclose(h, h.T, atol=1e-12)
    assert np.array_equal(b, np.diag(-v))
    # dense action agrees with the matrix-free one
    u = initial_gaussian(grid)
    hu_free = spectral._a_action(grid, u) - v * u
    assert np.allclose(h @ u, hu_free, atol=1e-12)


@pytest.mark.parametrize("n", [2, 32, 64, 256])
def test_dense_hamiltonian_equals_column_loop(n):
    grid = SpectralGrid(n=n)
    v = pt_potential(grid)
    cols = [spectral._a_action(grid, e) for e in np.eye(n, dtype=complex)]
    a_loop = np.stack(cols, axis=1).real
    a, _, h = build_dense_hamiltonian(grid, v)
    assert a.tobytes() == a_loop.tobytes()
    assert h.tobytes() == (a_loop + np.diag(-v)).tobytes()


def test_dense_assembly_size_guard():
    with pytest.raises(ValueError):
        build_dense_hamiltonian(SpectralGrid(n=2048), np.zeros(2048))


def test_pt_empirical_order_errors_against_expm(pt64):
    """Each error is ||split_step(u0) - expm(i h H) u0|| on the dense H."""
    grid, v, _, _, h_dense = pt64
    s = schemes.get_scheme("NB5s4")
    hs = [0.1, 0.2, 0.4]
    u0 = initial_gaussian(grid)
    oracle = [grid.norm(split_step(s, grid, v, u0, h)
                        - scipy.linalg.expm(1j * h * h_dense) @ u0) for h in hs]
    fit = pt_empirical_order(s, grid, v, hs)
    assert fit.h_used == tuple(hs) and not fit.excluded
    assert np.allclose(fit.errors, oracle, rtol=1e-8, atol=1e-13)


def test_pt_empirical_order_diagonalises_once(pt64, monkeypatch):
    grid, v, _, _, _ = pt64
    calls = []
    eig = linalg.eig_symmetric
    monkeypatch.setattr(linalg, "eig_symmetric", lambda m: calls.append(1) or eig(m))
    pt_empirical_order(schemes.get_scheme("strang"), grid, v, np.geomspace(0.05, 0.4, 8))
    assert len(calls) == 1


def test_pt_empirical_order_strang(pt64):
    grid, v, _, _, _ = pt64
    fit = pt_empirical_order(schemes.get_scheme("strang"), grid, v,
                             np.geomspace(0.05, 0.4, 8))
    assert fit.slope == pytest.approx(3.0, abs=0.35)

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from unisplit import experiments, linalg, propagator, schemes, spectral
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


@pytest.mark.parametrize("x_min, x_max", [(-1e308, 1e308), (0.0, 1e-320)],
                         ids=["length_inf", "wavenumbers_inf"])
def test_grid_beyond_the_float_range_is_refused(x_min, x_max):
    """An infinite length, or a length so short that k or k^2/2 overflows,
    would give NaN states; the grid is refused, without a numpy warning."""
    with pytest.raises(ValueError, match="not finite"):
        SpectralGrid(n=8, x_min=x_min, x_max=x_max)


def test_grid_geometry(grid64):
    assert grid64.dx == pytest.approx(16.0 / 64)
    assert grid64.x[0] == pytest.approx(-8.0)
    assert grid64.x[-1] == pytest.approx(8.0 - grid64.dx)
    # wavenumbers come in +/- pairs plus the zero and Nyquist modes
    k = np.sort(grid64.k)
    assert k[0] == pytest.approx(-np.pi * 64 / 16.0)
    assert np.count_nonzero(k == 0.0) == 1


@pytest.mark.parametrize("fields", [(64, -8.0, 8.0), (8, 0.5, 3.25), (1024, -30.0, 10.0)])
def test_grid_arrays_are_built_once_from_their_formulas(fields):
    """Equal fields give equal, hash-equal grids with bitwise-equal arrays;
    x, k and k^2/2 have the bits of their formulas, and x and k are
    read-only."""
    n, x_min, x_max = fields
    grid, twin = SpectralGrid(*fields), SpectralGrid(n=n, x_min=x_min, x_max=x_max)
    assert grid == twin and hash(grid) == hash(twin)
    assert repr(grid) == f"SpectralGrid(n={n}, x_min={x_min}, x_max={x_max})"
    length = x_max - x_min
    x = x_min + length / n * np.arange(n)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / length
    for got, want in [(grid.x, x), (grid.k, k), (grid._half_k2, k**2 / 2.0)]:
        assert got.tobytes() == want.tobytes()
    for name in ("x", "k", "_half_k2"):
        assert getattr(grid, name).tobytes() == getattr(twin, name).tobytes()
    assert grid.x is grid.x and grid.k is grid.k
    for a in (grid.x, grid.k):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def test_replaced_grid_rebuilds_its_arrays(grid64):
    grid = dataclasses.replace(grid64, n=128)
    fresh = SpectralGrid(n=128)
    assert grid == fresh and grid.x.shape == grid.k.shape == (128,)
    for name in ("x", "k", "_half_k2"):
        assert getattr(grid, name).tobytes() == getattr(fresh, name).tobytes()
    assert grid._scale == fresh._scale != grid64._scale
    wide = dataclasses.replace(grid64, x_max=24.0)
    assert wide.x[-1] == -8.0 + 32.0 / 64 * 63 and wide.k.tobytes() != grid64.k.tobytes()


@pytest.mark.parametrize("n", [2, 64, 256, 2**14])
def test_grid_scale_is_a_read_only_0d_float64_array(n):
    """The transforms' scale is a 0-d array, which the gufuncs take without
    converting it on each call, with the bits of 1/sqrt(N)."""
    scale = SpectralGrid(n=n)._scale
    assert isinstance(scale, np.ndarray) and scale.shape == () and scale.dtype == np.float64
    assert scale.tobytes() == np.reciprocal(np.sqrt(n, dtype=np.float64)).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        scale[()] = 1.0


@pytest.mark.parametrize("n", [8, 64, 256])
def test_norm_of_an_ordinary_state_keeps_the_plain_formula_bits(n):
    grid = SpectralGrid(n=n)
    gen = np.random.default_rng(n)
    for u in (gen.standard_normal(n) + 1j * gen.standard_normal(n),
              gen.standard_normal(n) * 1e-100, gen.standard_normal(n) * 1e100):
        assert grid.norm(u) == math.sqrt(grid.dx * np.sum(np.abs(u) ** 2))


def test_norm_of_a_state_whose_squares_underflow_or_overflow():
    """A nonzero state whose sum of squares, or dx times it, underflows to 0
    or overflows to inf has the norm m * norm(u/m) of its peak m, without a
    numpy warning; an all-zero state keeps norm 0, and an infinite entry
    norm inf."""
    tiny = SpectralGrid(n=64, x_min=30.0, x_max=40.0)
    u = np.exp(-tiny.x**2 / 2.0).astype(complex)  # peak 3.7e-196
    grid = SpectralGrid(n=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = np.abs(u).max()
        assert tiny.norm(u) == m * math.sqrt(tiny.dx * np.sum(np.abs(u / m) ** 2))
        assert 0.0 < tiny.norm(u) < m
        assert tiny.norm(initial_gaussian(tiny)) == pytest.approx(1.0, rel=1e-12)
        assert grid.norm(np.full(8, 1e200)) == 1e200 * math.sqrt(grid.dx * 8)
        assert grid.norm(np.full(8, -1e-170j)) == 1e-170 * math.sqrt(grid.dx * 8)
        assert grid.norm(np.zeros(8)) == 0.0
        assert grid.norm(np.r_[np.inf, np.zeros(7)]) == math.inf
        # normal sums of squares, with dx = 5e299 and 9.8e-152
        wide = SpectralGrid(n=2, x_min=0.0, x_max=1e300)
        assert wide.norm([1e5, 1e5]) == pytest.approx(1e155, rel=1e-15)
        narrow = SpectralGrid(n=1024, x_min=0.0, x_max=1e-148)
        assert narrow.norm(np.full(1024, 1e-150)) == pytest.approx(1e-224, rel=1e-15)


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


@pytest.mark.parametrize("alpha, lam_prod",
                         [(1e200, 10.0), (1e154, 10.0), (2.0, 1e308)],
                         ids=["alpha_squared_overflows", "depth_overflows",
                              "lam_prod_overflows"])
def test_pt_potential_of_an_infinite_depth_is_refused(grid256, alpha, lam_prod):
    """(alpha^2/2) lam_prod beyond the float range is a ValueError, not an
    ``OverflowError`` from ``alpha**2`` or an infinite well."""
    with pytest.raises(ValueError, match="well depth"):
        pt_potential(grid256, alpha=alpha, lam_prod=lam_prod)


def test_pt_potential_is_minus_zero_where_cosh_overflows(grid256):
    """A steep finite well: cosh(alpha x) overflows to inf away from x = 0,
    where V is -0, without a numpy warning."""
    v = pt_potential(grid256, alpha=1e100)
    assert v[128] == -(1e100**2 / 2.0) * 10.0 and grid256.x[128] == 0.0
    assert np.all(np.delete(v, 128) == 0.0)


def test_initial_gaussian_normalized(grid256):
    u = initial_gaussian(grid256)
    assert grid256.norm(u) == pytest.approx(1.0)
    # normalizing constant approaches pi^(-1/4) on a well-resolved grid
    assert u.max().real == pytest.approx(np.pi ** -0.25, rel=1e-10)


@pytest.mark.parametrize("x_min, x_max", [(1000.0, 2000.0), (-2e300, -1e300)])
def test_initial_gaussian_that_underflows_is_a_numerical_error(x_min, x_max):
    grid = SpectralGrid(n=64, x_min=x_min, x_max=x_max)
    with pytest.raises(linalg.NumericalError, match="underflows to norm 0.0"):
        initial_gaussian(grid)  # x^2 overflows on the second, without a warning
    # a grid whose Gaussian is tiny but has a norm keeps the plain formula's bits
    grid = SpectralGrid(n=64, x_min=20.0, x_max=30.0)
    u = np.exp(-grid.x**2 / 2.0).astype(complex)
    assert initial_gaussian(grid).tobytes() == (u / grid.norm(u)).tobytes()


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


def _in_place_copies(u):
    """Writable complex arrays with the values of ``u``, to be transformed
    as their own ``out``: a contiguous copy and a strided view."""
    wide = np.zeros((*u.shape[:-1], 2 * u.shape[-1]), dtype=complex)
    wide[..., ::2] = u
    return [u.astype(complex), wide[..., ::2]]


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
        for own in _in_place_copies(u):
            assert transform(grid, own, c, out=own) is own
            assert own.tobytes() == want, kind
        assert c.count == 4
        assert np.array_equal(u, kept)


@pytest.mark.parametrize("transform", [dft, idft], ids=["dft", "idft"])
@pytest.mark.parametrize("dtype, writeable, error, words", [
    (complex, False, ValueError, "output array is read-only"),
    (float, True, TypeError, "Cannot cast ufunc"),  # numpy's UFuncTypeError
], ids=["read-only", "float64"])
def test_a_transform_that_raises_is_not_counted(grid32, rng, transform, dtype, writeable,
                                               error, words):
    """The gufunc refuses a read-only or a real ``out`` when called; such a
    call counted one FFT that never ran."""
    u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    out = np.zeros(32, dtype=dtype)
    out.flags.writeable = writeable
    c = FftCounter()
    with pytest.raises(error, match=words):
        transform(grid32, u, c, out=out)
    assert c.count == 0
    assert not out.any()


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
        owns = _in_place_copies(stack)
        for own in owns:
            assert transform(grid, own, c, out=own) is own
        assert c.count == 4 * k, kind
        for row, got_row, out_row, *own_rows in zip(stack, got, out, *owns):
            want = transform(grid, row).tobytes()
            assert got_row.tobytes() == want, kind
            assert out_row.tobytes() == want, kind
            assert all(own_row.tobytes() == want for own_row in own_rows), kind
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
    phases = spectral._factor_phases(s, grid, 0.4, v.tobytes())
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


@pytest.mark.parametrize("change", ["h", "grid", "scheme"])
def test_phase_cache_keys_on_h_grid_and_scheme(pt64, change):
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
    u = initial_gaussian(grid)
    misses = _phase_cache_misses()
    got = split_step(s, grid, v, u, h)
    assert _phase_cache_misses() == misses + 1
    assert np.array_equal(got, _reference_split_step(s, grid, v, u, h))


@pytest.mark.parametrize("shape", [(32,), (2, 64), ()], ids=["32", "2x64", "scalar"])
def test_a_potential_of_another_shape_is_refused(pt64, shape):
    """Every function that takes V takes it of shape (N,) only.  A length-32
    V raised numpy's broadcast ValueError, and ``observables`` with a
    (2, 64) V a TypeError."""
    grid, v, _, _, _ = pt64
    bad = {(32,): v[::2], (2, 64): np.stack([v, v]), (): v[0]}[shape]
    u = initial_gaussian(grid)
    for call in (lambda: split_step(schemes.get_scheme("NB11s6"), grid, bad, u, 0.1),
                 lambda: observables(grid, bad, u), lambda: rkn_residual(grid, bad, u),
                 lambda: build_dense_hamiltonian(grid, bad)):
        with pytest.raises(linalg.DimensionError, match=r"potential of shape \(64,\)"):
            call()


@pytest.mark.parametrize("narrow", [np.float32, np.float16, np.longdouble, np.int64])
def test_a_potential_below_double_precision_is_promoted(pt64, narrow):
    """A float32 V built complex64 phases (NEP 50), so one NB11s6 step
    differed by 1.2e-7 from the step on the same values in float64, and a
    longdouble V built complex256 phases; each result now has the bits of
    the call on the V read as float64.  An integer V keeps the bits it had
    before it was read as float64."""
    grid, v, _, _, _ = pt64
    s, u = schemes.get_scheme("NB11s6"), initial_gaussian(grid)
    v_narrow = v.astype(narrow)
    v_wide = v_narrow.astype(float)
    assert (split_step(s, grid, v_narrow, u, 0.1).tobytes()
            == split_step(s, grid, v_wide, u, 0.1).tobytes())
    assert rkn_residual(grid, v_narrow, u) == rkn_residual(grid, v_wide, u)
    assert observables(grid, v_narrow, u) == observables(grid, v_wide, u)


@pytest.mark.parametrize("h", [0.1, 0.4])
def test_repeated_factors_share_one_phase(pt256, h):
    """Each phase and gain has the bits of its own per-factor build, and the
    factors with equal (op, coeff) share one array.  A build's distinct
    phases are the rows, in order of first use, of one read-only
    (k, N) array."""
    grid, v = pt256
    k2 = grid.k**2 / 2.0
    for s in ALL_SCHEMES:
        spectral._factor_phases.cache_clear()
        phases = spectral._factor_phases(s, grid, h, v.tobytes())
        assert [(op, c) for op, c, _, _ in phases] == [(f.op, f.coeff) for f in s.factors]
        first = {}
        for op, c, phase, gain in phases:
            fresh = np.exp(-1j * h * c * (k2 if op == "A" else v))
            m = float(np.max(np.abs(fresh)))
            assert phase.tobytes() == fresh.tobytes(), (s.name, op, c)
            assert gain == m * m * (1 + 1e-9)
            assert phase is first.setdefault((op, c), phase)
        assert len({id(phase) for _, _, phase, _ in phases}) == len(first)
        table = phases[0][2].base
        assert table.shape == (len(first), grid.n) and not table.flags.writeable
        for i, phase in enumerate(first.values()):
            assert phase.base is table and np.shares_memory(phase, table[i])


def test_cached_arrays_are_read_only(pt64):
    grid, v, _, _, _ = pt64
    s = schemes.get_scheme("strang")
    split_step(s, grid, v, initial_gaussian(grid), 0.1)
    phases = spectral._factor_phases(s, grid, 0.1, v.tobytes())
    assert all(not phase.flags.writeable for _, _, phase, _ in phases)
    assert all(gain == np.max(np.abs(phase)) ** 2 * (1 + 1e-9)
               for _, _, phase, gain in phases)
    half_k2 = grid._half_k2
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
            # the bits of the 1-D formula: Parseval's kinetic part from one dft
            spec = spectral.dft(grid, row)
            kinetic = np.vdot(spec, grid._half_k2 * spec).real
            form = -grid.dx * complex(kinetic + np.vdot(row, v * row))
            assert got["mass"][k] == grid.dx * np.vdot(row, row).real
            assert got["energy"][k] == form.real
            # and within round-off of the dft/idft round trip and sum |u|^2
            old = grid.dx * np.vdot(row, spectral._a_action(grid, row) - v * row)
            assert abs(form - old) <= 1e-12 * abs(old)
            assert got["mass"][k] == pytest.approx(
                grid.dx * np.sum(np.abs(row) ** 2), rel=1e-12, abs=0)


def test_observables_makes_one_dft_and_no_idft(monkeypatch):
    """The energy's kinetic part comes from one forward transform by
    Parseval, for a state and for a stack alike."""
    grid = SpectralGrid(n=64)
    v = pt_potential(grid)
    u = initial_gaussian(grid)
    calls = []

    def counting(name):
        transform = getattr(spectral, name)

        def counted(g, w, *args, **kwargs):
            calls.append((name, np.shape(w)))
            return transform(g, w, *args, **kwargs)
        return counted

    for name in ("dft", "idft"):
        monkeypatch.setattr(spectral, name, counting(name))
    for state in (u, np.stack([u, 2 * u, 1j * u])):
        calls.clear()
        observables(grid, v, state)
        assert calls == [("dft", state.shape)]


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


@pytest.mark.parametrize("bad", ["complex", "string"])
@pytest.mark.parametrize("call", [
    lambda g, v, u: split_step(schemes.get_scheme("NB11s6"), g, v, u, 0.1),
    lambda g, v, u: observables(g, v, u),
    lambda g, v, u: rkn_residual(g, v, u),
    lambda g, v, u: build_dense_hamiltonian(g, v),
    lambda g, v, u: pt_empirical_order(schemes.get_scheme("strang"), g, v,
                                       np.geomspace(0.05, 0.4, 8)),
    lambda g, v, u: experiments.conservation_run(schemes.get_scheme("NB11s6"), g, v, u,
                                                 0.1, 10),
], ids=["split_step", "observables", "rkn_residual", "build_dense_hamiltonian",
        "pt_empirical_order", "conservation_run"])
def test_a_complex_or_string_potential_is_refused_before_any_fft(
        monkeypatch, call, bad):
    """Every function of a potential reads V as float64 by numpy's
    same-kind cast, so a complex V (whose H = A + B is not Hermitian) and a
    V of numeric strings are its TypeError, before any step or FFT.
    Before, only the dense oracle and ``pt_empirical_order`` refused a
    complex V, after assembling the kinetic matrix, and every function read
    a string V as its numbers.  ``tests/test_public_api.py`` checks that
    every public function that takes a V has a case here."""
    grid = SpectralGrid(n=16)
    v, u = pt_potential(grid), initial_gaussian(grid)
    bad_v = {"complex": v * (1 + 0.3j), "string": v.astype(str)}[bad]

    def refuse(*_, **__):
        raise AssertionError("a step or an FFT before the potential was read")

    for name in ("split_step", "dft", "idft"):
        monkeypatch.setattr(spectral, name, refuse)
    with pytest.raises(TypeError, match=r"^Cannot cast array data from dtype\(.*\) to "
                       r"dtype\('float64'\) according to the rule 'same_kind'$"):
        call(grid, bad_v, u)


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

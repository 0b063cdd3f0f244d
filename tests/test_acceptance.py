"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Tolerances are pinned in each test.  Criterion 5 is split into its three
measurement families (matrix orders, spectral orders, generic degradation) and
criterion 7 into the smoke and full-horizon runs, so every printed line maps
to one quantitative claim.

Criterion 5b checks the design order p of each RKN scheme in two parts:

* the local-error slope on the Poeschl-Teller well must be at least
  p + 1 - 0.3, with no point of the window dropped by the fit.  There is no
  upper bound: a small leading error constant lets the h^{p+2} term dominate
  a whole window, as it does for the order-5 schemes;
* on a real split with B @ B = 0, so that [B,[B,[B,A]]] vanishes, the Taylor
  coefficients E_k of the local error in the step size must satisfy
  ||E_{p+1}|| >= 1e4 * max_{k<=p} ||E_k||, which pins the order exactly.
"""

import numpy as np
import pytest

from unisplit import experiments, propagator, schemes, spectral


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{tag}: {detail}"


def sym_pair(seed=0, cls="SYM_SIMPLE", **kw):
    spec = experiments.MatrixClassSpec(
        matrix_class=experiments.MatrixClass[cls], n=10, seed=seed, **kw
    )
    return experiments.generate(spec)


TABLE_DELTAS = {
    "NB5s4": 1.141, "NB6s4": 1.416, "NB8s5": 1.482, "NB9s5": 1.618,
    "NA11s6": 2.092, "NB11s6": 1.595,
    "B3s3": 1.766, "B5s4": 1.146, "B15s6": 1.327,
}

RKN_SCHEMES = tuple(s.name for s in schemes.catalog() if s.rkn)


def test_criterion_01_coefficient_norms():
    worst = 0.0
    for name, expected in TABLE_DELTAS.items():
        da, db = schemes.delta_norms(schemes.get_scheme(name))
        worst = max(worst, abs(da - 1.0), abs(db - expected))
    report("1 coefficient cross-check", worst <= 5e-4,
           f"max deviation {worst:.2e} (tol 5e-4)")


def test_criterion_02_symmetry_and_consistency():
    sym_res, sum_res = 0.0, 0.0
    for s in schemes.catalog():
        rev = s.factors[::-1]
        sym_res = max(sym_res, max(
            abs(f.coeff - r.coeff.conjugate()) for f, r in zip(s.factors, rev)))
        sum_res = max(sum_res, abs(s.a_sum - 1.0), abs(s.b_sum - 1.0))
    report("2 symmetry/consistency", sym_res <= 1e-14 and sum_res <= 1e-12,
           f"reverse-conjugate residual {sym_res:.2e} (tol 1e-14), "
           f"consistency residual {sum_res:.2e} (tol 1e-12)")


def test_criterion_03_reversibility_identities():
    _, a, b = sym_pair(seed=0)
    worst = 0.0
    for s in schemes.catalog():
        for h in (0.01, 0.1, 0.5):
            rep = propagator.reversibility_report(s, a, b, h)
            worst = max(worst, rep["sc2_residual"], rep["sc3_residual"])
    report("3 reversibility identities", worst <= 1e-10,
           f"worst residual {worst:.2e} (tol 1e-10)")


def _complex_catalog():
    return [s for s in schemes.catalog()
            if any(abs(f.coeff.imag) > 1e-15 for f in s.factors)]


def test_criterion_04_unit_modulus_thresholds():
    h_grid = np.geomspace(0.01, 10.0, 28)
    failures = []
    # simple-spectrum classes: threshold then blow-up, for every scheme whose
    # coefficients are genuinely complex (real palindromic compositions stay
    # exactly unitary on symmetric splits, so no blow-up can occur for them)
    for cls in ("SYM_SIMPLE", "SYM_SIMPLE_NONSYM_SPLIT", "REAL_SIMPLE_EIGS"):
        _, a, b = sym_pair(cls=cls)
        for s in _complex_catalog():
            series = experiments.dh_sweep(s, a, b, h_grid)
            d = series.column("D_h")
            if not (d[0] <= 1e-10 and series.meta["h_star"] is not None
                    and d.max() > 1e-6):
                failures.append(f"{cls}/{s.name}")
    # generic matrices: no conservation at any step size
    _, a, b = sym_pair(cls="ARBITRARY")
    for s in schemes.catalog():
        if experiments.dh_sweep(s, a, b, h_grid).column("D_h").min() <= 1e-8:
            failures.append(f"ARBITRARY/{s.name}")

    # repeated eigenvalues: a genuine threshold means a round-off plateau at
    # small h (1e-13 scale) persisting to h* >= 0.5, not power-law smallness
    def has_threshold(s, a, b):
        series = experiments.dh_sweep(s, a, b, h_grid)
        d = series.column("D_h")
        h_star = series.meta["h_star"]
        return d[0] <= 1e-13 and h_star is not None and h_star >= 0.5

    _, a, b = sym_pair(cls="MULTIPLE_EIGS_DIAG")
    expected = {"S31": True, "S32": False, "S4": True}
    for name, want in expected.items():
        if has_threshold(schemes.get_scheme(name), a, b) != want:
            failures.append(f"MULTIPLE_EIGS_DIAG/{name}")
    _, a, b = sym_pair(cls="MULTIPLE_EIGS_NONSYM_SPLIT")
    for name in expected:
        if has_threshold(schemes.get_scheme(name), a, b):
            failures.append(f"MULTIPLE_EIGS_NONSYM_SPLIT/{name}")

    report("4 unit-modulus thresholds", not failures,
           f"violations: {failures or 'none'}")


def test_criterion_05a_matrix_orders():
    _, a, b = sym_pair(seed=0)
    targets = {"S31": 4, "S4": 5, "B3s3": 4, "B5s4": 5, "B15s6": 7}
    h_grid = np.geomspace(0.05, 0.4, 8)
    slopes = {n: propagator.empirical_order(schemes.get_scheme(n), a, b,
                                            h_grid).slope
              for n in targets}
    worst = max(abs(slopes[n] - t) for n, t in targets.items())
    report("5a matrix local orders", worst <= 0.3,
           ", ".join(f"{n} {slopes[n]:.2f}/{t}" for n, t in targets.items()))


# one fit window per order class; a point whose error leaves [1e-12, 1e-1]
# is dropped by the fit, which 5b treats as a failure
PT_ORDER_GRIDS = {
    4: np.geomspace(0.06, 0.75, 10),
    5: np.geomspace(0.05, 0.12, 6),
    6: np.geomspace(0.075, 0.22, 7),
}

# the one fixed draw of the exact-order check
RKN_SPLIT_SEED = 0


def _rkn_split(seed):
    """Real symmetric 5x5 A and a rank-one B = u w^T with w^T u = 0.

    B @ B = 0, so [B,[B,[B,A]]] vanishes identically: the split meets the
    condition under which the RKN schemes keep their declared order.
    """
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((5, 5))
    u, w = rng.standard_normal(5), rng.standard_normal(5)
    w -= (w @ u) / (u @ u) * u
    return (m + m.T) / 2, np.outer(u, w)


def _taylor_norms(scheme, a, b, k_max):
    """||E_k||_F for k = 1..k_max, where S(z) - exp(i z (A+B)) = sum_k E_k z^k.

    S(z) is the step matrix of ``scheme`` on the real split (A, B) at the
    complex step z, so that a real symmetric A keeps its orthogonal
    eigenbasis; the coefficients come from the discrete Cauchy integral over
    32 points on |z| = 0.25.
    """
    z = 0.25 * np.exp(2j * np.pi * np.arange(32) / 32)
    diffs = propagator.step_matrix(scheme, a, b, z) - np.array(
        [propagator.exact_propagator(zj * (a + b), 1.0) for zj in z])
    return [float(np.linalg.norm(np.tensordot(z ** -k, diffs, axes=1)) / 32)
            for k in range(1, k_max + 1)]


def test_criterion_05b_spectral_orders(pt256):
    grid, v = pt256
    a, b = _rkn_split(RKN_SPLIT_SEED)
    details, failures = [], []
    for name in RKN_SCHEMES:
        s = schemes.get_scheme(name)
        p = s.order
        fit = spectral.pt_empirical_order(s, grid, v, PT_ORDER_GRIDS[p])
        const = np.asarray(fit.errors) / np.asarray(fit.h_used) ** (p + 1)
        norms = _taylor_norms(s, a, b, p + 1)
        low, lead = max(norms[:p]), norms[p]
        if fit.excluded:
            failures.append(f"{name} excluded h {list(fit.excluded)}")
        if fit.slope < p + 1 - 0.3:
            failures.append(f"{name} slope {fit.slope:.2f} < {p + 1 - 0.3:.1f}")
        if lead < 1e4 * low:
            failures.append(f"{name} |E{p + 1}| {lead:.1e} < 1e4 x {low:.1e}")
        details.append(
            f"{name} {fit.slope:.2f}/{p + 1} err/h^{p + 1} "
            f"{const[0]:.1e}@{fit.h_used[0]:.3f}..{const[-1]:.1e}@"
            f"{fit.h_used[-1]:.3f} |E{p + 1}| {lead:.1e} "
            f"max|E1..E{p}| {low:.1e}")
    report("5b spectral local orders", not failures,
           "; ".join(details) + f" (slope >= p+1-0.3, no excluded h, "
           f"|E_p+1| >= 1e4 max|E_k<=p|; violations: {failures or 'none'})")


def test_criterion_05c_generic_split_degradation():
    _, a, b = sym_pair(seed=0)
    h_grid = np.geomspace(0.01, 0.1, 8)
    slopes = {n: propagator.empirical_order(schemes.get_scheme(n), a, b,
                                            h_grid).slope
              for n in RKN_SCHEMES}
    worst = max(abs(sl - 4.0) for sl in slopes.values())
    report("5c order-3 degradation", worst <= 0.3,
           ", ".join(f"{n} {sl:.2f}/4" for n, sl in slopes.items()))


def test_criterion_06_eigenphase_superconvergence():
    _, a, b = sym_pair(seed=0)
    s31 = schemes.get_scheme("S31")
    h_grid = np.geomspace(0.05, 0.4, 8)
    phases = propagator.eigenphase_error(s31, a, b, h_grid)
    phase_slope = propagator.fit_loglog(h_grid, phases).slope
    local_slope = propagator.empirical_order(s31, a, b, h_grid).slope
    ok = abs(phase_slope - 5.0) <= 0.3 and abs(local_slope - 4.0) <= 0.3
    report("6 eigenphase superconvergence", ok,
           f"eigenphase slope {phase_slope:.2f}/5.0, local {local_slope:.2f}/4.0")


H_CONSERVATION = 100.0 / 909.0


def _conservation_run(scheme, n_steps, sample_every):
    grid = spectral.SpectralGrid(n=256)
    v = spectral.pt_potential(grid)
    return experiments.conservation_run(
        scheme, grid, v, spectral.initial_gaussian(grid), H_CONSERVATION,
        n_steps, sample_every)


# 7a samples every 10 steps through step 9090 (t_f = 1e3), 7b every 45
# through step 90900 (t_f = 1e4).  Both are thinned from one run sampled at
# their greatest common divisor; a row has the bits of a separate run's row.
SHARED_SAMPLE_EVERY = 5


@pytest.fixture(scope="module")
def nb11s6_run():
    return _conservation_run(schemes.get_scheme("NB11s6"), 90900,
                             SHARED_SAMPLE_EVERY)


def _conservation_stats(run, n_steps, sample_every):
    """The stats of the first ``n_steps`` of ``run``, sampled every
    ``sample_every`` steps."""
    assert sample_every % SHARED_SAMPLE_EVERY == 0 and n_steps % sample_every == 0
    stride = sample_every // SHARED_SAMPLE_EVERY
    series = experiments.DiagnosticSeries(
        run.abscissa, run.columns,
        run.rows[stride - 1:n_steps // SHARED_SAMPLE_EVERY:stride])
    out = {}
    for col in ("mass_err", "energy_err"):
        out[col] = (
            abs(experiments.drift_slope(series, col)) * H_CONSERVATION,
            float(series.column(col).max()),
        )
    return out


def _comparator_energy_drift():
    series = _conservation_run(schemes.drift_comparator(), 100, 1)
    return experiments.drift_slope(series, "energy_err") * H_CONSERVATION


def test_criterion_07a_conservation_smoke(nb11s6_run):
    stats = _conservation_stats(nb11s6_run, n_steps=9090, sample_every=10)
    pal_drift = _comparator_energy_drift()
    sc_drift = stats["energy_err"][0]
    ok = (
        all(d <= 1e-12 and sup <= 1e-6 for d, sup in stats.values())
        and pal_drift > 0.0
        and pal_drift >= 10.0 * sc_drift
    )
    report("7a long-time conservation (smoke)", ok,
           f"per-step drift mass {stats['mass_err'][0]:.2e} / energy "
           f"{stats['energy_err'][0]:.2e} (tol 1e-12), sup "
           f"{max(s for _, s in stats.values()):.2e} (tol 1e-6); palindromic "
           f"comparator drift {pal_drift:+.2e} ({pal_drift / max(sc_drift, 1e-300):.1e}x)")


def test_criterion_07b_conservation_full(nb11s6_run):
    stats = _conservation_stats(nb11s6_run, n_steps=90900, sample_every=45)
    ok = all(d <= 1e-12 and sup <= 1e-6 for d, sup in stats.values())
    report("7b long-time conservation (full)", ok,
           f"per-step drift mass {stats['mass_err'][0]:.2e} / energy "
           f"{stats['energy_err'][0]:.2e} (tol 1e-12), sup "
           f"{max(s for _, s in stats.values()):.2e} (tol 1e-6)")


def test_criterion_08_rkn_residual(pt256, grid32):
    grid, v = pt256
    u = spectral.initial_gaussian(grid)
    fine = spectral.rkn_residual(grid, v, u) / grid.norm(u)
    u32 = spectral.initial_gaussian(grid32)
    coarse = (spectral.rkn_residual(grid32, spectral.pt_potential(grid32), u32)
              / grid32.norm(u32))
    ok = fine <= 1e-10 and coarse >= 1e-4
    report("8 nested-commutator residual", ok,
           f"N=256: {fine:.2e} (tol 1e-10), N=32: {coarse:.2e} (floor 1e-4)")


def test_criterion_09_oracle_equivalence(pt64):
    grid, v, a, b, _ = pt64
    rng = np.random.default_rng(7)
    u0 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    u0 = u0 / grid.norm(u0)
    worst = 0.0
    for s in schemes.catalog():
        free = spectral.split_step(s, grid, v, u0, 0.1)
        dense = propagator.step_matrix(s, a, b, 0.1) @ u0
        worst = max(worst, grid.norm(free - dense) / grid.norm(u0))
    report("9 matrix-free vs dense equivalence", worst <= 1e-10,
           f"worst relative deviation {worst:.2e} (tol 1e-10)")


def test_criterion_10_efficiency_at_equal_cost(pt256):
    """At order 4 and matched FFT budget the reversible complex scheme must
    beat the real triple-jump composition on max energy error."""
    grid, v = pt256
    t_final = 100.0
    u0 = spectral.initial_gaussian(grid)
    runs = [experiments.conservation_run(schemes.get_scheme(name), grid, v, u0,
                                         h, round(t_final / h))
            for name, h in (("NB5s4", 0.125),          # 5 A-factors per step
                            ("triple_jump4", 0.1))]    # 4 A-factors per step
    err_new, err_ref = (r.column("energy_err").max() for r in runs)
    fft_new, fft_ref = (int(r.column("fft_count")[-1]) for r in runs)
    ok = fft_new == fft_ref and err_new < err_ref
    report("10 efficiency at equal FFT count", ok,
           f"NB5s4 {err_new:.2e} vs triple_jump4 {err_ref:.2e} "
           f"at {fft_new} vs {fft_ref} FFTs")

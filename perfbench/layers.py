"""Per-layer metrics from a traced run, with the trace's own checks.

Every value is per pass (totals over the traced passes divided by their
number), so runs of different length compare.  ``self_ms`` is a span's time
minus the time of its child spans.  The FFT figures count the ``dft``/``idft``
calls made by ``split_step``, which is what the program's ``FftCounter``
counts; FFTs inside ``observables`` are part of ``spectral.observables.ms``.
"""

from __future__ import annotations

import statistics


#: name -> unit, in the order they are printed
UNITS = {
    "spectral.split_step.calls": "count",
    "spectral.split_step.ms": "ms",
    "spectral.split_step.self_ms": "ms",
    "spectral.split_step.us_per_factor": "us",
    "spectral.fft.calls": "count",
    "spectral.fft.ms": "ms",
    "spectral.ffts_per_step": "count",
    "spectral.fft_share": "ratio",
    "spectral.observables.calls": "count",
    "spectral.observables.ms": "ms",
    "propagator.step_matrix.calls": "count",
    "propagator.step_matrix.self_ms": "ms",
    "propagator.reversibility_report.ms": "ms",
    "propagator.empirical_order.self_ms": "ms",
    "linalg.expm.calls": "count",
    "linalg.expm.ms": "ms",
    "linalg.eig_general.calls": "count",
    "linalg.eig_general.ms": "ms",
    "linalg.eig_symmetric.calls": "count",
    "linalg.eig_symmetric.ms": "ms",
    "linalg.numerical_errors": "count",
    "experiments.dh_sweep.self_ms": "ms",
    "experiments.dh_sweep.eig_failures": "count",
    "experiments.dh_sweep.pattern_notes": "count",
    "experiments.generate.ms": "ms",
    "cli.run.calls": "count",
    "cli.run.self_ms": "ms",
    "cli.bytes_written": "bytes",
    "cli.aborted_cells": "count",
    "schemes.catalog.ms": "ms",
    "bench.aborted_units": "count",
    "trace.overhead_frac": "ratio",
}


def per_layer(tracer, workload, setup_range, plain, traced) -> dict:
    n = len(traced)
    lo, hi = traced[0]["spans"][0], traced[-1]["spans"][1]
    run = tracer.summarize(lo, hi)
    setup = tracer.summarize(*setup_range)
    units = [u for p in traced for u in p["units"]]

    def calls(name):
        return run["calls"].get(name, 0) / n

    def ms(name, summary=run, key="ns", per=n):
        return summary[key].get(name, 0) / per / 1e6

    step_ns = run["ns"].get("spectral.split_step", 0)
    step_calls = run["calls"].get("spectral.split_step", 0)
    factor_apps = sum(run["per_root"].get(u.span, {}).get("split_step", 0) * u.factors
                      for u in units)
    m = {
        "spectral.split_step.calls": calls("spectral.split_step"),
        "spectral.split_step.ms": ms("spectral.split_step"),
        "spectral.split_step.self_ms": ms("spectral.split_step", key="self_ns"),
        "spectral.split_step.us_per_factor": step_ns / 1e3 / factor_apps if factor_apps else 0.0,
        "spectral.fft.calls": run["step_fft_calls"] / n,
        "spectral.fft.ms": run["step_fft_ns"] / n / 1e6,
        "spectral.ffts_per_step": run["step_fft_calls"] / step_calls if step_calls else 0.0,
        "spectral.fft_share": run["step_fft_ns"] / step_ns if step_ns else 0.0,
        "spectral.observables.calls": calls("spectral.observables"),
        "spectral.observables.ms": ms("spectral.observables"),
        "propagator.step_matrix.calls": calls("propagator.step_matrix"),
        "propagator.step_matrix.self_ms": ms("propagator.step_matrix", key="self_ns"),
        "propagator.reversibility_report.ms": ms("propagator.reversibility_report"),
        "propagator.empirical_order.self_ms": ms("propagator.empirical_order", key="self_ns"),
        "linalg.expm.calls": calls("linalg.expm"),
        "linalg.expm.ms": ms("linalg.expm"),
        "linalg.eig_general.calls": calls("linalg.eig_general"),
        "linalg.eig_general.ms": ms("linalg.eig_general"),
        "linalg.eig_symmetric.calls": calls("linalg.eig_symmetric"),
        "linalg.eig_symmetric.ms": ms("linalg.eig_symmetric"),
        "linalg.numerical_errors": len(tracer.errors) / n,
        "experiments.dh_sweep.self_ms": ms("experiments.dh_sweep", key="self_ns"),
        "experiments.dh_sweep.eig_failures": sum(u.info.get("eig_failures", 0) for u in units) / n,
        "experiments.dh_sweep.pattern_notes": sum("pattern_note" in u.info for u in units) / n,
        "experiments.generate.ms": ms("experiments.generate", setup, per=1),
        "cli.run.calls": calls("cli.run"),
        "cli.run.self_ms": ms("cli.run", key="self_ns"),
        "cli.bytes_written": sum(u.info.get("bytes", 0) for u in units) / n,
        "cli.aborted_cells": sum(bool(u.info.get("dropped")) for u in units) / n,
        "schemes.catalog.ms": ms("schemes.catalog", setup, per=1),
        "bench.aborted_units": sum(bool(u.aborted) for u in units) / n,
        "trace.overhead_frac": (statistics.median(p["rel"] for p in traced)
                                / statistics.median(p["rel"] for p in plain) - 1.0),
    }

    # the trace must see exactly the FFTs the program's own counter reports
    compared = [u for u in units if u.ffts is not None]
    traced_ffts = sum(run["per_root"].get(u.span, {}).get("step_fft", 0) for u in compared)
    program_ffts = sum(u.ffts for u in compared)
    mismatched = [u.label for u in compared
                  if run["per_root"].get(u.span, {}).get("step_fft", 0) != u.ffts]
    nesting = tracer.check_nesting()
    bypass = {name: m[name] for name in workload.bypassed}
    checks = {
        "nesting_problems": nesting[:10],
        "fft_crosscheck": {"trace": traced_ffts, "program": program_ffts,
                           "units_compared": len(compared), "mismatched": mismatched[:10]},
        "bypass_predictions": {name: {"value": v, "expected": 0} for name, v in bypass.items()},
    }
    ok = (not nesting and not mismatched and traced_ffts == program_ffts
          and all(v == 0 for v in bypass.values()))
    return {"metrics": m, "units": UNITS, "checks": checks, "ok": ok, "traced_passes": n,
            "spans": len(tracer.spans)}

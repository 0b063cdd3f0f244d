"""One benchmark process: import unisplit from the checkout, set a workload
up, then (unless ``--setup-only``) measure it and print one ``RESULT`` line.

Started by ``run.py``.  Protocol on stdout: ``READY`` once set-up and warm-up
are done, then ``RESULT <json>``.  The program's own prints go to the null
device.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from timing import tail

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "unisplit"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)

    protocol = sys.stdout
    sys.stdout = open(os.devnull, "w", encoding="utf-8")  # the program's prints

    sys.path.insert(0, str(ROOT / "src"))
    import unisplit
    if not Path(unisplit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"unisplit imported from {unisplit.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    from layers import per_layer
    from tracer import Tracer
    from workloads import WORKLOADS, Recorder

    tracer = Tracer(PACKAGE) if args.trace else None
    if tracer:
        tracer.install()
        setup_span = tracer.open("bench.setup")
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.warm_up()
    if tracer:
        tracer.close(setup_span)
        setup_range = (0, len(tracer.spans))
    print("READY", file=protocol, flush=True)
    if args.setup_only:
        return 0

    def run_passes(budget: float, traced: bool) -> list[dict]:
        """Run whole passes until the next one would end after ``budget`` s.
        A pass's time excludes the reference work sampled within it."""
        if tracer:
            (tracer.install if traced else tracer.uninstall)()
        passes = []
        start = time.perf_counter()
        while True:
            lo = len(tracer.spans) if tracer else 0
            t0 = time.perf_counter_ns()
            rec = Recorder(workload.reference, tracer if traced else None)
            workload.run_pass(rec)
            rec.close()
            ns = time.perf_counter_ns() - t0 - sum(rec.reference)
            ref_ns = statistics.fmean(rec.reference)
            in_units = sum(u.ns for u in rec.units)
            # each unit in units of the reference work around it; the rest
            # of the pass (set-up of a run, checks) in units of the pass mean
            rel = sum(u.ns / u.ref_ns for u in rec.units) + (ns - in_units) / ref_ns
            passes.append({"ns": ns, "ref_ns": ref_ns, "rel": rel,
                           "units": rec.units,
                           "spans": (lo, len(tracer.spans)) if traced else None})
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(p["ns"] for p in passes) / 1e9 > budget:
                return passes

    result = {"workload": args.workload, "seed": args.seed, "inputs": workload.inputs,
              "versions": versions()}
    if not args.trace:
        passes = run_passes(args.seconds, traced=False)
        result.update(end_to_end(passes))
    else:
        plain = run_passes(args.seconds / 2, traced=False)
        tracer.errors.clear()
        traced = run_passes(args.seconds / 2, traced=True)
        tracer.uninstall()
        result.update(end_to_end(plain + traced))
        result["layers"] = per_layer(tracer, workload, setup_range, plain, traced)
        out = args.workdir.parent / "results"
        out.mkdir(parents=True, exist_ok=True)
        tracer.write_csv(out / f"{args.workload}-seed{args.seed}-spans.csv")
    print("RESULT " + json.dumps(result), file=protocol, flush=True)
    return 0


def end_to_end(passes: list[dict]) -> dict:
    """End-to-end figures, in reference units (time over the reference work
    timed around the same pass or unit) and, for reading, in raw time.

    Each unit's times are first reduced to their median over the passes, so
    p50 and tail describe the workload's fixed unit set and do not depend on
    how many passes fit into the run.
    """
    units = [u for p in passes for u in p["units"]]
    failed = [u for u in units if u.error]
    aborted = [u for u in units if u.aborted]
    raw: dict[int, list[int]] = {}
    rel: dict[int, list[float]] = {}
    for p in passes:
        for i, u in enumerate(p["units"]):
            raw.setdefault(i, []).append(u.ns)
            rel.setdefault(i, []).append(u.ns / u.ref_ns)
    unit_raw = [statistics.median(v) for v in raw.values()]
    unit_rel = [statistics.median(v) for v in rel.values()]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "passes": len(passes),
        "pass_s": [p["ns"] / 1e9 for p in passes],
        "pass_ref_ms": [p["ref_ns"] / 1e6 for p in passes],
        "ref_ms": statistics.median(p["ref_ns"] for p in passes) / 1e6,
        "solve_ref": statistics.median(p["rel"] for p in passes),
        "unit_p50_ref": statistics.median(unit_rel),
        "unit_tail_ref": tail(unit_rel),
        "solve_s": statistics.median(p["ns"] for p in passes) / 1e9,
        "unit_ms_p50": statistics.median(unit_raw) / 1e6,
        "unit_ms_tail": tail(unit_raw)["value"] / 1e6,
        "attempted": len(units),
        "failed": len(failed),
        "aborted": len(aborted),
        "peak_rss_mb": rss_kb / 1024.0,
        "failures": sorted({f"{u.label}: {u.error}" for u in failed})[:20],
        "aborted_reasons": sorted({f"{u.label}: {u.aborted}" for u in aborted})[:40],
        "notes": sorted({f"{u.label}: {u.info['pattern_note']}"
                         for u in units if "pattern_note" in u.info})[:40],
    }


def versions() -> dict:
    import numpy
    import scipy
    import unisplit
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: {f: deps.get(k, {}).get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack")}
    except (TypeError, AttributeError):  # numpy without dict-mode show_config
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "unisplit": unisplit.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for unisplit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``conservation``, ``efficiency``, ``dense_sweep`` or ``all``.  Run it
from the root of a source checkout: the package is imported from ``src/``.
It prints every metric by name with its unit, writes an environment record
and the result to ``.perfbench/results/``, and prints as its last line one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` a traced run gives the per-layer ones.

Each workload runs in one worker process (``worker.py``).  Set-up time is
the time from starting a worker to its first timed unit; it is sampled over
several worker starts and reported as their median.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("conservation", "efficiency", "dense_sweep")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0  # per workload, set-up samples included

END_TO_END = {
    "setup_s": "s",
    "solve_ref": "ref",
    "unit_p50_ref": "ref",
    "unit_tail_ref": "ref",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    """The caller's environment with BLAS threads capped at nproc."""
    env = dict(os.environ)
    cap = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = env.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= cap):
            env[var] = str(cap)
    return env


def environment(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "nproc": nproc(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "generating_processes": 1,
    }


def start_worker(name: str, args, env: dict, deadline: float, setup_only: bool):
    """Start one worker; return (seconds until it was ready, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(ROOT / ".perfbench" / "work" / name)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            ready_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker for {name} exited with code {code} "
                         f"(killed after the time limit if negative)")
    if setup_only:
        return ready_s, None
    lines = [line for line in rest.splitlines() if line.startswith("RESULT ")]
    if not lines:
        raise BenchError(f"worker for {name} printed no result")
    return ready_s, json.loads(lines[-1][len("RESULT "):])


def run_workload(name: str, args, env: dict) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    # set-up samples are spread before and after the measured worker, so a
    # few seconds of contention on the machine cannot reach all of them
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [start_worker(name, args, env, deadline, setup_only=True)[0]
              for _ in range(extra // 2)]
    ready_s, result = start_worker(name, args, env, deadline, setup_only=False)
    setups.append(ready_s)
    setups += [start_worker(name, args, env, deadline, setup_only=True)[0]
               for _ in range(extra - extra // 2)]
    result["setup_samples_s"] = setups
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        layers = result["layers"]
        metrics = {k: (v, layers["units"][k]) for k, v in layers["metrics"].items()}
        correct = failed == 0 and layers["ok"]
    else:
        metrics = {
            "setup_s": statistics.median(result["setup_samples_s"]),
            "solve_ref": result["solve_ref"],
            "unit_p50_ref": result["unit_p50_ref"],
            "unit_tail_ref": result["unit_tail_ref"]["value"],
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
        correct = failed == 0
    return {"name": name, "result": result, "metrics": metrics, "correct": correct}


def report(run: dict, args) -> None:
    r = run["result"]
    tail = r["unit_tail_ref"]
    print(f"== {run['name']} (seed {args.seed}, trace {args.trace}): {r['passes']} passes, "
          f"{r['attempted']} units; reference work {r['ref_ms']:.4g} ms (median)")
    notes = {
        "setup_s": f"median of {len(r['setup_samples_s'])} worker starts",
        "solve_ref": f"median of {r['passes']} passes; raw solve_s {r['solve_s']:.4g} s",
        "unit_p50_ref": f"raw unit_ms_p50 {r['unit_ms_p50']:.4g} ms",
        "unit_tail_ref": f"p{tail['percentile']:.2f}, {tail['beyond']} of {tail['samples']} "
                         f"units beyond; raw unit_ms_tail {r['unit_ms_tail']:.4g} ms",
        "ok_frac": f"fail_frac {r['failed'] / r['attempted']:.4f}: {r['failed']} of "
                   f"{r['attempted']} units failed; {r['aborted']} aborted, not failed",
    }
    for name, (value, unit) in run["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<36} {value:>14.6g} {unit}{note}")
    for label, items in (("failed", r["failures"]), ("aborted", r["aborted_reasons"]),
                         ("criterion 4 draw notes", r["notes"])):
        for item in items:
            print(f"  {label}: {item}")
    if args.trace:
        checks = r["layers"]["checks"]
        print(f"  trace checks {'pass' if r['layers']['ok'] else 'FAIL'}: {json.dumps(checks)}")


def check_declared(names: set[str], trace: int) -> None:
    """The metrics printed must be the ones BENCHMARK.json declares."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if declared != names:
        raise BenchError(f"metrics {sorted(names ^ declared)} differ from BENCHMARK.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")
    if not (ROOT / "src" / "unisplit" / "__init__.py").is_file():
        print(f"no unisplit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = child_env()
    record = environment(args)
    try:
        runs = [run_workload(name, args, env) for name in names]
        for run in runs:
            check_declared(set(run["metrics"]), args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    out = ROOT / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    for run in runs:
        report(run, args)
        record["versions"] = run["result"]["versions"]
        (out / f"{run['name']}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"environment": record, "result": run["result"],
                        "metrics": {k: {"value": v, "unit": u}
                                    for k, (v, u) in run["metrics"].items()}},
                       indent=1) + "\n", encoding="utf-8")
    print("environment: " + json.dumps(record))

    prefix = len(runs) > 1
    metrics = {(f"{run['name']}." if prefix else "") + k: {"value": v, "unit": u}
               for run in runs for k, (v, u) in run["metrics"].items()}
    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["result"]["attempted"] for run in runs),
        "failed": sum(run["result"]["failed"] for run in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: ``unisplit <experiment> --config <path.json>``.

Loads a declarative experiment config, dispatches the experiment suites and
emits deterministic CSV/JSON artifacts (one CSV per experiment/scheme pair,
with ``#`` header comments carrying the config hash and library version).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

import unisplit
from unisplit import experiments, linalg, propagator, schemes, spectral


class ConfigError(ValueError):
    pass


def _geomspace(lo: float, hi: float, points: int) -> list[float]:
    return [float(h) for h in np.geomspace(lo, hi, points)]


_SCHEME_NAMES = [s.name for s in schemes.catalog()]
_COMMON = {"experiment": None}
_GRID = {"n": 256, "x_min": -8.0, "x_max": 8.0, "alpha": 1.0, "lam_prod": 10.0}
_MATRIX = {"class": "SYM_SIMPLE", "n": 10, "multiplicities": None}

#: Every field each experiment reads besides those of ``_COMMON``, with its
#: default; ``None`` marks a field that must be given.  ORDER reads a matrix
#: or, when it is given one, a grid.  A config that sets a field its
#: experiment does not read is a ConfigError.
_FIELDS = {
    "SCHEMES_LIST": {"schemes": _SCHEME_NAMES},
    "VALIDATE": {"schemes": None},
    "DH_SWEEP": {"schemes": None, "matrix": _MATRIX, "seed": 0,
                 "h_values": _geomspace(0.01, 10.0, 16)},
    "CONSERVATION": {"schemes": ["NB11s6"], "grid": _GRID,
                     "h_values": [100.0 / 909.0], "t_final": 1e4},
    "EFFICIENCY": {"schemes": None, "grid": _GRID, "h_values": _geomspace(0.02, 0.4, 8),
                   "t_final": 100.0},
    "ORDER": {"schemes": None, "matrix": _MATRIX, "seed": 0,
              "h_values": _geomspace(0.05, 0.4, 8)},
    "ORDER on a grid": {"schemes": None, "grid": _GRID,
                        "h_values": _geomspace(0.02, 0.25, 8)},
    "RKN_CHECK": {"grid": _GRID},
}


def _integer(key: str, v, low: int = 1, high: float = math.inf) -> int:
    if type(v) is not int or not low <= v <= high:  # a bool is not a JSON integer
        raise ConfigError(f"{key} must be an integer in [{low}, {high}], got {v!r}")
    return v


def _real(key: str, v, positive: bool = True) -> float:
    # JSON numbers only (bool is not one), and no integer beyond the float range
    number = isinstance(v, float) or type(v) is int and abs(v) < 1e308
    x = float(v) if number else math.nan
    if not (math.isfinite(x) and (x > 0 or not positive)):
        sign = "positive " if positive else ""
        raise ConfigError(f"{key} must be a {sign}finite number, got {v!r}")
    return x


def _scheme_list(key: str, v) -> list[schemes.SplittingScheme]:
    if not (isinstance(v, list) and v and all(isinstance(n, str) for n in v)):
        raise ConfigError(f"{key} must be a non-empty scheme list, got {v!r}")
    for name in v:
        if name not in _SCHEME_NAMES:
            raise ConfigError(f"unknown scheme {name!r}")
    if len(set(v)) != len(v):
        raise ConfigError(f"{key} must be distinct, got {v}")
    return [schemes.get_scheme(name) for name in v]


def _h_list(key: str, v) -> list[float]:
    if not (isinstance(v, list) and v):
        raise ConfigError(f"{key} must be a non-empty list of step sizes, got {v!r}")
    hs = [_real(key, h) for h in v]
    if len(set(hs)) != len(hs):
        raise ConfigError(f"{key} must be distinct, got {hs}")
    return hs


def _object(key: str, v, defaults: dict) -> dict:
    """``defaults`` updated with ``v``, a JSON object with no other keys."""
    if not isinstance(v, dict):
        raise ConfigError(f"{key} must be a JSON object, got {v!r}")
    unknown = v.keys() - defaults.keys()
    if unknown:
        raise ConfigError(f"unknown {key} fields: {sorted(unknown)}")
    return {**defaults, **v}


def _build(what: str, make, *args):
    """``make(*args)``, with its ``ValueError`` as a :class:`ConfigError`."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _matrix(given, seed) -> experiments.MatrixClassSpec:
    m = _object("matrix", given, _MATRIX)
    name, mult = m["class"], m["multiplicities"]
    if name not in [c.name for c in experiments.MatrixClass]:
        raise ConfigError(f"unknown matrix class {name!r}")
    if "multiplicities" in given and not isinstance(mult, list):
        raise ConfigError(f"matrix.multiplicities must be a list, got {mult!r}")
    return _build("matrix", experiments.MatrixClassSpec, experiments.MatrixClass[name],
                  _integer("matrix.n", m["n"]),
                  _integer("seed", seed, 0, 2**64 - 1),
                  None if mult is None else
                  tuple(_integer("matrix.multiplicities", k) for k in mult))


def _grid(raw: dict, form: str) -> tuple[spectral.SpectralGrid, np.ndarray]:
    g = _object("grid", raw.get("grid", {}), _GRID)
    grid = _build("grid", spectral.SpectralGrid, _integer("grid.n", g["n"]),
                  _real("grid.x_min", g["x_min"], False),
                  _real("grid.x_max", g["x_max"], False))
    if form == "ORDER on a grid" and grid.n > spectral.DENSE_MAX_N:
        raise ConfigError(f"ORDER on a grid assembles a dense H: grid n must be "
                          f"at most {spectral.DENSE_MAX_N}, got {grid.n}")
    return grid, _build("potential", spectral.pt_potential, grid,
                        _real("grid.alpha", g["alpha"]),
                        _real("grid.lam_prod", g["lam_prod"]))


_READERS = {"schemes": _scheme_list, "h_values": _h_list, "t_final": _real}


def _resolve(raw: dict) -> dict:
    """``raw`` resolved against ``_FIELDS``: exactly the fields its form
    reads, each the given value or the default, built once.  ``seed`` is
    folded into ``matrix``."""
    exp = raw.get("experiment")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {exp!r}")
    form = "ORDER on a grid" if exp == "ORDER" and "grid" in raw else exp
    fields = {**_COMMON, **_FIELDS[form]}
    unknown = raw.keys() - fields.keys()
    if unknown:
        raise ConfigError(f"unknown config fields for {form}: {sorted(unknown)}; "
                          f"it reads {sorted(fields)}")
    cfg = {"experiment": exp}
    for key, read in _READERS.items():
        if key in fields:
            cfg[key] = read(key, raw.get(key, fields[key]))
    if "matrix" in fields:
        cfg["matrix"] = _matrix(raw.get("matrix", {}), raw.get("seed", fields["seed"]))
    if "grid" in fields:
        cfg["grid"] = _grid(raw, form)
    if exp == "CONSERVATION" and len(cfg["h_values"]) != 1:
        raise ConfigError(f"CONSERVATION runs one h; h_values has {cfg['h_values']}")
    return cfg


def _config_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _csv(cfg_hash: str, comments: list[str], columns, rows) -> str:
    """A CSV artifact: ``#`` lines with the version, the config hash and
    ``comments``, then ``columns`` and ``rows``, a float as .17g, else str."""
    head = [f"unisplit version {unisplit.__version__}", f"config hash {cfg_hash}"]
    lines = [f"# {c}" for c in head + comments] + [",".join(columns)]
    lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


#: A runner's artifacts, (file name, text) each, which ``run`` writes as they come.
_Artifacts = Iterator[tuple[str, str]]


def _run_schemes_list(cfg: dict, cfg_hash: str) -> _Artifacts:
    rows = []
    print(f"{'name':<14}{'kind':<6}{'order':<7}{'stages':<8}{'Δa':<10}{'Δb':<10}")
    for s in cfg["schemes"]:
        da, db = schemes.delta_norms(s)
        rows.append((s.name, s.kind, s.order, s.stages, da, db))
        print(f"{s.name:<14}{s.kind:<6}{s.order:<7}{s.stages:<8}{da:<10.4f}{db:<10.4f}")
    yield "schemes_list.csv", _csv(
        cfg_hash, [], ("name", "kind", "order", "stages", "delta_a", "delta_b"), rows)


def _run_validate(cfg: dict, cfg_hash: str) -> _Artifacts:
    rows = []
    for s in cfg["schemes"]:
        rep = schemes.validate(s)
        rows.append((s.name, rep.consistent, rep.symmetric_conjugate,
                     rep.positive_real_parts))
        print(f"{s.name}: {rep}")
    yield "validate.csv", _csv(cfg_hash, [], ("name", "consistent", "symmetric_conjugate",
                                              "positive_real_parts"), rows)


def _run_dh_sweep(cfg: dict, cfg_hash: str) -> _Artifacts:
    spec = cfg["matrix"]
    _, a, b = experiments.generate(spec)
    for s in cfg["schemes"]:
        series = experiments.dh_sweep(s, a, b, cfg["h_values"])
        h_star, failed = series.meta["h_star"], series.meta["failures"]
        yield f"dh_sweep_{s.name}.csv", _csv(cfg_hash, [
            f"matrix class {spec.matrix_class.value} n={spec.n} seed={spec.seed}",
            f"h_star {h_star}", *([f"failed h {failed}"] if failed else [])],
            (series.abscissa, *series.columns), series.rows)
        print(f"{s.name}: h* = {h_star}")


def _run_conservation(cfg: dict, cfg_hash: str) -> _Artifacts:
    grid, v = cfg["grid"]
    (h,) = cfg["h_values"]
    n_steps = max(1, round(cfg["t_final"] / h))
    sample_every = max(1, n_steps // 2000)  # at most about 2000 samples per run
    u0 = spectral.initial_gaussian(grid)
    for s in [*cfg["schemes"], schemes.drift_comparator()]:
        series = experiments.conservation_run(s, grid, v, u0, h, n_steps, sample_every)
        meta = series.meta  # at most one of the two records
        ended = ([f"aborted at step {meta['aborted_at_step']}: {meta['aborted']}"]
                 if "aborted" in meta else
                 [f"unstable h {h:.17g}: {meta['unstable']}"] if "unstable" in meta
                 else [])
        yield f"conservation_{s.name}.csv", _csv(cfg_hash, [
            f"scheme {s.name} h {h:.17g} n_steps {n_steps}",
            *([f"sample_every {sample_every}"] if sample_every > 1 else []),
            "scheme: catalog entry" if s.name in _SCHEME_NAMES else
            "comparator: order-2 palindromic scheme with complex potential "
            "weights, not symmetric-conjugate",
            *ended,
        ], (series.abscissa, *series.columns), series.rows)
        if len(series.rows) < 2:  # no slope to fit
            print(f"{s.name}: energy drift n/a ({len(series.rows)} samples)")
            continue
        drift = experiments.drift_slope(series, "energy_err") * h  # per step
        print(f"{s.name}: energy drift {drift:.3e} per step")


def _run_efficiency(cfg: dict, cfg_hash: str) -> _Artifacts:
    grid, v = cfg["grid"]
    u0 = spectral.initial_gaussian(grid)
    for s in cfg["schemes"]:
        rows, notes = [], [f"t_final {cfg['t_final']:.17g}"]
        for h in sorted(cfg["h_values"]):
            run = experiments.conservation_run(s, grid, v, u0, h,
                                               max(1, round(cfg["t_final"] / h)))
            if "aborted" in run.meta:
                # overflowed cell: no data row, but the header records it
                notes.append(f"skipped h {h:.17g}: {run.meta['aborted']}")
                continue
            if "unstable" in run.meta:  # blew up without overflowing: kept, recorded
                notes.append(f"unstable h {h:.17g}: {run.meta['unstable']}")
            rows.append((h, run.column("fft_count")[-1], run.column("energy_err").max()))
        yield f"efficiency_{s.name}.csv", _csv(
            cfg_hash, notes, ("h", "fft_count", "max_energy_err"), rows)
        print(f"{s.name}: {len(rows)} efficiency points")


def _run_order(cfg: dict, cfg_hash: str) -> _Artifacts:
    hs = cfg["h_values"]
    if "grid" not in cfg:
        _, a, b = experiments.generate(cfg["matrix"])
    for s in cfg["schemes"]:
        fit = (spectral.pt_empirical_order(s, *cfg["grid"], hs) if "grid" in cfg
               else propagator.empirical_order(s, a, b, hs))
        yield f"order_{s.name}.csv", _csv(cfg_hash, [
            f"fitted slope {fit.slope:.17g}", f"excluded h {list(fit.excluded)}",
            *([f"failed h {list(fit.failed)}"] if fit.failed else [])],
            ("h", "error"), sorted(zip(fit.h_used, fit.errors)))
        print(f"{s.name}: slope {fit.slope:.3f}")


def _run_rkn_check(cfg: dict, cfg_hash: str) -> _Artifacts:
    grid, v = cfg["grid"]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, not warned
        u0 = spectral.initial_gaussian(grid)
        payload = {"n": grid.n, "residual": spectral.rkn_residual(grid, v, u0),
                   "u0_norm": grid.norm(u0), "config_hash": cfg_hash}
    if not all(map(math.isfinite, (payload["residual"], payload["u0_norm"]))):
        raise linalg.NumericalError(f"RKN check values are not finite: {payload}")
    yield "rkn_check.json", json.dumps(payload, indent=2) + "\n"
    print(json.dumps(payload))


_DISPATCH = {"SCHEMES_LIST": _run_schemes_list, "VALIDATE": _run_validate,
             "DH_SWEEP": _run_dh_sweep, "CONSERVATION": _run_conservation,
             "EFFICIENCY": _run_efficiency, "ORDER": _run_order,
             "RKN_CHECK": _run_rkn_check}
EXPERIMENTS = tuple(_DISPATCH)


def _error(status: int, **doc: str) -> int:
    """Print ``doc`` as a JSON error on stderr and return the exit ``status``."""
    print(json.dumps(doc), file=sys.stderr)
    return status


def run(raw_config: dict, out_dir: str = ".") -> int:
    """Validate and execute one experiment config; returns an exit status."""
    try:
        cfg = _resolve(raw_config)
    except ConfigError as exc:
        return _error(2, error="invalid config", detail=str(exc))
    out = Path(out_dir)
    cfg_hash = _config_hash(raw_config)
    try:
        for name, text in _DISPATCH[cfg["experiment"]](cfg, cfg_hash):
            out.mkdir(parents=True, exist_ok=True)
            (out / name).write_text(text, encoding="utf-8", newline="\n")
    except linalg.NumericalError as exc:
        return _error(3, error="numerical abort", detail=str(exc))
    except OSError as exc:
        return _error(2, error="unwritable output", detail=str(exc))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="unisplit", description="Reversible "
                                     "complex-coefficient splitting experiments")
    parser.add_argument("experiment", choices=[e.lower() for e in EXPERIMENTS])
    parser.add_argument("--config", type=Path, help="JSON experiment config")
    parser.add_argument("--out", default=".", help="artifact directory")
    parser.add_argument("--seed", type=int, help="the seed of a matrix config")
    args = parser.parse_args(argv)

    raw = {}
    if args.config is not None:
        try:
            raw = json.loads(args.config.read_text())
            if not isinstance(raw, dict):
                raise ValueError(f"a config is a JSON object, not {raw!r}")
        except (OSError, ValueError) as exc:
            return _error(2, error="unreadable config", detail=str(exc))
    raw.setdefault("experiment", args.experiment.upper())
    if raw["experiment"] != args.experiment.upper():
        return _error(2, error="config/CLI experiment mismatch")
    if args.seed is not None:
        if "seed" in raw:
            return _error(2, error="invalid config",
                          detail="--seed and the config both set seed; set one")
        raw["seed"] = args.seed
    return run(raw, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())

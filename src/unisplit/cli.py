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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import unisplit
from unisplit import experiments, linalg, propagator, schemes, spectral

EXPERIMENTS = (
    "SCHEMES_LIST",
    "VALIDATE",
    "DH_SWEEP",
    "CONSERVATION",
    "EFFICIENCY",
    "ORDER",
    "RKN_CHECK",
)

_CONFIG_FIELDS = {
    "experiment", "schemes", "matrix", "grid", "h_values", "h_range",
    "t_final", "n_steps", "sample_every", "seed", "output",
    "include_comparator", "threshold",
}
_MATRIX_FIELDS = {"class", "n", "seed", "multiplicities"}
_GRID_FIELDS = {"n", "x_min", "x_max", "alpha", "lam_prod"}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    schemes: list[str] = field(default_factory=list)
    matrix: dict | None = None
    grid: dict | None = None
    h_values: list[float] | None = None
    t_final: float | None = None
    n_steps: int | None = None
    sample_every: int = 1
    seed: int = 0
    output: str = "."
    include_comparator: bool = True
    threshold: float = experiments.DH_THRESHOLD

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        exp = raw.get("experiment")
        if exp not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {exp!r}")
        names = list(raw.get("schemes", []))
        known = set(schemes.catalog_names())
        for name in names:
            if name not in known:
                raise ConfigError(f"unknown scheme {name!r}")
        if exp not in ("SCHEMES_LIST", "RKN_CHECK") and not names:
            raise ConfigError(f"experiment {exp} requires a non-empty scheme list")
        matrix = raw.get("matrix")
        if matrix is not None:
            bad = set(matrix) - _MATRIX_FIELDS
            if bad:
                raise ConfigError(f"unknown matrix fields: {sorted(bad)}")
            if matrix.get("class") not in experiments.MatrixClass.__members__:
                raise ConfigError(f"unknown matrix class {matrix.get('class')!r}")
        grid = raw.get("grid")
        if grid is not None:
            bad = set(grid) - _GRID_FIELDS
            if bad:
                raise ConfigError(f"unknown grid fields: {sorted(bad)}")
        h_values = raw.get("h_values")
        if h_values is None and "h_range" in raw:
            rng = raw["h_range"]
            bad = set(rng) - {"min", "max", "points"}
            if bad:
                raise ConfigError(f"unknown h_range fields: {sorted(bad)}")
            h_values = list(
                np.geomspace(rng["min"], rng["max"], int(rng.get("points", 16)))
            )
        if h_values is not None:
            h_values = [float(h) for h in h_values]
            if any(h <= 0 for h in h_values):
                raise ConfigError("h values must be positive")
            if len(set(h_values)) != len(h_values):
                raise ConfigError(f"h values must be distinct, got {h_values}")
        return cls(
            experiment=exp,
            schemes=names,
            matrix=matrix,
            grid=grid,
            h_values=h_values,
            t_final=raw.get("t_final"),
            n_steps=raw.get("n_steps"),
            sample_every=int(raw.get("sample_every", 1)),
            seed=int(raw.get("seed", 0)),
            output=str(raw.get("output", ".")),
            include_comparator=bool(raw.get("include_comparator", True)),
            threshold=float(raw.get("threshold", experiments.DH_THRESHOLD)),
        )

    def matrix_spec(self) -> experiments.MatrixClassSpec:
        m = self.matrix or {"class": "SYM_SIMPLE"}
        return experiments.MatrixClassSpec(
            matrix_class=experiments.MatrixClass[m["class"]],
            n=int(m.get("n", 10)),
            seed=int(m.get("seed", self.seed)),
            multiplicities=tuple(m.get("multiplicities", ())),
        )

    def spectral_grid(self) -> tuple[spectral.SpectralGrid, np.ndarray]:
        g = self.grid or {}
        grid = spectral.SpectralGrid(
            n=int(g.get("n", 256)),
            x_min=float(g.get("x_min", -8.0)),
            x_max=float(g.get("x_max", 8.0)),
        )
        v = spectral.pt_potential(
            grid,
            alpha=float(g.get("alpha", 1.0)),
            lam_prod=float(g.get("lam_prod", 10.0)),
        )
        return grid, v


def _config_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _header(cfg_hash: str, extra: list[str] | None = None) -> list[str]:
    return [
        f"unisplit version {unisplit.__version__}",
        f"config hash {cfg_hash}",
        *(extra or []),
    ]


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _default_h_grid() -> list[float]:
    return list(np.geomspace(0.01, 10.0, 16))


def _run_schemes_list(cfg: ExperimentConfig, cfg_hash: str, out: Path) -> None:
    listed = cfg.schemes or schemes.catalog_names()
    lines = [f"# {c}" for c in _header(cfg_hash)]
    lines.append("name,kind,order,stages,delta_a,delta_b")
    print(f"{'name':<14}{'kind':<6}{'order':<7}{'stages':<8}{'Δa':<10}{'Δb':<10}")
    for name in listed:
        s = schemes.get_scheme(name)
        da, db = schemes.delta_norms(s)
        lines.append(f"{s.name},{s.kind},{s.order},{s.stages},{da:.17g},{db:.17g}")
        print(f"{s.name:<14}{s.kind:<6}{s.order:<7}{s.stages:<8}{da:<10.4f}{db:<10.4f}")
    _write(out / "schemes_list.csv", "\n".join(lines) + "\n")


def _run_validate(cfg: ExperimentConfig, cfg_hash: str, out: Path) -> None:
    lines = [f"# {c}" for c in _header(cfg_hash)]
    lines.append("name,consistent,symmetric_conjugate,positive_real_parts")
    for name in cfg.schemes:
        rep = schemes.validate(schemes.get_scheme(name))
        lines.append(
            f"{name},{rep.consistent},{rep.symmetric_conjugate},"
            f"{rep.positive_real_parts}"
        )
        print(f"{name}: {rep}")
    _write(out / "validate.csv", "\n".join(lines) + "\n")


def _run_dh_sweep(cfg: ExperimentConfig, cfg_hash: str, out: Path) -> None:
    spec = cfg.matrix_spec()
    _, a, b = experiments.generate(spec)
    h_grid = cfg.h_values or _default_h_grid()
    for name in cfg.schemes:
        series = experiments.dh_sweep(
            schemes.get_scheme(name), a, b, h_grid, threshold=cfg.threshold
        )
        extra = [
            f"matrix class {spec.matrix_class.value} n={spec.n} seed={spec.seed}",
            f"h_star {series.meta['h_star']}",
        ]
        _write(out / f"dh_sweep_{name}.csv", series.to_csv(_header(cfg_hash, extra)))
        print(f"{name}: h* = {series.meta['h_star']}")


def _spectral_conservation(
    scheme: schemes.SplittingScheme,
    grid: spectral.SpectralGrid,
    v: np.ndarray,
    h: float,
    n_steps: int,
    sample_every: int,
) -> experiments.DiagnosticSeries:
    """Long-time matrix-free run recording (t, mass_err, energy_err, fft_count)."""
    counter = spectral.FftCounter()
    u = spectral.initial_gaussian(grid)
    obs0 = spectral.observables(grid, v, u)
    series = experiments.DiagnosticSeries(
        abscissa="t", columns=("mass_err", "energy_err", "fft_count")
    )
    series.meta["scheme"] = scheme.name
    for n in range(1, n_steps + 1):
        try:
            u = spectral.split_step(scheme, grid, v, u, h, counter)
        except linalg.NumericalError as exc:
            # drifting schemes eventually overflow; keep what was recorded
            series.meta["aborted_at_step"] = n
            series.meta["aborted"] = str(exc)
            break
        if n % sample_every == 0 or n == n_steps:
            obs = spectral.observables(grid, v, u)
            series.add(
                n * h,
                {
                    "mass_err": abs(obs["mass"] - obs0["mass"]),
                    "energy_err": abs(obs["energy"] - obs0["energy"]),
                    "fft_count": counter.count,
                },
            )
    return series


def _conservation_schemes(cfg: ExperimentConfig) -> list[schemes.SplittingScheme]:
    chosen = [schemes.get_scheme(n) for n in (cfg.schemes or ["NB11s6"])]
    if cfg.include_comparator:
        chosen.append(schemes.drift_comparator())
    return chosen


def _run_conservation(cfg: ExperimentConfig, cfg_hash: str, out: Path) -> None:
    grid, v = cfg.spectral_grid()
    h = cfg.h_values[0] if cfg.h_values else 100.0 / 909.0
    t_final = cfg.t_final if cfg.t_final is not None else 1e4
    n_steps = cfg.n_steps or max(1, round(t_final / h))
    # at most about 2000 samples per run
    sample_every = max(cfg.sample_every, n_steps // 2000, 1)
    raised = ([f"sample_every raised from {cfg.sample_every} to {sample_every}"]
              if sample_every != cfg.sample_every else [])
    for s in _conservation_schemes(cfg):
        series = _spectral_conservation(s, grid, v, h, n_steps, sample_every)
        aborted = ([f"aborted at step {series.meta['aborted_at_step']}: "
                    f"{series.meta['aborted']}"]
                   if "aborted" in series.meta else [])
        extra = [
            f"scheme {s.name} h {h:.17g} n_steps {n_steps}",
            *raised,
            "scheme: catalog entry" if s.name in schemes.catalog_names() else
            "comparator: order-2 palindromic scheme with complex potential "
            "weights, not symmetric-conjugate",
            *aborted,
        ]
        _write(
            out / f"conservation_{s.name}.csv",
            series.to_csv(_header(cfg_hash, extra)),
        )
        if len(series.rows) < 2:  # no slope to fit
            print(f"{s.name}: energy drift n/a ({len(series.rows)} samples)")
            continue
        drift = experiments.drift_slope(series, "energy_err") * h  # per step
        print(f"{s.name}: energy drift {drift:.3e} per step")


def _run_efficiency(cfg: ExperimentConfig, cfg_hash: str, out: Path) -> None:
    grid, v = cfg.spectral_grid()
    t_final = cfg.t_final if cfg.t_final is not None else 100.0
    h_grid = cfg.h_values or list(np.geomspace(0.02, 0.4, 8))
    for name in cfg.schemes:
        s = schemes.get_scheme(name)
        series = experiments.DiagnosticSeries(
            abscissa="h", columns=("fft_count", "max_energy_err")
        )
        skipped = []
        for h in sorted(h_grid):
            n_steps = max(1, round(t_final / h))
            counter = spectral.FftCounter()
            u = spectral.initial_gaussian(grid)
            e0 = spectral.observables(grid, v, u)["energy"]
            worst = 0.0
            try:
                for _ in range(n_steps):
                    u = spectral.split_step(s, grid, v, u, h, counter)
                    worst = max(
                        worst, abs(spectral.observables(grid, v, u)["energy"] - e0)
                    )
            except linalg.NumericalError as exc:
                # unstable cell: no data row, but the header records it
                skipped.append(f"skipped h {h:.17g}: {exc}")
                continue
            series.add(h, {"fft_count": counter.count, "max_energy_err": worst})
        _write(
            out / f"efficiency_{name}.csv",
            series.to_csv(_header(cfg_hash, [f"t_final {t_final:.17g}", *skipped])),
        )
        print(f"{name}: {len(series.rows)} efficiency points")


def _run_order(cfg: ExperimentConfig, cfg_hash: str, out: Path) -> None:
    use_grid = cfg.grid is not None
    if use_grid:
        grid, v = cfg.spectral_grid()
        h_grid = cfg.h_values or list(np.geomspace(0.02, 0.25, 8))
    else:
        spec = cfg.matrix_spec()
        _, a, b = experiments.generate(spec)
        h_grid = cfg.h_values or list(np.geomspace(0.05, 0.4, 8))
    for name in cfg.schemes:
        s = schemes.get_scheme(name)
        if use_grid:
            fit = spectral.pt_empirical_order(s, grid, v, h_grid)
        else:
            fit = propagator.empirical_order(s, a, b, h_grid)
        series = experiments.DiagnosticSeries(abscissa="h", columns=("error",))
        for h, e in sorted(zip(fit.h_used, fit.errors)):
            series.add(h, {"error": e})
        extra = [f"fitted slope {fit.slope:.17g}",
                 f"excluded h {list(fit.excluded)}"]
        _write(out / f"order_{name}.csv", series.to_csv(_header(cfg_hash, extra)))
        print(f"{name}: slope {fit.slope:.3f}")


def _run_rkn_check(cfg: ExperimentConfig, cfg_hash: str, out: Path) -> None:
    grid, v = cfg.spectral_grid()
    u0 = spectral.initial_gaussian(grid)
    residual = spectral.rkn_residual(grid, v, u0)
    payload = {
        "n": grid.n,
        "residual": residual,
        "u0_norm": grid.norm(u0),
        "config_hash": cfg_hash,
    }
    _write(out / "rkn_check.json", json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload))


_DISPATCH = {
    "SCHEMES_LIST": _run_schemes_list,
    "VALIDATE": _run_validate,
    "DH_SWEEP": _run_dh_sweep,
    "CONSERVATION": _run_conservation,
    "EFFICIENCY": _run_efficiency,
    "ORDER": _run_order,
    "RKN_CHECK": _run_rkn_check,
}


def run(raw_config: dict, out_dir: str | None = None) -> int:
    """Validate and execute one experiment config; returns an exit status."""
    try:
        cfg = ExperimentConfig.from_dict(raw_config)
    except ConfigError as exc:
        print(json.dumps({"error": "invalid config", "detail": str(exc)}),
              file=sys.stderr)
        return 2
    out = Path(out_dir or cfg.output)
    cfg_hash = _config_hash(raw_config)
    try:
        _DISPATCH[cfg.experiment](cfg, cfg_hash, out)
    except linalg.NumericalError as exc:
        print(json.dumps({"error": "numerical abort", "detail": str(exc)}),
              file=sys.stderr)
        return 3
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="unisplit",
        description="Reversible complex-coefficient splitting experiments",
    )
    parser.add_argument("experiment", choices=[e.lower() for e in EXPERIMENTS])
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON experiment config")
    parser.add_argument("--out", type=Path, default=None, help="artifact directory")
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    args = parser.parse_args(argv)

    if args.config is not None:
        try:
            raw = json.loads(args.config.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(json.dumps({"error": "unreadable config", "detail": str(exc)}),
                  file=sys.stderr)
            return 2
    else:
        raw = {"experiment": args.experiment.upper()}
    raw.setdefault("experiment", args.experiment.upper())
    if raw["experiment"] != args.experiment.upper():
        print(json.dumps({"error": "config/CLI experiment mismatch"}),
              file=sys.stderr)
        return 2
    if args.seed is not None:
        raw["seed"] = args.seed
    return run(raw, out_dir=str(args.out) if args.out else None)


if __name__ == "__main__":
    sys.exit(main())

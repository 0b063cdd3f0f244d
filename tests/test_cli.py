import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import unisplit
from unisplit import cli, experiments, spectral
from unisplit.cli import ConfigError


def cfg(**kw):
    base = {"experiment": "DH_SWEEP", "schemes": ["S31"]}
    base.update(kw)
    return base


def conservation(**kw):
    base = {"experiment": "CONSERVATION", "schemes": ["S31"], "grid": {"n": 64},
            "h_values": [0.05], "t_final": 0.5}
    base.update(kw)
    return base


# CONSERVATION derives its sampling from n_steps and reads no sample_every.
_UNKNOWN_SAMPLE_EVERY = "unknown config fields for CONSERVATION: ['sample_every']"


def _refused(tmp_path, capsys, status, *words):
    """The run exited 2 with an invalid-config detail naming ``words``,
    and wrote nothing."""
    assert status == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid config"
    for word in words:
        assert word in err["detail"], err["detail"]
    assert not list(tmp_path.iterdir())


class TestConfigParsing:
    def test_minimal(self):
        c = cli._resolve(cfg())
        assert c["experiment"] == "DH_SWEEP"
        assert [s.name for s in c["schemes"]] == ["S31"]

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            cli._resolve(cfg(tolerance=1e-5))

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            cli._resolve({"experiment": "FROBNICATE"})

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError, match="unknown scheme"):
            cli._resolve(cfg(schemes=["S99"]))

    def test_scheme_list_required(self):
        with pytest.raises(ConfigError, match="non-empty scheme list"):
            cli._resolve({"experiment": "ORDER"})

    def test_unknown_matrix_class(self):
        with pytest.raises(ConfigError, match="matrix class"):
            cli._resolve(cfg(matrix={"class": "WAT"}))

    def test_negative_h_rejected(self):
        with pytest.raises(ConfigError):
            cli._resolve(cfg(h_values=[0.1, -0.2]))


def test_config_hash_is_canonical():
    h1 = cli._config_hash({"a": 1, "b": 2})
    h2 = cli._config_hash({"b": 2, "a": 1})
    h3 = cli._config_hash({"a": 1, "b": 3})
    assert h1 == h2 != h3
    assert len(h1) == 16


def test_run_invalid_config_exit_code(tmp_path, capsys):
    for raw in (
        {"experiment": "NOPE"},
        cfg(seed="x"),
        conservation(sample_every="a"),
        cfg(threshold="tiny"),
        cfg(h_range={"min": 0.1, "max": 1.0, "points": "five"}),
        cfg(h_range={"min": 0.1, "points": 5}),
        cfg(h_range={"max": 1.0}),
    ):
        assert cli.run(raw, out_dir=str(tmp_path)) == 2, raw
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid config"
    assert not list(tmp_path.iterdir())


def test_schemes_list_artifact(tmp_path, capsys):
    assert cli.run({"experiment": "SCHEMES_LIST"}, out_dir=str(tmp_path)) == 0
    text = (tmp_path / "schemes_list.csv").read_text()
    assert "name,kind,order,stages,delta_a,delta_b" in text
    assert "NB11s6,BAB,6," in text
    capsys.readouterr()


def test_artifacts_are_byte_identical(tmp_path, capsys):
    raw = cfg(h_values=[0.1, 0.3, 1.0], matrix={"class": "SYM_SIMPLE"}, seed=3)
    assert cli.run(dict(raw), out_dir=str(tmp_path / "one")) == 0
    assert cli.run(dict(raw), out_dir=str(tmp_path / "two")) == 0
    a = (tmp_path / "one" / "dh_sweep_S31.csv").read_bytes()
    b = (tmp_path / "two" / "dh_sweep_S31.csv").read_bytes()
    assert a == b
    capsys.readouterr()


def test_dh_sweep_artifact_headers(tmp_path, capsys):
    raw = cfg(h_values=list(np.geomspace(0.05, 2.0, 6)))
    assert cli.run(raw, out_dir=str(tmp_path)) == 0
    lines = (tmp_path / "dh_sweep_S31.csv").read_text().splitlines()
    assert lines[0].startswith("# unisplit version")
    assert any(line.startswith("# config hash") for line in lines)
    assert "h,D_h" in lines
    capsys.readouterr()


def test_rkn_check_artifact(tmp_path, capsys):
    raw = {"experiment": "RKN_CHECK", "grid": {"n": 64}}
    assert cli.run(raw, out_dir=str(tmp_path)) == 0
    doc = json.loads((tmp_path / "rkn_check.json").read_text())
    assert doc["n"] == 64
    assert doc["residual"] >= 0.0
    capsys.readouterr()


def test_order_experiment_smoke(tmp_path, capsys):
    raw = {
        "experiment": "ORDER",
        "schemes": ["strang"],
        "matrix": {"class": "SYM_SIMPLE"},
        "seed": 0,
        "h_values": list(np.geomspace(0.05, 0.4, 6)),
    }
    assert cli.run(raw, out_dir=str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "strang: slope" in out
    assert (tmp_path / "order_strang.csv").exists()


def test_conservation_smoke_with_comparator(tmp_path, capsys):
    raw = {
        "experiment": "CONSERVATION",
        "schemes": ["S31"],
        "grid": {"n": 64},
        "h_values": [0.05],
        "t_final": 2.5,
    }
    assert cli.run(raw, out_dir=str(tmp_path)) == 0
    assert (tmp_path / "conservation_S31.csv").exists()
    written = list(tmp_path.glob("conservation_pal2_*.csv"))
    assert len(written) == 1
    assert "# comparator: order-2 palindromic" in written[0].read_text()
    assert "# scheme: catalog entry" in (tmp_path / "conservation_S31.csv").read_text()
    capsys.readouterr()


def test_conservation_thins_a_long_run_with_a_record(tmp_path, capsys):
    """A run is thinned to about 2000 samples, and the header says so; a
    run of at most 2000 steps keeps every step and writes no such line."""
    for t_final, every, rows in ((300.0, 3, 2000), (100.0, None, 2000)):
        raw = conservation(t_final=t_final)
        assert cli.run(raw, out_dir=str(tmp_path)) == 0
        lines = (tmp_path / "conservation_S31.csv").read_text().splitlines()
        thinned = [line for line in lines if line.startswith("# sample_every")]
        assert thinned == ([f"# sample_every {every}"] if every else [])
        assert len([line for line in lines if not line.startswith("#")]) == 1 + rows
    capsys.readouterr()


def _conservation_lines(tmp_path, name):
    return (tmp_path / f"conservation_{name}.csv").read_text().splitlines()


def test_conservation_records_a_run_that_blew_up(tmp_path, capsys):
    """S32 at h = 0.16996 on the default grid lies above its h* of 0.047: by
    t = 100 its mass error far exceeds the initial mass 1 without
    overflowing, and the header records it.  The comparator overflows at
    step 343; its run is recorded as aborted only."""
    h = 0.1699562481967873
    raw = {"experiment": "CONSERVATION", "schemes": ["S32"], "h_values": [h],
           "t_final": 100}
    assert cli.run(raw, out_dir=str(tmp_path)) == 0
    lines = _conservation_lines(tmp_path, "S32")
    notes = [line for line in lines if line.startswith("# unstable h ")]
    assert len(notes) == 1 and not any(line.startswith("# aborted") for line in lines)
    e, m = re.fullmatch(rf"# unstable h {h:.17g}: max mass error (\S+) "
                        r"exceeds the initial mass (\S+)", notes[0]).groups()
    assert float(e) > 1e8 and float(m) == pytest.approx(1.0, rel=1e-12)
    assert len([line for line in lines if not line.startswith("#")]) == 1 + 588
    comparator = _conservation_lines(tmp_path, "pal2_b0.25_0.25")
    ended = [line for line in comparator if line.startswith(("# aborted", "# unstable"))]
    assert len(ended) == 1 and ended[0].startswith("# aborted at step 343: ")
    capsys.readouterr()


def test_conservation_records_an_aborted_run(tmp_path, capsys):
    raw = {
        "experiment": "CONSERVATION",
        "schemes": ["strang"],
        "grid": {"n": 64},
        "h_values": [1.3],
        "t_final": 130.0,
    }
    assert cli.run(raw, out_dir=str(tmp_path)) == 0
    lines = _conservation_lines(tmp_path, "pal2_b0.25_0.25")
    aborted = [line for line in lines if line.startswith("# aborted at step ")]
    assert len(aborted) == 1 and ": state overflow in factor (" in aborted[0]
    step = int(aborted[0].split()[4].rstrip(":"))
    rows = [line for line in lines if not line.startswith("#")]
    assert len(rows) == 1 + step - 1  # every completed step is sampled
    assert not any(line.startswith("# aborted")
                   for line in _conservation_lines(tmp_path, "strang"))
    assert "pal2_b0.25_0.25: energy drift " in capsys.readouterr().out


def test_conservation_aborted_before_two_samples(tmp_path, capsys):
    raw = {
        "experiment": "CONSERVATION",
        "schemes": ["NB5s4"],
        "grid": {"n": 64},
        "h_values": [50.0],
        "t_final": 500.0,
    }
    assert cli.run(raw, out_dir=str(tmp_path)) == 0
    lines = _conservation_lines(tmp_path, "NB5s4")
    assert any(line.startswith("# aborted at step 1: state overflow")
               for line in lines)
    assert [line for line in lines if not line.startswith("#")] == \
        ["t,mass_err,energy_err,fft_count"]
    assert "NB5s4: energy drift n/a" in capsys.readouterr().out


@pytest.mark.parametrize("experiment", ["EFFICIENCY", "ORDER", "DH_SWEEP"])
def test_duplicate_h_values_rejected(tmp_path, capsys, experiment):
    raw = {"experiment": experiment, "schemes": ["strang"], "h_values": [0.1, 0.1]}
    assert cli.run(raw, out_dir=str(tmp_path)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid config"
    assert "distinct" in err["detail"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("raw", [
    {"experiment": "ORDER", "schemes": ["strang"], "grid": {"n": 2048}},
    {"experiment": "CONSERVATION", "schemes": ["strang"], "grid": {"n": 100}},
    {"experiment": "DH_SWEEP", "schemes": ["strang"],
     "matrix": {"class": "SYM_SIMPLE", "n": 0}},
    {"experiment": "DH_SWEEP", "schemes": ["strang"], "h_values": []},
    {"experiment": "DH_SWEEP", "schemes": ["strang"],
     "h_range": {"min": 0.1, "max": 1.0, "points": 0}},
], ids=["order_dense_limit", "grid_not_power_of_two", "matrix_n_zero",
        "empty_h_values", "h_range_no_points"])
def test_bad_sizes_are_config_errors(tmp_path, capsys, raw):
    assert cli.run(raw, out_dir=str(tmp_path)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid config"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("field,value", [
    ("n_steps", 0), ("n_steps", -3), ("t_final", 0.0), ("t_final", -1.0),
])
def test_nonpositive_run_length_rejected(tmp_path, capsys, field, value):
    raw = {"experiment": "CONSERVATION", "schemes": ["strang"], field: value}
    assert cli.run(raw, out_dir=str(tmp_path)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid config"
    assert field in err["detail"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("experiment", ["CONSERVATION", "EFFICIENCY"])
def test_a_t_final_over_h_beyond_the_float_range_is_refused(tmp_path, capsys, experiment):
    """t_final / h of inf raised an uncaught OverflowError from the step
    count's ``round``; it is an invalid config, and nothing is written."""
    raw = {"experiment": experiment, "schemes": ["strang"], "grid": {"n": 16},
           "h_values": [1e-10], "t_final": 1e308}
    _refused(tmp_path, capsys, cli.run(raw, out_dir=str(tmp_path)), "t_final / h")


def test_efficiency_records_skipped_cells(tmp_path, capsys):
    raw = {
        "experiment": "EFFICIENCY",
        "schemes": ["S4"],
        "grid": {"n": 64},
        "h_values": [0.05, 1.3],
        "t_final": 2.6,
    }
    assert cli.run(raw, out_dir=str(tmp_path)) == 0
    lines = (tmp_path / "efficiency_S4.csv").read_text().splitlines()
    skipped = [line for line in lines if line.startswith("# skipped h 1.3: ")]
    assert len(skipped) == 1 and "state overflow" in skipped[0]
    rows = [line for line in lines if not line.startswith("#")]
    assert rows[0] == "h,fft_count,max_energy_err"
    assert [row.split(",")[0] for row in rows[1:]] == ["0.050000000000000003"]
    capsys.readouterr()


@pytest.mark.parametrize("h, unstable", [(0.4, True), (0.111, False)])
def test_efficiency_records_a_kept_cell_that_blew_up(tmp_path, capsys, h, unstable):
    """NB5s4 at h = 0.4 lies above its h* of 0.072: by t = 100 its mass error
    reaches about 1e22 without overflowing, and the row is kept with a header
    line.  At h = 0.111 the mass error stays far below the initial mass 1."""
    raw = {"experiment": "EFFICIENCY", "schemes": ["NB5s4"], "h_values": [h]}
    assert cli.run(raw, out_dir=str(tmp_path)) == 0
    lines = (tmp_path / "efficiency_NB5s4.csv").read_text().splitlines()
    notes = [line for line in lines if line.startswith("# unstable h ")]
    assert len(notes) == unstable
    if unstable:
        e, m = re.fullmatch(rf"# unstable h {h:.17g}: max mass error (\S+) "
                            r"exceeds the initial mass (\S+)", notes[0]).groups()
        assert float(e) > 1e20 and float(m) == pytest.approx(1.0, rel=1e-12)
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    assert len(rows) == 2 and float(rows[1][0]) == h
    capsys.readouterr()


_S31_AT_1_3 = {"schemes": ["S31"], "grid": {"n": 512}, "h_values": [1.3],
               "t_final": 2.6}


@pytest.mark.parametrize("raw, headers", [
    pytest.param({"experiment": "EFFICIENCY", **_S31_AT_1_3},
                 {"efficiency_S31.csv": ["# skipped h 1.3: state overflow"]},
                 id="EFFICIENCY-# skipped h 1.3: state overflow"),
    pytest.param({"experiment": "CONSERVATION", **_S31_AT_1_3},
                 {"conservation_S31.csv": ["# aborted at step 1: state overflow"]},
                 id="CONSERVATION-# aborted at step 1: state overflow"),
    # S31 overflows at h = 0.25 on the default grid, S4 at 0.174 too
    pytest.param({"experiment": "ORDER", "schemes": ["S31", "S4"], "grid": {}},
                 {"order_S31.csv": ["# excluded h [0.17427639921279242]",
                                    "# failed h [0.25]"],
                  "order_S4.csv": ["# excluded h []",
                                   "# failed h [0.17427639921279242, 0.25]"]},
                 id="ORDER-grid"),
    # as in the first two cases, S31's phases overflow at N = 512, h = 1.3
    pytest.param({"experiment": "ORDER", "schemes": ["S31"], "grid": {"n": 512},
                  "h_values": [0.02, 0.03, 1.3]},
                 {"order_S31.csv": ["# excluded h []", "# failed h [1.3]"]},
                 id="ORDER-grid-phases"),
    # the step matrix at h = 200 has entries near 1e209, so its error is inf
    pytest.param({"experiment": "ORDER", "schemes": ["S31"],
                  "h_values": [0.05, 0.4, 2, 20, 200]},
                 {"order_S31.csv": ["# excluded h [2.0, 20.0]", "# failed h [200.0]"]},
                 id="ORDER-matrix"),
])
def test_overflowing_cell_raises_no_numpy_warning(tmp_path, capsys, raw, headers):
    # S31's phases overflow at N = 512, h = 1.3; clear the phase cache so
    # that they are built, and would warn, inside this run.  Every cell is
    # recorded in a header line and the run goes on.
    spectral._factor_phases.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.run(raw, out_dir=str(tmp_path)) == 0
    assert set(headers) <= {p.name for p in tmp_path.iterdir()}
    for name, expected in headers.items():
        lines = (tmp_path / name).read_text().splitlines()
        found = [line for line in lines if line.startswith(tuple(expected))]
        assert len(found) == len(expected)
        assert all(map(str.startswith, found, expected))
    capsys.readouterr()


def test_order_on_a_grid_whose_matrix_squares_overflow_raises_no_numpy_warning(
        tmp_path, capsys):
    # a well depth of -5e300: the dense H is finite but its Frobenius norm
    # is not; no point of strang is inside the fit window, so the run ends
    raw = {"experiment": "ORDER", "schemes": ["strang"],
           "grid": {"n": 8, "alpha": 1e150}}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.run(raw, out_dir=str(tmp_path)) == 3
    assert "fewer than two points inside the fit window" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_main_entry_point(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"experiment": "SCHEMES_LIST"}))
    status = cli.main(["schemes_list", "--config", str(config),
                       "--out", str(tmp_path)])
    assert status == 0
    assert (tmp_path / "schemes_list.csv").exists()
    capsys.readouterr()


@pytest.mark.parametrize("raw, status", [({"experiment": "SCHEMES_LIST"}, 0),
                                         ({"experiment": "SCHEMES_LIST", "seed": 1}, 2)],
                         ids=["valid", "invalid"])
def test_python_m_unisplit_cli_exits_with_the_status_of_main(tmp_path, capsys, raw,
                                                              status):
    """``python -m unisplit.cli`` exits with the status ``main`` returns and
    writes the bytes ``main`` writes: the module's ``sys.exit(main())``."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps(raw))
    args = ["schemes_list", "--config", str(config), "--out"]
    env = {**os.environ, "PYTHONPATH": str(Path(unisplit.__file__).parents[1]),
           "PYTHONIOENCODING": "utf-8"}
    done = subprocess.run([sys.executable, "-m", "unisplit.cli", *args,
                           str(tmp_path / "module")], env=env, capture_output=True,
                          encoding="utf-8", timeout=60)
    assert done.returncode == cli.main([*args, str(tmp_path / "main")]) == status
    main_out, main_err = capsys.readouterr()
    assert (done.stdout, done.stderr) == (main_out, main_err)
    if status == 0:
        assert (tmp_path / "module" / "schemes_list.csv").read_bytes() == \
            (tmp_path / "main" / "schemes_list.csv").read_bytes()
    else:
        assert json.loads(done.stderr)["error"] == "invalid config"
        assert not (tmp_path / "module").exists()


def test_main_experiment_mismatch(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"experiment": "SCHEMES_LIST"}))
    assert cli.main(["validate", "--config", str(config)]) == 2
    capsys.readouterr()


def test_main_config_that_is_not_an_object(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text("[1, 2]")
    assert cli.main(["schemes_list", "--config", str(config)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "unreadable config" and "JSON object" in err["detail"]


def test_main_unreadable_config(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text("{not json")
    assert cli.main(["schemes_list", "--config", str(config)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "unreadable config"


@pytest.mark.parametrize("raw, field", [
    (conservation(h_values=[0.05, 0.2]), "h_values"),
    (conservation(n_steps=10), "n_steps"),
    (conservation(threshold=1e-8), "threshold"),
    (conservation(matrix={"class": "SYM_SIMPLE"}), "matrix"),
    (conservation(seed=3), "seed"),
    (cfg(grid={"n": 64}), "grid"),
    (cfg(t_final=1.0), "t_final"),
    (cfg(sample_every=2), "sample_every"),
    (conservation(sample_every=3), _UNKNOWN_SAMPLE_EVERY),
    (cfg(include_comparator=False), "include_comparator"),
    (cfg(h_values=[0.1, 1.0], h_range={"min": 0.1, "max": 1.0, "points": 4}),
     "h_range"),
    (cfg(seed=3, matrix={"class": "SYM_SIMPLE", "seed": 4}), "matrix fields: ['seed']"),
    ({"experiment": "ORDER", "schemes": ["strang"], "grid": {"n": 64},
      "matrix": {"class": "SYM_SIMPLE"}}, "matrix"),
    ({"experiment": "RKN_CHECK", "grid": {"n": 64}, "schemes": ["S31"]}, "schemes"),
    (cfg(matrix={"class": "SYM_SIMPLE", "multiplicities": [5, 5]}), "multiplicities"),
    (conservation(include_comparator="no"), "include_comparator"),
    (cfg(matrix={"class": "SYM_SIMPLE", "multiplicities": []}), "multiplicities"),
    (cfg(h_range={"min": 0.1, "max": 1.0, "points": 4}), "h_range"),
    ({"experiment": "CONSERVATION", "n_steps": 20}, "n_steps"),
    (cfg(matrix={"class": "SYM_SIMPLE", "seed": 4}), "matrix fields: ['seed']"),
    (cfg(output="artifacts"), "output"),
    (cfg(threshold=1e-8), "threshold"),
    (conservation(include_comparator=True), "include_comparator"),
], ids=["conservation_two_h", "n_steps_and_t_final", "conservation_threshold",
        "conservation_matrix", "conservation_seed", "dh_sweep_grid",
        "dh_sweep_t_final", "dh_sweep_sample_every", "conservation_sample_every",
        "dh_sweep_comparator",
        "h_values_and_h_range", "seed_and_matrix_seed", "order_grid_and_matrix",
        "rkn_check_schemes", "multiplicities_on_simple_class",
        "comparator_not_a_bool", "empty_multiplicities_on_simple_class",
        "h_range", "n_steps", "matrix_seed", "output", "threshold",
        "include_comparator"])
def test_field_that_would_be_ignored_is_refused(tmp_path, capsys, raw, field):
    """Each config sets a field its experiment does not read; none of them
    runs.  The last six set a field that was once a second spelling of
    another (``h_range``, ``n_steps``, ``matrix.seed``, ``output``) or a
    value no caller changed (``threshold``, ``include_comparator``)."""
    _refused(tmp_path, capsys, cli.run(raw, out_dir=str(tmp_path)), field)


def test_main_refuses_a_seed_conservation_does_not_read(tmp_path, capsys):
    _refused(tmp_path, capsys,
             cli.main(["conservation", "--seed", "3", "--out", str(tmp_path)]), "seed")


@pytest.mark.parametrize("raw", [cfg(seed=3), cfg(matrix={"seed": 3})],
                         ids=["seed", "matrix_seed"])
def test_main_refuses_seed_on_a_config_that_sets_it(tmp_path, capsys, raw):
    """``--seed`` sets ``seed``; it replaces no value the config gives."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    status = cli.main(["dh_sweep", "--config", str(config), "--seed", "7",
                       "--out", str(out)])
    err = json.loads(capsys.readouterr().err)
    assert status == 2 and err["error"] == "invalid config" and "seed" in err["detail"]
    assert not out.exists()


@pytest.mark.parametrize("raw, words", [
    (cfg(matrix=5), ["matrix", "object"]),
    (cfg(h_range=5), ["h_range", "unknown"]),
    (cfg(schemes="S31"), ["schemes", "list"]),
    (cfg(schemes=["S31", "S4", "S31"]), ["schemes", "distinct"]),
    (cfg(seed=2.7), ["seed"]),
    (cfg(seed=True), ["seed"]),
    (cfg(matrix={"class": "SYM_SIMPLE", "n": 4.9}), ["matrix.n"]),
    (cfg(h_range={"min": 0.1, "max": 1.0, "points": 2.9}), ["h_range"]),
    (cfg(h_values=json.loads("[0.1, NaN]")), ["h_values"]),
    (cfg(h_values=json.loads("[0.1, Infinity]")), ["h_values"]),
    (cfg(matrix={"class": "MULTIPLE_EIGS_DIAG", "multiplicities": [5.5, 4.5]}),
     ["multiplicities"]),
    (cfg(matrix={"class": "MULTIPLE_EIGS_DIAG", "multiplicities": []}),
     ["invalid matrix", "multiplicities () do not sum to n=10"]),
    (cfg(matrix={"class": "MULTIPLE_EIGS_DIAG", "multiplicities": None}),
     ["multiplicities", "list"]),
    (cfg(matrix={"class": "SYM_SIMPLE", "multiplicities": []}),
     ["invalid matrix", "SYM_SIMPLE reads no multiplicities"]),
    (cfg(threshold=json.loads("NaN")), ["threshold"]),
    (cfg(matrix={"n": 1}), ["invalid matrix: dimension must be at least 2"]),
    (conservation(sample_every=0), [_UNKNOWN_SAMPLE_EVERY]),
    (conservation(sample_every=-2), [_UNKNOWN_SAMPLE_EVERY]),
], ids=["matrix_not_object", "h_range_not_object", "schemes_string", "schemes_repeated",
        "seed_float", "seed_bool", "matrix_n_float", "h_range_points_float",
        "h_nan", "h_infinity", "multiplicities_float", "multiplicities_empty",
        "multiplicities_null", "multiplicities_empty_on_simple_class", "threshold_nan",
        "matrix_n_one", "sample_every_zero", "sample_every_negative"])
def test_value_of_the_wrong_kind_is_refused(tmp_path, capsys, raw, words):
    """No traceback and no truncation; a ``sample_every`` of 0 or below is
    refused as an unknown field, not raised to 1."""
    _refused(tmp_path, capsys, cli.run(raw, out_dir=str(tmp_path)), *words)


def test_conservation_runs_on_the_table_defaults(tmp_path, capsys):
    """``unisplit conservation`` needs no scheme list: NB11s6 and the
    comparator at h = 100/909, here for 10 steps on a 64-point grid."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"grid": {"n": 64}, "t_final": 1000.0 / 909.0}))
    out = tmp_path / "out"
    assert cli.main(["conservation", "--config", str(config), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "conservation_NB11s6.csv", "conservation_pal2_b0.25_0.25.csv"]
    lines = (out / "conservation_NB11s6.csv").read_text().splitlines()
    assert f"# scheme NB11s6 h {100.0 / 909.0:.17g} n_steps 10" in lines
    assert "NB11s6: energy drift " in capsys.readouterr().out


def test_resolve_gives_the_table_defaults():
    """A config resolves to the fields its form reads, each built once:
    ``seed`` goes into ``matrix``."""
    c = cli._resolve({"experiment": "CONSERVATION"})
    assert sorted(c) == ["experiment", "grid", "h_values", "schemes", "t_final"]
    assert [s.name for s in c["schemes"]] == ["NB11s6"]
    assert (c["h_values"], c["t_final"]) == ([100.0 / 909.0], 1e4)
    assert c["grid"][0] == spectral.SpectralGrid(n=256)
    d = cli._resolve(cfg(seed=7))
    assert d["matrix"] == experiments.MatrixClassSpec(
        experiments.MatrixClass.SYM_SIMPLE, n=10, seed=7)
    assert sorted(d) == ["experiment", "h_values", "matrix", "schemes"]
    assert len(d["h_values"]) == 16
    assert cli._resolve(cfg())["matrix"].seed == 0
    multiple = cli._resolve(cfg(matrix={"class": "MULTIPLE_EIGS_NONSYM_SPLIT", "n": 7}))
    assert multiple["matrix"].multiplicities == (3, 4)


def test_run_builds_the_potential_once(tmp_path, capsys, monkeypatch):
    """The runner takes the grid and potential that ``_resolve`` built."""
    built = []
    potential = spectral.pt_potential
    monkeypatch.setattr(spectral, "pt_potential",
                        lambda *a: built.append(a) or potential(*a))
    raw = {"experiment": "RKN_CHECK", "grid": {"n": 64}}
    assert cli.run(raw, out_dir=str(tmp_path)) == 0
    assert len(built) == 1
    capsys.readouterr()


def test_readme_table_names_the_fields_of_each_experiment():
    """The README's field table lists what ``cli`` reads, row for row."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.split("## CLI examples")[1].splitlines():
        cells = [c.strip() for c in line.split("|")[1:-1]]
        if len(cells) == 2 and cells[0] not in ("Experiment", "Object", "---"):
            rows[cells[0].strip("`")] = set(re.findall(r"`([a-z_]+)`", cells[1]))
    expected = {name: set(fields) for name, fields in cli._FIELDS.items()}
    expected.update({"every experiment": set(cli._COMMON), "grid": set(cli._GRID),
                     "matrix": set(cli._MATRIX)})
    assert rows == expected


def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    """Every config the README's example block writes resolves, and its
    commands run to exit 0, except CONSERVATION at its default length
    (90 900 steps), which is only resolved."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI examples")[1].split("```sh\n")[1].split("```")[0]
    monkeypatch.chdir(tmp_path)
    ran = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words[0] == "echo":  # echo '<config>' > <path>
            assert words[2] == ">", line
            cli._resolve(json.loads(words[1]))
            Path(words[3]).write_text(words[1])
        elif words[:2] == ["unisplit", "conservation"]:  # the default config
            assert "--config" not in words, line
            cli._resolve({"experiment": "CONSERVATION"})
        else:
            assert words[0] == "unisplit" and cli.main(words[1:]) == 0, line
            ran.append(words[1])
    assert ran == ["schemes_list", "dh_sweep"]
    capsys.readouterr()


#: SCHEMES_LIST of the whole catalog: its artifact and stdout, line for line.
SCHEMES_LIST_CSV = [
    '# unisplit version 0.1.0',
    '# config hash a6479624e75304da',
    'name,kind,order,stages,delta_a,delta_b',
    'S31,BAB,3,2,1.1547005383792515,1.0773502691896257',
    'S32,BAB,3,3,1,1.172065202060359',
    'S4,BAB,4,3,1.316496580927726,1.2247448713915889',
    'strang,ABA,2,1,1,1',
    'triple_jump4,ABA,4,3,1.7024143839193155,4.4048287678386311',
    'NB5s4,BAB,4,5,1,1.1413392058765068',
    'NB6s4,BAB,4,6,1,1.4161790674688741',
    'NB8s5,BAB,5,8,1.0000000000000002,1.4819645839418023',
    'NB9s5,BAB,5,9,1.0000000000000002,1.6176193168100259',
    'NA11s6,ABA,6,11,1,2.0919527229978292',
    'NB11s6,BAB,6,11,1,1.5952663320582583',
    'B3s3,BAB,3,3,1,1.7659427214961652',
    'B5s4,BAB,4,5,1,1.1460207684198416',
    'B15s6,BAB,6,15,1,1.3271192313539164',
]
SCHEMES_LIST_STDOUT = [
    'name          kind  order  stages  Δa        Δb        ',
    'S31           BAB   3      2       1.1547    1.0774    ',
    'S32           BAB   3      3       1.0000    1.1721    ',
    'S4            BAB   4      3       1.3165    1.2247    ',
    'strang        ABA   2      1       1.0000    1.0000    ',
    'triple_jump4  ABA   4      3       1.7024    4.4048    ',
    'NB5s4         BAB   4      5       1.0000    1.1413    ',
    'NB6s4         BAB   4      6       1.0000    1.4162    ',
    'NB8s5         BAB   5      8       1.0000    1.4820    ',
    'NB9s5         BAB   5      9       1.0000    1.6176    ',
    'NA11s6        ABA   6      11      1.0000    2.0920    ',
    'NB11s6        BAB   6      11      1.0000    1.5953    ',
    'B3s3          BAB   3      3       1.0000    1.7659    ',
    'B5s4          BAB   4      5       1.0000    1.1460    ',
    'B15s6         BAB   6      15      1.0000    1.3271    ',
]

#: VALIDATE of the whole catalog; stdout prints each row's report.
VALIDATE_CSV = [
    '# unisplit version 0.1.0',
    '# config hash 48902ba1412c2433',
    'name,consistent,symmetric_conjugate,positive_real_parts',
    'S31,True,True,False',
    'S32,True,True,True',
    'S4,True,True,False',
    'strang,True,True,True',
    'triple_jump4,True,True,False',
    'NB5s4,True,True,True',
    'NB6s4,True,True,True',
    'NB8s5,True,True,True',
    'NB9s5,True,True,True',
    'NA11s6,True,True,True',
    'NB11s6,True,True,True',
    'B3s3,True,True,True',
    'B5s4,True,True,True',
    'B15s6,True,True,True',
]


def test_schemes_list_and_validate_are_pinned(tmp_path, capsys):
    """The full artifacts and stdout of both catalog listings, byte for byte."""
    assert cli.run({"experiment": "SCHEMES_LIST"}, out_dir=str(tmp_path)) == 0
    assert (tmp_path / "schemes_list.csv").read_bytes() == \
        ("\n".join(SCHEMES_LIST_CSV) + "\n").encode()
    assert capsys.readouterr().out == "\n".join(SCHEMES_LIST_STDOUT) + "\n"
    raw = {"experiment": "VALIDATE", "schemes": cli._SCHEME_NAMES}
    assert cli.run(raw, out_dir=str(tmp_path)) == 0
    assert (tmp_path / "validate.csv").read_bytes() == \
        ("\n".join(VALIDATE_CSV) + "\n").encode()
    assert capsys.readouterr().out == "".join(
        f"{name}: ValidationReport(consistent={c}, symmetric_conjugate={s}, "
        f"positive_real_parts={p})\n"
        for name, c, s, p in (row.split(",") for row in VALIDATE_CSV[3:]))


@pytest.mark.parametrize("raw, names, cfg_hash", [
    ({"experiment": "SCHEMES_LIST"}, ["schemes_list.csv"], "a6479624e75304da"),
    ({"experiment": "VALIDATE", "schemes": ["S31", "strang"]}, ["validate.csv"],
     "6e7aee12d32d47c5"),
    (cfg(schemes=["S31", "strang"], h_values=[0.1, 1.0]),
     ["dh_sweep_S31.csv", "dh_sweep_strang.csv"], "a8ae1c0ddcdf7c5f"),
    (conservation(),
     ["conservation_S31.csv", "conservation_pal2_b0.25_0.25.csv"], "8d4fe24d428a6afd"),
    ({"experiment": "EFFICIENCY", "schemes": ["strang", "S31"], "grid": {"n": 64},
      "h_values": [0.1], "t_final": 0.5},
     ["efficiency_S31.csv", "efficiency_strang.csv"], "2b4876b83ef71bca"),
    ({"experiment": "ORDER", "schemes": ["strang"], "h_values": [0.05, 0.1, 0.2]},
     ["order_strang.csv"], "c36791baf5721a42"),
    ({"experiment": "ORDER", "schemes": ["strang"], "grid": {"n": 64}},
     ["order_strang.csv"], "7ffdfba19a29d181"),
], ids=["schemes_list", "validate", "dh_sweep", "conservation", "efficiency",
        "order", "order_on_a_grid"])
def test_artifact_names_and_header(tmp_path, capsys, raw, names, cfg_hash):
    """Each experiment writes these files, each opening with the version and
    the config hash."""
    assert cli.run(raw, out_dir=str(tmp_path)) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / name).read_text().splitlines()[:2] == [
            f"# unisplit version {unisplit.__version__}", f"# config hash {cfg_hash}"]
    capsys.readouterr()


def test_csv_layout():
    s = experiments.DiagnosticSeries(abscissa="h", columns=("e",))
    s.add(0.5, {"e": 3.0})
    assert cli._csv("0123", [], (s.abscissa, *s.columns), s.rows) == (
        f"# unisplit version {unisplit.__version__}\n# config hash 0123\n"
        "h,e\n0.5,3\n")


def test_rkn_check_artifact_name_and_hash(tmp_path, capsys):
    assert cli.run({"experiment": "RKN_CHECK", "grid": {"n": 64}},
                   out_dir=str(tmp_path)) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["rkn_check.json"]
    doc = json.loads((tmp_path / "rkn_check.json").read_text())
    assert doc["config_hash"] == "507577a4f5de6326"
    capsys.readouterr()


def test_order_records_excluded_h_as_plain_floats(tmp_path, capsys):
    """On the default 64-point grid NB8s5's error at h = 0.02 is below the
    fit window; NB5s4 excludes nothing."""
    raw = {"experiment": "ORDER", "schemes": ["NB8s5", "NB5s4"], "grid": {"n": 64}}
    assert cli.run(raw, out_dir=str(tmp_path)) == 0
    assert (tmp_path / "order_NB8s5.csv").read_text().splitlines()[3] == \
        "# excluded h [0.02]"
    assert (tmp_path / "order_NB5s4.csv").read_text().splitlines()[3] == \
        "# excluded h []"
    capsys.readouterr()


def test_a_single_multiplicity_runs(tmp_path, capsys):
    """H = lam I is a member of MULTIPLE_EIGS_DIAG: DH_SWEEP runs on it, and
    ORDER ends in a numerical abort (every error is round-off), not a
    traceback."""
    matrix = {"class": "MULTIPLE_EIGS_DIAG", "n": 4, "multiplicities": [4]}
    assert cli.run(cfg(matrix=matrix), out_dir=str(tmp_path / "dh")) == 0
    assert (tmp_path / "dh" / "dh_sweep_S31.csv").exists()
    raw = {"experiment": "ORDER", "schemes": ["S31"], "matrix": matrix}
    assert cli.run(raw, out_dir=str(tmp_path / "order")) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical abort" and "fit window" in err["detail"]


def test_dh_sweep_records_overflowed_points(tmp_path, capsys):
    """S4's step matrix of the ARBITRARY draw overflows at h = 200: the run
    exits 0 without a numpy warning and its header names the point.  A sweep
    without failures writes no such line."""
    for hs, failed in (([0.5, 200.0], ["# failed h [200.0]"]), ([0.5, 2.0], [])):
        out = tmp_path / str(hs[-1])
        raw = cfg(schemes=["S4"], matrix={"class": "ARBITRARY"}, h_values=hs)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.run(raw, out_dir=str(out)) == 0
        lines = (out / "dh_sweep_S4.csv").read_text().splitlines()
        head = [line for line in lines if line.startswith("#")]
        assert head[3].startswith("# h_star ") and head[4:] == failed
        assert lines[len(head)] == "h,D_h"
        assert len(lines) - len(head) - 1 == len(hs) - len(failed)
    capsys.readouterr()


def test_unwritable_output_directory_is_exit_2(tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    assert cli.run({"experiment": "SCHEMES_LIST"}, out_dir=str(blocker)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "unwritable output"
    assert str(blocker) in err["detail"]


#: One small config of each form of ``cli._FIELDS``.
SMALL = {
    "SCHEMES_LIST": {"experiment": "SCHEMES_LIST", "schemes": ["S31"]},
    "VALIDATE": {"experiment": "VALIDATE", "schemes": ["S31"]},
    "DH_SWEEP": cfg(h_values=[0.1, 1.0]),
    "CONSERVATION": conservation(),
    "EFFICIENCY": {"experiment": "EFFICIENCY", "schemes": ["strang"], "grid": {"n": 64},
                   "h_values": [0.1], "t_final": 0.5},
    "ORDER": {"experiment": "ORDER", "schemes": ["strang"],
              "h_values": [0.05, 0.1, 0.2]},
    "ORDER on a grid": {"experiment": "ORDER", "schemes": ["strang"],
                        "grid": {"n": 64}},
    "RKN_CHECK": {"experiment": "RKN_CHECK", "grid": {"n": 64}},
}


class _Reads(dict):
    """A resolved config that records each key read from it."""

    def __init__(self, fields):
        super().__init__(fields)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("form", list(cli._FIELDS))
def test_every_resolved_field_is_read(tmp_path, capsys, monkeypatch, form):
    """The resolved config holds the fields of ``_COMMON`` and of its form,
    none of them None, and the run reads each one.  ``seed`` is folded into
    ``matrix``: a flag accepted and then ignored fails here."""
    resolved, resolve = [], cli._resolve

    def recording(raw):
        resolved.append(_Reads(resolve(raw)))
        return resolved[-1]

    monkeypatch.setattr(cli, "_resolve", recording)
    assert cli.run(SMALL[form], out_dir=str(tmp_path)) == 0
    (c,) = resolved
    expected = (set(cli._COMMON) | set(cli._FIELDS[form])) - {"seed"}
    assert set(c) == expected
    assert None not in c.values()
    assert c.read == expected
    capsys.readouterr()


@pytest.mark.parametrize("raw, names, digest", [
    ({"experiment": "DH_SWEEP", "schemes": ["S31", "S4"],
      "h_values": [0.05, 0.1, 0.2, 0.5, 1.0, 2.0]},
     ["dh_sweep_S31.csv", "dh_sweep_S4.csv"],
     "9a2fc0b8c2dcbe91888d24b3750beb7b80371470c89a62e483a5ea1a35cd5571"),
    ({"experiment": "ORDER", "schemes": ["S31", "B5s4"]},
     ["order_B5s4.csv", "order_S31.csv"],
     "a570c3332d6513428fbbb3952d509711f243705624ee4d9b070ea9c16e496bdf"),
    ({"experiment": "ORDER", "schemes": ["NB5s4"], "grid": {"n": 64}},
     ["order_NB5s4.csv"],
     "d55f97135e63a51ef2c4baa7e1887e94611de5681b9295e0f1b1082fd760087f"),
    ({"experiment": "CONSERVATION", "grid": {"n": 64}, "t_final": 20 * (100 / 909)},
     ["conservation_NB11s6.csv", "conservation_pal2_b0.25_0.25.csv"],
     "266237f7f537f41589451c5a2f0711661143f6778e31acef72c0bcae98ca5789"),
    ({"experiment": "EFFICIENCY", "schemes": ["strang", "NB5s4"], "grid": {"n": 64},
      "h_values": [0.05, 0.1, 0.2], "t_final": 1.0},
     ["efficiency_NB5s4.csv", "efficiency_strang.csv"],
     "9510ee6808d0aec0c120dc44820aa7c747679286e04e6d4bc5bf5b8751ba779b"),
    ({"experiment": "RKN_CHECK", "grid": {"n": 64}}, ["rkn_check.json"],
     "b7750f08c50885173eea3fe1e2a292bc0d59ffac442b9646cf01f00f07414264"),
], ids=["dh_sweep", "order", "order_on_a_grid", "conservation", "efficiency",
        "rkn_check"])
def test_small_configs_are_pinned(tmp_path, capsys, raw, names, digest):
    """The sha256 of each artifact's name and bytes, in name order, then of
    stdout.  The pins hold for the numpy/SciPy build they were taken on; a
    change of either may move the last bits of the numbers."""
    assert cli.run(raw, out_dir=str(tmp_path)) == 0
    paths = sorted(tmp_path.iterdir())
    assert [p.name for p in paths] == names
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == digest


def test_seed_of_2_64_minus_1_runs(tmp_path, capsys):
    """``--seed`` takes the whole uint64 range, and the header names it."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps(cfg(h_values=[0.1])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["dh_sweep", "--config", str(config), "--seed",
                         "18446744073709551615", "--out", str(tmp_path)]) == 0
    assert "# matrix class SYM_SIMPLE n=10 seed=18446744073709551615" in \
        (tmp_path / "dh_sweep_S31.csv").read_text().splitlines()
    capsys.readouterr()


@pytest.mark.parametrize("experiment", ["RKN_CHECK", "CONSERVATION", "EFFICIENCY"])
@pytest.mark.parametrize("grid, words", [
    ({"n": 8, "x_min": -1e308, "x_max": 1e308}, ["grid", "not finite"]),
    ({"n": 8, "x_min": 0, "x_max": 1e-320}, ["grid", "not finite"]),
    ({"n": 8, "alpha": 1e200}, ["potential", "well depth"]),
], ids=["length_inf", "wavenumbers_inf", "alpha_squared_overflows"])
def test_grid_beyond_the_float_range_is_a_config_error(tmp_path, capsys, experiment,
                                                       grid, words):
    """Each gave NaN or Infinity in RKN_CHECK's JSON, or a traceback, and
    CONSERVATION and EFFICIENCY wrote no samples with exit 0."""
    raw = {"experiment": experiment, "grid": grid}
    if experiment != "RKN_CHECK":
        raw.update(schemes=["strang"], h_values=[0.1], t_final=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = cli.run(raw, out_dir=str(tmp_path))
    _refused(tmp_path, capsys, status, *words)


def test_rkn_check_of_an_overflowing_well_is_a_numerical_abort(tmp_path, capsys):
    """A finite well deep enough that [B,[B,[B,A]]] u0 overflows: exit 3,
    and no JSON with NaN (not valid JSON) is written."""
    raw = {"experiment": "RKN_CHECK", "grid": {"n": 8, "lam_prod": 1e300}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(raw, out_dir=str(tmp_path)) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical abort" and "not finite" in err["detail"]
    assert not list(tmp_path.iterdir())


def test_rkn_check_runs_on_a_grid_whose_gaussian_squares_underflow(tmp_path, capsys):
    """On x in [30, 40] every |u0_j|^2 underflows, but u0 is not 0: its norm
    is taken after scaling by the peak 3.7e-196, and the run exits 0 (it
    exited 3, "underflows to norm 0.0", when the sum of squares was 0)."""
    raw = {"experiment": "RKN_CHECK", "grid": {"n": 64, "x_min": 30, "x_max": 40}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(raw, out_dir=str(tmp_path)) == 0
    payload = json.loads((tmp_path / "rkn_check.json").read_text())
    assert payload["u0_norm"] == pytest.approx(1.0, rel=1e-12)
    assert np.isfinite(payload["residual"])
    capsys.readouterr()


@pytest.mark.parametrize("experiment",
                         ["CONSERVATION", "EFFICIENCY", "ORDER", "RKN_CHECK"])
def test_initial_state_that_underflows_is_a_numerical_abort(tmp_path, capsys,
                                                            experiment):
    """On a valid grid far from x = 0, exp(-x^2/2) is 0 everywhere.  The
    first two exited 0 with no samples after a RuntimeWarning, ORDER named a
    state overflow and RKN_CHECK non-finite values."""
    raw = {"experiment": experiment, "grid": {"n": 64, "x_min": 1000, "x_max": 2000}}
    if experiment != "RKN_CHECK":
        raw.update(schemes=["strang"], h_values=[0.1])
    if experiment in ("CONSERVATION", "EFFICIENCY"):
        raw["t_final"] = 0.2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(raw, out_dir=str(tmp_path)) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "numerical abort", "detail": "initial state exp(-x^2/2) "
                   "underflows to norm 0.0 on x in [1000.0, 2000.0]"}
    assert not list(tmp_path.iterdir())


def test_a_matrix_class_never_drawn_is_a_numerical_abort(tmp_path, capsys, monkeypatch):
    """DH_SWEEP on a class whose 64 draws all fail the eigenvalue gap: exit 3,
    with ``generate``'s message, and nothing written."""
    monkeypatch.setattr(experiments, "_distinct_values", lambda rng, n: None)
    assert cli.run(cfg(matrix={"class": "REAL_SIMPLE_EIGS"}), out_dir=str(tmp_path)) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "numerical abort",
                   "detail": "could not draw a REAL_SIMPLE_EIGS spectrum in 64 attempts"}
    assert not list(tmp_path.iterdir())

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import unisplit
from unisplit import cli, experiments, spectral
from unisplit.cli import ConfigError, ExperimentConfig


def cfg(**kw):
    base = {"experiment": "DH_SWEEP", "schemes": ["S31"]}
    base.update(kw)
    return base


def conservation(**kw):
    base = {"experiment": "CONSERVATION", "schemes": ["S31"], "grid": {"n": 64},
            "h_values": [0.05], "n_steps": 10, "include_comparator": False}
    base.update(kw)
    return base


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
        c = ExperimentConfig.from_dict(cfg())
        assert c.experiment == "DH_SWEEP"
        assert c.schemes == ["S31"]

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            ExperimentConfig.from_dict(cfg(tolerance=1e-5))

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "FROBNICATE"})

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError, match="unknown scheme"):
            ExperimentConfig.from_dict(cfg(schemes=["S99"]))

    def test_scheme_list_required(self):
        with pytest.raises(ConfigError, match="non-empty scheme list"):
            ExperimentConfig.from_dict({"experiment": "ORDER"})

    def test_unknown_matrix_class(self):
        with pytest.raises(ConfigError, match="matrix class"):
            ExperimentConfig.from_dict(cfg(matrix={"class": "WAT"}))

    def test_h_range_expansion(self):
        c = ExperimentConfig.from_dict(
            cfg(h_range={"min": 0.1, "max": 1.0, "points": 5}))
        assert len(c.h_values) == 5
        assert c.h_values[0] == pytest.approx(0.1)
        assert c.h_values[-1] == pytest.approx(1.0)

    def test_negative_h_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(cfg(h_values=[0.1, -0.2]))


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
    raw = cfg(h_values=[0.1, 0.3, 1.0], matrix={"class": "SYM_SIMPLE", "seed": 3})
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
        "matrix": {"class": "SYM_SIMPLE", "seed": 0},
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
        "n_steps": 50,
        "include_comparator": True,
    }
    assert cli.run(raw, out_dir=str(tmp_path)) == 0
    assert (tmp_path / "conservation_S31.csv").exists()
    written = list(tmp_path.glob("conservation_pal2_*.csv"))
    assert len(written) == 1
    assert "# comparator: order-2 palindromic" in written[0].read_text()
    assert "# scheme: catalog entry" in (tmp_path / "conservation_S31.csv").read_text()
    capsys.readouterr()


@pytest.mark.parametrize("sample_every, raised", [(1, True), (3, False)])
def test_conservation_records_raised_sample_every(tmp_path, capsys,
                                                  sample_every, raised):
    """Runs are thinned to about 2000 samples, and the header says so."""
    raw = {
        "experiment": "CONSERVATION",
        "schemes": ["S31"],
        "grid": {"n": 64},
        "h_values": [0.05],
        "n_steps": 6000,
        "sample_every": sample_every,
        "include_comparator": False,
    }
    assert cli.run(raw, out_dir=str(tmp_path)) == 0
    lines = (tmp_path / "conservation_S31.csv").read_text().splitlines()
    assert ("# sample_every raised from 1 to 3" in lines) is raised
    rows = [line for line in lines if not line.startswith("#")]
    assert len(rows) == 1 + 2000
    capsys.readouterr()


def _conservation_lines(tmp_path, name):
    return (tmp_path / f"conservation_{name}.csv").read_text().splitlines()


def test_conservation_records_an_aborted_run(tmp_path, capsys):
    raw = {
        "experiment": "CONSERVATION",
        "schemes": ["strang"],
        "grid": {"n": 64},
        "h_values": [1.3],
        "n_steps": 100,
        "include_comparator": True,
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
        "n_steps": 10,
        "include_comparator": False,
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


@pytest.mark.parametrize("experiment, header", [
    ("EFFICIENCY", "# skipped h 1.3: state overflow"),
    ("CONSERVATION", "# aborted at step 1: state overflow"),
])
def test_overflowing_cell_raises_no_numpy_warning(tmp_path, capsys, experiment,
                                                  header):
    # S31's phases overflow at N = 512, h = 1.3; clear the phase cache so
    # that they are built, and would warn, inside this run
    raw = {
        "experiment": experiment,
        "schemes": ["S31"],
        "grid": {"n": 512},
        "h_values": [1.3],
        "t_final": 2.6,
    }
    spectral._factor_phases.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.run(raw, out_dir=str(tmp_path)) == 0
    lines = (tmp_path / f"{experiment.lower()}_S31.csv").read_text().splitlines()
    assert sum(line.startswith(header) for line in lines) == 1
    capsys.readouterr()


def test_main_entry_point(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"experiment": "SCHEMES_LIST"}))
    status = cli.main(["schemes_list", "--config", str(config),
                       "--out", str(tmp_path)])
    assert status == 0
    assert (tmp_path / "schemes_list.csv").exists()
    capsys.readouterr()


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
    (conservation(t_final=0.5), "t_final"),
    (conservation(threshold=1e-8), "threshold"),
    (conservation(matrix={"class": "SYM_SIMPLE"}), "matrix"),
    (conservation(seed=3), "seed"),
    (cfg(grid={"n": 64}), "grid"),
    (cfg(t_final=1.0), "t_final"),
    (cfg(sample_every=2), "sample_every"),
    (cfg(include_comparator=False), "include_comparator"),
    (cfg(h_values=[0.1, 1.0], h_range={"min": 0.1, "max": 1.0, "points": 4}),
     "h_range"),
    (cfg(seed=3, matrix={"class": "SYM_SIMPLE", "seed": 4}), "matrix.seed"),
    ({"experiment": "ORDER", "schemes": ["strang"], "grid": {"n": 64},
      "matrix": {"class": "SYM_SIMPLE"}}, "matrix"),
    ({"experiment": "RKN_CHECK", "grid": {"n": 64}, "schemes": ["S31"]}, "schemes"),
    (cfg(matrix={"class": "SYM_SIMPLE", "multiplicities": [5, 5]}), "multiplicities"),
    (conservation(include_comparator="no"), "include_comparator"),
], ids=["conservation_two_h", "n_steps_and_t_final", "conservation_threshold",
        "conservation_matrix", "conservation_seed", "dh_sweep_grid",
        "dh_sweep_t_final", "dh_sweep_sample_every", "dh_sweep_comparator",
        "h_values_and_h_range", "seed_and_matrix_seed", "order_grid_and_matrix",
        "rkn_check_schemes", "multiplicities_on_simple_class",
        "comparator_not_a_bool"])
def test_field_that_would_be_ignored_is_refused(tmp_path, capsys, raw, field):
    """Each config sets a field its experiment would not read, or would
    override with another; none of them runs."""
    _refused(tmp_path, capsys, cli.run(raw, out_dir=str(tmp_path)), field)


def test_main_refuses_a_seed_conservation_does_not_read(tmp_path, capsys):
    _refused(tmp_path, capsys,
             cli.main(["conservation", "--seed", "3", "--out", str(tmp_path)]), "seed")


@pytest.mark.parametrize("raw, words", [
    (cfg(matrix=5), ["matrix", "object"]),
    (cfg(h_range=5), ["h_range", "object"]),
    (cfg(schemes="S31"), ["schemes", "list"]),
    (cfg(schemes=["S31", "S4", "S31"]), ["schemes", "distinct"]),
    (cfg(seed=2.7), ["seed"]),
    (cfg(seed=True), ["seed"]),
    (cfg(matrix={"class": "SYM_SIMPLE", "n": 4.9}), ["matrix.n"]),
    (cfg(h_range={"min": 0.1, "max": 1.0, "points": 2.9}), ["h_range.points"]),
    (cfg(h_values=json.loads("[0.1, NaN]")), ["h_values"]),
    (cfg(h_values=json.loads("[0.1, Infinity]")), ["h_values"]),
    (cfg(matrix={"class": "MULTIPLE_EIGS_DIAG", "multiplicities": [5.5, 4.5]}),
     ["multiplicities"]),
    (cfg(threshold=json.loads("NaN")), ["threshold"]),
    (conservation(sample_every=0), ["sample_every"]),
    (conservation(sample_every=-2), ["sample_every"]),
], ids=["matrix_not_object", "h_range_not_object", "schemes_string", "schemes_repeated",
        "seed_float", "seed_bool", "matrix_n_float", "h_range_points_float",
        "h_nan", "h_infinity", "multiplicities_float", "threshold_nan",
        "sample_every_zero", "sample_every_negative"])
def test_value_of_the_wrong_kind_is_refused(tmp_path, capsys, raw, words):
    """No traceback, no truncation and no silent raise to 1."""
    _refused(tmp_path, capsys, cli.run(raw, out_dir=str(tmp_path)), *words)


def test_conservation_runs_on_the_table_defaults(tmp_path, capsys):
    """``unisplit conservation`` needs no scheme list: NB11s6 and the
    comparator at h = 100/909, here for 10 steps on a 64-point grid."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"grid": {"n": 64}, "n_steps": 10}))
    out = tmp_path / "out"
    assert cli.main(["conservation", "--config", str(config), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "conservation_NB11s6.csv", "conservation_pal2_b0.25_0.25.csv"]
    lines = (out / "conservation_NB11s6.csv").read_text().splitlines()
    assert f"# scheme NB11s6 h {100.0 / 909.0:.17g} n_steps 10" in lines
    assert "NB11s6: energy drift " in capsys.readouterr().out


def test_from_dict_resolves_the_table_defaults():
    c = ExperimentConfig.from_dict({"experiment": "CONSERVATION"})
    assert (c.schemes, c.h_values, c.t_final, c.n_steps) == \
        (["NB11s6"], [100.0 / 909.0], 1e4, 90900)
    assert (c.sample_every, c.include_comparator, c.output) == (1, True, ".")
    assert c.grid[0] == spectral.SpectralGrid(n=256)
    assert c.matrix is None and c.threshold is None
    d = ExperimentConfig.from_dict(cfg(seed=7))
    assert d.matrix == experiments.MatrixClassSpec(
        experiments.MatrixClass.SYM_SIMPLE, n=10, seed=7)
    assert d.grid is None and len(d.h_values) == 16


def test_run_builds_the_potential_once(tmp_path, capsys, monkeypatch):
    """The runner takes the grid and potential that ``from_dict`` built."""
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
                     "matrix": set(cli._MATRIX), "h_range": set(cli._H_RANGE)})
    assert rows == expected


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
    'NB6s4,BAB,4,6,1,1.4161790673952872',
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
    (conservation(include_comparator=True),
     ["conservation_S31.csv", "conservation_pal2_b0.25_0.25.csv"], "5d4704416db7eba7"),
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

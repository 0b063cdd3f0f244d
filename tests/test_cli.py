import json

import numpy as np
import pytest

from unisplit import cli
from unisplit.cli import ConfigError, ExperimentConfig


def cfg(**kw):
    base = {"experiment": "DH_SWEEP", "schemes": ["S31"]}
    base.update(kw)
    return base


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


def test_run_invalid_config_exit_code(capsys):
    status = cli.run({"experiment": "NOPE"})
    assert status == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid config"


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


def test_main_unreadable_config(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text("{not json")
    assert cli.main(["schemes_list", "--config", str(config)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "unreadable config"

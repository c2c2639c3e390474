"""Layered configuration parsing and validation."""

import pytest

from stomod import ConfigError
from stomod.config import _parse_grid, device_at, load_config


class TestGridParsing:
    def test_comma_list(self):
        assert _parse_grid("1, 2.5,4e6") == [1.0, 2.5, 4e6]

    def test_linear_range(self):
        assert _parse_grid("lin:0:1:5") == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_log_range(self):
        grid = _parse_grid("log:1:100:3")
        assert grid == pytest.approx([1.0, 10.0, 100.0])

    @pytest.mark.parametrize(
        "bad", ["", "lin:0:1", "lin:a:b:3", "log:-1:10:3", "1,two,3", "lin:0:1:0"]
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigError):
            _parse_grid(bad)


class TestLoadConfig:
    def test_defaults_load(self):
        cfg = load_config()
        assert set(cfg.op_xis) == {"OP1", "OP2", "OP3"}
        assert cfg.op_xis["OP2"] == 1.8
        assert cfg.method == "matrix"
        assert cfg.out_format == "csv"

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_user_file_overlays_defaults(self, tmp_path):
        p = tmp_path / "user.cfg"
        p.write_text("[solver]\nn_harmonics = 7\n")
        cfg = load_config(p)
        assert cfg.n_harmonics == 7
        assert cfg.method == "matrix"  # untouched default survives

    def test_override_wins_over_file(self, tmp_path):
        p = tmp_path / "user.cfg"
        p.write_text("[solver]\nn_harmonics = 7\n")
        cfg = load_config(p, ["solver.n_harmonics=9"])
        assert cfg.n_harmonics == 9

    @pytest.mark.parametrize("bad", ["no-equals", "nodot=3", "ghost-section.key=3"])
    def test_bad_override_rejected(self, bad):
        with pytest.raises(ConfigError):
            load_config(None, [bad])

    def test_hash_tracks_inputs(self, tmp_path):
        base = load_config()
        with_override = load_config(None, ["solver.n_harmonics=9"])
        assert base.config_hash != with_override.config_hash
        assert load_config().config_hash == base.config_hash

    @pytest.mark.parametrize(
        "override",
        [
            "operating-points.OP1=0.9",
            "solver.method=magic",
            "output.format=json",
            "solver.n_harmonics=0",
            "error-analysis.n_ref=5",
            "psd-map.beta1_grid=",
            "psd-map.f_m_hz=-1e6",
            "operating-point.xi_grid=0.5,1.5",
            "bandwidth.seed_mu=0",
            "spectrum.j_max=0",
            "spectrum.k_max=9",
            "device.alpha=nan",
            "operating-points.OP2=inf",
            "psd-map.f_m_hz=inf",
            "asymmetry-map.beta1_grid=0.5,nan",
            "bandwidth.mu=-0.05",
        ],
    )
    def test_validation_rejects(self, override):
        with pytest.raises(ConfigError):
            load_config(None, [override])

    def test_device_at(self):
        cfg = load_config()
        assert device_at(cfg, "OP3").xi == 3.8
        with pytest.raises(ConfigError):
            device_at(cfg, "OP9")

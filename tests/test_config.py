"""Layered configuration parsing and validation."""

import configparser
from dataclasses import fields
from importlib import resources

import pytest

from stomod import ConfigError
from stomod.config import RunConfig, _parse_grid, device_at, load_config


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

    @pytest.mark.parametrize("kind", ["lin", "log"])
    def test_range_point_count_is_bounded(self, kind):
        # Refused before np.linspace/np.geomspace allocate 10**12 points.
        assert len(_parse_grid(f"{kind}:1:2:10000")) == 10_000
        with pytest.raises(ConfigError, match="must have 1 to 10000 points"):
            _parse_grid(f"{kind}:1:2:10001")
        with pytest.raises(ConfigError, match="must have 1 to 10000 points"):
            _parse_grid(f"{kind}:1:2:1000000000000")


class TestLoadConfig:
    def test_defaults_load(self):
        cfg = load_config()
        assert set(cfg.op_xis) == {"OP1", "OP2", "OP3"}
        assert cfg.op_xis["OP2"] == 1.8

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_user_file_overlays_defaults(self, tmp_path):
        p = tmp_path / "user.cfg"
        p.write_text("[solver]\nn_harmonics = 7\n")
        cfg = load_config(p)
        assert cfg.n_harmonics == 7
        assert cfg.j_max == 10  # untouched default survives

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
            "solver.method=matrix",
            "output.format=json",
            "solver.n_harmonics=0",
            "error-analysis.n_ref=5",
            "psd-map.beta1_grid=",
            "psd-map.f_m_hz=-1e6",
            "operating-point.xi_grid=0.5,1.5",
            "spectrum.j_max=0",
            "spectrum.k_max=9",
            "device.alpha=nan",
            "operating-points.OP2=inf",
            "psd-map.f_m_hz=inf",
            "asymmetry-map.beta1_grid=0.5,nan",
            "bandwidth.mu=-0.05",
            "solver.n_harmonic=5",
            "psd-map.beta1_grid=0.5,-0.5",
            "asymmetry-map.beta1_grid=-0.25",
            "error-analysis.recursive_beta1_grid=-1.0",
            "error-analysis.n_values=",
            "error-analysis.n_values=0",
            "error-analysis.recursive_n_values=0",
            "error-analysis.recursive_n_values=",
            "device.nu=5%",
            "psd-map.f_m_hz=1e308",
        ],
    )
    def test_validation_rejects(self, override):
        with pytest.raises(ConfigError):
            load_config(None, [override])

    @pytest.mark.parametrize(
        "text",
        ["[solvr]\nn_harmonics = 7\n", "[solver]\nn_harmonic = 7\n", "[DEFAULT]\nnu = 3\n"],
    )
    def test_user_file_unknown_section_or_key_rejected(self, tmp_path, text):
        p = tmp_path / "user.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError):
            load_config(p)

    def test_user_file_may_add_operating_point(self, tmp_path):
        p = tmp_path / "user.cfg"
        p.write_text("[operating-points]\nOP4 = 2.5\n")
        assert load_config(p).op_xis["OP4"] == 2.5

    def test_device_at(self):
        cfg = load_config()
        assert device_at(cfg, "OP3").xi == 3.8
        with pytest.raises(ConfigError):
            device_at(cfg, "OP9")

    def test_declared_keys_are_read_before_cross_key_rules(self):
        # Every declared key, [device] ones included, is read and range-checked
        # before the saturation rule and the operating-point labels and xis.
        with pytest.raises(ConfigError, match=r"^solver\.n_harmonics: 0 must be in"):
            load_config(None, ["solver.n_harmonics=0", "operating-points.OP1=0.5"])
        with pytest.raises(ConfigError, match=r"^device\.mu0_h_app_t: 0\.5 must exceed"):
            load_config(None, ["device.mu0_h_app_t=0.5", "operating-points.OP1=0.5"])


def test_default_cfg_keys_match_declarations():
    # Every key outside [operating-points] is read by exactly one declaration,
    # and every declared key exists: no key does nothing, none is missing.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    parser.read_string(resources.files("stomod.data").joinpath("default.cfg").read_text())
    cfg_keys = {
        f"{section}.{key}"
        for section in parser.sections()
        if section != "operating-points"
        for key in parser[section]
    }
    declared = [f.metadata["key"] for f in fields(RunConfig) if f.metadata]
    assert len(declared) == len(set(declared))
    assert set(declared) == cfg_keys

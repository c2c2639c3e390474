"""Run configuration: layered key=value files with CLI overrides.

The packaged default config always loads first; a user file overlays it;
``--set section.key=value`` flags win over both.  Grids are written either
as comma lists or as ``lin:start:stop:n`` / ``log:start:stop:n`` ranges.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import DeviceParams


def _parse_grid(text: str) -> list[float]:
    text = text.strip()
    if not text:
        raise ConfigError("empty grid specification")
    if text.startswith(("lin:", "log:")):
        kind, rest = text.split(":", 1)
        try:
            start, stop, num = rest.split(":")
            start, stop, num = float(start), float(stop), int(num)
        except ValueError as exc:
            raise ConfigError(f"bad grid range {text!r}") from exc
        if num < 1:
            raise ConfigError(f"grid {text!r} must have at least one point")
        if kind == "lin":
            return [float(v) for v in np.linspace(start, stop, num)]
        if start <= 0.0 or stop <= 0.0:
            raise ConfigError(f"log grid {text!r} requires positive endpoints")
        return [float(v) for v in np.geomspace(start, stop, num)]
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid list {text!r}") from exc


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Fully validated configuration for the sweep commands."""

    device: DeviceParams  # xi field unused; per-OP xi below
    op_xis: dict[str, float]
    n_harmonics: int
    method: str
    j_max: int
    k_max: int
    dispersion_xi_grid: list[float]
    psd_beta1_grid: list[float]
    psd_f_m_hz: float
    asym_beta1_grid: list[float]
    asym_f_m_grid_hz: list[float]
    asym_slice_f_m_hz: float
    bw_mu: float
    bw_f_m_grid_hz: list[float]
    bw_seed_mu: float
    bw_seed_corner_fraction: float
    err_mu: float
    err_f_m_grid_hz: list[float]
    err_n_values: list[int]
    err_n_ref: int
    err_recursive_beta1_grid: list[float]
    err_recursive_n_values: list[int]
    err_recursive_f_m_hz: float
    config_hash: str


def _load_parser(path: Path | None, overrides: list[str]) -> tuple[configparser.ConfigParser, str]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str  # keep OP labels case-sensitive
    default_text = resources.files("stomod.data").joinpath("default.cfg").read_text()
    parser.read_string(default_text)
    known = {section: set(parser[section]) for section in parser.sections()}
    hash_parts = [default_text]
    if path is not None:
        if not Path(path).is_file():
            raise ConfigError(f"config file not found: {path}")
        user_text = Path(path).read_text()
        try:
            parser.read_string(user_text)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        hash_parts.append(user_text)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        key_path, value = item.split("=", 1)
        section, key = key_path.split(".", 1)
        parser.read_dict({section: {key: value}})
        hash_parts.append(item)
    if parser.defaults():
        raise ConfigError("unknown config section 'DEFAULT'")
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown config section {section!r}")
        # Operating-point keys are free labels; every other key must be a default one.
        unknown = set(parser[section]) - known[section]
        if unknown and section != "operating-points":
            raise ConfigError(f"unknown config key {section}.{min(unknown)}")
    digest = hashlib.sha256("\n".join(hash_parts).encode()).hexdigest()[:16]
    return parser, digest


def load_config(path: str | Path | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Load, overlay and validate the configuration."""
    parser, digest = _load_parser(Path(path) if path else None, overrides or [])
    try:
        dev_sec = parser["device"]
        device = DeviceParams(
            mu0_h_app=dev_sec.getfloat("mu0_h_app_t"),
            mu0_ms=dev_sec.getfloat("mu0_ms_t"),
            gamma=dev_sec.getfloat("gamma_hz_per_t"),
            alpha=dev_sec.getfloat("alpha"),
            nu=dev_sec.getfloat("nu"),
            xi=2.0,  # placeholder; per-OP xi is set per command
        )
        op_xis = {label: float(v) for label, v in parser["operating-points"].items()}
        cfg = RunConfig(
            device=device,
            op_xis=op_xis,
            n_harmonics=parser["solver"].getint("n_harmonics"),
            method=parser["solver"].get("method"),
            j_max=parser["spectrum"].getint("j_max"),
            k_max=parser["spectrum"].getint("k_max"),
            dispersion_xi_grid=_parse_grid(parser["operating-point"]["xi_grid"]),
            psd_beta1_grid=_parse_grid(parser["psd-map"]["beta1_grid"]),
            psd_f_m_hz=parser["psd-map"].getfloat("f_m_hz"),
            asym_beta1_grid=_parse_grid(parser["asymmetry-map"]["beta1_grid"]),
            asym_f_m_grid_hz=_parse_grid(parser["asymmetry-map"]["f_m_grid_hz"]),
            asym_slice_f_m_hz=parser["asymmetry-map"].getfloat("slice_f_m_hz"),
            bw_mu=parser["bandwidth"].getfloat("mu"),
            bw_f_m_grid_hz=_parse_grid(parser["bandwidth"]["f_m_grid_hz"]),
            bw_seed_mu=parser["bandwidth"].getfloat("seed_mu"),
            bw_seed_corner_fraction=parser["bandwidth"].getfloat("seed_corner_fraction"),
            err_mu=parser["error-analysis"].getfloat("mu"),
            err_f_m_grid_hz=_parse_grid(parser["error-analysis"]["f_m_grid_hz"]),
            err_n_values=_parse_int_list(parser["error-analysis"]["n_values"]),
            err_n_ref=parser["error-analysis"].getint("n_ref"),
            err_recursive_beta1_grid=_parse_grid(
                parser["error-analysis"]["recursive_beta1_grid"]
            ),
            err_recursive_n_values=_parse_int_list(
                parser["error-analysis"]["recursive_n_values"]
            ),
            err_recursive_f_m_hz=parser["error-analysis"].getfloat("recursive_f_m_hz"),
            config_hash=digest,
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if not cfg.op_xis:
        raise ConfigError("no operating points configured")
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, dict):
            value = list(value.values())
        for number in value if isinstance(value, list) else [value]:
            if isinstance(number, float) and not math.isfinite(number):
                raise ConfigError(f"{f.name} must be finite, got {number}")
    for label, xi in cfg.op_xis.items():
        if xi <= 1.0:
            raise ConfigError(f"operating point {label}: xi={xi} must exceed 1")
    if cfg.method not in ("matrix", "recursive"):
        raise ConfigError(f"unknown solver method {cfg.method!r}")
    if cfg.n_harmonics < 1:
        raise ConfigError("solver.n_harmonics must be >= 1")
    if cfg.j_max < 1:
        raise ConfigError("spectrum.j_max must be >= 1")
    if cfg.k_max < cfg.n_harmonics:
        raise ConfigError("spectrum.k_max must be >= solver.n_harmonics")
    if cfg.bw_mu < 0.0 or cfg.err_mu < 0.0:
        raise ConfigError("bandwidth.mu and error-analysis.mu must be >= 0")
    for name in (
        "dispersion_xi_grid",
        "psd_beta1_grid",
        "asym_beta1_grid",
        "asym_f_m_grid_hz",
        "bw_f_m_grid_hz",
        "err_f_m_grid_hz",
        "err_n_values",
        "err_recursive_beta1_grid",
        "err_recursive_n_values",
    ):
        if not getattr(cfg, name):
            raise ConfigError(f"{name} is empty")
    if min(cfg.err_n_values + cfg.err_recursive_n_values) < 1:
        raise ConfigError("error-analysis n_values and recursive_n_values must be >= 1")
    if cfg.err_n_ref <= max(cfg.err_n_values):
        raise ConfigError("error-analysis.n_ref must exceed every n_values entry")
    if min(cfg.psd_beta1_grid + cfg.asym_beta1_grid + cfg.err_recursive_beta1_grid) < 0.0:
        raise ConfigError("beta1 grids must not hold negative values")
    for xi in cfg.dispersion_xi_grid:
        if xi < 1.0:
            raise ConfigError(f"dispersion grid xi={xi} is below threshold")
    for f in cfg.asym_f_m_grid_hz + cfg.bw_f_m_grid_hz + cfg.err_f_m_grid_hz + [
        cfg.psd_f_m_hz,
        cfg.asym_slice_f_m_hz,
        cfg.err_recursive_f_m_hz,
    ]:
        if not 0.0 < 2.0 * math.pi * f < math.inf:
            raise ConfigError(f"modulation frequency {f} Hz must be positive and finite in rad/s")
    if not 0.0 < cfg.bw_seed_mu < 1.0:
        raise ConfigError("bandwidth.seed_mu must be in (0, 1)")
    if not 0.0 < cfg.bw_seed_corner_fraction <= 0.5:
        raise ConfigError("bandwidth.seed_corner_fraction must be in (0, 0.5]")


def device_at(cfg: RunConfig, label: str) -> DeviceParams:
    """Device parameters with the supercriticality of the given OP label."""
    from dataclasses import replace

    if label not in cfg.op_xis:
        raise ConfigError(f"unknown operating point label {label!r}")
    return replace(cfg.device, xi=cfg.op_xis[label])

"""Run configuration: layered key=value files with CLI overrides.

The packaged default config always loads first; a user file overlays it;
``--set section.key=value`` flags win over both.  Grids are written either
as comma lists or as ``lin:start:stop:n`` / ``log:start:stop:n`` ranges.

Each key is declared once, on the ``RunConfig`` field it fills: the field's
type selects the parser, and the declaration carries the range each value
must lie in.  Every error names the ``section.key`` at fault.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import TWO_PI, DeviceParams


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
        if not 1 <= num <= _MAX_DEPTH:
            raise ConfigError(f"grid {text!r} must have 1 to {_MAX_DEPTH} points")
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


# Parser for each field annotation (a string under postponed evaluation).
_PARSERS = {
    "int": int,
    "float": float,
    "list[float]": _parse_grid,
    "list[int]": _parse_int_list,
}


def _key(key: str, ok: Callable | None = None, rule: str = ""):
    """Declare the ``section.key`` a field is read from; each value must pass ``ok``."""
    return field(metadata={"key": key, "ok": ok, "rule": rule})


# Expansion orders, spectrum depths and grid-range point counts: a value past
# 10**4 is refused before any array of that size is allocated.  That bounds
# memory, not time: each link of a spectrum's convolution chain is
# (2*k_max + 1)**2 work, so a row costs about N*k_max**2.  Cold on 2 vCPU,
# psd-map with beta1_grid=1 (three spectra) took 2.8 s at k_max=10000 against
# 0.23 s at 2000.
_MAX_DEPTH = 10_000
_DEPTH = (lambda n: 1 <= n <= _MAX_DEPTH, f"must be in [1, {_MAX_DEPTH}]")
_ABOVE_THRESHOLD = (lambda xi: xi > 1.0, "must exceed 1")
_NON_NEGATIVE = (lambda x: x >= 0.0, "must be >= 0")
_POSITIVE = (lambda x: x > 0.0, "must be > 0")
_F_M = (lambda f: 0.0 < TWO_PI * f < math.inf, "Hz must be positive and finite in rad/s")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated configuration for the sweep commands."""

    mu0_h_app: float = _key("device.mu0_h_app_t")
    mu0_ms: float = _key("device.mu0_ms_t")
    gamma: float = _key("device.gamma_hz_per_t", *_POSITIVE)
    alpha: float = _key("device.alpha", *_POSITIVE)
    nu: float = _key("device.nu")
    op_xis: dict[str, float]  # every label under [operating-points]
    n_harmonics: int = _key("solver.n_harmonics", *_DEPTH)
    j_max: int = _key("spectrum.j_max", *_DEPTH)
    k_max: int = _key("spectrum.k_max", *_DEPTH)
    dispersion_xi_grid: list[float] = _key(
        "operating-point.xi_grid", lambda xi: xi >= 1.0, "is below threshold (xi >= 1)"
    )
    psd_beta1_grid: list[float] = _key("psd-map.beta1_grid", *_NON_NEGATIVE)
    psd_f_m_hz: float = _key("psd-map.f_m_hz", *_F_M)
    asym_beta1_grid: list[float] = _key("asymmetry-map.beta1_grid", *_NON_NEGATIVE)
    asym_f_m_grid_hz: list[float] = _key("asymmetry-map.f_m_grid_hz", *_F_M)
    asym_slice_f_m_hz: float = _key("asymmetry-map.slice_f_m_hz", *_F_M)
    bw_mu: float = _key("bandwidth.mu", *_NON_NEGATIVE)
    bw_f_m_grid_hz: list[float] = _key("bandwidth.f_m_grid_hz", *_F_M)
    err_mu: float = _key("error-analysis.mu", *_NON_NEGATIVE)
    err_f_m_grid_hz: list[float] = _key("error-analysis.f_m_grid_hz", *_F_M)
    err_n_values: list[int] = _key("error-analysis.n_values", *_DEPTH)
    err_n_ref: int = _key("error-analysis.n_ref", *_DEPTH)
    err_recursive_beta1_grid: list[float] = _key(
        "error-analysis.recursive_beta1_grid", *_NON_NEGATIVE
    )
    err_recursive_n_values: list[int] = _key("error-analysis.recursive_n_values", *_DEPTH)
    err_recursive_f_m_hz: float = _key("error-analysis.recursive_f_m_hz", *_F_M)
    config_hash: str

    def device(self, xi: float) -> DeviceParams:
        """The device parameters at supercriticality xi."""
        return DeviceParams(self.mu0_h_app, self.mu0_ms, self.gamma, self.alpha, self.nu, xi)


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
        try:
            user_text = Path(path).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        try:
            parser.read_string(user_text, source=str(path))
        except configparser.Error as exc:
            # configparser's messages run over several lines; the CLI prints one.
            message = " ".join(line.strip() for line in str(exc).splitlines())
            raise ConfigError(f"cannot parse {path}: {message}") from exc
        hash_parts.append(user_text)
    for item in overrides:
        if any("\ud800" <= c <= "\udfff" for c in item):  # argv bytes the locale could not decode
            raise ConfigError(f"override {item!r} does not decode in the locale's encoding")
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


def _read(parser: configparser.ConfigParser, kind: str, key: str,
          ok: Callable | None = None, rule: str = ""):
    """Parse ``section.key`` as the annotation ``kind``; every error names the key."""
    section, name = key.split(".", 1)
    try:
        value = _PARSERS[kind](parser[section][name])
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    values = value if isinstance(value, list) else [value]
    if not values:
        raise ConfigError(f"{key}: no values given")
    for v in values:
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigError(f"{key}: {v!r} is not finite")
        if ok is not None and not ok(v):
            raise ConfigError(f"{key}: {v!r} {rule}")
    return value


def load_config(path: str | Path | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Load, overlay and validate the configuration."""
    parser, digest = _load_parser(Path(path) if path else None, overrides or [])
    keyed = {f.name: _read(parser, f.type, **f.metadata) for f in fields(RunConfig) if f.metadata}
    if keyed["mu0_h_app"] <= keyed["mu0_ms"]:
        raise ConfigError(
            f"device.mu0_h_app_t: {keyed['mu0_h_app']!r} must exceed "
            f"device.mu0_ms_t = {keyed['mu0_ms']!r} (perpendicular saturated regime)"
        )
    for label in parser["operating-points"]:
        if label.startswith("#") or any(c in label for c in ',"\r\n'):
            raise ConfigError(
                f"{'operating-points.' + label!r}: a label may not start with '#' or hold "
                "a comma, a double quote, CR or LF, as a CSV row could not hold it"
            )
    op_xis = {
        label: _read(parser, "float", f"operating-points.{label}", *_ABOVE_THRESHOLD)
        for label in parser["operating-points"]
    }
    cfg = RunConfig(op_xis=op_xis, config_hash=digest, **keyed)
    if cfg.k_max < cfg.n_harmonics:
        raise ConfigError("spectrum.k_max must be >= solver.n_harmonics")
    if cfg.err_n_ref <= max(cfg.err_n_values):
        raise ConfigError("error-analysis.n_ref must exceed every error-analysis.n_values entry")
    return cfg


def device_at(cfg: RunConfig, label: str) -> DeviceParams:
    """Device parameters with the supercriticality of the given OP label."""
    if label not in cfg.op_xis:
        raise ConfigError(f"unknown operating point label {label!r}")
    return cfg.device(cfg.op_xis[label])

"""Command-line front end: sweep commands writing deterministic CSV tables.

Exit codes: 0 success, 2 configuration error, 3 numerical error.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__, sweeps
from .config import load_config
from .errors import ConfigError, NumericalError, StomodError


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.11e}"
    return str(value)


def write_csv(path: Path, header: list[str], rows, meta: list[tuple[str, str]]) -> None:
    """Write a table atomically: metadata comments, header, fixed-format rows."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="\n") as fh:
        for key, value in meta:
            fh.write(f"# {key}: {value}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    os.replace(tmp, path)


def common_options(func):
    @click.option("--config", "config_path", type=click.Path(), default=None,
                  help="Key=value config file overlaying the built-in defaults.")
    @click.option("--set", "overrides", multiple=True, metavar="SECTION.KEY=VALUE",
                  help="Override a single config value (repeatable; wins over files).")
    @click.option("--out", "out_dir", type=click.Path(file_okay=False), default="results",
                  show_default=True, help="Output directory for CSV tables.")
    @click.option("--format", "out_format", default=None,
                  help="Output format (csv).")
    @click.option("--jobs", type=int, default=1, show_default=True,
                  help="Worker threads for grid evaluation.")
    @click.option("--op-label", default=None,
                  help="Restrict to a single operating-point label.")
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        return func(*args, **kwargs)

    return wrapper


def _run(table_func, config_path, overrides, out_dir, out_format, jobs, op_label, command):
    try:
        override_list = list(overrides)
        if out_format is not None:
            override_list.append(f"output.format={out_format}")
        cfg = load_config(config_path, override_list)
        tables = table_func(cfg, op_filter=op_label, jobs=max(1, jobs))
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except (NumericalError, StomodError, FloatingPointError) as exc:
        click.echo(f"numerical error: {exc}", err=True)
        sys.exit(3)
    for stem, (_, rows) in tables.items():
        if not rows or not all(math.isfinite(v) for r in rows for v in r if isinstance(v, float)):
            click.echo(f"numerical error: table {stem} is empty or not finite", err=True)
            sys.exit(3)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = [
        ("stomod-version", __version__),
        ("command", command),
        ("config-hash", cfg.config_hash),
    ]
    for stem, (header, rows) in tables.items():
        write_csv(out / f"{stem}.csv", header, rows, meta)
        click.echo(f"wrote {out / (stem + '.csv')} ({len(rows)} rows)")


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Modulated spin-torque oscillator spectra: sweeps and tables."""


@main.command("operating-point")
@common_options
def cmd_operating_point(config_path, overrides, out_dir, out_format, jobs, op_label):
    """Frequency dispersion and derived constants over the xi grid."""
    _run(sweeps.operating_point_table, config_path, overrides, out_dir, out_format,
         jobs, op_label, "operating-point")


@main.command("psd-map")
@common_options
def cmd_psd_map(config_path, overrides, out_dir, out_format, jobs, op_label):
    """Line spectra vs beta_1 at fixed modulation frequency."""
    _run(sweeps.psd_map_table, config_path, overrides, out_dir, out_format,
         jobs, op_label, "psd-map")


@main.command("asymmetry-map")
@common_options
def cmd_asymmetry_map(config_path, overrides, out_dir, out_format, jobs, op_label):
    """Sideband power difference over the (beta_1, f_m) grid."""
    _run(sweeps.asymmetry_map_table, config_path, overrides, out_dir, out_format,
         jobs, op_label, "asymmetry-map")


@main.command("bandwidth")
@common_options
def cmd_bandwidth(config_path, overrides, out_dir, out_format, jobs, op_label):
    """Peak frequency deviation vs f_m and the measured bandwidth."""
    _run(sweeps.bandwidth_table, config_path, overrides, out_dir, out_format,
         jobs, op_label, "bandwidth")


@main.command("error-analysis")
@common_options
def cmd_error_analysis(config_path, overrides, out_dir, out_format, jobs, op_label):
    """Truncation error vs N and recursive-vs-matrix comparison."""
    _run(sweeps.error_analysis_table, config_path, overrides, out_dir, out_format,
         jobs, op_label, "error-analysis")


if __name__ == "__main__":
    main()

"""Command-line front end: sweep commands writing deterministic CSV tables.

Exit codes: 0 success, 2 configuration error (an unreadable config file and
an unwritable output directory included), 3 numerical error.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from collections import Counter
from pathlib import Path

import click
import numpy as np

from . import __version__, sweeps
from .config import load_config
from .errors import ConfigError, StomodError

COMMANDS = ("operating-point", "psd-map", "asymmetry-map", "bandwidth", "error-analysis")


def _table_func(command: str):
    return getattr(sweeps, command.replace("-", "_") + "_table")


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.11e}"
    return str(value)


def write_csv(path: Path, header: list[str], rows, meta: list[tuple[str, str]]) -> None:
    """Write a table atomically: metadata comments, header, fixed-format rows."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            for key, value in meta:
                fh.write(f"# {key}: {value}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _run(command, config_path, overrides, out_dir, op_label):
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = load_config(config_path, list(overrides))
            # Looked up at call time, so a rebound sweeps function is the one run.
            tables = _table_func(command)(cfg, op_filter=op_label)
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except StomodError as exc:
        click.echo(f"numerical error: {exc}", err=True)
        sys.exit(3)
    finally:
        for message, count in Counter(str(w.message) for w in caught).items():
            click.echo(f"Warning: {message} ({count} times)", err=True)
    for stem, (_, rows) in tables.items():
        if not rows or not all(math.isfinite(v) for r in rows for v in r if isinstance(v, float)):
            click.echo(f"numerical error: table {stem} is empty or not finite", err=True)
            sys.exit(3)
    out = Path(out_dir)
    meta = [
        ("stomod-version", __version__),
        ("command", command),
        ("config-hash", cfg.config_hash),
    ]
    try:
        out.mkdir(parents=True, exist_ok=True)
        for stem, (header, rows) in tables.items():
            write_csv(out / f"{stem}.csv", header, rows, meta)
            click.echo(f"wrote {out / (stem + '.csv')} ({len(rows)} rows)")
    except OSError as exc:
        click.echo(f"error: cannot write {out}: {exc}", err=True)
        sys.exit(2)


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Modulated spin-torque oscillator spectra: sweeps and tables."""


for _command in COMMANDS:

    @main.command(_command, help=_table_func(_command).__doc__)
    @click.option("--config", "config_path", type=click.Path(), default=None,
                  help="Key=value config file overlaying the built-in defaults.")
    @click.option("--set", "overrides", multiple=True, metavar="SECTION.KEY=VALUE",
                  help="Override a single config value (repeatable; wins over files).")
    @click.option("--out", "out_dir", type=click.Path(file_okay=False), default="results",
                  show_default=True, help="Output directory for CSV tables.")
    @click.option("--op-label", default=None,
                  help="Restrict to a single operating-point label.")
    @click.pass_context
    def _cmd(ctx, config_path, overrides, out_dir, op_label):
        _run(ctx.info_name, config_path, overrides, out_dir, op_label)


if __name__ == "__main__":
    main()

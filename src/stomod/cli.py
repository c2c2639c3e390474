"""Command-line front end: sweep commands writing deterministic CSV tables.

Exit codes: 0 success, 2 usage or configuration error (an unreadable config
file and an unwritable output directory included), 3 numerical error.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import warnings
from collections import Counter
from pathlib import Path

from . import __version__, sweeps
from .config import load_config
from .errors import ConfigError, StomodError

COMMANDS = ("operating-point", "psd-map", "asymmetry-map", "bandwidth", "error-analysis")


def _table_func(command: str):
    return getattr(sweeps, command.replace("-", "_") + "_table")


def _fmt(value) -> str:
    return f"{value:.11e}" if isinstance(value, float) else str(value)


def write_csv(path: Path, header: list[str], rows, meta: list[tuple[str, str]]) -> None:
    """Write one table: metadata comments, header, fixed-format rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in meta:
            fh.write(f"# {key}: {value}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_tables(out: Path, tables: dict, meta: list[tuple[str, str]]) -> None:
    """Write all of a command's tables or none: each goes to its .tmp file
    first, and the renames start only once every .tmp is written and no
    target is a directory."""
    targets = [out / f"{stem}.csv" for stem in tables]
    tmps = []
    try:
        for path, (header, rows) in zip(targets, tables.values()):
            tmps.append(path.with_name(path.name + ".tmp"))
            write_csv(tmps[-1], header, rows, meta)
        for path in targets:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, "Is a directory", str(path))
        for tmp, path in zip(tmps, targets):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if not tmp.is_dir():  # a directory in the way is not ours to remove
                tmp.unlink(missing_ok=True)
        raise


def _unwritable(stem: str, header: list[str], rows) -> str | None:
    """Why a table may not be written: it is empty, or its first non-finite
    cell, named by column and by the row's values before it."""
    if not rows:
        return f"table {stem} is empty"
    for i, row in enumerate(rows, 1):
        for j, value in enumerate(row):
            if isinstance(value, float) and not math.isfinite(value):
                lead = ", ".join(f"{h} = {v}" for h, v in zip(header, row[:j])) or f"number {i}"
                return f"table {stem}, column {header[j]}: {value} is not finite in the row {lead}"
    return None


def _run(command, config_path, overrides, out_dir, op_label) -> int:
    """Run one command and return its exit code: 0, 2 or 3."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = load_config(config_path, list(overrides))
            # Looked up at call time, so a rebound sweeps function is the one run.
            tables = _table_func(command)(cfg, op_filter=op_label)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StomodError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    finally:
        for message, count in Counter(str(w.message) for w in caught).items():
            print(f"Warning: {message} ({count} times)", file=sys.stderr)
    for stem, (header, rows) in tables.items():
        fault = _unwritable(stem, header, rows)
        if fault:
            print(f"numerical error: {fault}", file=sys.stderr)
            return 3
    out = Path(out_dir)
    meta = [
        ("stomod-version", __version__),
        ("command", command),
        ("config-hash", cfg.config_hash),
    ]
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_tables(out, tables, meta)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    for stem, (_, rows) in tables.items():
        print(f"wrote {out / (stem + '.csv')} ({len(rows)} rows)")
    return 0


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it reports its unknown options with its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, unknown = super().parse_known_args(args, namespace)
        if unknown:
            self.error(f"unrecognized arguments: {' '.join(unknown)}")
        return namespace, unknown


def main(argv: list[str] | None = None, standalone_mode: bool = True) -> int:
    """Modulated spin-torque oscillator spectra: sweeps and tables."""
    shared = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    shared.add_argument("--config", help="Key=value config file overlaying the built-in defaults.")
    shared.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="Override a single config value (repeatable; wins over files).")
    shared.add_argument("--out", default="results", help="Output directory (default: %(default)s).")
    shared.add_argument("--op-label", help="Restrict to a single operating-point label.")
    parser = argparse.ArgumentParser(prog="stomod", allow_abbrev=False, description=main.__doc__)
    parser.add_argument("--version", action="version", version=f"stomod, version {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command in COMMANDS:
        doc = _table_func(command).__doc__
        commands.add_parser(command, parents=[shared], allow_abbrev=False, help=doc, description=doc)
    args = parser.parse_args(argv)
    code = _run(args.command, args.config, args.set, args.out, args.op_label)
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Compare the default tables of two checkouts of stomod, row by row.

    python tools/compare_tables.py BASE_DIR HEAD_DIR

Runs each of the five CLI commands with the default config in each checkout
(its own src/ on PYTHONPATH) and prints, for every table, "identical" or how
many data rows differ.  It only reports: the exit status is 1 if a command
fails on either side, and 0 otherwise, whatever the tables hold.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("operating-point", "psd-map", "asymmetry-map", "bandwidth", "error-analysis")
RUN_CLI = "import sys; from stomod.cli import main; main(sys.argv[1:])"


def run_commands(checkout: Path, out: Path) -> list[str]:
    """Run every command of checkout, writing to out; return the failures."""
    src = checkout.resolve() / "src"
    if not (src / "stomod").is_dir():  # an installed stomod would stand in for it
        return [f"{checkout}: no src/stomod"]
    env = dict(os.environ, PYTHONPATH=str(src))
    failures = []
    for command in COMMANDS:
        proc = subprocess.run([sys.executable, "-c", RUN_CLI, command, "--out", str(out)],
                              env=env, cwd=out.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            failures.append(f"{checkout}: {command} exited {proc.returncode}\n{proc.stderr}")
    return failures


def _split(data: bytes) -> tuple[list[str], list[str]]:
    """Metadata ('#') lines and the column header, then the data rows."""
    lines = data.decode().splitlines()
    top = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines)) + 1
    return lines[:top], lines[top:]


def compare(base: Path, head: Path) -> str:
    """'identical', or how many data rows (and whether the header lines) differ."""
    if not base.exists() or not head.exists():
        return f"only in {'head' if head.exists() else 'base'}"
    a, b = base.read_bytes(), head.read_bytes()
    if a == b:
        return "identical"
    (top_a, rows_a), (top_b, rows_b) = _split(a), _split(b)
    differ = sum(x != y for x, y in zip(rows_a, rows_b)) + abs(len(rows_a) - len(rows_b))
    note = "" if top_a == top_b else "; header lines differ"
    return f"{differ} of {max(len(rows_a), len(rows_b))} rows differ{note}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_tables.py BASE_DIR HEAD_DIR", file=sys.stderr)
        return 2
    checkouts = [Path(p) for p in argv]
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp, side, "out") for side in ("base", "head")]
        failures = []
        for checkout, out in zip(checkouts, outs):
            out.parent.mkdir()
            failures += run_commands(checkout, out)
        stems = sorted({p.name for out in outs if out.is_dir() for p in out.glob("*.csv")})
        for stem in stems:
            print(f"{stem}: {compare(outs[0] / stem, outs[1] / stem)}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Compare the default tables of two checkouts of stomod, row by row.

    python tools/compare_tables.py BASE_DIR HEAD_DIR

Runs each of the five CLI commands with the default config in each checkout
(its own src/ on PYTHONPATH) and prints, for every table, "identical" or how
many data rows differ, then, for every command, whether its stderr (the
warning lines and their counts) is identical.  Then it runs the arguments
of each error and warning case of tools/cli_cases.py on both sides and
prints each case's exit code and whether its stderr is identical.  It only
reports: the exit status is 1 if one of the five default commands fails on
either side, and 0 otherwise, whatever the tables, warnings and cases hold.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from cli_cases import CASES, TABLES

COMMANDS = tuple(TABLES)
RUN_CLI = "import sys; from stomod.cli import main; main(sys.argv[1:])"


def run_commands(
    checkout: Path, out: Path
) -> tuple[dict[str, str], dict[str, tuple[int, str]], list[str]]:
    """Run every command of checkout, writing to out, then every case, each
    writing to its own directory beside out.  Return each command's stderr,
    each case's exit code and stderr, and the failures of the commands."""
    src = checkout.resolve() / "src"
    if not (src / "stomod").is_dir():  # an installed stomod would stand in for it
        return {}, {}, [f"{checkout}: no src/stomod"]
    env = dict(os.environ, PYTHONPATH=str(src))

    def run(args, out_dir):
        return subprocess.run([sys.executable, "-c", RUN_CLI, *args, "--out", str(out_dir)],
                              env=env, cwd=out.parent, capture_output=True, text=True)

    stderr, failures = {}, []
    for command in COMMANDS:
        proc = run([command], out)
        stderr[command] = proc.stderr
        if proc.returncode != 0:
            failures.append(f"{checkout}: {command} exited {proc.returncode}\n{proc.stderr}")
    cases = {}
    for name, case in CASES.items():
        proc = run(case.argv.split(), out.parent / name)
        cases[name] = proc.returncode, proc.stderr
    return stderr, cases, failures


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
    note = "" if top_a == top_b else "; header lines differ"
    return _differ(rows_a, rows_b, "rows") + note


def compare_stderr(base: str, head: str) -> str:
    """'identical', or how many lines of a command's two stderr texts differ."""
    return "identical" if base == head else _differ(base.splitlines(), head.splitlines(), "lines")


def compare_case(base: tuple[int, str], head: tuple[int, str]) -> str:
    """A case's exit code, or both if they differ, and whether its stderr is identical."""
    (code_a, err_a), (code_b, err_b) = base, head
    code = f"exit {code_a}" if code_a == code_b else f"exit {code_a} on base, {code_b} on head"
    return f"{code}, stderr {compare_stderr(err_a, err_b)}"


def _differ(a: list[str], b: list[str], unit: str) -> str:
    """How many of the lines a and b differ, position by position."""
    differ = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    return f"{differ} of {max(len(a), len(b))} {unit} differ"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_tables.py BASE_DIR HEAD_DIR", file=sys.stderr)
        return 2
    checkouts = [Path(p) for p in argv]
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp, side, "out") for side in ("base", "head")]
        stderrs, cases, failures = [], [], []
        for checkout, out in zip(checkouts, outs):
            out.parent.mkdir()
            stderr, case, failed = run_commands(checkout, out)
            stderrs.append(stderr)
            cases.append(case)
            failures += failed
        stems = sorted({p.name for out in outs if out.is_dir() for p in out.glob("*.csv")})
        for stem in stems:
            print(f"{stem}: {compare(outs[0] / stem, outs[1] / stem)}")
    for command in COMMANDS:
        if all(command in stderr for stderr in stderrs):
            print(f"{command} stderr: {compare_stderr(*(s[command] for s in stderrs))}")
    for name in CASES:
        if all(name in case for case in cases):
            print(f"case {name}: {compare_case(*(c[name] for c in cases))}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

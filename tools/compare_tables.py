#!/usr/bin/env python3
"""Compare two checkouts of stomod run by run: every case of tools/cli_cases.py.

    python tools/compare_tables.py BASE_DIR HEAD_DIR

Runs the arguments of each case of tools/cli_cases.py (the five default runs
first) once in each checkout, its own src/ on PYTHONPATH, and prints each
case's exit code and whether its stderr (the refusal or the warning lines
and their counts) is identical; where it is not, the first line that
differs follows, from each side, so a changed count or text shows.  For a
case that exits 0 on both sides it then prints, for each table of its
command, "identical" or how many data rows differ.  It only reports: the exit status is 1 if a default run (a bare
command) does not exit 0 on either side, and 0 otherwise, whatever the
tables, warnings and other cases hold.
"""

from __future__ import annotations

import os
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from cli_cases import CASES, TABLES, run

RUN_CLI = "import sys; from stomod.cli import main; main(sys.argv[1:])"


def run_cases(checkout: Path, out: Path) -> tuple[dict[str, tuple[int, str]], list[str]]:
    """Run every case of checkout, each writing to its own directory in out.
    Return each case's exit code and stderr, and the failures of the default
    runs."""
    src = checkout.resolve() / "src"
    if not (src / "stomod").is_dir():  # an installed stomod would stand in for it
        return {}, [f"{checkout}: no src/stomod"]
    env = dict(os.environ, PYTHONPATH=str(src))
    cases, failures = {}, []
    for name, case, proc in run([sys.executable, "-c", RUN_CLI], CASES, out, env=env, cwd=out):
        cases[name] = proc.returncode, proc.stderr
        if case.argv in TABLES and proc.returncode != 0:
            failures.append(f"{checkout}: {name} exited {proc.returncode}\n{proc.stderr}")
    return cases, failures


def _split(data: bytes) -> tuple[list[str], list[str]]:
    """Metadata ('#') lines and the column header, then the data rows."""
    lines = data.decode().splitlines()
    top = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines)) + 1
    return lines[:top], lines[top:]


def compare(base: Path, head: Path) -> str:
    """'identical', or how many data rows (and whether the header lines) differ."""
    sides = [side for side, path in (("base", base), ("head", head)) if path.exists()]
    if len(sides) < 2:
        return f"only in {sides[0]}" if sides else "on neither side"
    a, b = base.read_bytes(), head.read_bytes()
    if a == b:
        return "identical"
    (top_a, rows_a), (top_b, rows_b) = _split(a), _split(b)
    note = "" if top_a == top_b else "; header lines differ"
    return _differ(rows_a, rows_b, "rows") + note


def compare_stderr(base: str, head: str) -> str:
    """'identical', or how many lines of a run's two stderr texts differ, then
    the first line that differs, one indented line per side ('(none)' where a
    side has no line there)."""
    if base == head:
        return "identical"
    a, b = base.splitlines(), head.splitlines()
    first = next((pair for pair in zip_longest(a, b) if pair[0] != pair[1]), (None, None))
    base_line, head_line = ("(none)" if line is None else line for line in first)
    return f"{_differ(a, b, 'lines')}\n  base: {base_line}\n  head: {head_line}"


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
    runs, failures = [], []
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp, side) for side in ("base", "head")]
        for checkout, out in zip(checkouts, outs):
            out.mkdir()
            cases, failed = run_cases(checkout, out)
            runs.append(cases)
            failures += failed
        for name, case in CASES.items():
            if not all(name in cases for cases in runs):
                continue
            base, head = (cases[name] for cases in runs)
            print(f"case {name}: {compare_case(base, head)}")
            if base[0] == head[0] == 0:
                for stem in TABLES.get(case.argv.split()[0], []):
                    print(f"  {stem}.csv: {compare(*(out / name / f'{stem}.csv' for out in outs))}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

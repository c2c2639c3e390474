#!/usr/bin/env python3
"""Count the code and docstring lines of each src/stomod module in one or
more checkouts.

    python tools/code_lines.py ROOT [ROOT ...]

A code line is a physical line that holds a token of Python code, by
`tokenize`: comments, blank lines and docstrings do not count.  A docstring
is a string literal that is a whole statement, and a docstring line is a
line it spans.  A token that spans lines (a multi-line string that is not a
docstring) counts every line it spans.  Prints two tables, code lines and
then docstring lines, each with one row per module and the total, one column
per ROOT, with "-" for a module that a ROOT does not have, so a design note
moved from prose into a docstring shows beside the code it describes.  It
only reports: it exits 0, or 2 when no ROOT is given or a ROOT has no
src/stomod/*.py to count (a missing checkout, or a path inside one), naming
each such ROOT, so that neither reads as 0 lines.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def count_lines(source: str) -> tuple[int, int]:
    """Numbers of code lines and of docstring lines in the Python source text."""
    code: set[int] = set()
    docs: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            # One logical line ends: it is a docstring if it is strings only.
            lines = docs if all(t.type == tokenize.STRING for t in statement) else code
            for t in statement:
                lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(code), len(docs)


def module_counts(root: Path) -> dict[str, tuple[int, int]]:
    """Code and docstring lines of each module of root/src/stomod, by file name."""
    return {path.name: count_lines(path.read_text(encoding="utf-8"))
            for path in sorted((root / "src" / "stomod").glob("*.py"))}


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/code_lines.py ROOT [ROOT ...]", file=sys.stderr)
        return 2
    counts = [module_counts(Path(root)) for root in argv]
    empty = [root for root, count in zip(argv, counts) if not count]
    for root in empty:
        print(f"{root}: no src/stomod/*.py to count", file=sys.stderr)
    if empty:
        return 2
    names = sorted(set().union(*counts))
    width = max(len(name) for name in names + ["total"])
    cols = [max(len(root), 6) for root in argv]
    for kind, title in enumerate(("code lines", "docstring lines")):
        print(("\n" if kind else "") + title)
        print(f"{'module':<{width}}", *(f"{root:>{c}}" for root, c in zip(argv, cols)))
        for name in names:
            print(f"{name:<{width}}", *(f"{count[name][kind] if name in count else '-':>{c}}"
                                        for count, c in zip(counts, cols)))
        print(f"{'total':<{width}}", *(f"{sum(n[kind] for n in count.values()):>{c}}"
                                       for count, c in zip(counts, cols)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

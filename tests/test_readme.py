"""README.md's examples run as written."""

import contextlib
import io
import math
import re
from pathlib import Path

from stomod.cli import COMMANDS

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(section: str, language: str) -> str:
    """The first fenced block in the given language under the section's heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"^```{language}\n(.*?)^```$", body, re.M | re.S).group(1)


def test_library_example_prints_finite_numbers():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("Library example", "python"), {})
    numbers = [float(word) for word in out.getvalue().split()]
    assert numbers and all(map(math.isfinite, numbers))


def test_cli_block_names_every_command_in_order():
    lines = _block("CLI", "sh").splitlines()
    assert [line.split()[1] for line in lines if line.startswith("stomod ")] == list(COMMANDS)

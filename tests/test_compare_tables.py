"""tools/compare_tables.py: the table-by-table report of two checkouts."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_tables.py"
_spec = importlib.util.spec_from_file_location("compare_tables", _PATH)
compare_tables = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_tables)

TABLE = "# stomod-version: 0.1.0\n# command: psd-map\na,b\n1,2\n3,4\n5,6\n"


@pytest.mark.parametrize("head, report", [
    (TABLE, "identical"),
    (TABLE.replace("3,4", "3,5"), "1 of 3 rows differ"),
    (TABLE + "7,8\n", "1 of 4 rows differ"),
    (TABLE.replace("psd-map", "bandwidth").replace("5,6", "5,7"),
     "1 of 3 rows differ; header lines differ"),
    (None, "only in base"),
], ids=["identical", "one row", "extra row", "header and row", "missing"])
def test_report(tmp_path, head, report):
    (tmp_path / "base.csv").write_text(TABLE)
    if head is not None:
        (tmp_path / "head.csv").write_text(head)
    assert compare_tables.compare(tmp_path / "base.csv", tmp_path / "head.csv") == report


WARNING = "Warning: omega_m is not small compared to omega_sto ({} times)\n"


@pytest.mark.parametrize("head, report", [
    (WARNING.format(3), "identical"),
    (WARNING.format(4), "1 of 1 lines differ"),
    ("", "1 of 1 lines differ"),
    (WARNING.format(3) + WARNING.format(1), "1 of 2 lines differ"),
], ids=["identical", "count", "missing", "extra"])
def test_stderr_report(head, report):
    assert compare_tables.compare_stderr(WARNING.format(3), head) == report


def test_stderr_is_reported_per_command(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(compare_tables, "CASES", {})  # reported by the test below
    # Two checkouts whose stomod.cli prints one warning line, with a count
    # that differs only for bandwidth on the head side.
    for side, count in (("base", 3), ("head", 4)):
        (tmp_path / side / "src" / "stomod").mkdir(parents=True)
        (tmp_path / side / "src" / "stomod" / "__init__.py").write_text("")
        (tmp_path / side / "src" / "stomod" / "cli.py").write_text(
            "import sys\n"
            "def main(argv):\n"
            "    n = " + str(count) + " if argv[0] == 'bandwidth' else 3\n"
            "    print(f'Warning: slow ({n} times)', file=sys.stderr)\n"
        )
    assert compare_tables.main([str(tmp_path / "base"), str(tmp_path / "head")]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == [
        f"{command} stderr: {'1 of 1 lines differ' if command == 'bandwidth' else 'identical'}"
        for command in compare_tables.COMMANDS
    ]


def test_cases_report_exit_and_stderr_without_failing_the_run(tmp_path, monkeypatch, capsys):
    # Both checkouts exit 2 on the option before the command; the bandwidth
    # case exits 0 with one warning at the base, and 3 with another at the
    # head.  Only the default commands set the status.  One command and two
    # cases keep the interpreter starts few.
    names = ("option-before-command", "bandwidth-bound-not-cleared")
    monkeypatch.setattr(compare_tables, "COMMANDS", ("psd-map",))
    monkeypatch.setattr(compare_tables, "CASES", {n: compare_tables.CASES[n] for n in names})
    for side, code, count in (("base", 0, 1), ("head", 3, 2)):
        (tmp_path / side / "src" / "stomod").mkdir(parents=True)
        (tmp_path / side / "src" / "stomod" / "__init__.py").write_text("")
        (tmp_path / side / "src" / "stomod" / "cli.py").write_text(
            "import sys\n"
            "def main(argv):\n"
            "    if argv[0] == '--foo':\n"
            "        sys.exit(2)\n"
            "    if argv[0] == 'bandwidth':\n"
            f"        print('Warning: slow ({count} times)', file=sys.stderr)\n"
            f"        sys.exit({code})\n"
        )
    assert compare_tables.main([str(tmp_path / "base"), str(tmp_path / "head")]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    reports = {
        "option-before-command": "exit 2, stderr identical",
        "bandwidth-bound-not-cleared": "exit 0 on base, 3 on head, stderr 1 of 1 lines differ",
    }
    assert out.splitlines() == ["psd-map stderr: identical",
                                *(f"case {name}: {reports[name]}" for name in names)]


def test_a_failing_command_fails_the_run(tmp_path, capsys):
    # The base's stomod has no cli module, so each command exits 1 there; the
    # head has no src/stomod at all.
    (tmp_path / "base" / "src" / "stomod").mkdir(parents=True)
    (tmp_path / "base" / "src" / "stomod" / "__init__.py").write_text("")
    assert compare_tables.main([str(tmp_path / "base"), str(tmp_path / "head")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("FAILED") == 6
    assert "psd-map exited 1" in err and "head: no src/stomod" in err

"""tools/compare_tables.py: the table-by-table report of two checkouts."""

import pytest

import compare_tables

TABLES = compare_tables.TABLES
DEFAULTS = {name: case for name, case in compare_tables.CASES.items() if case.argv in TABLES}
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
LINE = WARNING.rstrip("\n").format


def first(base: str, head: str) -> str:
    """The report's quote of the first line that differs, from each side."""
    return f"\n  base: {base}\n  head: {head}"


@pytest.mark.parametrize("head, report", [
    (WARNING.format(3), "identical"),
    (WARNING.format(4), "1 of 1 lines differ" + first(LINE(3), LINE(4))),
    ("", "1 of 1 lines differ" + first(LINE(3), "(none)")),
    (WARNING.format(3) + WARNING.format(1), "1 of 2 lines differ" + first("(none)", LINE(1))),
], ids=["identical", "count", "missing", "extra"])
def test_stderr_report(head, report):
    assert compare_tables.compare_stderr(WARNING.format(3), head) == report


def test_stderr_is_reported_per_command(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(compare_tables, "CASES", DEFAULTS)  # the other cases: the test below
    # Two checkouts whose stomod.cli prints one warning line, with a count
    # that differs only for bandwidth on the head side, and writes no table.
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
    expected = []
    for command, stems in TABLES.items():
        stderr = "identical"
        if command == "bandwidth":
            stderr = "1 of 1 lines differ" + first(*(f"Warning: slow ({n} times)" for n in (3, 4)))
        expected += [*f"case {command}: exit 0, stderr {stderr}".splitlines(),
                     *(f"  {stem}.csv: on neither side" for stem in stems)]
    assert out.splitlines() == expected


def test_cases_report_exit_and_stderr_without_failing_the_run(tmp_path, monkeypatch, capsys):
    # Both checkouts exit 2 on the option before the command; the bandwidth
    # case exits 0 with one warning at the base, and 3 with another at the
    # head.  Only the default runs set the status.  One default run and two
    # other cases keep the interpreter starts few.
    names = ("psd-map", "option-before-command", "bandwidth-bound-not-cleared")
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
        "psd-map": "exit 0, stderr identical\n  psd_map.csv: on neither side",
        "option-before-command": "exit 2, stderr identical",
        "bandwidth-bound-not-cleared": "exit 0 on base, 3 on head, stderr 1 of 1 lines differ"
                                       + first(*(f"Warning: slow ({n} times)" for n in (1, 2))),
    }
    assert out == "".join(f"case {name}: {reports[name]}\n" for name in names)


def test_a_failing_command_fails_the_run(tmp_path, monkeypatch, capsys):
    # The base's stomod has no cli module, so each default run exits 1 there; the
    # head has no src/stomod at all.
    monkeypatch.setattr(compare_tables, "CASES", DEFAULTS)  # only these set the status
    (tmp_path / "base" / "src" / "stomod").mkdir(parents=True)
    (tmp_path / "base" / "src" / "stomod" / "__init__.py").write_text("")
    assert compare_tables.main([str(tmp_path / "base"), str(tmp_path / "head")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("FAILED") == 6
    assert "psd-map exited 1" in err and "head: no src/stomod" in err

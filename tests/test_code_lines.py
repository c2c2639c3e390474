"""tools/code_lines.py: code lines by tokenize, without comments, blank lines or docstrings,
and the docstring lines beside them."""

import code_lines

SOURCE = '''"""A module docstring
on two lines."""

import math  # a trailing comment

# a comment line


def f(x):
    """A function docstring."""
    total = (x
             + math.pi)
    text = """a string value,
    not a docstring"""
    "a string statement"
    return total, text
'''


def test_counts_code_lines_only():
    # import, def, the two lines of the expression, the two of the string
    # value and return; the docstrings, the string statement, the comments and
    # the blank lines do not count.  They are the docstring lines: the module
    # docstring's two, the function's one and the string statement's one.
    assert code_lines.count_lines(SOURCE) == (7, 4)


def test_report_per_module_and_total(tmp_path, capsys):
    for root, modules in (("base", {"a.py": SOURCE, "b.py": "x = 1\n"}), ("head", {"a.py": SOURCE})):
        package = tmp_path / root / "src" / "stomod"
        package.mkdir(parents=True)
        for name, text in modules.items():
            (package / name).write_text(text)
    assert code_lines.main([str(tmp_path / "base"), str(tmp_path / "head")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    header = ["module", str(tmp_path / "base"), str(tmp_path / "head")]
    assert rows == [["code", "lines"], header,
                    ["a.py", "7", "7"], ["b.py", "1", "-"], ["total", "8", "7"], [],
                    ["docstring", "lines"], header,
                    ["a.py", "4", "4"], ["b.py", "0", "-"], ["total", "4", "4"]]


def test_root_without_modules_is_refused(tmp_path, capsys):
    # A missing checkout, or the package directory given as the ROOT, has no
    # src/stomod/*.py: each is named and the run exits 2 without a report,
    # so that neither reads as 0 lines.
    package = tmp_path / "head" / "src" / "stomod"
    package.mkdir(parents=True)
    (package / "a.py").write_text(SOURCE)
    roots = [str(tmp_path / "missing"), str(tmp_path / "head"), str(package)]
    assert code_lines.main(roots) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"{roots[0]}: no src/stomod/*.py to count",
                                f"{roots[2]}: no src/stomod/*.py to count"]

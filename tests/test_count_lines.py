"""tools/count_lines.py counts the physical lines that hold code: docstrings, comments and blank
lines count for nothing, a statement counts each line it spans, and the total sums the modules."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "count_lines", Path(__file__).resolve().parents[1] / "tools" / "count_lines.py")
count_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_lines)

MODULE = '''"""Module docstring,
over two lines."""

# a comment

import os  # a trailing comment counts as its code line


class Box:
    """Class docstring."""

    size = 3


def spread(a,
           b,
           c):
    """Function docstring."""
    x = 1
    "a string that is not the body's first statement counts"
    return a + b + c + x
'''


def write_package(root: Path) -> Path:
    root.mkdir()
    (root / "alpha.py").write_text(MODULE)
    (root / "beta.py").write_text('"""Only a docstring."""\n\n\nVALUE = (\n    1,\n)\n')
    (root / "notes.txt").write_text("not python\n")
    return root


def test_code_lines(tmp_path):
    package = write_package(tmp_path / "pkg")
    # import, class, size, the 3-line def, x, the string, return
    assert count_lines.code_lines(package / "alpha.py") == 9
    assert count_lines.code_lines(package / "beta.py") == 3


def test_only_docstrings_comments_and_blank_lines_count_zero(tmp_path):
    path = tmp_path / "empty.py"
    path.write_text('"""Docstring."""\n\n# comment\n\n\nclass C:\n    """Doc."""\n\n    def f(self):\n'
                    '        """Doc."""\n')
    # only the class and def lines hold code
    assert count_lines.code_lines(path) == 2


def test_main_prints_each_module_and_their_total(tmp_path, capsys):
    package = write_package(tmp_path / "pkg")
    assert count_lines.main([str(package)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["alpha", "9"], ["beta", "3"], ["total", "12"]]

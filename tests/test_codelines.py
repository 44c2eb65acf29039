"""tools/codelines.py: the code-line count quoted for src/conlab."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment


def f(x):
    """A function docstring."""
    # a comment line
    return max(
        len(os.sep),
        x)


__all__ = ["f"]
'''


@pytest.fixture(scope="module")
def codelines():
    spec = importlib.util.spec_from_file_location("codelines", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_without_docstrings_comments_and_blanks(codelines):
    # import, def, the three lines of the call, and __all__
    assert codelines.code_lines(SOURCE) == 6
    assert codelines.exported(SOURCE) == 1
    assert codelines.exported("x = 1\n") is None


def test_report_lists_each_module_and_the_totals(codelines, tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert codelines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "code", "__all__"],
        ["a.py", "6", "1"],
        ["b.py", "1", "-"],
        ["total", "7", "1"],
    ]

"""The code-line counter: which lines count, and what it prints."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_TOOL = (pathlib.Path(__file__).resolve().parents[2]
         / "tools" / "code_lines.py")

#: seven code lines: the import, the class and def lines, the two lines
#: of the non-docstring string, and the two lines of the return
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment: the line holds code

# a comment line


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring
        over two lines."""
        text = """a string that is not a docstring
        spans two lines"""
        return (text,
                os.sep)
'''


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_blank_comment_and_docstring_lines_do_not_count(tool):
    assert tool.count(FIXTURE) == 7


def test_prints_each_file_and_the_total(tool, tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(FIXTURE)
    (package / "b.py").write_text('"""Only a docstring."""\nx = 1\n')
    (package / "notes.txt").write_text("not python\n")
    assert tool.main([str(package)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["7", str(package / "a.py")],
        ["1", str(package / "b.py")],
        ["8", "total"],
    ]

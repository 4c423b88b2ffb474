#!/usr/bin/env python3
"""code-lines: count the lines of Python code, the way simplicity PRs do.

A line counts when it holds at least one token that is not a comment,
a newline or an indent (``tokenize``), and it is not part of a module,
class or function docstring (``ast``).  So blank lines, comment lines
and docstring lines do not count; a statement split over three lines
counts three.  Directories are walked for ``*.py`` files.

    python3 tools/code_lines.py src/repro/bench/load.py src/repro/bench/collab.py
    python3 tools/code_lines.py src

prints one ``count  path`` line per file and then the total.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> int:
    """Code lines in ``source``."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def files(paths: list[str]) -> list[pathlib.Path]:
    """The ``*.py`` files named by ``paths``, directories walked."""
    found = []
    for name in paths:
        path = pathlib.Path(name)
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    total = 0
    for path in files(argv):
        lines = count(path.read_text(encoding="utf-8"))
        total += lines
        print(f"{lines:7d}  {path}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

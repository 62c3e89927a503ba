#!/usr/bin/env python3
"""Count the code lines of Python modules.

A code line is a non-blank line that holds a token outside docstrings and
comments.  A docstring is the first statement of a module, class or function
when that statement is a string.  With no arguments the script counts the
modules of ``src/polarwd``; it prints one ``<lines>  <path>`` row per module
and a ``total`` row.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# tokens that hold no code: comments and layout
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""

    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the module ``source``."""

    text = source.splitlines()
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    lines -= docstring_lines(ast.parse(source))
    return sum(1 for i in lines if text[i - 1].strip())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="*", type=Path, help="modules (default: src/polarwd)")
    args = parser.parse_args()
    paths = args.paths or sorted((ROOT / "src" / "polarwd").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()

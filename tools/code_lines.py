"""Count the code lines of each ``src/treecrf`` module and in total.

A code line holds a token other than a comment; blank lines and docstrings
(string-expression statements) do not count.  This is the measure a design
change reports.  Run from the repository root:

    python tools/code_lines.py            # every module of src/treecrf
    python tools/code_lines.py FILE ...   # the given files
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    strings = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            strings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - strings)


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    paths = [Path(a) for a in argv] or sorted((root / "src" / "treecrf").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

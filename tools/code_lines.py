"""Print the code lines of each Python module under a path, and their total.

    python3 tools/code_lines.py [PATH ...]

PATH is a module or a directory, searched recursively for `*.py`; the
default is `src`.  A code line holds at least one token that is not part of a
comment or of a docstring (the leading string of a module, class or
function), so comments, docstrings and blank lines are not counted, and a
statement over several lines counts each of them.  It prints one line per
module, `<lines> <path>`, in path order, then `<total> total`.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that hold no code: layout, comments and the stream's ends
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def modules(paths: list[str]) -> list[Path]:
    """Every `*.py` file named or under a named directory, in path order."""
    found: set[Path] = set()
    for path in map(Path, paths):
        found.update(path.rglob("*.py") if path.is_dir() else [path])
    return sorted(found)


def main(argv: list[str]) -> int:
    total = 0
    for path in modules(argv or ["src"]):
        n = code_lines(path.read_text())
        total += n
        print(f"{n} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Count the code lines of each module under src/: lines outside docstrings,
comments and blank lines.

    python3 tools/src_lines.py [ROOT]

Prints one `count path` line per module, sorted by path, then the total.
ROOT defaults to this checkout's src/.  A line counts when a token other
than a comment or a line break lies on it and it is not part of a module,
class or function docstring; a string literal that is not a docstring
counts on every line it spans.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1] / "src"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else ROOT
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d} {path.relative_to(root)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

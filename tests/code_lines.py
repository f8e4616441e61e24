"""Total and code lines of the floqscat package.

    python tests/code_lines.py [SRC]

prints `total N  code M` for the .py files under SRC (default: this
checkout's src/floqscat).  A code line is one that is not blank, not only a
comment and not inside a docstring (the leading string of a module, class or
function).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def count(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "floqscat"
    totals = [count(path.read_text()) for path in sorted(src.glob("*.py"))]
    print(f"total {sum(t for t, _ in totals)}  code {sum(c for _, c in totals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Total and code lines of the floqscat package, per module.

    python tests/code_lines.py [SRC]
    python tests/code_lines.py OLD NEW

With one tree (default: this checkout's src/floqscat) it prints
`<module>  total N  code M` for each .py file under SRC, then the same for
their sum.  With two it prints each module's code lines in OLD and NEW and
the change, `<module>  code A -> B (+-D)`, a module missing from one tree
counting 0, then the sum's.  A code line is one that is not blank, not only a
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


def counts(src: Path) -> dict[str, tuple[int, int]]:
    """Module file name -> (total lines, code lines) for the .py files under src."""
    return {path.name: count(path.read_text()) for path in sorted(src.glob("*.py"))}


def main(argv: list[str]) -> int:
    trees = [Path(a) for a in argv] or [Path(__file__).resolve().parents[1] / "src" / "floqscat"]
    tables = [counts(src) for src in trees]
    width = max((len(name) for table in tables for name in table), default=5)
    if len(tables) == 1:
        table = tables[0]
        rows = {**table, "total": (sum(t for t, _ in table.values()),
                                   sum(c for _, c in table.values()))}
        for name, (total, code) in rows.items():
            print(f"{name:<{width}}  total {total}  code {code}")
        return 0
    old, new = tables
    rows = {name: (old.get(name, (0, 0))[1], new.get(name, (0, 0))[1])
            for name in sorted(old.keys() | new.keys())}
    rows["total"] = (sum(a for a, _ in rows.values()), sum(b for _, b in rows.values()))
    for name, (a, b) in rows.items():
        print(f"{name:<{width}}  code {a} -> {b} ({b - a:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

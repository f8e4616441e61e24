"""Statements of the floqscat package that no shipped run executes, per function.

    python tests/cli_coverage.py [--src CHECKOUT]

traces one interpreter with sys.settrace (line events of the package's own
frames only) while `floqscat.cli.main` runs, in a temporary directory,
the runs that tests/report_set.py makes:

- the configs/*.json of this checkout at --seed 1, 2, 3 and 7;
- the ring-scatter, ring-bound and fiber-batch scenarios that
  floqbench/workloads.py draws from seeds 1, 2 and 3;
- scale_probe.ring_config's 1024- and 2048-site wave-operators runs at --seed 7.

The package is imported from CHECKOUT/src (default: this checkout's) after the
tracer is set, so what runs at import counts as run.  A statement is one of a
function's statements (a compound one by its header) that compiles to at least
one instruction; it ran where a line event fell on one of its own lines.  Prints
`<module>:<function>  <count>  lines ...` for each function holding a statement
that never ran, in file order, then the total and each run's exit code.  The
scripts, and so the runs, are this checkout's, whatever CHECKOUT is.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from report_set import CONFIG_SEEDS, SCALE_SEED, SCALE_SITES, WORKLOAD_SEEDS
from scale_probe import THREAD_VARIABLES, write_ring_configs

ROOT = Path(__file__).resolve().parents[1]
SIMPLE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def instruction_lines(code) -> set[int]:
    """The lines holding an instruction of the code object or of one nested in it."""
    lines = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= instruction_lines(const)
    return lines


def statements(path: Path) -> list[tuple[str, int, set[int]]]:
    """(function's qualified name, first line, own lines) of every statement in a
    function body of the module at path that compiles to an instruction.  A
    statement's own lines are its span less those of the statements nested in it,
    and of a nested function or class, the decorators and header alone."""
    text = path.read_text()
    compiled = instruction_lines(compile(text, str(path), "exec"))
    out = []

    def span(node) -> set[int]:
        return set(range(node.lineno, node.end_lineno + 1))

    def visit(body, owner: str | None, prefix: str):
        for node in body:
            if isinstance(node, SIMPLE):
                name = f"{prefix}{node.name}"
                if owner is not None:
                    head = range(min([node.lineno, *(d.lineno for d in node.decorator_list)]),
                                 node.body[0].lineno)
                    out.append((owner, node.lineno, set(head) & compiled))
                inner = f"{name}.<locals>." if not isinstance(node, ast.ClassDef) else f"{name}."
                nested = name if not isinstance(node, ast.ClassDef) else None
                first = node.body[0]
                body_nodes = node.body[1:] if nested is not None and _docstring(first) \
                    else node.body
                visit(body_nodes, nested, inner)
                continue
            children = [c for field in ("body", "orelse", "finalbody", "handlers")
                        for c in getattr(node, field, [])]
            if owner is not None:
                own = span(node).difference(*(span(c) for c in children)) & compiled
                if own:
                    out.append((owner, node.lineno, own))
            visit(children, owner, prefix)

    visit(ast.parse(text).body, None, "")
    return out


def _docstring(node) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
        and isinstance(node.value.value, str)


def run_everything(package: Path) -> tuple[set[tuple[str, int]], list[str]]:
    """(file, line) of every line event in the package's frames while the runs go,
    and one `<run>  exit <code>` line per run."""
    prefix = str(package) + os.sep
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT))
    from floqbench import workloads

    sys.path.insert(0, str(package.parent))
    codes = []
    home = os.getcwd()
    sys.settrace(tracer)
    try:
        from floqscat import cli

        with tempfile.TemporaryDirectory() as tmp:
            runs = []
            configs = [str(p) for p in sorted((ROOT / "configs").glob("*.json"))]
            runs += [(f"configs seed {seed}", Path(tmp) / f"configs{seed}", configs, seed)
                     for seed in CONFIG_SEEDS]
            for name in workloads.WORKLOADS:
                for seed in WORKLOAD_SEEDS:
                    directory = Path(tmp) / f"{name}{seed}"
                    directory.mkdir()
                    written = [str(s.write(directory)) for s in workloads.make(name, seed)]
                    runs.append((f"{name} seed {seed}", directory, written, seed))
            scale = Path(tmp) / "scale"
            runs.append(("scale", scale, [str(p) for p in write_ring_configs(SCALE_SITES, scale)],
                         SCALE_SEED))
            for label, directory, paths, seed in runs:
                directory.mkdir(exist_ok=True)
                os.chdir(directory)   # model files are named relative to their config
                argv = [arg for p in paths for arg in ("--config", p)]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([*argv, "--out", ".", "--seed", str(seed)])
                codes.append(f"{label}  exit {code}")
    finally:
        sys.settrace(None)
        os.chdir(home)
    return hits, codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT,
                        help="the checkout whose src/floqscat is traced (default: this one)")
    args = parser.parse_args(argv)
    package = (args.src / "src" / "floqscat").resolve()
    if not package.is_dir():
        parser.error(f"{args.src} holds no src/floqscat")
    if any(name in sys.modules for name in ("floqscat", "numpy")):
        parser.error("run in a fresh interpreter")
    for name in THREAD_VARIABLES:    # before numpy loads its BLAS
        os.environ[name] = "1"
    hits, codes = run_everything(package)
    total = 0
    for path in sorted(package.glob("*.py")):
        missed: dict[str, list[int]] = {}
        for owner, first, own in statements(path):
            if not any((str(path), line) in hits for line in own):
                missed.setdefault(owner, []).append(first)
        for owner, lines in missed.items():
            print(f"{path.stem}:{owner}  {len(lines)}  lines {', '.join(map(str, lines))}")
            total += len(lines)
    print(f"total {total} statements never executed")
    print("\n".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())

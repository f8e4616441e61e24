"""Field-by-field comparison of two report dicts, as `run_scenario` returns them
or as a written report reads back.

`report_differences(a, b)` walks both reports together.  Each float leaf adds
its absolute difference to its field, named by its key path with the list
indices dropped (a complex entry is an [re, im] pair of floats, so
"results.s_matrix" covers every part of every entry); a field's value is the
largest difference over its leaves.  Everything else must be equal: the keys
of every object, the length of every list, and every int, bool, string and
null.  A mismatch raises AssertionError naming the key path.

    python tests/report_diff.py A.report.json B.report.json

prints one line per float field, largest difference first.
"""

from __future__ import annotations

import json
import sys


def report_differences(a, b) -> dict[str, float]:
    """Largest absolute difference per float field of reports a and b; raises
    AssertionError where their structure or a non-float leaf differs."""
    diffs: dict[str, float] = {}
    _walk(a, b, "report", "report", diffs)
    return diffs


def _walk(a, b, path: str, name: str, diffs: dict):
    if isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), \
            f"{path}: keys {sorted(a)} != {sorted(b) if isinstance(b, dict) else b!r}"
        for key in a:
            _walk(a[key], b[key], f"{path}.{key}", f"{name}.{key}", diffs)
    elif isinstance(a, (list, tuple)):
        assert isinstance(b, (list, tuple)) and len(a) == len(b), \
            f"{path}: lengths {len(a)} != {len(b) if isinstance(b, (list, tuple)) else b!r}"
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", name, diffs)
    elif type(a) is float:
        assert type(b) is float, f"{path}: {a!r} != {b!r}"
        diffs[name] = max(diffs.get(name, 0.0), abs(a - b))
    else:
        assert type(a) is type(b) and a == b, f"{path}: {a!r} != {b!r}"


def main(argv: list[str]) -> int:
    reports = []
    for path in argv:
        with open(path) as f:
            reports.append(json.load(f))
    for name, diff in sorted(report_differences(*reports).items(), key=lambda kv: -kv[1]):
        print(f"{diff:.3e}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

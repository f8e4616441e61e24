"""Field-by-field comparison of two report dicts, as `run_scenario` returns them
or as a written report reads back, and of two output directories.

`report_differences(a, b)` walks both reports together.  Each float leaf adds
its absolute difference to its field, named by its key path with the list
indices dropped (a complex entry is an [re, im] pair of floats, so
"results.s_matrix" covers every part of every entry); a field's value is the
largest difference over its leaves.  Everything else must be equal: the keys
of every object, the length of every list, and every int, bool, string and
null.  A mismatch raises AssertionError naming the key path.

`sweep_differences(a, b)` compares two sweep tables row by row the same way:
`headline_value` as a float where both rows hold one, `wall_time_s` not at
all, every other column as a string.  `directory_differences(a, b)` compares
every `*.report.json`, `*.sweep.csv` and `exit_codes.json` (report_set.py's
exit code per run, compared as a report) under two directories, matched by
their paths relative to them; a file on one side only is a mismatch.

    python tests/report_diff.py A.report.json B.report.json
    python tests/report_diff.py DIR_A DIR_B

prints one line per float field, largest difference first (per file for two
directories), and exits 1 on any structural mismatch.  For two directories it
ends with a summary (`directory_summary`): the files compared, those
byte-identical, those equal in every float, and per field the largest
difference over all files.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

OUTPUTS = ("*.report.json", "*.sweep.csv", "exit_codes.json")   # report_set.py writes them


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


def sweep_differences(a: list[dict], b: list[dict]) -> dict[str, float]:
    """Largest |headline_value| difference of two sweep tables' rows (csv.DictReader
    rows); raises AssertionError where their rows or any other column differ."""
    assert len(a) == len(b), f"sweep: {len(a)} rows != {len(b)}"
    diffs: dict[str, float] = {}
    for i, (x, y) in enumerate(zip(a, b)):
        assert x.keys() == y.keys(), f"sweep[{i}]: columns {list(x)} != {list(y)}"
        for col in x:
            if col == "wall_time_s":
                continue
            if col == "headline_value" and x[col] and y[col]:
                diffs[col] = max(diffs.get(col, 0.0), abs(float(x[col]) - float(y[col])))
            else:
                assert x[col] == y[col], f"sweep[{i}].{col}: {x[col]!r} != {y[col]!r}"
    return diffs


def _read(path: Path):
    with open(path, newline="") as f:
        return json.load(f) if path.suffix == ".json" else list(csv.DictReader(f))


def directory_differences(dir_a, dir_b) -> dict[str, dict[str, float]]:
    """Per output file under two directories (its relative path), the largest
    difference per float field; raises AssertionError on any mismatch."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names = [{str(p.relative_to(d)) for pattern in OUTPUTS for p in d.rglob(pattern)}
             for d in (dir_a, dir_b)]
    assert names[0] == names[1], f"on one side only: {sorted(names[0] ^ names[1])}"
    out = {}
    for name in sorted(names[0]):
        compare = report_differences if name.endswith(".json") else sweep_differences
        try:
            out[name] = compare(_read(dir_a / name), _read(dir_b / name))
        except AssertionError as exc:
            raise AssertionError(f"{name}: {exc}") from None
    return out


def directory_summary(dir_a, dir_b, diffs: dict[str, dict[str, float]]) -> dict:
    """For directory_differences' result on dir_a and dir_b: the number of files
    compared, of those byte-identical and of those equal in every float (the
    byte-identical among them), and per field its largest difference over all
    files."""
    same = [name for name in diffs
            if (Path(dir_a) / name).read_bytes() == (Path(dir_b) / name).read_bytes()]
    fields: dict[str, float] = {}
    for file_diffs in diffs.values():
        for name, diff in file_diffs.items():
            fields[name] = max(fields.get(name, 0.0), diff)
    return {"compared": len(diffs), "byte_identical": len(same),
            "float_equal": sum(not any(d.values()) for d in diffs.values()),
            "fields": fields}


def _print(diffs: dict[str, float], indent: str = ""):
    for name, diff in sorted(diffs.items(), key=lambda kv: -kv[1]):
        print(f"{indent}{diff:.3e}  {name}")


def main(argv: list[str]) -> int:
    a, b = argv
    try:
        if Path(a).is_dir():
            per_file = directory_differences(a, b)
            for name, diffs in per_file.items():
                print(name)
                _print(diffs, "  ")
            summary = directory_summary(a, b, per_file)
            print(f"summary: {summary['compared']} files compared, "
                  f"{summary['byte_identical']} byte-identical, "
                  f"{summary['float_equal']} equal in every float; "
                  "largest difference per field over all files:")
            _print(summary["fields"], "  ")
        else:
            _print(report_differences(_read(Path(a)), _read(Path(b))))
    except AssertionError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Alternating benchmark pairs of two checkouts on one workload.

    python tests/bench_pairs.py --parent DIR --change DIR --workload ring-scatter \
        [--pairs 10] [--seconds 30] [--seed 4001]

runs `python3 floqbench/run.py --workload W --seed S --seconds T --trace 0`
from inside each checkout, pair i at seed S + i in both: the parent first in
even pairs and the change first in odd ones, so neither side always runs on
the machine the other has just warmed.  Each run's benchmark (run.py, the
workloads and the checks) is its own checkout's.  The last line of a run's
output is its JSON result; a run that exits non-zero, is not `correct` or
reports failed operations is named, and the script then exits 1.

For each end-to-end metric of the change's BENCHMARK.json it prints the
median of each side, the change of the medians relative to the parent's,
the metric's bound, each side's interquartile range and the pairs the change
wins (better in the metric's direction than the parent in the same pair).  A
metric is flagged `worse` where the medians are worse by more than the bound,
and `gain` where the change wins at least 9 in 10 of the pairs and the
medians differ by more than the parent's interquartile range: the rule a
claimed gain is held to.  It is flagged `unresolved` where the parent's
interquartile range exceeds the bound times the parent's median, unless
every run of the change is better than every run of the parent: the runs
then spread too widely to call the metric unchanged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout: its JSON result, with `ok` false where it failed."""
    proc = subprocess.run(
        [sys.executable, "floqbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"metrics": {}}
    result["ok"] = (proc.returncode == 0 and result.get("correct") is True
                    and result.get("failed") == 0)
    if not result["ok"]:
        print(f"run failed: {checkout} seed {seed} (exit {proc.returncode})\n{proc.stderr}",
              file=sys.stderr)
    return result


def iqr(values: list[float]) -> float:
    """The distance between the quartiles; 0 for one value."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """One line per end-to-end metric, from the paired results."""
    lines = []
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent, change)
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            lines.append(f"{name}: no paired values")
            continue
        a, b = [p for p, _ in pairs], [c for _, c in pairs]
        med_a, med_b = statistics.median(a), statistics.median(b)
        iqr_a, iqr_b = iqr(a), iqr(b)
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        rel = (med_b - med_a) / med_a if med_a else 0.0
        worse = rel > spec["bound"] if lower else -rel > spec["bound"]
        gain = wins >= 0.9 * len(pairs) and abs(med_b - med_a) > iqr_a and (
            med_b < med_a if lower else med_b > med_a)
        apart = max(b) < min(a) if lower else min(b) > max(a)
        unresolved = iqr_a > spec["bound"] * abs(med_a) and not apart
        flags = " ".join(f for f, on in (("worse", worse), ("gain", gain),
                                         ("unresolved", unresolved)) if on)
        lines.append(f"{name}: parent {med_a:.6g} change {med_b:.6g} {spec['unit']} "
                     f"({rel:+.1%}, bound {spec['bound']:.0%}), IQR parent {iqr_a:.3g} "
                     f"change {iqr_b:.3g}, change better in {wins}/{len(pairs)} "
                     f"{flags}".rstrip())
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=4001)
    args = parser.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        sides = [(args.parent, parent), (args.change, change)]
        for checkout, results in sides if i % 2 == 0 else sides[::-1]:
            results.append(run(checkout, args.workload, seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} seed {seed}: " + "  ".join(
            f"{side} wall_s {r[-1]['metrics'].get('wall_s', {}).get('value', float('nan')):.4f}"
            for side, r in (("parent", parent), ("change", change))), flush=True)
    print(f"workload {args.workload}, {args.pairs} pairs")
    for line in summarize(metrics, parent, change):
        print(line)
    return 0 if all(r["ok"] for r in parent + change) else 1


if __name__ == "__main__":
    sys.exit(main())

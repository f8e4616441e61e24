"""Reports at one and at two BLAS threads: a few small configs, each thread count in
a fresh interpreter, compared by report_diff.directory_differences.  LAPACK's bits
depend on the thread count, so every float may move within THREAD_FLOAT_BOUND;
every int, bool, string and exit code is equal."""

import json
import os
import subprocess
import sys
from pathlib import Path

import floqscat
from report_diff import directory_differences
from scale_probe import THREAD_VARIABLES, ring_config

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ("monodromy-rabi", "correspondence-rabi", "floquet-spectrum-rabi", "resolvent-check-free")
BOUND_STATES = {"task": "bound-states",
                "model": {"lattice": {"sites": 40, "hopping": 1.0, "well_depth": -1.8,
                                      "drive_amp": 0.5, "support_width": 4}},
                "parameters": {"steps_per_period": 64, "n_modes": 8, "scan_modes": 4}}
# the largest float difference between one and two threads: 1.3e-15 (schmidt_norm) over
# these six reports on a 2-core OpenBLAS box, 6.6e-13 (s_matrix) over the 136 of
# tests/report_set.py
THREAD_FLOAT_BOUND = 1e-12
CHILD = "import sys, floqscat.cli as cli; sys.exit(cli.main(sys.argv[1:]))"


def run_at(threads: int, configs: list[Path], out: Path) -> tuple[int, list[str]]:
    """The CLI on `configs` at `threads` BLAS threads: (exit code, written paths
    relative to `out`)."""
    src = str(Path(floqscat.__file__).resolve().parents[1])
    env = {**os.environ, **{name: str(threads) for name in THREAD_VARIABLES},
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [arg for c in configs for arg in ("--config", str(c))]
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv, "--out", str(out), "--seed", "3"],
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, [str(Path(p).relative_to(out)) for p in proc.stdout.split()]


def test_reports_agree_across_thread_counts(tmp_path):
    configs = [ROOT / "configs" / f"{name}.json" for name in SHIPPED]
    for name, cfg in {"bound-states-40": BOUND_STATES, "ring-256": ring_config(256)}.items():
        configs.append(tmp_path / f"{name}.json")
        configs[-1].write_text(json.dumps(cfg))
    one, two = (run_at(threads, configs, tmp_path / f"threads{threads}") for threads in (1, 2))
    assert one == two
    assert one[0] == 0 and len(one[1]) == len(configs)
    diffs = directory_differences(tmp_path / "threads1", tmp_path / "threads2")
    assert len(diffs) == len(configs)
    worst = max((d, f"{name}: {field}") for name, fields in diffs.items()
                for field, d in fields.items())
    assert worst[0] <= THREAD_FLOAT_BOUND, worst

"""Every report of the shipped configs and the benchmark's scenarios, from one checkout.

    python tests/report_set.py --src CHECKOUT --out DIR
    python tests/report_diff.py DIR_A DIR_B

runs the CLI of CHECKOUT/src on

- the configs/*.json of this checkout at --seed 1, 2, 3 and 7, into
  DIR/configs/seed<k>/;
- the ring-scatter, ring-bound and fiber-batch scenarios that this checkout's
  floqbench/workloads.py draws from seeds 1, 2 and 3 (the seed goes to the CLI
  as well, as the benchmark passes it), into DIR/<workload>/seed<k>/;
- scale_probe.ring_config's 1024- and 2048-site wave-operators runs at
  --seed 7, into DIR/scale/.

The inputs come from this checkout whatever CHECKOUT is, so two checkouts run
the same scenarios.  Each run is one fresh interpreter with BLAS and OpenMP
pinned to one thread, started inside a temporary directory that holds its
written configs and model files, so model files are named by relative paths
and the echoed configs match between checkouts.  DIR receives the outputs
alone, the reports and sweep tables, and DIR/exit_codes.json, each run's CLI
exit code by its directory.  Prints one line per run with its exit code and
wall time; exits with the largest code.  report_diff.py then compares two such
directories field by field, and tests/test_reference_reports.py this
checkout's against tests/reference/, written by

    rm -rf tests/reference && python tests/report_set.py --src . --out tests/reference
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from scale_probe import THREAD_VARIABLES, write_ring_configs

ROOT = Path(__file__).resolve().parents[1]
CONFIG_SEEDS = (1, 2, 3, 7)
WORKLOAD_SEEDS = (1, 2, 3)
SCALE_SITES, SCALE_SEED = (1024, 2048), 7
CHILD = "import sys, floqscat.cli as cli; sys.exit(cli.main(sys.argv[1:]))"


def run(configs: list[Path], work: Path, out: Path, seed: int, src: Path) -> int:
    """The CLI on `configs` with --seed `seed`, from `work`, its outputs written to `out`."""
    env = {**os.environ, **{name: "1" for name in THREAD_VARIABLES},
           "PYTHONPATH": str(src / "src")}
    argv = [arg for c in configs for arg in ("--config", str(c))]
    begin = time.perf_counter()
    code = subprocess.run([sys.executable, "-c", CHILD, *argv, "--out", str(out.resolve()),
                           "--seed", str(seed)],
                          cwd=work, env=env, stdout=subprocess.DEVNULL).returncode
    print(f"{out}  exit {code}  {time.perf_counter() - begin:.1f} s", flush=True)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="the checkout whose src/floqscat runs")
    parser.add_argument("--out", type=Path, required=True, help="directory for the reports")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "src" / "floqscat").is_dir():
        parser.error(f"{src} holds no src/floqscat")
    sys.path.insert(0, str(ROOT))
    from floqbench import workloads

    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        def run_in(name: str, seed: int, write_configs):
            """One run, from the work directory tmp/name, where write_configs(work)
            writes its inputs and returns its configs, into --out/name."""
            work, out = Path(tmp) / name, args.out / name
            work.mkdir(parents=True)
            out.mkdir(parents=True, exist_ok=True)
            codes[name] = run(write_configs(work), work, out, seed, src)

        shipped = sorted((ROOT / "configs").glob("*.json"))
        for seed in CONFIG_SEEDS:
            run_in(f"configs/seed{seed}", seed, lambda work: shipped)
        for name in workloads.WORKLOADS:
            for seed in WORKLOAD_SEEDS:
                run_in(f"{name}/seed{seed}", seed,
                       lambda work: [s.write(work).name for s in workloads.make(name, seed)])
        run_in("scale", SCALE_SEED,
               lambda work: [p.name for p in write_ring_configs(SCALE_SITES, work)])
    (args.out / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")
    return max(codes.values())


if __name__ == "__main__":
    sys.exit(main())

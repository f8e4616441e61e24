"""Wall time and peak resident memory of CLI runs, one fresh interpreter per config.

    python tests/scale_probe.py [CONFIG ...] [--ring SITES ...] [--out DIR] [--seed N] [--src DIR]

Each config runs through `floqscat.cli.main` in a new Python process with
BLAS and OpenMP pinned to one thread, as the benchmark pins them, and
imported from `--src` (default: this checkout's `src`).  One line per config
gives its exit code, the wall seconds of the `main` call (import excluded),
the process's peak resident set (`ru_maxrss`) in MB and which of the modules in
MODULES (`scipy.linalg`, the `scipy.sparse` package, `numpy.ma` and
`concurrent.futures`) the process had loaded.  Reports go to `--out` (default: the
current directory), so two trees' reports can be compared with tests/report_diff.py.

The at-scale wave-operators figures in CHANGES.md come from `ring_config(L)`:
the benchmark's ring-scatter ring (hopping 1, well depth -0.8, drive 0.5,
support width 5) grown to L sites, with the benchmark's schedule and
n_max = L / 8, the ring's wrap-around horizon.  `--ring 1024 2048` writes
those configs to `--out` as ring-<L>.json and runs them after any CONFIG.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# modules whose loading each child reports
MODULES = ("scipy.linalg", "scipy.sparse", "numpy.ma", "concurrent.futures")

# the child: import, then time the CLI call alone, read its own peak RSS and
# which of MODULES were loaded
CHILD = f"""
import json, resource, sys, time
import floqscat.cli as cli
begin = time.perf_counter()
code = cli.main(sys.argv[1:])
wall = time.perf_counter() - begin
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({{"code": code, "wall_s": wall, "peak_rss_mb": peak,
                  **{{m: m in sys.modules for m in {MODULES!r}}}}}))
"""


def ring_config(sites: int) -> dict:
    """The at-scale wave-operators config on a ring of `sites` sites."""
    return {"task": "wave-operators",
            "model": {"lattice": {"sites": sites, "hopping": 1.0, "well_depth": -0.8,
                                  "drive_amp": 0.5, "support_width": 5}},
            "parameters": {"steps_per_period": 64, "order": 4, "n_max": sites // 8,
                           "translates": 2, "average_window": 1.0, "floquet_modes": 3}}


def write_ring_configs(sizes, directory: Path) -> list[Path]:
    """ring_config(L) for each L in `sizes`, written to directory/ring-<L>.json."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / f"ring-{sites}.json" for sites in sizes]
    for sites, path in zip(sizes, paths):
        path.write_text(json.dumps(ring_config(sites), indent=1) + "\n")
    return paths


def probe(config: str, out: str, seed: int | None, src: Path) -> dict:
    """One config in a fresh interpreter: {"code", "wall_s", "peak_rss_mb"} and, for
    each name in MODULES, whether it was loaded (None where the child failed)."""
    env = {**os.environ, **{name: "1" for name in THREAD_VARIABLES},
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    argv = ["--config", config, "--out", out]
    if seed is not None:
        argv += ["--seed", str(seed)]
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return {"code": done.returncode, "wall_s": float("nan"), "peak_rss_mb": float("nan"),
                **dict.fromkeys(MODULES)}
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("configs", nargs="*", metavar="CONFIG")
    parser.add_argument("--ring", nargs="+", type=int, default=[], metavar="SITES",
                        help="also write and run ring_config(SITES) for each size")
    parser.add_argument("--out", default=".", help="report directory (default: .)")
    parser.add_argument("--seed", type=int, default=None, help="the CLI's --seed")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the floqscat source tree to import (default: this checkout's)")
    args = parser.parse_args(argv)
    if not args.configs and not args.ring:
        parser.error("give a CONFIG or --ring SITES")
    configs = args.configs + [str(p) for p in write_ring_configs(args.ring, Path(args.out))]
    status = 0
    for config in configs:
        got = probe(config, args.out, args.seed, args.src.resolve())
        loaded = "  ".join(f"{m} {got[m]}" for m in MODULES)
        print(f"{config}  exit {got['code']}  wall {got['wall_s']:.2f} s  "
              f"peak {got['peak_rss_mb']:.1f} MB  {loaded}", flush=True)
        status = max(status, got["code"])
    return status


if __name__ == "__main__":
    sys.exit(main())

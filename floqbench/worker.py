"""The workload process: imports floqscat and runs each scenario through its CLI.

Usage (started by run.py, never by hand):

    python3 floqbench/worker.py PLAN.json RESULT.json

PLAN.json names the source tree, the config files in run order, the number
of rounds, the CLI seed and whether to trace.  Each scenario is one
`floqscat.cli.main([...])` call, timed from the call to its return, which
includes validation, the computation and writing the report.  The result
file holds per-call wall times and exit codes, the library versions, the
BLAS thread count in effect and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import json
import os
import sys
import time
from pathlib import Path


def blas_info() -> dict:
    """OpenBLAS thread count and version string, read from the loaded library."""
    info = {"blas_threads": None, "openblas": None}
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({parts[-1] for parts in map(str.split, f)
                           if len(parts) >= 6 and "openblas" in parts[-1].lower()})
    except OSError:
        return info
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(handle, f"{prefix}_get_config{suffix}", None)
                if get_threads is None:
                    continue
                get_threads.restype = ctypes.c_int
                info["blas_threads"] = get_threads()
                if get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    info["openblas"] = get_config().decode()
                return info
    return info


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as f:
        plan = json.load(f)
    src = Path(plan["src"])
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import floqscat.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"floqscat imported from {cli.__file__}, not from {src}")
    # the collection before each call keeps collector pauses out of the timed
    # calls; freezing what the imports made keeps that collection short
    gc.collect()
    gc.freeze()

    tracer = None
    if plan["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    calls = []   # [round, scenario index, wall seconds, exit code]
    sink = io.StringIO()
    for rnd in range(plan["rounds"]):
        for idx, cfg in enumerate(plan["configs"]):
            argv = ["--config", cfg, "--out", plan["out"], "--seed", str(plan["seed"])]
            gc.collect()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an uncaught error is a failed scenario, not a dead run
                print(f"{cfg}: {type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
            calls.append([rnd, idx, time.perf_counter() - start, code])

    result = {
        "calls": calls,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        **blas_info(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracer.metrics()
        tracer.write_spans(Path(plan["out"]) / "spans.jsonl")
    tmp = result_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(result, f)
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))

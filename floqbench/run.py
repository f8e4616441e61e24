"""Benchmark of the floqscat CLI on three seeded workloads.

    python3 floqbench/run.py --workload ring-scatter --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (it imports floqscat from ./src).
One run:

1. writes the workload's configs and model files, drawn from --seed, under
   .floqbench-out/;
2. times interpreter start plus `import floqscat.cli` in SETUP_PROBES fresh
   processes, half before and half after step 3 (setup_s is their median);
3. starts one workload process (worker.py) that calls `floqscat.cli.main`
   once per scenario, for as many whole rounds of the scenario list as fit
   --seconds at the reference speed (always one round when tracing);
4. checks every report against computations made here (checks.py) and
   counts a scenario whose exit code is not 0 or whose report fails a check
   as failed;
5. prints one line per metric and, last, one JSON object with `correct`,
   `attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
   per-layer metrics from the traced run with --trace 1).

BLAS and OpenMP run on one thread: the variables below are set before any
process of the benchmark loads numpy.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".floqbench-out"

# seconds one round of each workload takes at one BLAS thread on the
# reference machine (README); --seconds buys round(seconds / ROUND_S)
# rounds, at least one
ROUND_S = {"ring-scatter": 28.0, "ring-bound": 24.0, "fiber-batch": 5.0}
# half of the set-up probes run before the workload process and half after,
# so that their median spans the run and not one slow or fast spell
SETUP_PROBES = 6
RUN_LIMIT_S = 170.0       # the whole run, checks included, ends before this
CHECK_ALLOWANCE_S = 20.0  # kept back from the workload process for the checks

END_TO_END_UNITS = {"wall_s": "s", "scenario_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PROBE_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import floqscat.cli; "
              "print(repr(time.time()))")


def setup_probe() -> float:
    """Seconds from process launch to the end of `import floqscat.cli`."""
    start = time.time()
    proc = subprocess.run([sys.executable, "-c", PROBE_CODE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import floqscat failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


def run_worker(plan: dict, run_dir: Path, deadline: float):
    """Start the workload process and wait for it; returns (exit code, resource usage)."""
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    with open(run_dir / "worker.log", "w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(run_dir / "calls.json")],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.05)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def load_payload(sc, out_dir: Path):
    path = out_dir / sc.config["output"]["path"]
    with open(path) as f:
        return list(csv.DictReader(f)) if sc.sweep else json.load(f)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "floqscat" / "__init__.py").is_file():
        print(f"error: no floqscat source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))   # the checks read the builtin fleet models

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    scenarios = workloads.make(args.workload, args.seed, str(run_dir.relative_to(ROOT)))
    configs = [str(sc.write(run_dir).relative_to(ROOT)) for sc in scenarios]
    rounds = 1 if args.trace else max(1, round(args.seconds / ROUND_S[args.workload]))

    probes = [setup_probe() for _ in range(SETUP_PROBES // 2)]
    plan = {"src": str(SRC), "configs": configs, "rounds": rounds, "seed": args.seed,
            "trace": bool(args.trace), "out": str(run_dir)}
    deadline = started + RUN_LIMIT_S - CHECK_ALLOWANCE_S
    code, usage = run_worker(plan, run_dir, deadline)
    peak_rss_mb = usage.ru_maxrss / 1024.0
    probes += [setup_probe() for _ in range(SETUP_PROBES - len(probes))]
    setup = statistics.median(probes)
    try:
        with open(run_dir / "calls.json") as f:
            result = json.load(f)
    except OSError:
        print(f"error: workload process exited {code} without a result; see "
              f"{run_dir / 'worker.log'}", file=sys.stderr)
        return 1

    # a scenario fails when any of its calls exits non-zero or its report
    # fails a check; reports are deterministic, so one check covers every round
    bad = {c[1] for c in result["calls"] if c[3] != 0}
    correct = True
    for idx, sc in enumerate(scenarios):
        if idx in bad:
            continue
        try:
            problems = checks.check(sc, load_payload(sc, run_dir))
        except (OSError, ValueError) as exc:
            problems = [f"unreadable output: {exc}"]
        for p in problems:
            print(f"check failed: {sc.name}: {p}", file=sys.stderr)
        if problems:
            correct = False
            bad.add(idx)
    attempted = rounds * len(scenarios)
    failed = sum(1 for c in result["calls"] if c[1] in bad)

    walls = [c[2] for c in result["calls"]]
    if args.trace:
        metrics = result["per_layer"]
    else:
        values = {
            "wall_s": sum(walls) / rounds,
            "scenario_p50_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    env = {k: result.get(k) for k in ("python", "numpy", "scipy", "openblas", "blas_threads")}
    record = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
              "scenarios": len(scenarios), "env": env, "calls": result["calls"],
              "setup_probes_s": probes, "peak_rss_mb": peak_rss_mb,
              "worker_cpu_s": usage.ru_utime + usage.ru_stime,
              "worker_exit": code, "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload} seed {args.seed}: {rounds} round(s) of "
          f"{len(scenarios)} scenario(s), wall {sum(walls):.3f} s, "
          f"run {time.monotonic() - started:.1f} s")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

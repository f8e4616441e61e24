"""Tests of the benchmark itself: python3 -m pytest floqbench -q"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from floqscat.cli import run_scenario  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------
# seeded inputs
# --------------------------------------------------------------------------

def _dump(scenarios):
    return [json.dumps([sc.config, sc.files], sort_keys=True) for sc in scenarios]


def _shape(cfg):
    """The fields that set the amount of work, which no seed may change."""
    params = {k: v for k, v in cfg["parameters"].items() if k != "lambda"}
    lattice = cfg["model"].get("lattice", {})
    return cfg["task"], params, lattice.get("sites"), cfg.get("sweep")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_deterministic(workload):
    assert _dump(workloads.make(workload, 7)) == _dump(workloads.make(workload, 7))
    a, b = workloads.make(workload, 7), workloads.make(workload, 8)
    assert [_shape(sc.config) for sc in a] == [_shape(sc.config) for sc in b]
    if workload != "ring-scatter":   # ring-scatter's seed reaches the CLI as --seed
        assert _dump(a) != _dump(b)


def test_ring_bound_slots_stay_in_their_ranges():
    for seed in range(20):
        for sc, slot in zip(workloads.make("ring-bound", seed), workloads.RING_BOUND_SLOTS):
            lat = sc.config["model"]["lattice"]
            (lo, hi), widths = slot[3], slot[4]
            assert lo <= lat["well_depth"] <= hi and lat["support_width"] in widths


# --------------------------------------------------------------------------
# tracing wrappers
# --------------------------------------------------------------------------

def test_wrappers_rebind_and_restore():
    import floqscat
    from floqscat import cli, floquet, model, numerics, propagation, scattering

    evaluate = model.PeriodicHamiltonian.__dict__["evaluate"]
    holders = [(m, "expm_hermitian") for m in (numerics, propagation, scattering, cli, floqscat)]
    holders += [(m, "monodromy") for m in (propagation, floquet, scattering, cli, floqscat)]
    before = {(m.__name__, name): getattr(m, name) for m, name in holders}

    tracer = spans.Tracer()
    with tracer:
        for m, name in holders:
            assert getattr(m, name) is not before[m.__name__, name], (m.__name__, name)
            assert getattr(m, name).__wrapped__ is before[m.__name__, name]
        assert model.PeriodicHamiltonian.__dict__["evaluate"] is not evaluate
        result = propagation.monodromy(model.rabi_model(0.3, 0.8), 0.0,
                                       propagation.PropagatorSchedule(16, 4))
    for m, name in holders:
        assert getattr(m, name) is before[m.__name__, name], (m.__name__, name)
    assert model.PeriodicHamiltonian.__dict__["evaluate"] is evaluate
    assert np.allclose(np.abs(result.eig.values), 1.0)

    summary = tracer.summary()
    assert summary["propagation.monodromy"]["calls"] == 1
    assert summary["numerics.expm_hermitian"]["calls"] == 16
    assert summary["model.evaluate"]["calls"] == 32
    for row in summary.values():
        assert 0.0 <= row["self"] <= row["total"] + 1e-9
    m = tracer.metrics()
    assert m["propagation.steps"]["value"] == 16 and m["propagation.periods"]["value"] == 1.0
    assert m["numerics.eig_n3"]["value"] == 16 * 2**3 + 2**3


def test_recursive_call_counted_once():
    from floqscat import model, propagation

    with spans.Tracer() as tracer:
        propagation.propagate(model.rabi_model(), 0.5, 0.0, propagation.PropagatorSchedule(8, 2))
    m = tracer.metrics()
    assert m["propagation.propagate.calls"]["value"] == 2    # t < s recurses once
    assert m["propagation.steps"]["value"] == 4 and m["propagation.periods"]["value"] == 0.5


# --------------------------------------------------------------------------
# metric names and units
# --------------------------------------------------------------------------

def test_benchmark_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == {
        k: unit for k, (unit, _) in spans.PER_LAYER.items()}
    # fiber-batch runs by hand only: its Python-bound calls swing up to 2x
    # with the reference machine's speed (README), too much for the largest bound
    assert [w["name"] for w in BENCH["workloads"]] == ["ring-scatter", "ring-bound"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fiber-batch", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)


def test_no_result_without_source_tree(tmp_path):
    (tmp_path / "floqbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "floqbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "floqbench/run.py", "--workload", "ring-bound", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# --------------------------------------------------------------------------
# output checks reject perturbed reports
# --------------------------------------------------------------------------

def _fiber(task, tag, params, sweep=None):
    """A fiber-batch scenario on model `tag`, with the task and parameters replaced."""
    sc = copy.deepcopy(next(s for s in workloads.fiber_batch(3) if s.name == f"mono-{tag}"))
    sc.task = task
    sc.config.update(task=task, parameters=params)
    if sweep:
        sc.config["sweep"] = sweep
        sc.sweep = True
    return sc


def _report(sc, tmp_path):
    cfg = copy.deepcopy(sc.config)
    if "file" in cfg["model"]:
        for rel, payload in sc.files.items():
            (tmp_path / rel).write_text(json.dumps(payload))
        cfg["model"]["file"] = str(tmp_path / Path(cfg["model"]["file"]).name)
    if sc.sweep:
        from floqscat.cli import run_sweep
        return [{k: str(v) for k, v in row.items()} for row in run_sweep(cfg)]
    return json.loads(json.dumps(run_scenario(cfg)))


def _rejects(sc, report, path, value):
    bad = copy.deepcopy(report)
    target = bad["results"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    return checks.check(sc, bad)


FIBER_CASES = [
    ("monodromy", "rabi1", {"steps_per_period": 256, "order": 4},
     [(("quasi_energies", 0), lambda x: x + 1e-4), (("unitarity_defect",), 1e-8),
      (("self_convergence_difference",), 1e-3)]),
    ("monodromy", "harmonic3", {"steps_per_period": 128, "order": 4},
     [(("quasi_energies", 2), lambda x: x - 1e-4)]),
    ("floquet-spectrum", "rabi2", {"n_modes": 16},
     [(("interior_folded", 3), lambda x: x + 1e-4), (("shift_commutation_defect",), 1e-6)]),
    ("correspondence", "fleet4", {"n_modes": 12, "steps_per_period": 128, "order": 4},
     [(("theta_phases", 1), lambda x: x + 1e-4)]),
    ("correspondence", "rabi3", {"n_modes": 16, "steps_per_period": 128, "order": 4},
     [(("theta_phases", 0), lambda x: x - 1e-4), (("max_match_distance",), 1e-5),
      (("coverage_distance",), 1e-5), (("mode_eigen_defect",), 1e-5)]),
    ("resolvent-check", "harmonic2", {"lambda": [0.7, 1.1], "n_t": 64, "n_modes": 4},
     [(("r0_constant_value", 0, 0), lambda x: x + 1e-3), (("adjoint_defect",), 1e-8),
      (("factorization_defect",), 1e-8), (("block_q_norm",), float("nan"))]),
]


@pytest.mark.parametrize("task,tag,params,perturbations", FIBER_CASES,
                         ids=[c[0] + "-" + c[1] for c in FIBER_CASES])
def test_fiber_checks_reject_perturbed_reports(task, tag, params, perturbations, tmp_path):
    sc = _fiber(task, tag, params)
    report = _report(sc, tmp_path)
    assert checks.check(sc, report) == []
    for path, value in perturbations:
        assert checks.check(sc, report) == []
        assert _rejects(sc, report, path, value), path


def test_sweep_checks_reject_failed_or_unordered_rows(tmp_path):
    sc = _fiber("resolvent-check", "fleet3", {"n_t": 32, "n_modes": 4},
                sweep={"parameter": "eta", "values": [4.0, 16.0, 64.0]})
    rows = _report(sc, tmp_path)
    assert checks.check(sc, rows) == []
    swapped = copy.deepcopy(rows)
    swapped[0]["headline_value"], swapped[1]["headline_value"] = (
        rows[1]["headline_value"], rows[0]["headline_value"])
    assert checks.check(sc, swapped)
    failed = copy.deepcopy(rows)
    failed[2]["status"] = "failed: singular"
    assert checks.check(sc, failed)


@pytest.fixture(scope="module")
def bound_report():
    sc = workloads.ring_bound(2)[0]
    return sc, json.loads(json.dumps(run_scenario(sc.config)))


def test_bound_state_checks_reject_perturbed_reports(bound_report):
    sc, report = bound_report
    assert checks.check(sc, report) == []
    assert _rejects(sc, report, ("bound_states", 0, "quasi_energy"), lambda x: x + 1e-4)
    assert _rejects(sc, report, ("verdicts", 1, "confirmed"), False)
    assert _rejects(sc, report, ("verdicts", 0, "refined"), lambda x: x + 1e-3)
    assert _rejects(sc, report, ("bound_states",), [])


def test_wave_operator_gates_reject_perturbed_reports(bound_report):
    # the gates and the bound-state check on a report laid out like the
    # wave-operator task's, with bound states from the ring-bound run
    sc, bound = bound_report
    sc = copy.deepcopy(sc)
    sc.task = "wave-operators"
    results = {key: gate / 10 for key, gate in checks.SCATTER_GATES.items()}
    results.update(converged_fraction=1.0, bound_states=bound["results"]["bound_states"])
    report = {"task": "wave-operators", "results": results}
    assert checks.check(sc, report) == []
    for key, gate in checks.SCATTER_GATES.items():
        assert _rejects(sc, report, (key,), 2 * gate), key
    assert _rejects(sc, report, ("converged_fraction",), 0.8)
    assert _rejects(sc, report, ("bound_states", 1, "quasi_energy"), lambda x: x - 1e-4)

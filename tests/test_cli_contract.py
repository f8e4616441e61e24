"""The CLI's exit-code contract on fuzzed configs: a small valid config per
task with one field of its parameter table replaced by a wrong type, a bool,
NaN or infinity, an out-of-range number, or an unknown key exits 2, names
the field on stderr and raises nothing.  Every draw fails validation before
any computation starts.  A list of inputs that once broke the contract (a
wrong answer, a traceback or a hang) checks each one's exit code and message.
Valid lattice configs, drawn over every field of the lattice table and of the
parameter tables of the tasks that step a lattice, exit 0, 2 or 3, name the
field on an exit 2, and give the same bytes when run again; so do valid configs
on a builtin model (its fields over the whole finite float range) or a model
file, drawn over every other task and maybe swept."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import floqscat
from floqscat.cli import (BUILTINS, LATTICE, LATTICE_TASKS, MAX_STEPS, OUTPUT, PARAMETERS, SWEEP,
                          _run_one, main, run_scenario)
from floqscat.model import PeriodicHamiltonian
from floqscat.propagation import MIN_STEPS, ORDERS
from floqscat.resolvent import MAX_DENSE_SIDE, MAX_IM_LAMBDA, ScanOperators
from floqscat.scattering import GAP_RUN

from oracles import save_model

RING = {"lattice": {"sites": 40, "hopping": 1.0, "well_depth": -1.8, "drive_amp": 0.5,
                    "support_width": 4}}
RING_HORIZON = 5   # wrap_horizon: 40 sites / (4 x 2 |hopping|)

# (model, parameters, mode support of the model, width of its dense mode-space side:
# the dimension, or the potential's support |S| where a cutoff builds ScanOperators):
# valid, and cheap were they run
VALID = {
    "monodromy": ({"builtin": "rabi"}, {"steps_per_period": 16, "order": 2}, 1, 2),
    "floquet-spectrum": ({"builtin": "rabi"}, {"n_modes": 4}, 1, 2),
    "correspondence": ({"builtin": "rabi"}, {"n_modes": 4, "steps_per_period": 16}, 1, 2),
    "resolvent-check": ({"builtin": "fleet-d3"}, {"lambda": [2.0, 1.0], "n_t": 16, "n_modes": 4},
                        2, 3),
    "wave-operators": (RING, {"steps_per_period": 8, "n_max": 4}, 1, 4),
    "bound-states": (RING, {"steps_per_period": 8, "n_modes": 8, "scan_modes": 4}, 1, 4),
}

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
FINITE = st.floats(allow_nan=False, allow_infinity=False)
OTHER_JSON = st.text(max_size=4) | st.none() | st.dictionaries(st.text(max_size=3),
                                                               st.integers(), max_size=2)
BAD_IM = (st.just(0.0) | st.floats(min_value=MAX_IM_LAMBDA, exclude_min=True, allow_infinity=False)
          | st.floats(max_value=-MAX_IM_LAMBDA, exclude_max=True, allow_infinity=False))


def out_of_range(field: str, support: int, width: int):
    """Numbers of the right type that the field's rule rejects (None: no rule)."""
    # the least cutoff N with (2 N + 1) width > MAX_DENSE_SIDE
    cutoffs = st.integers(max_value=support - 1) | st.integers(
        min_value=(MAX_DENSE_SIDE // width - 1) // 2 + 1)
    return {
        "steps_per_period": (st.integers(max_value=MIN_STEPS - 1)
                             | st.integers(min_value=MAX_STEPS + 1)),
        "order": st.integers().filter(lambda n: n not in ORDERS),
        "n_modes": cutoffs,
        "scan_modes": cutoffs,
        "floquet_modes": cutoffs,
        "n_t": st.integers(max_value=0) | st.integers(min_value=MAX_DENSE_SIDE // width + 1),
        "translates": st.integers(max_value=-1) | st.integers(min_value=RING_HORIZON + 1),
        "n_max": st.integers(max_value=GAP_RUN - 1) | st.integers(min_value=RING_HORIZON + 1),
        "average_window": (st.floats(max_value=0.0, allow_infinity=False)
                           | st.floats(min_value=1.0, exclude_min=True, allow_infinity=False)),
        "eta": BAD_IM,
        "lambda": st.tuples(FINITE, BAD_IM).map(list),
    }.get(field)


def bad_values(typ, field: str, support: int, width: int):
    kinds = [OTHER_JSON]
    if typ is not bool:
        kinds.append(st.booleans())
    if typ is int:
        kinds.append(st.floats())                   # 8.0 is not an int; NaN and inf included
    if typ is float:
        kinds.append(NON_FINITE)
    if typ is bool:
        kinds.append(st.integers() | FINITE)
    if isinstance(typ, tuple):
        kinds += [st.booleans().map(lambda b: [b, 1.0]), FINITE,
                  st.lists(FINITE, max_size=4).filter(lambda xs: len(xs) != len(typ)),
                  NON_FINITE.map(lambda x: [2.0, x])]
    if out_of_range(field, support, width) is not None:
        kinds.append(out_of_range(field, support, width))
    return st.one_of(kinds)


# every field of every task's table, and None for an unknown key
CASES = [(task, field) for task in sorted(VALID) for field in [*PARAMETERS[task], None]]


@pytest.mark.parametrize("task, field", CASES)
@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_one_bad_field_exits_2_naming_it(task, field, data):
    model, params, support, width = VALID[task]
    table = PARAMETERS[task]
    params = dict(params)
    if field is None:
        field = data.draw(st.from_regex(r"[a-z_]{1,12}", fullmatch=True)
                          .filter(lambda key: key not in table), label="unknown key")
        value = data.draw(st.integers(), label="value")
    else:
        value = data.draw(bad_values(table[field].typ, field, support, width), label="value")
        for name, spec in table.items():   # the field's alternative gives way to it
            if spec.alt == field:
                params.pop(name, None)
    params[field] = value

    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.json"
        cfg.write_text(json.dumps({"task": task, "model": model, "parameters": params}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["--config", str(cfg), "--out", tmp])
        assert not list(Path(tmp).glob("*.report.json"))
    err = err.getvalue()
    assert code == 2, err
    assert f"'parameters.{field}" in err and "Traceback" not in err


def lattice(**fields):
    return {"lattice": {"sites": 40, "well_depth": -1.8, "drive_amp": 0.5, **fields}}


HUGE_DRIVE = {"builtin": "rabi", "v": 1e300}
# (task, model, parameters, exit code, text the message holds)
CONTRACT = [
    # a norm bound past 1e19 once wrapped the substep count in its cast to int; no
    # steps_per_period up to MAX_STEPS can step the model, so the model is named
    ("monodromy", HUGE_DRIVE, {"order": 2, "steps_per_period": 64}, 2, "'model'"),
    # and its order-4 square overflowed a Python float
    ("monodromy", HUGE_DRIVE, {"order": 4, "steps_per_period": 64}, 2, "'model'"),
    # a shift-invert shift exactly on an eigenvalue of K once exited 3 from a singular
    # sparse LU of K - sigma; the certified partners solve off the axis
    ("bound-states", lattice(hopping=0.0),
     {"steps_per_period": 64, "n_modes": 4, "scan_modes": 4}, 0, "case.report.json"),
    ("monodromy", lattice(sites=10**7), {}, 2, "'model.lattice.sites'"),
    ("monodromy", lattice(sites=7), {}, 2, "'model.lattice.sites'"),
    ("monodromy", lattice(support_width=0), {}, 2, "'model.lattice.support_width'"),
    ("monodromy", lattice(support_width=-3), {}, 2, "'model.lattice.support_width'"),
    # a horizon of 1 or 2 iterates (L / 8 at hopping 1), below GAP_RUN, once admitted the
    # default n_max and exited 3 with "no probe stabilized"
    ("wave-operators", lattice(sites=12, well_depth=-1.0), {}, 2, "'parameters.n_max'"),
    ("wave-operators", lattice(sites=20, well_depth=-1.0), {}, 2, "'parameters.n_max'"),
    # a width past the ring once built its support list until MemoryError, and an entry
    # past int64 raised OverflowError in build_lattice
    ("monodromy", lattice(support_width=10**9), {}, 2, "'model.lattice.support_width'"),
    ("monodromy", lattice(support=[10**29]), {}, 2, "'model.lattice.support'"),
    ("monodromy", lattice(support=[3, -1]), {}, 2, "'model.lattice.support'"),
    # a cutoff whose support block V_S is (2 N + 1)|S| = 20005 on a side once asked
    # for 5.96 GiB; translates past the horizon for a 6.5 GB free-orbit block; and
    # 10**23 steps for an array numpy cannot allocate
    ("bound-states", lattice(sites=64, support_width=5), {"n_modes": 2000}, 2,
     "'parameters.n_modes'"),
    # without a potential |S| = 0, and the mode-space vectors' (2 N + 1) L rows bound
    # the cutoff
    ("bound-states", {"lattice": {"sites": 16}}, {"steps_per_period": 16, "scan_modes": 10**6},
     2, "'parameters.scan_modes'"),
    ("wave-operators", lattice(sites=256, well_depth=-0.8), {"translates": 100000}, 2,
     "'parameters.translates'"),
    # past 2**20 / 512 entries per probe at hopping 1e-3, whose horizon is 64000 iterates:
    # 4096 translates of a 4096-site ring once ran out of memory in the free orbit
    ("wave-operators", lattice(sites=512, hopping=1e-3), {"n_max": 4, "translates": 1024},
     2, "'parameters.translates'"),
    ("monodromy", lattice(), {"steps_per_period": 10**23}, 2, "'parameters.steps_per_period'"),
    # a drive that 65536 steps per period would step names the schedule; one that even
    # MAX_STEPS = 2**20 cannot step names the model
    ("monodromy", {"builtin": "rabi", "v": 1e4}, {"order": 4, "steps_per_period": 8}, 2,
     "'parameters.steps_per_period'"),
    ("monodromy", {"builtin": "rabi", "v": 1e15}, {"order": 4, "steps_per_period": 2**20}, 2,
     "'model'"),
    # on the free spectrum to round-off (H0 = 0, lambda = i eta), e^{i(e_a - lambda)} - 1
    # rounds to 0 below eta ~ 1.1e-16: the kernel once divided by it and the report
    # failed on a NaN defining_residual
    ("resolvent-check", {"builtin": "rabi"}, {"eta": 1e-16}, 3,
     "free resolvent singular at lambda = 1e-16j"),
    ("resolvent-check", {"builtin": "rabi"}, {"eta": 1e-15}, 0, "case.report.json"),
    # each once raised numpy's overflow RuntimeWarning before its diagnosis: the
    # Taylor plan's cost of a norm bound near the float range, and the residual's norm
    ("monodromy", {"builtin": "rabi", "delta": 1e154, "v": 1e154}, {"steps_per_period": 8}, 2,
     "'model'"),
    ("resolvent-check", {"builtin": "rabi", "delta": 1e300}, {"eta": 1.0, "n_t": 8}, 3,
     "non-finite value inf at results.defining_residual"),
    # an undriven well near the float range: LAPACK's eigh of the autonomous step did
    # not converge and raised LinAlgError
    ("monodromy", {"lattice": {"sites": 42, "hopping": 2.3413635794465077e-106,
                               "well_depth": -4.511149746508169e+189, "drive_amp": 0.0,
                               "support": [12, 7]}},
     {"steps_per_period": 16, "order": 2, "start": 0.7916719188821228,
      "self_convergence": False}, 3, "largest entry 4.511e+189"),
]


@pytest.mark.parametrize("task, model, params, code, text", CONTRACT)
def test_contract_case(task, model, params, code, text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "case.json"
        cfg.write_text(json.dumps({"task": task, "model": model, "parameters": params}))
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            got = main(["--config", str(cfg), "--out", tmp])
    assert got == code, err.getvalue()
    # a failure's message, or a success's written report path
    assert text in err.getvalue() + out.getvalue() and "Traceback" not in err.getvalue()


@pytest.mark.parametrize("model, params, text", [
    # Q's block past the float range: LAPACK's SVD of it raised LinAlgError, and then
    # the kernel's reciprocal of a subnormal e^{w_a} - 1 overflowed to a NaN residual
    ({"builtin": "rabi"}, {"lambda": [-2.225073858507e-311, -2.225073858507e-311], "n_t": 8,
                           "n_modes": 6}, "free resolvent singular at lambda"),
    ({"builtin": "rabi", "v": 1.7976931348623157e308, "delta": -9.523532891122451e-263},
     {"eta": -9.523532891122451e-263, "n_t": 11, "n_modes": 3},
     "non-finite value inf at results.defining_residual"),
    # well plus drive past the float range: the NaN asymmetry of V(t_j) raised ValueError
    (lattice(sites=8, well_depth=1e308, drive_amp=1e308), {"eta": 1.0, "n_t": 4, "n_modes": 2},
     "V(t_j) on the 4-point grid leaves the float range"),
])
def test_resolvent_past_the_float_range_exits_3(model, params, text):
    test_contract_case("resolvent-check", model, params, 3, text)


def test_subnormal_hopping_names_the_iterates():
    # a wrap-around horizon L / (8 |hopping|) past the float range once raised
    # OverflowError in its cast to int; the default n_max = horizon is above the ceiling
    test_contract_case("wave-operators", lattice(sites=16, hopping=2.2e-311), {}, 2,
                       "'parameters.n_max': n_max 9223372036854775808 above the iterate ceiling")


def test_window_leak_exits_3_naming_it(tmp_path, monkeypatch):
    # a time-average kick past the light cone's window is a numerical failure, named
    # with its time, its size and the tolerance: the tolerance is forced to 0 once the
    # scenario's Theta has settled its window
    import floqscat.cli as cli
    import floqscat.propagation as propagation

    build = cli.monodromy

    def settled(*args):
        mono = build(*args)
        monkeypatch.setattr(propagation, "WINDOW_BORDER_TOL", 0.0)
        return mono

    monkeypatch.setattr(cli, "monodromy", settled)
    cfg = tmp_path / "leak.json"
    cfg.write_text(json.dumps({"task": "wave-operators",
                               "model": lattice(sites=256, well_depth=-0.8, support_width=5),
                               "parameters": {"steps_per_period": 64, "floquet_modes": 3}}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["--config", str(cfg), "--out", str(tmp_path)])
    assert code == 3, err.getvalue()
    assert "kick at t = 0.125 leaves the light cone's window" in err.getvalue()
    assert "WINDOW_BORDER_TOL = 0e+00" in err.getvalue() and "Traceback" not in err.getvalue()
    assert not (tmp_path / "leak.report.json").exists()


@pytest.mark.parametrize("sweep, fmt, code", [(False, "csv", 2), (True, "json", 2),
                                              (False, "json", 0), (True, "csv", 0),
                                              (False, None, 0), (True, None, 0)])
def test_output_format_is_the_output_kind(tmp_path, sweep, fmt, code):
    # a scenario writes a JSON report and a sweep a CSV table: a format naming the
    # other kind once exited 0 and wrote the one kind under the other's name
    output = {"path": "out.txt"} if fmt is None else {"path": "out.txt", "format": fmt}
    cfg = {"task": "monodromy", "model": {"builtin": "rabi"},
           "parameters": {"steps_per_period": 16, "order": 2}, "output": output}
    if sweep:
        cfg["sweep"] = {"parameter": "steps_per_period", "values": [16, 32]}
    (tmp_path / "case.json").write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        got = main(["--config", str(tmp_path / "case.json"), "--out", str(tmp_path)])
    assert got == code, err.getvalue()
    if code:
        assert "'config.output.format'" in err.getvalue() and "Traceback" not in err.getvalue()
        assert not (tmp_path / "out.txt").exists()
    else:
        text = (tmp_path / "out.txt").read_text()
        assert text.startswith("parameter,value,") if sweep else json.loads(text)["results"]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("sweep", [False, True])
@pytest.mark.parametrize("path", ["a\0b", "c.json/x"], ids=["nul", "under-a-file"])
def test_refused_output_path_exits_2_naming_it(tmp_path, path, sweep, jobs):
    # a NUL in the path once ended in a traceback (ValueError from open), and a path
    # under an existing file exited 2 as "cannot read config", naming no field; the
    # other config's report is written either way
    (tmp_path / "c.json").write_text("{}")
    cfg = {"task": "floquet-spectrum", "model": {"builtin": "rabi"},
           "parameters": {"n_modes": 4}}
    (tmp_path / "good.json").write_text(json.dumps(cfg))
    cfg["output"] = {"path": path}
    if sweep:
        cfg["sweep"] = {"parameter": "n_modes", "values": [2, 4]}
    (tmp_path / "refused.json").write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["--config", str(tmp_path / "refused.json"),
                     "--config", str(tmp_path / "good.json"),
                     "--out", str(tmp_path), "--jobs", str(jobs)])
    assert code == 2, err.getvalue()
    assert "invalid field 'config.output.path'" in err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert json.loads((tmp_path / "good.report.json").read_text())["results"]


def test_decoupled_well_sites_are_one_bound_state(tmp_path):
    # at hopping 0 the five well sites are decoupled copies of one state at
    # quasi-energy 2 pi - 1.8, off the flat band at 0 (CONTRACT's hopping-0 row)
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({"task": "bound-states", "model": lattice(hopping=0.0),
                               "parameters": {"steps_per_period": 64, "n_modes": 4,
                                              "scan_modes": 4}}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    results = json.loads((tmp_path / "flat.report.json").read_text())["results"]
    [state] = results["bound_states"]
    assert state["multiplicity"] == 5
    assert abs(state["quasi_energy"] - (2 * math.pi - 1.8)) <= 1e-12
    assert [v["confirmed"] for v in results["verdicts"]] == [True]


def undriven_pair(well_depth):
    """A bound-states config: the two decoupled well sites of an undriven 8-site ring."""
    return {"task": "bound-states",
            "model": {"lattice": {"sites": 8, "hopping": 0.0, "well_depth": well_depth,
                                  "drive_amp": 0.0, "support_width": 2}},
            "parameters": {"n_modes": 4, "verify": False}}


def test_huge_well_refused_at_once(tmp_path):
    # the cross-check once tried every 2 pi translate inside K's row-sum bound: at
    # well 2.1e16 numpy's arange of them asked for 47.5 PiB and raised MemoryError
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(undriven_pair(2.1e16)))
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["--config", str(cfg), "--out", str(tmp_path)])
    assert time.perf_counter() - start < 1.0
    assert code == 3, err.getvalue()
    assert "not reproduced by the mode-space spectrum" in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_deep_well_certified_near_its_energy(monkeypatch):
    # at well 1e4 the two sites' phase, 1e4 mod 2 pi, is certified at the translate
    # nearest the sites' energy 1e4: at most 2 N + 1 null scans per phase, where the
    # walk over K's row-sum bound took 4768
    calls, null_pair = [], ScanOperators.null_pair
    monkeypatch.setattr(ScanOperators, "null_pair",
                        lambda self, zeta: calls.append(zeta) or null_pair(self, zeta))
    [state] = run_scenario(undriven_pair(1e4))["results"]["bound_states"]
    assert state["multiplicity"] == 2
    assert abs(state["quasi_energy"] - math.fmod(1e4, 2 * math.pi)) <= 1e-10
    assert len(calls) <= 2 * (2 * 4 + 1)


def test_refusal_past_the_float_range_names_the_spacing(tmp_path):
    # past |E| ~ 2^52 CROSS_CHECK_TOL no float translate of a state's phase near its
    # energy lies within the tolerance: at well 1e11 (spacing 1.5e-5) the refusal
    # once blamed the cutoff N alone; at 1e10 (spacing 1.9e-6) the pair certifies
    [state] = run_scenario(undriven_pair(1e10))["results"]["bound_states"]
    assert state["multiplicity"] == 2
    assert abs(state["quasi_energy"] - 5.773954235013852) <= 1e-9
    cfg = tmp_path / "well.json"
    cfg.write_text(json.dumps(undriven_pair(1e11)))
    written, code, message = _run_one(str(cfg), str(tmp_path), None)
    assert (written, code) == (None, 3), message
    assert "not reproduced by the mode-space spectrum" in message
    assert "certified within 1e-05" in message
    assert "floats near the state's energy 1.000000e+11 lie 1.5e-05 apart" in message


def test_large_hopping_lattice_finishes(tmp_path):
    # the light-cone search once ran forever past |hopping| ~ 710; in a
    # subprocess, so that a regression fails here instead of stalling the suite
    cfg = tmp_path / "hop.json"
    cfg.write_text(json.dumps({"task": "monodromy", "model": lattice(hopping=1e3),
                               "parameters": {"steps_per_period": 64, "order": 2,
                                              "self_convergence": False}}))
    src = str(Path(floqscat.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "floqscat.cli", "--config", str(cfg),
                           "--out", str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "hop.report.json").exists()



def test_lattice_resolvent_check_within_memory(tmp_path):
    # a fiber wider than N_t^2 once formed a d x d x d eigenprojector stack
    # (256 MiB at 256 sites) for a 4 MiB grid matrix, and at 4096 sites failed
    # with a MemoryError; the run's traced peak stays below that one array
    sites = 256
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({"task": "resolvent-check", "model": lattice(sites=sites),
                               "parameters": {"lambda": [2.0, 1.0], "n_t": 2, "n_modes": 1}}))
    err = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["--config", str(cfg), "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err.getvalue()
    assert peak < 16 * sites**3, peak


# a value for every field of the parameter tables of the tasks that step a lattice,
# small enough that each run is cheap: a field added to one of those tables without
# a value here fails the test
FUZZ_TASKS = ("monodromy", "correspondence", *LATTICE_TASKS)
FUZZ_VALUES = {
    "steps_per_period": st.sampled_from([8, 16, 32, 64]),
    "order": st.sampled_from(ORDERS),
    "start": st.floats(0.0, 1.0, exclude_max=True),
    "self_convergence": st.booleans(),
    "n_modes": st.integers(1, 6),
    "n_max": st.integers(1, 8),
    "translates": st.integers(0, 3),
    "average_window": st.floats(0.125, 1.0),
    "floquet_modes": st.integers(1, 4),
    "scan_modes": st.integers(1, 4),
    "verify": st.booleans(),
}


@st.composite
def lattice_configs(draw):
    """A valid lattice config: 8-48 sites, hopping, well and drive over the whole
    finite float range, 1-4 declared sites anywhere on the ring (support_width,
    which they override, is left out)."""
    sites = draw(st.integers(8, 48), label="sites")
    lattice = {"sites": sites, "hopping": draw(FINITE), "well_depth": draw(FINITE),
               "drive_amp": draw(FINITE),
               "support": draw(st.lists(st.integers(0, sites - 1), min_size=1, max_size=4,
                                        unique=True))}
    assert set(LATTICE) == {*lattice, "support_width"}
    task = draw(st.sampled_from(FUZZ_TASKS), label="task")
    params = {name: draw(FUZZ_VALUES[name], label=name) for name in PARAMETERS[task]}
    return {"task": task, "model": {"lattice": lattice}, "parameters": params}


@settings(max_examples=25, derandomize=True, deadline=None)
@given(cfg=lattice_configs())
def test_valid_lattice_configs_keep_the_contract(cfg):
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(cfg))
        for run in ("first", "again"):
            written, code, message = _run_one(str(path), str(Path(tmp) / run), 3)
            outcomes.append((code, message, written and Path(written).read_bytes()))
    code, message, _ = outcomes[0]
    assert code in (0, 2, 3), message
    if code == 2:
        field = message.split("'")[1]     # invalid field '<path>': ...
        names = [f"parameters.{name}" for name in cfg["parameters"]]
        names += ["model", "model.lattice", *(f"model.lattice.{name}" for name in LATTICE)]
        assert field in names, message
    assert outcomes[0] == outcomes[1]


# the other tasks' fields: every finite lambda, eta off the real axis up to MAX_IM_LAMBDA
IM_LAMBDA = st.floats(-MAX_IM_LAMBDA, MAX_IM_LAMBDA).filter(bool)
MODEL_VALUES = {**FUZZ_VALUES, "n_t": st.integers(1, 16), "eta": IM_LAMBDA,
                "lambda": st.tuples(FINITE, IM_LAMBDA).map(list)}
MODEL_TASKS = tuple(task for task in PARAMETERS if task not in LATTICE_TASKS)
# an output path under the run's own directory (no "/"), maybe holding a NUL; a
# format of either kind or any other string
OUTPUT_VALUES = {"path": st.text(st.characters(exclude_characters="/") | st.just("\0"),
                                 max_size=6),
                 "format": st.sampled_from(["json", "csv"]) | st.text(max_size=4)}


@st.composite
def two_harmonic_models(draw):
    """A PeriodicHamiltonian of 1-3 sites with the harmonics +-1 and +-2, each of a
    drawn scale: H0 Hermitian and H_-n = H_n^dagger exactly."""
    dim = draw(st.integers(1, 3), label="dim")
    scales = draw(st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 2.0)), label="scales")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))

    def matrix():
        return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))

    h0 = matrix()
    modes = {}
    for n, scale in enumerate(scales, start=1):
        modes[n] = scale * matrix()
        modes[-n] = modes[n].conj().T
    return PeriodicHamiltonian(h0=(h0 + h0.conj().T) / 2, modes=modes)


@st.composite
def model_configs(draw):
    """A valid config on a builtin model, each of its fields left out or drawn over the
    whole finite float range, or on a model file (None: the test writes the drawn
    model with save_model); a task that accepts it, with a value for every field of
    its table (one of a field and its alternative), maybe a sweep over one of
    them, and maybe an output object (OUTPUT_VALUES, each field maybe left out).
    Returns (config, model to write or None)."""
    if draw(st.booleans(), label="builtin"):
        name = draw(st.sampled_from(sorted(BUILTINS)), label="builtin name")
        fields = draw(st.fixed_dictionaries({}, optional=dict.fromkeys(BUILTINS[name][1], FINITE)),
                      label="builtin fields")
        model, written = {"builtin": name, **fields}, None
    else:
        model, written = {"file": None}, draw(two_harmonic_models(), label="model file")
    task = draw(st.sampled_from(MODEL_TASKS), label="task")
    table = PARAMETERS[task]
    names = list(table)
    for name, field in table.items():
        if field.alt is not None:   # exactly one of the two
            names.remove(draw(st.sampled_from([name, field.alt]), label=f"{name} or {field.alt}"))
    cfg = {"task": task, "model": model,
           "parameters": {name: draw(MODEL_VALUES[name], label=name) for name in names}}
    if draw(st.booleans(), label="sweep"):
        swept = draw(st.sampled_from(names), label="swept")
        cfg["sweep"] = {"parameter": swept,
                        "values": draw(st.lists(MODEL_VALUES[swept], min_size=1, max_size=3),
                                       label="values")}
        assert set(cfg["sweep"]) == set(SWEEP)
    if draw(st.booleans(), label="output"):
        cfg["output"] = draw(st.fixed_dictionaries({}, optional=OUTPUT_VALUES), label="output")
        assert set(OUTPUT_VALUES) == set(OUTPUT)
    return cfg, written


def written_output(path, sweep):
    """A written output's bytes; a sweep table's rows without its wall_time_s column."""
    if path is None:
        return None
    if not sweep:
        return Path(path).read_bytes()
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    column = rows[0].index("wall_time_s")
    return [row[:column] + row[column + 1:] for row in rows]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(drawn=model_configs())
def test_valid_model_configs_keep_the_contract(drawn):
    cfg, written = drawn
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        if written is not None:
            cfg["model"]["file"] = str(Path(tmp) / "model.json")
            save_model(written, cfg["model"]["file"])
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(cfg))
        for run in ("first", "again"):
            out, code, message = _run_one(str(path), str(Path(tmp) / run), 3)
            outcomes.append((code, message, written_output(out, "sweep" in cfg)))
    code, message, _ = outcomes[0]
    assert code in (0, 2, 3), message
    if code == 2:
        field = message.split("'")[1]     # invalid field '<path>': ...
        names = [f"parameters.{name}" for name in cfg["parameters"]]
        names += ["model", *(f"model.{name}" for name in cfg["model"])]
        names += ["config.output.path", "config.output.format"]
        assert field in names, message
    assert outcomes[0] == outcomes[1]

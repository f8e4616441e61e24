"""The CLI's exit-code contract on fuzzed configs: a small valid config per
task with one field of its parameter table replaced by a wrong type, a bool,
NaN or infinity, an out-of-range number, or an unknown key exits 2, names
the field on stderr and raises nothing.  Every draw fails validation before
any computation starts.  A list of inputs that once broke the contract (a
wrong answer, a traceback or a hang) checks each one's exit code and message."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import floqscat
from floqscat.cli import MAX_STEPS, PARAMETERS, main
from floqscat.propagation import MIN_STEPS, ORDERS
from floqscat.resolvent import MAX_DENSE_SIDE, MAX_IM_LAMBDA
from floqscat.scattering import GAP_RUN

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
    # a norm bound past 1e19 once wrapped the substep count in its cast to int
    ("monodromy", HUGE_DRIVE, {"order": 2, "steps_per_period": 64}, 2,
     "'parameters.steps_per_period'"),
    # and its order-4 square overflowed a Python float
    ("monodromy", HUGE_DRIVE, {"order": 4, "steps_per_period": 64}, 2,
     "'parameters.steps_per_period'"),
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
    # without a potential |S| = 0, and the sparse K's (2 N + 1) L rows bound the cutoff
    ("bound-states", {"lattice": {"sites": 16}}, {"steps_per_period": 16, "scan_modes": 10**6},
     2, "'parameters.scan_modes'"),
    ("wave-operators", lattice(sites=256, well_depth=-0.8), {"translates": 100000}, 2,
     "'parameters.translates'"),
    # past 2**20 / 512 entries per probe at hopping 1e-3, whose horizon is 64000 iterates:
    # 4096 translates of a 4096-site ring once ran out of memory in the free orbit
    ("wave-operators", lattice(sites=512, hopping=1e-3), {"n_max": 4, "translates": 1024},
     2, "'parameters.translates'"),
    ("monodromy", lattice(), {"steps_per_period": 10**23}, 2, "'parameters.steps_per_period'"),
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

"""The CLI's exit-code contract on fuzzed configs: a small valid config per
task with one field of its parameter table replaced by a wrong type, a bool,
NaN or infinity, an out-of-range number, or an unknown key exits 2, names
the field on stderr and raises nothing.  Every draw fails validation before
any computation starts."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqscat.cli import PARAMETERS, main
from floqscat.propagation import MIN_STEPS, ORDERS
from floqscat.resolvent import MAX_IM_LAMBDA

RING = {"lattice": {"sites": 40, "hopping": 1.0, "well_depth": -1.8, "drive_amp": 0.5,
                    "support_width": 4}}
RING_HORIZON = 5   # wrap_horizon: 40 sites / (4 x 2 |hopping|)

# (model, parameters, mode support of the model): valid, and cheap were they run
VALID = {
    "monodromy": ({"builtin": "rabi"}, {"steps_per_period": 16, "order": 2}, 1),
    "floquet-spectrum": ({"builtin": "rabi"}, {"n_modes": 4}, 1),
    "correspondence": ({"builtin": "rabi"}, {"n_modes": 4, "steps_per_period": 16}, 1),
    "resolvent-check": ({"builtin": "fleet-d3"}, {"lambda": [2.0, 1.0], "n_t": 16, "n_modes": 4},
                        2),
    "wave-operators": (RING, {"steps_per_period": 8, "n_max": 4}, 1),
    "bound-states": (RING, {"steps_per_period": 8, "n_modes": 8, "scan_modes": 4}, 1),
}

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
FINITE = st.floats(allow_nan=False, allow_infinity=False)
OTHER_JSON = st.text(max_size=4) | st.none() | st.dictionaries(st.text(max_size=3),
                                                               st.integers(), max_size=2)
BAD_IM = (st.just(0.0) | st.floats(min_value=MAX_IM_LAMBDA, exclude_min=True, allow_infinity=False)
          | st.floats(max_value=-MAX_IM_LAMBDA, exclude_max=True, allow_infinity=False))


def out_of_range(field: str, support: int):
    """Numbers of the right type that the field's rule rejects (None: no rule)."""
    return {
        "steps_per_period": st.integers(max_value=MIN_STEPS - 1),
        "order": st.integers().filter(lambda n: n not in ORDERS),
        "n_modes": st.integers(max_value=support - 1),
        "scan_modes": st.integers(max_value=support - 1),
        "floquet_modes": st.integers(max_value=support - 1),
        "n_t": st.integers(max_value=0),
        "translates": st.integers(max_value=-1),
        "n_max": st.integers(max_value=0) | st.integers(min_value=RING_HORIZON + 1),
        "average_window": (st.floats(max_value=0.0, allow_infinity=False)
                           | st.floats(min_value=1.0, exclude_min=True, allow_infinity=False)),
        "eta": BAD_IM,
        "lambda": st.tuples(FINITE, BAD_IM).map(list),
    }.get(field)


def bad_values(typ, field: str, support: int):
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
    if out_of_range(field, support) is not None:
        kinds.append(out_of_range(field, support))
    return st.one_of(kinds)


# every field of every task's table, and None for an unknown key
CASES = [(task, field) for task in sorted(VALID) for field in [*PARAMETERS[task], None]]


@pytest.mark.parametrize("task, field", CASES)
@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_one_bad_field_exits_2_naming_it(task, field, data):
    model, params, support = VALID[task]
    table = PARAMETERS[task]
    params = dict(params)
    if field is None:
        field = data.draw(st.from_regex(r"[a-z_]{1,12}", fullmatch=True)
                          .filter(lambda key: key not in table), label="unknown key")
        value = data.draw(st.integers(), label="value")
    else:
        value = data.draw(bad_values(table[field].typ, field, support), label="value")
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

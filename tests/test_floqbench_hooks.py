"""The traced benchmark's hooks against the names and signatures they read.

floqbench/spans.py wraps every function its TARGETS names and reads some of
their arguments and results.  A rename in floqscat breaks only traced
benchmark runs, so these tests load spans.py from its file, install nothing,
and check what it relies on.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "floqbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("floqbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    # as Tracer.install finds them: a function on its module, a method in its
    # class's own namespace
    for module_name, attr, label in load_spans().TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), label
        else:
            assert callable(getattr(module, attr, None)), label


def test_build_floquet_result_has_matrix():
    # the _build_floquet hook reads result.matrix.shape[0]
    from floqscat.floquet import build_floquet
    from floqscat.model import rabi_model

    assert build_floquet(rabi_model(), 2).matrix.shape[0] > 0


def test_propagate_takes_sched_fourth():
    # the _propagate hook reads (h, s, t, sched) from args[:4]
    from floqscat.propagation import propagate

    assert list(inspect.signature(propagate).parameters)[:4] == ["h", "s", "t", "sched"]

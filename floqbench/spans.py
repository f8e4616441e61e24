"""Span tracing of floqscat's public functions, installed from outside.

`Tracer.install()` wraps each function in `TARGETS` and rebinds every name
under which a floqscat module holds it (`from .numerics import
expm_hermitian` leaves a second reference in `propagation`, `scattering`
and `cli`, and each one is replaced).  Methods are wrapped on their class.
`uninstall()` puts every original back.

Each call records one span (label, parent span, start, end) in memory; self
time is a span's duration minus the time its child spans cover.  A few
wrappers also add counts read from the arguments or the result, such as the
integrator steps a `propagate` call asks for.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import defaultdict

# (module, attribute, label); "Class.method" wraps the method on its class
TARGETS = (
    ("floqscat.numerics", "hermitian_eig", "numerics.hermitian_eig"),
    ("floqscat.numerics", "unitary_eig", "numerics.unitary_eig"),
    ("floqscat.numerics", "expm_hermitian", "numerics.expm_hermitian"),
    ("floqscat.model", "PeriodicHamiltonian.evaluate", "model.evaluate"),
    ("floqscat.propagation", "propagate", "propagation.propagate"),
    ("floqscat.propagation", "monodromy", "propagation.monodromy"),
    ("floqscat.floquet", "build_floquet", "floquet.build_floquet"),
    ("floqscat.floquet", "quasi_spectrum", "floquet.quasi_spectrum"),
    ("floqscat.floquet", "correspondence_report", "floquet.correspondence_report"),
    ("floqscat.resolvent", "block_q", "resolvent.block_q"),
    ("floqscat.resolvent", "bound_state_correspondence", "resolvent.bound_state_correspondence"),
    ("floqscat.resolvent", "r0_matrix", "resolvent.r0_matrix"),
    ("floqscat.resolvent", "r0_apply", "resolvent.r0_apply"),
    ("floqscat.resolvent", "q_factorized", "resolvent.q_factorized"),
    ("floqscat.resolvent", "factorized_potential", "resolvent.factorized_potential"),
    ("floqscat.scattering", "stroboscopic_wave_op", "scattering.stroboscopic_wave_op"),
    ("floqscat.scattering", "time_averaged_wave_op", "scattering.time_averaged_wave_op"),
    ("floqscat.scattering", "s_matrix", "scattering.s_matrix"),
    ("floqscat.scattering", "bound_state_scan", "scattering.bound_state_scan"),
    ("floqscat.cli", "run_scenario", "cli.run_scenario"),
    ("floqscat.cli", "build_model", "cli.build_model"),
    ("floqscat.cli", "canonical_json", "cli.canonical_json"),
    ("floqscat.cli", "write_report", "cli.write_report"),
)

# metric name -> (unit, how it is derived from the spans and counters)
PER_LAYER = {
    "numerics.hermitian_eig.calls": ("count", ("calls", "numerics.hermitian_eig")),
    "numerics.hermitian_eig.s": ("s", ("total", "numerics.hermitian_eig")),
    "numerics.expm_hermitian.calls": ("count", ("calls", "numerics.expm_hermitian")),
    "numerics.expm_hermitian.self_s": ("s", ("self", "numerics.expm_hermitian")),
    "numerics.unitary_eig.s": ("s", ("total", "numerics.unitary_eig")),
    "numerics.eig_n3": ("count", ("counter", "eig_n3")),
    "model.evaluate.calls": ("count", ("calls", "model.evaluate")),
    "model.evaluate.s": ("s", ("total", "model.evaluate")),
    "propagation.propagate.calls": ("count", ("calls", "propagation.propagate")),
    "propagation.propagate.self_s": ("s", ("self", "propagation.propagate")),
    "propagation.steps": ("count", ("counter", "steps")),
    "propagation.periods": ("periods", ("counter", "periods")),
    "propagation.monodromy.calls": ("count", ("calls", "propagation.monodromy")),
    "propagation.monodromy.s": ("s", ("total", "propagation.monodromy")),
    "floquet.build_floquet.s": ("s", ("total", "floquet.build_floquet")),
    "floquet.quasi_spectrum.calls": ("count", ("calls", "floquet.quasi_spectrum")),
    "floquet.quasi_spectrum.s": ("s", ("total", "floquet.quasi_spectrum")),
    "floquet.max_dim": ("count", ("counter", "floquet_max_dim")),
    "floquet.correspondence_report.s": ("s", ("total", "floquet.correspondence_report")),
    "resolvent.block_q.calls": ("count", ("calls", "resolvent.block_q")),
    "resolvent.block_q.s": ("s", ("total", "resolvent.block_q")),
    "resolvent.bound_state_correspondence.calls":
        ("count", ("calls", "resolvent.bound_state_correspondence")),
    "resolvent.bound_state_correspondence.s":
        ("s", ("total", "resolvent.bound_state_correspondence")),
    "resolvent.confirmed": ("count", ("counter", "confirmed")),
    "resolvent.r0_matrix.s": ("s", ("total", "resolvent.r0_matrix")),
    "resolvent.q_factorized.s": ("s", ("total", "resolvent.q_factorized")),
    "resolvent.factorized_potential.s": ("s", ("total", "resolvent.factorized_potential")),
    "resolvent.r0_apply.s": ("s", ("total", "resolvent.r0_apply")),
    "scattering.stroboscopic_wave_op.s": ("s", ("total", "scattering.stroboscopic_wave_op")),
    "scattering.time_averaged_wave_op.s": ("s", ("total", "scattering.time_averaged_wave_op")),
    "scattering.s_matrix.s": ("s", ("total", "scattering.s_matrix")),
    "scattering.bound_state_scan.s": ("s", ("total", "scattering.bound_state_scan")),
    "cli.run_scenario.s": ("s", ("total", "cli.run_scenario")),
    "cli.build_model.s": ("s", ("total", "cli.build_model")),
    "cli.serialize_s": ("s", ("total", "cli.canonical_json", "cli.write_report")),
}


def _eig_n3(counters, args, kwargs, result):
    counters["eig_n3"] += args[0].shape[0] ** 3


def _propagate(counters, args, kwargs, result):
    # (h, s, t, sched); t < s recurses into propagate(h, t, s), counted there
    h, s, t = args[0], args[1], args[2]
    if t <= s:
        return
    sched = args[3] if len(args) > 3 else kwargs.get("sched")
    if sched is None:
        sched = importlib.import_module("floqscat.propagation").PropagatorSchedule()
    span = t - s
    counters["periods"] += span
    steps = max(1, math.ceil(span * sched.steps_per_period - 1e-12))
    counters["steps"] += 1 if h.max_mode == 0 else steps


def _build_floquet(counters, args, kwargs, result):
    counters["floquet_max_dim"] = max(counters["floquet_max_dim"], result.matrix.shape[0])


def _confirmed(counters, args, kwargs, result):
    counters["confirmed"] += int(bool(result.confirmed))


HOOKS = {
    "numerics.hermitian_eig": _eig_n3,
    "numerics.unitary_eig": _eig_n3,
    "propagation.propagate": _propagate,
    "floquet.build_floquet": _build_floquet,
    "resolvent.bound_state_correspondence": _confirmed,
}


class Tracer:
    """Records spans around the wrapped functions; one instance per traced run."""

    def __init__(self):
        self.spans = []          # [label, parent index, start, end, nested]
        self.stack = []
        self.counters = defaultdict(float)
        self._restore = []       # (owner, attribute, original)

    def _wrap(self, label, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        hook = HOOKS.get(label)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            # a recursive call's time is already inside its outer call
            nested = any(spans[i][0] == label for i in stack)
            span = [label, parent, 0.0, 0.0, nested]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module_name, attr, label in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(label, original))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(label, original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "floqscat" or name.startswith("floqscat.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self) -> dict:
        """Per label: calls, total (outermost calls only) and self seconds."""
        child = [0.0] * len(self.spans)
        for label, parent, start, end, nested in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for i, (label, parent, start, end, nested) in enumerate(self.spans):
            row = out[label]
            row["calls"] += 1
            row["self"] += (end - start) - child[i]
            if not nested:
                row["total"] += end - start
        return dict(out)

    def metrics(self) -> dict:
        """Every PER_LAYER metric as {name: {"value", "unit"}}."""
        summary = self.summary()
        out = {}
        for name, (unit, (kind, *keys)) in PER_LAYER.items():
            if kind == "counter":
                value = self.counters[keys[0]]
                value = int(value) if unit == "count" else round(float(value), 9)
            elif kind == "calls":
                value = summary.get(keys[0], {}).get("calls", 0)
            else:
                value = float(sum(summary.get(k, {}).get(kind, 0.0) for k in keys))
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path):
        """One JSON array per line: label, parent index, start and end in seconds."""
        with open(path, "w") as f:
            for label, parent, start, end, _ in self.spans:
                f.write(json.dumps([label, parent, start, end]) + "\n")

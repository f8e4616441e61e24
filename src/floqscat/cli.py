"""Batch front-end: JSON scenario configs in, machine-readable reports out.

A scenario names a model, a task, and task parameters:

    {
      "task": "correspondence",
      "model": {"builtin": "rabi", "delta": 0.0, "v": 1.0},
      "parameters": {"n_modes": 32, "steps_per_period": 512, "order": 4},
      "output": {"path": "rabi-corr.json", "format": "json"}
    }

Tasks: monodromy, floquet-spectrum, correspondence, resolvent-check,
wave-operators, bound-states.  Every config object is declared once as a
field table (PARAMETERS holds one per task) and checked by `parse`.  A sweep
config adds {"sweep": {"parameter": "n_modes", "values": [8, 16, 32]}} and
writes a CSV table with one row per grid point; a swept value out of its
field's range, or a numerical failure, fails its row only, any other invalid
input the config.
Reports are deterministic for a fixed config and seed: numbers are
serialized with shortest round-trip precision and keys are sorted; wall time
appears only in sweep tables.

Exit codes: 0 success, 2 config validation failure (the message names the
offending field), 3 numerical failure, any `numerics.NumericalError`
(non-convergence, singular solve, a time-average kick leaving the light cone's
window, a NaN or infinite report value, named by its key path: reports are
strict JSON).
With several configs every one runs, every written output path is printed,
and the exit code is the largest of theirs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
# argparse's gettext imports locale when main builds its parser; loaded at import,
# the first call does not pay for it
import locale  # noqa: F401
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import model as model_mod
from .floquet import (EDGE_BLOCKS, NoInteriorError, build_floquet, correspondence_report,
                      quasi_spectrum, shift_commutation_defect)
from .model import LatticeModel, build_lattice, rabi_model
from .numerics import NumericalError, max_norm, op_norm, unitary_defect
from .propagation import (MIN_STEPS, ORDERS, MagnusStepper, PropagatorSchedule, StepPlanError,
                          monodromy)
from .resolvent import (MAX_DENSE_SIDE, MAX_IM_LAMBDA, ScanOperators, block_q,
                        bound_state_correspondence, factorized_potential, grid_potential,
                        mode_oracle_apply, q_factorized, r0_apply, r0_matrix, resolvent_residual)
from .scattering import (
    GAP_RUN,
    ConvergenceError,
    DetectorDisagreementError,
    bound_state_scan,
    in_gap,
    make_probes,
    orthogonality_defect,
    s_matrix,
    stroboscopic_wave_op,
    time_averaged_wave_op,
    wrap_horizon,
)


class NonFiniteError(NumericalError, FloatingPointError):
    """A report value is NaN or infinite, which strict JSON cannot hold."""


class ValidationError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"invalid field '{field}': {message}")
        self.field = field


class ValueRangeError(ValidationError):
    """A well-typed value outside the range the model admits; a sweep over the
    field marks the row failed instead of rejecting the whole config."""


# --------------------------------------------------------------------------
# field tables: each config object is one table, name -> Field, read by parse
# --------------------------------------------------------------------------

REQUIRED = object()


@dataclass(frozen=True)
class Field:
    """One config field.  `typ` is a JSON type, a tuple of types (a list of
    that length) or [type] (a list of any length); `default` is REQUIRED, a
    value or a function of the model; `rule(value, model)` returns a range
    complaint or None; exactly one of this field and `alt`, if named, is given."""

    typ: object
    default: object = REQUIRED
    rule: Callable | None = None
    alt: str | None = None


def _typed(val, typ, path: str):
    if isinstance(typ, (tuple, list)):
        if not isinstance(val, list) or (isinstance(typ, tuple) and len(val) != len(typ)):
            size = f" of {len(typ)}" if isinstance(typ, tuple) else ""
            raise ValidationError(path, f"expected a list{size}")
        kinds = typ if isinstance(typ, tuple) else typ * len(val)
        return [_typed(v, t, f"{path}[{i}]") for i, (v, t) in enumerate(zip(val, kinds))]
    if typ is float and type(val) is int:
        val = float(val) if abs(val) <= sys.float_info.max else math.inf
    if not isinstance(val, typ) or (isinstance(val, bool) and typ is not bool):
        raise ValidationError(path, f"expected {typ.__name__}, got {type(val).__name__}")
    if typ is float and not math.isfinite(val):
        raise ValidationError(path, f"must be finite, got {val}")
    return val


def parse(obj, table: dict, where: str, model=None) -> dict:
    """obj checked against its field table: unknown keys, wrong types and
    non-finite floats raise ValidationError, a rule's complaint ValueRangeError.
    Returns every field's value, defaults filled in."""
    if not isinstance(obj, dict):
        raise ValidationError(where, f"expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise ValidationError(f"{where}.{unknown[0]}", "unknown key")
    out = {}
    for name, field in table.items():
        path = f"{where}.{name}"
        if field.alt is not None and (name in obj) == (field.alt in obj):
            raise ValidationError(path, f"give exactly one of '{name}' and '{field.alt}'")
        if name in obj:
            value = _typed(obj[name], field.typ, path)
        elif field.default is REQUIRED:
            raise ValidationError(path, "missing required field")
        else:
            value = field.default(model) if callable(field.default) else field.default
        complaint = value is not None and field.rule is not None and field.rule(value, model)
        if complaint:
            raise ValueRangeError(path, complaint)
        out[name] = value
    return out


def _one_of(choices):
    return lambda value, model: None if value in choices else f"expected one of {choices}"


def _at_least(low):
    return lambda value, model: None if value >= low else f"must be >= {low}, got {value}"


def _between(low, high):
    return lambda value, model: (None if low <= value <= high
                                 else f"must lie in [{low}, {high}], got {value}")


def _cutoff(n_modes, model):
    """A mode cutoff below the model's mode support would truncate the interaction."""
    support = model.max_mode
    if n_modes < support:
        return f"mode cutoff {n_modes} below the interaction's mode support {support}"


def _grid_side(n_t, model):
    top = MAX_DENSE_SIDE // model.dim
    if not 1 <= n_t <= top:
        return f"n_t {n_t} outside [1, {top}] (n_t * dim <= {MAX_DENSE_SIDE})"


def _block_side(n_modes, model):
    if (2 * n_modes + 1) * model.dim > MAX_DENSE_SIDE:
        return f"mode cutoff {n_modes} too large ((2 n_modes + 1) * dim <= {MAX_DENSE_SIDE})"
    return _cutoff(n_modes, model)


# the long side of the tall arrays a lattice run holds beside its dense L x L ones:
# the (2 n_modes + 1) L rows of a ScanOperators' start vector, null-scan iterates
# and K psi, and the (2 translates + 1) L entries per probe of the packets' free
# orbit.  At 2**20 each such vector is 16 MB beside the 815 MB of a 4096-site ring,
# the orbit of 8 probes 128 MB; a model without a potential has |S| = 0 and no other
# bound on its cutoff, and 4096 translates of a 4096-site ring once ran out of memory
MAX_TALL_SIDE = 2**20


def _scan_side(n_modes, model):
    """A cutoff that builds ScanOperators: its support block V_S and the factor of A
    are (2 n_modes + 1) |S| on a side, its mode-space vectors (2 n_modes + 1) L long."""
    blocks = 2 * n_modes + 1
    if blocks * len(model.support) > MAX_DENSE_SIDE or blocks * model.dim > MAX_TALL_SIDE:
        return (f"mode cutoff {n_modes} too large ((2 n_modes + 1) * |support| <= "
                f"{MAX_DENSE_SIDE} and (2 n_modes + 1) * sites <= {MAX_TALL_SIDE})")
    return _cutoff(n_modes, model)


def _ring_sites(sites, model):
    """A ring's U0(1), Theta and Theta's eigenvectors are dense L x L arrays (its H0
    and modes only on a generic route), held to the side of every other dense
    matrix the CLI allows (and to build_lattice's least ring)."""
    if not 8 <= sites <= MAX_DENSE_SIDE:
        return f"must lie in [8, {MAX_DENSE_SIDE}], got {sites}"


def _off_axis(im):
    if not 0.0 < abs(im) <= MAX_IM_LAMBDA:
        return f"Im(lambda) = {im} must be nonzero and at most {MAX_IM_LAMBDA} in magnitude"


def _horizon(model) -> int:
    try:
        return wrap_horizon(model)
    except ValueError as exc:   # zero hopping: no packet leaves the well
        raise ValidationError("model.lattice.hopping", str(exc)) from exc


# stroboscopic iterates above which a wave-operators run is refused, given or
# defaulted: every shipped config, test and benchmark takes at most 256 (2048
# sites at the default n_max = L / 8), while the wrap-around horizon
# L / (8 |hopping|) of a 64-site ring at hopping 1e-9 is 8e9 iterates, whose
# gap table alone would take 477 GiB
MAX_ITERATES = 2**12


def _within_horizon(n_max, model):
    """A probe converges on its last GAP_RUN gaps, before the wrap-around horizon: a
    ring whose horizon is below GAP_RUN admits no n_max."""
    horizon = _horizon(model)
    if not GAP_RUN <= n_max <= horizon:
        return (f"n_max {n_max} outside [{GAP_RUN}, {horizon}]: a probe converges over "
                f"GAP_RUN={GAP_RUN} iterates, within the ring's wrap-around horizon")
    if n_max > MAX_ITERATES:
        return f"n_max {n_max} above the iterate ceiling {MAX_ITERATES}"


def _within_orbit(translates, model):
    """The packets' free orbit Theta0^j phi, |j| <= translates, stays within the ring's
    wrap-around horizon, and its (2 translates + 1) L entries per probe within
    MAX_TALL_SIDE."""
    horizon = _horizon(model)
    if not 0 <= translates <= horizon:
        return (f"translates {translates} outside [0, {horizon}]: the free orbit stays "
                "within the ring's wrap-around horizon")
    if (2 * translates + 1) * model.sites > MAX_TALL_SIDE:
        return f"translates {translates} too large ((2 translates + 1) * sites <= {MAX_TALL_SIDE})"


# steps per period above which a schedule is refused: every shipped config, test and
# benchmark takes at most 512 (1024 where self_convergence doubles it); the steps of
# a period run one after another, and 2**20 of them take some 6 s on the Rabi model
# and 27 s on the 256-site ring (one Xeon core), while 10**23 once failed in numpy
# with "Maximum allowed size exceeded"
MAX_STEPS = 2**20


SCHEDULE = {"steps_per_period": Field(int, 512, _between(MIN_STEPS, MAX_STEPS)),
            "order": Field(int, 4, _one_of(ORDERS)), "start": Field(float, 0.0)}
PARAMETERS = {
    "monodromy": {**SCHEDULE, "self_convergence": Field(bool, True)},
    "floquet-spectrum": {"n_modes": Field(int, REQUIRED, _block_side)},
    "correspondence": {**SCHEDULE, "n_modes": Field(int, REQUIRED, _block_side)},
    "resolvent-check": {
        "lambda": Field((float, float), None, lambda lam, model: _off_axis(lam[1]), alt="eta"),
        "eta": Field(float, None, lambda eta, model: _off_axis(eta)),
        "n_t": Field(int, 256, _grid_side), "n_modes": Field(int, 8, _block_side)},
    "wave-operators": {
        **SCHEDULE, "n_max": Field(int, _horizon, _within_horizon),
        "translates": Field(int, 2, _within_orbit),
        "average_window": Field(float, 1.0, lambda h, model: None if 0.0 < h <= 1.0
                                else "must lie in (0, 1]"),
        "floquet_modes": Field(int, 8, _scan_side)},
    "bound-states": {**SCHEDULE, "n_modes": Field(int, 12, _scan_side),
                     "scan_modes": Field(int, 8, _scan_side), "verify": Field(bool, True)},
}
LATTICE_TASKS = ("wave-operators", "bound-states")
CONFIG = {"task": Field(str, REQUIRED, _one_of(tuple(PARAMETERS))), "model": Field(dict),
          "parameters": Field(dict, {}), "output": Field(dict, {}), "sweep": Field(dict, None)}
# `format`, where given, names what the config writes (_run_one): json for a
# scenario's report, csv for a sweep's table.  A path the OS refuses exits 2 on the
# write (_run_one); one holding a NUL, which no OS takes, before the run
OUTPUT = {"path": Field(str, None, lambda path, model: "holds a NUL" if "\0" in path else None),
          "format": Field(str, None, _one_of(("json", "csv")))}
SWEEP = {"parameter": Field(str),
         "values": Field(list, REQUIRED, lambda vals, model: None if vals else "must be non-empty")}
# each builtin with its own fields, passed to it by name
BUILTINS = {"rabi": (rabi_model, {"delta": Field(float, 0.0), "v": Field(float, 1.0)}),
            "fleet-d3": (lambda: model_mod.fleet()[1], {}),
            "fleet-d4": (lambda: model_mod.fleet()[2], {})}
MODELS = {"builtin": {"builtin": Field(str, REQUIRED, _one_of(tuple(BUILTINS)))},
          "file": {"file": Field(str)}, "lattice": {"lattice": Field(dict)}}
LATTICE = {"sites": Field(int, REQUIRED, _ring_sites), "hopping": Field(float, 1.0),
           "well_depth": Field(float, 0.0), "drive_amp": Field(float, 0.0),
           "support": Field([int], None), "support_width": Field(int, 5, _at_least(1))}


def build_model(spec: dict, where: str = "model"):
    kinds = [k for k in MODELS if k in spec]
    if len(kinds) != 1:
        raise ValidationError(where, "exactly one of builtin/file/lattice required")
    table = MODELS[kinds[0]]
    if kinds == ["builtin"]:
        make, own = BUILTINS[parse({"builtin": spec["builtin"]}, table, where)["builtin"]]
        fields = parse(spec, {**table, **own}, where)
        return make(**{name: fields[name] for name in own})
    fields = parse(spec, table, where)
    if kinds == ["file"]:
        try:
            return model_mod.load_model(fields["file"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ValidationError(f"{where}.file", str(exc)) from exc
    lat = parse(fields["lattice"], LATTICE, f"{where}.lattice")
    sites, width, support = lat["sites"], lat["support_width"], lat["support"]
    # before a width past the ring builds its list, or an entry past int64 reaches numpy
    if width > sites:
        raise ValidationError(f"{where}.lattice.support_width",
                              f"must be at most sites={sites}, got {width}")
    if support is None:
        lo = sites // 2 - width // 2
        support = list(range(lo, lo + width))
    elif not all(0 <= i < sites for i in support):
        raise ValidationError(f"{where}.lattice.support", f"entries must lie in [0, {sites})")
    try:
        return build_lattice(sites, lat["hopping"], lat["well_depth"], lat["drive_amp"],
                             support)
    except ValueError as exc:
        raise ValidationError(f"{where}.lattice", str(exc)) from exc


def _schedule(params: dict) -> PropagatorSchedule:
    return PropagatorSchedule(params["steps_per_period"], params["order"])


def _jsonable(obj, path: str = "report"):
    """obj in JSON types; a NaN or infinite float raises NonFiniteError naming its key path."""
    if isinstance(obj, dict):
        return {k: _jsonable(v, f"{path}.{k}") for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, f"{path}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return _jsonable(np.stack([obj.real, obj.imag], axis=-1), path)
        if obj.dtype.kind == "f" and not np.isfinite(obj).all():
            where = np.argwhere(~np.isfinite(obj))[0]
            raise NonFiniteError(f"non-finite value {obj[tuple(where)]} at "
                                 f"{path}{''.join(f'[{i}]' for i in where)}")
        return obj.tolist()
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        if not math.isfinite(obj):
            raise NonFiniteError(f"non-finite value {obj} at {path}")
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return _jsonable([obj.real, obj.imag], path)
    return obj


def _bound_state_scan(mono, n_modes, field):
    """bound_state_scan at the mode cutoff parameters.<field>; a cutoff that leaves
    no interior state to cross-check against (at most EDGE_BLOCKS) is invalid."""
    try:
        return bound_state_scan(mono, n_modes=n_modes)
    except DetectorDisagreementError as exc:
        if n_modes <= EDGE_BLOCKS:
            raise ValueRangeError(f"parameters.{field}", f"mode cutoff {n_modes} <= EDGE_BLOCKS="
                                  f"{EDGE_BLOCKS} leaves no interior mode-space state") from exc
        raise


# --------------------------------------------------------------------------
# task runners: (model, parameters parsed by PARAMETERS[task], rng) -> results dict.
# A runner whose task needs Theta builds its one Monodromy at parameters.start
# and passes it down; the Monodromy's start is the one record of it.
# --------------------------------------------------------------------------

def run_monodromy(model, params, rng):
    sched = _schedule(params)
    mono = monodromy(model, params["start"], sched)
    phases = np.sort(mono.quasi_energies)    # diagonalized before Theta is formed again
    theta = mono.operator
    results = {
        "quasi_energies": phases,
        "unitarity_defect": unitary_defect(theta),
        "unit_circle_defect": float(np.abs(np.abs(mono.eig.values) - 1.0).max()),
    }
    if params["self_convergence"]:
        finer = PropagatorSchedule(2 * sched.steps_per_period, sched.order)
        theta2 = monodromy(model, mono.start, finer).operator
        results["self_convergence_difference"] = max_norm(theta - theta2)
    return results


def run_floquet_spectrum(model, params, rng):
    k = build_floquet(model, params["n_modes"])
    spec = quasi_spectrum(k)
    return {
        "values": spec.values,
        "interior_folded": np.sort(spec.interior_folded),
        "interior_fraction": float(spec.interior.mean()),
        "shift_commutation_defect": shift_commutation_defect(k),
    }


def run_correspondence(model, params, rng):
    n_modes, mono = params["n_modes"], monodromy(model, params["start"], _schedule(params))
    try:
        rep = correspondence_report(mono, n_modes)
    except NoInteriorError as exc:
        raise ValueRangeError("parameters.n_modes", f"mode cutoff {n_modes} leaves no "
                              f"interior mode-space state (EDGE_BLOCKS={EDGE_BLOCKS})") from exc
    return {
        "theta_phases": rep.theta_phases,
        "max_match_distance": rep.max_match_distance,
        "mean_match_distance": rep.mean_match_distance,
        "coverage_distance": rep.coverage_distance,
        "translate_counts": rep.counts,
        "mode_eigen_defect": rep.mode_eigen_defect,
    }


def run_resolvent_check(h, params, rng):
    n_t = params["n_t"]
    lam = 1j * params["eta"] if params["lambda"] is None else complex(*params["lambda"])
    f = np.ones((n_t, h.dim), dtype=np.complex128)
    out = r0_apply(h, lam, f)
    oracle = mode_oracle_apply(h, lam, f)
    results = {
        "defining_residual": resolvent_residual(h, lam, f),
        "oracle_distance": float(np.abs(out - oracle).max()),
        "r0_constant_value": out[0],
        "adjoint_defect": max_norm(
            r0_matrix(h, lam, min(n_t, 64)).conj().T - r0_matrix(h, np.conj(lam), min(n_t, 64))
        ),
    }
    if h.modes:
        fact = factorized_potential(h, n_t)
        results["factorization_defect"] = fact.factorization_defect(grid_potential(h, n_t))
        _, schmidt = q_factorized(h, lam, n_t, fact)
        results["schmidt_norm"] = schmidt
        # Q = V G0 vanishes off the rows (n, a) with a in the support: the 2-norm of
        # those (2N + 1)|S| rows, formed from H_m's support rows alone, is Q's
        results["block_q_norm"] = op_norm(block_q(h, lam, params["n_modes"], h.support))
    else:
        results["block_q_norm"] = 0.0
    return results


def run_wave_operators(model, params, rng):
    n_max = params["n_max"]
    probes = make_probes(model, rng=rng)
    mono = monodromy(model, params["start"], _schedule(params))
    wp = stroboscopic_wave_op(mono, +1, n_max, probes)
    wm = stroboscopic_wave_op(mono, -1, n_max, probes)
    converged_fraction = float((wp.converged & wm.converged).mean())
    if converged_fraction < 0.9:
        raise ConvergenceError(f"only {converged_fraction:.0%} of probes converged before the "
                               "horizon", gaps=wp.cauchy_gaps)
    scan = _bound_state_scan(mono, params["floquet_modes"], "floquet_modes")
    report = s_matrix(wp, wm, translates=params["translates"])
    avg = time_averaged_wave_op(mono, +1, n_max, probes, params["average_window"])
    use = wp.converged & wm.converged
    avg_agreement = float(np.linalg.norm((avg - wp.image())[:, use], axis=0).max())
    return {
        "converged_fraction": converged_fraction,
        "final_gap_max": float(max(wp.cauchy_gaps[-1].max(), wm.cauchy_gaps[-1].max())),
        "isometry_defect": report.isometry_defect,
        "unitarity_defect": report.unitarity_defect,
        "intertwining_defect": report.intertwining_defect,
        "time_averaged_agreement": avg_agreement,
        "s_matrix": report.s_matrix,
        "channel_momenta": report.channels,
        "bound_states": [asdict(b) for b in scan],
        "orthogonality_defect": orthogonality_defect(probes, in_gap(mono)[1]),
    }


def run_bound_states(model, params, rng):
    mono = monodromy(model, params["start"], _schedule(params))
    infos = _bound_state_scan(mono, params["n_modes"], "n_modes")
    results = {"bound_states": [asdict(b) for b in infos], "n_bound": len(infos)}
    if params["verify"]:
        # K and K0 once per scenario, where a bound state is left to verify
        scan = ScanOperators(model, params["scan_modes"]) if infos else None
        results["verdicts"] = [asdict(bound_state_correspondence(scan, b.quasi_energy))
                               for b in infos]
    return results


RUNNERS = {"monodromy": run_monodromy, "floquet-spectrum": run_floquet_spectrum,
           "correspondence": run_correspondence, "resolvent-check": run_resolvent_check,
           "wave-operators": run_wave_operators, "bound-states": run_bound_states}
HEADLINE = {"monodromy": "self_convergence_difference",
            "floquet-spectrum": "shift_commutation_defect",
            "correspondence": "mean_match_distance", "resolvent-check": "block_q_norm",
            "wave-operators": "unitarity_defect", "bound-states": "n_bound"}


def canonical_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def validate_config(cfg: dict, sweep_allowed: bool = True) -> dict:
    """The config's top level, output and sweep objects, parsed; the model and
    the task parameters are parsed when the scenario runs."""
    parsed = parse(cfg, CONFIG, "config")
    parsed["output"] = parse(parsed["output"], OUTPUT, "config.output")
    if parsed["sweep"] is not None:
        if not sweep_allowed:
            raise ValidationError("config.sweep", "nested sweep not allowed")
        parsed["sweep"] = parse(parsed["sweep"], SWEEP, "config.sweep")
    return parsed


def run_scenario(cfg: dict, seed: int | None = None) -> dict:
    """Validate and dispatch a single scenario; returns the report dict."""
    parsed = validate_config(cfg, sweep_allowed=False)
    task = parsed["task"]
    model = build_model(parsed["model"])
    if task in LATTICE_TASKS and not isinstance(model, LatticeModel):
        raise ValidationError("model", f"{task} requires a lattice model")
    params = parse(parsed["parameters"], PARAMETERS[task], "parameters", model)
    rng = np.random.default_rng(seed) if seed is not None else None
    try:
        # an overflow is diagnosed where it reaches the report (_jsonable), not warned of
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            results = RUNNERS[task](model, params, rng)
    except StepPlanError as exc:   # raised when the stepper is planned, before any step
        try:   # planned once more at the finest schedule a config admits
            MagnusStepper(model, 1.0 / MAX_STEPS, params["order"])
        except StepPlanError as again:
            raise ValidationError("model", f"no steps_per_period up to {MAX_STEPS} can step "
                                  f"it: at {MAX_STEPS}, {again}") from exc
        raise ValueRangeError("parameters.steps_per_period",
                              f"{exc}: take more steps per period") from exc
    return {
        "task": task,
        "config_sha256": config_hash(cfg),
        "config_echo": cfg,
        "seed": seed,
        "results": _jsonable(results, "results"),
    }


def run_sweep(cfg: dict, seed: int | None = None) -> list[dict]:
    """Run a one-parameter sweep; returns one row dict per grid point."""
    parsed = validate_config(cfg)
    if parsed["sweep"] is None:
        raise ValidationError("config.sweep", "missing required field for sweep")
    pname = parsed["sweep"]["parameter"]
    rows = []
    for value in parsed["sweep"]["values"]:
        sub = {k: v for k, v in cfg.items() if k != "sweep"}
        sub["parameters"] = {**parsed["parameters"], pname: value}
        t0 = time.perf_counter()
        try:
            headline = run_scenario(sub, seed)["results"].get(HEADLINE[parsed["task"]])
            status = "ok"
        except (ValueRangeError, NumericalError) as exc:
            if isinstance(exc, ValueRangeError) and exc.field != f"parameters.{pname}":
                raise
            headline, status = "", f"failed: {exc}"
        rows.append({
            "parameter": pname,
            "value": value,
            "headline": HEADLINE[parsed["task"]],
            "headline_value": headline,
            "status": status,
            "wall_time_s": time.perf_counter() - t0,
        })
    return rows


def write_report(report: dict, path: Path):
    """A run_scenario report, whose values are JSON types already, as one write."""
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w") as f:
        f.write(text + "\n")


def write_sweep_csv(rows: list[dict], path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    cols = ["parameter", "value", "headline", "headline_value", "status", "wall_time_s"]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")   # quotes a field holding a comma
        writer.writerow(cols)
        writer.writerows([str(row[c]) for c in cols] for row in rows)


def _run_one(cfg_path_str: str, out_dir: str, seed) -> tuple[str | None, int, str]:
    """Run one config file: (written output path or None, exit code, error message).

    Contract failures come back as values, not exceptions, so a failing
    config in a worker process leaves the other outcomes intact.
    """
    cfg_path = Path(cfg_path_str)
    try:
        with open(cfg_path) as f:
            cfg = json.load(f)
        parsed = validate_config(cfg)
        is_sweep = parsed["sweep"] is not None
        kind, written = ("sweep", "csv") if is_sweep else ("scenario", "json")
        if parsed["output"]["format"] not in (None, written):
            raise ValidationError("config.output.format",
                                  f"a {kind} writes {written}, got {parsed['output']['format']!r}")
        default = cfg_path.stem + (".sweep.csv" if is_sweep else ".report.json")
        out_path = Path(out_dir) / (parsed["output"]["path"] or default)
        payload = run_sweep(cfg, seed) if is_sweep else run_scenario(cfg, seed)
        try:
            (write_sweep_csv if is_sweep else write_report)(payload, out_path)
        except OSError as exc:   # the OS refused the output path, not the config file
            raise ValidationError("config.output.path", f"the OS refused it: {exc.strerror}")
        # a sweep exits 3 where every row failed
        code = 3 if is_sweep and all(row["status"] != "ok" for row in payload) else 0
        return str(out_path), code, ""
    except ValidationError as exc:
        return None, 2, f"error: {exc}"
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        return None, 2, f"error: cannot read config: {exc}"
    except NumericalError as exc:
        message = f"numerical failure: {exc}"
        if getattr(exc, "gaps", None) is not None:
            with np.printoptions(precision=3):
                message += f"\ngap trace:\n{exc.gaps}"
        return None, 3, message


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="floqscat",
        description="Quasi-energy, resolvent and stroboscopic scattering scenarios "
                    "for time-periodic Hamiltonians",
    )
    parser.add_argument("--config", action="append", required=True,
                        help="scenario config JSON (repeatable)")
    parser.add_argument("--out", default=".", help="output directory for reports")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for probe-packet randomization only")
    parser.add_argument("--jobs", type=int, default=1, help="parallel scenario fan-out")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error(f"argument --seed: must be >= 0, got {args.seed}")

    jobs = min(max(1, args.jobs), len(args.config))
    if jobs == 1:
        outcomes = [_run_one(c, args.out, args.seed) for c in args.config]
    else:
        import concurrent.futures   # with logging, loaded only where configs fan out

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_one, args.config, [args.out] * len(args.config),
                                     [args.seed] * len(args.config)))
    # every written output is listed, whatever else failed
    status = 0
    for path, code, message in outcomes:
        if message:
            print(message, file=sys.stderr)
        if path is not None:
            print(path)
        status = max(status, code)
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Batch front-end: JSON scenario configs in, machine-readable reports out.

A scenario names a model, a task, and task parameters:

    {
      "task": "correspondence",
      "model": {"builtin": "rabi", "delta": 0.0, "v": 1.0},
      "parameters": {"n_modes": 32, "steps_per_period": 512, "order": 4},
      "output": {"path": "rabi-corr.json", "format": "json"}
    }

Tasks: monodromy, floquet-spectrum, correspondence, resolvent-check,
wave-operators, bound-states.  A sweep config adds
{"sweep": {"parameter": "n_modes", "values": [8, 16, 32]}} and writes a CSV
table with one row per grid point.  Reports are deterministic for a fixed
config and seed: numbers are serialized with shortest round-trip precision
and keys are sorted; wall time appears only in sweep tables.

Exit codes: 0 success, 2 config validation failure (the message names the
offending field), 3 numerical failure (non-convergence, singular solve, a
NaN or infinite report value, named by its key path: reports are strict JSON).
With several configs every one runs, every written output path is printed,
and the exit code is the largest of theirs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import model as model_mod
from .floquet import (EDGE_BLOCKS, NoInteriorError, build_floquet, correspondence_report,
                      quasi_spectrum, shift_commutation_defect)
from .model import LatticeModel, PeriodicHamiltonian, build_lattice, rabi_model
from .numerics import SingularMatrixError, max_norm, op_norm, unitary_defect
from .propagation import PropagatorSchedule, monodromy, period_operator
from .resolvent import (
    InverseIterationError,
    ScanOperators,
    ThresholdProximityError,
    TimeGridFunction,
    block_q,
    bound_state_correspondence,
    factorized_potential,
    grid_potential,
    mode_oracle_apply,
    q_factorized,
    r0_apply,
    r0_matrix,
    resolvent_residual,
)
from .scattering import (
    ConvergenceError,
    DetectorDisagreementError,
    bound_state_scan,
    bound_vectors,
    make_probes,
    orthogonality_defect,
    s_matrix,
    stroboscopic_wave_op,
    time_average,
    time_averaged_wave_op,
    wrap_horizon,
)

TASKS = ("monodromy", "floquet-spectrum", "correspondence", "resolvent-check",
         "wave-operators", "bound-states")


class NonFiniteError(FloatingPointError):
    """A report value is NaN or infinite, which strict JSON cannot hold."""


NUMERICAL_ERRORS = (ConvergenceError, SingularMatrixError, ThresholdProximityError,
                    DetectorDisagreementError, InverseIterationError, NonFiniteError)


class ValidationError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"invalid field '{field}': {message}")
        self.field = field


class ValueRangeError(ValidationError):
    """A well-typed value outside the range the model admits; a sweep over the
    field marks the row failed instead of rejecting the whole config."""


def _check_keys(obj: dict, allowed, where: str):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValidationError(f"{where}.{sorted(unknown)[0]}", "unknown key")


def _get(obj: dict, field: str, typ, where: str, default=None, required=False):
    if field not in obj:
        if required:
            raise ValidationError(f"{where}.{field}", "missing required field")
        return default
    val = obj[field]
    if typ is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, typ) or (isinstance(val, bool) and typ is not bool):
        raise ValidationError(f"{where}.{field}", f"expected {typ}, got {type(val).__name__}")
    if typ is float and not math.isfinite(val):
        raise ValidationError(f"{where}.{field}", f"must be finite, got {val}")
    return val


def build_model(spec: dict, where: str = "model"):
    if not isinstance(spec, dict):
        raise ValidationError(where, "model spec must be an object")
    kinds = [k for k in ("builtin", "file", "lattice") if k in spec]
    if len(kinds) != 1:
        raise ValidationError(where, "exactly one of builtin/file/lattice required")
    kind = kinds[0]
    if kind == "builtin":
        _check_keys(spec, {"builtin", "delta", "v"}, where)
        name = spec["builtin"]
        if name == "rabi":
            return rabi_model(_get(spec, "delta", float, where, 0.0),
                              _get(spec, "v", float, where, 1.0))
        if name == "fleet-d3":
            return model_mod.fleet()[1]
        if name == "fleet-d4":
            return model_mod.fleet()[2]
        raise ValidationError(f"{where}.builtin", f"unknown builtin model '{name}'")
    if kind == "file":
        _check_keys(spec, {"file"}, where)
        try:
            return model_mod.load_model(spec["file"])
        except (OSError, ValueError, KeyError) as exc:
            raise ValidationError(f"{where}.file", str(exc)) from exc
    lat = spec["lattice"]
    _check_keys(spec, {"lattice"}, where)
    _check_keys(lat, {"sites", "hopping", "well_depth", "drive_amp", "support", "support_width"},
                f"{where}.lattice")
    sites = _get(lat, "sites", int, f"{where}.lattice", required=True)
    hopping = _get(lat, "hopping", float, f"{where}.lattice", 1.0)
    depth = _get(lat, "well_depth", float, f"{where}.lattice", 0.0)
    amp = _get(lat, "drive_amp", float, f"{where}.lattice", 0.0)
    if "support" in lat:
        support = lat["support"]
        if not isinstance(support, list):
            raise ValidationError(f"{where}.lattice.support", "expected a list of site indices")
    else:
        width = _get(lat, "support_width", int, f"{where}.lattice", 5)
        ctr = sites // 2
        support = list(range(ctr - width // 2, ctr - width // 2 + width))
    try:
        return build_lattice(sites, hopping, depth, amp, support)
    except ValueError as exc:
        raise ValidationError(f"{where}.lattice", str(exc)) from exc


def _schedule(params: dict, where: str) -> PropagatorSchedule:
    return PropagatorSchedule(
        steps_per_period=_get(params, "steps_per_period", int, where, 512),
        order=_get(params, "order", int, where, 4),
        start=_get(params, "start", float, where, 0.0),
    )


def _drive(model) -> PeriodicHamiltonian:
    return model.drive if isinstance(model, LatticeModel) else model


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


def _mode_cutoff(model, params: dict, field: str, default=None, required=False) -> int:
    """The mode cutoff parameters.<field>; below the model's mode support it
    would truncate the interaction."""
    n_modes = _get(params, field, int, "parameters", default, required)
    support = _drive(model).max_mode
    if n_modes < support:
        raise ValueRangeError(f"parameters.{field}", f"mode cutoff {n_modes} below the "
                              f"interaction's mode support {support}")
    return n_modes


def _bound_state_scan(model, sched, n_modes, field, theta_eig=None):
    """bound_state_scan at the mode cutoff parameters.<field>; a cutoff too
    small to leave any interior state to cross-check against is invalid."""
    try:
        return bound_state_scan(model, sched, n_modes=n_modes, theta_eig=theta_eig)
    except DetectorDisagreementError as exc:
        if exc.candidates == 0 and n_modes <= EDGE_BLOCKS:
            raise ValueRangeError(f"parameters.{field}", f"mode cutoff {n_modes} <= EDGE_BLOCKS="
                                  f"{EDGE_BLOCKS} leaves no interior mode-space state") from exc
        raise


# --------------------------------------------------------------------------
# task runners: (model, parameters, rng) -> results dict
# --------------------------------------------------------------------------

def run_monodromy(model, params, rng):
    where = "parameters"
    _check_keys(params, {"steps_per_period", "order", "start", "self_convergence"}, where)
    sched = _schedule(params, where)
    h = _drive(model)
    mono = monodromy(h, sched.start, sched)
    results = {
        "quasi_energies": np.sort(mono.quasi_energies),
        "unitarity_defect": unitary_defect(mono.operator),
        "unit_circle_defect": float(np.abs(np.abs(mono.eig.values) - 1.0).max()),
    }
    if _get(params, "self_convergence", bool, where, True):
        finer = PropagatorSchedule(2 * sched.steps_per_period, sched.order, sched.start)
        theta2 = period_operator(h, sched.start, finer)
        results["self_convergence_difference"] = max_norm(mono.operator - theta2)
    return results


def run_floquet_spectrum(model, params, rng):
    where = "parameters"
    _check_keys(params, {"n_modes"}, where)
    n_modes = _mode_cutoff(model, params, "n_modes", required=True)
    k = build_floquet(_drive(model), n_modes)
    spec = quasi_spectrum(k)
    return {
        "values": spec.values,
        "interior_folded": np.sort(spec.interior_folded),
        "interior_fraction": float(spec.interior.mean()),
        "shift_commutation_defect": shift_commutation_defect(k),
    }


def run_correspondence(model, params, rng):
    where = "parameters"
    _check_keys(params, {"n_modes", "steps_per_period", "order", "start"}, where)
    sched = _schedule(params, where)
    n_modes = _mode_cutoff(model, params, "n_modes", required=True)
    try:
        rep = correspondence_report(_drive(model), n_modes, sched)
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


def run_resolvent_check(model, params, rng):
    where = "parameters"
    _check_keys(params, {"lambda", "eta", "n_t", "n_modes"}, where)
    h = _drive(model)
    n_t = _get(params, "n_t", int, where, 256)
    if "eta" in params:
        eta = _get(params, "eta", float, where)
        lam = 1j * eta
    else:
        pair = _get(params, "lambda", list, where, required=True)
        if len(pair) != 2 or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                                     and math.isfinite(x) for x in pair):
            raise ValidationError(f"{where}.lambda", "expected [re, im] finite numbers")
        lam = complex(pair[0], pair[1])
        if lam.imag == 0:
            raise ValidationError(f"{where}.lambda", "Im(lambda) must be nonzero")
    f = TimeGridFunction(np.ones((n_t, h.dim)))
    out = r0_apply(h.h0, lam, f)
    oracle = mode_oracle_apply(h.h0, lam, f)
    results = {
        "defining_residual": resolvent_residual(h.h0, lam, f),
        "oracle_distance": float(np.abs(out.values - oracle.values).max()),
        "r0_constant_value": out.values[0],
        "adjoint_defect": max_norm(
            r0_matrix(h.h0, lam, min(n_t, 64)).conj().T - r0_matrix(h.h0, np.conj(lam), min(n_t, 64))
        ),
    }
    n_modes = _get(params, "n_modes", int, where, 8)
    if h.modes:
        fact = factorized_potential(h, n_t)
        results["factorization_defect"] = fact.factorization_defect(grid_potential(h, n_t))
        _, schmidt = q_factorized(h, lam, n_t, fact)
        results["schmidt_norm"] = schmidt
        results["block_q_norm"] = op_norm(block_q(h, lam, n_modes))
    else:
        results["block_q_norm"] = 0.0
    return results


def run_wave_operators(model, params, rng):
    where = "parameters"
    _check_keys(params, {"steps_per_period", "order", "start", "n_max", "translates",
                         "average_window", "floquet_modes"}, where)
    if not isinstance(model, LatticeModel):
        raise ValidationError("model", "wave-operators requires a lattice model")
    sched = _schedule(params, where)
    n_max = _get(params, "n_max", int, where, wrap_horizon(model))
    translates = _get(params, "translates", int, where, 2)
    h_avg = _get(params, "average_window", float, where, 1.0)
    if not 0.0 < h_avg <= 1.0:
        raise ValidationError(f"{where}.average_window", "must lie in (0, 1]")
    n_modes = _mode_cutoff(model, params, "floquet_modes", 8)
    probes = make_probes(model, rng=rng)
    average = time_average(model, h_avg, sched)   # holds the monodromy at the start
    theta_eig = average.mono.eig
    theta0 = model.free_propagator(1.0)
    # Theta^n_max once: both directions and the time average share it
    theta_n = np.linalg.matrix_power(average.theta, n_max)
    wp = stroboscopic_wave_op(model, +1, n_max, sched, probes, theta=average.theta,
                              theta_power=theta_n)
    wm = stroboscopic_wave_op(model, -1, n_max, sched, probes, theta=average.theta,
                              theta_power=theta_n)
    converged_fraction = float((wp.converged & wm.converged).mean())
    if converged_fraction < 0.9:
        raise ConvergenceError(
            f"only {converged_fraction:.0%} of probes converged before the horizon",
            gaps=wp.cauchy_gaps,
        )
    scan = _bound_state_scan(model, sched, n_modes, "floquet_modes", theta_eig=theta_eig)
    report = s_matrix(wp, wm, translates=translates, theta0=theta0,
                      bound_states=scan)
    avg = time_averaged_wave_op(model, +1, h_avg, n_max, sched, probes, average=average,
                                theta_power=theta_n)
    use = wp.converged & wm.converged
    avg_agreement = float(
        np.linalg.norm((avg - wp.probe_images[-1])[:, use], axis=0).max()
    )
    return {
        "converged_fraction": converged_fraction,
        "final_gap_max": float(max(wp.cauchy_gaps[-1].max(), wm.cauchy_gaps[-1].max())),
        "isometry_defect": report.isometry_defect,
        "unitarity_defect": report.unitarity_defect,
        "intertwining_defect": report.intertwining_defect,
        "time_averaged_agreement": avg_agreement,
        "s_matrix": report.s_matrix,
        "bound_states": [asdict(b) for b in report.bound_states],
        "orthogonality_defect": orthogonality_defect(probes, bound_vectors(model, theta_eig)),
    }


def run_bound_states(model, params, rng):
    where = "parameters"
    _check_keys(params, {"steps_per_period", "order", "start", "n_modes", "scan_modes",
                         "verify"}, where)
    if not isinstance(model, LatticeModel):
        raise ValidationError("model", "bound-states requires a lattice model")
    sched = _schedule(params, where)
    scan_modes = _mode_cutoff(model, params, "scan_modes", 8)
    n_modes = _mode_cutoff(model, params, "n_modes", 12)
    infos = _bound_state_scan(model, sched, n_modes, "n_modes")
    results = {"bound_states": [asdict(b) for b in infos], "n_bound": len(infos)}
    if _get(params, "verify", bool, where, True):
        fields = ("candidate", "refined", "confirmed", "smin_ladder", "smin_extrapolated", "residual")
        scan = ScanOperators.for_model(model.drive, scan_modes)   # K and K0 once per scenario
        verdicts = [bound_state_correspondence(model.drive, b.quasi_energy, scan_modes, scan=scan)
                    for b in infos]
        results["verdicts"] = [{f: getattr(v, f) for f in fields} for v in verdicts]
    return results


RUNNERS = {
    "monodromy": run_monodromy,
    "floquet-spectrum": run_floquet_spectrum,
    "correspondence": run_correspondence,
    "resolvent-check": run_resolvent_check,
    "wave-operators": run_wave_operators,
    "bound-states": run_bound_states,
}

HEADLINE = {
    "monodromy": "self_convergence_difference",
    "floquet-spectrum": "shift_commutation_defect",
    "correspondence": "mean_match_distance",
    "resolvent-check": "block_q_norm",
    "wave-operators": "unitarity_defect",
    "bound-states": "n_bound",
}


def canonical_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def validate_config(cfg: dict, sweep_allowed: bool = True) -> dict:
    if not isinstance(cfg, dict):
        raise ValidationError("config", "top level must be an object")
    allowed = {"task", "model", "parameters", "output", "sweep"}
    _check_keys(cfg, allowed, "config")
    task = _get(cfg, "task", str, "config", required=True)
    if task not in TASKS:
        raise ValidationError("config.task", f"unknown task '{task}'; expected one of {TASKS}")
    if "model" not in cfg:
        raise ValidationError("config.model", "missing required field")
    params = _get(cfg, "parameters", dict, "config", {})
    out = _get(cfg, "output", dict, "config", {})
    _check_keys(out, {"path", "format"}, "config.output")
    fmt = _get(out, "format", str, "config.output", "json")
    if fmt not in ("json", "csv"):
        raise ValidationError("config.output.format", f"expected 'json' or 'csv', got '{fmt}'")
    sweep = _get(cfg, "sweep", dict, "config")
    if sweep is not None:
        if not sweep_allowed:
            raise ValidationError("config.sweep", "nested sweep not allowed")
        _check_keys(sweep, {"parameter", "values"}, "config.sweep")
        _get(sweep, "parameter", str, "config.sweep", required=True)
        values = _get(sweep, "values", list, "config.sweep", required=True)
        if not values:
            raise ValidationError("config.sweep.values", "must be non-empty")
    return {"task": task, "parameters": params, "output": out, "sweep": sweep}


def run_scenario(cfg: dict, seed: int | None = None) -> dict:
    """Validate and dispatch a single scenario; returns the report dict."""
    parsed = validate_config(cfg, sweep_allowed=False)
    model = build_model(cfg["model"])
    rng = np.random.default_rng(seed) if seed is not None else None
    results = RUNNERS[parsed["task"]](model, dict(parsed["parameters"]), rng)
    return {
        "task": parsed["task"],
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
        sub["parameters"] = dict(parsed["parameters"])
        sub["parameters"][pname] = value
        t0 = time.perf_counter()
        try:
            headline = run_scenario(sub, seed)["results"].get(HEADLINE[parsed["task"]])
            status = "ok"
        except ValidationError as exc:
            if not (isinstance(exc, ValueRangeError) and exc.field == f"parameters.{pname}"):
                raise
            headline, status = "", f"failed: {exc}"
        except (*NUMERICAL_ERRORS, ValueError) as exc:
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
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(_jsonable(report), f, sort_keys=True, indent=2, allow_nan=False)
        f.write("\n")


def write_sweep_csv(rows: list[dict], path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    cols = ["parameter", "value", "headline", "headline_value", "status", "wall_time_s"]
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for row in rows:
            f.write(",".join(str(row[c]) for c in cols) + "\n")


def _default_out_path(cfg_path: Path, cfg: dict, sweep: bool) -> str:
    out = cfg.get("output", {})
    if isinstance(out, dict) and out.get("path"):
        return out["path"]
    suffix = ".sweep.csv" if sweep else ".report.json"
    return cfg_path.stem + suffix


def _run_one(cfg_path_str: str, out_dir: str, seed) -> tuple[str | None, int, str]:
    """Run one config file: (written output path or None, exit code, error message).

    Contract failures come back as values, not exceptions, so a failing
    config in a worker process leaves the other outcomes intact.
    """
    cfg_path = Path(cfg_path_str)
    try:
        with open(cfg_path) as f:
            cfg = json.load(f)
        is_sweep = isinstance(cfg, dict) and "sweep" in cfg
        out_path = Path(out_dir) / _default_out_path(cfg_path, cfg, is_sweep)
        if is_sweep:
            rows = run_sweep(cfg, seed)
            write_sweep_csv(rows, out_path)
            failed = [r for r in rows if r["status"] != "ok"]
            return str(out_path), (3 if len(failed) == len(rows) else 0), ""
        write_report(run_scenario(cfg, seed), out_path)
        return str(out_path), 0, ""
    except ValidationError as exc:
        return None, 2, f"error: {exc}"
    except (json.JSONDecodeError, OSError) as exc:
        return None, 2, f"error: cannot read config: {exc}"
    except NUMERICAL_ERRORS as exc:
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

    jobs = min(max(1, args.jobs), len(args.config))
    if jobs == 1:
        outcomes = [_run_one(c, args.out, args.seed) for c in args.config]
    else:
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

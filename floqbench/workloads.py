"""Seeded scenario generators for the benchmark workloads.

A workload is a fixed list of scenario slots.  The seed draws the numbers
inside each slot (model parameters, probe jitter); the slots themselves, and
so the matrix sizes, step counts and task mix, are the same for every seed.
That keeps the work of one round the same from seed to seed, so the spread
between runs is the machine's and not the inputs'.

Each scenario is a CLI config file plus, where the model is not a builtin,
a model file in the program's JSON model format.  `Scenario.model` keeps the
generating parameters so that the output checks can rebuild the Hamiltonian
without asking the program for it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("ring-scatter", "ring-bound", "fiber-batch")


@dataclass
class Scenario:
    name: str
    task: str
    config: dict
    model: dict                      # generator's description, read by the checks
    sweep: bool = False
    files: dict = field(default_factory=dict)   # relative name -> JSON payload

    def write(self, directory: Path) -> Path:
        """Write the model files and the config; returns the config path."""
        for rel, payload in self.files.items():
            with open(directory / rel, "w") as f:
                json.dump(payload, f, sort_keys=True)
        path = directory / f"{self.name}.json"
        with open(path, "w") as f:
            json.dump(self.config, f, sort_keys=True, indent=1)
        return path


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed])


def _config(task, model, params, out, sweep=None) -> dict:
    cfg = {"task": task, "model": model, "parameters": params,
           "output": {"path": out, "format": "csv" if sweep else "json"}}
    if sweep:
        cfg["sweep"] = sweep
    return cfg


# --------------------------------------------------------------------------
# ring-scatter: the paper's headline computation on the smallest ring where
# every probe converges before the wrap horizon (224 and 192 sites do not).
# --------------------------------------------------------------------------

RING_SCATTER = {"sites": 256, "hopping": 1.0, "well_depth": -0.8, "drive_amp": 0.5,
                "support_width": 5}


def ring_scatter(seed: int) -> list[Scenario]:
    lattice = dict(RING_SCATTER)
    # floquet_modes 2 ends in an uncaught ValueError, so 3 is the smallest
    # mode cutoff the wave-operator task accepts
    params = {"steps_per_period": 64, "order": 4, "translates": 2,
              "average_window": 1.0, "floquet_modes": 3}
    cfg = _config("wave-operators", {"lattice": lattice}, params, "scatter.report.json")
    # the seed reaches the program as the CLI's --seed (probe momentum jitter)
    return [Scenario("scatter", "wave-operators", cfg, {"kind": "lattice", **lattice})]


# --------------------------------------------------------------------------
# ring-bound: bound-state scans with the I + Q null-scan verification.  Each
# slot fixes the ring size and mode cutoffs; the seed moves depth, drive and
# width inside a range where the slot's bound-state count does not change.
# --------------------------------------------------------------------------

# (sites, n_modes, scan_modes, depth range, widths): widths 3-4 with depth in
# [-1.9, -1.5] hold two bound states, widths 5-6 with depth in [-2.0, -1.8]
# three, at every drive amplitude in DRIVE_RANGE
TWO_STATES = ((-1.9, -1.5), (3, 4))
THREE_STATES = ((-2.0, -1.8), (5, 6))
RING_BOUND_SLOTS = (
    (40, 8, 4, *TWO_STATES),
    (44, 8, 4, *THREE_STATES),
    (48, 10, 4, *TWO_STATES),
    (42, 9, 4, *THREE_STATES),
    (46, 9, 4, *TWO_STATES),
    (48, 8, 4, *THREE_STATES),
)
DRIVE_RANGE = (0.3, 0.6)
RING_BOUND_STEPS = 256


def ring_bound(seed: int) -> list[Scenario]:
    rng = _rng("ring-bound", seed)
    out = []
    for i, (sites, n_modes, scan_modes, depth, widths) in enumerate(RING_BOUND_SLOTS):
        lattice = {"sites": sites, "hopping": 1.0,
                   "well_depth": round(float(rng.uniform(*depth)), 6),
                   "drive_amp": round(float(rng.uniform(*DRIVE_RANGE)), 6),
                   "support_width": int(rng.choice(widths))}
        params = {"steps_per_period": RING_BOUND_STEPS, "order": 4, "n_modes": n_modes,
                  "scan_modes": scan_modes}
        name = f"bound{i}"
        cfg = _config("bound-states", {"lattice": lattice}, params, f"{name}.report.json")
        out.append(Scenario(name, "bound-states", cfg, {"kind": "lattice", **lattice}))
    return out


# --------------------------------------------------------------------------
# fiber-batch: many small-fiber scenarios (d = 2..4).  Propagation here is
# per-step Python overhead on tiny matrices; the resolvent work is the dense
# grid path up to (n_t d)^2 = 3072^2.  It runs by hand and is not listed in
# BENCHMARK.json: its Python-bound calls swing too much with the machine's
# speed for the largest bound (README, Steadiness).
# --------------------------------------------------------------------------

def _two_harmonic(rng: np.random.Generator, dim: int):
    """h0 Hermitian, modes n = +-1, +-2 with H_-n = H_n^dagger."""
    def gauss(scale):
        return scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))

    a = gauss(0.8)
    h0 = (a + a.conj().T) / 2
    m1, m2 = gauss(0.30), gauss(0.15)
    return h0, {1: m1, -1: m1.conj().T, 2: m2, -2: m2.conj().T}


def _matrix_json(a: np.ndarray):
    return [[[float(z.real) + 0.0, float(z.imag) + 0.0] for z in row] for row in a]


def _model_file(h0, modes, label) -> dict:
    return {"dim": int(h0.shape[0]), "H0": _matrix_json(h0),
            "modes": [{"n": n, "matrix": _matrix_json(m)} for n, m in sorted(modes.items())],
            "label": label}


def fiber_batch(seed: int, directory_name: str = "") -> list[Scenario]:
    """`directory_name` is where the configs will sit, for model-file paths."""
    rng = _rng("fiber-batch", seed)
    models = []   # (tag, CLI model spec, check description, files)
    for i in range(6):
        delta = round(float(rng.uniform(-1.0, 1.0)), 6)
        v = round(float(rng.uniform(0.5, 1.5)), 6)
        models.append((f"rabi{i}", {"builtin": "rabi", "delta": delta, "v": v},
                       {"kind": "rabi", "delta": delta, "v": v}, {}))
    for d in (3, 4):
        models.append((f"fleet{d}", {"builtin": f"fleet-d{d}"}, {"kind": "fleet", "dim": d}, {}))
    for d in (2, 3, 4):
        h0, modes = _two_harmonic(rng, d)
        rel = f"harmonic{d}.model.json"
        path = f"{directory_name}/{rel}" if directory_name else rel
        models.append((f"harmonic{d}", {"file": path},
                       {"kind": "matrices", "h0": h0, "modes": modes},
                       {rel: _model_file(h0, modes, f"two-harmonic d={d}")}))
    by_tag = {m[0]: m for m in models}

    out = []

    def add(name, task, tag, params, sweep=None):
        _, spec, desc, files = by_tag[tag]
        ext = "sweep.csv" if sweep else "report.json"
        cfg = _config(task, spec, params, f"{name}.{ext}", sweep)
        out.append(Scenario(name, task, cfg, desc, sweep=sweep is not None, files=files))

    # every model's monodromy at one step count: a block of near-equal calls
    # that holds the median call, so scenario_p50_s does not sit on a gap
    for tag, *_ in models:
        add(f"mono-{tag}", "monodromy", tag,
            {"steps_per_period": 256, "order": 4, "self_convergence": True})
    for tag in ("rabi0", "fleet3", "harmonic4"):
        add(f"spec-{tag}", "floquet-spectrum", tag,
            {"n_modes": 24 if tag.startswith("rabi") else 16})
    for tag in ("rabi1", "fleet4", "harmonic3"):
        add(f"corr-{tag}", "correspondence", tag,
            {"n_modes": 32 if tag.startswith("rabi") else 20, "steps_per_period": 256,
             "order": 4})
    # resolvent-check: n_t from 64 to 1024 on the dense grid path
    for name, tag, n_t in (("res-rabi3", "rabi3", 512), ("res-rabi4", "rabi4", 512),
                           ("res-harmonic2", "harmonic2", 1024),
                           ("res-harmonic4", "harmonic4", 128),
                           ("res-fleet4", "fleet4", 256), ("res-fleet3-64", "fleet3", 64),
                           ("res-fleet3-512", "fleet3", 512),
                           ("res-fleet3-1024", "fleet3", 1024)):
        lam = [round(float(rng.uniform(-3.0, 3.0)), 6), round(float(rng.uniform(0.5, 2.0)), 6)]
        add(name, "resolvent-check", tag, {"lambda": lam, "n_t": n_t, "n_modes": 8})
    add("sweep-corr", "correspondence", "rabi5",
        {"steps_per_period": 256, "order": 4},
        {"parameter": "n_modes", "values": [8, 16, 32]})
    add("sweep-eta", "resolvent-check", "fleet3", {"n_t": 64, "n_modes": 8},
        {"parameter": "eta", "values": [4.0, 16.0, 64.0, 256.0]})
    return out


def make(workload: str, seed: int, directory_name: str = "") -> list[Scenario]:
    if workload == "ring-scatter":
        return ring_scatter(seed)
    if workload == "ring-bound":
        return ring_bound(seed)
    if workload == "fiber-batch":
        return fiber_batch(seed, directory_name)
    raise ValueError(f"unknown workload '{workload}'; expected one of {WORKLOADS}")

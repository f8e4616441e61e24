"""Structural identities on random small models: fiber dimension d <= 4 and at most
two harmonics, drawn by hypothesis with derandomize=True.

- the cocycle U(t, r) U(r, s) = U(t, s) on the step grid;
- Theta = A^T A, A = U(s + 1/2, s), against the full N-step Theta where
  H(t)^T = H(-t);
- Theta at s and at s mod 1, bit for bit;
- H_-n = H_n^dagger through a model-file round trip;
- the shift relations K S - S K = 2 pi S and exp(i J sigma) S exp(-i J sigma) =
  exp(2 pi i sigma) S through floquet's sliced defects.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqscat.floquet import build_floquet, shift_commutation_defect
from floqscat.model import PeriodicHamiltonian, load_model, model_from_json_dict
from floqscat.propagation import PropagatorSchedule, monodromy, propagate, reflection_symmetric

from oracles import check_cocycle, save_model, shift_group_defect

EXAMPLES = settings(max_examples=25, derandomize=True, deadline=None)
SCHEDULES = st.builds(PropagatorSchedule, st.sampled_from([16, 32]), st.sampled_from([2, 4]))


@st.composite
def small_models(draw, reflective=None):
    """A PeriodicHamiltonian of d <= 4 sites with harmonics 1..(1 or 2): H0 Hermitian,
    H_n of a drawn scale and H_-n = H_n^dagger exactly.  A reflective draw is real, so
    that H_-n = H_n^T and H0 = H0^T as well: H(t)^T = H(-t)."""
    dim = draw(st.integers(1, 4), label="dim")
    harmonics = draw(st.integers(1, 2), label="harmonics")
    scale = draw(st.floats(0.1, 2.0), label="scale")
    real = draw(st.booleans(), label="real") if reflective is None else reflective
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))

    def matrix():
        a = rng.normal(size=(dim, dim))
        return a if real else a + 1j * rng.normal(size=(dim, dim))

    h0 = matrix()
    modes = {}
    for n in range(1, harmonics + 1):
        modes[n] = scale * matrix() / n
        modes[-n] = modes[n].conj().T
    return PeriodicHamiltonian(h0=(h0 + h0.conj().T) / 2, modes=modes)


@EXAMPLES
@given(h=small_models(), sched=SCHEDULES, data=st.data())
def test_cocycle_on_the_step_grid(h, sched, data):
    # s <= r <= t on the grid of the schedule's steps: the pieces take the steps of
    # the whole sweep, so the two sides differ by round-off alone
    n = sched.steps_per_period
    a, b, c = sorted(data.draw(st.lists(st.integers(0, 2 * n), min_size=3, max_size=3),
                               label="steps"))
    assert check_cocycle(h, a / n, b / n, c / n, sched) <= 1e-12


@EXAMPLES
@given(h=small_models(reflective=True), sched=SCHEDULES, start=st.sampled_from([0.0, 0.5]))
def test_half_path_is_the_full_period(h, sched, start):
    assert reflection_symmetric(h, start, sched)
    full = propagate(h, start, start + 1.0, sched)
    assert np.abs(monodromy(h, start, sched).operator - full).max() <= 1e-13


@EXAMPLES
@given(h=small_models(), sched=SCHEDULES, fraction=st.floats(0.0, 1.0, exclude_max=True),
       periods=st.integers(-3, 3))
def test_theta_at_the_start_mod_one(h, sched, fraction, periods):
    s = fraction + periods
    got, want = monodromy(h, s, sched), monodromy(h, s % 1.0, sched)
    assert got.start == want.start == s % 1.0
    assert got.operator.tobytes() == want.operator.tobytes()


@EXAMPLES
@given(h=small_models(), flaw=st.floats(1e-6, 1e-3))
def test_mode_pairs_survive_the_model_file(h, flaw):
    # the file holds every mode: read back, H_-n = H_n^dagger bit for bit, and a
    # file whose pair is broken by `flaw` relative is refused
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(h, path)
        back = load_model(path)
        doc = json.loads(path.read_text())
    assert np.array_equal(back.h0, h.h0) and back.modes.keys() == h.modes.keys()
    for n, m in back.modes.items():
        assert np.array_equal(m, h.modes[n])
        assert np.array_equal(back.modes[-n], m.conj().T)
    [entry] = [e for e in doc["modes"] if e["n"] == -1]
    entry["matrix"][0][0][0] += flaw * max(abs(x) for row in entry["matrix"] for z in row
                                           for x in z)
    with pytest.raises(ValueError, match="mode symmetry"):
        model_from_json_dict(doc)


@EXAMPLES
@given(h=small_models(), extra=st.integers(0, 2), sigma=st.floats(0.0, 2.0))
def test_shift_relations_through_the_sliced_defects(h, extra, sigma):
    # the sliced defects are the dense definitions on the truncated shift's interior,
    # and vanish to round-off
    n_modes, d = h.max_mode + extra, h.dim
    k = build_floquet(h, n_modes)
    s = np.kron(np.eye(2 * n_modes + 1, k=-1), np.eye(d))
    interior = (slice(d, None), slice(None, -d))
    comm = k.matrix @ s - s @ k.matrix - 2 * np.pi * s
    assert shift_commutation_defect(k) == np.abs(comm[interior]).max()
    assert shift_commutation_defect(k) <= 1e-12 * (1 + 2 * np.pi * n_modes)
    phases = np.repeat(np.exp(1j * k.space.frequencies * sigma), d)
    group = (phases[:, None] * s) * phases.conj()[None, :] - np.exp(2j * np.pi * sigma) * s
    assert shift_group_defect(k, sigma) == np.abs(group[interior]).max()
    assert shift_group_defect(k, sigma) <= 1e-10

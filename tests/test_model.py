import json

import numpy as np
import pytest

from floqscat.model import (
    PeriodicHamiltonian,
    build_lattice,
    fourier_modes,
    load_model,
    model_from_json_dict,
    model_to_json_dict,
    rabi_model,
    save_model,
)
from floqscat.numerics import hermitian_defect

from conftest import random_hermitian


def two_harmonic(seed=0, dim=3):
    rng = np.random.default_rng(seed)
    h0 = random_hermitian(dim, seed)
    m1 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m2 = 0.4 * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return PeriodicHamiltonian(h0=h0, modes={1: m1, -1: m1.conj().T, 2: m2, -2: m2.conj().T})


class TestEvaluate:
    def test_constant(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        h = PeriodicHamiltonian(h0=x)
        for t in (0.0, 0.3, 0.9, 2.4):
            assert np.array_equal(h.evaluate(t), x.astype(complex))

    def test_cosine_drive_at_zero(self):
        v = random_hermitian(3, seed=1).real  # real symmetric single harmonic
        h0 = random_hermitian(3, seed=2)
        h = PeriodicHamiltonian(h0=h0, modes={1: v, -1: v})
        assert np.abs(h.evaluate(0.0) - (h0 + 2 * v)).max() < 1e-14

    def test_hermitian_at_random_times(self):
        from floqscat.model import fleet

        rng = np.random.default_rng(4)
        for h in [two_harmonic(seed=3)] + fleet():
            for t in rng.uniform(0, 1, size=100):
                assert hermitian_defect(h.evaluate(t)) <= 1e-12

    def test_bitwise_periodicity_on_dyadic_grid(self):
        # t + 1 is exactly representable on the dyadic grid, so t mod 1 agrees
        # bitwise and the evaluations are identical floats
        h = two_harmonic(seed=5)
        for k in range(0, 1024, 37):
            t = k / 1024.0
            assert np.array_equal(h.evaluate(t), h.evaluate(t + 1.0))

    def test_mode_symmetry_enforced(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="partner"):
            PeriodicHamiltonian(h0=np.zeros((2, 2)), modes={1: bad})
        with pytest.raises(ValueError, match="symmetry"):
            PeriodicHamiltonian(h0=np.zeros((2, 2)), modes={1: bad, -1: 2 * bad.conj().T})


class TestFourierModes:
    def test_constant_samples(self):
        x = random_hermitian(2, seed=6)
        samples = [(j / 16, x) for j in range(16)]
        h = fourier_modes(samples, m_cut=2)
        assert np.abs(h.mode(0) - x).max() < 1e-14
        for n in (1, 2, -1, -2):
            assert np.abs(h.mode(n)).max() < 1e-14

    def test_single_harmonic(self):
        v = random_hermitian(3, seed=7).real
        samples = [(j / 64, 2 * np.cos(2 * np.pi * j / 64) * v) for j in range(64)]
        h = fourier_modes(samples, m_cut=3)
        assert np.abs(h.mode(1) - v).max() < 1e-12
        assert np.abs(h.mode(-1) - v).max() < 1e-12
        assert np.abs(h.mode(2)).max() < 1e-12

    def test_degree_three_round_trip(self):
        src = PeriodicHamiltonian(
            h0=np.zeros((3, 3)),
            modes=two_harmonic(seed=8).modes | {},
        )
        # add a third harmonic
        rng = np.random.default_rng(9)
        m3 = 0.2 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        src = PeriodicHamiltonian(h0=np.zeros((3, 3)),
                                  modes=src.modes | {3: m3, -3: m3.conj().T})
        n_t = 8 * 3 + 8
        samples = [(j / n_t, src.evaluate(j / n_t)) for j in range(n_t)]
        rec = fourier_modes(samples, m_cut=3)
        for n in range(-3, 4):
            assert np.abs(rec.mode(n) - src.mode(n)).max() < 1e-10
        for j in range(n_t):
            assert np.abs(rec.evaluate(j / n_t) - src.evaluate(j / n_t)).max() < 1e-10

    def test_rejects_nonuniform_grid(self):
        x = np.eye(2)
        samples = [(j / 16 + (1e-3 if j == 5 else 0), x) for j in range(16)]
        with pytest.raises(ValueError, match="uniform"):
            fourier_modes(samples, m_cut=2)

    def test_rejects_short_grid(self):
        samples = [(j / 8, np.eye(2)) for j in range(8)]
        with pytest.raises(ValueError, match="4\\*M\\+2"):
            fourier_modes(samples, m_cut=2)


class TestLattice:
    def test_free_ring_spectrum(self):
        lat = build_lattice(8, 1.0, 0.0, 0.0, [0])
        evals = np.sort(np.linalg.eigvalsh(lat.h0))
        want = np.sort(-2.0 * np.cos(2 * np.pi * np.arange(8) / 8))
        assert np.abs(evals - want).max() < 1e-12

    def test_static_well_single_site(self):
        lat = build_lattice(8, 1.0, -1.0, 0.0, [0])
        full = lat.evaluate(0.25)
        want = lat.h0.copy()
        want[0, 0] += -1.0
        assert np.abs(full - want).max() < 1e-12

    def test_driven_well_invariants(self):
        lat = build_lattice(64, 1.0, -2.0, 0.5, range(29, 34))
        h = lat
        h.validate()
        rng = np.random.default_rng(10)
        for t in rng.uniform(0, 1, size=20):
            assert hermitian_defect(h.evaluate(t)) <= 1e-12
        # drive modes vanish outside the support window
        outside = np.setdiff1d(np.arange(64), lat.potential_support)
        for n in (-1, 0, 1):
            assert np.abs(np.diag(h.mode(n))[outside]).max() == 0.0
        # cosine amplitude: V(0) - V(1/2) = 2 * drive_amp on the support
        swing = np.diag(h.potential(0.0) - h.potential(0.5)).real
        assert np.allclose(swing[lat.potential_support], 2 * 0.5)

    def test_rejects_bad_support(self):
        with pytest.raises(ValueError, match="support"):
            build_lattice(16, 1.0, -1.0, 0.0, [20])
        with pytest.raises(ValueError, match="8 sites"):
            build_lattice(4, 1.0, 0.0, 0.0, [0])


class TestJsonRoundTrip:
    def test_write_read_write_identical(self, tmp_path):
        h = rabi_model(0.3, 0.7)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(h, p1)
        h2 = load_model(p1)
        save_model(h2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(h.h0, h2.h0)
        for n in h.modes:
            assert np.array_equal(h.mode(n), h2.mode(n))

    def test_dict_round_trip_full_precision(self):
        h = two_harmonic(seed=11)
        doc = json.loads(json.dumps(model_to_json_dict(h)))
        h2 = model_from_json_dict(doc)
        assert np.array_equal(h.h0, h2.h0)
        for n in h.modes:
            assert np.array_equal(h.mode(n), h2.mode(n))

    def test_missing_field_rejected(self):
        doc = model_to_json_dict(rabi_model())
        doc.pop("H0")
        with pytest.raises(ValueError, match="H0"):
            model_from_json_dict(doc)

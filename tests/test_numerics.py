import numpy as np
import pytest

import floqscat.numerics as numerics
from floqscat.numerics import (
    SingularMatrixError,
    _fix_phases,
    expm_hermitian,
    hermitian_eig,
    solve,
    unitary_defect,
    unitary_eig,
)

from conftest import random_hermitian, random_unitary
from oracles import orthonormality_defect, reconstruct


class TestHermitianEig:
    def test_diagonal(self):
        eig = hermitian_eig(np.diag([1.0, 2.0]))
        assert np.allclose(eig.values, [1.0, 2.0])
        assert np.allclose(eig.vectors, np.eye(2))

    def test_pauli_x(self):
        eig = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(eig.values, [-1.0, 1.0])
        expect = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2)
        assert np.abs(np.abs(eig.vectors) - np.abs(expect)).max() < 1e-12

    def test_reconstruction_50(self):
        a = random_hermitian(50, seed=1)
        eig = hermitian_eig(a)
        scale = np.linalg.norm(a, 2)
        assert np.abs(reconstruct(eig) - a).max() <= 1e-9 * scale
        assert eig.residual(a) <= 1e-9 * scale
        assert orthonormality_defect(eig) <= 1e-10

    def test_values_real_ascending(self):
        eig = hermitian_eig(random_hermitian(17, seed=2))
        assert np.all(np.diff(eig.values) >= 0)
        assert np.abs(eig.values.imag).max() == 0.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eig(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="asymmetry"):
            hermitian_eig(a)

    def test_deterministic(self):
        a = random_hermitian(20, seed=3)
        e1, e2 = hermitian_eig(a), hermitian_eig(a)
        assert np.array_equal(e1.values, e2.values)
        assert np.array_equal(e1.vectors, e2.vectors)


class TestUnitaryEig:
    def test_identity(self):
        eig = unitary_eig(np.eye(4, dtype=complex))
        assert np.allclose(eig.values, 1.0)

    def test_diagonal_phases_sorted(self):
        u = np.diag(np.exp(1j * np.array([1.7, 0.3])))
        eig = unitary_eig(u)
        assert np.allclose(np.angle(eig.values), [0.3, 1.7])

    def test_exponential_spectral_mapping(self):
        h = random_hermitian(12, seed=4)
        heig = hermitian_eig(h)
        u = expm_hermitian(h, 1.0)
        ueig = unitary_eig(u)
        got = np.sort_complex(ueig.values)
        want = np.sort_complex(np.exp(-1j * heig.values))
        assert np.abs(got - want).max() < 1e-9

    def test_residual_and_orthonormality(self):
        u = random_unitary(30, seed=5)
        eig = unitary_eig(u)
        assert eig.residual(u) <= 1e-9
        assert orthonormality_defect(eig) <= 1e-10
        assert np.abs(np.abs(eig.values) - 1.0).max() <= 1e-10

    def test_reconstruction_identity_on_unitaries(self):
        u = random_unitary(15, seed=6)
        eig = unitary_eig(u)
        assert np.abs(reconstruct(eig) - u).max() <= 1e-9

    def test_clustered_phases(self):
        # nearly degenerate eigenphases exercise the cluster split
        base = np.diag(np.exp(1j * np.array([0.5, 0.5 + 3e-9, 2.0])))
        w = random_unitary(3, seed=7)
        eig = unitary_eig(w @ base @ w.conj().T)
        assert orthonormality_defect(eig) <= 1e-10
        assert eig.residual(w @ base @ w.conj().T) <= 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            unitary_eig(np.diag([1.0, 2.0]).astype(complex))

    @staticmethod
    def complex_route(u, monkeypatch):
        """unitary_eig with the symmetry test bypassed: the complex eigh of (U + U^H)/2."""
        with monkeypatch.context() as m:
            m.setattr(numerics, "SYMMETRY_TOL", -1.0)
            return unitary_eig(u)

    def test_symmetric_monodromy_takes_the_real_route(self, monkeypatch):
        # the 256-site driven ring's window-route Theta, symmetric to 2.2e-16.
        # Measured: residual 1.65e-12 (complex route 1.79e-12), orthonormality
        # defect 2.7e-15 (3.3e-15); eigenvalues within 3.7e-15
        from floqscat.model import build_lattice
        from floqscat.propagation import PropagatorSchedule, period_operator

        ring = build_lattice(256, 1.0, -0.8, 0.5, range(126, 131))
        theta = period_operator(ring, 0.0, PropagatorSchedule(64, 4))
        assert 0.0 < np.abs(theta - theta.T).max() <= numerics.SYMMETRY_TOL
        kinds, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: kinds.append(a.dtype) or eigh(a))
        real = unitary_eig(theta)
        cplx = self.complex_route(theta, monkeypatch)
        assert kinds == [np.float64, np.complex128]
        assert real.vectors.dtype == np.complex128
        assert real.residual(theta) <= 10 * cplx.residual(theta) <= 1e-10
        assert orthonormality_defect(real) <= 10 * orthonormality_defect(cplx) <= 1e-13
        assert np.abs(real.values - cplx.values).max() <= 1e-13

    @pytest.mark.parametrize("seed", [5, 6, 21])
    def test_non_symmetric_unitary_keeps_the_complex_route(self, seed, monkeypatch):
        u = random_unitary(40, seed=seed)
        got, want = unitary_eig(u), self.complex_route(u, monkeypatch)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.vectors, want.vectors)


class TestWholeMatrixReferences:
    """The in-place forms against the whole-matrix expressions they replace."""

    def test_unitary_defect(self):
        for u in (random_unitary(40, seed=22), np.eye(3, dtype=complex),
                  np.diag([1.0, 2.0]).astype(complex)):
            want = float(np.abs(u.conj().T @ u - np.eye(len(u))).max())
            assert unitary_defect(u) == want

    def test_tiebreak_returns_its_inputs_without_a_tie(self):
        values, vectors = np.array([0.1, 0.2, 0.3]), random_unitary(3, seed=24)
        got = numerics._lex_tiebreak(values, vectors, values)
        assert got[0] is values and got[1] is vectors


def _fix_phases_loop(vectors):
    """The per-column phase fix: the reference _fix_phases must equal bit for bit."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        idx = int(np.argmax(np.abs(out[:, k])))
        z = out[idx, k]
        if np.abs(z) > 0:
            out[:, k] *= np.conj(z) / np.abs(z)
    return out


class TestFixPhases:
    # square, as every eigenvector matrix is (a single row of several entries
    # can round differently: numpy multiplies a lone entry by its scalar kernel)
    @pytest.mark.parametrize("n, seed", [(1, 1), (2, 2), (7, 3), (64, 4), (256, 5)])
    def test_equals_the_column_loop(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if n > 2:
            a[:, 0] = 0.0                    # zero columns stay as they are
            a[:, 1] = complex(-0.0, -0.0)
            a[:2, 2] = [10j, -10.0]          # tied largest magnitudes: the first wins
        got, want = _fix_phases(a), _fix_phases_loop(a)
        assert got.tobytes() == want.tobytes()


class TestExpmHermitian:
    def test_tau_zero_exact_identity(self):
        h = random_hermitian(9, seed=8)
        assert np.array_equal(expm_hermitian(h, 0.0), np.eye(9))

    def test_scalar_phase(self):
        u = expm_hermitian(np.diag([np.pi]), 1.0)
        assert abs(u[0, 0] + 1.0) < 1e-12

    def test_matches_eigendecomposition(self):
        h = random_hermitian(11, seed=9)
        eig = hermitian_eig(h)
        want = (eig.vectors * np.exp(-0.7j * eig.values)) @ eig.vectors.conj().T
        assert np.abs(expm_hermitian(h, 0.7) - want).max() <= 1e-10

    def test_unitary_output(self):
        u = expm_hermitian(random_hermitian(16, seed=10), 1.3)
        assert unitary_defect(u) <= 1e-10

    def test_group_law(self):
        h = random_hermitian(8, seed=11)
        lhs = expm_hermitian(h, 0.4) @ expm_hermitian(h, 0.9)
        assert np.abs(lhs - expm_hermitian(h, 1.3)).max() <= 1e-10

    def test_apply_is_the_spectral_action(self):
        # V (e^{-i tau E} (V^H x)), bit for bit
        eig = hermitian_eig(random_hermitian(10, seed=13))
        x = random_hermitian(10, seed=14)[:, :3]
        v, phases = eig.vectors, np.exp(-0.7j * eig.values)
        want = v @ (phases[:, None] * (v.conj().T @ x))
        assert np.array_equal(eig.apply(phases, x), want)

    def test_apply_keeps_a_vector_a_vector(self):
        # a 1-d x once broadcast the phases against V^H x into an L x L array
        from floqscat.model import build_lattice
        from floqscat.propagation import PropagatorSchedule, monodromy

        ring = build_lattice(16, 1.0, -1.0, 0.5, [7, 8])
        rng = np.random.default_rng(15)
        x = rng.normal(size=16) + 1j * rng.normal(size=16)
        got = ring.free_apply(0.5, x)
        assert got.shape == x.shape
        assert np.array_equal(got, ring.free_apply(0.5, x[:, None])[:, 0])
        assert np.abs(got - ring.free_propagator(0.5) @ x).max() <= 1e-14
        mono = monodromy(ring, 0.0, PropagatorSchedule(16, 2))
        got = mono.apply(3, x)
        assert got.shape == x.shape
        assert np.array_equal(got, mono.apply(3, x[:, None])[:, 0])

    @pytest.mark.parametrize("tau", [0.3, 1.0, 2.5])
    def test_spectral_mapping(self, tau):
        h = random_hermitian(10, seed=12)
        heig = hermitian_eig(h)
        ueig = unitary_eig(expm_hermitian(h, tau))
        got = np.sort_complex(ueig.values)
        want = np.sort_complex(np.exp(-1j * tau * heig.values))
        assert np.abs(got - want).max() <= 1e-9


class TestSolve:
    def test_identity(self):
        b = np.arange(5).astype(complex)
        x, cond = solve(np.eye(5), b)
        assert np.array_equal(x, b)
        assert cond == pytest.approx(1.0)

    def test_diagonal(self):
        x, _ = solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0])

    def test_residual_bound(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)) + 8 * np.eye(64)
        b = rng.normal(size=64) + 1j * rng.normal(size=64)
        x, cond = solve(a, b)
        resid = np.linalg.norm(a @ x - b)
        bound = 1e-10 * (np.linalg.norm(a, 2) * np.linalg.norm(x) + np.linalg.norm(b))
        assert resid <= bound
        assert np.isfinite(cond) and cond >= 1.0

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with pytest.raises(SingularMatrixError):
            solve(a, np.ones(2, dtype=complex))

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import floqscat.numerics as numerics
from floqscat.numerics import (
    SingularMatrixError,
    expm_hermitian,
    hermitian_eig,
    unitary_defect,
    unitary_eig,
)

from conftest import random_hermitian, random_unitary
from oracles import (free_propagator, orthonormality_defect, reconstruct, residual,
                     schur_unitary_eig, solve)


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
        assert residual(eig, a) <= 1e-9 * scale
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

    def test_stack_holds_its_worst_entry(self):
        # a stack passes or fails as its largest relative asymmetry does, and
        # the message names that entry
        defects, scales = np.array([0.0, 3e-12, 5e-13]), np.array([0.0, 10.0, 0.1])
        numerics.require_hermitian(defects, scales)
        defects[2] = 2e-12
        with pytest.raises(ValueError, match="^c is not Hermitian: max asymmetry 2.000e-12"):
            numerics.require_hermitian(defects, scales, ["a", "b", "c is not Hermitian"])
        with pytest.raises(ValueError, match="^matrix is not Hermitian"):
            numerics.require_hermitian(defects, scales)

    def test_real_matrix_takes_the_real_eigh(self, monkeypatch):
        # a Hermitian matrix with no imaginary part is diagonalized as a.real: the
        # values and projectors of the complex eigh
        a = random_hermitian(30, seed=5).real
        a = (a + a.T) / 2 + np.diag(np.repeat([0.5, -0.5, 2.0], 10))
        complex_eig = np.linalg.eigh(a.astype(np.complex128))
        dtypes, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: dtypes.append(m.dtype) or eigh(m))
        eig = hermitian_eig(a.astype(np.complex128))
        assert dtypes == [np.float64]
        assert eig.vectors.dtype == np.complex128 and not eig.vectors.imag.any()
        assert np.abs(eig.values - complex_eig[0]).max() <= 1e-13
        assert residual(eig, a) <= 1e-13 and orthonormality_defect(eig) <= 1e-14
        hermitian_eig(a + 1e-3j * (np.triu(a, 1) - np.tril(a, -1)))
        assert dtypes == [np.float64, np.complex128]

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
        assert residual(eig, u) <= 1e-9
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
        assert residual(eig, w @ base @ w.conj().T) <= 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            unitary_eig(np.diag([1.0, 2.0]).astype(complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5], ids=["nan", "inf", "large"])
    def test_entry_above_modulus_one_is_named_before_the_eigh(self, bad, monkeypatch):
        u = random_unitary(5, seed=3)
        u[2, 0] = bad
        monkeypatch.setattr(np.linalg, "eigh", lambda a: pytest.fail("eigh was called"))
        with pytest.raises(numerics.NonUnitaryError,
                           match=re.escape(f"matrix is not unitary: entry (2, 0) has modulus "
                                           f"{abs(bad):.3e} > 1")):
            unitary_eig(u)

    def test_eigenvalue_off_the_unit_circle_is_named(self):
        # every entry within modulus 1 and V exact, so only |lambda| - 1 fails
        with pytest.raises(numerics.NonUnitaryError,
                           match="^matrix is not unitary: max\\|\\|lambda\\| - 1\\| = 5.000e-01"):
            unitary_eig(np.diag([1.0, 0.5, 1j]))

    def test_unrotated_pair_is_refused(self, monkeypatch):
        # eigenphases +-theta share cos(theta), so their Hermitian-part eigenvectors mix
        # them; with the cluster's rotation skipped those columns are no eigenvectors of
        # U, and the residual gate refuses them where a Gram check of U would pass
        phases = np.array([0.9, -0.9, 2.5, 4.0])
        w = random_unitary(4, seed=12)
        u = (w * np.exp(1j * phases)) @ w.conj().T
        monkeypatch.setattr(np.linalg, "qr", lambda a: (np.eye(len(a), dtype=complex), None))
        with pytest.raises(numerics.NonUnitaryError,
                           match="^matrix is not unitary: max\\|UV - V diag\\(lambda\\)\\|"):
            unitary_eig(u)

    def test_no_gram_product(self, monkeypatch):
        # the gate reads U V, the product the eigenvalues come from: unitary_defect's
        # A^H A is formed on no route
        calls = []
        monkeypatch.setattr(numerics, "unitary_defect", lambda a: calls.append(a) or 0.0)
        ring = TestMirrorSectors.ring(40)
        theta = ring.free_period
        for u, mirror in [(random_unitary(12, seed=4), None), (theta, None),
                          (theta, ring.mirror())]:
            eig = unitary_eig(u, mirror)
            assert residual(eig, u) <= 1e-12
        assert calls == []

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
        from floqscat.propagation import PropagatorSchedule, monodromy

        ring = build_lattice(256, 1.0, -0.8, 0.5, range(126, 131))
        theta = monodromy(ring, 0.0, PropagatorSchedule(64, 4)).operator
        assert 0.0 < np.abs(theta - theta.T).max() <= numerics.SYMMETRY_TOL
        kinds, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: kinds.append(a.dtype) or eigh(a))
        real = unitary_eig(theta)
        cplx = self.complex_route(theta, monkeypatch)
        assert kinds == [np.float64, np.complex128]
        assert real.vectors.dtype == np.complex128
        assert residual(real, theta) <= 10 * residual(cplx, theta) <= 1e-10
        assert orthonormality_defect(real) <= 10 * orthonormality_defect(cplx) <= 1e-13
        assert np.abs(real.values - cplx.values).max() <= 1e-13

    @pytest.mark.parametrize("seed", [5, 6, 21])
    def test_non_symmetric_unitary_keeps_the_complex_route(self, seed, monkeypatch):
        u = random_unitary(40, seed=seed)
        got, want = unitary_eig(u), self.complex_route(u, monkeypatch)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.vectors, want.vectors)


class TestMirrorSectors:
    """unitary_eig(u, mirror): Theta folded on R's even and odd sectors, each
    diagonalized alone, against the one decomposition of the whole matrix."""

    @staticmethod
    def ring(sites):
        from floqscat.model import build_lattice

        return build_lattice(sites, 1.0, -0.8, 0.5, range(sites // 2 - 2, sites // 2 + 3))

    @staticmethod
    def theta(sites, start):
        from floqscat.propagation import PropagatorSchedule, monodromy

        ring = TestMirrorSectors.ring(sites)
        return monodromy(ring, start, PropagatorSchedule(64, 4)).operator, ring.mirror()

    @staticmethod
    def planted(delta):
        # a unitary commuting with the 40-site reflection, with one even and one
        # odd eigenphase delta apart: clustered by the whole matrix's route
        mirror = TestMirrorSectors.ring(40).mirror()
        sectors = numerics.MirrorSectors(mirror)
        n_even = len(sectors.a) + len(sectors.fixed)
        rng = np.random.default_rng(41)
        phases = rng.uniform(0.0, 2 * np.pi, 40)
        phases[n_even] = phases[0] + delta
        basis = sectors.unfold(random_unitary(n_even, seed=42),
                               random_unitary(len(sectors.a), seed=43))
        return (basis * np.exp(1j * phases)) @ basis.conj().T, mirror

    CASES = {"window-256": lambda: TestMirrorSectors.theta(256, 0.0),
             "start-0.25": lambda: TestMirrorSectors.theta(256, 0.25),
             "stepped-44": lambda: TestMirrorSectors.theta(44, 0.0),
             "planted-1e-5": lambda: TestMirrorSectors.planted(1e-5)}

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_agrees_with_the_whole_matrix(self, case):
        u, mirror = case()
        got, want = unitary_eig(u, mirror), unitary_eig(u)
        assert np.abs(got.values - want.values).max() <= 1e-12
        # each eigenvector up to its phase, which neither route fixes
        overlap = (want.vectors.conj() * got.vectors).sum(axis=0)
        aligned = got.vectors * (overlap.conj() / np.abs(overlap))
        assert np.abs(aligned - want.vectors).max() <= 1e-12
        assert residual(got, u) <= 10 * residual(want, u) <= 1e-10
        assert orthonormality_defect(got) <= 1e-13

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(sites=st.integers(16, 64), hopping=st.floats(0.3, 1.5), first=st.integers(0, 63),
           half=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 1.0)), min_size=1,
                         max_size=3),
           odd=st.booleans(), start=st.sampled_from([0.0, 0.25]))
    def test_random_mirror_symmetric_rings(self, sites, hopping, first, half, odd, start):
        # a well and a drive whose profiles read the same from either end of the
        # support: unitary_eig with and without the mirror gives the same sorted
        # eigenphases, and either eigenbasis rebuilds Theta
        from floqscat.model import LatticeModel
        from floqscat.propagation import PropagatorSchedule, monodromy

        half = np.array(half)    # (well, drive) on the support's first half
        profile = np.concatenate([half, half[::-1][1:] if odd else half[::-1]]).T
        support = (first + np.arange(profile.shape[1])) % sites
        well, drive = np.zeros((2, sites))
        well[support], drive[support] = profile
        ring = LatticeModel(hopping, support, well, drive)
        mirror = ring.mirror()
        assert mirror is not None
        theta = monodromy(ring, start, PropagatorSchedule(32, 4)).operator
        phases = []
        for eig in (unitary_eig(theta), unitary_eig(theta, mirror)):
            assert np.abs((eig.vectors * eig.values) @ eig.vectors.conj().T - theta).max() \
                <= 1e-12
            phases.append(np.mod(-np.angle(eig.values), 2 * np.pi))
        # sorted from the middle of the widest gap, so no phase near the cut at 0
        # sorts to the other end
        ring_order = np.sort(phases[0])
        gaps = np.diff(ring_order, append=ring_order[0] + 2 * np.pi)
        cut = ring_order[np.argmax(gaps)] + gaps.max() / 2
        plain, folded = (np.sort(np.mod(p - cut, 2 * np.pi)) for p in phases)
        assert np.abs(plain - folded).max() <= 1e-12

    def test_sector_vectors_are_even_or_odd(self):
        u, mirror = self.theta(256, 0.0)
        vectors = unitary_eig(u, mirror).vectors
        even = np.all(vectors[mirror] == vectors, axis=0)
        odd = np.all(vectors[mirror] == -vectors, axis=0)
        assert (even ^ odd).all() and even.sum() == 129 and odd.sum() == 127

    def test_coupled_sectors_rejected(self):
        u, mirror = self.theta(256, 0.0)
        a = int(np.flatnonzero(np.arange(256) < mirror)[0])
        b = int(mirror[a])
        u = u.copy()
        u[a, a] += 1e-8     # the even-odd coupling of the orbit {a, R[a]}: 5e-9
        u[b, b] -= 1e-8
        with pytest.raises(numerics.NonUnitaryError, match="even-odd coupling"):
            unitary_eig(u, mirror)


class TestClusterRotation:
    """unitary_eig's rotation of each cluster (the orthonormalized eigenvectors of
    B^H U B) against the complex Schur rotation it replaced
    (oracles.schur_unitary_eig)."""

    @staticmethod
    def check(u):
        eig, ref = unitary_eig(u), schur_unitary_eig(u)
        assert np.abs(u @ eig.vectors - eig.vectors * eig.values).max() <= 1e-12
        assert orthonormality_defect(eig) <= 1e-13
        assert np.abs(eig.values - ref.values).max() <= 1e-13

    def test_window_route_monodromy(self):
        from floqscat.model import build_lattice
        from floqscat.propagation import PropagatorSchedule, monodromy

        ring = build_lattice(256, 1.0, -0.8, 0.5, range(126, 131))
        theta = monodromy(ring, 0.0, PropagatorSchedule(64, 4)).operator
        cos = np.linalg.eigvalsh((theta + theta.conj().T) / 2)
        clusters = np.diff([0, *(np.flatnonzero(np.diff(cos) > numerics.CLUSTER_GAP) + 1),
                            len(cos)])
        assert (clusters > 1).sum() == 12 and clusters.max() == 2
        self.check(theta)

    PAIRS = {f"+-{t:.3g}": (t, -t) for t in (1e-9, 1e-3, np.pi / 3, np.pi - 1e-3)}
    PAIRS.update({f"{c}pi/2+-{d:g}": (c * np.pi / 2 + d, c * np.pi / 2 - d)
                  for c in (1, 3) for d in (1e-5, 1e-8, 0.0)})

    @pytest.mark.parametrize("pair", PAIRS.values(), ids=PAIRS.keys())
    def test_planted_pairs(self, pair):
        # eigenphases +-theta share cos(theta), so they share a cluster; c +- delta
        # at c = pi/2 or 3pi/2 share a cluster and sin(c +- delta) too, which a
        # rotation by the sine part alone cannot split; 2.0 is exactly
        # degenerate; the rest are drawn away from both
        rng = np.random.default_rng(31)
        rest = rng.uniform(0.0, 2 * np.pi, 20)
        keep = ((np.abs(np.cos(rest) - np.cos(pair[0])) > 1e-2)
                & (np.abs(np.cos(rest) - np.cos(2.0)) > 1e-2))
        phases = np.concatenate([pair, [2.0, 2.0], rest[keep]])
        w = random_unitary(len(phases), seed=32)
        self.check((w * np.exp(1j * phases)) @ w.conj().T)


class TestWholeMatrixReferences:
    """The in-place forms against the whole-matrix expressions they replace."""

    def test_unitary_defect(self):
        for u in (random_unitary(40, seed=22), np.eye(3, dtype=complex),
                  np.diag([1.0, 2.0]).astype(complex)):
            want = float(np.abs(u.conj().T @ u - np.eye(len(u))).max())
            assert unitary_defect(u) == want


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

    def test_row_change_of_basis_and_matrix(self):
        # the conjugate-free forms, bit for bit against the copies of conj(V)
        eig = hermitian_eig(random_hermitian(10, seed=13))
        x = random_hermitian(10, seed=14)[:3]
        v, weights = eig.vectors, 1.0 / (eig.values - 0.3j)
        assert np.array_equal(eig.to_eigenbasis(x), x @ v.conj())
        assert np.array_equal(eig.matrix(weights), (v * weights) @ v.conj().T)
        stack = np.stack([weights, np.exp(-0.7j * eig.values)])
        assert np.array_equal(eig.matrix(stack), np.stack([eig.matrix(w) for w in stack]))

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
        assert np.abs(got - free_propagator(ring, 0.5) @ x).max() <= 1e-14
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


class TestNonFiniteNorms:
    """op_norm of a matrix with a non-finite entry is max|A|, where LAPACK's SVD does
    not converge."""

    def test_op_norm_of_an_infinite_entry_is_inf(self):
        a = np.eye(3, dtype=np.complex128)
        a[1, 2] = np.inf
        assert numerics.op_norm(a) == np.inf

    def test_op_norm_of_a_nan_entry_is_nan(self):
        a = np.eye(3, dtype=np.complex128)
        a[2, 0] = np.nan
        assert np.isnan(numerics.op_norm(a))

    def test_unconverged_eigh_names_the_largest_entry(self, monkeypatch):
        def unconverged(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", unconverged)
        with pytest.raises(numerics.NumericalError, match="largest entry 4.500e\\+189"):
            hermitian_eig(np.diag([-4.5e189, 1.0]))

    @pytest.mark.parametrize("u", [random_unitary(6, seed=3),
                                   np.diag(np.exp(1j * np.array([0.3, 1.7, 4.0])))],
                             ids=["complex", "symmetric"])
    def test_unconverged_eigh_of_the_hermitian_part_is_diagnosed(self, u, monkeypatch):
        # unitary_eig diagonalizes (U + U^H)/2 through hermitian_eig: an eigh that does not
        # converge there is a NumericalError naming that part's largest entry
        def unconverged(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", unconverged)
        largest = np.abs((u + u.conj().T) / 2).max()
        with pytest.raises(numerics.NumericalError, match=f"largest entry {largest:.3e}"):
            unitary_eig(u)


class TestNanFailsClosed:
    """A gate that holds a value to a bound fails on a NaN value: `not value <= bound`,
    where `value > bound` is false for a NaN and lets it through."""

    def test_check_unitary(self):
        u = np.eye(3, dtype=np.complex128)
        u[0, 1] = np.nan
        with pytest.raises(numerics.NonUnitaryError, match="nan"):
            unitary_eig(u)

    @pytest.mark.parametrize("defects, scales", [(np.nan, 1.0), ([0.0, np.nan], [1.0, 1.0]),
                                                 ([0.0, 0.0], [1.0, np.nan])])
    def test_require_hermitian(self, defects, scales):
        with pytest.raises(ValueError, match="^matrix is not Hermitian"):
            numerics.require_hermitian(defects, scales)

    def test_mirror_coupling(self):
        # a NaN on an odd row of an even column, from a fixed site: the even-odd block
        # is zero and the odd-even one NaN, the second place that Python's max dropped
        sectors = numerics.MirrorSectors(TestMirrorSectors.ring(40).mirror())
        u = np.eye(40, dtype=np.complex128)
        u[sectors.a[0], sectors.fixed[0]] = np.nan
        with pytest.raises(numerics.NonUnitaryError, match="even-odd coupling nan"):
            sectors.blocks(u)


class TestCsrKernels:
    """scipy's CSR multivector kernel, csr_matvecs, the one the package calls, is bound at
    import, so a scipy that lacks it fails there, naming it, and not in the first step."""

    def test_bound_at_import(self):
        assert numerics.csr_matvecs.__name__ == "csr_matvecs"
        for name in ["csr_matmat", "csr_matmat_maxnnz", "csr_minus_csr", "CSR_KERNELS"]:
            assert not hasattr(numerics, name)

    def test_missing_kernel_raises_import_error_naming_it(self):
        import types

        with pytest.raises(ImportError, match="csr_matvecs$"):
            numerics._bind(types.SimpleNamespace(csr_matmat=object()))

    def test_every_call_hands_c_ordered_complex_blocks(self, tmp_path, monkeypatch):
        # csr_matvecs trusts the declared shapes, reading and writing past a smaller
        # block, and copies a block that is not C-ordered complex128 on every call:
        # every call of a ring-bound scenario and of a Rabi order-4 monodromy (whose
        # H_-1 is a transposed view) hands it blocks of the declared shapes as they are
        import json

        import floqscat.floquet as floquet
        import floqscat.propagation as propagation
        from floqscat.cli import main

        callers = set()

        def checker(module):
            def checked(n_row, n_col, n_vecs, indptr, indices, data, x, y):
                for block, rows in ((x, n_col), (y, n_row)):
                    assert block.dtype == np.complex128 and block.flags.c_contiguous
                    assert block.shape == (rows, n_vecs)
                callers.add(module.__name__)
                numerics.csr_matvecs(n_row, n_col, n_vecs, indptr, indices, data, x, y)
            return checked

        for module in (propagation, floquet):
            monkeypatch.setattr(module, "csr_matvecs", checker(module))
        lattice = {"sites": 40, "hopping": 1.0, "well_depth": -1.7, "drive_amp": 0.45,
                   "support_width": 3}
        configs = {
            "bound": {"task": "bound-states", "model": {"lattice": lattice},
                      "parameters": {"steps_per_period": 256, "order": 4, "n_modes": 8,
                                     "scan_modes": 4}},
            "rabi": {"task": "monodromy", "model": {"builtin": "rabi"},
                     "parameters": {"steps_per_period": 16, "order": 4}},
        }
        argv = ["--out", str(tmp_path)]
        for name, cfg in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
            argv += ["--config", str(tmp_path / f"{name}.json")]
        assert main(argv) == 0
        assert callers == {"floqscat.propagation", "floqscat.floquet"}

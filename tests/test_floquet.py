import numpy as np
import pytest
from scipy.linalg import block_diag

from floqscat.floquet import (
    build_floquet,
    circular_distance,
    correspondence_report,
    quasi_spectrum,
    reconstruct_mode,
    shift_commutation_defect,
)
from floqscat.model import PeriodicHamiltonian, build_lattice
from floqscat.numerics import hermitian_defect
from floqscat.propagation import PropagatorSchedule, monodromy

from conftest import random_hermitian
from oracles import block, kronecker_k, rabi_quasi_energies, shift_group_defect


class TestBuildFloquet:
    def test_constant_block_diagonal(self):
        h0 = random_hermitian(3, seed=1)
        k = build_floquet(PeriodicHamiltonian(h0=h0), 1)
        assert np.abs(block(k, -1, -1) - (h0 - 2 * np.pi * np.eye(3))).max() < 1e-14
        assert np.abs(block(k, 0, 0) - h0).max() < 1e-14
        assert np.abs(block(k, 1, 1) - (h0 + 2 * np.pi * np.eye(3))).max() < 1e-14
        assert np.abs(block(k, 0, 1)).max() == 0.0

    def test_rabi_structure(self, rabi):
        k = build_floquet(rabi, 1)
        assert k.matrix.shape == (6, 6)
        assert np.abs(block(k, 1, 0) - rabi.mode(1)).max() == 0.0
        assert np.abs(block(k, 0, 1) - rabi.mode(-1)).max() == 0.0
        assert np.abs(block(k, 1, -1)).max() == 0.0
        assert hermitian_defect(k.matrix) <= 1e-12

    def test_hermitian(self, fleet_models):
        for h in fleet_models:
            k = build_floquet(h, 8)
            assert hermitian_defect(k.matrix) <= 1e-12 * max(1.0, np.abs(k.matrix).max())

    def test_cutoff_below_support_rejected(self, fleet_models):
        with pytest.raises(ValueError, match="truncate"):
            build_floquet(fleet_models[1], 1)


class TestShiftCommutation:
    def test_constant_exact_zero(self):
        # zero diagonal keeps the 2 pi n chain subtraction exact in floats
        k = build_floquet(PeriodicHamiltonian(h0=np.array([[0.0, 1.0], [1.0, 0.0]])), 2)
        assert shift_commutation_defect(k) == 0.0

    def test_constant_random(self):
        k = build_floquet(PeriodicHamiltonian(h0=random_hermitian(2, seed=2)), 4)
        assert shift_commutation_defect(k) <= 1e-12

    def test_random_model_interior_zero(self, fleet_models):
        for h in fleet_models:
            k = build_floquet(h, 16)
            assert shift_commutation_defect(k) <= 1e-12

    @pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0])
    def test_group_form(self, fleet_models, sigma):
        k = build_floquet(fleet_models[1], 16)
        assert shift_group_defect(k, sigma) <= 1e-10

    def test_group_form_sigma_one_is_plain_shift(self, rabi):
        # exp(-iJ) = I: at sigma = 1 the conjugation returns S itself
        k = build_floquet(rabi, 8)
        phases = np.exp(1j * k.space.frequencies)
        assert np.abs(phases - 1.0).max() < 1e-12

    @pytest.mark.parametrize("n_modes", [0, 1, 4, 12])
    def test_sliced_defects_are_the_dense_shift_definitions(self, fleet_models, n_modes):
        # the defects of K S - S K - 2 pi S and exp(i J sigma) S exp(-i J sigma) -
        # exp(2 pi i sigma) S with S = S (x) I_d dense, on the rows n > -N and columns
        # m < N where the truncated shift is defined (all of them at N = 0), bit for bit
        from floqscat.floquet import FloquetMatrix

        ring = build_lattice(40, 1.0, -1.8, 0.5, range(18, 22))
        for h in [ring, *fleet_models]:
            d = h.dim
            matrix = kronecker_k(h, n_modes)[0].toarray()
            k = FloquetMatrix(fiber_dim=d, n_modes=n_modes, matrix=matrix)
            s = np.kron(np.eye(2 * n_modes + 1, k=-1), np.eye(d))
            interior = (slice(d, None), slice(None, -d)) if n_modes > 0 else np.s_[:, :]
            comm = matrix @ s - s @ matrix - 2 * np.pi * s
            assert shift_commutation_defect(k) == np.abs(comm[interior]).max()
            for sigma in (0.25, 0.3, 1.7):
                phases = np.repeat(np.exp(1j * k.space.frequencies * sigma), d)
                conj = (phases[:, None] * s) * phases.conj()[None, :]
                group = conj - np.exp(2j * np.pi * sigma) * s
                assert shift_group_defect(k, sigma) == np.abs(group[interior]).max()


class TestQuasiSpectrum:
    def test_constant_diagonal_values(self):
        h0 = np.diag([0.3, 1.1])
        spec = quasi_spectrum(build_floquet(PeriodicHamiltonian(h0=h0), 3))
        want = np.sort(np.concatenate([[0.3 + 2 * np.pi * n, 1.1 + 2 * np.pi * n]
                                       for n in range(-3, 4)]))
        assert np.abs(spec.values - want).max() < 1e-12

    def test_zero_hamiltonian_multiplicity(self):
        d = 3
        spec = quasi_spectrum(build_floquet(PeriodicHamiltonian(h0=np.zeros((d, d))), 2))
        want = np.repeat(2 * np.pi * np.arange(-2, 3), d)
        assert np.abs(spec.values - np.sort(want)).max() < 1e-12

    def test_rabi_folded_values(self, rabi):
        spec = quasi_spectrum(build_floquet(rabi, 32))
        want = rabi_quasi_energies(0.0, 1.0)
        dists = [circular_distance(spec.interior_folded, w).min() for w in want]
        assert max(dists) < 1e-6

    def test_two_pi_translation(self, fleet_models):
        for h in fleet_models:
            spec = quasi_spectrum(build_floquet(h, 16))
            interior = spec.values[spec.interior]
            # away from the window edge every interior value recurs shifted by 2pi
            core = interior[np.abs(interior) < 2 * np.pi * 8]
            for lam in core:
                assert np.abs(interior - (lam + 2 * np.pi)).min() <= 1e-10

    def test_eigenvector_block_shift(self, rabi):
        k = build_floquet(rabi, 16)
        spec = quasi_spectrum(k)
        idx = np.flatnonzero(spec.interior & (np.abs(spec.values) < 2 * np.pi * 4))
        j = idx[len(idx) // 2]
        lam = spec.values[j]
        blocks = spec.mode_blocks(j)
        shifted = np.zeros_like(blocks)
        shifted[1:] = blocks[:-1]  # mode shift by one
        shifted_vec = shifted.reshape(-1)
        resid = k.matrix @ shifted_vec - (lam + 2 * np.pi) * shifted_vec
        assert np.linalg.norm(resid) <= 1e-6

    def test_reconstructed_mode_periodic(self, rabi):
        spec = quasi_spectrum(build_floquet(rabi, 8))
        phi0 = reconstruct_mode(spec, 5, 0.0)
        phi1 = reconstruct_mode(spec, 5, 1.0)
        assert np.abs(phi0 - phi1).max() <= 1e-10


class TestCorrespondence:
    def test_constant_exact(self, fast_sched):
        h = PeriodicHamiltonian(h0=np.diag([0.4, 1.3]))
        rep = correspondence_report(monodromy(h, 0.0, fast_sched), 4)
        assert rep.max_match_distance < 1e-9
        assert rep.coverage_distance < 1e-9

    def test_rabi(self, rabi, accurate_sched):
        rep = correspondence_report(monodromy(rabi, 0.0, accurate_sched), 32)
        assert rep.max_match_distance <= 1e-6
        assert rep.coverage_distance <= 1e-6
        assert rep.mode_eigen_defect <= 1e-6

    def test_modes_resummed_at_the_monodromy_start(self, rabi):
        # Theta(s) phi(s) = e^{-i lambda} phi(s): the modes are read at s = mono.start
        mono = monodromy(rabi, 0.25, PropagatorSchedule(512, 4))
        assert correspondence_report(mono, 20).mode_eigen_defect <= 1e-10

    def test_truncation_ladder_monotone(self, rabi, accurate_sched):
        mono = monodromy(rabi, 0.0, accurate_sched)
        reports = [correspondence_report(mono, n) for n in (8, 16, 32)]
        # full-spectrum mean distance decays as the edge fraction shrinks
        means = [r.mean_match_distance for r in reports]
        assert means[0] > means[1] > means[2]
        # interior max sits at the integrator noise floor for every cutoff:
        # non-increasing within that floor, and far below tolerance
        maxes = [r.max_match_distance for r in reports]
        noise_floor = 5e-12
        assert maxes[0] + noise_floor >= maxes[1]
        assert maxes[1] + noise_floor >= maxes[2]
        assert max(maxes) <= 1e-6


class TestModeSpace:
    def test_floquet_matrix_is_kronecker_sum(self, fleet_models):
        # K = I (x) (H0 + H_0) + diag(2 pi n) (x) I + sum_{m != 0} S^m (x) H_m
        for h in fleet_models:
            n_modes = 5
            k = build_floquet(h, n_modes).matrix
            nb, d = 2 * n_modes + 1, h.dim
            want = np.kron(np.eye(nb), h.h0 + h.mode(0))
            want += np.kron(np.diag(2 * np.pi * np.arange(-n_modes, n_modes + 1)), np.eye(d))
            for m, hm in h.modes.items():
                if m != 0:
                    want += np.kron(np.eye(nb, k=-m), hm)
            assert np.array_equal(k, want)

    def test_block_q_factors_the_floquet_matrix(self, fleet_models):
        # K - zeta = (I + Q(zeta)) (K0 - zeta) with K0 = I (x) H0 + diag(2 pi n) (x) I
        from floqscat.floquet import ModeSpace
        from floqscat.resolvent import block_q

        zeta = 0.4 + 0.7j
        for h in fleet_models:
            n_modes = 4
            space = ModeSpace(n_modes, h.dim)
            k0 = np.kron(np.eye(space.n_blocks), h.h0) + np.diag(np.repeat(space.frequencies, h.dim))
            k = build_floquet(h, n_modes).matrix
            q = block_q(h, zeta, n_modes)
            shifted = k0 - zeta * np.eye(space.size)
            lhs = (np.eye(space.size) + q) @ shifted
            assert np.abs(lhs - (k - zeta * np.eye(space.size))).max() <= 1e-12
            r0 = block_diag(*space.free_resolvent(h.free_eig, zeta))
            assert np.abs(r0 @ shifted - np.eye(space.size)).max() <= 1e-12

    @pytest.mark.parametrize("n_modes", [0, 1, 3])
    def test_toeplitz_is_the_kronecker_sum(self, n_modes):
        # block (n, n - m) is blocks[m]: sum_m S^m (x) H_m for (d, d) blocks, and
        # sum_m S^m blockdiag_k(H_{m, k}) for (2N + 1, d, d) stacks; |m| > 2N drops out
        from floqscat.floquet import ModeSpace

        space, d = ModeSpace(n_modes, 3), 3
        nb = space.n_blocks
        rng = np.random.default_rng(16)
        offsets = (-2, -1, 0, 1, 2, nb, -nb - 1)
        blocks = {m: rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for m in offsets}
        stacks = {m: rng.normal(size=(nb, d, d)) + 1j * rng.normal(size=(nb, d, d))
                  for m in offsets}
        want = sum(np.kron(np.eye(nb, k=-m), hm) for m, hm in blocks.items())
        assert np.array_equal(space.toeplitz(blocks), want)
        want = sum(np.kron(np.eye(nb, k=-m), np.eye(d)) @ block_diag(*hm)
                   for m, hm in stacks.items())
        assert np.array_equal(space.toeplitz(stacks), want)


class TestBlockProduct:
    """K read from its (d, d) blocks (floquet.k_blocks) against the scipy.sparse
    Kronecker sums of the model's h0 and modes (oracles.kronecker_k): the product
    ModeSpace.apply and the row-sum bound that ScanOperators hold, and the dense
    K of build_floquet."""

    @pytest.fixture(scope="class")
    def models(self, fleet_models):
        return [build_lattice(40, 1.0, -1.8, 0.5, range(18, 22)), *fleet_models]

    @pytest.mark.parametrize("n_modes", [2, 4, 10])
    def test_product_is_the_kronecker_product(self, models, n_modes):
        from floqscat.resolvent import ScanOperators

        rng = np.random.default_rng(41)
        for h in models:
            k = kronecker_k(h, n_modes)[0]
            scan = ScanOperators(h, n_modes)
            x = rng.normal(size=k.shape[1]) + 1j * rng.normal(size=k.shape[1])
            got = scan.space.apply(scan.blocks, x)
            want = k @ x
            # round-off of a sum over each row's entries
            scale = float((abs(k) @ np.abs(x)).max())
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * scale

    def test_product_allocates_vectors_only(self):
        # sparse from the blocks' nonzeros: one dense d x d block of a 1024-site ring
        # would be 16 MiB, the product's vectors are 0.27 MiB each
        import tracemalloc

        from floqscat.floquet import ModeSpace, k_blocks
        from floqscat.numerics import csr_arrays

        ring = build_lattice(1024, 1.0, -0.8, 0.5, range(510, 515))
        blocks = {m: csr_arrays(b) for m, b in k_blocks(ring, 8).items()}
        space = ModeSpace(8, ring.dim)
        x = np.ones(space.size, dtype=np.complex128)
        tracemalloc.start()
        try:
            space.apply(blocks, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * x.nbytes, peak

    @pytest.mark.parametrize("n_modes", [2, 4, 10])
    def test_dense_k_is_the_kronecker_sum(self, models, n_modes):
        # bit for bit, signed zeros included: scipy's densified sums read +0.0
        for h in [*models, PeriodicHamiltonian(h0=np.diag([2 * np.pi, 1.0]))]:
            k = build_floquet(h, n_modes)
            assert k.matrix.tobytes() == kronecker_k(h, n_modes)[0].toarray().tobytes()

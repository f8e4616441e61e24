import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, splu

import floqscat.resolvent as resolvent
from floqscat.floquet import (ModeSpace, build_floquet, circular_distance, floquet_operator,
                              start_vector)
from floqscat.model import PeriodicHamiltonian, build_lattice
from floqscat.numerics import SingularMatrixError, max_norm, op_norm
from floqscat.propagation import PropagatorSchedule
from floqscat.resolvent import (
    InverseIterationError,
    ScanOperators,
    ThresholdProximityError,
    block_q,
    bound_state_correspondence,
    factorized_potential,
    full_resolvent,
    grid_potential,
    mode_oracle_apply,
    q_factorized,
    r0_apply,
    r0_matrix,
    resolvent_residual,
)

from conftest import random_hermitian
from oracles import k0_grid_matrix, match_eigenvalues, scipy_csr

RING_SLOT = (40, 1.0, -1.7, 0.45, range(19, 22))   # TestRayleighRefinement's ring-bound slot


def constant_f(n_t, d=1):
    return np.ones((n_t, d), dtype=np.complex128)


def mode_f(n_t, n, vec):
    t = np.arange(n_t) / n_t
    return np.exp(2j * np.pi * n * t)[:, None] * np.asarray(vec)[None, :]


class TestR0Apply:
    def test_constant_input_scalar(self):
        # d=1, H0=0, f = 1, lambda = i: exact result is -1/lambda = i; the
        # trapezoid error constant is |h - lambda|/12 per the error analysis
        n_t = 256
        out = r0_apply(PeriodicHamiltonian(np.zeros((1, 1))), 1j, constant_f(n_t))
        err = np.abs(out - 1j).max()
        assert err <= 1.2 * abs(0 - 1j) / 12 / n_t**2
        assert err > 0  # genuinely second order, not the oracle route

    def test_mode_eigenvector_input(self):
        h = PeriodicHamiltonian(random_hermitian(3, seed=1))
        evals, evecs = np.linalg.eigh(h.h0)
        lam = 0.4 + 0.8j
        n_t, n = 256, 2
        f = mode_f(n_t, n, evecs[:, 1])
        out = r0_apply(h, lam, f)
        want = f / (2 * np.pi * n + evals[1] - lam)
        err = np.abs(out - want).max()
        assert err <= 1.2 * abs(2 * np.pi * n + evals[1] - lam) / 12 / n_t**2

    def test_defining_property_second_order(self):
        h = PeriodicHamiltonian(random_hermitian(2, seed=2))
        lam = 0.3 + 0.7j
        rng = np.random.default_rng(3)
        resids = []
        for n_t in (64, 128, 256):
            t = np.arange(n_t) / n_t
            vals = np.zeros((n_t, 2), complex)
            for n in (-2, -1, 0, 1, 2):  # fixed band-limited probe
                coef = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                vals += np.exp(2j * np.pi * n * t)[:, None] * coef[None, :]
            rng = np.random.default_rng(3)  # same probe on every grid
            resids.append(resolvent_residual(h, lam, vals))
        order = np.log2(resids[0] / resids[2]) / 2
        assert abs(order - 2.0) <= 0.3

    def test_matches_mode_oracle_to_quadrature_error(self):
        h = PeriodicHamiltonian(np.array([[0.3]]))
        lam = 0.3 + 0.5j
        n_t = 256
        f = constant_f(n_t)
        out = r0_apply(h, lam, f)
        oracle = mode_oracle_apply(h, lam, f)
        assert np.abs(out - oracle).max() <= 1e-6

    def test_real_lambda_rejected(self):
        with pytest.raises(ValueError, match="Im"):
            r0_apply(PeriodicHamiltonian(np.zeros((1, 1))), 2.0, constant_f(16))

    def test_fiber_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="H0 dim 2"):
            r0_apply(PeriodicHamiltonian(np.eye(2)), 1j, constant_f(16, d=3))


class TestR0Matrix:
    def test_matches_apply(self):
        h = PeriodicHamiltonian(random_hermitian(2, seed=4))
        lam = 1.0 + 0.6j
        n_t = 32
        mat = r0_matrix(h, lam, n_t)
        rng = np.random.default_rng(5)
        f = rng.standard_normal((n_t, 2)) + 1j * rng.standard_normal((n_t, 2))
        via_mat = (mat @ f.ravel()).reshape(n_t, 2)
        via_apply = r0_apply(h, lam, f)
        assert np.abs(via_mat - via_apply).max() <= 1e-12

    @pytest.mark.parametrize("n_t", [1, 2, 7])
    @pytest.mark.parametrize("lam", [3.0 + 400.0j, 0.3 - 400.0j])
    def test_apply_matches_matrix_on_short_grids(self, fleet_models, n_t, lam):
        # the FFT correlation against the gathered circulant, where the kernel
        # spans e^{+-400} and a grid holds one, two or seven points
        lattice = build_lattice(12, 1.0, -1.0, 0.5, range(4, 8))
        rng = np.random.default_rng(n_t)
        for h in [*fleet_models, lattice]:
            f = rng.standard_normal((n_t, h.dim)) + 1j * rng.standard_normal((n_t, h.dim))
            via_mat = (r0_matrix(h, lam, n_t) @ f.ravel()).reshape(n_t, h.dim)
            via_apply = r0_apply(h, lam, f)
            assert np.abs(via_apply - via_mat).max() <= 1e-13 * np.abs(via_mat).max()

    def test_adjoint_symmetry_exact(self):
        h = PeriodicHamiltonian(random_hermitian(3, seed=6))
        lam = -0.7 + 1.3j
        mat = r0_matrix(h, lam, 48)
        mat_bar = r0_matrix(h, np.conj(lam), 48)
        assert max_norm(mat.conj().T - mat_bar) <= 1e-12


class TestFactorization:
    def test_ba_equals_v(self, rabi):
        n_t = 64
        fact = factorized_potential(rabi, n_t)
        assert fact.factorization_defect(grid_potential(rabi, n_t)) <= 1e-10

    def test_a_norm_squared_is_v_norm(self, rabi):
        fact = factorized_potential(rabi, 32)
        for j in (0, 7, 19):
            v = rabi.potential(j / 32)
            assert abs(op_norm(fact.a_ops[j]) ** 2 - op_norm(v)) <= 1e-10

    def test_sign_structure_indefinite_potential(self):
        # potential crossing zero exercises sgn 0 = 0 and the +- branches
        h = PeriodicHamiltonian(h0=np.zeros((2, 2)),
                                modes={0: np.diag([1.0, -1.0]).astype(complex)})
        fact = factorized_potential(h, 8)
        assert fact.factorization_defect(grid_potential(h, 8)) <= 1e-12

    def test_lattice_potential_with_exact_ties(self):
        # V(t) is diagonal with equal entries on the well and zeros off it, so
        # every grid point's eigenvalues tie exactly
        h = build_lattice(12, 1.0, -1.0, 0.5, range(4, 8))
        v = grid_potential(h, 16)
        assert len(np.unique(np.diagonal(v[3]))) < h.dim
        assert factorized_potential(h, 16).factorization_defect(v) <= 1e-12

    def test_one_stacked_eigh(self, rabi, monkeypatch):
        stacks = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: stacks.append(a.shape) or eigh(a))
        factorized_potential(rabi, 32)
        assert stacks == [(32, 2, 2)]

    def test_non_hermitian_grid_point_rejected(self, rabi, monkeypatch):
        grid = resolvent.grid_potential

        def broken(h, n_t):
            v = grid(h, n_t)
            v[5, 0, 1] += 1e-6
            return v

        monkeypatch.setattr(resolvent, "grid_potential", broken)
        with pytest.raises(ValueError, match="not Hermitian"):
            factorized_potential(rabi, 8)


class TestQFactorized:
    def test_zero_potential(self):
        h = PeriodicHamiltonian(h0=random_hermitian(2, seed=7))
        q, schmidt = q_factorized(h, 1j, 32)
        assert max_norm(q) == 0.0
        assert schmidt == 0.0

    def test_schmidt_norm_bounded_in_eta(self, rabi):
        norms = [q_factorized(rabi, 1j * eta, 128)[1] for eta in (1.0, 4.0, 16.0, 64.0)]
        assert max(norms) <= 2.0 * norms[0]  # O(1): no growth with eta

    def test_constant_scalar_potential_eigenvalues(self):
        v = 0.35
        h = PeriodicHamiltonian(h0=np.zeros((1, 1)), modes={0: np.array([[v]], complex)})
        lam = 0.9 + 1.1j
        n_t = 256
        q, _ = q_factorized(h, lam, n_t)
        evals = np.linalg.eigvals(q)
        for n in (-2, -1, 0, 1, 2):
            want = v / (2 * np.pi * n - lam)
            assert np.abs(evals - want).min() <= 2e-5


class TestFullResolvent:
    def test_zero_potential_reduces_to_free(self):
        h = PeriodicHamiltonian(h0=random_hermitian(2, seed=8))
        lam = 0.5 + 0.9j
        r, cond = full_resolvent(h, lam, 32)
        assert max_norm(r - r0_matrix(h, lam, 32)) == 0.0
        assert cond == 1.0

    def test_matches_direct_grid_inverse(self, rabi):
        lam = 2.0 + 1.0j
        resids = []
        for n_t in (32, 64, 128):
            r, _ = full_resolvent(rabi, lam, n_t)
            k = k0_grid_matrix(rabi.h0, n_t)
            v_blocks = grid_potential(rabi, n_t)
            for j in range(n_t):
                k[j * 2:(j + 1) * 2, j * 2:(j + 1) * 2] += v_blocks[j]
            direct = np.linalg.inv(k - lam * np.eye(2 * n_t))
            # compare actions on a smooth probe
            t = np.arange(n_t) / n_t
            f = (np.exp(2j * np.pi * t)[:, None] * np.array([1.0, 0.5])[None, :]).ravel()
            resids.append(np.abs((r - direct) @ f).max())
        order = np.log2(resids[0] / resids[2]) / 2
        assert abs(order - 2.0) <= 0.4

    def test_second_resolvent_identity(self, rabi):
        lam = 2.0 + 1.0j
        n_t = 64
        r, _ = full_resolvent(rabi, lam, n_t)
        r0 = r0_matrix(rabi, lam, n_t)
        v_blocks = grid_potential(rabi, n_t)
        vr = np.zeros_like(r)
        view = r.reshape(n_t, 2, n_t, 2)
        vr = np.einsum("jpr,jrkq->jpkq", v_blocks, view, optimize=True).reshape(r.shape)
        defect = max_norm(r - r0 + r0 @ vr)
        assert defect <= 1e-8

    def test_matches_truncated_mode_inverse(self, rabi):
        # grid route at N_t=1024 vs the mode-space inverse truncated at N=32,
        # compared through their action on a smooth probe
        lam = 2.0 + 1.0j
        n_t = 1024
        r, _ = full_resolvent(rabi, lam, n_t)
        k = build_floquet(rabi, 32)
        inv = np.linalg.inv(k.matrix - lam * np.eye(k.size))
        t = np.arange(n_t) / n_t
        probe_modes = {0: np.array([1.0, 0.3j]), 1: np.array([0.2, -0.4]),
                       -1: np.array([0.1j, 0.25])}
        f_grid = np.zeros((n_t, 2), complex)
        f_mode = np.zeros((2 * 32 + 1, 2), complex)
        for n, c in probe_modes.items():
            f_grid += np.exp(2j * np.pi * n * t)[:, None] * c[None, :]
            f_mode[n + 32] = c
        out_grid = (r @ f_grid.ravel()).reshape(n_t, 2)
        out_mode_blocks = (inv @ f_mode.ravel()).reshape(65, 2)
        ns = np.arange(-32, 33)
        out_mode = np.einsum("jn,nd->jd", np.exp(2j * np.pi * np.outer(t, ns)), out_mode_blocks)
        assert np.abs(out_grid - out_mode).max() <= 1e-6


class TestBlockQ:
    def test_support_rows_from_the_modes_support_rows(self):
        # the (2N + 1)|S| rows (n, a), a in the support, from H_m's support rows alone
        lat = build_lattice(16, 1.0, -1.0, 0.5, [6, 7, 9])
        zeta, n_modes = 0.3 + 1.0j, 4
        full = block_q(lat, zeta, n_modes)
        rows = block_q(lat, zeta, n_modes, lat.support)
        assert rows.shape == ((2 * n_modes + 1) * 3, full.shape[1])
        want = full.reshape(-1, lat.sites, full.shape[1])[:, lat.support].reshape(rows.shape)
        assert np.abs(rows - want).max() <= 1e-15 * np.abs(want).max()

    def test_static_potential_block_diagonal(self):
        h0 = random_hermitian(2, seed=9)
        v0 = random_hermitian(2, seed=10)
        h = PeriodicHamiltonian(h0=h0, modes={0: v0})
        zeta = 0.3 + 1.0j
        q = block_q(h, zeta, 2)
        evals, evecs = np.linalg.eigh(h0)
        for bi, n in enumerate(range(-2, 3)):
            want = v0 @ ((evecs * (1.0 / (evals + 2 * np.pi * n - zeta))) @ evecs.conj().T)
            got = q[bi * 2:(bi + 1) * 2, bi * 2:(bi + 1) * 2]
            assert np.abs(got - want).max() <= 1e-12
        off = q.copy()
        for bi in range(5):
            off[bi * 2:(bi + 1) * 2, bi * 2:(bi + 1) * 2] = 0
        assert max_norm(off) == 0.0

    def test_norm_decay_in_eta(self, fleet_models):
        for h in fleet_models:
            norms = [op_norm(block_q(h, 1j * eta, 12)) for eta in (4.0, 16.0, 64.0, 256.0)]
            assert norms[0] > norms[1] > norms[2] > norms[3]

    def test_representation_equivalence_with_grid(self, fleet_models, fleet_d3_grid_q_spectrum):
        # eigenvalues of the mode-space block operator against the grid-space
        # factorized operator: similar operators, spectra must agree on the
        # well-resolved (large) eigenvalues.  The grid route is second order;
        # the error constant grows with the mode shell, so the leading shell
        # matches to 1e-6 at N_t=1024 while deeper shells carry the measured
        # |2 pi n - zeta|-proportional constants.
        h = fleet_models[1]
        zeta = 1.0 + 1.0j
        q_mode = block_q(h, zeta, 24)
        ev_mode = np.linalg.eigvals(q_mode)
        ev_grid = fleet_d3_grid_q_spectrum   # eigvals(q_factorized(h, zeta, 1024)[0])
        top = np.abs(ev_mode).max()
        assert match_eigenvalues(ev_mode, ev_grid, 0.5 * top) <= 1e-6
        # deeper shells are limited by the mode-space truncation itself
        # (verified against a deeper-truncation operator): truncation tolerance
        assert match_eigenvalues(ev_mode, ev_grid, 0.05 * top) <= 2e-4

    def test_representation_equivalence_coarse_grid(self, fleet_models):
        # at N_t=256 the second-order quadrature constant |2 pi n - zeta|/12
        # caps the achievable agreement near 1e-5 on the leading shell; the
        # 1e-6 figure is reached from N_t=1024 upward (see the test above)
        h = fleet_models[1]
        zeta = 1.0 + 1.0j
        ev_mode = np.linalg.eigvals(block_q(h, zeta, 24))
        ev_grid = np.linalg.eigvals(q_factorized(h, zeta, 256)[0])
        top = np.abs(ev_mode).max()
        assert match_eigenvalues(ev_mode, ev_grid, 0.5 * top) <= 2e-5


class TestBoundStates:
    def test_zero_potential_no_null_vectors(self):
        h = PeriodicHamiltonian(h0=np.diag([0.0, 1.0]))
        lam = 3.0  # well off the free spectrum {0,1} + 2 pi Z
        verdict = bound_state_correspondence(ScanOperators(h, 4), lam)
        assert not verdict.confirmed
        assert verdict.smin_extrapolated > 0.5

    def test_threshold_proximity_rejected(self):
        h = PeriodicHamiltonian(h0=np.diag([0.0, 1.0]))
        with pytest.raises(ThresholdProximityError):
            bound_state_correspondence(ScanOperators(h, 4), 1.0 + 1e-5)

    def test_free_spectrum_distance(self):
        levels = np.linalg.eigvalsh(np.diag([0.0, 1.0]))
        assert circular_distance(1.0, levels).min() == 0.0
        assert abs(circular_distance(2 * np.pi + 0.3, levels).min() - 0.3) < 1e-12

    def test_driven_well_scan_agrees_with_theta(self, driven_well_64, driven_well_64_monodromy):
        from floqscat.scattering import bound_state_scan

        infos = bound_state_scan(driven_well_64, driven_well_64_monodromy, n_modes=8)
        assert len(infos) >= 1
        b = infos[0]
        verdict = bound_state_correspondence(ScanOperators(driven_well_64, 6),
                                             b.quasi_energy)
        assert verdict.confirmed
        assert abs(verdict.refined - b.quasi_energy) <= 1e-5
        assert verdict.residual <= 1e-6

    def test_translated_candidate_also_verified(self, driven_well_64, driven_well_64_monodromy):
        from floqscat.scattering import bound_state_scan

        infos = bound_state_scan(driven_well_64, driven_well_64_monodromy, n_modes=8)
        lam = infos[0].quasi_energy
        verdict = bound_state_correspondence(ScanOperators(driven_well_64, 6),
                                             lam + 2 * np.pi)
        assert verdict.confirmed
        assert abs(verdict.refined - (lam + 2 * np.pi)) <= 1e-5


def sparse_lu_null_pair(h, n_modes, zeta):
    """The reference null scan: inverse iteration with one sparse LU of K - zeta I on
    the whole mode space and products with K0 - zeta I, as
    I + Q(zeta) = (K - zeta)(K0 - zeta)^{-1}; returns (s, phi, psi) as null_pair."""
    k, k0 = (scipy_csr(floquet_operator(h, n_modes)),
             scipy_csr(ModeSpace(n_modes, h.dim).assemble(h.h0)))
    eye = sp.eye_array(k.shape[0], format="csc")
    lu = splu(sp.csc_array(k - zeta * eye))
    free = sp.csr_array(k0 - zeta * eye)
    free_h = free.conj().T
    phi = start_vector(k.shape[0])
    s_prev = np.inf
    for _ in range(resolvent.INVERSE_ITERATION_MAXITER):
        y = lu.solve(free_h @ phi, trans="H")    # (I + Q)^{-H} phi
        x = lu.solve(y)                           # (K - zeta)^{-1} y
        z = free @ x                              # (I + Q)^{-1} y
        z_norm = np.linalg.norm(z)
        phi = z / z_norm
        s = float(np.linalg.norm(y) / z_norm)     # ||(I + Q) phi||, as (I + Q) z = y
        if abs(s - s_prev) <= resolvent.INVERSE_ITERATION_RTOL * s:
            return s, phi, x / z_norm
        s_prev = s
    raise InverseIterationError(f"reference null scan did not settle at {zeta}")


def phase_distance(got, want):
    """||got - c want|| / ||want|| for the unit phase c that best aligns want with got."""
    c = np.vdot(want, got)
    return float(np.linalg.norm(got - c / abs(c) * want) / np.linalg.norm(want))


class TestSupportNullScan:
    """null_pair's factor on the potential's support against the sparse-LU
    reference on the whole mode space, at the K eigenvalue nearest the lowest
    level of H0 + H_0 (the ring's well state), where s falls with eps."""

    @pytest.fixture(scope="class")
    def models(self, fleet_models):
        return {"rabi": fleet_models[0], "fleet-d3": fleet_models[1],
                "ring": build_lattice(*RING_SLOT)}

    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    @pytest.mark.parametrize("name", ["rabi", "fleet-d3", "ring"])
    def test_matches_sparse_lu(self, models, name, eps):
        h = models[name]
        levels = np.linalg.eigvalsh(floquet_operator(h, 4).toarray())
        lam = levels[np.argmin(np.abs(levels - np.linalg.eigvalsh(h.h0 + h.mode(0))[0]))]
        s, phi, psi = ScanOperators(h, 4).null_pair(lam + 1j * eps)
        s_ref, phi_ref, psi_ref = sparse_lu_null_pair(h, 4, lam + 1j * eps)
        assert abs(s - s_ref) <= 1e-12 * s_ref
        assert phase_distance(phi, phi_ref) <= 1e-12
        assert phase_distance(psi, psi_ref) <= 1e-12

    def test_factor_on_support(self, models, driven_well_64, monkeypatch):
        factors = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: factors.append(a.shape) or inv(a))
        zeta = 2.5 + 1e-2j
        for h, shape in ((models["rabi"], (18, 18)),     # every site: r = (2N + 1) d
                         (driven_well_64, (45, 45))):    # a 5-site well at N = 4
            factors.clear()
            ScanOperators(h, 4).null_pair(zeta)
            assert factors == [shape]
        # without modes r = 0 and nothing is factored: I + Q = I, so s = 1 and
        # psi = (K0 - zeta)^{-1} phi
        factors.clear()
        free = PeriodicHamiltonian(h0=np.diag([0.0, 1.0]))
        s, phi, psi = ScanOperators(free, 4).null_pair(zeta)
        assert factors == []
        k0 = ModeSpace(4, 2).assemble(free.h0).toarray() - zeta * np.eye(18)
        assert abs(s - 1.0) <= 1e-15
        assert np.linalg.norm(k0 @ psi - phi) <= 1e-14

    def test_singular_factor_named(self, models, monkeypatch):
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(SingularMatrixError, match=r"I \+ Q\(\(-2\.5\+0\.01j\)\)"):
            ScanOperators(models["ring"], 4).null_pair(-2.5 + 1e-2j)

    def test_singular_solve_named(self, models, monkeypatch):
        # the cross-check's Rayleigh step factors A through null_pair, and a singular
        # one there names zeta = sigma + i RAYLEIGH_EPS
        from floqscat.scattering import _certified_partner

        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        scan = ScanOperators(models["ring"], 4)
        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(SingularMatrixError, match=r"I \+ Q\(\(-2\.5\+1e-13j\)\)"):
            _certified_partner(scan, -2.5, -2.5, 1e-5)


class TestSmallestSingularPair:
    N = 6

    @pytest.fixture(scope="class")
    def bound_phase(self, driven_well_64, driven_well_64_monodromy):
        from floqscat.scattering import bound_state_scan

        return bound_state_scan(driven_well_64, driven_well_64_monodromy,
                                n_modes=8)[0].quasi_energy

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-8])
    def test_matches_dense_svd(self, driven_well_64, bound_phase, eps):
        h = driven_well_64
        space = ModeSpace(self.N, h.dim)
        zeta = bound_phase + 1j * eps
        k, k0 = floquet_operator(h, self.N), space.assemble(h.h0)
        s, phi = ScanOperators(h, self.N).null_pair(zeta)[:2]
        m = np.eye(space.size) + block_q(h, zeta, self.N)
        _, sv, vh = np.linalg.svd(m)
        # a dense SVD fixes sigma_min only to its backward error ~ eps_mach ||M||:
        # entry perturbations of 1e-16 relative move it by ~1e-9 relative at
        # eps = 1e-8, where the Hermitian form M^H M cannot resolve it at all
        floor = 8 * np.finfo(float).eps * sv[0]
        assert abs(s - sv[-1]) <= max(1e-10 * sv[-1], floor)
        # the relatively accurate dense route: 1 / sigma_max of the same
        # (I + Q)^{-1} = (K0 - zeta)(K - zeta)^{-1}
        eye = np.eye(space.size)
        inv = (k0.toarray() - zeta * eye) @ np.linalg.inv(k.toarray() - zeta * eye)
        assert abs(s * np.linalg.norm(inv, 2) - 1.0) <= 1e-10
        v = vh[-1].conj()
        phase = np.vdot(v, phi) / abs(np.vdot(v, phi))
        assert np.linalg.norm(phi - phase * v) <= 1e-10

    def test_nonconvergence_raises(self, driven_well_64, bound_phase, monkeypatch):
        h = driven_well_64
        monkeypatch.setattr(resolvent, "INVERSE_ITERATION_MAXITER", 1)
        with pytest.raises(InverseIterationError):
            ScanOperators(h, self.N).null_pair(bound_phase + 1e-4j)
        with pytest.raises(InverseIterationError):
            bound_state_correspondence(ScanOperators(h, self.N), bound_phase)


class TestRayleighRefinement:
    """The null scan's refinement lands on K's eigenvalue; K's shift-invert
    eigsh is the oracle."""

    @pytest.fixture(scope="class")
    def well_candidates(self, driven_well_64, driven_well_64_monodromy):
        # bound-states-driven-well.json: this ring, 512 order-4 steps, n_modes 12
        from floqscat.scattering import bound_state_scan

        infos = bound_state_scan(driven_well_64, driven_well_64_monodromy, n_modes=12)
        return [b.quasi_energy for b in infos]

    @pytest.fixture(scope="class")
    def ring_slot(self):
        # a ring-bound benchmark slot: 40 sites, width 3, 256 steps, n_modes 8
        from floqscat.propagation import monodromy
        from floqscat.scattering import bound_state_scan

        lat = build_lattice(40, 1.0, -1.7, 0.45, range(19, 22))
        infos = bound_state_scan(lat, monodromy(lat, 0.0, PropagatorSchedule(256, 4)),
                                 n_modes=8)
        return lat, [b.quasi_energy for b in infos]

    @staticmethod
    def _check_at_eigenvalue(h, n_modes, candidates):
        k = scipy_csr(floquet_operator(h, n_modes)).tocsc()
        scan = ScanOperators(h, n_modes)
        for lam in candidates:
            verdict = bound_state_correspondence(scan, lam)
            want = eigsh(k, k=1, sigma=lam)[0][0]
            assert verdict.confirmed
            assert abs(verdict.refined - want) <= 1e-12
            assert verdict.residual <= 1e-12
            own = bound_state_correspondence(ScanOperators(h, n_modes), lam)   # K and K0 anew
            assert (own.refined, own.residual, own.smin_ladder) == (
                verdict.refined, verdict.residual, verdict.smin_ladder)

    def test_driven_well_refined_at_eigenvalue(self, driven_well_64, well_candidates):
        assert len(well_candidates) == 3
        self._check_at_eigenvalue(driven_well_64, 6, well_candidates)

    def test_ring_slot_refined_at_eigenvalue(self, ring_slot):
        lat, candidates = ring_slot
        assert len(candidates) == 2
        self._check_at_eigenvalue(lat, 4, candidates)

    def test_at_most_six_evaluations_per_verdict(self, ring_slot, monkeypatch):
        lat, candidates = ring_slot
        scan = ScanOperators(lat, 4)
        evaluations = []   # one null_pair per null-scan evaluation
        null_pair = scan.null_pair
        monkeypatch.setattr(scan, "null_pair",
                            lambda zeta: evaluations.append(zeta) or null_pair(zeta))
        for lam in candidates:
            evaluations.clear()
            bound_state_correspondence(scan, lam)
            assert 1 <= len(evaluations) <= 6

    @pytest.mark.parametrize("eps", [1e-2, 1e-13])
    def test_prepared_shift_bit_identical(self, driven_well_64, well_candidates, eps):
        h = driven_well_64
        zeta = well_candidates[0] + 1j * eps
        # the support factorization against the sparse-LU inverse iteration; at
        # eps = 1e-13, s is fixed only to its absolute round-off
        s, phi, psi = sparse_lu_null_pair(h, 6, zeta)
        scan = ScanOperators(h, 6)
        for got_s, got_phi, got_psi in (ScanOperators(h, 6).null_pair(zeta), scan.null_pair(zeta)):
            assert abs(got_s - s) <= (1e-13 * s if eps == 1e-2 else 4e-15)
            assert phase_distance(got_phi, phi) <= 1e-12
            assert phase_distance(got_psi, psi) <= 1e-12

    def test_zero_potential_unconfirmed_inside_window(self):
        h = PeriodicHamiltonian(h0=np.diag([0.0, 1.0]))
        verdict = bound_state_correspondence(ScanOperators(h, 4), 3.0)
        assert not verdict.confirmed
        assert abs(verdict.refined - 3.0) <= 5e-4

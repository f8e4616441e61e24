import numpy as np
import pytest

from floqscat.floquet import (EDGE_BLOCKS, ModeSpace, build_floquet, circular_distance,
                              floquet_operator, quasi_spectrum)
from floqscat.model import build_lattice
from floqscat.numerics import expm_hermitian, unitary_defect
from floqscat.propagation import PropagatorSchedule, monodromy, propagate
from floqscat.scattering import (
    _localization,
    _mode_space_partner,
    ConvergenceError,
    DetectorDisagreementError,
    bound_state_scan,
    bound_vectors,
    gaussian_packet,
    make_probes,
    orthogonality_defect,
    s_matrix,
    start_time_covariance_defect,
    stroboscopic_wave_op,
    time_average,
    time_averaged_wave_op,
    wrap_horizon,
)

CHEAP = PropagatorSchedule(96, 2)


@pytest.fixture(scope="module")
def free_ring():
    return build_lattice(256, 1.0, 0.0, 0.0, [128])


@pytest.fixture(scope="module")
def driven_256():
    return build_lattice(256, 1.0, -0.8, 0.5, range(126, 131))


@pytest.fixture(scope="module")
def driven_256_run(driven_256):
    mono = monodromy(driven_256.drive, 0.0, CHEAP)
    probes = make_probes(driven_256)
    n_max = wrap_horizon(driven_256)
    wp = stroboscopic_wave_op(driven_256, +1, n_max, CHEAP, probes, theta=mono.operator)
    wm = stroboscopic_wave_op(driven_256, -1, n_max, CHEAP, probes, theta=mono.operator)
    return mono, probes, wp, wm


class TestProbes:
    def test_packet_normalized_and_centered(self):
        psi = gaussian_packet(128, 40, 0.8, 5.0)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        assert abs(np.argmax(np.abs(psi)) - 40) <= 1

    def test_mirror_pairs(self, driven_256):
        probes = make_probes(driven_256)
        assert probes.count == 8
        assert np.allclose(probes.momenta[0::2], -probes.momenta[1::2])

    def test_seeded_jitter_deterministic(self, driven_256):
        a = make_probes(driven_256, rng=np.random.default_rng(7))
        b = make_probes(driven_256, rng=np.random.default_rng(7))
        assert np.array_equal(a.vectors, b.vectors)


class TestFreeRing:
    def test_iterates_identity_gaps_zero(self, free_ring):
        wav = stroboscopic_wave_op(free_ring, +1, 16, CHEAP)
        assert wav.cauchy_gaps.max() == 0.0
        assert np.abs(wav.operator - np.eye(256)).max() <= 1e-12
        assert wav.converged.all()

    def test_s_matrix_identity(self, free_ring):
        theta0 = expm_hermitian(free_ring.h0, 1.0)
        wp = stroboscopic_wave_op(free_ring, +1, 16, CHEAP)
        wm = stroboscopic_wave_op(free_ring, -1, 16, CHEAP)
        rep = s_matrix(wp, wm, theta0=theta0)
        assert rep.unitarity_defect <= 1e-12
        assert rep.intertwining_defect <= 1e-12
        assert rep.isometry_defect <= 1e-12
        p = rep.probe_basis.shape[1]
        assert np.abs(rep.s_matrix - np.eye(p)).max() <= 1e-12

    def test_no_bound_states(self, free_ring):
        assert bound_state_scan(free_ring, CHEAP, n_modes=2) == []


class TestDrivenWell:
    def test_convergence_before_horizon(self, driven_256_run):
        _, _, wp, wm = driven_256_run
        assert wp.converged.mean() >= 0.9
        assert wm.converged.all()
        assert wp.cauchy_gaps[-1].max() < 1e-3

    def test_gap_profile_rises_then_falls(self, driven_256_run):
        # the packet must actually traverse the well: gaps grow above the
        # convergence threshold mid-run before settling
        _, _, wp, _ = driven_256_run
        assert wp.cauchy_gaps.max() > 0.05

    def test_wave_operators_unitary(self, driven_256_run):
        _, _, wp, wm = driven_256_run
        assert unitary_defect(wp.operator) <= 1e-10
        assert unitary_defect(wm.operator) <= 1e-10

    def test_s_matrix_defects(self, driven_256, driven_256_run):
        mono, probes, wp, wm = driven_256_run
        theta0 = expm_hermitian(driven_256.h0, 1.0)
        rep = s_matrix(wp, wm, translates=2, theta0=theta0)
        assert rep.isometry_defect <= 1e-3
        assert rep.unitarity_defect <= 5e-3
        assert rep.intertwining_defect <= 5e-3
        # scattering is nontrivial: off-diagonal S entries present
        p = rep.s_matrix.shape[0]
        off = rep.s_matrix - np.diag(np.diag(rep.s_matrix))
        assert np.abs(off).max() > 1e-3

    def test_wave_op_intertwining_from_iterates(self, driven_256, driven_256_run):
        mono, probes, wp, wm = driven_256_run
        theta0 = expm_hermitian(driven_256.h0, 1.0)
        use = wp.converged
        lhs = mono.operator @ wp.operator - wp.operator @ theta0
        defect = np.linalg.norm(lhs @ probes.vectors[:, use], axis=0).max()
        assert defect <= 5e-3

    def test_time_averaged_agreement(self, driven_256, driven_256_run):
        _, probes, wp, wm = driven_256_run
        use = wp.converged & wm.converged
        avg = time_averaged_wave_op(driven_256, +1, 1.0, wp.n_max, CHEAP, probes)
        diff = np.linalg.norm((avg - wp.probe_images[-1])[:, use], axis=0).max()
        assert diff <= 2e-3

    def test_time_averaged_small_window_static_well(self):
        lat = build_lattice(256, 1.0, -1.0, 0.0, range(126, 131))
        probes = make_probes(lat)
        n_max = wrap_horizon(lat)
        wp = stroboscopic_wave_op(lat, +1, n_max, CHEAP, probes)
        avg = time_averaged_wave_op(lat, +1, 1.0 / 64, n_max, CHEAP, probes, n_quad=4)
        use = wp.converged
        diff = np.linalg.norm((avg - wp.probe_images[-1])[:, use], axis=0).max()
        assert diff <= 1e-3

    def test_time_averaged_from_schedule_start(self, driven_well_64):
        # the quadrature built directly from U(s + t_j, s) and the monodromy at s
        s, window, n_max, n_quad = 0.25, 0.5, 4, 4
        sched = PropagatorSchedule(64, 4, s)
        lat = driven_well_64
        probes = make_probes(lat)
        theta = monodromy(lat.drive, s, sched).operator
        theta0 = expm_hermitian(lat.h0, 1.0)
        nodes = np.linspace(0.0, window, n_quad + 1)
        weights = np.full(n_quad + 1, 1.0 / n_quad)
        weights[0] = weights[-1] = 0.5 / n_quad
        kernel = sum(w * expm_hermitian(lat.h0, t).conj().T @ propagate(lat.drive, s, s + t, sched)
                     for w, t in zip(weights, nodes))
        want = (np.linalg.matrix_power(theta0.conj().T, n_max) @ kernel
                @ np.linalg.matrix_power(theta, n_max) @ probes.vectors)
        got = time_averaged_wave_op(lat, +1, window, n_max, sched, probes, n_quad=n_quad)
        assert np.abs(got - want).max() <= 1e-12
        given = time_averaged_wave_op(lat, +1, window, n_max, sched, probes, n_quad=n_quad,
                                      theta=theta)
        assert np.abs(given - want).max() <= 1e-12

    @pytest.mark.parametrize("start, window", [(0.0, 1.0), (0.25, 0.5)])
    def test_time_average_theta_is_the_monodromy(self, driven_well_64, start, window):
        # one running product through the nodes and on to s + 1: on the step
        # grid it rounds exactly like monodromy()
        sched = PropagatorSchedule(64, 4, start)
        got = time_average(driven_well_64, window, sched).theta
        assert np.array_equal(got, monodromy(driven_well_64.drive, start, sched).operator)

    def test_start_time_covariance(self, driven_256, driven_256_run):
        _, probes, wp, _ = driven_256_run
        defect = start_time_covariance_defect(driven_256, CHEAP, wp.n_max, probes)
        assert defect <= 5e-3

    def test_orthogonality_probes_vs_bound(self, driven_256, driven_256_run):
        mono, probes, _, _ = driven_256_run
        bound = bound_vectors(driven_256, mono.eig)
        assert bound.shape[1] >= 1
        assert orthogonality_defect(probes, bound) <= 1e-3

    def test_horizon_enforced(self, driven_256):
        with pytest.raises(ValueError, match="horizon"):
            stroboscopic_wave_op(driven_256, +1, 100, CHEAP)


class TestBoundStateScan:
    def test_static_well_count_matches_direct_diagonalization(self, driven_well_64):
        lat = build_lattice(64, 1.0, -2.0, 0.0, range(30, 35))
        infos = bound_state_scan(lat, CHEAP, n_modes=2)
        # oracle: localized eigenvectors of the static Hamiltonian
        h_static = (lat.h0 + lat.drive.mode(0)).real
        evals, evecs = np.linalg.eigh(h_static)
        window = lat.support_window(4)
        mask = np.zeros(64, bool)
        mask[window] = True
        n_localized = int(((np.abs(evecs[mask, :]) ** 2).sum(axis=0) >= 0.9).sum())
        assert len(infos) == n_localized >= 1
        # quasi-energies are the static energies folded
        want = np.sort(np.mod(evals[(np.abs(evecs[mask, :]) ** 2).sum(axis=0) >= 0.9], 2 * np.pi))
        got = np.sort([b.quasi_energy for b in infos])
        assert np.abs(got - want).max() <= 1e-10

    def test_driven_well_stable_under_step_doubling(self, driven_well_64):
        coarse = bound_state_scan(driven_well_64, PropagatorSchedule(256, 4), n_modes=8)
        fine = bound_state_scan(driven_well_64, PropagatorSchedule(512, 4), n_modes=8)
        assert len(coarse) == len(fine)
        for a, b in zip(coarse, fine):
            assert abs(a.quasi_energy - b.quasi_energy) <= 1e-4

    def test_no_interior_candidate_is_typed(self):
        # N = EDGE_BLOCKS flags every driven mode-space state as an edge state
        lat = build_lattice(40, 1.0, -1.8, 0.5, range(18, 22))
        with pytest.raises(DetectorDisagreementError) as info:
            bound_state_scan(lat, PropagatorSchedule(64, 4), n_modes=EDGE_BLOCKS)
        assert info.value.candidates == 0

    def test_localization_scores_reported(self, driven_well_64, driven_well_64_monodromy):
        infos = bound_state_scan(driven_well_64, n_modes=8,
                                 theta_eig=driven_well_64_monodromy.eig)
        for b in infos:
            assert 0.9 <= b.localization <= 1.0
            assert b.multiplicity >= 1

    def test_monodromy_taken_at_schedule_start(self, driven_well_64):
        sched = PropagatorSchedule(64, 4, 0.25)
        infos = bound_state_scan(driven_well_64, sched, n_modes=8)
        eig = monodromy(driven_well_64.drive, 0.25, sched).eig
        score, bound = _localization(driven_well_64, np.abs(eig.vectors) ** 2)
        phases = np.mod(-np.angle(eig.values), 2 * np.pi)
        want = [score[j] for j in sorted(np.flatnonzero(bound), key=lambda j: phases[j])]
        assert [b.localization for b in infos] == want
        at_zero = bound_state_scan(driven_well_64, PropagatorSchedule(64, 4), n_modes=8)
        assert [b.localization for b in at_zero] != want

    def test_sparse_partner_matches_dense_spectrum(self, driven_well_64, driven_well_64_monodromy):
        n_modes, tol = 8, 1e-5
        infos = bound_state_scan(driven_well_64, n_modes=n_modes,
                                 theta_eig=driven_well_64_monodromy.eig)
        spec = quasi_spectrum(build_floquet(driven_well_64.drive, n_modes))
        _, localized = _localization(driven_well_64, spec.spatial_mass())
        dense = spec.folded[localized & spec.interior]
        k = floquet_operator(driven_well_64.drive, n_modes).tocsc()
        space = ModeSpace(n_modes, driven_well_64.sites)
        assert len(infos) >= 2
        for b in infos:
            dist, candidates = _mode_space_partner(driven_well_64, k, space, b.quasi_energy, tol)
            assert candidates >= 1
            assert abs(dist - circular_distance(b.quasi_energy, dense).min()) <= 1e-12

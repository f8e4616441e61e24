import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, splu

import floqscat.scattering as scattering
from floqscat.cli import run_scenario
from floqscat.floquet import (EDGE_BLOCKS, build_floquet, circular_distance, quasi_spectrum,
                              start_vector)
from floqscat.model import build_lattice
from floqscat.numerics import expm_hermitian, unitary_defect
from floqscat.propagation import PropagatorSchedule, monodromy, propagate
from floqscat.resolvent import ScanOperators
from floqscat.scattering import (
    PARTNER_SOLVES,
    _certified_partner,
    _localization,
    _mode_space_partner,
    ConvergenceError,
    DetectorDisagreementError,
    bound_state_scan,
    bound_vectors,
    free_orbit_basis,
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

from oracles import image, iterates, operator, orthonormality_defect

CHEAP = PropagatorSchedule(96, 2)


@pytest.fixture(scope="module")
def free_ring():
    return build_lattice(256, 1.0, 0.0, 0.0, [128])


@pytest.fixture(scope="module")
def free_ring_mono(free_ring):
    return monodromy(free_ring, 0.0, CHEAP)


@pytest.fixture(scope="module")
def driven_256():
    return build_lattice(256, 1.0, -0.8, 0.5, range(126, 131))


@pytest.fixture(scope="module")
def driven_256_run(driven_256):
    mono = monodromy(driven_256, 0.0, CHEAP)
    probes = make_probes(driven_256)
    n_max = wrap_horizon(driven_256)
    wp = stroboscopic_wave_op(driven_256, +1, n_max, mono, probes)
    wm = stroboscopic_wave_op(driven_256, -1, n_max, mono, probes)
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
    def test_iterates_identity_gaps_zero(self, free_ring, free_ring_mono):
        wav = stroboscopic_wave_op(free_ring, +1, 16, free_ring_mono)
        assert wav.cauchy_gaps.max() == 0.0
        assert np.abs(operator(wav) - np.eye(256)).max() <= 1e-12
        assert wav.converged.all()

    def test_s_matrix_identity(self, free_ring, free_ring_mono):
        wp = stroboscopic_wave_op(free_ring, +1, 16, free_ring_mono)
        wm = stroboscopic_wave_op(free_ring, -1, 16, free_ring_mono)
        rep = s_matrix(wp, wm)
        assert rep.unitarity_defect <= 1e-12
        assert rep.intertwining_defect <= 1e-12
        assert rep.isometry_defect <= 1e-12
        p = rep.s_matrix.shape[0]
        assert np.abs(rep.s_matrix - np.eye(p)).max() <= 1e-12

    def test_no_bound_states(self, free_ring, free_ring_mono):
        assert bound_state_scan(free_ring, free_ring_mono, n_modes=2) == []


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
        assert unitary_defect(operator(wp)) <= 1e-10
        assert unitary_defect(operator(wm)) <= 1e-10

    def test_s_matrix_defects(self, driven_256, driven_256_run):
        mono, probes, wp, wm = driven_256_run
        rep = s_matrix(wp, wm, translates=2)
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
        w_plus = operator(wp)
        lhs = mono.operator @ w_plus - w_plus @ theta0
        defect = np.linalg.norm(lhs @ probes.vectors[:, use], axis=0).max()
        assert defect <= 5e-3

    def test_time_averaged_agreement(self, driven_256, driven_256_run):
        mono, probes, wp, wm = driven_256_run
        use = wp.converged & wm.converged
        avg = time_averaged_wave_op(driven_256, mono, +1, wp.n_max, probes, 1.0)
        diff = np.linalg.norm((avg - wp.image())[:, use], axis=0).max()
        assert diff <= 2e-3

    def test_time_averaged_small_window_static_well(self):
        lat = build_lattice(256, 1.0, -1.0, 0.0, range(126, 131))
        probes = make_probes(lat)
        n_max = wrap_horizon(lat)
        mono = monodromy(lat, 0.0, CHEAP)
        wp = stroboscopic_wave_op(lat, +1, n_max, mono, probes)
        avg = time_averaged_wave_op(lat, mono, +1, n_max, probes, 1.0 / 64, n_quad=4)
        use = wp.converged
        diff = np.linalg.norm((avg - wp.image())[:, use], axis=0).max()
        assert diff <= 1e-3

    def test_time_averaged_from_schedule_start(self, driven_well_64):
        # the quadrature built directly from U(s + t_j, s) and the monodromy at s
        s, window, n_max, n_quad = 0.25, 0.5, 4, 4
        sched = PropagatorSchedule(64, 4)
        lat = driven_well_64
        probes = make_probes(lat)
        mono = monodromy(lat, s, sched)
        theta = mono.operator
        theta0 = expm_hermitian(lat.h0, 1.0)
        nodes = np.linspace(0.0, window, n_quad + 1)
        weights = np.full(n_quad + 1, 1.0 / n_quad)
        weights[0] = weights[-1] = 0.5 / n_quad
        kernel = sum(w * expm_hermitian(lat.h0, t).conj().T @ propagate(lat, s, s + t, sched)
                     for w, t in zip(weights, nodes))
        want = (np.linalg.matrix_power(theta0.conj().T, n_max) @ kernel
                @ np.linalg.matrix_power(theta, n_max) @ probes.vectors)
        got = time_averaged_wave_op(lat, mono, +1, n_max, probes, window, n_quad)
        assert np.abs(got - want).max() <= 1e-12

    def test_monodromy_eigenpairs_to_round_off(self, driven_256_run):
        # the bipartite ring's near-pairs of eigenphases +-theta share a cluster
        mono = driven_256_run[0]
        assert mono.eig.residual(mono.operator) <= 1e-11
        assert orthonormality_defect(mono.eig) <= 1e-12

    def test_start_time_covariance(self, driven_256, driven_256_run):
        mono, probes, wp, _ = driven_256_run
        defect = start_time_covariance_defect(driven_256, mono, wp.n_max, probes)
        assert defect <= 5e-3

    def test_orthogonality_probes_vs_bound(self, driven_256, driven_256_run):
        mono, probes, _, _ = driven_256_run
        bound = bound_vectors(driven_256, mono)
        assert bound.shape[1] >= 1
        assert orthogonality_defect(probes, bound) <= 1e-3

    def test_iterates_never_read_theta(self, driven_256, driven_256_run, monkeypatch):
        # the loop takes Theta as Theta0 plus the Monodromy's window block
        from floqscat.propagation import Monodromy

        mono, probes, wp, wm = driven_256_run
        assert mono.window is not None
        monkeypatch.setattr(Monodromy, "operator", property(lambda m: pytest.fail("Theta read")))
        for done in (wp, wm):
            again = stroboscopic_wave_op(driven_256, done.direction, done.n_max, mono, probes)
            assert np.array_equal(again.cauchy_gaps, done.cauchy_gaps)
            assert np.array_equal(again.iterate, done.iterate)

    def test_iterates_without_a_window(self, driven_256, driven_256_run):
        # a Monodromy without a window block (the stepped route): the loop
        # takes E = Theta - Theta0 on every site
        from dataclasses import replace

        mono, probes, wp, _ = driven_256_run
        mono = replace(mono, theta=mono.operator, window=None, block=None)
        lat, n_max = driven_256, wp.n_max
        theta, theta0 = mono.operator, expm_hermitian(lat.h0, 1.0)
        for direction in (+1, -1):
            a_op = theta if direction == +1 else theta.conj().T
            b_op = theta0 if direction == +1 else theta0.conj().T
            wav = stroboscopic_wave_op(lat, direction, n_max, mono, probes)
            got = iterates(wav)
            assert np.array_equal(got[-1], wav.iterate)
            cur = probes.vectors
            for n in range(n_max):
                gap = np.linalg.norm((a_op - b_op) @ cur, axis=0)
                cur = a_op @ cur
                assert np.abs(wav.cauchy_gaps[n] - gap).max() <= 1e-13
                assert np.abs(got[n] - cur).max() <= 1e-13

    def test_block_path_matches_dense_oracle(self, driven_256, driven_256_run):
        # W+- = Theta0^{-+n} Theta^{+-n} as dense L x L products, against the
        # block path (Theta^{+-n} and Theta0^{-+n} from their eigenbases)
        mono, probes, wp, wm = driven_256_run
        lat, n, theta = driven_256, wp.n_max, mono.operator
        theta0 = expm_hermitian(lat.h0, 1.0)
        power = np.linalg.matrix_power
        w_plus = power(theta0.conj().T, n) @ power(theta, n)
        w_minus = power(theta0, n) @ power(theta.conj().T, n)
        s_full = w_plus @ w_minus.conj().T
        for j in (1, n // 2, n):
            want = power(theta0.conj().T, j) @ power(theta, j) @ probes.vectors
            assert np.abs(image(wp, j) - want).max() <= 1e-12
            want = power(theta0, j) @ power(theta.conj().T, j) @ probes.vectors
            assert np.abs(image(wm, j) - want).max() <= 1e-12
        assert np.abs(operator(wp) - w_plus).max() <= 1e-12
        assert np.abs(operator(wm) - w_minus).max() <= 1e-12

        rep = s_matrix(wp, wm, translates=2)
        basis = free_orbit_basis(lat.free_period, probes, translates=2)
        got = vars(rep) | {"w_plus": basis.conj().T @ wp.apply(basis),
                           "w_minus": basis.conj().T @ wm.apply(basis)}
        use = wp.converged & wm.converged
        phi = probes.vectors[:, use]
        s_phi = s_full @ phi
        leak = s_phi - basis @ basis.conj().T @ s_phi
        comm = (s_full @ theta0 - theta0 @ s_full) @ phi
        dense = {
            "w_plus": basis.conj().T @ w_plus @ basis,
            "w_minus": basis.conj().T @ w_minus @ basis,
            "s_matrix": basis.conj().T @ s_full @ basis,
            "isometry_defect": max(np.abs(np.linalg.norm(w @ phi, axis=0) - 1.0).max()
                                   for w in (w_plus, w_minus)),
            "unitarity_defect": np.linalg.norm(leak, axis=0).max(),
            "intertwining_defect": np.linalg.norm(comm, axis=0).max(),
        }
        for name, want in dense.items():
            assert np.abs(got[name] - want).max() <= 1e-12, name

        kernel = time_average(lat, mono, np.eye(lat.sites, dtype=np.complex128), 1.0)
        for direction, want in (
            (+1, power(theta0.conj().T, n) @ kernel @ power(theta, n) @ probes.vectors),
            (-1, power(theta0, n) @ kernel @ power(theta.conj().T, n) @ probes.vectors),
        ):
            got = time_averaged_wave_op(lat, mono, direction, n, probes, 1.0)
            assert np.abs(got - want).max() <= 1e-12

    def test_horizon_enforced(self, driven_256, driven_256_run):
        with pytest.raises(ValueError, match="horizon"):
            stroboscopic_wave_op(driven_256, +1, 100, driven_256_run[0])


class TestBoundStateScan:
    def test_static_well_count_matches_direct_diagonalization(self, driven_well_64):
        lat = build_lattice(64, 1.0, -2.0, 0.0, range(30, 35))
        infos = bound_state_scan(lat, monodromy(lat, 0.0, CHEAP), n_modes=2)
        # oracle: localized eigenvectors of the static Hamiltonian
        h_static = (lat.h0 + lat.mode(0)).real
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
        coarse = bound_state_scan(driven_well_64, monodromy(
            driven_well_64, 0.0, PropagatorSchedule(256, 4)), n_modes=8)
        fine = bound_state_scan(driven_well_64, monodromy(
            driven_well_64, 0.0, PropagatorSchedule(512, 4)), n_modes=8)
        assert len(coarse) == len(fine)
        for a, b in zip(coarse, fine):
            assert abs(a.quasi_energy - b.quasi_energy) <= 1e-4

    def test_no_interior_candidate_is_typed(self):
        # N = EDGE_BLOCKS flags every driven mode-space state as an edge state
        lat = build_lattice(40, 1.0, -1.8, 0.5, range(18, 22))
        with pytest.raises(DetectorDisagreementError) as info:
            bound_state_scan(lat, monodromy(lat, 0.0, PropagatorSchedule(64, 4)),
                             n_modes=EDGE_BLOCKS)
        assert info.value.candidates == 0

    def test_localization_scores_reported(self, driven_well_64, driven_well_64_monodromy):
        infos = bound_state_scan(driven_well_64, driven_well_64_monodromy, n_modes=8)
        for b in infos:
            assert 0.9 <= b.localization <= 1.0
            assert b.multiplicity >= 1

    def test_monodromy_taken_at_schedule_start(self, driven_well_64):
        # the bound-states runner takes Theta at parameters.start
        def localizations(start):
            cfg = {"task": "bound-states",
                   "model": {"lattice": {"sites": 64, "hopping": 1.0, "well_depth": -2.0,
                                         "drive_amp": 0.5, "support": list(range(30, 35))}},
                   "parameters": {"steps_per_period": 64, "order": 4, "start": start,
                                  "n_modes": 8, "verify": False}}
            return [b["localization"] for b in run_scenario(cfg)["results"]["bound_states"]]

        sched = PropagatorSchedule(64, 4)
        eig = monodromy(driven_well_64, 0.25, sched).eig
        score, bound = _localization(driven_well_64, np.abs(eig.vectors) ** 2)
        phases = np.mod(-np.angle(eig.values), 2 * np.pi)
        want = [score[j] for j in sorted(np.flatnonzero(bound), key=lambda j: phases[j])]
        assert localizations(0.25) == want
        assert localizations(0.0) != want

    def test_sparse_partner_matches_dense_spectrum(self, driven_well_64, driven_well_64_monodromy):
        n_modes, tol = 8, 1e-5
        infos = bound_state_scan(driven_well_64, driven_well_64_monodromy, n_modes=n_modes)
        spec = quasi_spectrum(build_floquet(driven_well_64, n_modes))
        _, localized = _localization(driven_well_64, spec.spatial_mass())
        dense = spec.folded[localized & spec.interior]
        scan = ScanOperators(driven_well_64, n_modes)
        assert len(infos) >= 2
        for b in infos:
            dist, candidates = _mode_space_partner(driven_well_64, scan, b.quasi_energy, tol)
            assert candidates >= 1
            assert abs(dist - circular_distance(b.quasi_energy, dense).min()) <= 1e-12


class TestFreeEvolution:
    @pytest.mark.parametrize("window", [1.0, 0.5])
    def test_bit_identical_to_expm_at_the_nodes(self, window):
        lat = build_lattice(64, 1.0, -2.0, 0.5, range(30, 35))
        for t in [*np.linspace(0.0, window, 9), 0.5, 1.0]:
            assert np.array_equal(lat.free_propagator(t), expm_hermitian(lat.h0, float(t)))
        assert np.array_equal(lat.free_propagator(0.0), np.eye(64))

    def test_one_eigendecomposition_per_model(self, monkeypatch):
        import floqscat.model as model
        import floqscat.numerics as numerics

        calls = []
        eig = numerics.hermitian_eig
        for holder in (numerics, model):    # every binding a model's free motion can reach
            monkeypatch.setattr(holder, "hermitian_eig", lambda a: calls.append(a) or eig(a))
        lat = build_lattice(64, 1.0, -2.0, 0.5, range(30, 35))
        sched = PropagatorSchedule(16, 2)
        probes = make_probes(lat)
        mono = monodromy(lat, 0.0, sched)
        time_averaged_wave_op(lat, mono, +1, 2, probes, 1.0)
        start_time_covariance_defect(lat, mono, 2, probes)
        assert len(calls) == 1 and calls[0] is lat.h0

    def test_one_stepper_per_step_width(self, monkeypatch):
        # the model keeps its steppers: the monodromy, the time average's nodes
        # and both sides of the covariance defect step at dt = 1/16
        import floqscat.propagation as propagation

        builds, init = [], propagation.MagnusStepper.__init__

        def spy(self, h, dt, order):
            builds.append((dt, order))
            init(self, h, dt, order)

        monkeypatch.setattr(propagation.MagnusStepper, "__init__", spy)
        lat = build_lattice(64, 1.0, -2.0, 0.5, range(30, 35))
        sched = PropagatorSchedule(16, 2)
        probes = make_probes(lat)
        mono = monodromy(lat, 0.0, sched)
        time_averaged_wave_op(lat, mono, +1, 2, probes, 1.0)
        start_time_covariance_defect(lat, mono, 2, probes)
        assert builds == [(1 / 16, 2)]


class TestPartnerTolerance:
    def test_stated_accuracy_matches_converged_arpack(self, driven_well_64,
                                                      driven_well_64_monodromy, monkeypatch):
        # acceptance criterion 8's cross-check: N = 12, cross_check_tol 1e-5; a
        # phase moved by 3 tol has no partner either way
        n_modes, tol = 12, 1e-5
        infos = bound_state_scan(driven_well_64, driven_well_64_monodromy, n_modes=n_modes,
                                 cross_check_tol=tol)
        phases = [b.quasi_energy for b in infos] + [infos[0].quasi_energy + 3 * tol]
        scan = ScanOperators(driven_well_64, n_modes)
        requested = []

        def partners():
            return [_mode_space_partner(driven_well_64, scan, p, tol)[0] for p in phases]

        def arpack(*args, **kwargs):
            requested.append(kwargs["tol"])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr("scipy.sparse.linalg.eigsh", arpack)
        stated = partners()
        assert min(requested) > 0
        monkeypatch.setattr("scipy.sparse.linalg.eigsh",
                            lambda *a, **kw: eigsh(*a, **{**kw, "tol": 0}))
        converged = partners()
        passed = [True] * len(infos) + [False]
        assert [d <= tol for d in stated] == [d <= tol for d in converged] == passed
        for d, d0 in zip(stated, converged):
            assert abs(d - d0) <= 1e-3 * tol


class TestProbeBlockAverage:
    def test_kernel_acts_on_the_probe_block(self, driven_well_64, monkeypatch):
        # Theta from monodromy(), the p probe columns carried through the
        # quadrature nodes, and neither the L x L kernel nor a dense free
        # propagator formed
        lat, n_max = driven_well_64, 3
        sched = PropagatorSchedule(64, 4)
        probes = make_probes(lat)
        # the session's model keeps its steppers: count the ones this test adds
        monkeypatch.setattr(lat, "steppers", {})
        mono = monodromy(lat, 0.0, sched)
        widths, inner = [], scattering.propagate

        def spy(h, s, t, sched, initial=None, **kwargs):
            widths.append(initial.shape[1])
            return inner(h, s, t, sched, initial=initial, **kwargs)

        monkeypatch.setattr(scattering, "propagate", spy)
        monkeypatch.setattr(lat, "free_propagator", lambda t: pytest.fail("dense U0(t)"))
        got = time_averaged_wave_op(lat, mono, +1, n_max, probes, 1.0)
        assert widths == [probes.count] * 8
        assert len(lat.steppers) == 1    # monodromy and nodes share the step width
        monkeypatch.undo()
        moved = np.linalg.matrix_power(mono.operator, n_max) @ probes.vectors
        kernel = time_average(lat, mono, np.eye(lat.sites, dtype=np.complex128), 1.0)
        want = lat.free_apply(-n_max, kernel @ moved)
        assert np.abs(got - want).max() <= 1e-12


def sparse_lu_certified_partner(model, k, space, phase, sigma, tol):
    """The reference partner: inverse iteration with one sparse LU of K - sigma on the
    whole mode space at the real shift sigma, certified as _certified_partner
    certifies."""
    lu = splu(sp.csc_array(k - sigma * sp.eye_array(k.shape[0], format="csc")))
    x = start_vector(space.size)
    for _ in range(PARTNER_SOLVES):
        x = lu.solve(x)
        x /= np.linalg.norm(x)
        kx = k @ x
        lam = float(np.vdot(x, kx).real)
        dist = float(circular_distance(phase, lam))
        if dist + np.linalg.norm(kx - lam * x) <= tol:
            x = x[:, None]
            _, localized = _localization(model, space.fiber_mass(x))
            return dist if localized[0] and space.interior(x)[0] else None
    return None


# the shipped scans: (sites, depth, drive, support, steps, order, n_modes, bound states)
SUITE_SCANS = [
    (64, -2.0, 0.0, range(30, 35), 96, 2, 2, 3),        # the static well
    (64, -2.0, 0.5, range(30, 35), 256, 4, 8, 3),       # step doubling's coarse scan
    (64, -2.0, 0.5, range(30, 35), 512, 4, 8, 3),       # the driven well's scans
    (64, -2.0, 0.5, range(30, 35), 512, 4, 12, 3),      # acceptance criterion 8
    (256, -0.8, 0.5, range(126, 131), 512, 4, 4, 2),    # acceptance criterion 7
    (256, -0.8, 0.5, range(126, 131), 64, 4, 3, 2),     # the ring-scatter benchmark
    (40, -1.7, 0.45, range(19, 22), 256, 4, 8, 2),      # a ring-bound benchmark slot
]


class TestCertifiedPartner:
    """The mode-space cross-check certifies a partner by inverse iteration, and
    ARPACK runs only where that certifies none."""

    @pytest.mark.parametrize("sites, depth, drive, support, steps, order, n_modes, count",
                             SUITE_SCANS)
    def test_suite_scans_need_no_arpack(self, monkeypatch, sites, depth, drive, support,
                                        steps, order, n_modes, count):
        lat = build_lattice(sites, 1.0, depth, drive, support)
        mono = monodromy(lat, 0.0, PropagatorSchedule(steps, order))
        monkeypatch.setattr("scipy.sparse.linalg.eigsh",
                            lambda *a, **kw: pytest.fail("eigsh reached"))
        assert len(bound_state_scan(lat, mono, n_modes=n_modes)) == count

    def test_phase_without_partner_reaches_arpack(self):
        # (nearest, candidates) as the ARPACK-only cross-check returned them
        lat = build_lattice(48, 1.0, -1.8, 0.5, range(22, 27))
        scan = ScanOperators(lat, 8)
        want = {3.0: (0.2758944132504908, 22), 3.3: (0.024105586748966346, 33),
                1.0: (np.inf, 0), 5.5: (np.inf, 0)}
        for phase, (nearest, candidates) in want.items():
            got = _mode_space_partner(lat, scan, phase, 1e-5)
            assert got[1] == candidates
            assert got[0] == pytest.approx(nearest, rel=1e-12)

    @pytest.mark.parametrize("sites, depth, drive, support, steps, order, n_modes, count",
                             SUITE_SCANS)
    def test_partners_match_sparse_lu(self, monkeypatch, sites, depth, drive, support,
                                      steps, order, n_modes, count):
        # at every shift a scan tries, the support route certifies a partner where
        # the sparse LU of K - sigma does, at the same distance
        lat = build_lattice(sites, 1.0, depth, drive, support)
        mono = monodromy(lat, 0.0, PropagatorSchedule(steps, order))
        certified, pairs = scattering._certified_partner, []

        def both(model, scan, phase, sigma, tol):
            got = certified(model, scan, phase, sigma, tol)
            pairs.append((got, sparse_lu_certified_partner(model, scan.k, scan.space, phase,
                                                           sigma, tol)))
            return got

        monkeypatch.setattr(scattering, "_certified_partner", both)
        assert len(bound_state_scan(lat, mono, n_modes=n_modes)) == count
        assert pairs
        for got, want in pairs:
            assert (got is None) == (want is None)
            if got is not None:
                assert abs(got - want) <= 1e-12

    def test_shift_on_a_free_level(self):
        # sigma = 1 + 14 pi is the free level 1 + 2 pi 7 of the 48-site ring, where a
        # real shift divides by zero; the shift off the axis solves, and certifies
        # no partner for the phase
        lat = build_lattice(48, 1.0, -1.8, 0.5, range(22, 27))
        scan = ScanOperators(lat, 8)
        sigma = 1.0 + 2 * np.pi * 7
        assert (scan.free_levels + scan.space.frequencies[:, None] == sigma).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _certified_partner(lat, scan, 1.0, sigma, 1e-5) is None


import json
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import floqscat.propagation as propagation
import floqscat.scattering as scattering
from floqscat.cli import run_scenario
from floqscat.floquet import (EDGE_BLOCKS, GAP_MARGIN, build_floquet, circular_distance,
                              quasi_spectrum, sidebands_closed, start_vector)
from floqscat.model import LatticeModel, build_lattice
from floqscat.numerics import EigenDecomposition, expm_hermitian, unitary_defect
from floqscat.propagation import Monodromy, PropagatorSchedule, monodromy, propagate
from floqscat.resolvent import NULL_TOL, RAYLEIGH_EPS, InverseIterationError, ScanOperators
from floqscat.scattering import (
    _certified_partner,
    _localization,
    _mode_space_partner,
    ConvergenceError,
    DetectorDisagreementError,
    bound_state_scan,
    free_orbit_basis,
    gaussian_packet,
    in_gap,
    make_probes,
    orthogonality_defect,
    s_matrix,
    stroboscopic_wave_op,
    time_average,
    time_averaged_wave_op,
    wrap_horizon,
)

from oracles import (free_propagator, image, loop_gaps, operator, orthonormality_defect,
                     kronecker_k, residual, ring_time_average, start_time_covariance_defect)

CHEAP = PropagatorSchedule(96, 2)


def state_energies(mono):
    """{phase: static energy <v|H0 + H_0|v>} of mono's in-gap states."""
    phases, vectors = in_gap(mono)
    return dict(zip(phases, mono.model.static_energy(vectors)))


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
    wp = stroboscopic_wave_op(mono, +1, n_max, probes)
    wm = stroboscopic_wave_op(mono, -1, n_max, probes)
    return mono, probes, wp, wm


class TestProbes:
    def test_packet_normalized_and_centered(self):
        psi = gaussian_packet(128, 40, 0.8, 5.0)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        assert abs(np.argmax(np.abs(psi)) - 40) <= 1

    def test_mirror_pairs(self, driven_256):
        probes = make_probes(driven_256)
        assert probes.vectors.shape[1] == 8
        assert np.allclose(probes.momenta[0::2], -probes.momenta[1::2])

    def test_seeded_jitter_deterministic(self, driven_256):
        a = make_probes(driven_256, rng=np.random.default_rng(7))
        b = make_probes(driven_256, rng=np.random.default_rng(7))
        assert np.array_equal(a.vectors, b.vectors)


class TestFreeRing:
    def test_iterates_identity_gaps_zero(self, free_ring, free_ring_mono):
        wav = stroboscopic_wave_op(free_ring_mono, +1, 16)
        assert wav.cauchy_gaps.max() == 0.0
        assert np.abs(operator(wav) - np.eye(256)).max() <= 1e-12
        assert wav.converged.all()

    def test_convergence_rule_below_the_run(self, free_ring, free_ring_mono):
        # every gap is 0 here, so the run length alone decides: fewer than
        # GAP_RUN iterates converge no probe, GAP_RUN iterates every probe
        with pytest.raises(ConvergenceError):
            stroboscopic_wave_op(free_ring_mono, +1, scattering.GAP_RUN - 1)
        wav = stroboscopic_wave_op(free_ring_mono, +1, scattering.GAP_RUN)
        assert wav.cauchy_gaps.max() == 0.0
        assert wav.converged.all()

    def test_s_matrix_identity(self, free_ring, free_ring_mono):
        wp = stroboscopic_wave_op(free_ring_mono, +1, 16)
        wm = stroboscopic_wave_op(free_ring_mono, -1, 16)
        rep = s_matrix(wp, wm)
        assert rep.unitarity_defect <= 1e-12
        assert rep.intertwining_defect <= 1e-12
        assert rep.isometry_defect <= 1e-12
        assert rep.s_matrix
        for block in rep.s_matrix:
            assert np.abs(block - np.eye(len(block))).max() <= 1e-12
            reflection, transmission = block[0, 1:], block[0, 0]    # r = 0, |t| = 1
            assert np.abs(reflection).max(initial=0.0) <= 1e-12
            assert abs(abs(transmission) - 1.0) <= 1e-12

    def test_no_bound_states(self, free_ring, free_ring_mono):
        assert bound_state_scan(free_ring_mono, n_modes=2) == []


def eigenbasis_route(lat, phases=None):
    """lat with U0(t) and U0(1) taken from free_eig, whose eigenvector columns are
    first multiplied by `phases` where given (the same operator, rounded otherwise),
    in place of the FFT."""
    eig = lat.free_eig
    if phases is not None:
        eig = lat.free_eig = EigenDecomposition(eig.values, eig.vectors * phases)
    lat.free_apply = lambda t, x: eig.apply(np.exp(-1j * float(t) * eig.values), x)
    lat.free_period = eig.exp(1.0)
    return lat


class TestEigenbasisGaps:
    """The Cauchy gaps and W^(n_max) phi from Theta's eigenbasis against the FFT
    iterate loop (oracles.loop), on the light cone's window and on the every-site
    window."""

    @pytest.fixture(scope="class", params=[(256, 0.0), (256, 0.25), (1024, 0.0), (1024, 0.25)],
                    ids=lambda p: f"L{p[0]}-s{p[1]}")
    def run(self, request):
        sites, start = request.param
        lat = build_lattice(sites, 1.0, -0.8, 0.5, range(sites // 2 - 2, sites // 2 + 3))
        mono = monodromy(lat, start, CHEAP)
        assert len(mono.window) < sites
        return lat, mono, make_probes(lat), wrap_horizon(lat)

    @pytest.mark.parametrize("window", [True, False], ids=["window", "no-window"])
    @pytest.mark.parametrize("direction", [+1, -1])
    def test_against_the_loop(self, run, window, direction):
        from dataclasses import replace

        lat, mono, probes, n_max = run
        sites = lat.sites
        if not window:     # the every-site window: E = Theta - Theta0 on every row
            every = replace(mono, window=np.arange(sites), block=mono.operator - lat.free_period,
                            segment=lat)
            every.eig = mono.eig      # the same eigenbasis
            mono = every
        wav = stroboscopic_wave_op(mono, direction, n_max, probes)
        assert np.abs(wav.cauchy_gaps - loop_gaps(wav)).max() <= 1e-12
        assert np.abs(wav.image() - image(wav, n_max)).max() <= 1e-12


class TestChannelBlocks:
    """S on Theta0's channels does not move with the round-off in Theta0."""

    @staticmethod
    def report(lat):
        mono = monodromy(lat, 0.0, PropagatorSchedule(64, 4))
        probes, n_max = make_probes(lat), wrap_horizon(lat)
        wp = stroboscopic_wave_op(mono, +1, n_max, probes)
        wm = stroboscopic_wave_op(mono, -1, n_max, probes)
        return s_matrix(wp, wm, translates=2)

    def test_theta0_round_off_moves_no_block(self):
        def ring():
            return build_lattice(256, 1.0, -0.8, 0.5, range(126, 131))

        phases = np.exp(2j * np.pi * np.random.default_rng(5).uniform(size=256))
        fft = self.report(ring())
        assert len(fft.s_matrix) >= 20
        for other in (eigenbasis_route(ring()), eigenbasis_route(ring(), phases)):
            rep = self.report(other)
            assert [m.tolist() for m in rep.channel_momenta] == [m.tolist() for m in fft.channel_momenta]
            assert np.abs(np.subtract(rep.s_matrix, fft.s_matrix)).max() <= 1e-10
            assert abs(rep.unitarity_defect - fft.unitarity_defect) <= 1e-10

    def test_channels_pair_each_momentum_with_its_mirror(self, driven_256):
        # at hopping 1 < pi/2 the band is narrower than 2 pi: Theta0's eigenspaces
        # are {k, -k}, and {0} and {pi} alone
        clusters = scattering.channel_clusters(driven_256)
        assert sorted(len(c) for c in clusters) == [1, 1] + [2] * 127
        assert all(len(c) == 1 or c[0] == -c[1] for c in clusters)

    def test_sidebands_join_above_hopping_pi_over_2(self):
        # eps(k) = -2 J cos k at J = 2 pi / 3: eps(0) = -4 pi / 3 and eps(+-2 pi / 3)
        # = 2 pi / 3 are 2 pi apart, so k = 0 shares Theta0's eigenvalue with them
        lat = build_lattice(12, 2 * np.pi / 3, 0.0, 0.0, [6])
        clusters = [sorted(c.tolist()) for c in scattering.channel_clusters(lat)]
        assert [-4, 0, 4] in clusters


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
        off = [block - np.diag(np.diag(block)) for block in rep.s_matrix]
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
        avg = time_averaged_wave_op(mono, +1, wp.n_max, probes, 1.0)
        diff = np.linalg.norm((avg - wp.image())[:, use], axis=0).max()
        assert diff <= 2e-3

    def test_time_averaged_small_window_static_well(self):
        lat = build_lattice(256, 1.0, -1.0, 0.0, range(126, 131))
        probes = make_probes(lat)
        n_max = wrap_horizon(lat)
        mono = monodromy(lat, 0.0, CHEAP)
        wp = stroboscopic_wave_op(mono, +1, n_max, probes)
        avg = time_averaged_wave_op(mono, +1, n_max, probes, 1.0 / 64, n_quad=4)
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
        got = time_averaged_wave_op(mono, +1, n_max, probes, window, n_quad)
        assert np.abs(got - want).max() <= 1e-12

    def test_monodromy_eigenpairs_to_round_off(self, driven_256_run):
        # the bipartite ring's near-pairs of eigenphases +-theta share a cluster
        mono = driven_256_run[0]
        assert residual(mono.eig, mono.operator) <= 1e-11
        assert orthonormality_defect(mono.eig) <= 1e-12

    def test_start_time_covariance(self, driven_256, driven_256_run):
        mono, probes, wp, _ = driven_256_run
        defect = start_time_covariance_defect(mono, wp.n_max, probes)
        assert defect <= 5e-3

    def test_orthogonality_probes_vs_bound(self, driven_256, driven_256_run):
        mono, probes, _, _ = driven_256_run
        bound = in_gap(mono)[1]
        assert bound.shape[1] >= 1
        assert orthogonality_defect(probes, bound) <= 1e-3

    def test_iterates_never_read_theta(self, driven_256, driven_256_run, monkeypatch):
        # the gaps take Theta - Theta0 as the Monodromy's window block
        from floqscat.propagation import Monodromy

        mono, probes, wp, wm = driven_256_run
        assert len(mono.window) < driven_256.sites
        images = [done.image() for done in (wp, wm)]
        monkeypatch.setattr(Monodromy, "operator", property(lambda m: pytest.fail("Theta read")))
        for done, want in zip((wp, wm), images):
            again = stroboscopic_wave_op(mono, done.direction, done.n_max, probes)
            assert np.array_equal(again.cauchy_gaps, done.cauchy_gaps)
            assert np.array_equal(again.image(), want)

    def test_iterates_without_a_window(self, driven_256, driven_256_run):
        # a Monodromy on the every-site window (where the light cone does not
        # fit): the gaps take E = Theta - Theta0 on every site
        from dataclasses import replace

        mono, probes, wp, _ = driven_256_run
        lat, n_max = driven_256, wp.n_max
        mono = replace(mono, window=np.arange(lat.sites), block=mono.operator - lat.free_period,
                       segment=lat)
        theta, theta0 = mono.operator, expm_hermitian(lat.h0, 1.0)
        for direction in (+1, -1):
            a_op = theta if direction == +1 else theta.conj().T
            b_op = theta0 if direction == +1 else theta0.conj().T
            wav = stroboscopic_wave_op(mono, direction, n_max, probes)
            cur = probes.vectors
            for n in range(n_max):
                gap = np.linalg.norm((a_op - b_op) @ cur, axis=0)
                cur = a_op @ cur
                assert np.abs(wav.cauchy_gaps[n] - gap).max() <= 1e-13
            free = np.linalg.matrix_power(b_op.conj().T, n_max)
            assert np.abs(wav.image() - free @ cur).max() <= 1e-13

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
        basis = free_orbit_basis(lat, probes, translates=2)
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
            "isometry_defect": max(np.abs(np.linalg.norm(w @ phi, axis=0) - 1.0).max()
                                   for w in (w_plus, w_minus)),
            "unitarity_defect": np.linalg.norm(leak, axis=0).max(),
            "intertwining_defect": np.linalg.norm(comm, axis=0).max(),
        }
        for name, want in dense.items():
            assert np.abs(got[name] - want).max() <= 1e-12, name
        # S's blocks: the least-squares fit on each reported channel, from the
        # Fourier transforms of phi and of the dense S phi; the fit grows the
        # difference in S phi by at most 1 / FIT_WEIGHT
        x, y = (np.fft.fft(a, axis=0, norm="ortho") for a in (phi, s_phi))
        assert rep.s_matrix
        for block, momenta in zip(rep.s_matrix, rep.channel_momenta):
            rows = np.round(momenta * lat.sites / (2 * np.pi)).astype(int) % lat.sites
            want = np.linalg.lstsq(x[rows].T, y[rows].T, rcond=None)[0].T
            assert np.abs(block - want).max() <= 1e-12 / scattering.FIT_WEIGHT

        kernel = time_average(mono, np.eye(lat.sites, dtype=np.complex128), 1.0)
        for direction, want in (
            (+1, power(theta0.conj().T, n) @ kernel @ power(theta, n) @ probes.vectors),
            (-1, power(theta0, n) @ kernel @ power(theta.conj().T, n) @ probes.vectors),
        ):
            got = time_averaged_wave_op(mono, direction, n, probes, 1.0)
            assert np.abs(got - want).max() <= 1e-12

    def test_horizon_enforced(self, driven_256, driven_256_run):
        with pytest.raises(ValueError, match="horizon"):
            stroboscopic_wave_op(driven_256_run[0], +1, 100)


class TestBoundStateScan:
    def test_static_well_count_matches_direct_diagonalization(self, driven_well_64):
        lat = build_lattice(64, 1.0, -2.0, 0.0, range(30, 35))
        infos = bound_state_scan(monodromy(lat, 0.0, CHEAP), n_modes=2)
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
        coarse = bound_state_scan(monodromy(
            driven_well_64, 0.0, PropagatorSchedule(256, 4)), n_modes=8)
        fine = bound_state_scan(monodromy(
            driven_well_64, 0.0, PropagatorSchedule(512, 4)), n_modes=8)
        assert len(coarse) == len(fine)
        for a, b in zip(coarse, fine):
            assert abs(a.quasi_energy - b.quasi_energy) <= 1e-4

    def test_no_interior_candidate_is_typed(self):
        # N = EDGE_BLOCKS flags every driven mode-space state as an edge state; the
        # error carries the null scan's smallest singular value at the first phase
        lat = build_lattice(40, 1.0, -1.8, 0.5, range(18, 22))
        mono = monodromy(lat, 0.0, PropagatorSchedule(64, 4))
        with pytest.raises(DetectorDisagreementError) as info:
            bound_state_scan(mono, n_modes=EDGE_BLOCKS)
        phases = mono.quasi_energies
        phase = np.sort(phases[sidebands_closed(phases, lat.free_eig.values)])[0]
        want = ScanOperators(lat, EDGE_BLOCKS).null_pair(phase + 1j * RAYLEIGH_EPS)[0]
        assert info.value.s_min == want
        assert f"{phase:.8f}" in str(info.value) and f"{want:.2e}" in str(info.value)

    def test_localization_scores_reported(self, driven_well_64, driven_well_64_monodromy):
        infos = bound_state_scan(driven_well_64_monodromy, n_modes=8)
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
        score = _localization(driven_well_64, eig.vectors)
        phases = np.mod(-np.angle(eig.values), 2 * np.pi)
        bound = sidebands_closed(phases, driven_well_64.free_eig.values)
        want = [score[j] for j in sorted(np.flatnonzero(bound), key=lambda j: phases[j])]
        assert localizations(0.25) == want
        assert localizations(0.0) != want

    def test_sparse_partner_matches_dense_spectrum(self, driven_well_64, driven_well_64_monodromy):
        n_modes, tol = 8, 1e-5
        infos = bound_state_scan(driven_well_64_monodromy, n_modes=n_modes)
        spec = quasi_spectrum(build_floquet(driven_well_64, n_modes))
        in_gap = sidebands_closed(spec.values, driven_well_64.free_eig.values)
        dense = spec.folded[in_gap & spec.interior]
        scan = ScanOperators(driven_well_64, n_modes)
        energies = state_energies(driven_well_64_monodromy)
        assert len(infos) >= 2
        for b in infos:
            dist = _mode_space_partner(scan, b.quasi_energy, energies[b.quasi_energy], tol)
            assert dist is not None
            assert abs(dist - circular_distance(b.quasi_energy, dense).min()) <= 1e-12


class TestGapRule:
    """A bound state is an eigenphase with every sideband outside the free band."""

    def test_band_edge_is_not_bound(self):
        # an even ring's levels span exactly [-2, 2] at hopping 1: the folded band
        # is [0, 2] and [2 pi - 2, 2 pi), the gap the open interval between, less
        # GAP_MARGIN on each side
        levels = build_lattice(40, 1.0, 0.0, 0.0, [20]).free_eig.values
        assert levels[0] == -2.0 and levels[-1] == 2.0
        edges = np.array([2.0, 2 * np.pi - 2.0, 0.0, 2 * np.pi, 2.0 + 2 * np.pi])
        assert not sidebands_closed(edges, levels).any()
        near = np.array([2.0 + GAP_MARGIN / 2, 2 * np.pi - 2.0 - GAP_MARGIN / 2])
        assert not sidebands_closed(near, levels).any()
        inside = np.array([2.0 + 2 * GAP_MARGIN, 2 * np.pi - 2.0 - 2 * GAP_MARGIN, np.pi])
        assert sidebands_closed(inside, levels).all()
        assert not sidebands_closed(np.array([1.0, 5.5, -1.0]), levels).any()
        # a band wider than 2 pi leaves no gap
        assert not sidebands_closed(np.linspace(0, 2 * np.pi, 50), levels * 1.6).any()

    @pytest.mark.parametrize("sites", [40, 64, 128, 256, 512])
    def test_free_ring_binds_nothing(self, sites):
        # the free ring's band-edge phases +-2 fall within round-off of H0's extreme
        # levels, on either side of them: at 128 and 512 sites the phase of the
        # level -2 lies just outside the hull, and only GAP_MARGIN keeps it out of
        # the gap
        ring = build_lattice(sites, 1.0, 0.0, 0.0, [sites // 2])
        mono = monodromy(ring, 0.0, PropagatorSchedule(16, 2))
        assert in_gap(mono)[1].shape == (sites, 0)

    def test_wide_band_binds_nothing(self):
        # at hopping 1.6 the band's width 6.4 exceeds 2 pi: every sideband of every
        # quasi-energy is open, so no state is bound, however deep the well
        lat = build_lattice(40, 1.6, -5.0, 0.5, range(18, 23))
        mono = monodromy(lat, 0.0, PropagatorSchedule(256, 4))
        assert bound_state_scan(mono, n_modes=8) == []
        assert in_gap(mono)[1].shape == (40, 0)

    @pytest.mark.parametrize("depth, count", [(-0.8, 2), (-2.0, 3), (-5.0, 2)])
    @pytest.mark.parametrize("sites", [40, 64, 256])
    def test_count_does_not_depend_on_the_ring_size(self, sites, depth, count):
        # the depth -5 well's three in-band Floquet resonances are not bound states,
        # where a 90 % localization rule once counted 4, 5 and 3 of its states on
        # 40, 64 and 256 sites
        cfg = {"task": "bound-states",
               "model": {"lattice": {"sites": sites, "hopping": 1.0, "well_depth": depth,
                                     "drive_amp": 0.5, "support_width": 5}},
               "parameters": {"steps_per_period": 256, "n_modes": 8, "scan_modes": 6}}
        results = run_scenario(cfg)["results"]
        assert results["n_bound"] == count
        assert all(v["confirmed"] for v in results["verdicts"])


class TestFreeEvolution:
    @pytest.mark.parametrize("window", [1.0, 0.5])
    def test_bit_identical_to_expm_at_the_nodes(self, window):
        lat = build_lattice(64, 1.0, -2.0, 0.5, range(30, 35))
        for t in [*np.linspace(0.0, window, 9), 0.5, 1.0]:
            assert np.array_equal(free_propagator(lat, t), expm_hermitian(lat.h0, float(t)))
        assert np.array_equal(free_propagator(lat, 0.0), np.eye(64))

    def test_one_eigendecomposition_per_model(self, monkeypatch):
        import floqscat.model as model
        import floqscat.numerics as numerics

        calls = []
        eig = numerics.hermitian_eig

        def counted(a):
            # unitary_eig diagonalizes Theta's Hermitian part through hermitian_eig too:
            # Theta's eigenbasis, not the free motion
            if sys._getframe(1).f_code.co_name != "_diagonalize":
                calls.append(a)
            return eig(a)

        for holder in (numerics, model):    # every binding a model's free motion can reach
            monkeypatch.setattr(holder, "hermitian_eig", counted)
        sched = PropagatorSchedule(16, 2)
        ring = build_lattice(64, 1.0, -2.0, 0.5, range(30, 35))
        # the open chain of the same sites: no ring_spectrum, so free_eig carries U0(t)
        chain = LatticeModel(1.0, ring.potential_support, ring.well, ring.drive, closed=False)
        for lat, eigs in ((ring, 0), (chain, 1)):   # a ring's free motion runs by FFT
            calls.clear()
            probes = make_probes(lat)
            mono = monodromy(lat, 0.0, sched)
            time_averaged_wave_op(mono, +1, 2, probes, 1.0)
            start_time_covariance_defect(mono, 2, probes)
            assert len(calls) == eigs and all(a is lat.h0 for a in calls)

    RING_16 = {"sites": 16, "hopping": 1.0, "well_depth": -1.0, "drive_amp": 0.5,
               "support_width": 3}
    RING_40 = {"sites": 40, "hopping": 1.0, "well_depth": -1.7, "drive_amp": 0.45,
               "support_width": 3}

    @pytest.mark.parametrize("cfg", [
        {"task": "resolvent-check", "model": {"builtin": "rabi", "delta": 0.0, "v": 1.0},
         "parameters": {"lambda": [2.0, 1.0], "n_t": 256, "n_modes": 8}},
        {"task": "resolvent-check", "model": {"lattice": RING_16},
         "parameters": {"eta": 1.0, "n_t": 32, "n_modes": 4}},
        {"task": "resolvent-check", "model": {"builtin": "fleet-d3"},   # a block_q eta sweep row
         "parameters": {"eta": 4.0, "n_t": 64, "n_modes": 12}},
        {"task": "bound-states", "model": {"lattice": RING_40},
         "parameters": {"steps_per_period": 256, "order": 4, "n_modes": 8, "scan_modes": 4}},
    ], ids=["fiber-resolvent-check", "lattice-resolvent-check", "block-q-row", "bound-states"])
    def test_one_eigendecomposition_per_scenario(self, monkeypatch, cfg):
        # the free motion, the grid resolvent, the mode-space blocks and the null
        # scan all read the scenario model's free_eig
        import floqscat.cli as cli
        import floqscat.floquet as floquet
        import floqscat.model as model
        import floqscat.numerics as numerics
        import floqscat.resolvent as resolvent

        calls, models = [], []
        eig, build = numerics.hermitian_eig, cli.build_model
        for holder in (numerics, model, resolvent, floquet):
            if hasattr(holder, "hermitian_eig"):
                monkeypatch.setattr(holder, "hermitian_eig", lambda a: calls.append(a) or eig(a))
        monkeypatch.setattr(cli, "build_model",
                            lambda spec: models.append(build(spec)) or models[-1])
        run_scenario(cfg, 1)
        [h] = models
        assert sum(a is h.h0 for a in calls) == 1

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
        time_averaged_wave_op(mono, +1, 2, probes, 1.0)
        start_time_covariance_defect(mono, 2, probes)
        assert builds == [(1 / 16, 2)]


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
        widths, inner = [], propagation.propagate

        def spy(h, s, t, sched, initial=None, **kwargs):
            widths.append(initial.shape[1])
            return inner(h, s, t, sched, initial=initial, **kwargs)

        monkeypatch.setattr(propagation, "propagate", spy)   # the segment is the ring
        monkeypatch.setattr(lat.free_eig, "exp", lambda t: pytest.fail("dense U0(t)"))
        got = time_averaged_wave_op(mono, +1, n_max, probes, 1.0)
        assert widths == [probes.vectors.shape[1]] * 8
        assert len(lat.steppers) == 1    # monodromy and nodes share the step width
        monkeypatch.undo()
        moved = np.linalg.matrix_power(mono.operator, n_max) @ probes.vectors
        kernel = time_average(mono, np.eye(lat.sites, dtype=np.complex128), 1.0)
        want = lat.free_apply(-n_max, kernel @ moved)
        assert np.abs(got - want).max() <= 1e-12


# inverse-iteration solves the reference partner spends at each shift
PARTNER_SOLVES = 3


def sparse_lu_certified_partner(k, space, levels, phase, sigma, tol):
    """The reference partner: PARTNER_SOLVES steps of inverse iteration with one sparse
    LU of K - sigma on the whole mode space at the real shift sigma, certified as
    _certified_partner certifies (in the gap of the free levels, interior)."""
    lu = splu(sp.csc_array(k - sigma * sp.eye_array(k.shape[0], format="csc")))
    x = start_vector(space.size)
    for _ in range(PARTNER_SOLVES):
        x = lu.solve(x)
        x /= np.linalg.norm(x)
        kx = k @ x
        lam = float(np.vdot(x, kx).real)
        dist = float(circular_distance(phase, lam))
        if dist + np.linalg.norm(kx - lam * x) <= tol:
            closed = sidebands_closed(lam, levels)
            return dist if closed and space.interior(x[:, None])[0] else None
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


RING_SCATTER = {"task": "wave-operators",
                "model": {"lattice": {"sites": 256, "hopping": 1.0, "well_depth": -0.8,
                                      "drive_amp": 0.5, "support_width": 5}},
                "parameters": {"steps_per_period": 64, "order": 4, "translates": 2,
                               "average_window": 1.0, "floquet_modes": 3}}


class TestWindowAverage:
    """time_average on the light cone's window: x + sum_j w_j U0(-t_j) P_W D_j x_W, each
    D_j x_W stepped on the window segment, against the whole ring swept
    (oracles.ring_time_average)."""

    @pytest.fixture(scope="class", params=[(256, 0.0), (256, 0.25), (1024, 0.0), (1024, 0.25)],
                    ids=lambda p: f"L{p[0]}-start{p[1]}")
    def ring_run(self, request):
        sites, start = request.param
        ring = build_lattice(sites, 1.0, -0.8, 0.5, range(sites // 2 - 2, sites // 2 + 3))
        mono = monodromy(ring, start, PropagatorSchedule(64, 4))
        rng = np.random.default_rng(sites)
        x = rng.normal(size=(sites, 3)) + 1j * rng.normal(size=(sites, 3))
        x = np.column_stack([x / np.linalg.norm(x, axis=0), make_probes(ring).vectors[:, :2],
                             mono.apply(sites // 16, make_probes(ring).vectors[:, :2])])
        return ring, mono, x

    @pytest.mark.parametrize("width", [0.3, 1.0])
    def test_matches_the_ring_sweep(self, ring_run, width):
        ring, mono, x = ring_run
        assert mono.segment is not None and mono.segment.sites == 81
        ring.steppers.clear()
        got = time_average(mono, x, width)
        assert not ring.steppers                  # the ring is not stepped
        want = ring_time_average(mono, x, width)
        assert np.abs(got - want).max() <= 1e-12

    def test_border_breach_takes_the_ring_sweep(self, ring_run, monkeypatch):
        # a kick past the window's border is refused: the whole ring is not swept
        ring, mono, x = ring_run
        monkeypatch.setattr(propagation, "WINDOW_BORDER_TOL", 0.0)
        ring.steppers.clear()
        with pytest.raises(propagation.WindowLeakError, match="t = 0.125 leaves"):
            time_average(mono, x, 1.0)
        assert not ring.steppers                  # the ring is not stepped


class TestSegmentAlone:
    """On the light cone's window scattering steps the Monodromy's segment and
    nothing else: the ring's dense arrays are never formed."""

    def test_scattering_binds_no_stepping(self):
        assert not hasattr(scattering, "propagate") and not hasattr(scattering, "monodromy")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ring_scatter_forms_no_ring_array(self, monkeypatch, seed):
        import floqscat.cli as cli

        models, build = [], cli.build_model
        monkeypatch.setattr(cli, "build_model",
                            lambda spec: models.append(build(spec)) or models[-1])
        run_scenario(RING_SCATTER, seed=seed)
        [ring] = models
        assert ring.sites == 256 and not ring.steppers
        assert not {"h0", "modes", "free_eig"} & set(vars(ring))


class TestSegmentCrossCheck:
    def test_ring_scan_only_for_phases_the_segment_leaves(self, monkeypatch):
        # where the 81-site segment certifies no phase, the ring's ScanOperators
        # takes every one, and the report is the same to the byte
        import floqscat.cli as cli

        def run(segment_certifies):
            scans, init = [], ScanOperators.__init__
            partner = scattering._mode_space_partner
            with monkeypatch.context() as m:
                m.setattr(ScanOperators, "__init__",
                          lambda self, h, n: scans.append(h.dim) or init(self, h, n))
                if not segment_certifies:
                    m.setattr(scattering, "_mode_space_partner",
                              lambda scan, *args: None if scan.space.fiber_dim == 81
                              else partner(scan, *args))
                report = run_scenario(RING_SCATTER, seed=1)
            return scans, cli.canonical_json(report)

        (seg_scans, shipped), (ring_scans, fallback) = run(True), run(False)
        assert seg_scans == [81] and ring_scans == [81, 256]
        assert json.loads(shipped)["results"]["bound_states"]
        assert shipped == fallback

    def test_disagreement_names_the_rings_smallest_singular_value(self, monkeypatch):
        # certified nowhere: the error carries the ring's null scan at the phase
        monkeypatch.setattr(scattering, "_mode_space_partner", lambda *args: None)
        lat = build_lattice(256, 1.0, -0.8, 0.5, range(126, 131))
        mono = monodromy(lat, 0.0, PropagatorSchedule(64, 4))
        with pytest.raises(DetectorDisagreementError) as err:
            bound_state_scan(mono, n_modes=3)
        phase = min(mono.quasi_energies[sidebands_closed(mono.quasi_energies,
                                                         lat.free_levels)])
        want = ScanOperators(lat, 3).null_pair(phase + 1j * RAYLEIGH_EPS)[0]
        assert err.value.s_min == want


class TestCertifiedPartner:
    """The mode-space cross-check certifies a partner by inverse iteration; a phase
    it certifies none for is a disagreement (there is no second route)."""

    @pytest.mark.parametrize("sites, depth, drive, support, steps, order, n_modes, count",
                             SUITE_SCANS)
    def test_suite_scans_need_no_arpack(self, sites, depth, drive, support,
                                        steps, order, n_modes, count):
        # every in-gap phase of the suite's scans has a certified partner
        lat = build_lattice(sites, 1.0, depth, drive, support)
        mono = monodromy(lat, 0.0, PropagatorSchedule(steps, order))
        assert len(bound_state_scan(mono, n_modes=n_modes)) == count

    def test_phase_without_partner_has_none(self):
        # 3.0 and 3.3 lie in the gap, 0.28 and 0.024 from the nearest interior in-gap
        # eigenvalue of K; 1.0 and 5.5 lie in the folded band [-2, 2]; a bound phase
        # moved by 3 tol has no partner either
        # (each tried at the translates around the bound state's static energy)
        lat = build_lattice(48, 1.0, -1.8, 0.5, range(22, 27))
        scan = ScanOperators(lat, 8)
        mono = monodromy(lat, 0.0, PropagatorSchedule(256, 4))
        bound = bound_state_scan(mono, 8)
        energy = state_energies(mono)[bound[0].quasi_energy]
        assert _mode_space_partner(scan, bound[0].quasi_energy, energy, 1e-5) <= 1e-5
        for phase in (3.0, 3.3, 1.0, 5.5, bound[0].quasi_energy + 3e-5):
            assert _mode_space_partner(scan, phase, energy, 1e-5) is None

    def test_phase_without_partner_costs_2n_plus_1_scans(self, monkeypatch):
        # the translates are the 2N + 1 around the state's energy, whatever K's norm:
        # a phase with no partner takes one null scan at each, and no more
        lat = build_lattice(48, 1.0, -1.8, 0.5, range(22, 27))
        scan = ScanOperators(lat, 8)
        mono = monodromy(lat, 0.0, PropagatorSchedule(256, 4))
        energy = state_energies(mono)[bound_state_scan(mono, 8)[0].quasi_energy]
        tried, null_pair = [], scan.null_pair
        monkeypatch.setattr(scan, "null_pair", lambda zeta: tried.append(zeta) or null_pair(zeta))
        assert _mode_space_partner(scan, 3.0, energy, 1e-5) is None
        assert len(tried) == 2 * 8 + 1
        assert len(set(tried)) == len(tried)

    def test_coarse_phase_raises_with_the_null_scan_s_min(self):
        # 8 midpoint steps move the lowest bound phase beyond CROSS_CHECK_TOL of K's
        # eigenvalue: the scan raises with I + Q's smallest singular value there,
        # above the null scan's own tolerance
        lat = build_lattice(40, 1.0, -1.8, 0.5, range(18, 22))
        mono = monodromy(lat, 0.0, PropagatorSchedule(8, 2))
        with pytest.raises(DetectorDisagreementError, match="not reproduced") as info:
            bound_state_scan(mono, n_modes=8)
        phases = mono.quasi_energies
        phase = np.sort(phases[sidebands_closed(phases, lat.free_eig.values)])[0]
        assert info.value.s_min == ScanOperators(lat, 8).null_pair(phase + 1j * RAYLEIGH_EPS)[0]
        assert info.value.s_min > NULL_TOL

    @pytest.mark.parametrize("sites, depth, drive, support, steps, order, n_modes, count",
                             SUITE_SCANS)
    def test_partners_match_sparse_lu(self, monkeypatch, sites, depth, drive, support,
                                      steps, order, n_modes, count):
        # at every shift a scan tries, the support route certifies a partner where
        # the sparse LU of K - sigma does, at the same distance
        lat = build_lattice(sites, 1.0, depth, drive, support)
        mono = monodromy(lat, 0.0, PropagatorSchedule(steps, order))
        certified, init = scattering._certified_partner, ScanOperators.__init__
        pairs, oracle = [], []

        def with_oracle(self, h, n):
            # the Kronecker K of the model (the segment or the ring) each scan is built for
            oracle[:] = [kronecker_k(h, n)[0]]
            init(self, h, n)

        def both(scan, phase, sigma, tol):
            got = certified(scan, phase, sigma, tol)
            pairs.append((got, sparse_lu_certified_partner(oracle[0], scan.space,
                                                           scan.free.values, phase, sigma, tol)))
            return got

        monkeypatch.setattr(ScanOperators, "__init__", with_oracle)
        monkeypatch.setattr(scattering, "_certified_partner", both)
        assert len(bound_state_scan(mono, n_modes=n_modes)) == count
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
        assert (scan.free.values + scan.space.frequencies[:, None] == sigma).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _certified_partner(scan, 1.0, sigma, 1e-5) is None

    def test_unsettled_shift_tries_the_next_translate(self, monkeypatch):
        # the static well's K has a partner at every interior translate: where the
        # null scan does not settle at the first, that shift certifies nothing and
        # the next translate certifies the phase
        lat = build_lattice(64, 1.0, -2.0, 0.0, range(30, 35))
        scan = ScanOperators(lat, 6)
        mono = monodromy(lat, 0.0, PropagatorSchedule(96, 2))
        phase = bound_state_scan(mono, 6)[0].quasi_energy
        tried, null_pair = [], scan.null_pair

        def unsettled_first(zeta):
            tried.append(zeta)
            if len(tried) == 1:
                raise InverseIterationError("did not settle")
            return null_pair(zeta)

        monkeypatch.setattr(scan, "null_pair", unsettled_first)
        assert _mode_space_partner(scan, phase, state_energies(mono)[phase], 1e-5) <= 1e-5
        assert len(tried) >= 2
        monkeypatch.undo()
        # settled, the first translate would have certified the phase itself
        assert _certified_partner(scan, phase, tried[0].real, 1e-5) <= 1e-5


class TestMultiplicity:
    def test_a_phase_joins_one_cluster(self, monkeypatch):
        # 3.0 and 3.0 + 6e-6 are one state of multiplicity 2; 3.0 + 1.2e-5, within
        # CROSS_CHECK_TOL of the second but not of the first, is a state of its own
        lat = build_lattice(64, 1.0, -2.0, 0.5, range(30, 35))
        phases = np.array([3.0, 3.0 + 6e-6, 3.0 + 1.2e-5])
        mono = Monodromy(start=0.0, scheme=PropagatorSchedule(64, 4), window=np.arange(64),
                         block=np.zeros((64, 64)), segment=lat, model=lat)
        mono.eig = EigenDecomposition(np.exp(-1j * phases), np.eye(64)[:, :3])
        assert sidebands_closed(phases, lat.free_levels).all()
        monkeypatch.setattr(scattering, "_mode_space_partner", lambda *args: 0.0)
        infos = bound_state_scan(mono, n_modes=2)
        assert [b.multiplicity for b in infos] == [2, 1]

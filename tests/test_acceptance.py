"""Acceptance suite: one test per exit criterion, with a PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines and the headline numbers behind them.
"""

import numpy as np
import pytest

from floqscat.cli import canonical_json, run_scenario
from floqscat.floquet import (
    build_floquet,
    circular_distance,
    correspondence_report,
    quasi_spectrum,
    shift_commutation_defect,
)
from floqscat.model import (
    PeriodicHamiltonian,
    build_lattice,
    fleet,
    rabi_model,
)
from floqscat.numerics import max_norm, op_norm, unitary_defect
from floqscat.propagation import (
    PropagatorSchedule,
    monodromy,
    propagate,
)
from floqscat.resolvent import (
    block_q,
    ScanOperators,
    bound_state_correspondence,
    grid_potential,
    mode_oracle_apply,
    r0_apply,
    r0_matrix,
    resolvent_residual,
)
from floqscat.scattering import (
    CROSS_CHECK_TOL,
    bound_state_scan,
    in_gap,
    make_probes,
    orthogonality_defect,
    s_matrix,
    stroboscopic_wave_op,
    time_averaged_wave_op,
    wrap_horizon,
)

from oracles import (check_cocycle, check_period_shift, convergence_ladder, full_resolvent,
                     match_eigenvalues, rabi_quasi_energies, shift_group_defect, spatial_mass)

SCHED = PropagatorSchedule(steps_per_period=512, order=4)
NOISE_FLOOR = 5e-12  # integrator/eigensolver floor for interior matching


def ok(criterion, detail):
    print(f"\n[PASS] criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def fleet_monos():
    return {h.label: (h, monodromy(h, 0.0, SCHED)) for h in fleet()}


@pytest.fixture(scope="module")
def driven_256():
    lat = build_lattice(256, 1.0, -0.8, 0.5, range(126, 131))
    mono = monodromy(lat, 0.0, SCHED)
    probes = make_probes(lat)
    n_max = wrap_horizon(lat)
    wp = stroboscopic_wave_op(mono, +1, n_max, probes)
    wm = stroboscopic_wave_op(mono, -1, n_max, probes)
    return lat, mono, probes, wp, wm


@pytest.fixture(scope="module")
def driven_64():
    lat = build_lattice(64, 1.0, -2.0, 0.5, range(30, 35))
    mono = monodromy(lat, 0.0, SCHED)
    return lat, mono


def test_criterion_1_correspondence(fleet_monos):
    """Interior folded quasi-energies of the truncated mode-space matrix match
    the one-period eigenphases as multisets at N=32; distance decays with N."""
    worst = 0.0
    for label, (h, mono) in fleet_monos.items():
        reports = [correspondence_report(mono, n) for n in (8, 16, 32)]
        d32 = reports[-1].max_match_distance
        assert d32 <= 1e-6, f"{label}: interior match {d32:.2e} exceeds 1e-6"
        assert reports[-1].coverage_distance <= 1e-6, label
        # decay over the cutoff ladder: the full-spectrum mean falls strictly
        # as the truncation-corrupted edge fraction shrinks; the interior max
        # is non-increasing within the numerical noise floor
        means = [r.mean_match_distance for r in reports]
        assert means[0] > means[1] > means[2], f"{label}: mean distances {means}"
        maxes = [r.max_match_distance for r in reports]
        assert maxes[0] + NOISE_FLOOR >= maxes[1], label
        assert maxes[1] + NOISE_FLOOR >= maxes[2], label
        worst = max(worst, d32)
    ok(1, f"correspondence holds for {len(fleet_monos)} models; "
          f"worst interior match distance {worst:.2e} <= 1e-6")


def test_criterion_2_closed_form_oracle(fleet_monos):
    """Quasi-energies of the driven two-level model against the independent
    rotating-frame closed form."""
    h, mono = next(v for k, v in fleet_monos.items() if k.startswith("rabi"))
    want = rabi_quasi_energies(0.0, 1.0)
    got_theta = np.sort(mono.quasi_energies)
    d_theta = np.abs(got_theta - want).max()
    spec = quasi_spectrum(build_floquet(h, 32))
    d_floq = max(circular_distance(spec.interior_folded, w).min() for w in want)
    assert d_theta <= 1e-6
    assert d_floq <= 1e-6
    ok(2, f"rotating-frame oracle matched: monodromy {d_theta:.2e}, "
          f"mode-space {d_floq:.2e} <= 1e-6")


def test_criterion_3_shift_commutation(fleet_monos):
    """Interior commutation with the mode shift and its exponentiated form."""
    worst_comm, worst_group = 0.0, 0.0
    for label, (h, _) in fleet_monos.items():
        k = build_floquet(h, 16)
        worst_comm = max(worst_comm, shift_commutation_defect(k))
        for sigma in (0.25, 0.5, 1.0):
            worst_group = max(worst_group, shift_group_defect(k, sigma))
    assert worst_comm <= 1e-12
    assert worst_group <= 1e-10
    ok(3, f"shift commutation interior defect {worst_comm:.2e} <= 1e-12; "
          f"group form defect {worst_group:.2e} <= 1e-10")


def test_criterion_4_resolvent_formula():
    """Defining property of the free periodic resolvent at second order, and
    the mode-space oracle match at N_t = 256."""
    # order measurement: generic band-limited probe on a d=2 fiber
    rng = np.random.default_rng(21)
    h = PeriodicHamiltonian(np.array([[0.4, 0.2 + 0.1j], [0.2 - 0.1j, -0.3]]))
    lam = 0.3 + 0.7j
    coeffs = {n: rng.standard_normal(2) + 1j * rng.standard_normal(2) for n in range(-2, 3)}
    resids = []
    for n_t in (64, 128, 256):
        t = np.arange(n_t) / n_t
        vals = np.zeros((n_t, 2), complex)
        for n, c in coeffs.items():
            vals += np.exp(2j * np.pi * n * t)[:, None] * c[None, :]
        resids.append(resolvent_residual(h, lam, vals))
    order = np.log2(resids[0] / resids[2]) / 2
    assert abs(order - 2.0) <= 0.3, f"measured order {order}"
    # oracle match at N_t = 256: probe with small (K0 - lambda) symbol so the
    # second-order constant |2 pi n + h - lambda|/12 stays below the target
    hs = PeriodicHamiltonian(np.array([[0.3]]))
    lam_s = 0.3 + 0.5j
    f = np.ones((256, 1), dtype=np.complex128)
    dist = np.abs(r0_apply(hs, lam_s, f) - mode_oracle_apply(hs, lam_s, f)).max()
    assert dist <= 1e-6
    ok(4, f"resolvent defining property at order {order:.2f} (within 2 +- 0.3); "
          f"mode-space oracle match {dist:.2e} <= 1e-6 at N_t=256")


def test_criterion_5_factorized_resolvent():
    """Correction formula against the truncated direct inverse on the driven
    two-level model at lambda = 2 + i, plus the algebraic identities."""
    h = rabi_model(0.0, 1.0)
    lam = 2.0 + 1.0j
    n_t = 1024
    r, cond = full_resolvent(h, lam, n_t)
    k = build_floquet(h, 32)
    inv = np.linalg.inv(k.matrix - lam * np.eye(k.space.size))
    t = np.arange(n_t) / n_t
    probe_modes = {0: np.array([1.0, 0.3j]), 1: np.array([0.2, -0.4]),
                   -1: np.array([0.1j, 0.25])}
    f_grid = np.zeros((n_t, 2), complex)
    f_mode = np.zeros((65, 2), complex)
    for n, c in probe_modes.items():
        f_grid += np.exp(2j * np.pi * n * t)[:, None] * c[None, :]
        f_mode[n + 32] = c
    out_grid = (r @ f_grid.ravel()).reshape(n_t, 2)
    blocks = (inv @ f_mode.ravel()).reshape(65, 2)
    out_mode = np.einsum("jn,nd->jd",
                         np.exp(2j * np.pi * np.outer(t, np.arange(-32, 33))), blocks)
    dist = np.abs(out_grid - out_mode).max()
    assert dist <= 1e-6, f"grid vs truncated inverse {dist:.2e}"

    # second resolvent identity R - R0 + R0 V R = 0 (algebraically exact)
    n_t2 = 64
    r2, _ = full_resolvent(h, lam, n_t2)
    r0 = r0_matrix(h, lam, n_t2)
    v_blocks = grid_potential(h, n_t2)
    view = r2.reshape(n_t2, 2, n_t2, 2)
    vr = np.einsum("jpr,jrkq->jpkq", v_blocks, view, optimize=True).reshape(r2.shape)
    ident = max_norm(r2 - r0 + r0 @ vr)
    assert ident <= 1e-8

    # zero potential reduces exactly to the free resolvent
    h_free = PeriodicHamiltonian(h0=h.h0)
    r_free, _ = full_resolvent(h_free, lam, n_t2)
    red = max_norm(r_free - r0_matrix(h, lam, n_t2))
    assert red == 0.0
    ok(5, f"factorized resolvent matches truncated inverse to {dist:.2e} <= 1e-6; "
          f"second-resolvent defect {ident:.2e} <= 1e-8; V=0 reduction exact")


def test_criterion_6_block_resolvent(fleet_d3_grid_q_spectrum):
    """Mode-space vs grid-space representations, and the norm decay in eta."""
    h = fleet()[1]
    zeta = 1.0 + 1.0j
    ev_mode = np.linalg.eigvals(block_q(h, zeta, 24))
    ev_grid = fleet_d3_grid_q_spectrum   # eigvals(q_factorized(h, zeta, 1024)[0])
    dist = match_eigenvalues(ev_mode, ev_grid, 0.5 * np.abs(ev_mode).max())
    assert dist <= 1e-6, f"representation agreement {dist:.2e}"
    decays = []
    for model in fleet():
        norms = [op_norm(block_q(model, 1j * eta, 12)) for eta in (4.0, 16.0, 64.0, 256.0)]
        assert norms[0] > norms[1] > norms[2] > norms[3], f"{model.label}: {norms}"
        decays.append(norms[0] / norms[-1])
    ok(6, f"representations agree to {dist:.2e} <= 1e-6 on resolved eigenvalues; "
          f"norm decay over the eta ladder by factors {[f'{d:.0f}x' for d in decays]}")


def test_criterion_7_wave_operators(driven_256):
    """Stroboscopic wave operators on the driven-well ring: convergence,
    isometry, S-matrix defects, and the time-averaged variant."""
    lat, mono, probes, wp, wm = driven_256
    frac = float((wp.converged & wm.converged).mean())
    assert frac >= 0.9, f"converged fraction {frac}"
    assert wp.cauchy_gaps[-1][wp.converged].max() < 1e-3
    bound_state_scan(mono, n_modes=4)   # raises if the two detectors disagree
    rep = s_matrix(wp, wm, translates=2)
    assert rep.isometry_defect <= 1e-3
    assert rep.unitarity_defect <= 5e-3
    assert rep.intertwining_defect <= 5e-3
    avg = time_averaged_wave_op(mono, +1, wp.n_max, probes, 1.0)
    use = wp.converged & wm.converged
    avg_diff = float(np.linalg.norm((avg - wp.image())[:, use], axis=0).max())
    assert avg_diff <= 2e-3
    ok(7, f"{frac:.0%} probes converged before wrap-around; isometry "
          f"{rep.isometry_defect:.1e} <= 1e-3, unitarity {rep.unitarity_defect:.1e} "
          f"and intertwining {rep.intertwining_defect:.1e} <= 5e-3, "
          f"time-averaged agreement {avg_diff:.1e} <= 2e-3")


def test_criterion_8_bound_states(driven_64, driven_256):
    """Three independent bound-state detectors agree; translation by 2 pi
    reappears in the interior spectrum; probes are orthogonal to bound states."""
    lat, mono = driven_64
    assert CROSS_CHECK_TOL == 1e-5
    infos = bound_state_scan(mono, n_modes=12)
    assert len(infos) >= 1
    spec = quasi_spectrum(build_floquet(lat, 12))
    window = lat.support_window(4)
    mask = np.zeros(lat.sites, bool)
    mask[window] = True
    site_mass = spatial_mass(spec)
    loc_mask = (site_mass[mask, :].sum(axis=0) >= 0.9) & spec.interior
    floq_folded = spec.folded[loc_mask]
    worst_pair = 0.0
    worst_shift = 0.0
    for b in infos:
        d_floq = circular_distance(b.quasi_energy, floq_folded).min()
        verdict = bound_state_correspondence(ScanOperators(lat, 6), b.quasi_energy)
        assert verdict.confirmed, f"null scan rejected {b.quasi_energy}"
        d_scan = abs(verdict.refined - b.quasi_energy)
        assert d_floq <= 1e-5 and d_scan <= 1e-5
        worst_pair = max(worst_pair, d_floq, d_scan)
        # the same quasi-energy reappears shifted by 2 pi among interior values
        loc_vals = spec.values[loc_mask]
        base = loc_vals[np.argmin(np.abs(np.mod(loc_vals, 2 * np.pi) - b.quasi_energy))]
        shift = np.abs(loc_vals - (base + 2 * np.pi)).min()
        assert shift <= 1e-6
        worst_shift = max(worst_shift, shift)
    lat256, mono256, probes, wp, wm = driven_256
    ortho = orthogonality_defect(probes, in_gap(mono256)[1])
    assert ortho <= 1e-3
    ok(8, f"{len(infos)} bound state(s): detectors agree pairwise to "
          f"{worst_pair:.1e} <= 1e-5; 2 pi translation to {worst_shift:.1e} <= 1e-6; "
          f"probe orthogonality {ortho:.1e} <= 1e-3")


def test_criterion_9_structural_identities(fleet_monos):
    """Period factorization, composition, adjoint symmetry, unitarity, all
    within 10x the measured integrator tolerance; integrator orders verified."""
    worst_rel = 0.0
    for label, (h, mono) in fleet_monos.items():
        finer = PropagatorSchedule(2 * SCHED.steps_per_period, SCHED.order)
        tol = max(max_norm(mono.operator - propagate(h, 0.0, 1.0, finer)), 1e-12)
        defects = {
            "period_shift": check_period_shift(h, 0.6, SCHED),
            "cocycle": check_cocycle(h, 0.0, 0.3, 1.0, SCHED),
            "adjoint": max_norm(propagate(h, 0.1, 0.9, SCHED).conj().T
                                - propagate(h, 0.9, 0.1, SCHED)),
            "unitarity": unitary_defect(mono.operator),
        }
        for name, d in defects.items():
            assert d <= 10 * tol, f"{label} {name}: {d:.2e} > 10 x {tol:.2e}"
            worst_rel = max(worst_rel, d / tol)
    rabi = fleet()[0]
    orders = {}
    for order, steps in ((2, (128, 256, 512)), (4, (64, 128, 256))):
        study = convergence_ladder(rabi, order, steps=steps)
        for ratio in study["ratios"]:
            assert 0.8 * 2**order <= ratio <= 1.2 * 2**order
        orders[order] = study["ratios"]
    ok(9, f"structural identities within {worst_rel:.1f}x measured integrator "
          f"tolerance (bound 10x); step-doubling ratios {orders[2][0]:.1f} "
          f"(order 2) and {orders[4][0]:.1f} (order 4) within 2^order +- 20%")


def test_criterion_10_determinism(tmp_path):
    """Re-running a scenario reproduces the identical report payload."""
    configs = [
        {
            "task": "correspondence",
            "model": {"builtin": "rabi", "delta": 0.0, "v": 1.0},
            "parameters": {"n_modes": 16, "steps_per_period": 128, "order": 4},
        },
        {
            "task": "wave-operators",
            "model": {"lattice": {"sites": 128, "hopping": 1.0, "well_depth": 0.0,
                                  "drive_amp": 0.0, "support_width": 5}},
            "parameters": {"steps_per_period": 64, "order": 2, "n_max": 16,
                           "floquet_modes": 2},
        },
    ]
    for cfg in configs:
        a = canonical_json(run_scenario(cfg, seed=7))
        b = canonical_json(run_scenario(cfg, seed=7))
        assert a == b, f"non-deterministic report for task {cfg['task']}"
    ok(10, "re-runs reproduce byte-identical report payloads for "
           f"{len(configs)} scenario types")

"""Stroboscopic wave operators, S-matrix, and bound-state diagnostics on the ring.

Finite volume replaces the absolutely continuous subspace: scattering states
are represented by Gaussian wave packets aimed through the interaction
window, and convergence of the stroboscopic iterates
W+ ~ Theta0^dagger^n Theta^n (W- via time reversal) is accepted when the
per-probe Cauchy gaps stay below threshold for the final iterates, all
before the wrap-around horizon of the ring.  The iterates are products of
unitaries, hence exactly unitary on the full space; every defect reported
here measures probe-subspace leakage, not loss of unitarity.

The probe subspace used for S-matrix defects is the span of the packets'
short free orbits {Theta0^j phi}: it contains the scattered packets
including their time delays, so the restriction of S = W+ W-^dagger to it
is close to unitary, while single-packet restrictions would be spoiled by
delay-induced position mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import eigsh

from .floquet import ModeSpace, circular_distance, floquet_operator, start_vector
from .model import LatticeModel
from .numerics import expm_hermitian
from .propagation import PropagatorSchedule, monodromy, propagate

GAP_TOL = 1e-3
GAP_RUN = 3
LOCALIZATION_SCORE = 0.9
LOCALIZATION_MARGIN = 4


class ConvergenceError(RuntimeError):
    """No probe stabilized before the wrap-around horizon."""

    def __init__(self, message, gaps=None):
        super().__init__(message)
        self.gaps = gaps


class DetectorDisagreementError(ValueError):
    """A monodromy bound state has none of `candidates` mode-space values as partner."""

    def __init__(self, message, candidates: int):
        super().__init__(message)
        self.candidates = candidates


@dataclass
class ProbeSet:
    """Gaussian wave packets on the ring, mirror-paired around the well."""

    vectors: np.ndarray          # (L, p) columns, unit norm
    momenta: np.ndarray
    centers: np.ndarray
    sigma: float

    @property
    def count(self) -> int:
        return self.vectors.shape[1]


def gaussian_packet(sites: int, center: float, momentum: float, sigma: float) -> np.ndarray:
    x = np.arange(sites)
    d = (x - center + sites / 2) % sites - sites / 2
    psi = np.exp(-(d**2) / (2 * sigma**2)) * np.exp(1j * momentum * x)
    return psi / np.linalg.norm(psi)


def make_probes(model: LatticeModel, bands=(0.40, 0.43, 0.46, 0.48),
                distance: int | None = None, sigma: float | None = None,
                rng: np.random.Generator | None = None) -> ProbeSet:
    """Mirror-paired packets aimed through the interaction window.

    Momenta sit on ring wavenumbers near `bands` (in units of pi), away from
    the band edges where the group velocity vanishes.  Width defaults to
    sites/16 (full width; sigma = width/2.355), launch distance to about
    4 sigma outside the window.  An optional generator jitters the momentum
    index by one ring quantum per probe.
    """
    sites = model.sites
    ctr = int(np.round(model.potential_support.mean()))
    sigma = sigma if sigma is not None else (sites / 16.0) / 2.355
    distance = distance if distance is not None else int(np.round(4.0 * sigma))
    vectors, momenta, centers = [], [], []
    for band in bands:
        k_idx = int(np.round(band * np.pi * sites / (2 * np.pi)))
        if rng is not None:
            k_idx += int(rng.integers(-1, 2))
        kappa = 2 * np.pi * k_idx / sites
        for sign, x0 in ((1.0, ctr - distance), (-1.0, ctr + distance)):
            vectors.append(gaussian_packet(sites, x0, sign * kappa, sigma))
            momenta.append(sign * kappa)
            centers.append(x0)
    return ProbeSet(vectors=np.array(vectors).T, momenta=np.array(momenta),
                    centers=np.array(centers), sigma=sigma)


def wrap_horizon(model: LatticeModel) -> int:
    """Iteration budget before packets wrap the ring: L / (4 v_max).

    The group velocity on the ring is bounded by 2 |hopping| sites per period.
    """
    v_max = 2.0 * abs(model.hopping)
    if v_max == 0.0:
        raise ValueError("hopping must be nonzero for wave-packet scattering")
    return int(model.sites / (4.0 * v_max))


@dataclass
class WaveOperatorIterates:
    """Iterates of the stroboscopic limit restricted to the probe packets."""

    direction: int
    probe_images: list = field(repr=False)   # W^(n) probes, each (L, p)
    cauchy_gaps: np.ndarray                  # (n_max, p)
    n_max: int
    probe_set: ProbeSet
    operator: np.ndarray                     # full-space iterate at n_max (unitary)
    converged: np.ndarray                    # per-probe bool
    n_converged: np.ndarray                  # first index of the final stable run

    @property
    def converged_fraction(self) -> float:
        return float(self.converged.mean())


def _stability(gaps: np.ndarray, tol: float = GAP_TOL, run: int = GAP_RUN):
    """Converged = the final `run` gaps all below tol; returns (mask, start index)."""
    n_max, p = gaps.shape
    converged = np.zeros(p, dtype=bool)
    n_conv = np.full(p, -1)
    for j in range(p):
        below = gaps[:, j] < tol
        if n_max >= run and below[-run:].all():
            converged[j] = True
            k = n_max
            while k > 0 and below[k - 1]:
                k -= 1
            n_conv[j] = k + 1
    return converged, n_conv


def stroboscopic_wave_op(model: LatticeModel, direction: int, n_max: int,
                         sched: PropagatorSchedule | None = None,
                         probes: ProbeSet | None = None,
                         theta: np.ndarray | None = None) -> WaveOperatorIterates:
    """Iterate the stroboscopic limit on wave packets.

    direction +1 iterates Theta0^dagger^n Theta^n, direction -1 the
    time-reversed pair Theta0^n Theta^dagger^n.  Raises ConvergenceError
    (carrying the gap trace) if no probe stabilizes before n_max.
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    sched = sched or PropagatorSchedule()
    probes = probes or make_probes(model)
    horizon = wrap_horizon(model)
    if n_max > horizon:
        raise ValueError(f"n_max={n_max} beyond the wrap-around horizon {horizon}")
    if theta is None:
        theta = monodromy(model.drive, sched.start, sched).operator
    theta0 = expm_hermitian(model.h0, 1.0)
    if direction == +1:
        a_op, b_op = theta, theta0
    else:
        a_op, b_op = theta.conj().T, theta0.conj().T

    cur = probes.vectors.copy()
    gaps = np.empty((n_max, probes.count))
    images = []
    b_pow_h = np.eye(model.sites, dtype=np.complex128)
    a_full = np.eye(model.sites, dtype=np.complex128)
    for n in range(1, n_max + 1):
        nxt = a_op @ cur
        gaps[n - 1] = np.linalg.norm(nxt - b_op @ cur, axis=0)
        cur = nxt
        a_full = a_op @ a_full
        b_pow_h = b_pow_h @ b_op.conj().T
        images.append(b_pow_h @ cur)
    w_full = b_pow_h @ a_full
    converged, n_conv = _stability(gaps)
    if not converged.any():
        raise ConvergenceError(
            f"no probe stabilized before the horizon (direction {direction:+d}); "
            "packets may overlap a bound state or the ring is too small",
            gaps=gaps,
        )
    return WaveOperatorIterates(
        direction=direction,
        probe_images=images,
        cauchy_gaps=gaps,
        n_max=n_max,
        probe_set=probes,
        operator=w_full,
        converged=converged,
        n_converged=n_conv,
    )


@dataclass
class TimeAverage:
    """Trapezoid kernel h^{-1} int_0^h U0(t)^dagger U(s + t, s) dt and the monodromy at s."""

    kernel: np.ndarray
    theta: np.ndarray


def time_average(model: LatticeModel, h: float, sched: PropagatorSchedule | None = None,
                 n_quad: int = 8) -> TimeAverage:
    """Kernel of the time-averaged wave operator from the schedule's start s.

    One sweep propagates through the quadrature nodes t_j in [0, h] and on
    to s + 1, continuing a single running product, so the monodromy
    Theta = U(s + 1, s + h) U(s + h, s) costs no second period and rounds
    like monodromy() whenever the node times fall on its step grid.
    """
    if not (0.0 < h <= 1.0):
        raise ValueError("averaging window h must lie in (0, 1]")
    sched = sched or PropagatorSchedule()
    s = sched.start
    nodes = np.linspace(0.0, h, n_quad + 1)
    weights = np.full(n_quad + 1, 1.0)
    weights[0] = weights[-1] = 0.5
    weights /= weights.sum()

    kernel = np.zeros((model.sites, model.sites), dtype=np.complex128)
    u_cur = np.eye(model.sites, dtype=np.complex128)
    for i, (w, t_node) in enumerate(zip(weights, nodes)):
        if i > 0:
            u_cur = propagate(model.drive, s + nodes[i - 1], s + t_node, sched, initial=u_cur)
        u0 = expm_hermitian(model.h0, float(t_node))
        kernel += w * (u0.conj().T @ u_cur)
    theta = propagate(model.drive, s + h, s + 1.0, sched, initial=u_cur) if h < 1.0 else u_cur
    return TimeAverage(kernel=kernel, theta=theta)


def time_averaged_wave_op(model: LatticeModel, direction: int, h: float, n_max: int,
                          sched: PropagatorSchedule | None = None,
                          probes: ProbeSet | None = None, n_quad: int = 8,
                          theta: np.ndarray | None = None,
                          average: TimeAverage | None = None) -> np.ndarray:
    """Time-averaged wave operator at stroboscopic offset n_max, applied to probes.

    Evaluates h^{-1} int_0^h U0(t + n)^dagger U(s + t + n, s) dt from the
    schedule's start s (direction +1; time-reversed for -1) by the
    trapezoidal rule in t, using the period factorization
    U(s + t + n, s) = U(s + t, s) Theta^n with Theta the monodromy at s.
    The kernel and Theta come from `average` (time_average(model, h, sched,
    n_quad), computed unless given); a given `theta` replaces its Theta.
    Converges to the same limit as the stroboscopic iterates.
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    sched = sched or PropagatorSchedule()
    probes = probes or make_probes(model)
    average = average or time_average(model, h, sched, n_quad)
    theta = average.theta if theta is None else theta
    theta0 = expm_hermitian(model.h0, 1.0)
    a_op, b_op = (theta, theta0.conj().T) if direction == +1 else (theta.conj().T, theta0)
    th_pow = np.linalg.matrix_power(a_op, n_max)
    return np.linalg.matrix_power(b_op, n_max) @ average.kernel @ th_pow @ probes.vectors


@dataclass
class BoundStateInfo:
    quasi_energy: float
    localization: float
    multiplicity: int


@dataclass
class ScatteringReport:
    """Wave operators, S-matrix and defects on the scattering-subspace proxy."""

    w_plus: np.ndarray
    w_minus: np.ndarray
    s_matrix: np.ndarray
    probe_basis: np.ndarray        # orthonormal basis of the free-orbit span
    isometry_defect: float
    unitarity_defect: float
    intertwining_defect: float
    bound_states: list


def free_orbit_basis(theta0: np.ndarray, probes: ProbeSet, translates: int = 2) -> np.ndarray:
    """Orthonormal basis of span{Theta0^j phi, |j| <= translates}."""
    cols = [probes.vectors]
    fwd = probes.vectors.copy()
    back = probes.vectors.copy()
    for _ in range(translates):
        fwd = theta0 @ fwd
        back = theta0.conj().T @ back
        cols += [fwd, back]
    q, r = np.linalg.qr(np.column_stack(cols))
    return q[:, np.abs(np.diag(r)) > 1e-8]


def s_matrix(wplus: WaveOperatorIterates, wminus: WaveOperatorIterates,
             translates: int = 2, theta0: np.ndarray | None = None,
             bound_states: list | None = None) -> ScatteringReport:
    """Assemble S = W+ W-^dagger and its probe-subspace defects.

    The probe subspace is the span of the packets' short free orbits.
    unitarity_defect is the largest per-probe leakage ||(I - P) S phi||
    (equivalently the deviation of the restricted columns from unit norm);
    intertwining_defect the largest ||(S Theta0 - Theta0 S) phi|| over
    converged probes; isometry_defect the deviation of ||W phi|| from 1.
    """
    if wplus.probe_set is not wminus.probe_set:
        if wplus.probe_set.vectors.shape != wminus.probe_set.vectors.shape or not np.allclose(
            wplus.probe_set.vectors, wminus.probe_set.vectors
        ):
            raise ValueError("wave operators were computed on different probe sets")
    probes = wplus.probe_set
    if theta0 is None:
        raise ValueError("free monodromy required for the probe-subspace defects")
    s_full = wplus.operator @ wminus.operator.conj().T
    basis = free_orbit_basis(theta0, probes, translates)
    proj = basis @ basis.conj().T
    use = wplus.converged & wminus.converged
    phi = probes.vectors[:, use]
    s_phi = s_full @ phi
    unitarity = float(np.linalg.norm(s_phi - proj @ s_phi, axis=0).max()) if use.any() else np.inf
    comm = s_full @ theta0 - theta0 @ s_full
    intertwining = float(np.linalg.norm(comm @ phi, axis=0).max()) if use.any() else np.inf
    iso = []
    for w in (wplus, wminus):
        imgs = w.operator @ probes.vectors[:, use]
        iso.append(np.abs(np.linalg.norm(imgs, axis=0) - 1.0).max() if use.any() else np.inf)
    return ScatteringReport(
        w_plus=basis.conj().T @ wplus.operator @ basis,
        w_minus=basis.conj().T @ wminus.operator @ basis,
        s_matrix=basis.conj().T @ s_full @ basis,
        probe_basis=basis,
        isometry_defect=float(max(iso)),
        unitarity_defect=unitarity,
        intertwining_defect=intertwining,
        bound_states=bound_states or [],
    )


def _localization(model: LatticeModel, weights: np.ndarray):
    """Per column of site weights (L, k): mass near the support, and whether it is bound."""
    window = model.support_window(LOCALIZATION_MARGIN)
    # contiguous rows: each sum rounds like a sum over one state's window entries
    score = np.ascontiguousarray(weights[window].T).sum(axis=1)
    return score, score >= LOCALIZATION_SCORE


def _mode_space_partner(model: LatticeModel, k, space: ModeSpace, phase: float,
                        tol: float) -> tuple[float, int]:
    """Circular distance from `phase` to its nearest localized interior eigenvalue of
    the sparse mode-space matrix K, and the number of such values seen.

    Shift-invert eigsh runs at the translates sigma = phase + 2 pi j inside
    K's spectral bound, nearest the centre of the fiber spectrum first, and
    stops at the first translate with a partner within tol.  At each
    translate the request grows until some returned value lies beyond tol,
    so every eigenvalue within tol is judged: the predicate is that of the
    whole truncated spectrum.
    """
    fiber = model.h0 + model.drive.mode(0)
    centre = float(np.trace(fiber).real) / model.sites
    bound = float(abs(k).sum(axis=1).max()) + tol     # >= the spectral radius of K
    sigmas = phase + 2 * np.pi * np.arange(np.ceil((-bound - phase) / (2 * np.pi)),
                                           np.floor((bound - phase) / (2 * np.pi)) + 1)
    v0 = start_vector(space.size)
    nearest, candidates = np.inf, 0
    for sigma in sigmas[np.argsort(np.abs(sigmas - centre), kind="stable")]:
        n_eig = min(3, space.size - 2)
        while True:
            values, vectors = eigsh(k, k=n_eig, sigma=sigma, v0=v0)
            if (np.abs(values - sigma) > tol).any() or n_eig == space.size - 2:
                break
            n_eig = min(2 * n_eig, space.size - 2)
        _, localized = _localization(model, space.fiber_mass(vectors))
        partners = values[localized & space.interior(vectors)]
        candidates += len(partners)
        if len(partners):
            nearest = min(nearest, float(circular_distance(phase, partners).min()))
        if nearest <= tol:
            break
    return nearest, candidates


def bound_state_scan(model: LatticeModel, sched: PropagatorSchedule | None = None,
                     n_modes: int = 12, theta_eig=None,
                     cross_check_tol: float = 1e-5) -> list[BoundStateInfo]:
    """Bound states from localization of the one-period operator's eigenvectors.

    Eigenvectors of the monodromy at the schedule's start (theta_eig, computed
    unless given) with at least 90% of their mass within the interaction
    window plus LOCALIZATION_MARGIN sites are flagged bound; their
    eigenphases are cross-checked against localized interior quasi-energies
    of the truncated mode-space matrix, found near each phase by shift-invert
    (_mode_space_partner).  Raises DetectorDisagreementError if the two
    detectors disagree beyond cross_check_tol.
    """
    sched = sched or PropagatorSchedule()
    if theta_eig is None:
        theta_eig = monodromy(model.drive, sched.start, sched).eig
    score, bound = _localization(model, np.abs(theta_eig.vectors) ** 2)
    phases = np.mod(-np.angle(theta_eig.values), 2 * np.pi)
    found = sorted((phases[j], score[j]) for j in np.flatnonzero(bound))

    infos = []
    if found:
        k = floquet_operator(model.drive, n_modes).tocsc()
        space = ModeSpace(n_modes, model.sites)
        for phase, _ in found:
            dist, candidates = _mode_space_partner(model, k, space, phase, cross_check_tol)
            if dist > cross_check_tol:
                raise DetectorDisagreementError(
                    f"bound state at quasi-energy {phase:.8f} not reproduced by the mode-space "
                    f"spectrum at N={n_modes} (nearest of {candidates} localized "
                    f"interior values {dist:.2e} away)", candidates)
        # multiplicity: cluster phases within the cross-check tolerance
        used = np.zeros(len(found), dtype=bool)
        for i, (phase, loc) in enumerate(found):
            if used[i]:
                continue
            cluster = [j for j in range(len(found))
                       if circular_distance(found[j][0], phase) <= cross_check_tol]
            used[cluster] = True
            infos.append(BoundStateInfo(quasi_energy=float(phase), localization=float(loc),
                                        multiplicity=len(cluster)))
    return infos


def bound_vectors(model: LatticeModel, theta_eig) -> np.ndarray:
    """Columns: eigenvectors of the one-period operator flagged as bound."""
    _, bound = _localization(model, np.abs(theta_eig.vectors) ** 2)
    return theta_eig.vectors[:, bound]


def orthogonality_defect(probes: ProbeSet, bound: np.ndarray) -> float:
    """Largest overlap |<bound vector, probe>|."""
    if bound.shape[1] == 0:
        return 0.0
    return float(np.abs(bound.conj().T @ probes.vectors).max())


def start_time_covariance_defect(model: LatticeModel, sched: PropagatorSchedule,
                                 n_max: int, probes: ProbeSet,
                                 shift: float = 0.5) -> float:
    """Defect of W(s') = U0(s', s) W(s) U(s, s') at s' = s + shift on probes.

    Both sides map a state at time s' to its future free asymptote; the
    left-hand side is computed from the monodromy at s', the right-hand
    side transports through the interacting propagator to s and back with
    the free one.
    """
    s = sched.start
    s2 = s + shift
    theta_s = monodromy(model.drive, s, sched).operator
    theta0 = expm_hermitian(model.h0, 1.0)
    sched2 = PropagatorSchedule(sched.steps_per_period, sched.order, s2)
    theta_s2 = monodromy(model.drive, s2, sched2).operator

    w_s = np.linalg.matrix_power(theta0.conj().T, n_max) @ np.linalg.matrix_power(theta_s, n_max)
    w_s2 = np.linalg.matrix_power(theta0.conj().T, n_max) @ np.linalg.matrix_power(theta_s2, n_max)
    u_s2_s = propagate(model.drive, s, s2, sched)
    u0_s2_s = expm_hermitian(model.h0, shift)
    transported = probes.vectors
    lhs = w_s2 @ (u_s2_s @ transported)
    rhs = u0_s2_s @ (w_s @ transported)
    return float(np.linalg.norm(lhs - rhs, axis=0).max())

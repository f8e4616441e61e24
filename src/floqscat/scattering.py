"""Stroboscopic wave operators, S-matrix, and bound-state diagnostics on the ring.

Finite volume replaces the absolutely continuous subspace: scattering states
are represented by Gaussian wave packets aimed through the interaction
window, and convergence of the stroboscopic iterates
W+ ~ Theta0^dagger^n Theta^n (W- via time reversal) is accepted when the
per-probe Cauchy gaps stay below threshold for the final iterates, all
before the wrap-around horizon of the ring.  The iterates are products of
unitaries, hence unitary to round-off on the full space; every defect
reported here measures probe-subspace leakage, not loss of unitarity.

Wave operators are strong limits, so only their action on vectors is
computed: every reported number uses W on a block of at most
(2 translates + 1) p probe columns.  No power of Theta is formed: Theta^{+-n}
acts as V e^{-+in lambda} V^H from the eigendecomposition the scenario's one
Monodromy holds (Monodromy.apply), and the free factors Theta0^{-+n} act as
V e^{+-inE} V^H from the one H0 eigendecomposition the model caches, so
every phase is exact.  No L x L matrix is formed inside the iterate loop, and
the loop never multiplies by Theta: it takes Theta = Theta0 + P E_w P^T from
the Monodromy (on the driven ring E_w is the window block of
propagation.window_block; otherwise the window is every site and
E_w = Theta - Theta0), so an iterate costs one L x L x p product with the
model's U0(1) and one on the window, and the Cauchy gap ||(Theta - Theta0) x||
is the norm of the window product.  The time-reversed loop applies Theta0^H
and E_w^H by numerics.adjoint_apply, with no adjoint copy.  Only the gaps
(n_max x p) and the last iterate Theta^{+-n_max} phi (L x p) are kept, and
the image W^(n_max) phi is formed from it when read.  A wave-operators run on
the window route therefore holds these L x L arrays: H0, the well and the
one drive array, H0's eigenvectors and U0(1) on the model, Theta's
eigenvectors on the Monodromy, and in s_matrix one U0(1)^H for the orbit
basis; Theta itself is formed only where a reader asks for it.
The time average applies its kernel to the probe block only: the columns
are propagated through the quadrature nodes on the Monodromy's schedule,
with the Magnus steppers the model keeps, and the free factors act through
the same eigenbasis, so neither the L x L kernel nor a dense U0(t) is formed.

Every function here that needs Theta or its eigenbasis takes the scenario's
one Monodromy, built by the caller at its start time s; none builds it from
a schedule, except start_time_covariance_defect, which builds the one at
s + shift.

The probe subspace used for S-matrix defects is the span of the packets'
short free orbits {Theta0^j phi}: it contains the scattered packets
including their time delays, so the restriction of S = W+ W-^dagger to it
is close to unitary, while single-packet restrictions would be spoiled by
delay-induced position mismatch.

Bound states are the Theta eigenvectors localized on the well, and each one's
phase is cross-checked against the truncated mode-space matrix K.  A partner
there is certified by inverse iteration whose solves with K - zeta go through
resolvent.ScanOperators, the one factorization on the potential's support
that the null scan also uses; shift-invert eigsh diagnoses a phase without
a certified partner, and ARPACK (scipy.sparse.linalg) is imported only then.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .floquet import circular_distance, start_vector
from .model import LatticeModel
from .numerics import adjoint_apply
from .propagation import Monodromy, monodromy, propagate
from .resolvent import RAYLEIGH_EPS, ScanOperators

GAP_TOL = 1e-3
GAP_RUN = 3
LOCALIZATION_SCORE = 0.9
LOCALIZATION_MARGIN = 4
ARPACK_TOL = 1e-4      # relative accuracy of the cross-check's shift-invert eigsh
# inverse-iteration solves the cross-check spends on a certified partner before
# it hands the phase to eigsh
PARTNER_SOLVES = 3


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
    """Mirror-paired packets aimed through the interaction window at the arc's midpoint.

    Momenta sit on ring wavenumbers near `bands` (in units of pi), away from
    the band edges where the group velocity vanishes.  Width defaults to
    sites/16 (full width; sigma = width/2.355), launch distance to about
    4 sigma outside the window.  An optional generator jitters the momentum
    index by one ring quantum per probe.
    """
    sites = model.sites
    ctr = int(np.round(model.arc[0] + (model.arc[1] - 1) / 2)) % sites
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
    """The stroboscopic limit on the probe packets: every iterate's Cauchy gaps,
    the iterate at n_max, and W^(n_max) as an action on vectors.

    Direction +1 holds W+ = Theta0^{-n} Theta^n, direction -1 the time-reversed
    W- = Theta0^n Theta^{-n}, at n = n_max; `apply` and `apply_adjoint` act on
    a block of columns.  Only the gaps and the last iterate Theta^{+-n_max} phi
    are kept, one L x p block; `image` forms W^(n_max) phi from it.
    """

    direction: int
    iterate: np.ndarray = field(repr=False)  # Theta^{+-n_max} phi, (L, p)
    # (n_max, p): ||(A - B) A^(n-1) phi|| with A = Theta^+-1, B = Theta0^+-1
    cauchy_gaps: np.ndarray
    n_max: int
    probe_set: ProbeSet
    converged: np.ndarray                    # per-probe bool
    n_converged: np.ndarray                  # first index of the final stable run
    model: LatticeModel = field(repr=False)   # its H0 eigenbasis gives Theta0^{-+n}
    mono: Monodromy = field(repr=False)       # its eigenbasis gives Theta^{+-n}

    @property
    def converged_fraction(self) -> float:
        return float(self.converged.mean())

    def image(self) -> np.ndarray:
        """W^(n_max) phi = Theta0^{-+n_max} Theta^{+-n_max} phi, (L, p), from the kept
        iterate."""
        return self.model.free_apply(-self.direction * self.n_max, self.iterate)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """W^(n_max) x for a block x of columns."""
        n = self.direction * self.n_max
        return self.model.free_apply(-n, self.mono.apply(n, x))

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        """W^(n_max)^H x for a block x of columns."""
        n = self.direction * self.n_max
        return self.mono.apply(-n, self.model.free_apply(n, x))


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


def _iterates(model: LatticeModel, direction: int, mono: Monodromy, x: np.ndarray):
    """Yield (gap, Theta^{+-n} x) for n = 1, 2, ...: the gap is the column norms of
    (A - B) A^(n-1) x, A = Theta^{+-1}, B = Theta0^{+-1}.

    A x is B x plus E_w on the window's rows of x (mono's window and block, or
    every site and Theta - Theta0 without them), so the gap is the norm of
    that window product; direction -1 applies Theta0^H and E_w^H by
    adjoint_apply.  Each yielded iterate is a new array."""
    theta0 = model.free_period
    if mono.window is None:
        window, block = slice(None), mono.operator - theta0
    else:
        window, block = mono.window, mono.block
    act = np.matmul if direction == +1 else adjoint_apply
    while True:
        kick = act(block, x[window])      # (A - B) x, zero off the window
        x = act(theta0, x)
        x[window] += kick
        yield np.linalg.norm(kick, axis=0), x


def stroboscopic_wave_op(model: LatticeModel, direction: int, n_max: int, mono: Monodromy,
                         probes: ProbeSet | None = None) -> WaveOperatorIterates:
    """Iterate the stroboscopic limit on wave packets.

    direction +1 iterates Theta0^dagger^n Theta^n, direction -1 the
    time-reversed pair Theta0^n Theta^dagger^n, with Theta from mono, the
    monodromy at the start time the wave operator is taken at (_iterates:
    Theta0 plus the window block, never Theta itself).  The gaps of every
    iterate and the iterate at n_max are kept; W^(n_max) acts through mono's
    eigenbasis.  Raises ConvergenceError (carrying the gap trace) if no probe
    stabilizes before n_max.
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    probes = probes or make_probes(model)
    horizon = wrap_horizon(model)
    if n_max > horizon:
        raise ValueError(f"n_max={n_max} beyond the wrap-around horizon {horizon}")
    gaps = np.empty((n_max, probes.count))
    steps = _iterates(model, direction, mono, probes.vectors)
    for n in range(n_max):
        gaps[n], cur = next(steps)
    converged, n_conv = _stability(gaps)
    if not converged.any():
        raise ConvergenceError(
            f"no probe stabilized before the horizon (direction {direction:+d}); "
            "packets may overlap a bound state or the ring is too small",
            gaps=gaps,
        )
    return WaveOperatorIterates(
        direction=direction,
        iterate=cur,
        cauchy_gaps=gaps,
        n_max=n_max,
        probe_set=probes,
        converged=converged,
        n_converged=n_conv,
        model=model,
        mono=mono,
    )


def time_average(model: LatticeModel, mono: Monodromy, x: np.ndarray, h: float,
                 n_quad: int = 8) -> np.ndarray:
    """The trapezoid kernel h^{-1} int_0^h U0(t)^dagger U(s + t, s) dt times a block
    x of columns, with s = mono.start and mono's schedule.

    x is propagated through the nodes t_j in one running sweep, and each
    U0(t_j)^dagger acts through the H0 eigenbasis; the L x L kernel is not
    formed unless x is the identity."""
    if not (0.0 < h <= 1.0):
        raise ValueError("averaging window h must lie in (0, 1]")
    s, sched = mono.start, mono.scheme
    nodes = np.linspace(0.0, h, n_quad + 1)
    weights = np.full(n_quad + 1, 1.0)
    weights[0] = weights[-1] = 0.5
    weights /= weights.sum()
    out = weights[0] * x        # t_0 = 0: U0(0)^dagger U(s, s) = I
    for i in range(1, n_quad + 1):
        x = propagate(model, s + nodes[i - 1], s + nodes[i], sched, initial=x)
        out = out + weights[i] * model.free_apply(-nodes[i], x)
    return out


def time_averaged_wave_op(model: LatticeModel, mono: Monodromy, direction: int, n_max: int,
                          probes: ProbeSet, h: float, n_quad: int = 8) -> np.ndarray:
    """Time-averaged wave operator at stroboscopic offset n_max, applied to probes.

    Evaluates h^{-1} int_0^h U0(t + n)^dagger U(s + t + n, s) dt from
    s = mono.start over the window h (direction +1; time-reversed for -1)
    by time_average's trapezoidal rule in t, using the period factorization
    U(s + t + n, s) = U(s + t, s) Theta^n with Theta the monodromy `mono`.
    Only the probe columns are carried through: Theta^{+-n} through the
    monodromy's eigenbasis, the kernel's action, then the exact free factor.
    Converges to the same limit as the stroboscopic iterates.
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    moved = mono.apply(direction * n_max, probes.vectors)
    return model.free_apply(-direction * n_max, time_average(model, mono, moved, h, n_quad))


@dataclass
class BoundStateInfo:
    quasi_energy: float
    localization: float
    multiplicity: int


@dataclass
class ScatteringReport:
    """S-matrix on the free-orbit basis and its defects on the scattering-subspace proxy."""

    s_matrix: np.ndarray
    isometry_defect: float
    unitarity_defect: float
    intertwining_defect: float


def free_orbit_basis(theta0: np.ndarray, probes: ProbeSet, translates: int = 2) -> np.ndarray:
    """Orthonormal basis of span{Theta0^j phi, |j| <= translates}: the orbit
    columns in order, the probes first, each joining when its residual against
    the basis so far (Gram-Schmidt, two passes) exceeds 1e-8.  A dependent
    column is dropped whole, so the probes lie in the span and every orbit
    column within 1e-8 of it."""
    cols = [probes.vectors]
    fwd = back = probes.vectors
    for _ in range(translates):
        fwd = theta0 @ fwd
        back = adjoint_apply(theta0, back)    # Theta0^H back, without a copy of Theta0^H
        cols += [fwd, back]
    basis = probes.vectors[:, :0]
    for col in np.column_stack(cols).T:
        for _ in range(2):
            col = col - basis @ (basis.conj().T @ col)
        if np.linalg.norm(col) > 1e-8:
            basis = np.column_stack([basis, col / np.linalg.norm(col)])
    return basis


def s_matrix(wplus: WaveOperatorIterates, wminus: WaveOperatorIterates,
             translates: int = 2) -> ScatteringReport:
    """Assemble S = W+ W-^dagger on the probe subspace and its defects.

    The probe subspace is the span of the packets' short free orbits under
    Theta0 = U0(1), the free monodromy of W+'s model.
    unitarity_defect is the largest per-probe leakage ||(I - P) S phi||
    (equivalently the deviation of the restricted columns from unit norm);
    intertwining_defect the largest ||(S Theta0 - Theta0 S) phi|| over
    converged probes; isometry_defect the deviation of ||W phi|| from 1.
    S acts on the one block X = [basis, phi, Theta0 phi] (W-^dagger, then
    W+); W+ and W- act on phi.  No L x L product is formed.
    """
    if wplus.probe_set is not wminus.probe_set:
        if wplus.probe_set.vectors.shape != wminus.probe_set.vectors.shape or not np.allclose(
            wplus.probe_set.vectors, wminus.probe_set.vectors
        ):
            raise ValueError("wave operators were computed on different probe sets")
    probes, theta0 = wplus.probe_set, wplus.model.free_period
    basis = free_orbit_basis(theta0, probes, translates)
    use = wplus.converged & wminus.converged
    phi = probes.vectors[:, use]
    k, m = basis.shape[1], phi.shape[1]
    block = np.column_stack([basis, phi, theta0 @ phi])
    # one W+ apply gives W+ phi and S X = W+ W-^H X
    images = wplus.apply(np.column_stack([phi, wminus.apply_adjoint(block)]))
    wp_phi, s_block = images[:, :m], images[:, m:]
    wm_phi = wminus.apply(phi)
    s_phi, s_theta0_phi = s_block[:, k:k + m], s_block[:, k + m:]
    leak = s_phi - basis @ (basis.conj().T @ s_phi)
    unitarity = float(np.linalg.norm(leak, axis=0).max()) if use.any() else np.inf
    comm_phi = s_theta0_phi - theta0 @ s_phi
    intertwining = float(np.linalg.norm(comm_phi, axis=0).max()) if use.any() else np.inf
    iso = [np.abs(np.linalg.norm(w, axis=0) - 1.0).max() if use.any() else np.inf
           for w in (wp_phi, wm_phi)]
    return ScatteringReport(
        s_matrix=basis.conj().T @ s_block[:, :k],
        isometry_defect=float(max(iso)),
        unitarity_defect=unitarity,
        intertwining_defect=intertwining,
    )


def _localization(model: LatticeModel, weights: np.ndarray):
    """Per column of site weights (L, k): mass near the support, and whether it is bound."""
    # contiguous rows in site order: a state's score rounds alike for any window start
    window = np.sort(model.support_window(LOCALIZATION_MARGIN))
    score = np.ascontiguousarray(weights[window].T).sum(axis=1)
    return score, score >= LOCALIZATION_SCORE


def _certified_partner(model: LatticeModel, scan: ScanOperators, phase: float,
                       sigma: float, tol: float) -> float | None:
    """Circular distance from `phase` to a localized interior eigenvalue of K
    within tol, certified by inverse iteration at the shift sigma; None where
    PARTNER_SOLVES solves certify no eigenvalue within tol, or the certified
    one's vector is not localized and interior.

    The solves are x <- (K - zeta)^{-1} x from start_vector at
    zeta = sigma + i RAYLEIGH_EPS, through one scan.solver factor on the
    potential's support.  Off the axis K0 - zeta is never singular, where a
    real sigma on a free level eps + 2 pi n would divide by zero in G0.
    After each solve, the unit x has the Rayleigh quotient lambda = x^H K x
    and the residual r = ||K x - lambda x||, both on the assembled scan.k; a
    Hermitian K has an eigenvalue within r of lambda (Parlett, The Symmetric
    Eigenvalue Problem, ch. 4), so dist(phase, lambda) + r <= tol places one
    within tol, and a poor solve can only fail to certify.  It is accepted
    when x is localized (_localization) and interior (ModeSpace.interior)."""
    solve, space = scan.solver(sigma + 1j * RAYLEIGH_EPS), scan.space
    x = start_vector(space.size)
    for _ in range(PARTNER_SOLVES):
        x = solve(x)
        x /= np.linalg.norm(x)
        kx = scan.k @ x
        lam = float(np.vdot(x, kx).real)
        dist = float(circular_distance(phase, lam))
        if dist + np.linalg.norm(kx - lam * x) <= tol:
            x = x[:, None]
            _, localized = _localization(model, space.fiber_mass(x))
            return dist if localized[0] and space.interior(x)[0] else None
    return None


def _mode_space_partner(model: LatticeModel, scan: ScanOperators, phase: float,
                        tol: float) -> tuple[float, int]:
    """Circular distance from `phase` to its nearest localized interior eigenvalue of
    the sparse mode-space matrix K = scan.k, and the number of such values seen.

    The translates sigma = phase + 2 pi j inside K's spectral bound are taken
    nearest the centre of the fiber spectrum first.  At each in turn, inverse
    iteration through scan's support factorization looks for a certified
    partner within tol (_certified_partner), and the first found gives (its
    distance, 1): the driven rings' partners sit at the first translate, an
    undriven well's may sit at a later one, whose block of K is interior.
    Where none is certified, ARPACK diagnoses: shift-invert eigsh of scan.k
    runs at the translates in the same order and stops at the first with a
    partner within tol.  At each translate the request grows until some
    returned value lies beyond tol, so every eigenvalue within tol is judged:
    the predicate is that of the whole truncated spectrum.  ARPACK converges
    each value nu = 1/(lambda - sigma) of (K - sigma)^{-1} to relative
    accuracy ARPACK_TOL = 1e-4, so a returned lambda is exact to
    1e-4 |lambda - sigma|: within 1e-3 tol for every value within 10 tol of
    sigma, while a value farther away stays beyond tol.
    """
    k, space = scan.k, scan.space
    fiber = model.h0 + model.mode(0)
    centre = float(np.trace(fiber).real) / model.sites
    bound = float(abs(k).sum(axis=1).max()) + tol     # >= the spectral radius of K
    sigmas = phase + 2 * np.pi * np.arange(np.ceil((-bound - phase) / (2 * np.pi)),
                                           np.floor((bound - phase) / (2 * np.pi)) + 1)
    sigmas = sigmas[np.argsort(np.abs(sigmas - centre), kind="stable")]
    for sigma in sigmas:
        dist = _certified_partner(model, scan, phase, sigma, tol)
        if dist is not None:
            return dist, 1
    from scipy.sparse.linalg import eigsh   # ARPACK: loaded only for this diagnosis

    v0 = start_vector(space.size)
    nearest, candidates = np.inf, 0
    for sigma in sigmas:
        n_eig = min(3, space.size - 2)
        while True:
            values, vectors = eigsh(k, k=n_eig, sigma=sigma, v0=v0, tol=ARPACK_TOL)
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


def bound_state_scan(model: LatticeModel, mono: Monodromy, n_modes: int = 12,
                     cross_check_tol: float = 1e-5) -> list[BoundStateInfo]:
    """Bound states from localization of the one-period operator's eigenvectors.

    Eigenvectors of the monodromy `mono` with at least 90% of their mass on
    support_window(LOCALIZATION_MARGIN) (bound_vectors) are flagged bound; their
    eigenphases are cross-checked against localized interior quasi-energies
    of the truncated mode-space matrix K, found near each phase by inverse
    iteration, or by shift-invert eigsh where that certifies none
    (_mode_space_partner).  One ScanOperators at n_modes per scan holds K
    and solves every K - zeta on the potential's support.  Raises
    DetectorDisagreementError if the two detectors disagree beyond
    cross_check_tol.
    """
    score, bound = _localization(model, np.abs(mono.eig.vectors) ** 2)
    phases = mono.quasi_energies
    found = sorted((phases[j], score[j]) for j in np.flatnonzero(bound))

    infos = []
    if found:
        scan = ScanOperators(model, n_modes)
        for phase, _ in found:
            dist, candidates = _mode_space_partner(model, scan, phase, cross_check_tol)
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


def bound_vectors(model: LatticeModel, mono: Monodromy) -> np.ndarray:
    """Columns: eigenvectors of the one-period operator flagged as bound."""
    _, bound = _localization(model, np.abs(mono.eig.vectors) ** 2)
    return mono.eig.vectors[:, bound]


def orthogonality_defect(probes: ProbeSet, bound: np.ndarray) -> float:
    """Largest overlap |<bound vector, probe>|."""
    if bound.shape[1] == 0:
        return 0.0
    return float(np.abs(bound.conj().T @ probes.vectors).max())


def start_time_covariance_defect(model: LatticeModel, mono: Monodromy, n_max: int,
                                 probes: ProbeSet, shift: float = 0.5) -> float:
    """Defect of W(s') = U0(s', s) W(s) U(s, s') at s' = s + shift on probes,
    with s = mono.start.

    Both sides map a state at time s' to its future free asymptote; the
    left-hand side is computed from the monodromy at s', built here on
    mono's schedule, the right-hand side transports through the interacting
    propagator to s and back with the free one.  Theta_s^n and Theta_s'^n act
    on the probe columns through their monodromies' eigenbases, the free
    factors through the H0 eigenbasis.
    """
    s, sched = mono.start, mono.scheme
    s2 = s + shift

    def wave_op(m: Monodromy, x: np.ndarray, t: float) -> np.ndarray:
        """U0(t) Theta0^{-n} Theta^n x."""
        return model.free_apply(t - n_max, m.apply(n_max, x))

    lhs = wave_op(monodromy(model, s2, sched),
                  propagate(model, s, s2, sched, initial=probes.vectors), 0.0)
    rhs = wave_op(mono, probes.vectors, shift)
    return float(np.linalg.norm(lhs - rhs, axis=0).max())

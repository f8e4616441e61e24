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
computed: every reported number uses W on a block of at most 3p probe
columns.  No power of Theta is formed: Theta^{+-n} acts as
V e^{-+in lambda} V^H from the eigendecomposition of the scenario's one
Monodromy (Monodromy.apply; the first reader of Monodromy.eig diagonalizes
Theta, and every later one reuses it), and every free factor
Theta0^{-+n} = U0(-+n) acts through the free_apply of the Monodromy's model,
on the ring ifft(e^{+-in eps_k} fft(x)), so every phase is exact.  The
Cauchy gaps come from the same eigenbasis: every Monodromy holds
Theta = Theta0 + P E_w P^T (propagation.window_block), so the gap
||(Theta - Theta0) Theta^{n-1} phi|| is the norm of
E_w V_W e^{-i(n-1) lambda} V^H phi, V_W the eigenvectors' window rows, and
E_w^H in its place time-reversed.  Only the gaps (n_max x p) are kept.  A
wave-operators run on the light cone's window therefore holds these L x L
arrays: U0(1) on the model and Theta's eigenvectors on the Monodromy (the
ring's H0, modes and eigenvectors only where the bound-state cross-check
falls back to the whole ring); U0(1) is read only to form Theta, and Theta
itself only while it is diagonalized or where a reader asks for it.

The time average applies its kernel to the probe block only, and the free
factors act through free_apply, so neither the L x L kernel nor a dense U0(t)
is formed.  It steps only the window: for t <= 1, D(t) = U(s + t, s) - U0(t)
lives on W x W, W the Monodromy's window, by the light cone that bounds E_w,
so the kernel applied to x is x + sum_j w_j U0(-t_j) P_W D_j x_W, each
D_j x_W stepped on the Monodromy's segment through the quadrature nodes with
the segment's steppers, minus U0_seg(t_j) x_W (propagation._window_kicks).
Its rows outside W must stay at or below WINDOW_BORDER_TOL relative to x;
window_block checked E_w's border at t = 1, so a kick past it raises
WindowLeakError, and nothing is stepped on the whole model.  Nothing here
steps a model but the Monodromy's segment: on the light cone's window,
Theta's window and the time average both run on the segment of ~4r sites.

Every function here that needs Theta or its eigenbasis takes the scenario's
one Monodromy, built by the caller at its start time s, and reads the model
from it (Monodromy.model): a Monodromy is its model's Theta, so no model is
passed beside it, and none builds a Monodromy.

S = W+ W-^dagger is reported on Theta0's channels.  Floquet scattering is
fibred over quasi-energy (Yajima, J. Math. Soc. Japan 29 (1977)), so S
commutes with Theta0 up to the intertwining defect, and on the ring Theta0
is diagonal in the Fourier basis (Davis, Circulant Matrices, 1979): S is one
block per cluster of ring momenta that share an eigenvalue e^{-i eps_k} of
Theta0 (channel_clusters): {k, -k} below hopping pi/2, joined above it by a
sideband momentum where the ring's level meets eps_k - 2 pi n.  Each block is fitted by least squares from the Fourier
transforms of S phi and phi over the converged probes, and reported where
the probes' weight on the cluster makes that fit well conditioned
(fit_channels), beside the channel momenta.  No rank decision enters the
blocks, so round-off in Theta0 moves them by round-off over FIT_WEIGHT.  In a
{-k, k} block the diagonal holds the transmission amplitudes and the
off-diagonal the reflection amplitudes.

S's unitarity defect is measured on the span of the packets' short free
orbits {Theta0^j phi, |j| <= translates} (free_orbit_basis): it contains the
scattered packets including their time delays, so S phi leaks little out of
it, while a single packet's span would be spoiled by the delay-induced
position mismatch.

Bound states are the Theta eigenvectors whose quasi-energy lies in the gap
of the folded free band: every sideband eps - 2 pi n outside the hull of
H0's levels (floquet.sidebands_closed), so no free channel is open there;
`in_gap` picks them, for the bound-state scan and the probes' orthogonality
alike.  A band eigenphase is never called bound, and neither is a Floquet
resonance that sits in the band, however localized on the ring (Yajima,
Commun. Math. Phys. 87 (1982)); each state's localization is reported as a
measured value only.  Each bound phase is cross-checked against the truncated mode-space
matrix K: a partner there is certified by one Rayleigh step of
resolvent.ScanOperators, taken from the null scan's own inverse iteration
on the potential's support, at the 2N + 1 translates phase + 2 pi j nearest
the state's static energy <v|H0 + H_0|v> (LatticeModel.static_energy), N the
cutoff: an interior eigenvector of the truncated K has no translate beyond
them, so a phase costs at most 2N + 1 null scans however deep the well.  The
cross-check first takes the K of the Monodromy's segment, which on the light
cone's window holds a state bound to the well to e^{-kappa r} (the segment
reaches 2r sites past the support); only a phase it does not certify goes to
the whole ring's K, at the same CROSS_CHECK_TOL, where the segment is not the
ring itself.  A phase the ring's K does not certify either raises
DetectorDisagreementError with the ring's null-scan smallest singular value
of I + Q at that phase, and with the float spacing at the state's energy where
that spacing exceeds CROSS_CHECK_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .floquet import circular_distance, sidebands_closed
from .model import LatticeModel
from .numerics import NumericalError, adjoint_apply
from .propagation import Monodromy, _window_kicks
from .resolvent import RAYLEIGH_EPS, InverseIterationError, ScanOperators

GAP_TOL = 1e-3
GAP_RUN = 3
# the iterates whose Cauchy gaps one product forms (_cauchy_gaps)
GAP_BLOCK = 32
# the reported localization is a state's mass on support_window(LOCALIZATION_MARGIN)
LOCALIZATION_MARGIN = 4
# the cross-check's partner distance, and the distance within which bound phases are one
CROSS_CHECK_TOL = 1e-5
# the least singular value of a direction of the probes' free-orbit span (unit columns)
SPAN_TOL = 1e-8
# free levels (mod 2 pi) this close are one eigenvalue of Theta0, one channel cluster:
# far above the FFT's round-off in eps_k, below the 2.4e-6 between a 4096-site ring's
# two lowest levels at hopping 1
CHANNEL_TOL = 1e-8
# the least singular value of the probes' Fourier weights on a channel cluster (unit
# probes, unitary transform) at which S's block there is fitted and reported
FIT_WEIGHT = 0.1


class ConvergenceError(NumericalError, RuntimeError):
    """No probe stabilized before the wrap-around horizon."""

    def __init__(self, message, gaps=None):
        super().__init__(message)
        self.gaps = gaps


class DetectorDisagreementError(NumericalError, ValueError):
    """A monodromy bound state has no certified mode-space partner; `s_min` is the
    smallest singular value of I + Q at its phase."""

    def __init__(self, message, s_min: float):
        super().__init__(message)
        self.s_min = s_min


@dataclass
class ProbeSet:
    """Gaussian wave packets on the ring, mirror-paired around the well."""

    vectors: np.ndarray          # (L, p) columns, unit norm
    momenta: np.ndarray
    centers: np.ndarray


def gaussian_packet(sites: int, center: float, momentum: float, sigma: float) -> np.ndarray:
    x = np.arange(sites)
    d = (x - center + sites / 2) % sites - sites / 2
    psi = np.exp(-(d**2) / (2 * sigma**2)) * np.exp(1j * momentum * x)
    return psi / np.linalg.norm(psi)


def make_probes(model: LatticeModel, bands=(0.40, 0.43, 0.46, 0.48),
                rng: np.random.Generator | None = None) -> ProbeSet:
    """Mirror-paired packets aimed through the interaction window at the arc's midpoint.

    Momenta sit on ring wavenumbers near `bands` (in units of pi), away from
    the band edges where the group velocity vanishes.  The width is sites/16
    (full width; sigma = width/2.355), the launch distance about 4 sigma from
    the midpoint.  An optional generator jitters the momentum index by one
    ring quantum per probe.  At negative hopping the group velocity 2 J sin k
    turns round, and the index moves by L/2: on an even ring H(-J) = G H(J) G
    with G = diag((-1)^x), and k + pi is G's image of k.
    """
    sites = model.sites
    ctr = int(np.round(model.arc[0] + (model.arc[1] - 1) / 2)) % sites
    sigma = (sites / 16.0) / 2.355
    distance = int(np.round(4.0 * sigma))
    vectors, momenta, centers = [], [], []
    for band in bands:
        k_idx = int(np.round(band * np.pi * sites / (2 * np.pi))) + sites // 2 * (model.hopping < 0)
        if rng is not None:
            k_idx += int(rng.integers(-1, 2))
        kappa = 2 * np.pi * k_idx / sites
        for sign, x0 in ((1.0, ctr - distance), (-1.0, ctr + distance)):
            vectors.append(gaussian_packet(sites, x0, sign * kappa, sigma))
            momenta.append(sign * kappa)
            centers.append(x0)
    return ProbeSet(vectors=np.array(vectors).T, momenta=np.array(momenta),
                    centers=np.array(centers))


def wrap_horizon(model: LatticeModel) -> int:
    """Iteration budget before packets wrap the ring: L / (4 v_max).

    The group velocity on the ring is bounded by 2 |hopping| sites per period; a
    horizon past the float range (a subnormal hopping) is taken as 2^63.
    """
    v_max = 2.0 * abs(model.hopping)
    if v_max == 0.0:
        raise ValueError("hopping must be nonzero for wave-packet scattering")
    return int(min(model.sites / (4.0 * v_max), 2.0**63))


@dataclass
class WaveOperatorIterates:
    """The stroboscopic limit on the probe packets: every iterate's Cauchy gaps
    and W^(n_max) as an action on vectors.

    Direction +1 holds W+ = Theta0^{-n} Theta^n, direction -1 the time-reversed
    W- = Theta0^n Theta^{-n}, at n = n_max; `apply` and `apply_adjoint` act on
    a block of columns, `image` on the probes.
    """

    direction: int
    # (n_max, p): ||(A - B) A^(n-1) phi|| with A = Theta^+-1, B = Theta0^+-1
    cauchy_gaps: np.ndarray
    n_max: int
    probe_set: ProbeSet
    converged: np.ndarray                    # per-probe bool
    # its eigenbasis gives Theta^{+-n}, its model's free_apply Theta0^{-+n}
    mono: Monodromy = field(repr=False)

    def image(self) -> np.ndarray:
        """W^(n_max) phi for the probes phi, (L, p)."""
        return self.apply(self.probe_set.vectors)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """W^(n_max) x for a block x of columns."""
        n = self.direction * self.n_max
        return self.mono.model.free_apply(-n, self.mono.apply(n, x))

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        """W^(n_max)^H x for a block x of columns."""
        n = self.direction * self.n_max
        return self.mono.apply(-n, self.mono.model.free_apply(n, x))


def _cauchy_gaps(direction: int, mono: Monodromy, x: np.ndarray, n_max: int) -> np.ndarray:
    """(n_max, p): the column norms of (A - B) A^(n-1) x for n = 1..n_max,
    A = Theta^{+-1}, B = Theta0^{+-1}, from mono's eigenbasis.

    A - B is E_w on the window's rows (mono's window and block), E_w^H for
    direction -1, and
    A^(n-1) x = V e^{-+i(n-1) lambda} V^H x.  So (A - B) V on the window is
    formed once (adjoint_apply for E_w^H, with no adjoint copy), and each run
    of at most GAP_BLOCK iterates is one product of it with V^H x's columns
    times their phases, an L x p GAP_BLOCK array."""
    act = np.matmul if direction == +1 else adjoint_apply
    rows = act(mono.block, mono.eig.vectors[mono.window])
    coeffs = adjoint_apply(mono.eig.vectors, x)[:, None, :]
    angles = (-direction * mono.quasi_energies)[:, None]
    gaps = np.empty((n_max, x.shape[1]))
    for first in range(0, n_max, GAP_BLOCK):
        n = np.arange(first, min(first + GAP_BLOCK, n_max))
        phased = np.exp(1j * angles * n)[:, :, None] * coeffs        # (L, len(n), p)
        kicks = rows @ phased.reshape(len(coeffs), -1)
        gaps[n] = np.linalg.norm(kicks, axis=0).reshape(len(n), -1)
    return gaps


def stroboscopic_wave_op(mono: Monodromy, direction: int, n_max: int,
                         probes: ProbeSet | None = None) -> WaveOperatorIterates:
    """The stroboscopic limit on wave packets.

    direction +1 takes Theta0^dagger^n Theta^n, direction -1 the
    time-reversed pair Theta0^n Theta^dagger^n, with Theta from mono, the
    monodromy of the ring mono.model at the start time the wave operator is
    taken at.  The gaps of every iterate n = 1..n_max are kept (_cauchy_gaps);
    W^(n_max) acts through mono's eigenbasis.  A probe has converged when its last GAP_RUN gaps are
    all below GAP_TOL (none has at n_max < GAP_RUN).  Raises ConvergenceError
    (carrying the gap trace) if no probe stabilizes before n_max.
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    probes = probes or make_probes(mono.model)
    horizon = wrap_horizon(mono.model)
    if n_max > horizon:
        raise ValueError(f"n_max={n_max} beyond the wrap-around horizon {horizon}")
    gaps = _cauchy_gaps(direction, mono, probes.vectors, n_max)
    converged = (gaps[-GAP_RUN:] < GAP_TOL).all(axis=0) & (n_max >= GAP_RUN)
    if not converged.any():
        raise ConvergenceError(
            f"no probe stabilized before the horizon (direction {direction:+d}); "
            "packets may overlap a bound state or the ring is too small",
            gaps=gaps,
        )
    return WaveOperatorIterates(
        direction=direction,
        cauchy_gaps=gaps,
        n_max=n_max,
        probe_set=probes,
        converged=converged,
        mono=mono,
    )


def time_average(mono: Monodromy, x: np.ndarray, h: float, n_quad: int = 8) -> np.ndarray:
    """The trapezoid kernel h^{-1} int_0^h U0(t)^dagger U(s + t, s) dt times a block
    x of columns, with s = mono.start and mono's schedule and model.

    The kernel is I + h^{-1} int_0^h U0(-t) D(t) dt with D(t) = U(s + t, s) - U0(t),
    which for t <= 1 lives on W x W, W = mono.window (the light cone of
    propagation.window_block, or every site): the sum is
    x + sum_j w_j U0(-t_j) P_W D_j x_W, each D_j x_W from mono's segment
    (_window_kicks, which raises WindowLeakError where the segment's rows outside
    W exceed WINDOW_BORDER_TOL; on the every-site window the segment is the
    model).  Each U0(-t_j) acts through free_apply; the L x L kernel is not
    formed unless x is the identity."""
    if not (0.0 < h <= 1.0):
        raise ValueError("averaging window h must lie in (0, 1]")
    nodes = np.linspace(0.0, h, n_quad + 1)
    weights = np.full(n_quad + 1, 1.0)
    weights[0] = weights[-1] = 0.5
    weights /= weights.sum()
    out = np.array(x, dtype=np.complex128)
    for i, kick in enumerate(_window_kicks(mono, x, nodes), start=1):   # t_0 = 0: D_0 = 0
        spread = np.zeros_like(out)
        spread[mono.window] = kick
        out += weights[i] * mono.model.free_apply(-nodes[i], spread)
    return out


def time_averaged_wave_op(mono: Monodromy, direction: int, n_max: int, probes: ProbeSet,
                          h: float, n_quad: int = 8) -> np.ndarray:
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
    return mono.model.free_apply(-direction * n_max, time_average(mono, moved, h, n_quad))


@dataclass
class BoundStateInfo:
    quasi_energy: float
    localization: float
    multiplicity: int


@dataclass
class ScatteringReport:
    """S on Theta0's channels, one block per reported cluster of ring momenta, with
    the momenta of its rows and columns, and S's defects on the probe subspace."""

    s_matrix: list[np.ndarray]
    channels: list[np.ndarray]
    isometry_defect: float
    unitarity_defect: float
    intertwining_defect: float


def free_orbit_basis(model: LatticeModel, probes: ProbeSet, translates: int = 2) -> np.ndarray:
    """Orthonormal basis of span{Theta0^j phi, |j| <= translates}: the left singular
    vectors of the probes, then those of the other orbit columns (free_apply(j),
    j = +-1 .. +-translates) with the probes' span projected out, each where its
    singular value exceeds SPAN_TOL.  The probes lie in the span to round-off (a
    repeated probe adds no direction).

    The orbit's singular values fall geometrically, without a gap, so some
    cut is made; the SVD fixes each kept direction to round-off over the
    singular-value gap, where column-by-column Gram-Schmidt divided each
    near-dependent column by its residual and carried its round-off 1e-8
    relative into every later one (Golub & Van Loan, Matrix Computations, 5.4)."""
    phi = probes.vectors
    u, sv, _ = np.linalg.svd(phi, full_matrices=False)
    basis = u[:, sv > SPAN_TOL]
    if translates == 0:
        return basis
    rest = np.column_stack([model.free_apply(sign * j, phi)
                            for j in range(1, translates + 1) for sign in (1, -1)])
    u, sv, _ = np.linalg.svd(rest - basis @ (basis.conj().T @ rest), full_matrices=False)
    # a direction of singular value sigma carries the probe span's round-off over sigma:
    # projected out once more, and the columns orthonormalized again
    extra = u[:, sv > SPAN_TOL]
    extra = np.linalg.qr(extra - basis @ (basis.conj().T @ extra))[0]
    return np.column_stack([basis, extra])


def channel_clusters(model: LatticeModel) -> list[np.ndarray]:
    """The ring's momentum indices q in (-L/2, L/2] (k = 2 pi q / L) grouped by
    Theta0's eigenvalue e^{-i eps_q}: the ring_spectrum folded to [0, 2 pi),
    sorted and cut wherever two neighbours (round the circle) lie more than
    CHANNEL_TOL apart.  Each cluster is ascending, the clusters in ascending
    least |q|.

    eps_q = eps_{-q}, so every cluster holds {q, -q}; below hopping pi/2 the
    band is narrower than 2 pi and that is all.  Above it a momentum joins where
    its level meets eps_q - 2 pi n within CHANNEL_TOL, an open sideband."""
    levels = model.ring_spectrum
    if levels is None:
        raise ValueError("S on Theta0's channels needs a ring: the model is an open chain")
    folded = np.mod(levels, 2 * np.pi)
    order = np.argsort(folded, kind="stable")
    clusters = np.split(order, np.flatnonzero(np.diff(folded[order]) > CHANNEL_TOL) + 1)
    if len(clusters) > 1 and folded[order[0]] + 2 * np.pi - folded[order[-1]] <= CHANNEL_TOL:
        clusters[0] = np.concatenate([clusters.pop(), clusters[0]])
    sites = model.sites
    signed = np.arange(sites) - sites * (np.arange(sites) > sites // 2)
    return sorted((np.sort(signed[c]) for c in clusters), key=lambda c: int(np.abs(c).min()))


def fit_channels(model: LatticeModel, s_phi: np.ndarray,
                 phi: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(blocks, momenta): S's block on each channel cluster where the fit is well
    conditioned, by least squares from the unitary Fourier transforms of the
    probes phi (X) and of their images S phi (Y).

    S commutes with Theta0 up to the intertwining defect, so on a cluster C
    Y_C = S_C X_C; S_C = Y_C X_C^+ is fitted where X_C's least singular value is
    at least FIT_WEIGHT (so C has at most as many members as there are probes),
    and the round-off in Y grows by at most 1 / FIT_WEIGHT.  The momenta are
    2 pi q / L in (-pi, pi], the block's rows and columns in that order."""
    x = np.fft.fft(phi, axis=0, norm="ortho")
    y = np.fft.fft(s_phi, axis=0, norm="ortho")
    weight = np.linalg.norm(x, axis=1)
    blocks, momenta = [], []
    for c in channel_clusters(model):    # a negative index q reads row L + q
        if len(c) > phi.shape[1] or weight[c].min() < FIT_WEIGHT:
            continue
        u, sv, vh = np.linalg.svd(x[c], full_matrices=False)
        if sv[-1] >= FIT_WEIGHT:
            blocks.append(((y[c] @ vh.conj().T) / sv) @ u.conj().T)
            momenta.append(2 * np.pi * c / model.sites)
    return blocks, momenta


def s_matrix(wplus: WaveOperatorIterates, wminus: WaveOperatorIterates,
             translates: int = 2) -> ScatteringReport:
    """Assemble S = W+ W-^dagger on Theta0's channels and its defects.

    S is applied to the converged probes phi and to Theta0 phi (W-^dagger, then
    W+, which also takes phi itself), 3m columns for m probes; Theta0 = U0(1)
    acts through the model's free_apply.  The blocks are fitted from S phi and
    phi (fit_channels).  unitarity_defect is the largest per-probe leakage
    ||(I - P) S phi|| out of the span of the probes' short free orbits
    {Theta0^j phi, |j| <= translates} (free_orbit_basis), which holds the
    scattered packets with their time delays; intertwining_defect the largest
    ||(S Theta0 - Theta0 S) phi||; isometry_defect the deviation of ||W phi||
    from 1.  No L x L product is formed.
    """
    if wplus.probe_set is not wminus.probe_set:
        if wplus.probe_set.vectors.shape != wminus.probe_set.vectors.shape or not np.allclose(
            wplus.probe_set.vectors, wminus.probe_set.vectors
        ):
            raise ValueError("wave operators were computed on different probe sets")
    probes, model = wplus.probe_set, wplus.mono.model
    use = wplus.converged & wminus.converged
    phi = probes.vectors[:, use]
    m = phi.shape[1]
    block = np.column_stack([phi, model.free_apply(1, phi)])
    # one W+ apply gives W+ phi and S X = W+ W-^H X
    images = wplus.apply(np.column_stack([phi, wminus.apply_adjoint(block)]))
    wp_phi, s_phi, s_theta0_phi = images[:, :m], images[:, m:2 * m], images[:, 2 * m:]
    wm_phi = wminus.apply(phi)
    basis = free_orbit_basis(model, probes, translates)
    leak = s_phi - basis @ (basis.conj().T @ s_phi)
    unitarity = float(np.linalg.norm(leak, axis=0).max()) if use.any() else np.inf
    comm_phi = s_theta0_phi - model.free_apply(1, s_phi)
    intertwining = float(np.linalg.norm(comm_phi, axis=0).max()) if use.any() else np.inf
    iso = [np.abs(np.linalg.norm(w, axis=0) - 1.0).max() if use.any() else np.inf
           for w in (wp_phi, wm_phi)]
    blocks, momenta = fit_channels(model, s_phi, phi)
    return ScatteringReport(
        s_matrix=blocks,
        channels=momenta,
        isometry_defect=float(max(iso)),
        unitarity_defect=unitarity,
        intertwining_defect=intertwining,
    )


def _certified_partner(scan: ScanOperators, phase: float, sigma: float,
                       tol: float) -> float | None:
    """Circular distance from `phase` to an interior in-gap eigenvalue of K within
    tol, certified by one Rayleigh step at the shift sigma; None where the step
    certifies no eigenvalue within tol, or the certified one has an open
    sideband or an edge vector.

    The step is scan.rayleigh(sigma): psi from the null scan of I + Q at
    zeta = sigma + i RAYLEIGH_EPS, its quotient lambda and K psi from K's
    blocks.  Off the axis K0 - zeta is never singular, where a real
    sigma on a free level eps + 2 pi n would divide by zero in G0.  A
    Hermitian K has an eigenvalue within r = ||(K - lambda) psi|| / ||psi|| of
    lambda (Parlett, The Symmetric Eigenvalue Problem, ch. 4), so
    dist(phase, lambda) + r <= tol places one within tol, and a poor psi can
    only fail to certify: a shift whose null scan does not settle
    (InverseIterationError) certifies nothing.  It is accepted when lambda
    is in the gap (sidebands_closed) and psi / ||psi|| is interior
    (ModeSpace.interior)."""
    try:
        psi, k_psi, lam = scan.rayleigh(sigma)
    except InverseIterationError:
        return None
    norm = np.linalg.norm(psi)
    dist = float(circular_distance(phase, lam))
    if dist + np.linalg.norm(k_psi - lam * psi) / norm > tol:
        return None
    closed = sidebands_closed(lam, scan.free.values)
    return dist if closed and scan.space.interior(psi[:, None] / norm)[0] else None


def _mode_space_partner(scan: ScanOperators, phase: float, energy: float,
                        tol: float) -> float | None:
    """Circular distance from `phase` to a certified interior in-gap eigenvalue of
    the truncated mode-space matrix K of scan within tol, or None.

    The 2N + 1 translates sigma = phase + 2 pi j nearest `energy`, the state's
    static energy <v|H0 + H_0|v>, are taken nearest first (N = scan.space.n_modes).
    At each in turn, a Rayleigh step from scan's null scan looks for a certified
    partner within tol (_certified_partner), and the first found gives its
    distance: the driven rings' partners sit at the first translate, an
    undriven well's may sit at a later one, whose block of K is interior.  No
    later translate can hold one: the mode shift moves an eigenvector of the
    truncated K by 2 pi and by one block, so an interior eigenvector (edge mass
    at most EDGE_NORM_LIMIT) has at most 2N + 1 translates, all within N of
    the one nearest its energy.
    """
    n = scan.space.n_modes
    sigmas = phase + 2 * np.pi * (np.rint((energy - phase) / (2 * np.pi)) + np.arange(-n, n + 1))
    for sigma in sigmas[np.argsort(np.abs(sigmas - energy), kind="stable")]:
        dist = _certified_partner(scan, phase, sigma, tol)
        if dist is not None:
            return dist
    return None


def _localization(model: LatticeModel, vectors: np.ndarray) -> np.ndarray:
    """Per column of site amplitudes: its mass on support_window(LOCALIZATION_MARGIN)."""
    # contiguous rows in site order: a state's score rounds alike for any window start
    window = np.sort(model.support_window(LOCALIZATION_MARGIN))
    return np.ascontiguousarray((np.abs(vectors[window]) ** 2).T).sum(axis=1)


def in_gap(mono: Monodromy) -> tuple[np.ndarray, np.ndarray]:
    """(phases, vectors): the quasi-energies of mono whose every sideband is closed
    (sidebands_closed on its model's H0 levels) and their eigenvectors, as columns."""
    phases = mono.quasi_energies
    bound = sidebands_closed(phases, mono.model.free_levels)
    return phases[bound], mono.eig.vectors[:, bound]


def bound_state_scan(mono: Monodromy, n_modes: int = 12) -> list[BoundStateInfo]:
    """Bound states of the one-period operator: the eigenvectors of the monodromy
    `mono` in the gap (in_gap), in order of quasi-energy.

    Each one reports its localization, the mass on
    support_window(LOCALIZATION_MARGIN), as a measured value that decides
    nothing.  Each phase is cross-checked against an interior in-gap eigenvalue
    of the truncated mode-space matrix K, certified near it by a Rayleigh step
    from the null scan at the translates of the phase around the state's static
    energy (_mode_space_partner, LatticeModel.static_energy of its eigenvector);
    one ScanOperators at n_modes holds K's blocks and solves every K - zeta on
    the potential's support.  The cross-check takes mono's segment, then
    mono.model unless the segment is the model, and builds each one's
    ScanOperators only while phases are left uncertified.  The first phase with
    no certified partner on the model within CROSS_CHECK_TOL raises
    DetectorDisagreementError carrying the model's smallest singular value of
    I + Q at the phase (null_pair at phase + i RAYLEIGH_EPS), and naming the
    float spacing at the state's energy where it exceeds CROSS_CHECK_TOL.  The
    report is the same whichever K, and whichever translate, certified a
    phase.  Phases within CROSS_CHECK_TOL of each other are one state of that
    multiplicity: in ascending order, each phase not yet clustered takes every
    other such phase within that distance.
    """
    model = mono.model
    phases, vectors = in_gap(mono)
    found = sorted(zip(phases, _localization(model, vectors), model.static_energy(vectors)))

    open_states = [(phase, energy) for phase, _, energy in found]
    for h in (mono.segment,) if mono.segment is model else (mono.segment, model):
        if open_states:
            scan = ScanOperators(h, n_modes)
            open_states = [(phase, energy) for phase, energy in open_states
                           if _mode_space_partner(scan, phase, energy, CROSS_CHECK_TOL) is None]
    if open_states:
        phase, energy = open_states[0]
        s_min = scan.null_pair(phase + 1j * RAYLEIGH_EPS)[0]
        spacing = np.spacing(abs(energy))   # above the tolerance no float translate can match
        raise DetectorDisagreementError(
            f"bound state at quasi-energy {phase:.8f} not reproduced by the mode-space "
            f"spectrum at N={n_modes} (no interior in-gap eigenvalue certified within "
            f"{CROSS_CHECK_TOL:.0e}; smallest singular value of I + Q there {s_min:.2e}"
            + (f"; floats near the state's energy {energy:.6e} lie {spacing:.1e} apart"
               if spacing > CROSS_CHECK_TOL else "") + ")", s_min)
    # multiplicity: cluster the phases not yet clustered within the cross-check tolerance
    infos = []
    used = np.zeros(len(found), dtype=bool)
    for i, (phase, loc, _) in enumerate(found):
        if used[i]:
            continue
        cluster = [j for j in range(len(found))
                   if not used[j] and circular_distance(found[j][0], phase) <= CROSS_CHECK_TOL]
        used[cluster] = True
        infos.append(BoundStateInfo(quasi_energy=float(phase), localization=float(loc),
                                    multiplicity=len(cluster)))
    return infos


def orthogonality_defect(probes: ProbeSet, bound: np.ndarray) -> float:
    """Largest overlap |<bound vector, probe>|."""
    if bound.shape[1] == 0:
        return 0.0
    return float(np.abs(bound.conj().T @ probes.vectors).max())

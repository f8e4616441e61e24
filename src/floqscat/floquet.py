"""Truncated Floquet Hamiltonian on mode space and its spectral structure.

The extended-space operator acts on vectors x = (x_n), |n| <= N, with
d-dimensional fiber blocks: the (n, m) block is H_{n-m} for n != m and
2 pi n I + H0 + H_0-mode on the diagonal, the block-Toeplitz layout that
ModeSpace alone writes (dense, `toeplitz`) and applies (block by block from
the model's own sparse blocks, `apply`).  Its eigenvalues are quasi-energies;
the commutation with the mode shift generates the 2pi translation structure,
and the interior folded spectrum reproduces the eigenphases of the one-period
operator.  The free blocks (H0 + 2 pi n - zeta)^{-1} come from the model's
free_eig; the only eigendecomposition made here is K's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .model import PeriodicHamiltonian
from .numerics import UNITARY_TOL, EigenDecomposition, csr_matvecs, hermitian_eig
from .propagation import Monodromy

# edge rule: a state is truncation-corrupted when the norm fraction of its
# component in the outermost blocks exceeds 1% (i.e. probability 1e-4)
EDGE_NORM_LIMIT = 0.01
EDGE_BLOCKS = 2
# a phase within this of the free band's edge is on it, not in the gap: a monodromy
# is held unitary to UNITARY_TOL only, and a free ring's band-edge phases fall
# within round-off of H0's extreme levels, on either side of them
GAP_MARGIN = UNITARY_TOL


class NoInteriorError(ValueError):
    """The mode cutoff leaves no interior mode-space state to compare."""


@cache
def start_vector(size: int) -> np.ndarray:
    """Fixed generic unit start vector for iterative solvers (seeded normal entries),
    formed once per size and read-only.

    A symmetric choice such as the all-ones vector is orthogonal to every
    state odd under the ring's reflection about the well.
    """
    v = np.random.default_rng(0).standard_normal(size).astype(np.complex128)
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class ModeSpace:
    """(2N+1) mode blocks of fiber dimension d and the block-Toeplitz operators on them.

    With the shift (S x)_n = x_{n-1}: K0 = I (x) H + diag(2 pi n) (x) I,
    V = sum_m S^m (x) H_m, K = K0 + V and Q(zeta) = V (K0 - zeta)^{-1}
    (Shirley's extended-space form).  Such an operator's block (n, n - m)
    holds its m-th block on the row blocks `row_blocks(m)`, the one statement
    of that layout: `toeplitz` writes any block-Toeplitz matrix dense, and
    `apply` reads K from its (d, d) blocks (`k_blocks`) held as CSR arrays
    (numerics.csr_arrays), nothing of the mode space assembled.
    """

    n_modes: int
    fiber_dim: int

    @property
    def n_blocks(self) -> int:
        return 2 * self.n_modes + 1

    @property
    def size(self) -> int:
        return self.n_blocks * self.fiber_dim

    @property
    def modes(self) -> np.ndarray:
        """Mode indices -N..N in block order."""
        return np.arange(-self.n_modes, self.n_modes + 1)

    @property
    def frequencies(self) -> np.ndarray:
        return 2 * np.pi * self.modes

    def blocks(self, x: np.ndarray) -> np.ndarray:
        """x with its leading axis split into (2N+1, d) mode blocks."""
        return x.reshape(self.n_blocks, self.fiber_dim, *x.shape[1:])

    def interior(self, vectors: np.ndarray) -> np.ndarray:
        """Per unit column: not corrupted by the truncation edge.

        A column is an edge state when its component in the outermost
        EDGE_BLOCKS mode blocks per side exceeds EDGE_NORM_LIMIT of its norm.
        """
        probs = (np.abs(self.blocks(vectors)) ** 2).sum(axis=1)
        edge = min(EDGE_BLOCKS, self.n_modes)
        edge_mass = probs[:edge].sum(axis=0) + probs[len(probs) - edge:].sum(axis=0)
        return np.sqrt(edge_mass) <= EDGE_NORM_LIMIT

    def row_blocks(self, m: int) -> np.ndarray:
        """The row blocks n whose block (n, n - m) lies inside the truncation; none
        for |m| > 2N."""
        return np.arange(max(0, m), self.n_blocks + min(0, m))

    def toeplitz(self, blocks: dict[int, np.ndarray]) -> np.ndarray:
        """Dense block-Toeplitz matrix whose block (n, n - m) is blocks[m]: one (r, d)
        array, or a (2N+1, r, d) stack indexed by the column block n - m.  Square
        (d, d) blocks give the (2N+1)d-side matrix; r < d rows, the same r rows of
        every row block of it.  Each block is written plus 0.0, so an entry's -0.0
        part reads +0.0, as in scipy's densified sums."""
        nb, d = self.n_blocks, self.fiber_dim
        r = next(iter(blocks.values())).shape[-2] if blocks else d
        out = np.zeros((nb, r, nb, d), dtype=np.complex128)
        for m, bm in blocks.items():
            n = self.row_blocks(m)
            out[n, :, n - m, :] = (bm if bm.ndim == 2 else bm[n - m]) + 0.0
        return out.reshape(nb * r, self.size)

    def apply(self, blocks: dict, x: np.ndarray) -> np.ndarray:
        """K x for a mode-space vector x: (K x)_n = 2 pi n x_n + sum_m B_m x_{n-m} over
        the row blocks n of row_blocks(m), for K's (d, d) blocks B_m as CSR arrays
        (indptr, indices, data).  Each B_m takes its valid column blocks x_{n-m} at
        once, as the columns of one (d, count) array, in one csr_matvecs call."""
        d = self.fiber_dim
        xt = np.ascontiguousarray(self.blocks(x).T, dtype=np.complex128)   # column n: x_n
        out = xt * self.frequencies
        for m, csr in blocks.items():
            n = self.row_blocks(m)                       # the run n[0] .. n[-1]
            columns = np.ascontiguousarray(xt[:, n[0] - m:n[-1] + 1 - m])
            y = np.zeros_like(columns)
            csr_matvecs(d, d, len(n), *csr, columns, y)
            out[:, n[0]:n[-1] + 1] += y
        return out.T.ravel()

    def free_resolvent(self, free: EigenDecomposition, zeta: complex) -> np.ndarray:
        """Blocks (H0 + 2 pi n - zeta)^{-1}, n = -N..N, stacked (2N+1, d, d), from
        H0's eigendecomposition `free`."""
        return free.matrix(1.0 / (free.values + self.frequencies[:, None] - zeta))


@dataclass
class FloquetMatrix:
    """Truncated mode-space Hamiltonian on the (2N+1) modes x d-dimensional fiber of
    its ModeSpace."""

    space: ModeSpace
    matrix: np.ndarray


def k_blocks(h: PeriodicHamiltonian, n_modes: int) -> dict[int, np.ndarray]:
    """K's (d, d) blocks at mode cutoff N, without the 2 pi n shifts: M0 = H0 + H_0 at
    m = 0, then H_m for each other mode; requires N >= mode support."""
    if n_modes < h.max_mode:
        raise ValueError(
            f"mode cutoff N={n_modes} below the interaction support M={h.max_mode}; "
            "this would silently truncate the interaction"
        )
    return {0: h.h0 + h.mode(0), **{m: hm for m, hm in h.modes.items() if m != 0}}


def build_floquet(h: PeriodicHamiltonian, n_modes: int) -> FloquetMatrix:
    """Dense truncated mode-space matrix, for the tasks that report whole spectra: the
    block-Toeplitz matrix of k_blocks (ModeSpace.toeplitz), 2 pi n added on the
    diagonal."""
    space = ModeSpace(n_modes, h.dim)
    matrix = space.toeplitz(k_blocks(h, n_modes))
    matrix.flat[::space.size + 1] += np.repeat(space.frequencies, h.dim)
    return FloquetMatrix(space, matrix)


def shift_commutation_defect(k: FloquetMatrix) -> float:
    """Interior defect of K S - S K = 2 pi S on the truncated space, in max norm.

    The relation is exact on the rows n in [-N+1, N] and columns
    m in [-N, N-1] where the truncated shift is defined, and there it reads
    K[d:, d:] - K[:-d, :-d] = 2 pi I; the defect is zero in exact arithmetic
    (and at N = 0, where no such entry exists).
    """
    d = k.space.fiber_dim
    defect = k.matrix[d:, d:] - k.matrix[:-d, :-d]
    defect.flat[::defect.shape[0] + 1] -= 2 * np.pi
    return float(np.abs(defect).max(initial=0.0))


@dataclass
class QuasiEnergySpectrum:
    """Eigenvalues of a truncated Floquet matrix with folding and edge flags."""

    space: ModeSpace            # the truncation K was built on
    values: np.ndarray          # ascending
    folded: np.ndarray          # values mod 2pi in [0, 2pi)
    vectors: np.ndarray         # columns, aligned with values
    interior: np.ndarray        # bool mask: not corrupted by the truncation edge

    @property
    def interior_folded(self) -> np.ndarray:
        return self.folded[self.interior]


def quasi_spectrum(k: FloquetMatrix) -> QuasiEnergySpectrum:
    """Diagonalize the truncated Floquet matrix and fold to [0, 2pi).

    Eigenvectors whose component in the outermost EDGE_BLOCKS mode blocks
    per side exceeds EDGE_NORM_LIMIT of their norm are flagged as edge
    states and excluded from interior comparisons.
    """
    eig = hermitian_eig(k.matrix)
    return QuasiEnergySpectrum(k.space, eig.values, np.mod(eig.values, 2 * np.pi), eig.vectors,
                               k.space.interior(eig.vectors))


def circular_distance(a, b) -> np.ndarray:
    """Distance on the phase circle of circumference 2pi."""
    d = np.mod(np.asarray(a) - np.asarray(b), 2 * np.pi)
    return np.minimum(d, 2 * np.pi - d)


def sidebands_closed(phase, levels: np.ndarray) -> np.ndarray:
    """Whether every sideband E_n = phase - 2 pi n lies outside the hull [lo, hi] of
    the ascending free levels (H0's eigenvalues) widened by GAP_MARGIN on each side:
    the quasi-energy sits in the gap of the folded band, where no free channel is
    open.  A phase on the widened band's edge is not in the gap, and where
    hi - lo + 2 GAP_MARGIN >= 2 pi no phase is."""
    lo, hi = levels[0] - GAP_MARGIN, levels[-1] + GAP_MARGIN
    return np.mod(np.asarray(phase) - lo, 2 * np.pi) > hi - lo


def reconstruct_mode(spec: QuasiEnergySpectrum, idx, t: float) -> np.ndarray:
    """Periodic eigenmode phi(t) = sum_n x_n exp(2 pi i n t) of eigenvector idx, from
    its mode blocks x_n: shape (d,), or, for an index array or a boolean mask, one
    column per eigenvector it picks, all from one contraction over the mode
    blocks."""
    phases = np.exp(2j * np.pi * spec.space.modes * (float(t) % 1.0))
    return np.tensordot(phases, spec.space.blocks(spec.vectors[:, idx]), axes=1)


@dataclass
class CorrespondenceReport:
    """Comparison of interior folded quasi-energies with monodromy eigenphases."""

    theta_phases: np.ndarray          # quasi-energies of the one-period operator
    max_match_distance: float         # interior folded -> nearest theta phase
    mean_match_distance: float        # over the full truncated spectrum, edge included
    coverage_distance: float          # theta phase -> nearest interior folded
    translate_counts: np.ndarray      # interior matches assigned to each theta phase
    mode_eigen_defect: float          # max || Theta phi(s) - e^{-i lambda} phi(s) ||


def correspondence_report(mono: Monodromy, n_modes: int) -> CorrespondenceReport:
    """Check both halves of the spectral correspondence at mode cutoff N.

    Interior folded quasi-energies of mono.model must reproduce the eigenphases
    of the monodromy Theta = U(s + 1, s) at s = mono.start as a multiset (each phase
    once per interior mode translate), and every interior eigenvector,
    resummed into a periodic mode phi(t), must satisfy the stroboscopic
    eigenvalue relation Theta phi(s) = e^{-i lambda} phi(s) at the same s.  The
    interior modes at s are the columns Phi of one reconstruct_mode call, Theta Phi
    is one product, and a column with ||phi|| < 1e-12 is left out of the defect.
    """
    k = build_floquet(mono.model, n_modes)
    spec = quasi_spectrum(k)
    if spec.interior.sum() == 0:
        raise NoInteriorError("no interior quasi-energies: window too close to the "
                              "truncation edge")
    theta_phases = np.sort(mono.quasi_energies)

    all_dists = circular_distance(spec.folded[:, None], theta_phases[None, :])
    dists = all_dists[spec.interior]
    nearest = np.argmin(dists, axis=1)
    max_match = float(dists[np.arange(len(dists)), nearest].max())
    # full-spectrum mean: the edge fraction shrinks with N, so this decays
    # even after the interior values have converged to the noise floor
    mean_match = float(all_dists.min(axis=1).mean())

    phi = reconstruct_mode(spec, spec.interior, mono.start)
    resid = mono.operator @ phi - np.exp(-1j * spec.values[spec.interior]) * phi
    norms = np.linalg.norm(phi, axis=0)
    kept = norms >= 1e-12
    defects = np.linalg.norm(resid[:, kept], axis=0) / norms[kept]
    return CorrespondenceReport(
        theta_phases=theta_phases,
        max_match_distance=max_match,
        mean_match_distance=mean_match,
        coverage_distance=float(dists.min(axis=0).max()),
        translate_counts=np.bincount(nearest, minlength=len(theta_phases)),
        mode_eigen_defect=float(defects.max(initial=0.0)),
    )

"""Truncated Floquet Hamiltonian on mode space and its spectral structure.

The extended-space operator acts on vectors x = (x_n), |n| <= N, with
d-dimensional fiber blocks: the (n, m) block is H_{n-m} for n != m and
2 pi n I + H0 + H_0-mode on the diagonal, the block-Toeplitz layout that
ModeSpace alone writes (sparse for K = K0 + V, dense for any other block
operator).  Its eigenvalues are quasi-energies;
the commutation with the mode shift generates the 2pi translation structure,
and the interior folded spectrum reproduces the eigenphases of the one-period
operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.sparse as sp

from .model import PeriodicHamiltonian
from .numerics import hermitian_eig
from .propagation import Monodromy

# edge rule: a state is truncation-corrupted when the norm fraction of its
# component in the outermost blocks exceeds 1% (i.e. probability 1e-4)
EDGE_NORM_LIMIT = 0.01
EDGE_BLOCKS = 2


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
    of that layout: `assemble` writes K sparse from it, `toeplitz` any
    block-Toeplitz matrix dense.
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

    def fiber_mass(self, vectors: np.ndarray) -> np.ndarray:
        """Per-column fiber-site occupation summed over modes: (d, n_columns)."""
        return (np.abs(self.blocks(vectors)) ** 2).sum(axis=0)

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
        """Dense block-Toeplitz matrix whose block (n, n - m) is blocks[m]: one (d, d)
        array, or a (2N+1, d, d) stack indexed by the column block n - m."""
        nb, d = self.n_blocks, self.fiber_dim
        out = np.zeros((nb, d, nb, d), dtype=np.complex128)
        for m, bm in blocks.items():
            n = self.row_blocks(m)
            out[n, :, n - m, :] = bm if bm.ndim == 2 else bm[n - m]
        return out.reshape(self.size, self.size)

    def assemble(self, h0: np.ndarray, modes: dict[int, np.ndarray] | None = None) -> sp.csr_array:
        """I (x) h0 + diag(2 pi n) (x) I + sum_m S^m (x) H_m for (d, d) blocks, in one
        COO -> CSR step from the blocks' nonzeros; without `modes`, the free K0.

        Bit for bit the sparse Kronecker sums kron(I, h0) + kron(diag(2 pi n), I) +
        sum_m kron(S^m, I) kron(I, H_m) in canonical (sorted) order: a diagonal
        entry is h0_ii + 2 pi n (the n = 0 zeros are left out, as the sums drop
        them), every other entry is one block's, and entries that come to zero
        are removed.
        """
        d = self.fiber_dim
        rows, cols, data = [], [], []
        for m, hm in [(0, h0), *(modes or {}).items()]:
            r, c = np.nonzero(hm)
            blocks = self.row_blocks(m)[:, None]   # row blocks n, columns n - m
            rows.append((blocks * d + r).ravel())
            cols.append(((blocks - m) * d + c).ravel())
            data.append(np.tile(hm[r, c], len(blocks)))
        frequencies = np.repeat(self.frequencies, d)
        shifted = np.flatnonzero(frequencies)
        rows.append(shifted)
        cols.append(shifted)
        data.append(frequencies[shifted].astype(np.complex128))
        # int32 indices where they fit, as scipy's own constructors choose
        index = np.int32 if self.size <= np.iinfo(np.int32).max else np.int64
        coords = (np.concatenate(rows).astype(index), np.concatenate(cols).astype(index))
        k = sp.coo_array((np.concatenate(data), coords), shape=(self.size,) * 2).tocsr()
        k.eliminate_zeros()
        return k

    def free_resolvent(self, h0: np.ndarray, zeta: complex) -> np.ndarray:
        """Blocks (H0 + 2 pi n - zeta)^{-1}, n = -N..N, stacked (2N+1, d, d)."""
        eig = hermitian_eig(h0)
        return np.stack([(eig.vectors * (1.0 / (eig.values + w - zeta))) @ eig.vectors.conj().T
                         for w in self.frequencies])


@dataclass
class FloquetMatrix:
    """Truncated mode-space Hamiltonian on (2N+1) modes x d-dimensional fiber."""

    fiber_dim: int
    n_modes: int
    matrix: np.ndarray

    @property
    def space(self) -> ModeSpace:
        return ModeSpace(self.n_modes, self.fiber_dim)

    @property
    def size(self) -> int:
        return self.space.size

    def block(self, n: int, m: int) -> np.ndarray:
        nb, d = self.space.n_blocks, self.fiber_dim
        return self.matrix.reshape(nb, d, nb, d)[n + self.n_modes, :, m + self.n_modes]


def floquet_operator(h: PeriodicHamiltonian, n_modes: int) -> sp.csr_array:
    """Sparse truncated mode-space Hamiltonian K; requires N >= mode support."""
    if n_modes < h.max_mode:
        raise ValueError(
            f"mode cutoff N={n_modes} below the interaction support M={h.max_mode}; "
            "this would silently truncate the interaction"
        )
    return ModeSpace(n_modes, h.dim).assemble(
        h.h0 + h.mode(0), {m: hm for m, hm in h.modes.items() if m != 0})


def build_floquet(h: PeriodicHamiltonian, n_modes: int) -> FloquetMatrix:
    """Dense truncated mode-space matrix, for the tasks that report whole spectra."""
    return FloquetMatrix(fiber_dim=h.dim, n_modes=n_modes,
                         matrix=floquet_operator(h, n_modes).toarray())


def shift_commutation_defect(k: FloquetMatrix) -> float:
    """Interior defect of K S - S K = 2 pi S on the truncated space, in max norm.

    The relation is exact on the rows n in [-N+1, N] and columns
    m in [-N, N-1] where the truncated shift is defined, and there it reads
    K[d:, d:] - K[:-d, :-d] = 2 pi I; the defect is zero in exact arithmetic
    (and at N = 0, where no such entry exists).
    """
    d = k.fiber_dim
    defect = k.matrix[d:, d:] - k.matrix[:-d, :-d]
    defect.flat[::defect.shape[0] + 1] -= 2 * np.pi
    return float(np.abs(defect).max(initial=0.0))


def shift_group_defect(k: FloquetMatrix, sigma: float) -> float:
    """Interior defect of exp(i J sigma) S exp(-i J sigma) = exp(2 pi i sigma) S.

    With the block phases p_n = exp(2 pi i n sigma) of exp(i J sigma), the
    conjugated shift's interior block (n, n - 1) is p_n conj(p_{n-1}).
    """
    p = np.exp(1j * k.space.frequencies * sigma)
    return float(np.abs(p[1:] * p[:-1].conj() - np.exp(2j * np.pi * sigma)).max(initial=0.0))


@dataclass
class QuasiEnergySpectrum:
    """Eigenvalues of a truncated Floquet matrix with folding and edge flags."""

    values: np.ndarray          # ascending
    folded: np.ndarray          # values mod 2pi in [0, 2pi)
    vectors: np.ndarray         # columns, aligned with values
    interior: np.ndarray        # bool mask: not corrupted by the truncation edge
    n_modes: int
    fiber_dim: int

    @property
    def space(self) -> ModeSpace:
        return ModeSpace(self.n_modes, self.fiber_dim)

    @property
    def interior_folded(self) -> np.ndarray:
        return self.folded[self.interior]

    def mode_blocks(self, idx: int) -> np.ndarray:
        """Eigenvector idx reshaped to (2N+1, d) mode blocks."""
        return self.space.blocks(self.vectors[:, idx])

    def spatial_mass(self) -> np.ndarray:
        """Per-eigenvector fiber-site occupation, summed over modes: (d, n_eig)."""
        return self.space.fiber_mass(self.vectors)


def quasi_spectrum(k: FloquetMatrix) -> QuasiEnergySpectrum:
    """Diagonalize the truncated Floquet matrix and fold to [0, 2pi).

    Eigenvectors whose component in the outermost EDGE_BLOCKS mode blocks
    per side exceeds EDGE_NORM_LIMIT of their norm are flagged as edge
    states and excluded from interior comparisons.
    """
    eig = hermitian_eig(k.matrix)
    return QuasiEnergySpectrum(
        values=eig.values,
        folded=np.mod(eig.values, 2 * np.pi),
        vectors=eig.vectors,
        interior=k.space.interior(eig.vectors),
        n_modes=k.n_modes,
        fiber_dim=k.fiber_dim,
    )


def circular_distance(a, b) -> np.ndarray:
    """Distance on the phase circle of circumference 2pi."""
    d = np.mod(np.asarray(a) - np.asarray(b), 2 * np.pi)
    return np.minimum(d, 2 * np.pi - d)


def reconstruct_mode(spec: QuasiEnergySpectrum, idx: int, t: float) -> np.ndarray:
    """Periodic eigenmode phi(t) = sum_n x_n exp(2 pi i n t) from mode blocks."""
    phases = np.exp(2j * np.pi * spec.space.modes * (float(t) % 1.0))
    return phases @ spec.mode_blocks(idx)


@dataclass
class CorrespondenceReport:
    """Comparison of interior folded quasi-energies with monodromy eigenphases."""

    n_modes: int
    theta_phases: np.ndarray          # quasi-energies of the one-period operator
    interior_folded: np.ndarray
    max_match_distance: float         # interior folded -> nearest theta phase
    mean_match_distance: float        # over the full truncated spectrum, edge included
    coverage_distance: float          # theta phase -> nearest interior folded
    counts: np.ndarray                # interior matches assigned to each theta phase
    mode_eigen_defect: float          # max || Theta phi(s) - e^{-i lambda} phi(s) ||


def correspondence_report(h: PeriodicHamiltonian, n_modes: int,
                          mono: Monodromy) -> CorrespondenceReport:
    """Check both halves of the spectral correspondence at mode cutoff N.

    Interior folded quasi-energies must reproduce the eigenphases of the
    monodromy Theta = U(s + 1, s) at s = mono.start as a multiset (each phase
    once per interior mode translate), and every interior eigenvector,
    resummed into a periodic mode phi(t), must satisfy the stroboscopic
    eigenvalue relation Theta phi(s) = e^{-i lambda} phi(s) at the same s.
    """
    k = build_floquet(h, n_modes)
    spec = quasi_spectrum(k)
    if spec.interior.sum() == 0:
        raise NoInteriorError("no interior quasi-energies: window too close to the "
                              "truncation edge")
    theta_phases = np.sort(mono.quasi_energies)

    folded = spec.interior_folded
    dists = circular_distance(folded[:, None], theta_phases[None, :])
    nearest = np.argmin(dists, axis=1)
    max_match = float(dists[np.arange(len(folded)), nearest].max())
    counts = np.bincount(nearest, minlength=len(theta_phases))
    coverage = float(np.min(dists, axis=0).max()) if len(folded) else np.inf
    # full-spectrum mean: the edge fraction shrinks with N, so this decays
    # even after the interior values have converged to the noise floor
    all_d = circular_distance(spec.folded[:, None], theta_phases[None, :]).min(axis=1)
    mean_match = float(all_d.mean())

    defects, theta = [], mono.operator    # formed once (on the window route, when read)
    for idx in np.flatnonzero(spec.interior):
        phi = reconstruct_mode(spec, idx, mono.start)
        norm = np.linalg.norm(phi)
        if norm < 1e-12:
            continue
        resid = theta @ phi - np.exp(-1j * spec.values[idx]) * phi
        defects.append(np.linalg.norm(resid) / norm)
    return CorrespondenceReport(
        n_modes=n_modes,
        theta_phases=theta_phases,
        interior_folded=np.sort(folded),
        max_match_distance=max_match,
        mean_match_distance=mean_match,
        coverage_distance=coverage,
        counts=counts,
        mode_eigen_defect=float(max(defects)) if defects else 0.0,
    )

"""Truncated Floquet Hamiltonian on mode space and its spectral structure.

The extended-space operator acts on vectors x = (x_n), |n| <= N, with
d-dimensional fiber blocks: the (n, m) block is H_{n-m} for n != m and
2 pi n I + H0 + H_0-mode on the diagonal, assembled by ModeSpace as the
Kronecker sum K = K0 + V.  Its eigenvalues are quasi-energies;
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
from .numerics import hermitian_eig, max_norm
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
    """(2N+1) mode blocks of fiber dimension d and the sparse Kronecker sums on them.

    With the shift (S x)_n = x_{n-1}: K0 = I (x) H + diag(2 pi n) (x) I,
    V = sum_m S^m (x) H_m, K = K0 + V and Q(zeta) = V (K0 - zeta)^{-1}
    (Shirley's extended-space form).
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

    def shift(self, m: int = 1) -> sp.csr_array:
        """S^m (x) I_d = kron(eye(2N+1, k=-m), I_d), the identity at offset -m d."""
        return sp.eye_array(self.size, k=-m * self.fiber_dim, format="csr")

    def blockdiag(self, blocks: np.ndarray):
        """I (x) h for one (d, d) block h, or blockdiag_n h_n for a (2N+1, d, d) stack."""
        if blocks.ndim == 2:  # the Kronecker product keeps only h's nonzeros
            return sp.kron(sp.eye_array(self.n_blocks), blocks, format="csr")
        nb = self.n_blocks
        return sp.bsr_array((blocks, np.arange(nb), np.arange(nb + 1)), shape=(self.size,) * 2)

    def assemble(self, h0: np.ndarray, modes: dict[int, np.ndarray] | None = None) -> sp.csr_array:
        """I (x) h0 + diag(2 pi n) (x) I + sum_m S^m (x) H_m for (d, d) blocks, in one
        COO -> CSR step from the blocks' nonzeros; without `modes`, the free K0.

        Bit for bit the Kronecker sums blockdiag(h0) + kron(diag(2 pi n), I) +
        coupling(modes) in canonical (sorted) order: a diagonal entry is
        h0_ii + 2 pi n (the n = 0 zeros are left out, as the sums drop them),
        every other entry is one block's, and entries that come to zero are
        removed.
        """
        nb, d = self.n_blocks, self.fiber_dim
        rows, cols, data = [], [], []
        for m, hm in [(0, h0), *(modes or {}).items()]:
            if abs(m) >= nb:
                continue
            r, c = np.nonzero(hm)
            blocks = np.arange(max(0, m), nb + min(0, m))[:, None]   # row blocks n, columns n - m
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

    def coupling(self, modes: dict[int, np.ndarray]) -> sp.csr_array:
        """sum_m S^m (x) H_m = sum_m (S^m (x) I) blockdiag(H_m): the (n, k) block is H_{n-k}.

        An H_m given as a (2N+1, d, d) stack varies with the column block k;
        modes beyond 2N drop out.
        """
        return sum((self.shift(m) @ self.blockdiag(hm) for m, hm in modes.items()
                    if abs(m) < self.n_blocks), sp.csr_array((self.size,) * 2, dtype=np.complex128))

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
    mode_diag: np.ndarray  # the 2 pi n block multipliers, length 2N+1

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
                         matrix=floquet_operator(h, n_modes).toarray(),
                         mode_diag=ModeSpace(n_modes, h.dim).frequencies)


def shift_commutation_defect(k: FloquetMatrix) -> float:
    """Interior defect of K S - S K = 2 pi S on the truncated space.

    The relation is exact on the rows n in [-N+1, N] and columns
    m in [-N, N-1] where the truncated shift is defined; the defect there
    is zero in exact arithmetic and is returned in max norm.
    """
    s = k.space.shift().toarray()
    return _interior_max(k, k.matrix @ s - s @ k.matrix - 2 * np.pi * s)


def shift_group_defect(k: FloquetMatrix, sigma: float) -> float:
    """Defect of exp(i J sigma) S exp(-i J sigma) = exp(2 pi i sigma) S (interior)."""
    s = k.space.shift().toarray()
    phases = np.repeat(np.exp(1j * k.mode_diag * sigma), k.fiber_dim)
    conj = (phases[:, None] * s) * phases.conj()[None, :]
    return _interior_max(k, conj - np.exp(2j * np.pi * sigma) * s)


def _interior_max(k: FloquetMatrix, defect: np.ndarray) -> float:
    """Max norm on the rows n > -N and columns m < N where the shift is defined."""
    d = k.fiber_dim
    return max_norm(defect[d:, :-d] if k.n_modes > 0 else defect)


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

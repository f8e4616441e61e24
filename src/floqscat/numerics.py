"""Dense complex linear algebra, and the sparse products, used by every other module.

Matrices are plain complex128 numpy arrays in row-major layout.  The
routines here add the structure checks (Hermitian, unitary) and diagnostics
that the rest of the package relies on.  `require_hermitian` is the one
Hermitian rule: a matrix, a stack of them (a grid of V(t_j), a sweep of
Magnus exponents) and a model's H0 and mode pairs H_-n = H_n^dagger are all
held to HERMITIAN_RTOL through it.  Eigenvectors are LAPACK's, with no phase
or tie-break convention: every reader takes them through |v|^2, V f(mu) V^H
or a residual norm.  Eigenvalues are ascending for Hermitian input (eigh's
order), and stably sorted by principal argument in [0, 2pi) for unitary
input.  Two runs on the same platform at the same BLAS thread count produce
identical output, as LAPACK returns the same bits there.

A unitary is diagonalized through its Hermitian part, whose eigenvectors are
clustered across gaps up to CLUSTER_GAP = 1e-4 so that the ring's near-pairs
of eigenphases +-theta (equal cos theta) share a cluster (`unitary_eig`).
A symmetric unitary (U = U^T to SYMMETRY_TOL), as a ring's monodromy is at
start 0 or 1/2, has a real Hermitian part, diagonalized in real arithmetic,
and so is a Hermitian matrix with no imaginary part (`hermitian_eig`).  A
unitary that commutes with a site reflection R, as the monodromy of a
mirror-symmetric ring does, is diagonalized on R's even and odd sectors
(`MirrorSectors`): two blocks of about half the side.

Every decomposition here runs in numpy.linalg; no module of the package
imports scipy.linalg, a second LAPACK.

Every numerical failure the package raises is a `NumericalError`, each class
keeping its builtin base as well; the CLI exits 3 on it.  A gate holds its
value as `not value <= bound`, so a NaN fails it.

A sparse operand is held as canonical CSR arrays (indptr, indices, data): the
pattern from sorted row-major keys (`csr_structure`), or a dense block's
nonzeros (`csr_arrays`).  Its products run through scipy's compiled CSR
multivector kernel (`csr_matvecs`), and the Magnus commutators through its
product and difference kernels: the module of kernels (`csr_kernels`) is loaded
here alone (`_csr_kernels`) and not through the scipy.sparse package.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np
# numpy loads this on first use (np.random.default_rng); loaded at import, a run's
# first timed call does not pay for it
import numpy.random  # noqa: F401

HERMITIAN_RTOL = 1e-12
UNITARY_TOL = 1e-10
CLUSTER_GAP = 1e-4
# the largest max|U - U^T| at which unitary_eig takes U as symmetric and
# diagonalizes its Hermitian part Re(U + U^T)/2 in real arithmetic: the
# imaginary part this drops is at most the asymmetry, below the backward
# error of the complex eigh itself (~ n eps).  A half-path Theta = A^T A is
# symmetric exactly and a window-route Theta to round-off, while a unitary
# without time-reversal symmetry is asymmetric at order one
SYMMETRY_TOL = 1e-14


def _csr_kernels():
    """scipy's compiled CSR kernels, scipy/sparse/_sparsetools, loaded as a module of
    their own without running scipy/__init__ or scipy/sparse/__init__: importing the
    scipy.sparse package costs a process about 0.2 s and 20 MB (its array-API layer,
    numpy.f2py and the sparse array classes), of which only these kernels are used.
    Raises ImportError where scipy does not ship them, at import, not mid-run."""
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        "_sparsetools", [os.path.join(p, "sparse") for p in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError("scipy's compiled CSR kernels (scipy/sparse/_sparsetools) not found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


csr_kernels = _csr_kernels()
# Y += A X for a CSR A and C-ordered blocks X, Y of n_vecs columns, read unchecked:
# csr_matvecs(n_row, n_col, n_vecs, indptr, indices, data, X, Y)
csr_matvecs = csr_kernels.csr_matvecs


def distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a, the array np.unique(a) gives, by a sort and a
    mask of the entries that differ from their predecessor: np.unique loads numpy.ma."""
    a = np.sort(a, axis=None)
    keep = np.ones(a.shape, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def csr_structure(keys: np.ndarray, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the CSR pattern holding the sorted, distinct row-major keys
    row * n_cols + col; int32 where the sizes fit, as scipy's constructors choose."""
    n_rows, n_cols = shape
    row, col = np.divmod(keys, n_cols)
    index = np.int32 if max(n_rows, n_cols, len(keys)) <= np.iinfo(np.int32).max else np.int64
    return np.searchsorted(row, np.arange(n_rows + 1)).astype(index), col.astype(index)


def csr_arrays(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, data) of the nonzero entries of the dense matrix a, row-major:
    the CSR arrays csr_matvecs reads."""
    keys = np.flatnonzero(a)
    return (*csr_structure(keys, a.shape), a.ravel()[keys])


class NumericalError(Exception):
    """A computation that cannot give a trustworthy result: every class of numerical
    failure is one, beside its builtin base, and the CLI exits 3 on it."""


class SingularMatrixError(NumericalError, RuntimeError):
    """Raised where a shifted operator is singular to working precision (a spectral point)."""


class NonUnitaryError(NumericalError, ValueError):
    """A matrix that must be unitary is not, to within the tolerance."""


def as_complex_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def check_square(a: np.ndarray) -> np.ndarray:
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return a


def hermitian_defect(a: np.ndarray) -> float:
    """max |A - A^H| entrywise."""
    return float(np.abs(a - a.conj().T).max())


def require_hermitian(defect, max_abs, subjects=None):
    """Raise unless the asymmetry max|A - A^H| is within HERMITIAN_RTOL x max(max|A|, 1).

    The package's one Hermitian rule.  `defect` and `max_abs` are one matrix's,
    or arrays of them over a stack, whose worst entry (the largest relative
    asymmetry) is held to the rule; `subjects`, one per entry, opens the
    message in place of "matrix is not Hermitian"."""
    defect = np.atleast_1d(np.asarray(defect, dtype=float))
    scale = np.maximum(np.broadcast_to(max_abs, defect.shape), 1.0)
    worst = int(np.argmax(defect / scale))
    if not defect[worst] <= HERMITIAN_RTOL * scale[worst]:   # a NaN, argmax's pick, fails
        subject = "matrix is not Hermitian" if subjects is None else subjects[worst]
        raise ValueError(
            f"{subject}: max asymmetry {defect[worst]:.3e} "
            f"exceeds {HERMITIAN_RTOL:.1e} x max|A| = {HERMITIAN_RTOL * scale[worst]:.3e}"
        )


def check_hermitian(a) -> np.ndarray:
    a = check_square(a)
    require_hermitian(hermitian_defect(a), float(np.abs(a).max()))
    return a


def unitary_defect(a: np.ndarray) -> float:
    """max |A^H A - I| entrywise, I subtracted on the diagonal in place."""
    gram = a.conj().T @ a
    gram.flat[::gram.shape[1] + 1] -= 1.0
    return float(np.abs(gram).max())


def adjoint_apply(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A^H x as conj(A^T conj(x)): the bits of a.conj().T @ x, C-ordered, without
    the copy of A^H (A^T is a view)."""
    y = a.T @ np.conj(x)
    return np.conj(y, out=y)


def check_unitary(a) -> np.ndarray:
    a = check_square(a)
    defect = unitary_defect(a)
    if not defect <= UNITARY_TOL:   # a NaN fails
        raise NonUnitaryError(
            f"matrix is not unitary: |A^H A - I| = {defect:.3e} > {UNITARY_TOL:.1e}")
    return a


@dataclass
class EigenDecomposition:
    """Eigenvalues plus orthonormal eigenvectors V (columns) and nothing else; the one
    change of basis through them (`apply` on columns, `to_eigenbasis` on rows,
    `matrix` dense).  A product with V^H or conj(V) is the conjugate of one with V,
    as in `adjoint_apply`: the same bits, and no L x L copy of V^H or conj(V).
    H0's is the model's `free_eig`, read by every route."""

    values: np.ndarray
    vectors: np.ndarray

    def apply(self, phases: np.ndarray, x: np.ndarray) -> np.ndarray:
        """V (phases (V^H x)) for a vector or a block x of columns, in x's shape: the
        function of the matrix that takes the value phases[k] on eigenvector k,
        without forming it or V^H (adjoint_apply)."""
        y = adjoint_apply(self.vectors, x)
        return self.vectors @ (phases.reshape((-1,) + (1,) * (y.ndim - 1)) * y)

    def to_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        """x @ conj(V), each row x_j as V^H x_j: conj(conj(x) @ V)."""
        return np.conj(np.conj(x) @ self.vectors)

    def matrix(self, weights: np.ndarray) -> np.ndarray:
        """V diag(w) V^H, dense, for each row w of weights (shape (..., d) gives
        (..., d, d)): conj(conj(V w) @ V^T)."""
        y = self.vectors * weights[..., None, :]
        y = np.conj(y, out=y) @ self.vectors.T
        return np.conj(y, out=y)

    def exp(self, tau: float) -> np.ndarray:
        """exp(-i tau A) = V e^{-i tau mu} V^H for the Hermitian A decomposed here:
        each factor exactly a phase, the identity exactly at tau = 0."""
        if tau == 0.0:
            return np.eye(len(self.values), dtype=np.complex128)
        return self.matrix(np.exp(-1j * tau * self.values))


def hermitian_eig(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, values ascending.

    numpy.linalg.eigh's values and vectors, as it returns them.  A matrix whose
    imaginary part is all zero, a real symmetric one such as a ring's H0, is
    diagonalized in real arithmetic (eigh of a.real, about a third of the
    complex eigh's time); its real orthogonal eigenvectors are returned as
    complex columns.  Where eigh does not converge (a matrix whose entries span
    most of the float range), NumericalError names the largest entry.
    """
    a = check_hermitian(a)
    try:
        if a.imag.any():
            values, vectors = np.linalg.eigh(a)
        else:
            values, vectors = np.linalg.eigh(a.real)
            vectors = vectors.astype(np.complex128)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigendecomposition failed ({exc}) on a matrix of "
                             f"largest entry {max_norm(a):.3e}") from exc
    return EigenDecomposition(values=values, vectors=vectors)


def _diagonalize(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, V) of a unitary checked by check_unitary, in no particular order:
    the eigenvectors of C = (U + U^H)/2, each cluster rotated (unitary_eig)."""
    u = check_unitary(u)
    if np.abs(u - u.T).max() <= SYMMETRY_TOL:
        re = u.real
        wc, basis = np.linalg.eigh((re + re.T) / 2)
        basis = basis.astype(np.complex128)
    else:
        wc, basis = np.linalg.eigh((u + u.conj().T) / 2)
    cuts = [0, *(np.flatnonzero(np.diff(wc) > CLUSTER_GAP) + 1), len(wc)]
    for start, stop in zip(cuts[:-1], cuts[1:]):
        if stop - start > 1:
            block = basis[:, start:stop]
            rot, _ = np.linalg.qr(np.linalg.eig(block.conj().T @ u @ block)[1])
            basis[:, start:stop] = block @ rot
    return (basis.conj() * (u @ basis)).sum(axis=0), basis   # diag(B^H U B): one BLAS product


class MirrorSectors:
    """The even and odd sectors of a site reflection R (an involution of the indices):
    the orthonormal real basis (e_a + e_R[a]) / sqrt 2 for each orbit a < R[a], then
    e_f for each fixed point f = R[f] (even), and (e_a - e_R[a]) / sqrt 2 (odd).
    `fold` takes a block of rows to its even and odd rows, `unfold` takes sector
    coefficients back to site rows."""

    def __init__(self, mirror: np.ndarray):
        sites = np.arange(len(mirror))
        self.a = np.flatnonzero(sites < mirror)
        self.b = mirror[self.a]
        self.fixed = np.flatnonzero(sites == mirror)
        self.size = len(mirror)

    def fold(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(even rows, odd rows) of x in the sectors' bases."""
        c = np.sqrt(0.5)
        xa, xb = x[self.a], x[self.b]
        return np.concatenate([(xa + xb) * c, x[self.fixed]]), (xa - xb) * c

    def blocks(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """U's blocks on the even and the odd sector; NonUnitaryError where an even-odd
        coupling entry exceeds UNITARY_TOL.  The folded rows go when it returns."""
        even, odd = self.fold(u)
        ee, eo = self.fold(even.T)
        oe, oo = self.fold(odd.T)
        coupling = float(np.maximum(np.abs(eo).max(initial=0.0), np.abs(oe).max(initial=0.0)))
        if not coupling <= UNITARY_TOL:   # a NaN fails
            raise NonUnitaryError(
                f"matrix does not commute with the mirror: even-odd coupling {coupling:.3e} > "
                f"{UNITARY_TOL:.1e}")
        return ee.T, oo.T

    def eig(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values, V) of U from its two blocks (_diagonalize), V unfolded to sites:
        the even sector's eigenpairs, then the odd sector's."""
        even, odd = self.blocks(u)
        values_even, even = _diagonalize(even)
        values_odd, odd = _diagonalize(odd)
        return np.concatenate([values_even, values_odd]), self.unfold(even, odd)

    def unfold(self, even: np.ndarray, odd: np.ndarray) -> np.ndarray:
        """Site rows of the sector coefficients: even columns, then odd columns."""
        c, pairs = np.sqrt(0.5), len(self.a)
        out = np.zeros((self.size, even.shape[1] + odd.shape[1]), dtype=np.complex128)
        k = even.shape[1]
        out[self.a, :k] = out[self.b, :k] = even[:pairs] * c
        out[self.fixed, :k] = even[pairs:]
        out[self.a, k:] = odd * c
        out[self.b, k:] = -odd * c
        return out


def unitary_eig(u, mirror: np.ndarray | None = None) -> EigenDecomposition:
    """Eigendecomposition of a unitary matrix.

    Diagonalizes C = (U + U^H)/2, which commutes with U, and clusters its
    eigenvectors across every gap in C's spectrum up to CLUSTER_GAP; each cluster B
    spans an invariant subspace of U, and one of several members is rotated
    by the Q factor (numpy.linalg.qr) of the eigenvectors of M = B^H U B
    (numpy.linalg.eig, in the order of its Schur form).  Those eigenvectors are
    M's Schur vectors times an upper-triangular matrix, so Q is M's Schur
    basis, its eigenbasis since M is normal: it separates M's eigenvalues
    themselves, both the pairs +-theta that share cos(theta) and the pairs
    near +-pi/2 that share sin(theta).  The gap is wide because eigenphases
    +-theta share cos(theta): the bipartite ring's near-pairs differ by ~1e-6
    in it, and a pair split between clusters keeps eigh's eps/gap mixing.
    Eigenvalues are stably sorted by principal argument in [0, 2pi); the
    eigenvectors carry no phase or tie-break convention.

    A symmetric U (max|U - U^T| <= SYMMETRY_TOL), the Floquet operator of a
    time-reversal-invariant drive, has the real C = Re(U + U^T)/2 and a real
    orthogonal eigenbasis (Haake, Quantum Signatures of Chaos, ch. 2): C is
    then diagonalized by a real eigh, cheaper than the complex one, and the
    clusters are rotated as above.

    Given a site reflection `mirror` R that U commutes with (a model's
    LatticeModel.mirror), U is folded into its blocks on R's even and odd
    sectors (MirrorSectors; 129 and 127 rows on a 256-site ring), each
    diagonalized as above, its own check_unitary included, and the
    eigenvectors unfolded to sites: two eighs of about half the side, about a
    quarter of the one eigh's work.  The even-odd coupling blocks must be at
    most UNITARY_TOL entrywise, or NonUnitaryError is raised.  An eigenvector
    of either sector is one of U; the two routes agree to round-off over the
    eigenphase gaps, and a pair split between sectors is separated exactly.
    """
    if mirror is None:
        values, basis = _diagonalize(u)
    else:
        values, basis = MirrorSectors(mirror).eig(check_square(u))
    order = np.argsort(np.mod(np.angle(values), 2 * np.pi), kind="stable")
    return EigenDecomposition(values=values[order], vectors=basis[:, order])


def expm_hermitian(h, tau: float) -> np.ndarray:
    """exp(-i tau H) for Hermitian H, unitary by construction (`EigenDecomposition.exp`
    of hermitian_eig(H))."""
    return hermitian_eig(h).exp(tau)


def max_norm(a: np.ndarray) -> float:
    return float(np.abs(a).max())


def op_norm(a: np.ndarray) -> float:
    """Operator 2-norm (largest singular value); max|A|, inf or NaN, where an entry of A
    is not finite, on which LAPACK's SVD does not converge."""
    return float(np.linalg.norm(a, 2)) if np.isfinite(a).all() else max_norm(a)

"""Dense complex linear algebra used by every other module.

Matrices are plain complex128 numpy arrays in row-major layout.  The
routines here add the structure checks (Hermitian, unitary), deterministic
eigenvector conventions and diagnostics that the rest of the package relies
on.  Eigenvalue ordering is fixed: ascending for Hermitian input, ascending
principal argument in [0, 2pi) for unitary input, with exact ties broken by
a lexicographic comparison of the phase-fixed eigenvector entries, so two
runs on the same platform produce identical output.

A unitary is diagonalized through its Hermitian part, whose eigenvectors are
clustered across gaps up to CLUSTER_GAP = 1e-4 so that the ring's near-pairs
of eigenphases +-theta (equal cos theta) share a cluster (`unitary_eig`).
A symmetric unitary (U = U^T to SYMMETRY_TOL), as a ring's monodromy is at
start 0 or 1/2, has a real Hermitian part, diagonalized in real arithmetic.

An EigenDecomposition holds its eigenvalues and eigenvectors V and nothing
else: `apply` takes V^H x by `adjoint_apply`, conj(V^T conj(x)), whose bits
are those of the product with V^H, so no L x L copy of V^H is made or kept.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve, schur
from scipy.linalg.lapack import zgecon

HERMITIAN_RTOL = 1e-12
UNITARY_TOL = 1e-10
CLUSTER_GAP = 1e-4
# the largest max|U - U^T| at which unitary_eig takes U as symmetric and
# diagonalizes its Hermitian part Re(U + U^T)/2 in real arithmetic: the
# imaginary part this drops is at most the asymmetry, below the backward
# error of the complex eigh itself (~ n eps: 5.7e-14 at n = 256).  A
# half-path Theta = A^T A is symmetric exactly, a window-route Theta to
# 2.2e-16 (256 sites), while a unitary without time-reversal symmetry is
# asymmetric at order one
SYMMETRY_TOL = 1e-14
PIVOT_RTOL = 1e-14


class SingularMatrixError(RuntimeError):
    """Raised when a solve hits a pivot below threshold (spectral point)."""


class NonUnitaryError(ValueError):
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


def require_hermitian(defect: float, max_abs: float, rtol: float = HERMITIAN_RTOL):
    """Raise unless the asymmetry max|A - A^H| is within rtol x max(max|A|, 1)."""
    scale = max(max_abs, 1.0)
    if defect > rtol * scale:
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {defect:.3e} "
            f"exceeds {rtol:.1e} x max|A| = {rtol * scale:.3e}"
        )


def check_hermitian(a, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    a = check_square(a)
    require_hermitian(hermitian_defect(a), float(np.abs(a).max()), rtol)
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


def check_unitary(a, tol: float = UNITARY_TOL) -> np.ndarray:
    a = check_square(a)
    defect = unitary_defect(a)
    if defect > tol:
        raise NonUnitaryError(f"matrix is not unitary: |A^H A - I| = {defect:.3e} > {tol:.1e}")
    return a


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Deterministic eigenvector phase: largest-magnitude entry real positive.

    The first entry of largest magnitude of each column is z, and the column
    is multiplied by conj(z)/|z|; a zero column is left as it is."""
    z = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    scale = np.abs(z)
    moved = scale > 0
    out = vectors * (np.conj(z) / np.where(moved, scale, 1.0))
    out[:, ~moved] = vectors[:, ~moved]    # a zero column keeps its signed zeros
    return out


def _lex_tiebreak(values: np.ndarray, vectors: np.ndarray, keys: np.ndarray):
    """Reorder columns inside runs of exactly equal sort keys lexicographically;
    the inputs themselves where no key repeats."""
    if not (keys[1:] == keys[:-1]).any():
        return values, vectors
    order = np.arange(len(keys))
    start = 0
    while start < len(keys):
        stop = start + 1
        while stop < len(keys) and keys[stop] == keys[start]:
            stop += 1
        if stop - start > 1:
            block = sorted(
                range(start, stop),
                key=lambda j: tuple(
                    np.round(np.concatenate([vectors[:, j].real, vectors[:, j].imag]), 12)
                ),
            )
            order[start:stop] = block
        start = stop
    return values[order], vectors[:, order]


@dataclass
class EigenDecomposition:
    """Eigenvalues plus orthonormal eigenvectors (columns); no adjoint is kept."""

    values: np.ndarray
    vectors: np.ndarray

    def residual(self, a: np.ndarray) -> float:
        """max_k ||A v_k - mu_k v_k||_2."""
        r = a @ self.vectors - self.vectors * self.values
        return float(np.linalg.norm(r, axis=0).max())

    def apply(self, phases: np.ndarray, x: np.ndarray) -> np.ndarray:
        """V (phases (V^H x)) for a vector or a block x of columns, in x's shape: the
        function of the matrix that takes the value phases[k] on eigenvector k,
        without forming it or V^H (adjoint_apply)."""
        y = adjoint_apply(self.vectors, x)
        return self.vectors @ (phases.reshape((-1,) + (1,) * (y.ndim - 1)) * y)

    def exp(self, tau: float) -> np.ndarray:
        """exp(-i tau A) = V e^{-i tau mu} V^H for the Hermitian A decomposed here:
        each factor exactly a phase, the identity exactly at tau = 0."""
        if tau == 0.0:
            return np.eye(len(self.values), dtype=np.complex128)
        return (self.vectors * np.exp(-1j * tau * self.values)) @ self.vectors.conj().T


def hermitian_eig(a, rtol: float = HERMITIAN_RTOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, values ascending.

    Backed by LAPACK (numpy.linalg.eigh) with the deterministic phase and
    tie-break conventions applied on top.
    """
    a = check_hermitian(a, rtol)
    values, vectors = np.linalg.eigh(a)
    vectors = _fix_phases(vectors)
    values, vectors = _lex_tiebreak(values, vectors, values)
    return EigenDecomposition(values=values, vectors=vectors)


def unitary_eig(u, tol: float = UNITARY_TOL, gap: float = CLUSTER_GAP) -> EigenDecomposition:
    """Eigendecomposition of a unitary matrix.

    Diagonalizes C = (U + U^H)/2, which commutes with U, and clusters its
    eigenvectors across every gap in C's spectrum up to `gap`; each cluster B
    spans an invariant subspace of U, and one of several members is rotated
    by the complex Schur vectors of B^H U B.  The gap is wide because
    eigenphases +-theta share cos(theta): the bipartite ring's near-pairs
    differ by ~1e-6 in it, and a pair split between clusters keeps eigh's
    eps/gap mixing.  Eigenvalues are sorted by principal argument in [0, 2pi).

    A symmetric U (max|U - U^T| <= SYMMETRY_TOL), the Floquet operator of a
    time-reversal-invariant drive, has the real C = Re(U + U^T)/2 and a real
    orthogonal eigenbasis (Haake, Quantum Signatures of Chaos, ch. 2): C is
    then diagonalized by a real eigh, at a third of the complex one's cost,
    and the clusters are rotated as above.
    """
    u = check_unitary(u, tol)
    if np.abs(u - u.T).max() <= SYMMETRY_TOL:
        re = u.real
        wc, basis = np.linalg.eigh((re + re.T) / 2)
        basis = basis.astype(np.complex128)
    else:
        wc, basis = np.linalg.eigh((u + u.conj().T) / 2)
    cuts = [0, *(np.flatnonzero(np.diff(wc) > gap) + 1), len(wc)]
    for start, stop in zip(cuts[:-1], cuts[1:]):
        if stop - start > 1:
            block = basis[:, start:stop]
            _, rot = schur(block.conj().T @ u @ block, output="complex")
            basis[:, start:stop] = block @ rot

    values = (basis.conj() * (u @ basis)).sum(axis=0)   # diag(B^H U B): one BLAS product
    args = np.mod(np.angle(values), 2 * np.pi)
    order = np.argsort(args, kind="stable")
    values, basis, args = values[order], basis[:, order], args[order]
    basis = _fix_phases(basis)
    values, basis = _lex_tiebreak(values, basis, args)
    return EigenDecomposition(values=values, vectors=basis)


def expm_hermitian(h, tau: float) -> np.ndarray:
    """exp(-i tau H) for Hermitian H, unitary by construction (`EigenDecomposition.exp`
    of hermitian_eig(H))."""
    return hermitian_eig(h).exp(tau)


def solve(a, b, pivot_rtol: float = PIVOT_RTOL):
    """Solve A x = b by partial-pivot LU.  Returns (x, condition_estimate).

    Raises SingularMatrixError when a pivot falls below
    pivot_rtol * max row norm, which downstream code interprets as the
    shifted operator hitting a spectral point.
    """
    a = check_square(a)
    b = np.asarray(b, dtype=np.complex128)
    row_norm = float(np.abs(a).sum(axis=1).max())
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # pivot check below covers the singular case
            lu, piv = lu_factor(a)
    except np.linalg.LinAlgError as exc:  # exactly singular
        raise SingularMatrixError(f"factorization failed: {exc}") from exc
    pivots = np.abs(np.diag(lu))
    if row_norm == 0.0 or pivots.min() < pivot_rtol * row_norm:
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below threshold "
            f"{pivot_rtol:.1e} x max row norm {row_norm:.3e}"
        )
    rcond, info = zgecon(lu, row_norm, norm="I")
    cond = float(1.0 / rcond) if rcond > 0 else np.inf
    if info != 0:
        raise SingularMatrixError(f"condition estimate failed (info={info})")
    x = lu_solve((lu, piv), b)
    return x, cond


def max_norm(a: np.ndarray) -> float:
    return float(np.abs(a).max())


def op_norm(a: np.ndarray) -> float:
    """Operator 2-norm (largest singular value)."""
    return float(np.linalg.norm(a, 2))

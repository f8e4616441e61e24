"""Periodic-boundary resolvents, factorized perturbations, and bound-state scans.

The free operator is K0 = -i d/dt + H0 on period-1 functions.  Its resolvent
at non-real lambda acts on a grid function f as

    R0(lambda) f(t) = i int_0^t e^{-i lambda (s-t)} e^{i H0 (s-t)} f(s) ds
                    + i (e^{-i lambda} e^{i H0} - I)^{-1}
                        int_0^1 e^{-i lambda (s-t)} e^{i H0 (s-t)} f(s) ds,

with the denominator read as an operator inverse applied to the full-period
integral.  Both integrals are evaluated by the trapezoidal rule on the
uniform grid t_j = j/N_t; in the H0 eigenbasis this collapses to cumulative
sums per eigencomponent, and the resulting grid operator is second-order
accurate with leading error -(Delta^2/12) (K0 - lambda) f.

The factorized perturbation uses the operator square root A(t) = |V(t)|^{1/2}
and B(t) = |V(t)|^{1/2} sgn V(t), so B A = V pointwise, and the full
resolvent follows the correction formula
R = R0 - [B R0(conj lambda)]^H [I + A R0 B]^{-1} A R0.

The mode-space block operator (Q(zeta) x)_n = sum_k V_{n-k} (H0 + 2 pi k -
zeta)^{-1} x_k drives the norm-decay probes and the bound-state scan: a
quasi-energy lambda off the free spectrum is an eigenvalue exactly when
I + Q(lambda + i0) is singular, and the corresponding mode vector is
recovered from the null direction.  The scan never forms Q: with the sparse
K = K0 + V, I + Q(zeta) = (K - zeta)(K0 - zeta)^{-1}, so its inverse is one
sparse LU solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize_scalar
from scipy.sparse.linalg import splu

from .floquet import ModeSpace, floquet_operator, start_vector
from .model import PeriodicHamiltonian
from .numerics import SingularMatrixError, hermitian_eig, solve

SGN_FLOOR = 1e-13
# inverse iteration for the smallest singular pair of I + Q stops when s moves by
# at most this much relative (1-7 steps on the driven ring's bound states)
INVERSE_ITERATION_RTOL = 1e-12
INVERSE_ITERATION_MAXITER = 100


class ThresholdProximityError(ValueError):
    """Candidate quasi-energy too close to the free spectrum for a null scan."""


class InverseIterationError(RuntimeError):
    """The smallest singular value of I + Q did not settle within the iteration budget."""


@dataclass
class TimeGridFunction:
    """Fiber-valued function sampled on the uniform period grid t_j = j/N_t."""

    values: np.ndarray  # shape (N_t, d)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.values.ndim != 2:
            raise ValueError("grid values must have shape (N_t, d)")

    @property
    def n_t(self) -> int:
        return self.values.shape[0]

    @property
    def fiber_dim(self) -> int:
        return self.values.shape[1]

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.n_t) / self.n_t

    def norm(self) -> float:
        """L2([0,1]) norm under the grid measure dt = 1/N_t."""
        return float(np.sqrt((np.abs(self.values) ** 2).sum() / self.n_t))


def _check_offaxis(lam: complex) -> complex:
    lam = complex(lam)
    if lam.imag == 0.0:
        raise ValueError("resolvent requires Im(lambda) != 0")
    if abs(lam.imag) > 500.0:
        raise ValueError("|Im lambda| too large for the kernel exponentials")
    return lam


def r0_apply(h0: np.ndarray, lam: complex, f: TimeGridFunction) -> TimeGridFunction:
    """Apply the free periodic resolvent to a grid function (trapezoid rule)."""
    lam = _check_offaxis(lam)
    eig = hermitian_eig(h0)
    if f.fiber_dim != h0.shape[0]:
        raise ValueError(f"fiber dim {f.fiber_dim} does not match H0 dim {h0.shape[0]}")
    n_t = f.n_t
    t = f.grid
    comp = f.values @ eig.vectors.conj()          # components in the H0 eigenbasis
    w = 1j * (eig.values - lam)                   # kernel exp(w (s - t)) per component
    g = np.exp(np.outer(t, w)) * comp
    partial = np.zeros_like(g)
    partial[1:] = np.cumsum((g[:-1] + g[1:]) / 2.0, axis=0) / n_t
    g_end = np.exp(w) * comp[0]                   # s = 1 endpoint, f periodic
    full = partial[-1] + (g[-1] + g_end) / 2.0 / n_t
    out = 1j * np.exp(np.outer(-t, w)) * (partial + full / (np.exp(w) - 1.0))
    return TimeGridFunction(out @ eig.vectors.T)


def r0_matrix(h0: np.ndarray, lam: complex, n_t: int) -> np.ndarray:
    """Dense grid-space matrix of the free resolvent, shape (N_t d, N_t d).

    Assembled as a circulant per H0 eigencomponent: entry (j, k) carries the
    kernel at offset (k - j)/N_t mod 1, with the jump at the diagonal
    averaged.  Algebraically identical to driving r0_apply with basis
    columns; exact adjoint symmetry R0(lambda)^H = R0(conj lambda) holds at
    the matrix level.
    """
    lam = _check_offaxis(lam)
    eig = hermitian_eig(h0)
    d = h0.shape[0]
    offs = (np.subtract.outer(np.arange(n_t), np.arange(n_t)).T % n_t) / n_t
    w = 1j * (eig.values - lam)
    pref = 1j / (np.exp(w) - 1.0)
    kern = np.empty((d, n_t, n_t), dtype=np.complex128)
    for a in range(d):
        k = pref[a] * np.exp(w[a] * offs)
        diag = pref[a] * (1.0 + np.exp(w[a])) / 2.0
        np.fill_diagonal(k, diag)
        kern[a] = k
    v = eig.vectors
    mat = np.einsum("ajk,pa,qa->jpkq", kern, v, v.conj(), optimize=True) / n_t
    return mat.reshape(n_t * d, n_t * d)


def spectral_derivative(values: np.ndarray) -> np.ndarray:
    """d/dt of periodic grid samples via the discrete Fourier transform."""
    n_t = values.shape[0]
    freq = np.fft.fftfreq(n_t, d=1.0 / n_t)
    return np.fft.ifft(2j * np.pi * freq[:, None] * np.fft.fft(values, axis=0), axis=0)


def resolvent_residual(h0: np.ndarray, lam: complex, f: TimeGridFunction) -> float:
    """||(-i d/dt + H0 - lambda) R0 f - f|| / ||f|| with spectral differentiation."""
    g = r0_apply(h0, lam, f)
    back = -1j * spectral_derivative(g.values) + g.values @ h0.T - lam * g.values
    return float(np.linalg.norm(back - f.values) / np.linalg.norm(f.values))


def mode_oracle_apply(h0: np.ndarray, lam: complex, f: TimeGridFunction) -> TimeGridFunction:
    """Independent mode-space route: diagonal action (2 pi n + H0 - lambda)^{-1}.

    Exact on band-limited inputs; used as the oracle the grid implementation
    is measured against.
    """
    lam = _check_offaxis(lam)
    eig = hermitian_eig(h0)
    n_t = f.n_t
    comp = np.fft.fft(f.values @ eig.vectors.conj(), axis=0) / n_t
    freq = np.fft.fftfreq(n_t, d=1.0 / n_t)
    mult = 1.0 / (2 * np.pi * freq[:, None] + eig.values[None, :] - lam)
    out = np.fft.ifft(comp * mult, axis=0) * n_t
    return TimeGridFunction(out @ eig.vectors.T)


def k0_grid_matrix(h0: np.ndarray, n_t: int) -> np.ndarray:
    """Discretized -i d/dt + H0 on the grid space (spectral differentiation)."""
    d = h0.shape[0]
    deriv = np.fft.ifft(
        2j * np.pi * np.fft.fftfreq(n_t, d=1.0 / n_t)[:, None] * np.fft.fft(np.eye(n_t), axis=0),
        axis=0,
    )
    return np.kron(-1j * deriv, np.eye(d)) + np.kron(np.eye(n_t), h0)


@dataclass
class FactorizedPotential:
    """Grid multiplication operators A(t) = |V|^{1/2}, B(t) = |V|^{1/2} sgn V."""

    a_ops: np.ndarray  # shape (N_t, d, d)
    b_ops: np.ndarray

    @property
    def n_t(self) -> int:
        return self.a_ops.shape[0]

    @property
    def fiber_dim(self) -> int:
        return self.a_ops.shape[1]

    def factorization_defect(self, v_ops: np.ndarray) -> float:
        """max_j |B(t_j) A(t_j) - V(t_j)|."""
        return float(np.abs(np.einsum("jpr,jrq->jpq", self.b_ops, self.a_ops) - v_ops).max())


def factorized_potential(h: PeriodicHamiltonian, n_t: int) -> FactorizedPotential:
    """Factorize V(t_j) through its eigendecomposition at each grid point.

    Eigenvalues below SGN_FLOOR in magnitude are treated as zero with
    sgn 0 = 0, so B A = V holds exactly on the retained spectrum.
    """
    d = h.dim
    a_ops = np.empty((n_t, d, d), dtype=np.complex128)
    b_ops = np.empty_like(a_ops)
    for j in range(n_t):
        v = h.potential(j / n_t)
        eig = hermitian_eig(v)
        mags = np.abs(eig.values)
        root = np.sqrt(mags)
        sgn = np.where(mags > SGN_FLOOR, np.sign(eig.values), 0.0)
        vecs = eig.vectors
        a_ops[j] = (vecs * root) @ vecs.conj().T
        b_ops[j] = (vecs * (root * sgn)) @ vecs.conj().T
    return FactorizedPotential(a_ops=a_ops, b_ops=b_ops)


def _block_multiply(ops: np.ndarray, mat: np.ndarray, side: str) -> np.ndarray:
    """Multiply a grid matrix by a block-diagonal multiplication operator."""
    n_t, d = ops.shape[0], ops.shape[1]
    view = mat.reshape(n_t, d, n_t, d)
    if side == "left":
        out = np.einsum("jpr,jrkq->jpkq", ops, view, optimize=True)
    else:
        out = np.einsum("jpkr,krq->jpkq", view, ops, optimize=True)
    return out.reshape(n_t * d, n_t * d)


def q_factorized(h: PeriodicHamiltonian, lam: complex, n_t: int,
                 fact: FactorizedPotential | None = None):
    """Grid matrix of A R0(lambda) B with its Schmidt (Frobenius) norm.

    Returns (matrix, schmidt_norm).  V identically zero gives the zero matrix.
    """
    lam = _check_offaxis(lam)
    fact = fact or factorized_potential(h, n_t)
    r0 = r0_matrix(h.h0, lam, n_t)
    q = _block_multiply(fact.a_ops, _block_multiply(fact.b_ops, r0, "right"), "left")
    return q, float(np.linalg.norm(q))


def full_resolvent(h: PeriodicHamiltonian, lam: complex, n_t: int):
    """Grid matrix of the full periodic resolvent via the factorized correction.

    R = R0 - [B R0(conj lambda)]^H [I + Q]^{-1} A R0 with Q = A R0 B.
    Returns (matrix, cond) where cond estimates the conditioning of I + Q;
    a singular I + Q (an exceptional point) raises SingularMatrixError.
    """
    lam = _check_offaxis(lam)
    fact = factorized_potential(h, n_t)
    r0 = r0_matrix(h.h0, lam, n_t)
    if not h.modes:
        return r0, 1.0
    a_r0 = _block_multiply(fact.a_ops, r0, "left")
    q = _block_multiply(fact.b_ops, a_r0, "right")
    r0_bar = r0_matrix(h.h0, np.conj(lam), n_t)
    left = (_block_multiply(fact.b_ops, r0_bar, "left")).conj().T
    dim = q.shape[0]
    try:
        x, cond = solve(np.eye(dim) + q, a_r0)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"I + Q(lambda) singular at lambda={lam} (exceptional set)"
        ) from exc
    return r0 - left @ x, cond


def grid_potential(h: PeriodicHamiltonian, n_t: int) -> np.ndarray:
    """V(t_j) stacked, shape (N_t, d, d)."""
    return np.stack([h.potential(j / n_t) for j in range(n_t)])


def block_q(h: PeriodicHamiltonian, zeta: complex, n_modes: int) -> np.ndarray:
    """Mode-space block operator (Q x)_n = sum_k V_{n-k} (H0 + 2 pi k - zeta)^{-1} x_k."""
    zeta = complex(zeta)
    if zeta.imag == 0.0:
        raise ValueError("block resolvent requires Im(zeta) != 0")
    space = ModeSpace(n_modes, h.dim)
    r0 = space.free_resolvent(h.h0, zeta)
    # Q = V blockdiag(R0_k) with each block a dense d x d product H_m R0_k, which rounds
    # like the per-block definition (a sparse V @ blockdiag(R0) sums in another order)
    return space.coupling({m: hm @ r0 for m, hm in h.modes.items()}).toarray()


def match_eigenvalues(a: np.ndarray, b: np.ndarray, floor: float) -> float:
    """Greedy nearest matching of two complex eigenvalue multisets above a floor.

    Returns the largest matching distance among eigenvalues of `a` with
    magnitude above `floor` (each matched to its nearest unused partner
    in `b`).
    """
    sel = np.abs(a) >= floor
    picked = np.asarray(a)[sel]
    pool = list(np.asarray(b))
    worst = 0.0
    for z in sorted(picked, key=lambda z: -abs(z)):
        dists = [abs(z - p) for p in pool]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        pool.pop(j)
    return worst


def free_spectrum_distance(h0: np.ndarray, lam: float) -> float:
    """Distance of a real quasi-energy to the translated free spectrum."""
    evals = np.linalg.eigvalsh(h0)[:, None]
    shifts = np.round((lam - evals) / (2 * np.pi)) + np.array([-1.0, 0.0, 1.0])
    return float(np.abs(lam - (evals + 2 * np.pi * shifts)).min())


@dataclass
class BoundStateVerdict:
    """Outcome of the I + Q null-vector scan at a candidate quasi-energy."""

    candidate: float
    refined: float
    confirmed: bool
    smin_ladder: list
    smin_extrapolated: float
    residual: float
    threshold_distance: float
    mode_vector: np.ndarray  # reconstructed psi over modes, shape (2N+1, d)


def smallest_singular_pair(k, k0, zeta: complex):
    """Smallest singular value s and right singular vector phi of I + Q(zeta).

    k and k0 are the sparse K = K0 + V and K0 of one mode space
    (floquet_operator, ModeSpace.free).  Since I + Q(zeta) =
    (K - zeta)(K0 - zeta)^{-1}, its inverse and inverse adjoint each cost one
    solve with the sparse LU of K - zeta and one product with K0 - zeta.
    Inverse iteration on (I + Q)^{-1} (I + Q)^{-H} from a fixed start vector
    gives phi, and s = ||(I + Q) phi|| comes from the same two solves; unlike
    the Hermitian form (I + Q)^H (I + Q), this resolves s far below
    sqrt(machine eps) ||I + Q||.  Stops when s changes by at most
    INVERSE_ITERATION_RTOL relative; raises InverseIterationError when it has
    not after INVERSE_ITERATION_MAXITER steps.
    """
    eye = sp.eye_array(k.shape[0], format="csc")
    lu = splu(sp.csc_array(k - zeta * eye))
    free = sp.csr_array(k0 - zeta * eye)
    free_h = free.conj().T
    phi = start_vector(k.shape[0])
    s_prev = np.inf
    for _ in range(INVERSE_ITERATION_MAXITER):
        y = lu.solve(free_h @ phi, trans="H")    # (I + Q)^{-H} phi
        z = free @ lu.solve(y)                    # (I + Q)^{-1} y
        z_norm = np.linalg.norm(z)
        phi = z / z_norm
        s = float(np.linalg.norm(y) / z_norm)     # ||(I + Q) phi||, as (I + Q) z = y
        if abs(s - s_prev) <= INVERSE_ITERATION_RTOL * s:
            return s, phi
        s_prev = s
    raise InverseIterationError(
        f"smallest singular value of I + Q({zeta}) did not settle in "
        f"{INVERSE_ITERATION_MAXITER} inverse-iteration steps (last {s_prev:.3e})")


def bound_state_correspondence(h: PeriodicHamiltonian, lam_candidate: float, n_modes: int,
                               eps_ladder=(1e-2, 1e-3, 1e-4), search_window: float = 5e-4,
                               null_tol: float = 1e-6, residual_tol: float = 1e-6,
                               threshold_margin: float = 1e-3) -> BoundStateVerdict:
    """Verify a candidate bound quasi-energy through the null-vector scan.

    The smallest singular value of I + Q(lambda + i eps) is minimized over a
    window around the candidate at the finest ladder eps, extrapolated
    linearly in eps to the axis (never evaluating exactly on it), and the
    null direction phi is converted to the mode vector
    psi = (K0 - lambda)^{-1} phi, which must satisfy the truncated eigenvalue
    equation (K - lambda) psi = 0.  Every step works on the sparse K and K0
    (smallest_singular_pair).
    """
    dist = free_spectrum_distance(h.h0, lam_candidate)
    if dist < threshold_margin:
        raise ThresholdProximityError(
            f"candidate {lam_candidate} lies {dist:.2e} from the free spectrum "
            f"(threshold margin {threshold_margin})"
        )
    eps_ladder = sorted(eps_ladder, reverse=True)
    eps_fine = eps_ladder[-1]
    space = ModeSpace(n_modes, h.dim)
    k = floquet_operator(h, n_modes)
    k0 = space.free(h.h0)

    def smin_at(lam_real, eps):
        return smallest_singular_pair(k, k0, lam_real + 1j * eps)

    res = minimize_scalar(
        lambda x: smin_at(x, eps_fine)[0],
        bounds=(lam_candidate - search_window, lam_candidate + search_window),
        method="bounded",
        options={"xatol": 1e-11, "maxiter": 40},
    )
    refined = float(res.x)
    ladder = [smin_at(refined, eps)[0] for eps in eps_ladder]
    e1, e2 = eps_ladder[-2], eps_ladder[-1]
    s1, s2 = ladder[-2], ladder[-1]
    extrapolated = float((e1 * s2 - e2 * s1) / (e1 - e2))
    confirmed = abs(extrapolated) <= null_tol

    # null direction just off the axis, then the mode-space reconstruction
    _, phi = smin_at(refined, 1e-8)
    psi = splu(sp.csc_array(k0 - refined * sp.eye_array(space.size))).solve(phi)
    # residual of the truncated eigenvalue equation (K - lambda) psi = 0
    psi_norm = np.linalg.norm(psi)
    residual = float(np.linalg.norm(k @ psi - refined * psi) / psi_norm) if psi_norm > 0 else np.inf
    confirmed = confirmed and residual <= residual_tol
    return BoundStateVerdict(
        candidate=float(lam_candidate),
        refined=refined,
        confirmed=confirmed,
        smin_ladder=[float(s) for s in ladder],
        smin_extrapolated=extrapolated,
        residual=residual,
        threshold_distance=dist,
        mode_vector=space.blocks(psi),
    )

"""Periodic-boundary resolvents, factorized perturbations, and bound-state scans.

The free operator is K0 = -i d/dt + H0 on period-1 functions.  Its resolvent
at non-real lambda acts on a grid function f as

    R0(lambda) f(t) = i int_0^t e^{-i lambda (s-t)} e^{i H0 (s-t)} f(s) ds
                    + i (e^{-i lambda} e^{i H0} - I)^{-1}
                        int_0^1 e^{-i lambda (s-t)} e^{i H0 (s-t)} f(s) ds,

with the denominator read as an operator inverse applied to the full-period
integral.  Both integrals are evaluated by the trapezoidal rule on the
uniform grid t_j = j/N_t.  In the H0 eigenbasis (eigenvalues e_a) the grid
operator is a circulant per eigencomponent (Davis, Circulant Matrices, 1979):
entry (j, k) is kappa_a((k - j) mod N_t) / N_t, with the kernel
kappa_a(o) = p_a e^{w_a o/N_t}, w_a = i (e_a - lambda), p_a = i / (e^{w_a} - 1),
and its jump at o = 0 averaged.  r0_apply takes the kernel's circular
correlation by FFT; r0_matrix gathers it into the dense matrix.  The grid
operator is second-order accurate with leading error -(Delta^2/12) (K0 - lambda) f.
Grid functions are plain complex arrays of shape (N_t, d).

The factorized perturbation uses the operator square root A(t) = |V(t)|^{1/2}
and B(t) = |V(t)|^{1/2} sgn V(t), so B A = V pointwise, and the full
resolvent follows the correction formula
R = R0 - [B R0(conj lambda)]^H [I + A R0 B]^{-1} A R0.

The mode-space block operator (Q(zeta) x)_n = sum_k V_{n-k} (H0 + 2 pi k -
zeta)^{-1} x_k drives the norm-decay probes and the bound-state scan: a
quasi-energy lambda off the free spectrum is an eigenvalue exactly when
I + Q(lambda + i0) is singular, and the corresponding mode vector is
recovered from the null direction.  No solve with K - zeta forms Q or
factors the mode space: V lives on the potential's support S, so
V = P V_S P^T with r = |S| (2N + 1) rows, and Woodbury's identity reduces
every solve with I + Q, and so with K - zeta = (I + Q)(K0 - zeta), to one
r x r LU of I_r + P^T (K0 - zeta)^{-1} P V_S per zeta, with (K0 - zeta)^{-1}
diagonal in H0's eigenbasis (a Birman-Schwinger problem of the support's
size; Simon, Trace Ideals and Their Applications, ch. 7).  ScanOperators
prepares the support block, H0's eigendecomposition and the sparse K once
per model and cutoff, and is the one owner of those solves: its null_pair
serves the null scan here, its solver the certified partners of
scattering's bound-state cross-check.  The candidate is refined to K's
eigenvalue by Rayleigh quotients of psi = (K0 - zeta)^{-1} phi taken from
the scan's own null direction phi, and the verdict's residual
||(K - lambda) psi|| / ||psi|| measures that psi on the assembled K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgetrf, zgetrs

from .floquet import ModeSpace, floquet_operator, start_vector
from .model import PeriodicHamiltonian
from .numerics import SingularMatrixError, hermitian_eig, require_hermitian, solve

SGN_FLOOR = 1e-13
# inverse iteration for the smallest singular pair of I + Q stops when s moves by
# at most this much relative (1-7 steps on the driven ring's bound states)
INVERSE_ITERATION_RTOL = 1e-12
INVERSE_ITERATION_MAXITER = 100
# Rayleigh refinement of a bound quasi-energy: null scans at Im zeta = RAYLEIGH_EPS,
# stopping when the quotient moves by at most RAYLEIGH_ULPS units in the last place
RAYLEIGH_EPS = 1e-13
RAYLEIGH_ULPS = 4
RAYLEIGH_MAXITER = 3
# largest |Im lambda| the resolvent admits: its kernel carries factors e^{|Im lambda| t}
MAX_IM_LAMBDA = 500.0
# largest side of the resolvent check's dense matrices, N_t d (grid) and (2 N + 1) d
# (block_q): 256 MiB each; a check at this side peaks at 1.1 GB (fleet d = 4, N_t = 1024).
# The CLI holds the dense mode-space matrix (2 N + 1) d of floquet-spectrum and
# correspondence to the same side
MAX_DENSE_SIDE = 4096


class ThresholdProximityError(ValueError):
    """Candidate quasi-energy too close to the free spectrum for a null scan."""


class InverseIterationError(RuntimeError):
    """The smallest singular value of I + Q did not settle within the iteration budget."""


def _check_offaxis(lam: complex) -> complex:
    lam = complex(lam)
    if lam.imag == 0.0:
        raise ValueError("resolvent requires Im(lambda) != 0")
    if abs(lam.imag) > MAX_IM_LAMBDA:
        raise ValueError("|Im lambda| too large for the kernel exponentials")
    return lam


def _kernel(values: np.ndarray, lam: complex, n_t: int) -> np.ndarray:
    """kappa_a(o) for o = 0..N_t-1 and every H0 eigenvalue e_a, shape (N_t, d)."""
    w = 1j * (values - lam)
    pref = 1j / (np.exp(w) - 1.0)
    kern = pref * np.exp(np.outer(np.arange(n_t) / n_t, w))
    kern[0] = pref * (1.0 + np.exp(w)) / 2.0
    return kern


def r0_apply(h0: np.ndarray, lam: complex, f: np.ndarray) -> np.ndarray:
    """Apply the free periodic resolvent to grid values f, shape (N_t, d)
    (trapezoid rule): the kernel's circular correlation, taken by FFT."""
    lam = _check_offaxis(lam)
    f = np.asarray(f, dtype=np.complex128)
    if f.ndim != 2 or f.shape[1] != h0.shape[0]:
        raise ValueError(f"grid values of shape {f.shape} do not match H0 dim {h0.shape[0]}")
    eig = hermitian_eig(h0)
    comp = f @ eig.vectors.conj()                 # components in the H0 eigenbasis
    kern = _kernel(eig.values, lam, f.shape[0])
    out = np.fft.ifft(np.fft.fft(comp, axis=0) * np.fft.ifft(kern, axis=0), axis=0)
    return out @ eig.vectors.T


def r0_matrix(h0: np.ndarray, lam: complex, n_t: int) -> np.ndarray:
    """Dense grid-space matrix of the free resolvent, shape (N_t d, N_t d).

    The kernel's circulant per H0 eigencomponent: entry (j, k) carries
    kappa((k - j) mod N_t).  The same operator as r0_apply; exact adjoint
    symmetry R0(lambda)^H = R0(conj lambda) holds at the matrix level.
    """
    lam = _check_offaxis(lam)
    eig = hermitian_eig(h0)
    d = h0.shape[0]
    offs = np.subtract.outer(np.arange(n_t), np.arange(n_t)).T % n_t
    kern = _kernel(eig.values, lam, n_t)[offs]   # (j, k, a)
    v = eig.vectors
    mat = np.einsum("jka,pa,qa->jpkq", kern, v, v.conj(), optimize=True) / n_t
    return mat.reshape(n_t * d, n_t * d)


def spectral_derivative(values: np.ndarray) -> np.ndarray:
    """d/dt of periodic grid samples via the discrete Fourier transform."""
    n_t = values.shape[0]
    freq = np.fft.fftfreq(n_t, d=1.0 / n_t)
    return np.fft.ifft(2j * np.pi * freq[:, None] * np.fft.fft(values, axis=0), axis=0)


def resolvent_residual(h0: np.ndarray, lam: complex, f: np.ndarray) -> float:
    """||(-i d/dt + H0 - lambda) R0 f - f|| / ||f|| with spectral differentiation."""
    g = r0_apply(h0, lam, f)
    back = -1j * spectral_derivative(g) + g @ h0.T - lam * g
    return float(np.linalg.norm(back - f) / np.linalg.norm(f))


def mode_oracle_apply(h0: np.ndarray, lam: complex, f: np.ndarray) -> np.ndarray:
    """Independent mode-space route: diagonal action (2 pi n + H0 - lambda)^{-1}.

    Exact on band-limited inputs; used as the oracle the grid implementation
    is measured against.
    """
    lam = _check_offaxis(lam)
    eig = hermitian_eig(h0)
    n_t = f.shape[0]
    comp = np.fft.fft(f @ eig.vectors.conj(), axis=0) / n_t
    freq = np.fft.fftfreq(n_t, d=1.0 / n_t)
    mult = 1.0 / (2 * np.pi * freq[:, None] + eig.values[None, :] - lam)
    out = np.fft.ifft(comp * mult, axis=0) * n_t
    return out @ eig.vectors.T


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
    """Factorize V(t_j) through one stacked eigendecomposition of the grid.

    Every V(t_j) is held to hermitian_eig's rule (the point with the largest
    relative asymmetry is checked).  Eigenvalues below SGN_FLOOR in magnitude
    are treated as zero with sgn 0 = 0, so B A = V holds exactly on the
    retained spectrum; A and B do not depend on eigenvector phases.
    """
    v = grid_potential(h, n_t)
    defects = np.abs(v - v.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    scales = np.abs(v).max(axis=(1, 2))
    worst = np.argmax(defects / np.maximum(scales, 1.0))
    require_hermitian(float(defects[worst]), float(scales[worst]))
    values, vecs = np.linalg.eigh(v)
    mags = np.abs(values)
    root = np.sqrt(mags)
    sgn = np.where(mags > SGN_FLOOR, np.sign(values), 0.0)
    adj = vecs.conj().transpose(0, 2, 1)
    a_ops = (vecs * root[:, None, :]) @ adj
    b_ops = (vecs * (root * sgn)[:, None, :]) @ adj
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
    """V(t_j) stacked, shape (N_t, d, d): h.potential at every grid point, one
    pass per mode."""
    t = np.arange(n_t) / n_t
    out = np.zeros((n_t, h.dim, h.dim), dtype=np.complex128)
    for n, m in h.modes.items():
        out = out + m * np.exp(2j * np.pi * n * t)[:, None, None]
    return out


def block_q(h: PeriodicHamiltonian, zeta: complex, n_modes: int) -> np.ndarray:
    """Mode-space block operator (Q x)_n = sum_k V_{n-k} (H0 + 2 pi k - zeta)^{-1} x_k."""
    zeta = complex(zeta)
    if zeta.imag == 0.0:
        raise ValueError("block resolvent requires Im(zeta) != 0")
    space = ModeSpace(n_modes, h.dim)
    r0 = space.free_resolvent(h.h0, zeta)
    # block (n, k) is the dense d x d product H_{n-k} R0_k, rounded as the definition
    return space.toeplitz({m: hm @ r0 for m, hm in h.modes.items()})


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


def free_spectrum_distance(levels: np.ndarray, lam: float) -> float:
    """Distance of a real quasi-energy to the translated free spectrum, from H0's
    eigenvalues `levels`."""
    evals = np.asarray(levels)[:, None]
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


def _support_solve(factor, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """A^{-1} b (trans 0) or A^{-H} b (trans 2) from ScanOperators._factor's LU;
    b itself where r = 0 leaves no factor."""
    return b if factor is None else zgetrs(*factor, b, trans=trans)[0]


class ScanOperators:
    """(K - zeta)^{-1} of one model at mode cutoff N, prepared once for all its
    shifts and solved by both bound-state detectors: the null scan (null_pair)
    and the cross-check's certified partners (solver).  It holds the sparse
    K = K0 + V (for Rayleigh quotients, residuals and ARPACK), H0's
    eigendecomposition (eps, U) from the model (`free_eig`; `free_levels` are
    its eps), and the potential's block V_S on its support.

    The support S is the model's `support`.  P picks the r = |S| (2N + 1)
    mode-space rows (n, a) with a in S, and V_S is the r x r block whose (n, m)
    block is H_{n-m}[S, S], so V = K - K0 = P V_S P^T.  A model without modes
    has r = 0.  U_S (`u_s`) holds U's rows S, and `start` the fixed start
    vector in H0's eigenbasis.

    Every solve goes through one r x r factorization on the support
    (Birman-Schwinger; Simon, Trace Ideals and Their Applications, ch. 7).
    On mode block n, G0 = (K0 - zeta)^{-1} is U diag(g_n) U^H with
    g_n = 1 / (eps + 2 pi n - zeta).  With Q = V G0, K - zeta = (I + Q)(K0 - zeta),
    and with A = I_r + G_S V_S, G_S = P^T G0 P (one getrf per zeta, `_factor`),
    Woodbury's identity gives

        (I + Q)^{-1} = I - P V_S A^{-1} P^T G0,
        (I + Q)^{-H} = I - G0^H P A^{-H} V_S^H P^T,
        (K - zeta)^{-1} = G0 (I + Q)^{-1}.

    The first is applied in one place (`_inverse`), on coefficients in H0's
    eigenbasis, where G0 is the diagonal g and P, P^T act through U_S.  A
    real zeta on a free level eps + 2 pi n divides by zero in g; the
    detectors shift off the axis.
    """

    def __init__(self, h: PeriodicHamiltonian, n_modes: int):
        self.k = floquet_operator(h, n_modes)
        self.space = ModeSpace(n_modes, h.dim)
        eig = h.free_eig
        self.free_levels = eig.values
        self.u = eig.vectors
        self.u_s = self.u[h.support]
        support = np.ix_(h.support, h.support)
        self.v_s = ModeSpace(n_modes, len(h.support)).toeplitz(
            {m: hm[support] for m, hm in h.modes.items()})
        self.start = self.space.blocks(start_vector(self.space.size)) @ self.u.conj()

    def _factor(self, zeta: complex):
        """(g, LU): g = (g_n) of G0 at zeta, shape (2N + 1, d), and the LAPACK LU
        (getrf) of A = I_r + G_S V_S, where G_S has the mode blocks
        U_S diag(g_n) U_S^H; the LU is None for r = 0."""
        g = 1.0 / (self.free_levels + self.space.frequencies[:, None] - zeta)   # (2N + 1, d)
        nb, width = self.space.n_blocks, self.u_s.shape[0]
        r = nb * width
        if r == 0:
            return g, None
        g_s = (self.u_s * g[:, None, :]) @ self.u_s.conj().T          # (2N + 1, |S|, |S|)
        a = (g_s @ self.v_s.reshape(nb, width, r)).reshape(r, r)
        a.flat[::r + 1] += 1.0
        lu, piv, info = zgetrf(a, overwrite_a=True)
        if info != 0:
            raise SingularMatrixError(
                f"I + Q({zeta}) singular on the potential's support (getrf info {info})")
        return g, (lu, piv)

    def _inverse(self, g: np.ndarray, factor, y: np.ndarray) -> np.ndarray:
        """(I + Q)^{-1} y = y - P V_S A^{-1} (G0 y)_S on eigenbasis coefficients y,
        mode blocks as rows."""
        b = self.v_s @ _support_solve(factor, (g * y @ self.u_s.T).ravel())
        return y - b.reshape(y.shape[0], self.u_s.shape[0]) @ self.u_s.conj()

    def solver(self, zeta: complex):
        """x -> (K - zeta)^{-1} x = G0 (I + Q)^{-1} x on site-basis mode vectors of
        length (2N + 1) d, from one factor at zeta.

        x goes to H0's eigenbasis by U^H per mode block, through `_inverse` and
        g, and back by U.  Cost per solve: (2N + 1) d^2 for the two changes of
        basis and r^2 for the support solve; no LU of the (2N + 1) d mode space.
        """
        g, factor = self._factor(complex(zeta))

        def solve(x: np.ndarray) -> np.ndarray:
            y = self.space.blocks(x) @ self.u.conj()
            return (g * self._inverse(g, factor, y) @ self.u.T).ravel()
        return solve

    def null_pair(self, zeta: complex):
        """(s, phi, psi): the smallest singular value s and right singular vector phi
        of I + Q(zeta), and psi = (K0 - zeta)^{-1} phi.

        Inverse iteration on (I + Q)^{-1} (I + Q)^{-H} from the fixed start
        vector gives phi.  One step takes c = A^{-H} V_S^H phi_S and
        y = phi - G0^H P c = (I + Q)^{-H} phi, then z = (I + Q)^{-1} y
        (`_inverse`), whose unit vector is the next phi.
        s = ||(I + Q) phi|| = ||y|| / ||z|| comes from the same step; unlike the
        Hermitian form (I + Q)^H (I + Q), this resolves s far below
        sqrt(machine eps) ||I + Q||.  psi = G0 phi is the last step's
        G0 z / ||z|| = (K - zeta)^{-1} y / ||z||.  The iteration runs on the
        eigenbasis coefficients, so phi and psi are carried back by U only at
        the end; norms are the same in both bases.  Stops when s changes by at
        most INVERSE_ITERATION_RTOL relative; raises InverseIterationError when
        it has not after INVERSE_ITERATION_MAXITER steps, and
        SingularMatrixError naming zeta where A is singular.

        Cost per zeta: r^3 for the factor, (2N + 1) d |S| per step and
        (2N + 1) d^2 to carry phi and psi back.
        """
        zeta = complex(zeta)
        g, factor = self._factor(zeta)
        g_h = g.conj()
        # P^T and P on eigenbasis coefficients, mode blocks as rows
        to_support, from_support = self.u_s.T, self.u_s.conj()
        v_s_h = self.v_s.conj().T
        nb = self.space.n_blocks
        shape = (nb, self.u_s.shape[0])
        phi = self.start
        s_prev = np.inf
        for _ in range(INVERSE_ITERATION_MAXITER):
            c = _support_solve(factor, v_s_h @ (phi @ to_support).ravel(), trans=2)
            y = phi - g_h * (c.reshape(shape) @ from_support)        # (I + Q)^{-H} phi
            z = self._inverse(g, factor, y)                          # (I + Q)^{-1} y
            z_norm = np.linalg.norm(z)
            phi = z / z_norm
            s = float(np.linalg.norm(y) / z_norm)     # ||(I + Q) phi||, as (I + Q) z = y
            if abs(s - s_prev) <= INVERSE_ITERATION_RTOL * s:
                back = np.concatenate([phi, g * phi]) @ self.u.T      # psi = G0 phi
                return s, back[:nb].ravel(), back[nb:].ravel()
            s_prev = s
        raise InverseIterationError(
            f"smallest singular value of I + Q({zeta}) did not settle in "
            f"{INVERSE_ITERATION_MAXITER} inverse-iteration steps (last {s_prev:.3e})")


def bound_state_correspondence(scan: ScanOperators, lam_candidate: float,
                               eps_ladder=(1e-2, 1e-3, 1e-4), search_window: float = 5e-4,
                               null_tol: float = 1e-6, residual_tol: float = 1e-6,
                               threshold_margin: float = 1e-3) -> BoundStateVerdict:
    """Verify a candidate bound quasi-energy through the null-vector scan of the
    model at the cutoff `scan` was prepared for (ScanOperators, built once for
    several candidates of one model).

    Rayleigh refinement: from lambda_0 = candidate, the null direction phi of
    I + Q(lambda_j + i RAYLEIGH_EPS) gives psi = (K0 - zeta)^{-1} phi at the
    same zeta, and lambda_{j+1} = psi^H K psi / psi^H psi.  K is Hermitian,
    so each step squares the distance to K's eigenvalue; the iteration stops
    when the quotient moves by at most RAYLEIGH_ULPS units in the last place,
    after RAYLEIGH_MAXITER steps, or when the quotient leaves the search
    window around the candidate (refined then stays at the last value
    inside).  The last psi is the mode vector, and the residual
    ||(K - refined) psi|| / ||psi|| of the truncated eigenvalue equation is
    measured on it with the assembled K.  The smallest singular values at refined + i eps over the
    ladder are extrapolated linearly in eps to the axis (never evaluating
    exactly on it).
    """
    dist = free_spectrum_distance(scan.free_levels, lam_candidate)
    if dist < threshold_margin:
        raise ThresholdProximityError(
            f"candidate {lam_candidate} lies {dist:.2e} from the free spectrum "
            f"(threshold margin {threshold_margin})"
        )
    eps_ladder = sorted(eps_ladder, reverse=True)

    refined = float(lam_candidate)
    for _ in range(RAYLEIGH_MAXITER):
        _, _, psi = scan.null_pair(refined + 1j * RAYLEIGH_EPS)
        k_psi = scan.k @ psi
        quotient = float((np.vdot(psi, k_psi) / np.vdot(psi, psi)).real)
        if abs(quotient - lam_candidate) > search_window:
            break
        step, refined = quotient - refined, quotient
        if abs(step) <= RAYLEIGH_ULPS * np.spacing(abs(refined)):
            break
    # residual of the truncated eigenvalue equation (K - lambda) psi = 0
    residual = float(np.linalg.norm(k_psi - refined * psi) / np.linalg.norm(psi))

    ladder = [scan.null_pair(refined + 1j * eps)[0] for eps in eps_ladder]
    e1, e2 = eps_ladder[-2], eps_ladder[-1]
    s1, s2 = ladder[-2], ladder[-1]
    extrapolated = float((e1 * s2 - e2 * s1) / (e1 - e2))
    confirmed = abs(extrapolated) <= null_tol and residual <= residual_tol
    return BoundStateVerdict(
        candidate=float(lam_candidate),
        refined=refined,
        confirmed=confirmed,
        smin_ladder=[float(s) for s in ladder],
        smin_extrapolated=extrapolated,
        residual=residual,
        threshold_distance=dist,
        mode_vector=scan.space.blocks(psi),
    )

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
and its jump at o = 0 averaged.  The eigenpairs are the model's free_eig,
moved to and from by its one change of basis.  r0_apply takes the kernel's
circular correlation by FFT; r0_matrix gathers it into the dense matrix.  The
grid operator is second-order accurate with leading error -(Delta^2/12) (K0 - lambda) f.
Grid functions are plain complex arrays of shape (N_t, d).

The factorized perturbation uses the operator square root A(t) = |V(t)|^{1/2}
and B(t) = |V(t)|^{1/2} sgn V(t), so B A = V pointwise, with V(t_j) from the
model's one evaluator (`PeriodicHamiltonian.potential`) and held to
numerics.require_hermitian's rule as one stack, and the full
resolvent follows the correction formula
R = R0 - [B R0(conj lambda)]^H [I + A R0 B]^{-1} A R0.

The mode-space block operator (Q(zeta) x)_n = sum_k V_{n-k} (H0 + 2 pi k -
zeta)^{-1} x_k drives the norm-decay probes and the bound-state scan: a
quasi-energy lambda off the free spectrum {e_a + 2 pi n} (its distance taken
by floquet.circular_distance) is an eigenvalue exactly when
I + Q(lambda + i0) is singular, and the corresponding mode vector is
recovered from the null direction.  No solve with K - zeta forms Q or
factors the mode space: V lives on the potential's support S, so
V = P V_S P^T with r = |S| (2N + 1) rows, and Woodbury's identity reduces
every solve with I + Q, and so with K - zeta = (I + Q)(K0 - zeta), to the
r x r matrix I_r + P^T (K0 - zeta)^{-1} P V_S per zeta, inverted once in
numpy.linalg, with (K0 - zeta)^{-1} diagonal in H0's eigenbasis (a
Birman-Schwinger problem of the support's size; Simon, Trace Ideals and Their
Applications, ch. 7).  ScanOperators prepares the support block, H0's
eigendecomposition (the model's) and the sparse K once per model and cutoff,
and runs the one inverse iteration on them (null_pair).  Both bound-state
detectors take their Rayleigh steps from it (ScanOperators.rayleigh): the
quotient of psi = (K0 - zeta)^{-1} phi, phi the null direction at
zeta = lambda + i RAYLEIGH_EPS, refines a candidate here to K's eigenvalue,
and certifies a partner in scattering's bound-state cross-check.  The
residual ||(K - lambda) psi|| / ||psi|| measures that psi on the assembled K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .floquet import ModeSpace, circular_distance, floquet_operator, start_vector
from .model import PeriodicHamiltonian
from .numerics import SingularMatrixError, require_hermitian, solve

SGN_FLOOR = 1e-13
# inverse iteration for the smallest singular pair of I + Q stops when s moves by
# at most this much relative
INVERSE_ITERATION_RTOL = 1e-12
INVERSE_ITERATION_MAXITER = 100
# Rayleigh refinement of a bound quasi-energy: null scans at Im zeta = RAYLEIGH_EPS,
# stopping when the quotient moves by at most RAYLEIGH_ULPS units in the last place
RAYLEIGH_EPS = 1e-13
RAYLEIGH_ULPS = 4
RAYLEIGH_MAXITER = 3
# largest |Im lambda| the resolvent admits: its kernel carries factors e^{|Im lambda| t}
MAX_IM_LAMBDA = 500.0
# the bound-state verdict's thresholds and eps ladder (bound_state_correspondence)
THRESHOLD_MARGIN = 1e-3
SEARCH_WINDOW = 5e-4
EPS_LADDER = (1e-2, 1e-3, 1e-4)
NULL_TOL = 1e-6
RESIDUAL_TOL = 1e-6
# largest side of the resolvent check's dense matrices, N_t d (grid) and (2 N + 1) d
# (block_q): 256 MiB each, of which a check holds a few at once.  The CLI holds
# the dense mode-space matrix (2 N + 1) d of floquet-spectrum and correspondence
# to the same side
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


def r0_apply(h: PeriodicHamiltonian, lam: complex, f: np.ndarray) -> np.ndarray:
    """Apply the free periodic resolvent to grid values f, shape (N_t, d)
    (trapezoid rule): the kernel's circular correlation, taken by FFT."""
    lam = _check_offaxis(lam)
    f = np.asarray(f, dtype=np.complex128)
    if f.ndim != 2 or f.shape[1] != h.dim:
        raise ValueError(f"grid values of shape {f.shape} do not match H0 dim {h.dim}")
    eig = h.free_eig
    kern = _kernel(eig.values, lam, f.shape[0])
    comp = np.fft.fft(eig.to_eigenbasis(f), axis=0)
    return np.fft.ifft(comp * np.fft.ifft(kern, axis=0), axis=0) @ eig.vectors.T


def r0_matrix(h: PeriodicHamiltonian, lam: complex, n_t: int) -> np.ndarray:
    """Dense grid-space matrix of the free resolvent, shape (N_t d, N_t d).

    The kernel's circulant per H0 eigencomponent: block (j, k) is the d x d
    matrix C_o = V diag(kappa(o)) V^H / N_t at o = (k - j) mod N_t, so the N_t
    distinct blocks are formed once and block row j is them rolled by j.  The
    same operator as r0_apply; exact adjoint symmetry R0(lambda)^H =
    R0(conj lambda) holds at the matrix level.
    """
    lam = _check_offaxis(lam)
    eig, d = h.free_eig, h.dim
    blocks = eig.matrix(_kernel(eig.values, lam, n_t)) / n_t       # C_o, shape (N_t, d, d)
    mat = np.empty((n_t, d, n_t, d), dtype=np.complex128)
    for j in range(n_t):
        mat[j] = np.roll(blocks, j, axis=0).transpose(1, 0, 2)
    return mat.reshape(n_t * d, n_t * d)


def spectral_derivative(values: np.ndarray) -> np.ndarray:
    """d/dt of periodic grid samples via the discrete Fourier transform."""
    n_t = values.shape[0]
    freq = np.fft.fftfreq(n_t, d=1.0 / n_t)
    return np.fft.ifft(2j * np.pi * freq[:, None] * np.fft.fft(values, axis=0), axis=0)


def resolvent_residual(h: PeriodicHamiltonian, lam: complex, f: np.ndarray) -> float:
    """||(-i d/dt + H0 - lambda) R0 f - f|| / ||f|| with spectral differentiation."""
    g = r0_apply(h, lam, f)
    back = -1j * spectral_derivative(g) + g @ h.h0.T - lam * g
    return float(np.linalg.norm(back - f) / np.linalg.norm(f))


def mode_oracle_apply(h: PeriodicHamiltonian, lam: complex, f: np.ndarray) -> np.ndarray:
    """Independent mode-space route: diagonal action (2 pi n + H0 - lambda)^{-1}.

    Exact on band-limited inputs; used as the oracle the grid implementation
    is measured against.
    """
    lam = _check_offaxis(lam)
    eig, n_t = h.free_eig, f.shape[0]
    comp = np.fft.fft(eig.to_eigenbasis(f), axis=0) / n_t
    freq = np.fft.fftfreq(n_t, d=1.0 / n_t)
    mult = 1.0 / (2 * np.pi * freq[:, None] + eig.values[None, :] - lam)
    return (np.fft.ifft(comp * mult, axis=0) * n_t) @ eig.vectors.T


@dataclass
class FactorizedPotential:
    """Grid multiplication operators A(t) = |V|^{1/2}, B(t) = |V|^{1/2} sgn V."""

    a_ops: np.ndarray  # shape (N_t, d, d)
    b_ops: np.ndarray

    def factorization_defect(self, v_ops: np.ndarray) -> float:
        """max_j |B(t_j) A(t_j) - V(t_j)|, the products stacked through BLAS (matmul)."""
        return float(np.abs(self.b_ops @ self.a_ops - v_ops).max())


def factorized_potential(h: PeriodicHamiltonian, n_t: int) -> FactorizedPotential:
    """Factorize V(t_j) through one stacked eigendecomposition of the grid.

    Every V(t_j) is held to require_hermitian's rule (the point with the
    largest relative asymmetry is checked).  Eigenvalues below SGN_FLOOR in
    magnitude are treated as zero with sgn 0 = 0, so B A = V holds exactly on
    the retained spectrum; A and B do not depend on eigenvector phases.
    """
    v = grid_potential(h, n_t)
    require_hermitian(np.abs(v - v.conj().transpose(0, 2, 1)).max(axis=(1, 2)),
                      np.abs(v).max(axis=(1, 2)))
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
    r0 = r0_matrix(h, lam, n_t)
    fact = fact or factorized_potential(h, n_t)
    q = _block_multiply(fact.a_ops, _block_multiply(fact.b_ops, r0, "right"), "left")
    return q, float(np.linalg.norm(q))


def full_resolvent(h: PeriodicHamiltonian, lam: complex, n_t: int):
    """Grid matrix of the full periodic resolvent via the factorized correction.

    R = R0 - [B R0(conj lambda)]^H [I + Q]^{-1} A R0 with Q = A R0 B.
    Returns (matrix, cond) where cond estimates the conditioning of I + Q;
    a singular I + Q (an exceptional point) raises SingularMatrixError.
    """
    lam = _check_offaxis(lam)
    r0 = r0_matrix(h, lam, n_t)
    fact = factorized_potential(h, n_t)
    a_r0 = _block_multiply(fact.a_ops, r0, "left")
    q = _block_multiply(fact.b_ops, a_r0, "right")
    r0_bar = r0_matrix(h, np.conj(lam), n_t)
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
    """V(t_j) stacked on the grid t_j = j/N_t, shape (N_t, d, d) (h.potential)."""
    return h.potential(np.arange(n_t) / n_t)


def block_q(h: PeriodicHamiltonian, zeta: complex, n_modes: int,
            rows: np.ndarray | None = None) -> np.ndarray:
    """Mode-space block operator (Q x)_n = sum_k V_{n-k} (H0 + 2 pi k - zeta)^{-1} x_k,
    or, given fiber `rows`, only Q's rows (n, a) for a in rows, every n in order,
    formed from those rows of each H_m alone."""
    zeta = complex(zeta)
    if zeta.imag == 0.0:
        raise ValueError("block resolvent requires Im(zeta) != 0")
    space = ModeSpace(n_modes, h.dim)
    r0 = space.free_resolvent(h.free_eig, zeta)
    # block (n, k) is the dense product H_{n-k} R0_k (its rows), rounded as the definition
    return space.toeplitz({m: (hm if rows is None else hm[rows]) @ r0
                           for m, hm in h.modes.items()})


@dataclass
class BoundStateVerdict:
    """Outcome of the I + Q null-vector scan at a candidate quasi-energy."""

    candidate: float
    refined: float
    confirmed: bool
    smin_ladder: list
    smin_extrapolated: float
    residual: float


class ScanOperators:
    """(K - zeta)^{-1} of one model at mode cutoff N, prepared once for all its
    shifts: the one inverse iteration (null_pair) and the Rayleigh step taken
    from it (rayleigh), which both bound-state detectors run, the null scan's
    verdict and the cross-check's certified partners.  It holds the sparse
    K = K0 + V (for Rayleigh quotients and residuals), H0's
    eigendecomposition (eps, U), the model's `free_eig` (`free`), and the
    potential's block V_S on its support.

    The support S is the model's `support`.  P picks the r = |S| (2N + 1)
    mode-space rows (n, a) with a in S, and V_S is the r x r block whose (n, m)
    block is H_{n-m}[S, S], so V = K - K0 = P V_S P^T.  A model without modes
    has r = 0.  U_S (`u_s`) holds U's rows S, and `start` the fixed start
    vector in H0's eigenbasis.

    Every solve goes through the r x r matrix A on the support
    (Birman-Schwinger; Simon, Trace Ideals and Their Applications, ch. 7),
    inverted once per zeta in numpy.linalg (`_factor`, whose one client is
    null_pair).
    On mode block n, G0 = (K0 - zeta)^{-1} is U diag(g_n) U^H with
    g_n = 1 / (eps + 2 pi n - zeta).  With Q = V G0, K - zeta = (I + Q)(K0 - zeta),
    and with A = I_r + G_S V_S, G_S = P^T G0 P (`_factor`), Woodbury's identity
    gives

        (I + Q)^{-1} = I - P V_S A^{-1} P^T G0,
        (I + Q)^{-H} = I - G0^H P A^{-H} V_S^H P^T,
        (K - zeta)^{-1} = G0 (I + Q)^{-1}.

    null_pair applies the first two on coefficients in H0's eigenbasis, where
    G0 is the diagonal g and P, P^T act through U_S.  A real zeta on a free
    level eps + 2 pi n divides by zero in g; the detectors shift off the axis.
    """

    def __init__(self, h: PeriodicHamiltonian, n_modes: int):
        self.k = floquet_operator(h, n_modes)
        self.space = ModeSpace(n_modes, h.dim)
        self.free = h.free_eig
        self.u_s = self.free.vectors[h.support]
        support = np.ix_(h.support, h.support)
        self.v_s = ModeSpace(n_modes, len(h.support)).toeplitz(
            {m: hm[support] for m, hm in h.modes.items()})
        self.start = self.free.to_eigenbasis(self.space.blocks(start_vector(self.space.size)))

    def _factor(self, zeta: complex):
        """(g, A^{-1}): g = (g_n) of G0 at zeta, shape (2N + 1, d), and the inverse
        (numpy.linalg.inv) of the r x r A = I_r + G_S V_S, where G_S has the mode
        blocks U_S diag(g_n) U_S^H; 0 x 0 for r = 0.  A singular A raises
        SingularMatrixError naming zeta."""
        g = 1.0 / (self.free.values + self.space.frequencies[:, None] - zeta)   # (2N + 1, d)
        nb, width = self.space.n_blocks, self.u_s.shape[0]
        r = nb * width
        if r == 0:
            return g, np.zeros((0, 0), dtype=np.complex128)
        g_s = (self.u_s * g[:, None, :]) @ self.u_s.conj().T          # (2N + 1, |S|, |S|)
        a = (g_s @ self.v_s.reshape(nb, width, r)).reshape(r, r)
        a.flat[::r + 1] += 1.0
        try:
            return g, np.linalg.inv(a)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"I + Q({zeta}) singular on the potential's support ({exc})") from exc

    def null_pair(self, zeta: complex):
        """(s, phi, psi): the smallest singular value s and right singular vector phi
        of I + Q(zeta), and psi = (K0 - zeta)^{-1} phi.

        Inverse iteration on (I + Q)^{-1} (I + Q)^{-H} from the fixed start
        vector gives phi.  One step takes c = A^{-H} V_S^H phi_S and
        y = phi - G0^H P c = (I + Q)^{-H} phi, then b = V_S A^{-1} (G0 y)_S and
        z = y - P b = (I + Q)^{-1} y, whose unit vector is the next phi.
        s = ||(I + Q) phi|| = ||y|| / ||z|| comes from the same step; unlike the
        Hermitian form (I + Q)^H (I + Q), this resolves s far below
        sqrt(machine eps) ||I + Q||.  psi = G0 phi is the last step's
        G0 z / ||z|| = (K - zeta)^{-1} y / ||z||.  The iteration runs on the
        eigenbasis coefficients, so phi and psi are carried back by U only at
        the end; norms are the same in both bases.  Stops when s changes by at
        most INVERSE_ITERATION_RTOL relative; raises InverseIterationError when
        it has not after INVERSE_ITERATION_MAXITER steps, and
        SingularMatrixError naming zeta where A is singular.

        Cost per zeta: r^3 for the inverse of A (numpy.linalg.inv), formed once
        for the two support solves of every step; r^2 + (2N + 1) d |S| per step;
        (2N + 1) d^2 to carry phi and psi back.
        """
        zeta = complex(zeta)
        g, a_inv = self._factor(zeta)
        a_inv_h = a_inv.conj().T
        g_h = g.conj()
        # P^T and P on eigenbasis coefficients, mode blocks as rows
        to_support, from_support = self.u_s.T, self.u_s.conj()
        v_s_h = self.v_s.conj().T
        nb = self.space.n_blocks
        shape = (nb, self.u_s.shape[0])
        phi = self.start
        s_prev = np.inf
        for _ in range(INVERSE_ITERATION_MAXITER):
            c = a_inv_h @ (v_s_h @ (phi @ to_support).ravel())
            y = phi - g_h * (c.reshape(shape) @ from_support)        # (I + Q)^{-H} phi
            b = self.v_s @ (a_inv @ (g * y @ to_support).ravel())
            z = y - b.reshape(shape) @ from_support                  # (I + Q)^{-1} y
            z_norm = np.linalg.norm(z)
            phi = z / z_norm
            s = float(np.linalg.norm(y) / z_norm)     # ||(I + Q) phi||, as (I + Q) z = y
            if abs(s - s_prev) <= INVERSE_ITERATION_RTOL * s:
                back = np.concatenate([phi, g * phi]) @ self.free.vectors.T   # psi = G0 phi
                return s, back[:nb].ravel(), back[nb:].ravel()
            s_prev = s
        raise InverseIterationError(
            f"smallest singular value of I + Q({zeta}) did not settle in "
            f"{INVERSE_ITERATION_MAXITER} inverse-iteration steps (last {s_prev:.3e})")

    def rayleigh(self, lam: float):
        """(psi, K psi, psi^H K psi / psi^H psi): one Rayleigh step at the shift lam,
        from null_pair's psi at zeta = lam + i RAYLEIGH_EPS, the quotient taken on
        the assembled K.  Raises as null_pair does."""
        psi = self.null_pair(lam + 1j * RAYLEIGH_EPS)[2]
        k_psi = self.k @ psi
        return psi, k_psi, float((np.vdot(psi, k_psi) / np.vdot(psi, psi)).real)


def bound_state_correspondence(scan: ScanOperators, lam_candidate: float) -> BoundStateVerdict:
    """Verify a candidate bound quasi-energy through the null-vector scan of the
    model at the cutoff `scan` was prepared for (ScanOperators, built once for
    several candidates of one model).

    Rayleigh refinement: from lambda_0 = candidate, lambda_{j+1} is the
    quotient of scan.rayleigh(lambda_j) (psi^H K psi / psi^H psi, psi from the
    null direction of I + Q(lambda_j + i RAYLEIGH_EPS)).  K is Hermitian,
    so each step squares the distance to K's eigenvalue; the iteration stops
    when the quotient moves by at most RAYLEIGH_ULPS units in the last place,
    after RAYLEIGH_MAXITER steps, or when the quotient leaves the
    SEARCH_WINDOW around the candidate (refined then stays at the last value
    inside).  The residual ||(K - refined) psi|| / ||psi|| of the truncated
    eigenvalue equation is measured on the last psi with the assembled K, and
    the smallest singular values at refined + i eps over EPS_LADDER are
    extrapolated linearly in eps to the axis (never evaluating exactly on it).
    """
    dist = float(circular_distance(lam_candidate, scan.free.values).min())   # to {e_a + 2 pi n}
    if dist < THRESHOLD_MARGIN:
        raise ThresholdProximityError(
            f"candidate {lam_candidate} lies {dist:.2e} from the free spectrum "
            f"(threshold margin {THRESHOLD_MARGIN})"
        )

    refined = float(lam_candidate)
    for _ in range(RAYLEIGH_MAXITER):
        psi, k_psi, quotient = scan.rayleigh(refined)
        if abs(quotient - lam_candidate) > SEARCH_WINDOW:
            break
        step, refined = quotient - refined, quotient
        if abs(step) <= RAYLEIGH_ULPS * np.spacing(abs(refined)):
            break
    # residual of the truncated eigenvalue equation (K - lambda) psi = 0
    residual = float(np.linalg.norm(k_psi - refined * psi) / np.linalg.norm(psi))

    ladder = [scan.null_pair(refined + 1j * eps)[0] for eps in EPS_LADDER]
    e1, e2 = EPS_LADDER[-2], EPS_LADDER[-1]
    s1, s2 = ladder[-2], ladder[-1]
    extrapolated = float((e1 * s2 - e2 * s1) / (e1 - e2))
    confirmed = abs(extrapolated) <= NULL_TOL and residual <= RESIDUAL_TOL
    return BoundStateVerdict(
        candidate=float(lam_candidate),
        refined=refined,
        confirmed=confirmed,
        smin_ladder=[float(s) for s in ladder],
        smin_extrapolated=extrapolated,
        residual=residual,
    )

"""Test-only readings of library objects, and the test-only oracles: whole
matrices, per-n iterates and reference values that the library neither forms
nor keeps.

    reconstruct(eig)            V diag(values) V^H
    schur_unitary_eig(u)        unitary_eig's clusters rotated by complex Schur vectors
    orthonormality_defect(eig)  max |V^H V - I|
    residual(eig, a)            max_k ||A v_k - mu_k v_k||_2
    loop(w)                     (gap, Theta^{+-n} phi) for n = 1, 2, ..., by the FFT iterate loop
    loop_gaps(w, n)             the loop's Cauchy gaps for n = 1..n (default n_max), (n, p)
    image(w, n)                 W^(n) phi = Theta0^{-+n} Theta^{+-n} phi, from the loop
    operator(w)                 W^(n_max) on the full space (L x L)
    free_propagator(h, t)       U0(t) = exp(-i t H0) from the model's H0 eigendecomposition
    ring_time_average(mono, x, width)  scattering.time_average on the whole model
    start_time_covariance_defect(mono, n_max, probes)  W(s') against U0(s', s) W(s) U(s, s')
    fourier_modes(samples, m_cut)  a PeriodicHamiltonian from uniform samples of H(t)
    step(stepper, a, u)         one Magnus step from a of a propagation.MagnusStepper
    check_cocycle(h, s, r, t)   ||U(t, r) U(r, s) - U(t, s)||_max for s <= r <= t
    check_period_shift(h, t)    ||U(t + 1, 0) - U(t, 0) U(1, 0)||_max for t >= 0
    convergence_ladder(h, ...)  ||Theta(N) - Theta(2N)|| over a step ladder
    rabi_closed_form_propagator(t, delta, v)  exact U(t, 0) of the driven two-level model
    block(k, n, m)              block (n, m) of a floquet.FloquetMatrix
    mode_eigen_defect(mono, spec)  the correspondence's eigen-relation defect, one mode at a time
    spatial_mass(spec)          per-eigenvector fiber-site occupation of a spectrum
    k0_grid_matrix(h0, n_t)     -i d/dt + H0 on the periodic grid
    solve(a, b)                 (x, condition estimate) of A x = b by scipy.linalg's LU
    block_multiply(ops, mat, side)  a grid matrix times a block-diagonal operator, by einsum
    full_resolvent(h, lam, n_t)  (R, cond): the grid's full resolvent by the factorized correction
    match_eigenvalues(a, b, floor)  greedy nearest matching of two eigenvalue multisets
    kronecker_sum_k(N, h0, modes)  I (x) h0 + diag(2 pi n) (x) I + sum_m S^m (x) H_m, by scipy
    kronecker_k(h, n_modes)     (K, K0) of a model as those Kronecker sums
    rabi_quasi_energies(delta, v)  the driven two-level model's quasi-energies in closed form
    shift_group_defect(k, sigma)   interior defect of exp(i J sigma) S exp(-i J sigma) = e^{2 pi i sigma} S
    save_model(h, path)         a JSON model file that model.load_model reads
                                (model_to_json_dict, matrix_to_json)
    dense_lattice(sites, ...)   build_lattice's h0 and modes as dense arrays formed at once
    dense_support(h0, modes)    the sites where some mode has a nonzero row or column
    dense_mirror(h0, modes, arc)  the reflection about the arc, where every array equals its copy
    dense_ring_spectrum(h0)     the FFT of h0's first column

`w` is a scattering.WaveOperatorIterates.  Its iterates and gaps are
recomputed here by an iterate loop independent of Theta's eigenbasis, which
the library takes them from: each step applies Theta as Theta0 plus the
Monodromy's window block, Theta0 by the model's free_apply.
stroboscopic_wave_op itself cannot be asked for the iterates at every n,
since it raises ConvergenceError where no probe has settled (at n < GAP_RUN,
or while the packets cross the well).
"""

import json
import warnings
from itertools import islice

import numpy as np

from floqscat import resolvent
from floqscat.floquet import FloquetMatrix
from floqscat.model import PeriodicHamiltonian
from floqscat.numerics import (CLUSTER_GAP, EigenDecomposition, SingularMatrixError, adjoint_apply,
                               as_complex_matrix, check_hermitian, check_square, expm_hermitian,
                               max_norm, unitary_defect)
from floqscat.propagation import PropagatorSchedule, monodromy, propagate

# solve's pivot floor, relative to A's largest row sum
PIVOT_RTOL = 1e-14


def reconstruct(eig):
    return (eig.vectors * eig.values) @ eig.vectors.conj().T


def schur_unitary_eig(u: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a unitary by the rotation numerics.unitary_eig used
    while it loaded scipy.linalg: the eigenvectors of the complex eigh of
    (U + U^H)/2, clustered across gaps up to CLUSTER_GAP, each cluster B of
    several members rotated by the complex Schur vectors of B^H U B
    (scipy.linalg.schur).  Values sorted by principal argument in [0, 2pi); no
    phase or tie-break convention."""
    from scipy.linalg import schur

    wc, basis = np.linalg.eigh((u + u.conj().T) / 2)
    cuts = [0, *(np.flatnonzero(np.diff(wc) > CLUSTER_GAP) + 1), len(wc)]
    for start, stop in zip(cuts[:-1], cuts[1:]):
        if stop - start > 1:
            block = basis[:, start:stop]
            _, rot = schur(block.conj().T @ u @ block, output="complex")
            basis[:, start:stop] = block @ rot
    values = (basis.conj() * (u @ basis)).sum(axis=0)
    order = np.argsort(np.mod(np.angle(values), 2 * np.pi), kind="stable")
    return EigenDecomposition(values=values[order], vectors=basis[:, order])


def orthonormality_defect(eig):
    return unitary_defect(eig.vectors)


def residual(eig, a: np.ndarray) -> float:
    """max_k ||A v_k - mu_k v_k||_2."""
    r = a @ eig.vectors - eig.vectors * eig.values
    return float(np.linalg.norm(r, axis=0).max())


def loop(w):
    """Yield (gap, Theta^{+-n} phi) for n = 1, 2, ...: the gap is the column norms of
    (A - B) A^(n-1) phi, A = Theta^{+-1}, B = Theta0^{+-1}.

    A x is B x plus E_w on the window's rows of x (the Monodromy's window and
    block), so the gap is the norm of that window product.  B acts as
    free_apply(+-1); direction -1 applies E_w^H.  Each yielded iterate is a
    new array."""
    mono, direction = w.mono, w.direction
    act = np.matmul if direction == +1 else adjoint_apply
    x = w.probe_set.vectors
    while True:
        kick = act(mono.block, x[mono.window])      # (A - B) x, zero off the window
        x = mono.model.free_apply(direction, x)
        x[mono.window] += kick
        yield np.linalg.norm(kick, axis=0), x


def loop_gaps(w, n=None):
    """The loop's Cauchy gaps for n = 1..n (default n_max), (n, p)."""
    return np.array([gap for gap, _ in islice(loop(w), w.n_max if n is None else n)])


def image(w, n):
    """W^(n) phi = Theta0^{-+n} Theta^{+-n} phi, (L, p), from the loop's n-th iterate."""
    *_, (_, x) = islice(loop(w), n)
    return w.mono.model.free_apply(-w.direction * n, x)


def operator(w):
    """Full-space iterate at n_max (unitary)."""
    return w.apply(np.eye(w.mono.model.sites, dtype=np.complex128))


def free_propagator(h, t: float) -> np.ndarray:
    """U0(t) = exp(-i t H0), equal to expm_hermitian(h0, t); every t shares
    one eigendecomposition of H0 per model."""
    return h.free_eig.exp(float(t))


def ring_time_average(mono, x: np.ndarray, width: float, n_quad: int = 8) -> np.ndarray:
    """The trapezoid kernel width^{-1} int_0^width U0(t)^dagger U(s + t, s) dt times
    the block x, s = mono.start: x propagated on mono's whole model through the nodes
    in one running sweep on mono's schedule, each U0(-t_j) through free_apply.
    scattering.time_average steps the Monodromy's segment alone; this is its
    whole-model reference."""
    h, s, sched = mono.model, mono.start, mono.scheme
    nodes = np.linspace(0.0, width, n_quad + 1)
    weights = np.full(n_quad + 1, 1.0)
    weights[0] = weights[-1] = 0.5
    weights /= weights.sum()
    out = weights[0] * x
    for i in range(1, n_quad + 1):
        x = propagate(h, s + nodes[i - 1], s + nodes[i], sched, initial=x)
        out = out + weights[i] * h.free_apply(-nodes[i], x)
    return out


def start_time_covariance_defect(mono, n_max: int, probes) -> float:
    """Defect of W(s') = U0(s', s) W(s) U(s, s') at s' = s + 1/2 on probes,
    with s = mono.start, on mono's model.

    Both sides map a state at time s' to its future free asymptote; the
    left-hand side is computed from the monodromy at s', built here on
    mono's schedule, the right-hand side transports through the interacting
    propagator to s and back with the free one.  Theta_s^n and Theta_s'^n act
    on the probe columns through their monodromies' eigenbases, the free
    factors through the model's free_apply.
    """
    model, s, sched, shift = mono.model, mono.start, mono.scheme, 0.5
    s2 = s + shift

    def wave_op(m, x: np.ndarray, t: float) -> np.ndarray:
        """U0(t) Theta0^{-n} Theta^n x."""
        return model.free_apply(t - n_max, m.apply(n_max, x))

    lhs = wave_op(monodromy(model, s2, sched),
                  propagate(model, s, s2, sched, initial=probes.vectors), 0.0)
    rhs = wave_op(mono, probes.vectors, shift)
    return float(np.linalg.norm(lhs - rhs, axis=0).max())


def fourier_modes(samples, m_cut: int, label: str = "") -> PeriodicHamiltonian:
    """Recover Fourier modes from uniform samples (t_j, H(t_j)).

    samples must lie on the uniform grid t_j = j / N_t with N_t >= 4*m_cut + 2.
    Returns a PeriodicHamiltonian with h0 = 0 and modes
    H_n = (1/N_t) sum_j exp(-2 pi i n t_j) H(t_j) for |n| <= m_cut.
    Band-limited inputs of degree <= m_cut round-trip through evaluate().
    """
    if m_cut < 0:
        raise ValueError("mode cutoff must be >= 0")
    n_t = len(samples)
    if n_t < 4 * m_cut + 2:
        raise ValueError(f"need at least 4*M+2 = {4 * m_cut + 2} samples for cutoff M={m_cut}, got {n_t}")
    ts = np.array([float(t) for t, _ in samples])
    expected = np.arange(n_t) / n_t
    if np.abs(ts - expected).max() > 1e-12:
        raise ValueError("samples must sit on the uniform grid t_j = j/N_t")
    mats = np.stack([check_hermitian(as_complex_matrix(h)) for _, h in samples])
    dim = mats.shape[1]
    modes = {}
    for n in range(-m_cut, m_cut + 1):
        phases = np.exp(-2j * np.pi * n * expected)
        modes[n] = np.einsum("j,jab->ab", phases, mats) / n_t
    return PeriodicHamiltonian(h0=np.zeros((dim, dim)), modes=modes, label=label)


def step(stepper, a: float, u: np.ndarray) -> np.ndarray:
    """exp(-i Omega) u for the step from a."""
    return stepper.sweep(a, 1, u)


def check_cocycle(h, s: float, r: float, t: float,
                  sched: PropagatorSchedule | None = None) -> float:
    """Composition defect ||U(t, r) U(r, s) - U(t, s)||_max for s <= r <= t."""
    if not (s <= r <= t):
        raise ValueError("need s <= r <= t")
    sched = sched or PropagatorSchedule()
    left = propagate(h, r, t, sched) @ propagate(h, s, r, sched)
    return max_norm(left - propagate(h, s, t, sched))


def check_period_shift(h, t: float, sched: PropagatorSchedule | None = None) -> float:
    """Defect of the stroboscopic factorization U(t+1, 0) = U(t, 0) U(1, 0)."""
    if t < 0:
        raise ValueError("need t >= 0")
    sched = sched or PropagatorSchedule()
    theta = propagate(h, 0.0, 1.0, sched)
    lhs = propagate(h, 0.0, t + 1.0, sched)
    rhs = propagate(h, 0.0, t, sched) @ theta
    return max_norm(lhs - rhs)


def convergence_ladder(h, order: int, steps: tuple[int, ...] = (64, 128, 256, 512, 1024),
                       s: float = 0.0) -> dict:
    """Self-convergence study of the one-period operator over a step ladder.

    Returns the max-norm differences ||Theta(N) - Theta(2N)|| and their
    successive ratios, which should approach 2**order.
    """
    thetas = [monodromy(h, s, PropagatorSchedule(n, order)).operator for n in steps]
    diffs = [max_norm(thetas[i] - thetas[i + 1]) for i in range(len(thetas) - 1)]
    ratios = [diffs[i] / diffs[i + 1] for i in range(len(diffs) - 1) if diffs[i + 1] > 0]
    return {"steps": list(steps), "differences": diffs, "ratios": ratios}


def rabi_closed_form_propagator(t: float, delta: float = 0.0, v: float = 1.0) -> np.ndarray:
    """Exact U(t, 0) for the driven two-level model via the rotating frame."""
    sz = np.diag([1.0, -1.0]).astype(np.complex128)
    hrot = np.array([[delta / 2 + np.pi, v], [v, -delta / 2 - np.pi]], dtype=np.complex128)
    return expm_hermitian(-np.pi * t * sz, 1.0) @ expm_hermitian(hrot, t)


def rabi_quasi_energies(delta: float = 0.0, v: float = 1.0) -> np.ndarray:
    """Closed-form quasi-energies of the driven two-level model, folded to [0, 2pi).

    From the rotating frame U(t,0) = exp(+i pi t sigma_z) exp(-i t Hrot) with
    Hrot = [[delta/2 + pi, v], [v, -delta/2 - pi]] (validated against direct
    integration), the monodromy is -exp(-i Hrot), giving quasi-energies
    +-sqrt((delta/2 + pi)^2 + v^2) - pi mod 2pi.
    """
    mu = np.sqrt((delta / 2 + np.pi) ** 2 + v**2)
    return np.sort(np.mod([mu - np.pi, -mu - np.pi], 2 * np.pi))


def block(k, n: int, m: int) -> np.ndarray:
    nb, d = k.space.n_blocks, k.space.fiber_dim
    return k.matrix.reshape(nb, d, nb, d)[n + k.space.n_modes, :, m + k.space.n_modes]


def shift_group_defect(k: FloquetMatrix, sigma: float) -> float:
    """Interior defect of exp(i J sigma) S exp(-i J sigma) = exp(2 pi i sigma) S.

    With the block phases p_n = exp(2 pi i n sigma) of exp(i J sigma), the
    conjugated shift's interior block (n, n - 1) is p_n conj(p_{n-1}).
    """
    p = np.exp(1j * k.space.frequencies * sigma)
    return float(np.abs(p[1:] * p[:-1].conj() - np.exp(2j * np.pi * sigma)).max(initial=0.0))


def mode_eigen_defect(mono, spec) -> float:
    """max ||Theta phi(s) - e^{-i lambda} phi(s)|| / ||phi(s)|| over the interior
    eigenvectors of spec, each resummed alone at s = mono.start into phi(s) =
    sum_n x_n e^{2 pi i n s} and checked alone: the per-mode loop that
    floquet.correspondence_report runs as one product.  A mode with
    ||phi(s)|| < 1e-12 is left out; 0.0 where none is left."""
    space = spec.space
    phases = np.exp(2j * np.pi * space.modes * (float(mono.start) % 1.0))
    defects = [0.0]
    for idx in np.flatnonzero(spec.interior):
        phi = phases @ spec.vectors[:, idx].reshape(space.n_blocks, space.fiber_dim)
        norm = np.linalg.norm(phi)
        if norm >= 1e-12:
            resid = mono.operator @ phi - np.exp(-1j * spec.values[idx]) * phi
            defects.append(float(np.linalg.norm(resid) / norm))
    return max(defects)


def spatial_mass(spec) -> np.ndarray:
    """Per-eigenvector fiber-site occupation, summed over modes: (d, n_eig)."""
    return (np.abs(spec.space.blocks(spec.vectors)) ** 2).sum(axis=0)


def k0_grid_matrix(h0: np.ndarray, n_t: int) -> np.ndarray:
    """Discretized -i d/dt + H0 on the grid space (spectral differentiation)."""
    d = h0.shape[0]
    deriv = np.fft.ifft(
        2j * np.pi * np.fft.fftfreq(n_t, d=1.0 / n_t)[:, None] * np.fft.fft(np.eye(n_t), axis=0),
        axis=0,
    )
    return np.kron(-1j * deriv, np.eye(d)) + np.kron(np.eye(n_t), h0)


def solve(a, b):
    """Solve A x = b by partial-pivot LU.  Returns (x, condition_estimate).

    Raises SingularMatrixError when a pivot falls below
    PIVOT_RTOL * max row norm: the shifted operator at a spectral point.
    """
    from scipy.linalg import lu_factor, lu_solve
    from scipy.linalg.lapack import zgecon

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
    if row_norm == 0.0 or pivots.min() < PIVOT_RTOL * row_norm:
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below threshold "
            f"{PIVOT_RTOL:.1e} x max row norm {row_norm:.3e}"
        )
    rcond, info = zgecon(lu, row_norm, norm="I")
    cond = float(1.0 / rcond) if rcond > 0 else np.inf
    if info != 0:
        raise SingularMatrixError(f"condition estimate failed (info={info})")
    x = lu_solve((lu, piv), b)
    return x, cond


def block_multiply(ops: np.ndarray, mat: np.ndarray, side: str) -> np.ndarray:
    """ops applied to a grid matrix as a block-diagonal multiplication operator, on
    the left (block row j times ops[j]) or the right (block column k), by einsum."""
    n_t, d = ops.shape[0], ops.shape[1]
    view = mat.reshape(n_t, d, n_t, d)
    if side == "left":
        out = np.einsum("jpr,jrkq->jpkq", ops, view, optimize=True)
    else:
        out = np.einsum("jpkr,krq->jpkq", view, ops, optimize=True)
    return out.reshape(n_t * d, n_t * d)


def full_resolvent(h, lam: complex, n_t: int):
    """Grid matrix of the full periodic resolvent via the factorized correction.

    R = R0 - [B R0(conj lambda)]^H [I + Q]^{-1} A R0 with Q = A R0 B.
    Returns (matrix, cond) where cond estimates the conditioning of I + Q;
    a singular I + Q (an exceptional point) raises SingularMatrixError.
    """
    lam = resolvent._check_offaxis(lam)
    r0 = resolvent.r0_matrix(h, lam, n_t)
    fact = resolvent.factorized_potential(h, n_t)
    a_r0 = block_multiply(fact.a_ops, r0, "left")
    q = block_multiply(fact.b_ops, a_r0, "right")
    r0_bar = resolvent.r0_matrix(h, np.conj(lam), n_t)
    left = (block_multiply(fact.b_ops, r0_bar, "left")).conj().T
    dim = q.shape[0]
    try:
        x, cond = solve(np.eye(dim) + q, a_r0)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"I + Q(lambda) singular at lambda={lam} (exceptional set)"
        ) from exc
    return r0 - left @ x, cond


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


def kronecker_sum_k(n_modes, h0, modes):
    """I (x) h0 + diag(2 pi n) (x) I + sum_m (S^m (x) I)(I (x) H_m) on the modes
    n = -N..N, (S x)_n = x_{n-1}, as sparse Kronecker sums, each built by
    scipy.sparse; csr."""
    import scipy.sparse as sp

    nb, d = 2 * n_modes + 1, h0.shape[0]
    free = (sp.kron(sp.eye_array(nb), h0, format="csr")
            + sp.kron(sp.diags_array(2 * np.pi * np.arange(-n_modes, n_modes + 1)),
                      sp.eye_array(d)))
    for m, hm in modes.items():
        if abs(m) >= nb:   # S^m = 0: no block (n, n - m) inside the truncation
            continue
        shift = sp.kron(sp.eye_array(nb, k=-m), sp.eye_array(d), format="csr")
        free = free + shift @ sp.kron(sp.eye_array(nb), hm, format="csr")
    return free.tocsr()


def kronecker_k(h, n_modes):
    """(K, K0) of the model h at mode cutoff N (kronecker_sum_k), from its h0 and modes
    alone: K with the blocks H0 + H_0 and H_m (m != 0), K0 with H0 alone."""
    couplings = {m: hm for m, hm in h.modes.items() if m != 0}
    return (kronecker_sum_k(n_modes, h.h0 + h.mode(0), couplings),
            kronecker_sum_k(n_modes, h.h0, {}))


def dense_lattice(sites: int, hopping: float, well_depth: float, drive_amp: float,
                  support) -> tuple[np.ndarray, dict]:
    """(h0, modes) of the driven ring, formed as dense complex arrays at once: the
    tridiagonal hopping with periodic closure, H0[i, i+-1 mod L] = -hopping, the
    well as mode 0 and drive_amp / 2 as modes +-1 (one array) on the support's
    diagonal, each mode only where its value is nonzero, keys ascending."""
    h0 = np.zeros((sites, sites), dtype=np.complex128)
    i = np.arange(sites)
    h0[i, (i + 1) % sites] = h0[(i + 1) % sites, i] = -hopping

    def diagonal(value):
        out = np.zeros((sites, sites), dtype=np.complex128)
        out[support, support] = value
        return out
    modes = {}
    if well_depth != 0.0:
        modes[0] = diagonal(well_depth)
    if drive_amp != 0.0:
        modes[1] = modes[-1] = diagonal(drive_amp / 2.0)
    return h0, dict(sorted(modes.items()))


def dense_support(h0: np.ndarray, modes: dict) -> np.ndarray:
    """The sites where some mode has a nonzero row or column, sorted."""
    touched = sum((m != 0 for m in modes.values()), np.zeros(h0.shape, dtype=bool))
    return np.flatnonzero(touched.any(axis=0) | touched.any(axis=1))


def dense_mirror(h0: np.ndarray, modes: dict, arc: tuple[int, int]) -> np.ndarray | None:
    """R: x -> 2 lo + width - 1 - x (mod L) for arc = (lo, width), where h0 and every
    mode equal their copies under R exactly; else None."""
    sites = len(h0)
    r = (2 * arc[0] + arc[1] - 1 - np.arange(sites)) % sites
    flip = np.ix_(r, r)
    symmetric = np.array_equal(h0[flip], h0) and \
        all(np.array_equal(m[flip], m) for m in modes.values())
    return r if symmetric else None


def dense_ring_spectrum(h0: np.ndarray) -> np.ndarray:
    """The real part of the FFT of h0's first column."""
    return np.fft.fft(h0[:, 0]).real


def matrix_to_json(a: np.ndarray):
    # + 0.0 normalizes negative zero so write-read-write is byte-identical
    return [[[float(z.real) + 0.0, float(z.imag) + 0.0] for z in row] for row in np.asarray(a, complex)]


def model_to_json_dict(h: PeriodicHamiltonian) -> dict:
    return {
        "dim": h.dim,
        "H0": matrix_to_json(h.h0),
        "modes": [{"n": n, "matrix": matrix_to_json(m)} for n, m in sorted(h.modes.items())],
        "label": h.label,
    }


def save_model(h: PeriodicHamiltonian, path):
    """h as a JSON model file, bit-exact: floats written with Python repr
    (shortest round-trip), keys in a fixed order."""
    with open(path, "w") as f:
        json.dump(model_to_json_dict(h), f, sort_keys=True, indent=1)
        f.write("\n")

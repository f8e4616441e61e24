"""Propagators U(t, s) and the one-period (monodromy) operator.

Time stepping uses Magnus exponents: order 2 is the midpoint exponential
U(t + dt, t) = exp(-i dt H(t + dt/2)), order 4 the two-point Gauss-Magnus
step Omega = (dt/2)(H1 + H2) + i (sqrt(3) dt^2 / 12)[H1, H2] (Blanes, Casas,
Oteo & Ros, Phys. Rep. 470 (2009)).  Omega is never formed from dense
products: with H(t) = sum_i c_i(t) M_i over M_0 = H0 + H_0 and the modes H_n,
every M_i and pairwise commutator [M_i, M_j] is held once per propagate call
as a data row on one sparse pattern, and Omega's entries for every step of a
call come from one product of the steps' scalar coefficients at their Gauss
nodes with that stack, held to require_hermitian's rule as one stack.  The
pattern, the stack and the positions of each entry's transpose are built with
numpy from the operands' nonzero keys (numerics.distinct, searchsorted); the
commutators come from scipy's compiled CSR product and difference kernels
(numerics.csr_kernels), as scipy.sparse forms them (`_commutator`).
exp(-i Omega) acts on the
running product through a Taylor polynomial whose degree and substep count
are fixed per call from the a-priori bound on ||Omega||_1 so that the
truncation error stays below unit round-off (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33 (2011)), evaluated by Horner's rule: acc <- u + X_j acc for
j = degree..1, X_j = -i Omega / (substeps j).  On a sparse pattern each term
is one call of scipy's compiled CSR multivector kernel `csr_matvecs`
(numerics), which adds X_j acc onto a C-ordered copy of u: a product through
scipy.sparse's `omega @ x` reaches the same kernel only after per-call format
checks and a zeroed result.  A
propagator is therefore unitary to round-off, not by construction;
`unitary_eig`'s `check_unitary` gates every Monodromy.eig.  After each step
`flush` zeroes the parts below 2^-200, and returns at once, writing nothing,
where there are none.  A stepper is built once per model, signed step
width and order and kept in the model's `steppers` cache, so every propagate
call on that model at that width, the monodromy's and the time average's
alike, shares it.

A LatticeModel whose diagonals equal their copies under the site reflection R
about the support, and whose hopping R maps onto itself (`LatticeModel.mirror`),
has H(t) R = R H(t), so U(t, s) commutes with R as well (Haake, Quantum
Signatures of Chaos, ch. 2).  `propagate` from the identity then steps one
column per mirror orbit, j <= R[j], and fills column R[j] with rows R of
column j: about half the columns, whose stepped ones are bit for bit those
of a full sweep.

The one-period operator Theta = U(s + 1, s) carries the stroboscopic
dynamics; its eigenphases are the quasi-energies mod 2pi.  Where
H(t)^T = H(-t) (H_-n = H_n^T for every mode, H0 = H0^T), 2s is an integer
and the step count N is even, the second half-period's steps are the
transposes of the first half's in reverse order, so Theta = A^T A with
A = U(s + 1/2, s) costs N/2 steps (`_stepped_period`); every other model
and schedule takes all N.  Theta(s) has period 1 in s, and `monodromy`
forms it at s mod 1, the start its Monodromy records.

Every Monodromy holds Theta in one shape, Theta = Theta0 + P E_w P^T with
Theta0 = U0(1): E_w is the block of E = Theta - Theta0 on a window W of sites,
and P places W's rows (`window_block`).  On a closed LatticeModel (a ring,
whose `ring_spectrum` gives its U0(1) by FFT) E lives on a window around the
arc of the declared sites, which hold the well and the drive: one period of
free motion carries amplitude |U0(1)_xy| <= |hopping|^|x-y| / |x-y|!
(Abramowitz & Stegun 9.1.62) and no farther, a light cone (Lieb & Robinson,
Commun. Math. Phys. 28 (1972)).  With r the smallest radius where that bound
falls to unit round-off (19 at hopping 1, `light_cone_radius`), the model is
cut to the open chain `segment(2r)` on support_window(2r), itself a
LatticeModel, and the window W = support_window(r) of it is stepped there on
the same schedule and start: W's columns alone (`propagate`'s `columns`), one
per mirror orbit where the segment is symmetric about the arc, and on the
half path Theta_seg[W, W] = A[:, W]^T A[:, W]
(22 of the 81-site segment's columns at hopping 1 and a 5-site well).  E_w
is Theta_seg[W, W] - U0_seg(1)[W, W] (the open segment is no circulant: its
U0_seg(1) comes from its real eigh).  Its border rows and columns must be at
most WINDOW_BORDER_TOL, checked on every build, or r doubles.  Where the light
cone does not fit (a model that is no ring, a ring whose segment would
exceed half its sites, a border that keeps failing), W is every site, E is
Theta - Theta0 with Theta stepped on the model itself (`_stepped_period`), and
the segment is the model.  A Monodromy is its model's Theta: it keeps the
model, the window, E_w and the segment (with the steppers and free_eig it was
stepped with, which scattering's time average and bound-state cross-check
read), not Theta itself.  `Monodromy.operator` forms Theta from the model's
read-only U0(1) and E_w, with the same bits, each time it is read, so on the
light cone a Monodromy adds to its model a segment of ~4r sites, whatever the
ring's size.  `monodromy` takes window_block's one answer and diagonalizes
nothing: `Monodromy.eig` diagonalizes Theta when first read, on the even and
odd sectors of the model's mirror (numerics.unitary_eig) where it has one
(Theta commutes with R on every window), and keeps the answer.  The wave
operators act with Theta through that eigenbasis without reading Theta.

A schedule whose step needs more than MAX_TAYLOR_APPLICATIONS Taylor
applications of Omega is rejected when its stepper is planned
(StepPlanError), before any step is taken.  The plan is costed in floating
point, so every norm bound above the ceiling, infinity included, is
rejected, and no count wraps in a cast to int.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import lgamma, log

import numpy as np

from .model import LatticeModel, PeriodicHamiltonian
from .numerics import (EigenDecomposition, NumericalError, csr_arrays, csr_kernels, csr_matvecs,
                       csr_structure, distinct, expm_hermitian, require_hermitian, unitary_eig)

_GAUSS_OFFSET = np.sqrt(3.0) / 6.0
_UNIT_ROUNDOFF = 2.0**-53
_MAX_DEGREE = 55
# propagator entries below this (about 6e-61, some 44 orders of magnitude under
# the round-off of a unit-norm propagator) are dropped after each step: on a
# ring the entries far from the diagonal decay without bound, and left in
# place they reach subnormal numbers, in the propagator and in the powers of
# it that the wave operators take, whose arithmetic is many times slower
_FLUSH_BELOW = 2.0**-200
# Omega's entries for the steps of one propagate call are formed in blocks of
# at most this many (16 bytes each), so a long sweep over a dense pattern does
# not hold every step's entries at once
_ENTRY_BLOCK = 2**12
# Taylor applications of Omega per step above which a stepper is not built:
# every shipped config, test and benchmark schedule plans at most 1760 (the
# d = 4 two-harmonic model at 8 steps, order 4; the 256-site ring plans 14 at
# 8 steps, 8 at 64 and 5 at 512), while {"builtin": "rabi", "v": 1e6} at 8
# steps plans 55 x 26299 and would run long before failing
MAX_TAYLOR_APPLICATIONS = 2**15
# the largest entry E_w's border rows and columns may hold: E decays faster
# than geometrically away from the support, so a border this small leaves
# what lies beyond it below round-off; a time-average kick's rows outside the
# window are held to it relative to their column's norm (_window_kicks)
WINDOW_BORDER_TOL = 1e-13


class StepPlanError(ValueError):
    """A step whose Taylor plan exceeds MAX_TAYLOR_APPLICATIONS: too few steps per period."""


class WindowLeakError(NumericalError, RuntimeError):
    """A time-average kick D(t) x_W that reaches a segment row outside the light cone's
    window beyond WINDOW_BORDER_TOL times its column's norm (_window_kicks)."""


def flush(u: np.ndarray) -> np.ndarray:
    """u with every real and imaginary part below _FLUSH_BELOW set to +0.0, in place;
    where no part is that small, u is returned unwritten."""
    parts = u.view(np.float64)
    small = np.abs(parts) < _FLUSH_BELOW
    if small.any():
        parts[small] = 0.0
    return u


def _taylor_radii() -> np.ndarray:
    """For m = 1.._MAX_DEGREE, the largest x with x^(m+1)/(m+1)! e^x <= unit
    round-off: on ||X|| <= x the degree-m Taylor polynomial of exp(X) is exact
    to round-off."""
    m = np.arange(1, _MAX_DEGREE + 1)
    log_factorial = np.array([lgamma(k + 2) for k in m])
    lo, hi = np.zeros(len(m)), m + 1.0
    for _ in range(100):   # bisection: the left-hand side increases with x
        mid = (lo + hi) / 2
        below = (m + 1) * np.log(mid) - log_factorial + mid <= log(_UNIT_ROUNDOFF)
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return lo


_TAYLOR_RADII = _taylor_radii()


def taylor_plan(norm_bound: float) -> tuple[int, int]:
    """(degree, substeps) of the cheapest Taylor action of exp(X), ||X|| <= norm_bound:
    `substeps` degree-`degree` polynomials of exp(X / substeps), each exact to round-off.
    Raises StepPlanError where it costs more than MAX_TAYLOR_APPLICATIONS."""
    with np.errstate(over="ignore"):    # a bound past the float range costs inf
        substeps = np.maximum(1.0, np.ceil(norm_bound / _TAYLOR_RADII))
        cost = np.arange(1, _MAX_DEGREE + 1) * substeps
    best = int(np.argmin(cost))
    if cost[best] > MAX_TAYLOR_APPLICATIONS:
        raise StepPlanError(
            f"a step with ||Omega||_1 <= {norm_bound:.3g} needs {best + 1} x {substeps[best]:g} "
            f"Taylor applications, above the ceiling of {MAX_TAYLOR_APPLICATIONS}")
    return best + 1, int(substeps[best])


MIN_STEPS = 8
ORDERS = (2, 4)


@dataclass(frozen=True)
class PropagatorSchedule:
    """Stepping plan: substeps per unit period and integrator order."""

    steps_per_period: int = 512
    order: int = 4

    def __post_init__(self):
        if self.steps_per_period < MIN_STEPS:
            raise ValueError(f"steps_per_period must be >= {MIN_STEPS}")
        if self.order not in ORDERS:
            raise ValueError(f"integrator order must be one of {ORDERS}")


def _commutator(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row-major keys, values) of the nonzero entries of AB - BA, bit for bit as scipy.sparse
    forms it from CSR operands, by its kernels: csr_matmat for each product and
    csr_minus_csr for the difference, which takes an entry of BA alone as 0 - BA_ij."""
    n, kernels = a.shape[0], csr_kernels

    def apply(kernel, x, y, size):
        out = (np.empty_like(x[0]), np.empty(size, x[1].dtype), np.empty(size, np.complex128))
        kernel(n, n, *x, *y, *out)
        return out

    a, b = csr_arrays(a), csr_arrays(b)     # complex, as every operand is
    ab, ba = (apply(kernels.csr_matmat, x, y, kernels.csr_matmat_maxnnz(n, n, *x[:2], *y[:2]))
              for x, y in ((a, b), (b, a)))
    indptr, indices, values = apply(kernels.csr_minus_csr, ab, ba, ab[0][-1] + ba[0][-1])
    size = indptr[-1]
    return np.repeat(np.arange(n), np.diff(indptr)) * n + indices[:size], values[:size]


class MagnusStepper:
    """exp(-i Omega) of one Magnus step of width dt, applied to a running product.

    H(t) = sum_i c_i(t) M_i with M_0 = H0 + H_0 (c_0 = 1) and M_i = H_n
    (c_i = e^{2 pi i n t}) for each mode n != 0.  The operands, and at
    order 4 the commutators [M_i, M_j] for i < j (`_commutator`, formed once
    the Taylor plan is accepted), are data
    rows on one symmetric CSR pattern, the union of their supports, so a
    step's Omega costs one small matrix-vector product of scalar weights
    with that stack:
      order 2: Omega = dt sum_i c_i M_i at the midpoint;
      order 4: Omega = (dt/2) sum_i (c1_i + c2_i) M_i
               + i (sqrt(3) dt^2 / 12) sum_{i<j} (c1_i c2_j - c1_j c2_i) [M_i, M_j]
    at the Gauss nodes.  The Taylor degree and substep count follow from
    ||Omega||_1 <= |dt| B + (sqrt(3)/6) (dt B)^2, B = sum_i ||M_i||_1.
    The pattern (`indptr`, `indices`, the sorted row-major `keys`), the
    `stack` and each entry's transposed partner (`mirror`) come from the
    operands' nonzero keys by one `distinct` and searchsorted.

    A step evaluates its Taylor polynomial by Horner's rule, acc <- u + X_j acc
    for j = degree..1 with X_j = -i Omega / (substeps j), the term scales
    folded into the step's entries by one multiply.  Each term is one call of
    scipy's compiled kernel csr_matvecs, accumulating X_j acc onto a C-ordered
    copy of u, so that no `omega @ x` dispatch and no separate add is paid per
    term (`accumulate`), whatever the pattern's fill.  Each step ends in
    `flush`, which writes nothing where no part is below 2^-200.  The stepper
    acts on whatever columns it is given; `propagate` hands it one column per
    mirror orbit where the model has a `mirror`.
    """

    def __init__(self, h: PeriodicHamiltonian, dt: float, order: int):
        modes = [n for n in h.modes if n != 0]
        self.dt, self.order, self.dim = dt, order, h.dim
        self.phase = 2j * np.pi * np.array([0] + modes)
        ops = [h.h0 + h.mode(0)] + [h.modes[n] for n in modes]
        self.pairs = np.array(list(combinations(range(len(ops)), 2)), dtype=int).reshape(-1, 2).T
        dim = self.dim
        # (row-major keys, values) of each operand's nonzero entries
        parts = [(keys, op.ravel()[keys]) for keys, op in
                 zip(map(np.flatnonzero, ops), ops)]
        bound = abs(dt) * sum(float(np.bincount(keys % dim, np.abs(values), dim).max())
                              for keys, values in parts)   # the largest column sum, ||M_i||_1
        if order == 4:   # a square past the float range is inf, which taylor_plan rejects
            bound += _GAUSS_OFFSET * (bound**2 if bound < 1e154 else np.inf)
        self.degree, self.substeps = taylor_plan(bound)   # a rejected plan forms no commutator
        if order == 4:
            parts += [_commutator(ops[i], ops[j]) for i, j in self.pairs.T]

        # the pattern: the union of the supports and its transpose, sorted row-major
        keys = np.concatenate([k for k, _ in parts])
        self.keys = distinct(np.concatenate([keys, keys % dim * dim + keys // dim]))
        self.indptr, self.indices = csr_structure(self.keys, (dim, dim))
        row, col = np.divmod(self.keys, dim)
        self.stack = np.zeros((len(parts), len(self.keys)), dtype=np.complex128)
        for line, (k, values) in zip(self.stack, parts):
            line[np.searchsorted(self.keys, k)] = values
        self.mirror = np.searchsorted(self.keys, col * dim + row)   # each entry's transpose
        # X_degree .. X_1 of Horner's rule, per unit of Omega
        self._term_scales = np.array([-1j / (self.substeps * j)
                                      for j in range(self.degree, 0, -1)])[:, None]

    def _coefficients(self, t: np.ndarray) -> np.ndarray:
        return np.exp(np.multiply.outer(t % 1.0, self.phase))

    def weights(self, starts: np.ndarray) -> np.ndarray:
        """Coefficients of the stacked operands in Omega, one row per step start."""
        dt = self.dt
        if self.order == 2:
            return dt * self._coefficients(starts + dt / 2)
        c1 = self._coefficients(starts + dt * (0.5 - _GAUSS_OFFSET))
        c2 = self._coefficients(starts + dt * (0.5 + _GAUSS_OFFSET))
        i, j = self.pairs
        comm = 1j * (np.sqrt(3.0) * dt**2 / 12) * (c1[:, i] * c2[:, j] - c1[:, j] * c2[:, i])
        return np.concatenate([(dt / 2) * (c1 + c2), comm], axis=1)

    def entries(self, starts: np.ndarray) -> np.ndarray:
        """Omega's entries on the pattern for the steps from each time in `starts`,
        one row per step, each step's Omega checked Hermitian."""
        data = self.weights(starts) @ self.stack
        require_hermitian(np.abs(data - data[:, self.mirror].conj()).max(axis=1, initial=0.0),
                          np.abs(data).max(axis=1, initial=0.0))
        return data

    def accumulate(self, data: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out += X x for the operator X with entries `data` on the pattern; x and
        out C-ordered, out written in place."""
        csr_matvecs(self.dim, self.dim, x.size // self.dim, self.indptr, self.indices,
                    data, x, out)
        return out

    def _step(self, data: np.ndarray, u: np.ndarray) -> np.ndarray:
        """exp(-i Omega) u for Omega's entries `data`: `substeps` Taylor polynomials of
        degree `degree` in -i Omega / substeps by Horner's rule."""
        terms = self._term_scales * data
        u = np.ascontiguousarray(u)
        for _ in range(self.substeps):
            acc = u
            for term in terms:
                acc = self.accumulate(term, acc, u.copy())
            u = acc
        return flush(u)

    def sweep(self, s: float, n_steps: int, u: np.ndarray) -> np.ndarray:
        """The product of the steps from s + k dt, k = 0..n_steps-1, times u.

        Every step's Omega entries, Hermitian check included, are computed
        before stepping, in blocks of at most _ENTRY_BLOCK entries."""
        starts = s + np.arange(n_steps) * self.dt
        block = max(1, _ENTRY_BLOCK // max(1, self.stack.shape[1]))
        for first in range(0, n_steps, block):
            for data in self.entries(starts[first:first + block]):
                u = self._step(data, u)
        return u


def propagate(h: PeriodicHamiltonian, s: float, t: float,
              sched: PropagatorSchedule | None = None,
              initial: np.ndarray | None = None,
              columns: np.ndarray | None = None) -> np.ndarray:
    """U(t, s) for i dpsi/dt = H(t) psi, times `initial` when given; without
    `initial`, its `columns` alone (U(t, s)[:, columns]) where those are given.

    U(s, s) = I.  Every t != s on a driven model is one sweep of
    N = ceil(|t - s| steps_per_period) steps of width dt = (t - s) / N, negative
    for t < s: the Magnus steps are symmetric in time, so the backward sweep
    inverts the forward one to round-off, U(s, t) = U(t, s)^-1, without
    being formed from it.  Stepping continues the running product from
    `initial`, so for a given `initial` a sweep cut into pieces at step
    boundaries rounds like one uninterrupted propagate.  From the identity, a
    LatticeModel with a `mirror` R whose `columns` R maps onto themselves
    (every column, by default) steps only column j <= R[j] of each orbit
    {j, R[j]} and fills column R[j] with rows R of column j at the end, so
    those columns round unlike initial=I's.  The MagnusStepper of each signed
    (dt, order) is built on first use and kept in h.steppers, so a sweep
    whose pieces share their step width builds one stepper.
    """
    sched = sched or PropagatorSchedule()
    if (t == s or h.max_mode == 0) and (initial is not None or columns is not None):
        full = propagate(h, s, t, sched)
        return full @ initial if initial is not None else full[:, columns]
    if t == s:
        return np.eye(h.dim, dtype=np.complex128)
    if h.max_mode == 0:
        # autonomous: a single exponential is exact
        return expm_hermitian(h.evaluate(0.0), t - s)
    n_steps = max(1, int(np.ceil(abs(t - s) * sched.steps_per_period - 1e-12)))
    dt = (t - s) / n_steps
    key = (dt, sched.order)
    if key not in h.steppers:
        h.steppers[key] = MagnusStepper(h, dt, sched.order)
    step = h.steppers[key]
    if initial is not None:
        # complex from the start (a real `initial` could not take the complex
        # steps in place); the stepper copies before it writes
        return step.sweep(s, n_steps, np.asarray(initial, dtype=np.complex128))
    cols = np.arange(h.dim) if columns is None else np.asarray(columns)
    mirror = h.mirror() if isinstance(h, LatticeModel) else None
    if mirror is not None and not np.array_equal(np.sort(mirror[cols]), np.sort(cols)):
        mirror = None
    # each column's orbit representative min(j, R[j]), stepped once
    rep = cols if mirror is None else np.minimum(cols, mirror[cols])
    reps = distinct(rep)
    start = np.zeros((h.dim, len(reps)), dtype=np.complex128)
    start[reps, np.arange(len(reps))] = 1.0
    stepped = step.sweep(s, n_steps, start)
    if mirror is None and columns is None:
        return stepped
    k = np.searchsorted(reps, rep)
    u = stepped.take(k, axis=1)    # C-ordered, as the stepped block is
    if mirror is not None:
        flip = np.flatnonzero(cols != rep)
        u[:, flip] = stepped[mirror[:, None], k[flip]]
    return u


@dataclass
class Monodromy:
    """One-period propagator Theta = U(s + 1, s) of `model`, diagonalized on read.

    Theta is kept as window_block returns it: the window, E_w (the block of
    Theta - U0(1) on it, zero elsewhere) and the model E_w was stepped on
    (`segment`: the light cone's open segment, or the model itself where the
    window is every site, holding its steppers and free_eig); `operator` forms
    Theta from them and the model's U0(1) each time it is read, and `eig`
    diagonalizes it once, when first read."""

    start: float
    scheme: PropagatorSchedule
    window: np.ndarray
    block: np.ndarray
    segment: PeriodicHamiltonian = field(repr=False)
    model: PeriodicHamiltonian = field(repr=False)

    @property
    def operator(self) -> np.ndarray:
        """Theta = U0(1) + P E_w P^T formed now (_with_block), with the bits of the
        matrix `eig` diagonalizes."""
        return _with_block(self.model.free_period, self.window, self.block)

    @cached_property
    def eig(self) -> EigenDecomposition:
        """Theta's eigendecomposition (unitary_eig, on the sectors of the model's
        `mirror` where it has one), formed when first read and kept."""
        mirror = self.model.mirror() if isinstance(self.model, LatticeModel) else None
        return unitary_eig(self.operator, mirror)

    @property
    def quasi_energies(self) -> np.ndarray:
        """Quasi-energies in [0, 2pi): eigenvalue = exp(-i lambda)."""
        return np.mod(-np.angle(self.eig.values), 2 * np.pi)

    def apply(self, n: int, x: np.ndarray) -> np.ndarray:
        """Theta^n x for a block x of columns and any integer n: V (e^{-in lambda} (V^H x))
        with the quasi-energies lambda, whose phases are exact for every n."""
        return self.eig.apply(np.exp(-1j * n * self.quasi_energies), x)


def reflection_symmetric(h: PeriodicHamiltonian, s: float, sched: PropagatorSchedule) -> bool:
    """Whether the second half of the stepped period from s mirrors the first.

    It is when H_-n = H_n^T for every mode and H0 = H0^T, so that
    H(t)^T = H(-t); when 2s is an integer, so that s + 1/2 is a symmetry
    point t -> 2s + 1 - t of H; and when the step count is even, so that the
    Gauss nodes of step N-1-k mirror those of step k about s + 1/2.  Exact
    array equality decides; a constant model is not stepped.
    """
    return (h.max_mode > 0 and sched.steps_per_period % 2 == 0 and float(2 * s).is_integer()
            and np.array_equal(h.h0, h.h0.T)
            and all(np.array_equal(h.modes[-n], m.T) for n, m in h.modes.items()))


def light_cone_radius(hopping: float) -> int:
    """The smallest r with |hopping|^r / r! <= unit round-off: the bound on
    |U0(1)_xy| at |x - y| = r on the ring (19 at hopping 1)."""
    r, bound = 0, 1.0
    while bound > _UNIT_ROUNDOFF:
        r += 1
        bound *= abs(hopping) / r
    return r


def window_block(h: PeriodicHamiltonian, s: float, sched: PropagatorSchedule
                 ) -> tuple[np.ndarray, np.ndarray, PeriodicHamiltonian]:
    """(window, E_w, segment) with Theta = U0(1) + P E_w P^T.

    For a closed LatticeModel, the model is cut to the open chain
    h.segment(2r) on support_window(2r), r = light_cone_radius(hopping), and
    the block Theta_seg[W, W] on the window W = support_window(r) (the
    segment's rows and columns r..-r) is stepped on `sched` from s: W's
    columns alone (_stepped_period), on the segment's mirror orbits where it
    has a `mirror`.  E_w is that block minus U0_seg(1)[W, W].  Where a border
    row or column of E_w exceeds WINDOW_BORDER_TOL, r doubles.  Where the light
    cone does not fit (another model, or a segment that would exceed half the
    ring), the window is every site, E_w = Theta - U0(1) with Theta stepped on
    the model (_stepped_period) and the segment is the model.  The segment is
    returned with the steppers and free_eig it was stepped with, for the
    readers of the window (_window_kicks and the bound-state cross-check in
    scattering).
    """
    # light_cone_radius's bound |hopping|^r / r! is >= 1 up to r = |hopping|, so r > |hopping|:
    # where that radius does not fit, none does, and the search (whose bound overflows,
    # never to fall again, past |hopping| ~ 710) is not started
    local = isinstance(h, LatticeModel) and h.closed and \
        2 * (h.arc[1] + 4 * abs(h.hopping)) <= h.sites
    r = light_cone_radius(h.hopping) if local else 0
    while local and 2 * (h.arc[1] + 4 * r) <= h.sites:
        # a LatticeModel, so that a segment symmetric about the arc is stepped on
        # its mirror orbits
        part = h.segment(2 * r)
        inner = np.arange(r, part.sites - r)
        block = _stepped_period(part, s, sched, inner) - part.free_period[r:-r, r:-r]
        border = np.abs(np.concatenate([block[[0, -1]].ravel(), block[:, [0, -1]].ravel()]))
        if border.max() <= WINDOW_BORDER_TOL:
            return h.support_window(r), block, part
        r *= 2
    return np.arange(h.dim), _stepped_period(h, s, sched) - h.free_period, h


def _window_kicks(mono: Monodromy, x: np.ndarray, nodes: np.ndarray) -> list[np.ndarray]:
    """D(t_j) x_W = (U(s + t_j, s) - U0(t_j)) x_W on W's rows for the nodes t_j after
    the first: x_W = x's rows on mono's window W, placed on the segment's rows that
    hold W (the middle |W| rows, every row where the segment is the model) and
    stepped there through the node intervals with the segment's steppers, minus
    U0_seg(t_j) x_W.  Raises WindowLeakError where a segment row outside W exceeds
    WINDOW_BORDER_TOL times its column's norm of x: window_block has checked E_w's
    border at t = 1, and for t <= 1 the light cone is no wider, so a leak is a fault."""
    seg = mono.segment
    r = (seg.dim - len(mono.window)) // 2
    rows = slice(r, seg.dim - r)
    start = np.zeros((seg.dim,) + x.shape[1:], dtype=np.complex128)
    start[rows] = x[mono.window]
    norm = np.linalg.norm(x, axis=0)
    s, sched, y, kicks = mono.start, mono.scheme, start, []
    for t0, t1 in zip(nodes[:-1], nodes[1:]):
        y = propagate(seg, s + t0, s + t1, sched, initial=y)
        kick = y - seg.free_apply(t1, start)
        leak = np.abs(np.delete(kick, rows, axis=0)).max(axis=0, initial=0.0)
        over = np.flatnonzero(~(leak <= WINDOW_BORDER_TOL * norm))   # a NaN leaks
        if over.size:
            raise WindowLeakError(
                f"the time average's kick at t = {t1:.6g} leaves the light cone's window: "
                f"{leak[over[0]]:.3e} on a segment row outside it, above WINDOW_BORDER_TOL = "
                f"{WINDOW_BORDER_TOL:.0e} times the column's norm {norm[over[0]]:.3e}")
        kicks.append(kick[rows])
    return kicks


def _with_block(theta0: np.ndarray, window: np.ndarray, block: np.ndarray) -> np.ndarray:
    """U0(1) + P block P^T, on a copy of the model's read-only U0(1), flushed."""
    theta = theta0.copy()
    theta[np.ix_(window, window)] += block
    return flush(theta)


def _stepped_period(h: PeriodicHamiltonian, s: float, sched: PropagatorSchedule,
                    inner: np.ndarray | None = None) -> np.ndarray:
    """U(s + 1, s) stepped, from half a period where the model allows, else all N
    steps; given `inner`, its block Theta[inner, inner] from the `inner` columns
    alone.

    Under `reflection_symmetric`, step N-1-k's Magnus exponent is the
    transpose of step k's (the midpoint exponent and the Gauss-Magnus one
    alike, [H2^T, H1^T] = [H1, H2]^T), and so is its Taylor polynomial; the
    N steps then multiply to Theta = A^T A with A = U(s + 1/2, s), the first
    N/2 steps, and Theta[inner, inner] = A[:, inner]^T A[:, inner].  This is
    the symmetric-unitary Floquet operator of a time-reversal-invariant drive
    (Haake, Quantum Signatures of Chaos, ch. 2).  Theta is flushed like every
    step.
    """
    if not reflection_symmetric(h, s, sched):
        theta = propagate(h, s, s + 1.0, sched, columns=inner)
        return theta if inner is None else theta[inner]
    half = propagate(h, s, s + 0.5, sched, columns=inner)
    return flush(half.T @ half)


def monodromy(h: PeriodicHamiltonian, s: float = 0.0,
              sched: PropagatorSchedule | None = None) -> Monodromy:
    """Theta = U(s + 1, s) of h as window_block's window, E_w and segment; nothing is
    diagonalized until Monodromy.eig is read.  window_block is asked once, so the
    segments it stepped before settling on a window are not stepped again.

    Theta is formed, and its start recorded, at s mod 1: the same operator,
    whose steps from a large s would lose their offsets to rounding (at
    s = 1e17, s + 1/2 == s and Theta would come out as I)."""
    sched = sched or PropagatorSchedule()
    s = s % 1.0
    return Monodromy(s, sched, *window_block(h, s, sched), h)

"""Propagators U(t, s) and the one-period (monodromy) operator.

Time stepping uses Magnus exponents: order 2 is the midpoint exponential
U(t + dt, t) = exp(-i dt H(t + dt/2)), order 4 the two-point Gauss-Magnus
step Omega = (dt/2)(H1 + H2) + i (sqrt(3) dt^2 / 12)[H1, H2] (Blanes, Casas,
Oteo & Ros, Phys. Rep. 470 (2009)).  Omega is never formed from dense
products: with H(t) = sum_i c_i(t) M_i over M_0 = H0 + H_0 and the modes H_n,
every M_i and pairwise commutator [M_i, M_j] is held once per propagate call
as a data row on one sparse pattern, and Omega's entries for every step of a
call come from one product of the steps' scalar coefficients at their Gauss
nodes with that stack, each step's checked Hermitian.  The pattern, the stack
and the positions of each entry's transpose are built with numpy from the
operands' nonzero keys (one np.unique, searchsorted); scipy.sparse forms only
the commutator products.  exp(-i Omega) acts on the running product through a
Taylor polynomial whose degree and substep count are fixed per call from the
a-priori bound on ||Omega||_1 so that the truncation error stays below unit
round-off (Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011)), evaluated by
Horner's rule: acc <- u + X_j acc for j = degree..1, X_j = -i Omega /
(substeps j).  On a sparse pattern each term is one call of scipy's private
CSR multivector kernel `csr_matvecs`, which adds X_j acc onto a C-ordered copy
of u: the public `omega @ x` reaches the same kernel only after per-call
format checks and a zeroed result, about a third of the product's cost on a
48-site ring.  A
propagator is therefore unitary to round-off, not by construction;
`unitary_eig`'s `check_unitary` gates every monodromy.  After each step
`flush` zeroes the parts below 2^-200, and returns at once, writing nothing,
where there are none.  A stepper is built once per model, step width and
order and kept in the model's `steppers` cache, so every propagate call on
that model at that width, the monodromy's and the time average's alike,
shares it.

A LatticeModel whose h0 and modes equal their copies under the site
reflection R about the support (`LatticeModel.mirror`) has H(t) R = R H(t),
so U(t, s) commutes with R as well (Haake, Quantum Signatures of Chaos,
ch. 2).  `propagate` from the identity then steps one column per mirror
orbit, j <= R[j], and fills column R[j] with rows R of column j: about half
the columns, whose stepped ones are bit for bit those of a full sweep.

The one-period operator Theta = U(s + 1, s) carries the stroboscopic
dynamics; its eigenphases are the quasi-energies mod 2pi.  Where
H(t)^T = H(-t) (H_-n = H_n^T for every mode, H0 = H0^T), 2s is an integer
and the step count N is even, the second half-period's steps are the
transposes of the first half's in reverse order, so Theta = A^T A with
A = U(s + 1/2, s) costs N/2 steps (`period_operator`); every other model
and schedule takes all N.  Theta(s) has period 1 in s, and `monodromy`
forms it at s mod 1, the start its Monodromy records.

A third route serves the driven ring (`window_block`).  Where a LatticeModel's
h0 is exactly the nearest-neighbour ring of its hopping and its `support`
lies in potential_support, E = Theta - Theta0, Theta0 = U0(1), lives on a
window around the support's arc: one period of free motion carries amplitude
|U0(1)_xy| <= |hopping|^|x-y| / |x-y|! (Abramowitz & Stegun 9.1.62) and no
farther, a light cone (Lieb & Robinson, Commun. Math. Phys. 28 (1972)).  With
r the smallest radius where that bound falls to unit round-off (19 at
hopping 1, `light_cone_radius`), the model is sliced to the open segment
support_window(2r) and stepped there on the same schedule and start (half
path included), and E_w is the block of Theta_seg - U0_seg(1) on the window
support_window(r).  Its border rows and columns must be at most
WINDOW_BORDER_TOL, checked on every build, or r doubles; a ring whose segment
would exceed half its sites takes the stepped route.  Theta = Theta0 + P E_w P^T
then costs a copy of the model's U0(1) and a segment of ~4r sites, whatever
the ring's size.  Such a Monodromy keeps the window, E_w and a reference to
the model's read-only U0(1), not Theta: `monodromy` drops Theta once it is
diagonalized, and `Monodromy.operator` forms it again, with the same bits,
each time it is read.  The wave operators act with Theta without reading it.

A schedule whose step needs more than MAX_TAYLOR_APPLICATIONS Taylor
applications of Omega is rejected when its stepper is planned
(StepPlanError), before any step is taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import lgamma, log

import numpy as np
import scipy.sparse as sp
# Y += A X on C-ordered blocks (module docstring); imported here so that a scipy
# without it fails at import, not mid-propagation
from scipy.sparse._sparsetools import csr_matvecs

from .model import LatticeModel, PeriodicHamiltonian, ring_h0
from .numerics import (EigenDecomposition, expm_hermitian, max_norm, require_hermitian,
                       unitary_eig)

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
# steps plans 55 x 26299 and would run for half a minute before failing
MAX_TAYLOR_APPLICATIONS = 2**15
# the largest entry E_w's border rows and columns may hold: E decays faster
# than geometrically away from the support, so a border this small leaves
# what lies beyond it below round-off
WINDOW_BORDER_TOL = 1e-13


class StepPlanError(ValueError):
    """A step whose Taylor plan exceeds MAX_TAYLOR_APPLICATIONS: too few steps per period."""


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
    `substeps` degree-`degree` polynomials of exp(X / substeps), each exact to round-off."""
    substeps = np.maximum(1, np.ceil(norm_bound / _TAYLOR_RADII)).astype(int)
    best = int(np.argmin(np.arange(1, _MAX_DEGREE + 1) * substeps))
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


class MagnusStepper:
    """exp(-i Omega) of one Magnus step of width dt, applied to a running product.

    H(t) = sum_i c_i(t) M_i with M_0 = H0 + H_0 (c_0 = 1) and M_i = H_n
    (c_i = e^{2 pi i n t}) for each mode n != 0.  The operands, and at
    order 4 the commutators [M_i, M_j] for i < j (sparse products), are data
    rows on one symmetric CSR pattern, the union of their supports, so a
    step's Omega costs one small matrix-vector product of scalar weights
    with that stack:
      order 2: Omega = dt sum_i c_i M_i at the midpoint;
      order 4: Omega = (dt/2) sum_i (c1_i + c2_i) M_i
               + i (sqrt(3) dt^2 / 12) sum_{i<j} (c1_i c2_j - c1_j c2_i) [M_i, M_j]
    at the Gauss nodes.  The Taylor degree and substep count follow from
    ||Omega||_1 <= dt B + (sqrt(3)/6) (dt B)^2, B = sum_i ||M_i||_1.
    The pattern (`indptr`, `indices`, the sorted row-major `keys`), the
    `stack` and each entry's transposed partner (`mirror`) come from the
    operands' nonzero keys by one np.unique and searchsorted.

    A step evaluates its Taylor polynomial by Horner's rule, acc <- u + X_j acc
    for j = degree..1 with X_j = -i Omega / (substeps j), the term scales
    folded into the step's entries by one multiply.  Each term is one call of
    scipy's private kernel csr_matvecs, accumulating X_j acc onto a C-ordered
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
        bound = dt * sum(float(np.bincount(keys % dim, np.abs(values), dim).max())
                         for keys, values in parts)   # the largest column sum, ||M_i||_1
        if order == 4:
            bound += _GAUSS_OFFSET * bound**2
            sparse = [sp.csr_array((values, np.divmod(keys, dim)), shape=(dim, dim))
                      for keys, values in parts]
            for i, j in self.pairs.T:
                comm = (sparse[i] @ sparse[j] - sparse[j] @ sparse[i]).tocoo()
                keep = comm.data != 0
                parts.append((comm.row[keep].astype(np.int64) * dim + comm.col[keep],
                              comm.data[keep]))
        self.degree, self.substeps = taylor_plan(bound)
        if self.degree * self.substeps > MAX_TAYLOR_APPLICATIONS:
            raise StepPlanError(
                f"a step of width {dt:.3g} needs {self.degree} x {self.substeps} Taylor "
                f"applications (||Omega||_1 <= {bound:.3g}), above the ceiling of "
                f"{MAX_TAYLOR_APPLICATIONS}: take more steps per period")

        # the pattern: the union of the supports and its transpose, sorted row-major
        keys = np.concatenate([k for k, _ in parts])
        self.keys = np.unique(np.concatenate([keys, keys % dim * dim + keys // dim]))
        row, col = np.divmod(self.keys, dim)
        self.indptr = np.searchsorted(row, np.arange(dim + 1)).astype(np.int32)
        self.indices = col.astype(np.int32)
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
        defects = np.abs(data - data[:, self.mirror].conj()).max(axis=1, initial=0.0)
        scales = np.abs(data).max(axis=1, initial=0.0)
        for defect, scale in zip(defects.tolist(), scales.tolist()):
            require_hermitian(defect, scale)
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

    def __call__(self, a: float, u: np.ndarray) -> np.ndarray:
        """exp(-i Omega) u for the step from a."""
        return self.sweep(a, 1, u)


def propagate(h: PeriodicHamiltonian, s: float, t: float,
              sched: PropagatorSchedule | None = None,
              initial: np.ndarray | None = None) -> np.ndarray:
    """U(t, s) for i dpsi/dt = H(t) psi, times `initial` when given.

    U(s, s) = I; t < s via the adjoint.  Stepping continues the running
    product from `initial`, so for a given `initial` a sweep cut into pieces
    at step boundaries rounds like one uninterrupted propagate.  From the
    identity, a LatticeModel with a `mirror` R steps only column j <= R[j] of
    each orbit {j, R[j]} and fills column R[j] with rows R of column j at the
    end, so those columns round unlike initial=I's.  The MagnusStepper of
    each (dt, order) is built on first use and kept in h.steppers, so a sweep
    whose pieces share their step width builds one stepper.
    """
    sched = sched or PropagatorSchedule()
    if initial is not None and (t <= s or h.max_mode == 0):
        return propagate(h, s, t, sched) @ initial
    if t == s:
        return np.eye(h.dim, dtype=np.complex128)
    if h.max_mode == 0:
        # autonomous: a single exponential is exact
        return expm_hermitian(h.evaluate(0.0), t - s)
    if t < s:
        return propagate(h, t, s, sched).conj().T
    span = t - s
    n_steps = max(1, int(np.ceil(span * sched.steps_per_period - 1e-12)))
    dt = span / n_steps
    key = (dt, sched.order)
    if key not in h.steppers:
        h.steppers[key] = MagnusStepper(h, dt, sched.order)
    step = h.steppers[key]
    if initial is not None:
        # complex from the start (a real `initial` could not take the complex
        # steps in place); the stepper copies before it writes
        return step.sweep(s, n_steps, np.asarray(initial, dtype=np.complex128))
    mirror = h.mirror() if isinstance(h, LatticeModel) else None
    cols = np.arange(h.dim) if mirror is None else np.flatnonzero(np.arange(h.dim) <= mirror)
    start = np.zeros((h.dim, len(cols)), dtype=np.complex128)
    start[cols, np.arange(len(cols))] = 1.0
    stepped = step.sweep(s, n_steps, start)
    if mirror is None:
        return stepped
    u = np.empty((h.dim, h.dim), dtype=np.complex128)
    u[:, mirror[cols]] = stepped[mirror]
    u[:, cols] = stepped
    return u


@dataclass
class Monodromy:
    """One-period propagator Theta = U(s + 1, s) with its eigendecomposition.

    Off the window route Theta is stored (`theta`).  On it `theta` is None and
    the Monodromy keeps the window, E_w (the block of Theta - U0(1) on it, zero
    elsewhere) and the model's read-only U0(1) (`free`); `operator` then forms
    Theta from them each time it is read."""

    theta: np.ndarray | None
    start: float
    eig: EigenDecomposition
    scheme: PropagatorSchedule
    window: np.ndarray | None = None
    block: np.ndarray | None = None
    free: np.ndarray | None = field(default=None, repr=False)

    @property
    def operator(self) -> np.ndarray:
        """Theta: the stored matrix, or on the window route U0(1) + P E_w P^T formed
        now (_with_block), with the bits of the matrix that was diagonalized."""
        if self.window is None:
            return self.theta
        return _with_block(self.free, self.window, self.block)

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


def _local_ring(h: LatticeModel) -> bool:
    """Whether every mode vanishes off potential_support and h0 is exactly the
    nearest-neighbour ring of the hopping."""
    return bool(np.isin(h.support, h.potential_support).all()) and \
        np.array_equal(h.h0, ring_h0(h.sites, h.hopping))


def window_block(h: PeriodicHamiltonian, s: float,
                 sched: PropagatorSchedule) -> tuple[np.ndarray, np.ndarray] | None:
    """(window, E_w) with Theta = U0(1) + P E_w P^T, or None where the route does not apply.

    For a LatticeModel that is a `_local_ring`, the model is sliced to the open
    segment support_window(2r), r = light_cone_radius(hopping), and its
    Theta_seg is taken on `sched` from s by `period_operator`; E_w is
    Theta_seg - U0_seg(1) on the window support_window(r).  Where a border row
    or column of E_w exceeds WINDOW_BORDER_TOL, r doubles; None once the
    segment would exceed half the ring.
    """
    if not isinstance(h, LatticeModel):
        return None
    width, r = h.arc[1], light_cone_radius(h.hopping)
    local = 2 * (width + 4 * r) <= h.sites and _local_ring(h)
    while local and 2 * (width + 4 * r) <= h.sites:
        segment = h.support_window(2 * r)
        cut = np.ix_(segment, segment)
        part = PeriodicHamiltonian(h.h0[cut], {n: m[cut] for n, m in h.modes.items()})
        block = (period_operator(part, s, sched) - part.free_period)[r:-r, r:-r]
        border = np.abs(np.concatenate([block[[0, -1]].ravel(), block[:, [0, -1]].ravel()]))
        if border.max() <= WINDOW_BORDER_TOL:
            return h.support_window(r), block
        r *= 2
    return None


def _with_block(theta0: np.ndarray, window: np.ndarray, block: np.ndarray) -> np.ndarray:
    """U0(1) + P block P^T, on a copy of the model's read-only U0(1), flushed."""
    theta = theta0.copy()
    theta[np.ix_(window, window)] += block
    return flush(theta)


_ASK = object()   # period_operator's default: no window_block answer given


def period_operator(h: PeriodicHamiltonian, s: float = 0.0,
                    sched: PropagatorSchedule | None = None, block=_ASK) -> np.ndarray:
    """The one-period operator U(s + 1, s): from the free ring and a window block
    where `window_block` applies, else from half a period where the model allows.

    Under `reflection_symmetric`, step N-1-k's Magnus exponent is the
    transpose of step k's (the midpoint exponent and the Gauss-Magnus one
    alike, [H2^T, H1^T] = [H1, H2]^T), and so is its Taylor polynomial; the
    N steps then multiply to Theta = A^T A with A = U(s + 1/2, s), the first
    N/2 steps.  This is the symmetric-unitary Floquet operator of a
    time-reversal-invariant drive (Haake, Quantum Signatures of Chaos, ch. 2).
    Theta is flushed like every step.  Otherwise all N steps are taken.

    `block` is window_block's answer where the caller holds it already
    (monodromy), so that segments it stepped before declining are not stepped
    again; by default it is asked for here.
    """
    sched = sched or PropagatorSchedule()
    if block is _ASK:
        block = window_block(h, s, sched)
    if block is not None:
        return _with_block(h.free_period, *block)
    if not reflection_symmetric(h, s, sched):
        return propagate(h, s, s + 1.0, sched)
    half = propagate(h, s, s + 0.5, sched)
    return flush(half.T @ half)


def monodromy(h: PeriodicHamiltonian, s: float = 0.0,
              sched: PropagatorSchedule | None = None) -> Monodromy:
    """Theta = U(s + 1, s) (`period_operator`) and its eigendecomposition, with
    the window and E_w where `window_block` applies; there Theta is dropped once
    diagonalized, and Monodromy.operator forms it when read.

    Theta is formed, and its start recorded, at s mod 1: the same operator,
    whose steps from a large s would lose their offsets to rounding (at
    s = 1e17, s + 1/2 == s and Theta would come out as I)."""
    sched = sched or PropagatorSchedule()
    s = s % 1.0
    block = window_block(h, s, sched)
    theta = period_operator(h, s, sched, block)
    eig = unitary_eig(theta)
    if block is None:
        return Monodromy(theta=theta, start=s, eig=eig, scheme=sched)
    window, defect = block
    return Monodromy(theta=None, start=s, eig=eig, scheme=sched, window=window, block=defect,
                     free=h.free_period)


def check_cocycle(h: PeriodicHamiltonian, s: float, r: float, t: float,
                  sched: PropagatorSchedule | None = None) -> float:
    """Composition defect ||U(t, r) U(r, s) - U(t, s)||_max for s <= r <= t."""
    if not (s <= r <= t):
        raise ValueError("need s <= r <= t")
    sched = sched or PropagatorSchedule()
    left = propagate(h, r, t, sched) @ propagate(h, s, r, sched)
    return max_norm(left - propagate(h, s, t, sched))


def check_period_shift(h: PeriodicHamiltonian, t: float,
                       sched: PropagatorSchedule | None = None) -> float:
    """Defect of the stroboscopic factorization U(t+1, 0) = U(t, 0) U(1, 0)."""
    if t < 0:
        raise ValueError("need t >= 0")
    sched = sched or PropagatorSchedule()
    theta = propagate(h, 0.0, 1.0, sched)
    lhs = propagate(h, 0.0, t + 1.0, sched)
    rhs = propagate(h, 0.0, t, sched) @ theta
    return max_norm(lhs - rhs)


def convergence_ladder(h: PeriodicHamiltonian, order: int,
                       steps: tuple[int, ...] = (64, 128, 256, 512, 1024),
                       s: float = 0.0) -> dict:
    """Self-convergence study of the one-period operator over a step ladder.

    Returns the max-norm differences ||Theta(N) - Theta(2N)|| and their
    successive ratios, which should approach 2**order.
    """
    thetas = [period_operator(h, s, PropagatorSchedule(n, order)) for n in steps]
    diffs = [max_norm(thetas[i] - thetas[i + 1]) for i in range(len(thetas) - 1)]
    ratios = [diffs[i] / diffs[i + 1] for i in range(len(diffs) - 1) if diffs[i + 1] > 0]
    return {"steps": list(steps), "differences": diffs, "ratios": ratios}

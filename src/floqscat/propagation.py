"""Unitary propagators U(t, s) and the one-period (monodromy) operator.

Time stepping uses exponential integrators so every substep is exactly
unitary: order 2 is the midpoint exponential
U(t + h, t) = exp(-i h H(t + h/2)), order 4 the two-point Gauss-Magnus step
with the standard commutator correction.  The one-period operator
U(s + 1, s) carries the stroboscopic dynamics; its eigenphases are the
quasi-energies mod 2pi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import PeriodicHamiltonian
from .numerics import EigenDecomposition, expm_hermitian, max_norm, unitary_eig

_GAUSS_OFFSET = np.sqrt(3.0) / 6.0


@dataclass(frozen=True)
class PropagatorSchedule:
    """Stepping plan: substeps per unit period, integrator order, start time."""

    steps_per_period: int = 512
    order: int = 4
    start: float = 0.0

    def __post_init__(self):
        if self.steps_per_period < 8:
            raise ValueError("steps_per_period must be >= 8")
        if self.order not in (2, 4):
            raise ValueError("integrator order must be 2 or 4")


def _step(h: PeriodicHamiltonian, a: float, dt: float, order: int) -> np.ndarray:
    if order == 2:
        return expm_hermitian(h.evaluate(a + dt / 2), dt)
    h1 = h.evaluate(a + dt * (0.5 - _GAUSS_OFFSET))
    h2 = h.evaluate(a + dt * (0.5 + _GAUSS_OFFSET))
    comm = h1 @ h2 - h2 @ h1
    omega = (dt / 2) * (h1 + h2) + 1j * (np.sqrt(3.0) * dt**2 / 12) * comm
    return expm_hermitian(omega, 1.0)


def propagate(h: PeriodicHamiltonian, s: float, t: float,
              sched: PropagatorSchedule | None = None,
              initial: np.ndarray | None = None) -> np.ndarray:
    """U(t, s) for i dpsi/dt = H(t) psi, times `initial` when given.

    U(s, s) = I; t < s via the adjoint.  Stepping continues the running
    product from `initial`, so a sweep cut into pieces at step boundaries
    rounds like one uninterrupted propagate.
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
    u = np.eye(h.dim, dtype=np.complex128) if initial is None else initial
    for k in range(n_steps):
        u = _step(h, s + k * dt, dt, sched.order) @ u
    return u


@dataclass
class Monodromy:
    """One-period propagator U(s + 1, s) with its eigendecomposition."""

    operator: np.ndarray
    start: float
    eig: EigenDecomposition
    scheme: PropagatorSchedule

    @property
    def quasi_energies(self) -> np.ndarray:
        """Quasi-energies in [0, 2pi): eigenvalue = exp(-i lambda)."""
        return np.mod(-np.angle(self.eig.values), 2 * np.pi)


def monodromy(h: PeriodicHamiltonian, s: float = 0.0,
              sched: PropagatorSchedule | None = None) -> Monodromy:
    sched = sched or PropagatorSchedule()
    theta = propagate(h, s, s + 1.0, sched)
    return Monodromy(operator=theta, start=s, eig=unitary_eig(theta), scheme=sched)


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
    thetas = [propagate(h, s, s + 1.0, PropagatorSchedule(n, order, s)) for n in steps]
    diffs = [max_norm(thetas[i] - thetas[i + 1]) for i in range(len(thetas) - 1)]
    ratios = [diffs[i] / diffs[i + 1] for i in range(len(diffs) - 1) if diffs[i + 1] > 0]
    return {"steps": list(steps), "differences": diffs, "ratios": ratios}

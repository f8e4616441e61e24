import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqscat.model import PeriodicHamiltonian, circulant
from floqscat.numerics import expm_hermitian, unitary_defect
from floqscat.propagation import (
    PropagatorSchedule,
    monodromy,
    propagate,
)

from conftest import random_hermitian
from oracles import (check_cocycle, check_period_shift, convergence_ladder, free_propagator,
                     rabi_closed_form_propagator, rabi_quasi_energies, step)


def constant_model(seed=1, dim=3):
    return PeriodicHamiltonian(h0=random_hermitian(dim, seed))


class TestPropagate:
    def test_identity_at_equal_times(self, rabi, fast_sched):
        assert np.array_equal(propagate(rabi, 0.3, 0.3, fast_sched), np.eye(2))

    def test_constant_hamiltonian(self, fast_sched):
        h = constant_model()
        u = propagate(h, 0.2, 1.5, fast_sched)
        assert np.abs(u - expm_hermitian(h.h0, 1.3)).max() < 1e-10

    @pytest.mark.parametrize("t", [0.3, 0.6, 1.0])
    def test_rabi_closed_form(self, rabi, accurate_sched, t):
        u = propagate(rabi, 0.0, t, accurate_sched)
        assert np.abs(u - rabi_closed_form_propagator(t)).max() < 1e-8

    def test_reverse_via_adjoint(self, rabi, fast_sched):
        # U(0, 0.7) is stepped backward, not formed as an adjoint: it inverts the
        # forward sweep to round-off
        u = propagate(rabi, 0.0, 0.7, fast_sched)
        assert np.abs(propagate(rabi, 0.7, 0.0, fast_sched) - u.conj().T).max() <= 1e-14

    def test_unitarity(self, fleet_models, fast_sched):
        for h in fleet_models:
            u = propagate(h, 0.0, 0.83, fast_sched)
            assert unitary_defect(u) <= 1e-10

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="order"):
            PropagatorSchedule(64, 3)
        with pytest.raises(ValueError, match="steps"):
            PropagatorSchedule(4, 2)


class TestBackwardSweep:
    """propagate(h, s, t) for t < s steps backward, dt = (t - s) / N < 0, through
    the same sweep as the forward one."""

    @staticmethod
    def ring():
        from floqscat.model import build_lattice

        return build_lattice(48, 1.0, -1.0, 0.5, range(22, 26))   # mirror about 23.5

    def test_first_order_mutant_breaks_the_adjoint_reading(self, monkeypatch):
        # criterion 9's adjoint reading with the order-2 exponent taken at each
        # step's start, not its midpoint: a first-order step, not symmetric in
        # time, whose backward sweep does not invert its forward one
        from floqscat.model import fleet
        from floqscat.numerics import max_norm
        from floqscat.propagation import MagnusStepper

        def reading(h, sched):
            return max_norm(propagate(h, 0.1, 0.9, sched).conj().T
                            - propagate(h, 0.9, 0.1, sched))
        sched = PropagatorSchedule(64, 2)
        assert reading(fleet()[1], sched) <= 1e-13
        monkeypatch.setattr(MagnusStepper, "weights",
                            lambda self, starts: self.dt * self._coefficients(starts))
        assert reading(fleet()[1], sched) > 1e-3

    def test_initial_is_stepped_backward(self):
        ring, sched = self.ring(), PropagatorSchedule(64, 4)
        x = np.random.default_rng(5).normal(size=(48, 3)) + 0j
        got = propagate(ring, 0.7, 0.2, sched, initial=x)
        assert np.abs(got - propagate(ring, 0.7, 0.2, sched) @ x).max() <= 1e-13
        [(dt, order)] = ring.steppers     # both sweeps share one, keyed by its signed width
        assert dt == (0.2 - 0.7) / 32 and order == 4

    def test_mirror_closed_columns_of_the_backward_propagator(self):
        ring, sched = self.ring(), PropagatorSchedule(16, 4)
        columns = np.arange(12, 36)
        assert np.array_equal(np.sort(ring.mirror()[columns]), columns)
        got = propagate(ring, 0.5, 0.0, sched, columns=columns)
        assert np.array_equal(got, propagate(ring, 0.5, 0.0, sched)[:, columns])


class TestMonodromy:
    def test_constant_hamiltonian(self, fast_sched):
        h = constant_model(seed=2)
        mono = monodromy(h, 0.0, fast_sched)
        assert np.abs(mono.operator - expm_hermitian(h.h0, 1.0)).max() < 1e-10

    def test_zero_hamiltonian(self, fast_sched):
        h = PeriodicHamiltonian(h0=np.zeros((3, 3)))
        assert np.abs(monodromy(h, 0.0, fast_sched).operator - np.eye(3)).max() < 1e-13

    def test_rabi_eigenphases(self, rabi, accurate_sched):
        mono = monodromy(rabi, 0.0, accurate_sched)
        got = np.sort(mono.quasi_energies)
        assert np.abs(got - rabi_quasi_energies(0.0, 1.0)).max() < 1e-8

    def test_unitary_and_unit_circle(self, fleet_models, fast_sched):
        for h in fleet_models:
            mono = monodromy(h, 0.0, fast_sched)
            assert unitary_defect(mono.operator) <= 1e-10
            assert np.abs(np.abs(mono.eig.values) - 1.0).max() <= 1e-10

    @pytest.mark.parametrize("n", [0, 1, 7, -5])
    def test_apply_is_the_power(self, fleet_models, fast_sched, n):
        mono = monodromy(fleet_models[1], 0.0, fast_sched)
        x = np.eye(mono.operator.shape[0])[:, :2]
        theta = mono.operator if n >= 0 else mono.operator.conj().T
        want = np.linalg.matrix_power(theta, abs(n)) @ x
        assert np.abs(mono.apply(n, x) - want).max() <= 1e-12

    @pytest.mark.parametrize("start, reduced", [(1e17, 0.0), (3.25, 0.25)])
    def test_period_operator_reduces_its_start(self, rabi, start, reduced):
        # Theta(s) has period 1 in s: formed at s mod 1, U0(1) + P E_w P^T from
        # window_block's answer there.  Stepped from 1e17 itself, s + 1/2 == s and
        # Theta would come out as I
        from floqscat.propagation import _with_block, window_block

        sched = PropagatorSchedule(64, 4)
        theta = monodromy(rabi, start, sched).operator
        assert np.array_equal(theta, monodromy(rabi, reduced, sched).operator)
        assert np.array_equal(theta, _with_block(rabi.free_period,
                                                 *window_block(rabi, reduced, sched)[:2]))
        assert not np.array_equal(theta, np.eye(2))


class TestSpectrumOnRead:
    """monodromy diagonalizes nothing; Monodromy.eig diagonalizes Theta when first read,
    on the model's mirror sectors, and keeps the answer."""

    @staticmethod
    def spy(monkeypatch):
        import floqscat.propagation as propagation

        calls, unitary_eig = [], propagation.unitary_eig

        def spy(u, mirror=None):
            calls.append((u.copy(), mirror))
            return unitary_eig(u, mirror)
        monkeypatch.setattr(propagation, "unitary_eig", spy)
        return calls

    def test_monodromy_diagonalizes_nothing(self, monkeypatch):
        from floqscat.model import build_lattice

        calls = self.spy(monkeypatch)
        ring = build_lattice(64, 1.0, -1.0, 0.5, [31, 32])
        mono = monodromy(ring, 0.25, PropagatorSchedule(16, 2))
        assert calls == []
        mono.operator
        assert calls == []

    def test_eig_read_twice_diagonalizes_once(self, monkeypatch):
        from floqscat.model import build_lattice

        calls = self.spy(monkeypatch)
        ring = build_lattice(64, 1.0, -1.0, 0.5, [31, 32])
        mono = monodromy(ring, 0.25, PropagatorSchedule(16, 2))
        eig = mono.eig
        assert mono.eig is eig and mono.quasi_energies.shape == (64,)
        [(theta, mirror)] = calls
        assert theta.tobytes() == mono.operator.tobytes()
        assert np.array_equal(mirror, ring.mirror())


class TestStructuralIdentities:
    def test_cocycle_r_equals_s(self, rabi, fast_sched):
        assert check_cocycle(rabi, 0.1, 0.1, 0.8, fast_sched) < 1e-12

    def test_cocycle_constant(self, fast_sched):
        assert check_cocycle(constant_model(seed=3), 0.0, 0.4, 1.1, fast_sched) <= 1e-10

    def test_cocycle_rabi(self, rabi, accurate_sched):
        assert check_cocycle(rabi, 0.0, 0.3, 1.0, accurate_sched) <= 1e-8

    def test_period_shift_zero(self, rabi, fast_sched):
        # t = 0: both sides are the one-period operator computed the same way
        assert check_period_shift(rabi, 0.0, fast_sched) <= 1e-12

    def test_period_shift_constant(self, fast_sched):
        assert check_period_shift(constant_model(seed=4), 0.8, fast_sched) <= 1e-10

    def test_period_shift_rabi(self, rabi, accurate_sched):
        assert check_period_shift(rabi, 0.6, accurate_sched) <= 1e-8

    def test_adjoint_symmetry(self, fleet_models, fast_sched):
        for h in fleet_models:
            u = propagate(h, 0.1, 0.9, fast_sched)
            v = propagate(h, 0.9, 0.1, fast_sched)
            assert np.abs(u.conj().T - v).max() <= 1e-10


class TestOrderOfAccuracy:
    @pytest.mark.parametrize("order", [2, 4])
    def test_ladder_ratio(self, rabi, order):
        study = convergence_ladder(rabi, order, steps=(64, 128, 256, 512))
        for ratio in study["ratios"]:
            assert 0.8 * 2**order <= ratio <= 1.2 * 2**order

    def test_floquet_mode_periodicity(self, rabi, accurate_sched):
        mono = monodromy(rabi, 0.0, accurate_sched)
        for k in range(2):
            lam = mono.quasi_energies[k]
            phi0 = mono.eig.vectors[:, k]
            psi1 = propagate(rabi, 0.0, 1.0, accurate_sched) @ phi0
            assert np.linalg.norm(np.exp(1j * lam) * psi1 - phi0) <= 1e-8
            # mid-period check of the factorization e^{i lam t} psi(t) periodic
            psi_t = propagate(rabi, 0.0, 0.4, accurate_sched) @ phi0
            psi_t1 = propagate(rabi, 0.0, 1.4, accurate_sched) @ phi0
            assert np.linalg.norm(np.exp(1j * lam) * psi_t1 - psi_t) <= 1e-8


def dense_magnus(h, steps, order):
    """Independent oracle: per-step dense Gauss-Magnus exponents, scipy.linalg.expm."""
    from scipy.linalg import expm

    def ham(t):
        return h.h0 + sum(m * np.exp(2j * np.pi * n * t) for n, m in h.modes.items())

    dt, g = 1.0 / steps, np.sqrt(3.0) / 6.0
    u = np.eye(h.dim, dtype=np.complex128)
    for k in range(steps):
        a = k * dt
        if order == 2:
            omega = dt * ham(a + dt / 2)
        else:
            h1, h2 = ham(a + dt * (0.5 - g)), ham(a + dt * (0.5 + g))
            omega = (dt / 2) * (h1 + h2) + 1j * (np.sqrt(3.0) * dt**2 / 12) * (h1 @ h2 - h2 @ h1)
        u = expm(-1j * omega) @ u
    return u


def scaled(h, factor):
    return PeriodicHamiltonian(h0=factor * h.h0, modes={n: factor * m for n, m in h.modes.items()})


def magnus_cases():
    from floqscat.model import build_lattice, fleet, rabi_model

    return {
        "ring-40": (build_lattice(40, 1.0, -1.8, 0.5, range(18, 22)), 64),
        "rabi": (rabi_model(0.3, 0.8), 64),
        "two-harmonic-d4": (fleet()[2], 64),
        "large-norm-d4": (scaled(fleet()[2], 25.0), 8),
    }


class TestMagnusStepper:
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("name", list(magnus_cases()))
    def test_matches_dense_magnus(self, name, order):
        h, steps = magnus_cases()[name]
        u = propagate(h, 0.0, 1.0, PropagatorSchedule(steps, order))
        assert np.abs(u - dense_magnus(h, steps, order)).max() <= 1e-12
        assert unitary_defect(u) <= 1e-12

    @pytest.mark.parametrize("order", [2, 4])
    def test_large_norm_takes_substeps(self, order):
        from floqscat.propagation import MagnusStepper

        h, steps = magnus_cases()["large-norm-d4"]
        assert MagnusStepper(h, 1.0 / steps, order).substeps > 1
        h, steps = magnus_cases()["ring-40"]
        assert MagnusStepper(h, 1.0 / steps, order).substeps == 1

    def test_taylor_plan_truncates_at_round_off(self):
        from math import factorial

        from floqscat.propagation import taylor_plan

        for bound in (1e-3, 0.05, 0.7, 3.0, 40.0):
            degree, substeps = taylor_plan(bound)
            x = bound / substeps
            assert x ** (degree + 1) / factorial(degree + 1) * np.exp(x) <= 2.0**-53

    def test_non_hermitian_exponent_rejected(self, fast_sched):
        h = PeriodicHamiltonian(h0=np.eye(2), modes={1: np.eye(2), -1: np.eye(2)})
        h.modes[-1] = 2.0 * np.eye(2)        # breaks H_-1 = H_1^dagger after validation
        with pytest.raises(ValueError, match="not Hermitian"):
            propagate(h, 0.0, 0.5, fast_sched)

    def test_initial_not_modified(self, rabi, fast_sched):
        initial = np.eye(2, dtype=np.complex128)
        propagate(rabi, 0.0, 0.5, fast_sched, initial=initial)
        assert np.array_equal(initial, np.eye(2))

    def test_real_initial(self, rabi, fast_sched):
        basis = np.array([[1.0], [0.0]])
        u = propagate(rabi, 0.0, 0.5, fast_sched, initial=basis)
        assert np.abs(u - propagate(rabi, 0.0, 0.5, fast_sched)[:, :1]).max() <= 1e-14

    def test_no_subnormal_entries(self):
        # far from the diagonal a ring propagator's entries decay without bound;
        # subnormal ones would slow every later product many times over
        from floqscat.model import build_lattice

        ring = build_lattice(256, 1.0, -0.8, 0.5, range(126, 131))
        parts = np.abs(propagate(ring, 0.0, 1.0, PropagatorSchedule(32, 2)).view(np.float64))
        assert not ((parts > 0) & (parts < np.finfo(np.float64).tiny)).any()


def power_sum_sweep(stepper, s, n_steps, u):
    """The step product by the Taylor power sum, term_j = X_j term_{j-1} added one
    by one with X_j = -i Omega / (substeps j), each through `omega @ x`."""
    import scipy.sparse as sp

    from floqscat.propagation import flush

    pattern = (stepper.indices, stepper.indptr)
    for data in stepper.entries(s + np.arange(n_steps) * stepper.dt):
        for _ in range(stepper.substeps):
            term, u = u, u.copy()
            for j in range(1, stepper.degree + 1):
                scaled = data * (-1j / (stepper.substeps * j))
                term = sp.csr_array((scaled, *pattern), shape=u.shape[:1] * 2) @ term
                u += term
        u = flush(u)
    return u


def scipy_built_stepper(h, dt, order):
    """(omega, stack, mirror, (degree, substeps)) as a stepper built on
    scipy.sparse forms them: CSR operands, sparse sums of their |entries|,
    COO keys."""
    from itertools import combinations

    import scipy.sparse as sp

    from floqscat.propagation import taylor_plan

    modes = [n for n in h.modes if n != 0]
    ops = [sp.csr_array(m) for m in [h.h0 + h.mode(0)] + [h.modes[n] for n in modes]]
    bound = dt * sum(float(abs(op).sum(axis=0).max(initial=0.0)) for op in ops)
    if order == 4:
        bound += np.sqrt(3.0) / 6.0 * bound**2
        ops += [ops[i] @ ops[j] - ops[j] @ ops[i] for i, j in combinations(range(len(ops)), 2)]
    for op in ops:
        op.eliminate_zeros()
        op.sum_duplicates()
    support = sum((abs(op) for op in ops), sp.csr_array(ops[0].shape))
    omega = (support + support.T).tocsr()
    omega.sum_duplicates()
    dim = omega.shape[0]
    pattern = omega.tocoo()
    keys = pattern.row.astype(np.int64) * dim + pattern.col

    def position(coo):
        return np.searchsorted(keys, coo.row.astype(np.int64) * dim + coo.col)

    stack = np.zeros((len(ops), pattern.nnz), dtype=np.complex128)
    for row, op in zip(stack, ops):
        coo = op.tocoo()
        row[position(coo)] = coo.data
    return omega, stack, position(pattern.T), taylor_plan(bound)


def mirror_ring(sites, width):
    from floqscat.model import build_lattice

    lo = sites // 2 - width // 2
    return build_lattice(sites, 1.0, -1.8, 0.45, range(lo, lo + width))


def pattern_cases():
    """magnus_cases, a mirror ring, ring-scatter's 81-site window segment, a ring whose
    light cone's segment would exceed half its sites (window_block steps it whole) and
    two random complex two-harmonic models, whose commutators fill the pattern."""
    from floqscat.model import _random_two_harmonic, build_lattice

    return {**magnus_cases(), "ring-48": (mirror_ring(48, 5), 256),
            "window-segment": (build_lattice(256, 1.0, -0.8, 0.5, range(126, 131)).segment(38),
                               64),
            "whole-ring": (build_lattice(64, 1.0, -1.8, 0.45, range(12, 52)), 64),
            "random-d2": (_random_two_harmonic(2, seed=5, label="d=2"), 64),
            "random-d3": (_random_two_harmonic(3, seed=23, label="d=3"), 64)}


class TestHornerStep:
    """Horner's rule with one fused kernel product per term, the numpy-built
    pattern and one stepped column per mirror orbit."""

    @pytest.mark.parametrize("name, span, steps", [("ring-48", 0.5, 256), ("rabi", 1.0, 512)])
    def test_matches_the_power_sum(self, name, span, steps):
        from floqscat.model import rabi_model
        from floqscat.propagation import MagnusStepper

        h = mirror_ring(48, 4) if name == "ring-48" else rabi_model(0.3, 0.8)
        n = int(span * steps)
        tol = 2 * n * np.finfo(np.float64).eps    # set from the dtype and the step count
        want = power_sum_sweep(MagnusStepper(h, 1.0 / steps, 4), 0.0, n,
                               np.eye(h.dim, dtype=np.complex128))
        got = propagate(h, 0.0, span, PropagatorSchedule(steps, 4))
        assert np.abs(got - want).max() <= tol

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("pattern", ["ring", "window-segment"])
    def test_kernel_product_is_omega_times_x(self, pattern, order):
        import scipy.sparse as sp

        from floqscat.model import PeriodicHamiltonian
        from floqscat.numerics import csr_matvecs
        from floqscat.propagation import MagnusStepper

        h = mirror_ring(48, 5)
        if pattern == "window-segment":
            ring = TestWindowRoute.ring()
            seg = np.arange(128 - 2 - 38, 128 + 2 + 39) % ring.sites
            cut = np.ix_(seg, seg)
            h = PeriodicHamiltonian(ring.h0[cut], {n: m[cut] for n, m in ring.modes.items()})
        stepper = MagnusStepper(h, 1.0 / 64, 4)
        data = stepper.entries(np.array([0.3]))[0] * (-0.25j)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(h.dim, 7)) + 1j * rng.normal(size=(h.dim, 7))
        x = np.asarray(x, order=order)
        omega = sp.csr_array((data, stepper.indices, stepper.indptr), shape=(h.dim, h.dim))
        got = np.zeros((h.dim, 7), dtype=np.complex128)
        csr_matvecs(h.dim, h.dim, 7, stepper.indptr, stepper.indices, data,
                    np.ascontiguousarray(x), got)
        assert np.array_equal(got, omega @ x)

    @pytest.mark.parametrize("start", [0.0, 0.25])
    @pytest.mark.parametrize("sites, width", [(40, 3), (44, 4), (47, 5), (48, 6)])
    def test_mirror_orbits_match_every_column(self, sites, width, start):
        h = mirror_ring(sites, width)
        mirror = h.mirror()
        assert mirror is not None
        sched = PropagatorSchedule(64, 4)
        got = propagate(h, start, start + 0.5, sched)
        every = propagate(h, start, start + 0.5, sched, initial=np.eye(sites))
        assert np.abs(got - every).max() <= 1e-14
        stepped = np.arange(sites) <= mirror
        assert np.array_equal(got[:, stepped], every[:, stepped])

    def test_mirror_is_the_reflection_about_the_support(self):
        from floqscat.model import build_lattice

        lat = build_lattice(40, 1.0, -1.5, 0.5, [18, 20])
        assert np.array_equal(lat.mirror(), (38 - np.arange(40)) % 40)
        assert build_lattice(40, 1.0, -1.5, 0.5, [18, 19, 21]).mirror() is None

    def test_asymmetric_model_has_no_mirror(self):
        from floqscat.model import LatticeModel

        ring = mirror_ring(40, 4)
        well = ring.well.copy()
        well[ring.potential_support[0]] -= 0.5    # deeper on the support's first site
        lat = LatticeModel(1.0, ring.potential_support, well, ring.drive)
        assert lat.mirror() is None
        sched = PropagatorSchedule(16, 4)
        assert np.array_equal(propagate(lat, 0.0, 0.5, sched),
                              propagate(lat, 0.0, 0.5, sched, initial=np.eye(40)))

    def test_all_zero_drive_has_an_empty_pattern(self, fast_sched):
        zero = np.zeros((2, 2))
        h = PeriodicHamiltonian(h0=zero, modes={1: zero, -1: zero})
        assert np.array_equal(propagate(h, 0.0, 1.0, fast_sched), np.eye(2))

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("name", list(pattern_cases()))
    def test_pattern_matches_the_scipy_built_one(self, name, order):
        from floqscat.propagation import MagnusStepper

        h, steps = pattern_cases()[name]
        stepper = MagnusStepper(h, 1.0 / steps, order)
        omega, stack, mirror, plan = scipy_built_stepper(h, 1.0 / steps, order)
        assert np.array_equal(stepper.indptr, omega.indptr)
        assert np.array_equal(stepper.indices, omega.indices)
        assert np.array_equal(stepper.stack.view(np.uint64), stack.view(np.uint64))
        assert np.array_equal(stepper.mirror, mirror)
        assert (stepper.degree, stepper.substeps) == plan

    def test_commutator_reads_only_the_nonzero_keys(self):
        # at dim 2^16 a dense d x d operand would take 64 GiB: the commutator of operands
        # on sites {0, 1, dim - 1} comes from their entries alone, exact here (small
        # integers), and equals the dense commutator of the 3 x 3 blocks on those sites
        from floqscat.propagation import _commutator

        dim, sites = 2**16, np.array([0, 1, 2**16 - 1])
        rng = np.random.default_rng(8)
        blocks = [rng.integers(-3, 4, (3, 3)) + 1j * rng.integers(-3, 4, (3, 3))
                  for _ in range(2)]
        for block in blocks:
            block[0, 2] = 0.0   # an absent entry
        keys = (sites[:, None] * dim + sites).ravel()
        parts = [(keys[np.flatnonzero(b)], b.ravel()[np.flatnonzero(b)]) for b in blocks]
        got_keys, got = _commutator(*parts, dim)
        want = blocks[0] @ blocks[1] - blocks[1] @ blocks[0]
        assert np.array_equal(got_keys, keys[np.flatnonzero(want)])
        assert np.array_equal(got, want.ravel()[np.flatnonzero(want)])


def record_propagate_spans(monkeypatch):
    """(s, t) of every propagate call made through the propagation module."""
    import floqscat.propagation as propagation

    spans, inner = [], propagation.propagate

    def spy(h, s, t, *args, **kwargs):
        spans.append((s, t))
        return inner(h, s, t, *args, **kwargs)

    monkeypatch.setattr(propagation, "propagate", spy)
    return spans


class TestHalfPeriod:
    """Theta = A^T A, A = U(s + 1/2, s), where H(t)^T = H(-t), 2s is an integer and
    the step count is even; the full period otherwise."""

    @pytest.mark.parametrize("start", [0.0, 0.5])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("name", ["ring-40", "rabi"])
    def test_half_path_matches_full_period(self, name, order, start, monkeypatch):
        from floqscat.propagation import reflection_symmetric

        h, steps = magnus_cases()[name]
        sched = PropagatorSchedule(steps, order)
        full = propagate(h, start, start + 1.0, sched)
        spans = record_propagate_spans(monkeypatch)
        mono = monodromy(h, start, sched)
        assert reflection_symmetric(h, start, sched)
        assert spans == [(start, start + 0.5)]
        assert np.abs(mono.operator - full).max() <= 1e-13
        assert unitary_defect(mono.operator) <= 1e-12

    @pytest.mark.parametrize("name, start, steps", [
        ("two-harmonic-d4", 0.0, 64),     # complex modes: H_-n != H_n^T
        ("ring-40", 0.25, 64),            # s + 1/2 is not a symmetry point
        ("ring-40", 0.0, 65),             # odd step count
    ])
    def test_full_path_where_the_symmetry_fails(self, name, start, steps, monkeypatch):
        from floqscat.propagation import reflection_symmetric

        h, _ = magnus_cases()[name]
        sched = PropagatorSchedule(steps, 4)
        full = propagate(h, start, start + 1.0, sched)
        spans = record_propagate_spans(monkeypatch)
        assert not reflection_symmetric(h, start, sched)
        mono = monodromy(h, start, sched)     # the every-site window: E = Theta - U0(1)
        assert np.array_equal(mono.block, full - h.free_period)
        assert np.array_equal(monodromy(h, start, sched).operator, mono.operator)
        assert spans == [(start, start + 1.0)] * 2

    def test_constant_model_not_stepped(self, fast_sched):
        from floqscat.propagation import reflection_symmetric

        assert not reflection_symmetric(constant_model(seed=5), 0.0, fast_sched)

    def test_half_path_has_no_subnormal_entries(self):
        # A^T A is flushed like every step
        from floqscat.model import build_lattice
        from floqscat.propagation import reflection_symmetric

        ring = build_lattice(256, 1.0, -0.8, 0.5, range(126, 131))
        sched = PropagatorSchedule(32, 2)
        assert reflection_symmetric(ring, 0.0, sched)
        parts = np.abs(monodromy(ring, 0.0, sched).operator.view(np.float64))
        assert not ((parts > 0) & (parts < np.finfo(np.float64).tiny)).any()

    def test_convergence_ladder_takes_the_same_operators(self, rabi, monkeypatch):
        spans = record_propagate_spans(monkeypatch)
        convergence_ladder(rabi, 4, steps=(64, 128))
        assert spans == [(0.0, 0.5)] * 2


class TestStepBookkeeping:
    def test_sweep_matches_single_steps(self):
        # Omega's entries for all steps at once, against one step at a time
        from floqscat.propagation import MagnusStepper

        for name in ("ring-40", "rabi", "two-harmonic-d4"):
            h, steps = magnus_cases()[name]
            stepper = MagnusStepper(h, 1.0 / steps, 4)
            u = np.eye(h.dim, dtype=np.complex128)
            for k in range(steps):
                u = step(stepper, k / steps, u)
            swept = stepper.sweep(0.0, steps, np.eye(h.dim, dtype=np.complex128))
            assert np.abs(swept - u).max() <= 1e-14

    def test_flush_clears_small_and_negative_zero_parts(self):
        from floqscat.propagation import flush

        u = np.array([-1e-70 + 1e-70j, -0.0 + 2.0j, 0.5 - 3e-61j, -1.0 - 0.0j])
        out = flush(u)
        assert out is u
        parts = u.view(np.float64)
        assert np.array_equal(parts, [0.0, 0.0, 0.0, 2.0, 0.5, 0.0, -1.0, 0.0])
        assert not np.signbit(parts[parts == 0.0]).any()

    @pytest.mark.parametrize("columns", [np.arange(10, 30), np.array([29, 3, 17]),
                                         np.arange(0, 40, 3)],
                             ids=["mirror-closed", "unsorted", "not-closed"])
    def test_columns_of_the_propagator(self, columns):
        # U(t, s)[:, columns] from those columns alone: on their mirror orbits where
        # the reflection maps them onto themselves (10..29 about the well's centre
        # 19.5), else each stepped; the stepped ones bit for bit those of a full sweep
        from floqscat.model import build_lattice

        ring, sched = build_lattice(40, 1.0, -1.0, 0.5, range(18, 22)), PropagatorSchedule(16, 4)
        full = propagate(ring, 0.0, 0.5, sched)
        got = propagate(ring, 0.0, 0.5, sched, columns=columns)
        assert got.flags.c_contiguous and got.shape == (40, len(columns))
        assert np.abs(got - full[:, columns]).max() <= 1e-15
        mirror = ring.mirror()
        stepped = columns <= mirror[columns]
        assert np.array_equal(got[:, stepped], full[:, columns[stepped]])

    def test_flush_leaves_an_array_without_small_parts_unwritten(self):
        from floqscat.propagation import flush

        u = np.array([1.0 - 2.0j, 3e-60 + 0.5j])
        u.flags.writeable = False     # a write would raise
        assert flush(u) is u


def stepped_period(h, s, sched):
    """Theta by stepping the whole model: the half path where the model allows."""
    from floqscat.propagation import flush, reflection_symmetric

    if reflection_symmetric(h, s, sched):
        half = propagate(h, s, s + 0.5, sched)
        return flush(half.T @ half)
    return propagate(h, s, s + 1.0, sched)


class TestWindowRoute:
    """Theta = U0(1) + P E_w P^T on the driven ring, from a short open segment."""

    @staticmethod
    def ring(sites=256):
        from floqscat.model import build_lattice

        ctr = sites // 2
        return build_lattice(sites, 1.0, -0.8, 0.5, range(ctr - 2, ctr + 3))

    def test_light_cone_radius(self):
        from floqscat.propagation import light_cone_radius

        assert light_cone_radius(1.0) == 19     # 1/18! > 2^-53 >= 1/19!
        assert light_cone_radius(-1.0) == 19
        assert light_cone_radius(0.0) == 1

    @pytest.mark.parametrize("start", [0.0, 0.25])
    def test_block_matches_propagated_theta(self, start):
        ring, sched = self.ring(), PropagatorSchedule(64, 4)
        mono = monodromy(ring, start, sched)
        assert len(mono.window) == 5 + 2 * 19
        assert mono.block.shape == (43, 43)
        full = propagate(ring, start, start + 1.0, sched)
        assert np.abs(mono.operator - full).max() <= 1e-13
        assert np.array_equal(mono.operator, self.period(ring, start, sched))

    def test_segment_steps_one_column_per_mirror_orbit(self, monkeypatch):
        # the 81-site segment around the 5-site well is a LatticeModel whose mirror is
        # the reflection about the well, and E_w reads only Theta_seg[W, W] =
        # A[:, W]^T A[:, W] on the 43-site window W: 22 of W's columns (one per
        # mirror orbit) are stepped, over half a period
        from floqscat.propagation import MagnusStepper, window_block

        ring, sched = self.ring(), PropagatorSchedule(64, 4)
        widths, sweep = [], MagnusStepper.sweep

        def spy(self, s, n_steps, u):
            widths.append((self.dim, n_steps, u.shape[1]))
            return sweep(self, s, n_steps, u)

        monkeypatch.setattr(MagnusStepper, "sweep", spy)
        window, block, segment = window_block(ring, 0.0, sched)
        assert widths == [(81, 32, 22)]
        assert segment.sites == 81 and list(segment.steppers) == [(1 / 64, 4)]
        monkeypatch.undo()
        assert np.abs(block - self.unmirrored_block(ring, sched)).max() <= 1e-15

    @staticmethod
    def unmirrored_block(ring, sched):
        # E_w from the same segment as a plain PeriodicHamiltonian, every column stepped
        segment = ring.support_window(38)
        cut = np.ix_(segment, segment)
        part = PeriodicHamiltonian(ring.h0[cut], {n: m[cut] for n, m in ring.modes.items()})
        return (monodromy(part, 0.0, sched).operator - part.free_period)[19:-19, 19:-19]

    @staticmethod
    def period(h, s, sched):
        return monodromy(h, s, sched).operator

    def test_border_check_widens_the_window(self, monkeypatch):
        import floqscat.propagation as propagation

        ring, sched = self.ring(), PropagatorSchedule(64, 4)
        radii, inner = [], propagation._stepped_period

        def spy(h, s, sched, cols):   # the segment's window block: 4r sites beyond the support
            radii.append((h.dim - 5) // 4)
            return inner(h, s, sched, cols)

        monkeypatch.setattr(propagation, "light_cone_radius", lambda hopping: 6)
        monkeypatch.setattr(propagation, "_stepped_period", spy)
        window, block, _ = propagation.window_block(ring, 0.0, sched)
        assert radii == [6, 12, 24]
        assert len(window) == 5 + 2 * 24
        theta = propagation._with_block(ring.free_period, window, block)
        assert np.abs(theta - propagate(ring, 0.0, 1.0, sched)).max() <= 1e-13

    def test_declined_window_steps_each_segment_once(self, monkeypatch):
        # at radius 6 the border check fails and radius 12 no longer fits a
        # 64-site ring: window_block steps one 29-site segment, then the whole
        # ring for the every-site window, and does not step that segment again
        import floqscat.propagation as propagation

        ring, sched = self.ring(64), PropagatorSchedule(64, 4)
        dims, inner = [], propagation.propagate

        def spy(h, s, t, sched=None, initial=None, columns=None):
            dims.append(h.dim)
            return inner(h, s, t, sched, initial, columns)

        monkeypatch.setattr(propagation, "light_cone_radius", lambda hopping: 6)
        monkeypatch.setattr(propagation, "propagate", spy)
        mono = monodromy(ring, 0.0, sched)
        assert np.array_equal(mono.window, np.arange(64)) and mono.segment is ring
        assert dims == [5 + 4 * 6, 64]
        monkeypatch.undo()
        assert np.array_equal(mono.block, stepped_period(ring, 0.0, sched) - ring.free_period)

    @pytest.mark.parametrize("case", ["mode-off-support", "next-nearest-hopping",
                                      "one-weak-bond"])
    def test_other_models_take_the_stepped_route(self, case):
        ring, sched = self.ring(), PropagatorSchedule(16, 2)
        h0, modes = ring.h0.copy(), dict(ring.modes)
        if case == "mode-off-support":
            modes[0] = modes[0].copy()
            modes[0][10, 10] = -0.8
        elif case == "next-nearest-hopping":
            h0[0, 2] = h0[2, 0] = -0.1
        else:
            h0[0, 1] = h0[1, 0] = -0.5
        self.assert_every_site(PeriodicHamiltonian(h0=h0, modes=modes), 0.0, sched)

    @pytest.mark.parametrize("sites", [48, 64])
    @pytest.mark.parametrize("start", [0.0, 0.25])
    def test_small_rings_keep_the_stepped_route(self, sites, start):
        # 5 + 4 * 19 = 81 sites of segment exceed half of either ring
        self.assert_every_site(self.ring(sites), start, PropagatorSchedule(64, 4))

    @staticmethod
    def assert_every_site(h, start, sched):
        # the window is every site, E = Theta - U0(1) with Theta stepped on the
        # model itself, and the segment is the model
        from floqscat.propagation import _with_block, window_block

        window, block, segment = window_block(h, start, sched)
        every = np.arange(h.dim)
        assert np.array_equal(window, every) and segment is h
        assert np.array_equal(block, stepped_period(h, start, sched) - h.free_period)
        theta = _with_block(h.free_period, every, block)
        assert np.array_equal(TestWindowRoute.period(h, start, sched), theta)
        mono = monodromy(h, start, sched)
        assert np.array_equal(mono.window, every) and mono.segment is h
        assert np.array_equal(mono.block, block) and np.array_equal(mono.operator, theta)

    def test_free_ring_block_is_zero(self):
        from floqscat.model import build_lattice

        free = build_lattice(256, 1.0, 0.0, 0.0, [128])
        mono = monodromy(free, 0.0, PropagatorSchedule(16, 2))
        assert len(mono.window) == 1 + 2 * 19 and not mono.block.any()
        assert np.array_equal(mono.operator, free.free_period)

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(hopping=st.floats(0.25, 0.6), width=st.integers(1, 6), extra=st.integers(0, 1),
           first=st.integers(0, 139), depth=st.floats(-2.0, 0.0), drive=st.floats(0.0, 1.0),
           start=st.sampled_from([0.0, 0.25]), steps=st.sampled_from([32, 64]))
    def test_light_cone_matches_the_stepped_period(self, hopping, width, extra, first, depth,
                                                   drive, start, steps):
        # on a ring just wide enough for the light cone's segment, the border check
        # takes the light cone's radius at once, and Theta from the window block
        # has the stepped Theta's entries and in-gap phases to round-off
        from floqscat.floquet import sidebands_closed
        from floqscat.model import build_lattice
        from floqscat.numerics import unitary_eig
        from floqscat.propagation import light_cone_radius

        radius = light_cone_radius(hopping)
        sites = 2 * (width + 4 * radius) + extra
        support = (first + np.arange(width)) % sites
        ring = build_lattice(sites, hopping, depth, drive, support)
        sched = PropagatorSchedule(steps, 4)
        mono = monodromy(ring, start, sched)
        assert len(mono.window) == width + 2 * radius
        theta = stepped_period(ring, start, sched)
        assert np.abs(mono.operator - theta).max() <= 1e-12

        def in_gap(phases):
            return np.sort(phases[sidebands_closed(phases, ring.free_levels)])
        stepped = unitary_eig(theta, ring.mirror()).values
        want = in_gap(np.mod(-np.angle(stepped), 2 * np.pi))
        got = in_gap(mono.quasi_energies)
        assert len(got) == len(want) and np.abs(got - want).max(initial=0.0) <= 1e-12

    def test_free_period_read_only_and_copied(self):
        ring = self.ring()
        theta0 = ring.free_period
        assert theta0 is ring.free_period and not theta0.flags.writeable
        # on a ring: the circulant of U0(1)'s first column by FFT, exp(-i H0) to round-off
        unit = np.eye(ring.sites, dtype=np.complex128)[:, 0]
        assert np.array_equal(theta0, circulant(ring.free_apply(1.0, unit)))
        assert np.abs(theta0 - free_propagator(ring, 1.0)).max() <= 1e-14
        before = theta0.copy()
        monodromy(ring, 0.0, PropagatorSchedule(16, 2)).eig    # forms Theta from U0(1)
        assert np.array_equal(ring.free_period, before)

    def test_nan_kick_leaks(self):
        # a NaN column norm fails the leak test, which `leak > tol * norm` passed
        from floqscat.propagation import WindowLeakError, _window_kicks

        mono = monodromy(self.ring(), 0.0, PropagatorSchedule(64, 4))
        x = np.zeros((256, 1), dtype=np.complex128)
        x[mono.window[len(mono.window) // 2]] = np.nan
        with pytest.raises(WindowLeakError, match="norm nan"):
            _window_kicks(mono, x, np.linspace(0.0, 1.0, 3))


class TestTaylorCeiling:
    def test_plan_above_the_ceiling_rejected(self):
        from floqscat.model import rabi_model
        from floqscat.propagation import MAX_TAYLOR_APPLICATIONS, MagnusStepper, StepPlanError

        with pytest.raises(StepPlanError, match="55 x 26299"):
            MagnusStepper(rabi_model(0.0, 1e6), 1.0 / 8, 2)
        # the widest plan of the suite's schedules sits far below it
        h, steps = magnus_cases()["large-norm-d4"]
        stepper = MagnusStepper(h, 1.0 / steps, 4)
        assert stepper.degree * stepper.substeps == 1760 < MAX_TAYLOR_APPLICATIONS // 16
        ring = TestWindowRoute.ring()
        stepper = MagnusStepper(ring, 1.0 / 8, 4)
        assert stepper.degree * stepper.substeps == 14
